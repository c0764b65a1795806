import itertools

import numpy as np
import pytest

from mbqcrb.channels import (
    I2,
    State,
    Unitary2,
    X,
    Z,
    channel_from_unitary,
    dephasing,
    depolarizing,
    measure,
    plus_state,
    projector_effect,
)
from mbqcrb.gatesets import (
    block_gates,
    clifford_group,
    derandomized_design,
    element_from_outcomes,
    frame_unitary,
)
from mbqcrb.wire import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    NO_NOISE,
    InstrumentConfig,
    NoiseModel,
    WireRun,
    conjugation_bits,
    measure_step,
    run_gate_block,
    step_unitary,
    survival_probability,
    update_pauli_frame,
)

from conftest import ScriptedRng

FORCE_ZERO = InstrumentConfig(bias=-0.5)  # outcome 1 has probability 0
FORCE_ONE = InstrumentConfig(bias=0.5)


def fresh_run():
    return WireRun(state=plus_state())


class TestNoiseModel:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="thermal")
        with pytest.raises(ValueError):
            NoiseModel(placement="sometimes")

    def test_realized_channels_are_cptp(self):
        models = [
            NoiseModel(),
            NoiseModel(kind="depolarizing", strength=0.9),
            NoiseModel(kind="dephasing", strength=0.2),
            NoiseModel(kind="amplitude-damping", strength=0.15),
            NoiseModel(kind="unitary-overrotation", strength=0.05),
            NoiseModel(
                kind="composite",
                parts=(
                    NoiseModel(kind="depolarizing", strength=0.99),
                    NoiseModel(kind="dephasing", strength=0.01),
                ),
            ),
        ]
        for nm in models:
            nm.realize()  # Channel constructor enforces CPTP

    def test_dependence_map(self):
        nm = NoiseModel(
            kind="depolarizing",
            strength=0.9,
            dependence=lambda theta, m: NoiseModel(
                kind="depolarizing", strength=0.9 if m == 0 else 0.8
            ),
        )
        assert np.allclose(nm.realize(0.0, 0).ptm, depolarizing(0.9).ptm)
        assert np.allclose(nm.realize(0.0, 1).ptm, depolarizing(0.8).ptm)

    @pytest.mark.parametrize("kind", ["depolarizing", "dephasing", "amplitude-damping"])
    def test_strength_outside_its_range_rejected(self, kind):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\], got 1.5"):
            NoiseModel(kind=kind, strength=1.5)

    def test_composite_requires_parts(self):
        with pytest.raises(ValueError):
            NoiseModel(kind="composite")

    def test_fields_the_kind_ignores_rejected(self):
        part = NoiseModel(kind="dephasing", strength=0.1)
        with pytest.raises(ValueError, match="parts"):
            NoiseModel(kind="depolarizing", strength=0.9, parts=(part,))
        with pytest.raises(ValueError, match="strength"):
            NoiseModel(kind="none", strength=0.3)
        with pytest.raises(ValueError, match="strength"):
            NoiseModel(kind="composite", strength=0.3, parts=(part,))


class TestInstrumentConfig:
    def test_bias_range(self):
        InstrumentConfig(bias=0.5)
        InstrumentConfig(bias=-0.5)
        with pytest.raises(ValueError):
            InstrumentConfig(bias=0.51)


class TestMeasureStep:
    def test_ideal_step_maps_plus_to_zero(self, rng):
        # theta = 0, outcome 0: the step applies H, and H|+> = |0>
        run = fresh_run()
        _, m = measure_step(run, 0.0, NO_NOISE, FORCE_ZERO, rng)
        assert m == 0
        assert np.allclose(run.bloch, [1, 0, 0, 1], atol=1e-12)
        assert run.outcomes == [0]

    def test_outcomes_differ_by_x_channel(self, rng):
        theta = 0.7
        run0, run1 = fresh_run(), fresh_run()
        measure_step(run0, theta, NO_NOISE, FORCE_ZERO, rng)
        measure_step(run1, theta, NO_NOISE, FORCE_ONE, rng)
        flipped = channel_from_unitary(X).ptm @ run0.bloch
        assert np.allclose(run1.bloch, flipped, atol=1e-12)

    def test_injection_restores_fair_outcomes(self):
        instrument = InstrumentConfig(bias=0.1, inject_randomness=True)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
        n = 100_000
        ones = 0
        run = fresh_run()
        for _ in range(n):
            _, m = measure_step(run, 0.0, NO_NOISE, instrument, rng)
            ones += m
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 3 * sigma

    def test_injection_records_coins(self):
        # raw outcome recoverable as recorded outcome XOR recorded coin
        instrument = InstrumentConfig(bias=0.0, inject_randomness=True)
        for raw, coin in ((0, 0), (0, 1), (1, 0), (1, 1)):
            run = fresh_run()
            rng = ScriptedRng([0.25 if raw else 0.75, 0.25 if coin else 0.75])
            _, m = measure_step(run, 0.0, NO_NOISE, instrument, rng)
            assert run.injected == [coin]
            assert m == raw ^ coin
            assert run.outcomes == [m]

    def test_fair_outcomes_with_no_noise(self):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(44)))
        n = 10_000
        ones = 0
        run = fresh_run()
        for _ in range(n):
            _, m = measure_step(run, 0.3, NO_NOISE, InstrumentConfig(), rng)
            ones += m
        assert abs(ones - n / 2) < 3 * np.sqrt(n * 0.25)

    def test_biased_outcomes_without_injection(self):
        instrument = InstrumentConfig(bias=0.1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(43)))
        n = 100_000
        ones = 0
        run = fresh_run()
        for _ in range(n):
            _, m = measure_step(run, 0.0, NO_NOISE, instrument, rng)
            ones += m
        sigma = np.sqrt(n * 0.6 * 0.4)
        assert abs(ones - 0.6 * n) < 3 * sigma

    def test_per_step_noise_applied(self, rng):
        noise = NoiseModel(kind="depolarizing", strength=0.5, placement=AFTER_EACH_STEP)
        run = fresh_run()
        measure_step(run, 0.0, noise, FORCE_ZERO, rng)
        assert np.allclose(run.bloch, [1, 0, 0, 0.5], atol=1e-12)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            measure_step(fresh_run(), 0.0)

    @pytest.mark.parametrize(
        "angles, steps",
        [((0.3,), 10_000), ((0.0,), 10_000), ((np.pi / 4,), 25_000), (None, 120_000)],
        ids=["0.3", "0.0", "pi/4", "design"],
    )
    def test_long_run_keeps_unit_trace(self, angles, steps):
        # rounding in the step PTMs once pushed the trace entry past its
        # tolerance after about 3000 (theta 0.3) or 4500 (theta 0) steps, and
        # the norm past a per-step Bloch-ball check after about 22 000 steps
        # at pi/4 and 113 000 steps cycling the design pattern
        angles = angles or derandomized_design().angles
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4503)))
        run = fresh_run()
        for k in range(steps):
            measure_step(run, angles[k % len(angles)], rng=rng)
        assert run.bloch[0] == 1.0
        assert abs(np.linalg.norm(run.bloch[1:]) - 1.0) <= 1e-9


class TestRunGateBlock:
    def test_three_zero_angles_apply_h(self, rng):
        # H . H . H = H
        run = fresh_run()
        _, outcomes = run_gate_block(run, (0.0, 0.0, 0.0), NO_NOISE, FORCE_ZERO, rng)
        assert outcomes == [0, 0, 0]
        assert np.allclose(run.bloch, [1, 0, 0, 1], atol=1e-12)

    def test_block_noise_once(self, rng):
        noise = NoiseModel(kind="depolarizing", strength=0.5, placement=AFTER_EACH_GATE_BLOCK)
        run = fresh_run()
        run_gate_block(run, (0.0, 0.0, 0.0), noise, FORCE_ZERO, rng)
        assert np.allclose(run.bloch, [1, 0, 0, 0.5], atol=1e-12)

    def test_design_block_matches_element_lookup(self):
        design = derandomized_design()
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
        for _ in range(20):
            run = fresh_run()
            _, outcomes = run_gate_block(run, design.angles, NO_NOISE, InstrumentConfig(), rng)
            element = element_from_outcomes(design, outcomes)
            expected = channel_from_unitary(element).ptm @ plus_state().bloch
            assert np.allclose(run.bloch, expected, atol=1e-10)

    def test_placement_equivalence_for_depolarizing(self):
        # q steps at p each equal one block at p^q, entry by entry
        from mbqcrb.engine import _block_table

        p_step = 0.97
        per_step = NoiseModel(kind="depolarizing", strength=p_step, placement=AFTER_EACH_STEP)
        per_block = NoiseModel(
            kind="depolarizing", strength=p_step**3, placement=AFTER_EACH_GATE_BLOCK
        )
        patterns = (clifford_group()[9].angles,)  # arbitrary table row
        a = _block_table(patterns, per_step)  # one row per outcome triple
        b = _block_table(patterns, per_block)
        assert a.shape == b.shape == (8, 4, 4)
        assert np.allclose(a, b, atol=1e-10)

    def test_empty_block_rejected(self, rng):
        with pytest.raises(ValueError):
            run_gate_block(fresh_run(), (), NO_NOISE, InstrumentConfig(), rng)


class TestInjectionNeutrality:
    def test_exact_three_step_distribution(self):
        """With fair outcomes, injection must not change the joint law of
        (state, effective outcomes); verified by enumerating all draws of a
        3-step wire, including outcome-dependent noise."""
        noise = NoiseModel(
            kind="dephasing",
            strength=0.1,
            placement=AFTER_EACH_STEP,
            dependence=lambda theta, m: NoiseModel(
                kind="dephasing", strength=0.1 if m else 0.25
            ),
        )
        angles = (0.3, 1.1, -0.4)

        def run_path(draws, inject):
            run = fresh_run()
            rng = ScriptedRng(draws)
            instrument = InstrumentConfig(bias=0.0, inject_randomness=inject)
            for theta in angles:
                measure_step(run, theta, noise, instrument, rng)
            return tuple(run.outcomes), run.bloch

    # without injection: 8 equally likely outcome strings
        plain = {}
        for bits in itertools.product((0, 1), repeat=3):
            draws = [0.25 if b else 0.75 for b in bits]
            outcomes, bloch = run_path(draws, inject=False)
            assert outcomes == bits
            plain[outcomes] = bloch

        # with injection: 64 equally likely (raw, coin) paths; group by the
        # effective outcome string and compare the conditional states
        counts = {bits: 0 for bits in plain}
        for raw in itertools.product((0, 1), repeat=3):
            for coins in itertools.product((0, 1), repeat=3):
                draws = []
                for r, c in zip(raw, coins):
                    draws.append(0.25 if r else 0.75)
                    draws.append(0.25 if c else 0.75)
                outcomes, bloch = run_path(draws, inject=True)
                assert outcomes == tuple(r ^ c for r, c in zip(raw, coins))
                counts[outcomes] += 1
                assert np.allclose(bloch, plain[outcomes], atol=1e-12)
        assert all(c == 8 for c in counts.values())


class TestPauliFrame:
    def test_zero_outcomes_keep_frame(self):
        assert update_pauli_frame((0, 0), (0, 0, 0), (0, 0, 0)) == (0, 0)

    def test_first_outcome_weights(self):
        assert update_pauli_frame((0, 0), (0, 0, 0), (1, 0, 0)) == (1, 0)

    def test_conjugation_bits_on_h(self):
        # H swaps X and Z
        a = conjugation_bits(Unitary2(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
        assert a.tolist() == [[0, 1], [1, 0]]

    def test_matches_matrix_oracle_over_random_sequences(self):
        rng = np.random.default_rng(11)
        group = clifford_group()
        for _ in range(200):
            frame = (0, 0)
            total = np.eye(2, dtype=complex)
            ideal = np.eye(2, dtype=complex)
            for _ in range(6):
                e = group[rng.integers(0, 24)]
                m = tuple(int(b) for b in rng.integers(0, 2, size=3))
                total = block_gates(e.angles, m) @ total
                ideal = e.unitary.matrix @ ideal
                frame = update_pauli_frame(frame, e.quarter_turns, m)
            # realized product == frame pauli . ideal product, up to phase
            predicted = frame_unitary(frame).matrix @ ideal
            assert Unitary2(total).equals_up_to_phase(Unitary2(predicted))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            update_pauli_frame((0, 2), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (0, 5, 0), (0, 0, 0))
        # a table lookup alone would wrap -1 around to 3
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (0, -1, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (0, 0, 0), (0, 2, 0))
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (0, 0), (0, 0, 0))
        # checked as given, not after int() truncates
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (2.5, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            update_pauli_frame((0.7, 0), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            update_pauli_frame((0, 0), (0, 0, 0), (0, 0.5, 0))


class TestFinalMeasurement:
    def test_plus_survives(self):
        run = fresh_run()
        assert survival_probability(run) == pytest.approx(1.0)

    def test_depolarized_survival(self):
        run = fresh_run()
        p = 0.62
        assert survival_probability(
            run, I2, NoiseModel(kind="depolarizing", strength=p)
        ) == pytest.approx((1 + p) / 2, abs=1e-12)

    def test_maximally_mixed_survives_half(self, rng):
        for u in (I2, X, Z):
            run = WireRun(state=State.from_xyz(0.0, 0.0, 0.0))
            assert survival_probability(run, u) == pytest.approx(0.5)

    def test_basis_rotation_precedes_inverse_noise(self):
        # noisy inverse = noise after the ideal rotation
        run = WireRun(state=State(channel_from_unitary(X).ptm @ plus_state().bloch))
        noise = NoiseModel(kind="amplitude-damping", strength=0.3)
        got = survival_probability(run, X, noise)
        rotated = channel_from_unitary(X).ptm @ run.bloch
        expected = measure(projector_effect(I2), noise.realize().ptm @ rotated)
        assert got == pytest.approx(expected, abs=1e-12)


class TestNoiselessClosure:
    def test_realized_gate_always_ideal_times_frame(self):
        # with no noise, state evolution equals frame pauli applied after the
        # all-zeros ideal gate, for every outcome realization
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
        group = clifford_group()
        for _ in range(50):
            run = fresh_run()
            frame = (0, 0)
            ideal = np.eye(2, dtype=complex)
            for _ in range(4):
                e = group[rng.integers(0, 24)]
                run, m = run_gate_block(run, e.angles, NO_NOISE, InstrumentConfig(), rng)
                ideal = e.unitary.matrix @ ideal
            expected_u = Unitary2(frame_unitary(run.pauli_frame).matrix @ ideal)
            expected = channel_from_unitary(expected_u).ptm @ plus_state().bloch
            assert np.allclose(run.bloch, expected, atol=1e-10)


class TestClusterTeleportationOracle:
    """Pin the wire step to first-principles cluster-state mechanics.

    An actual statevector simulation: entangle with CZ, project the leading
    qubit onto an eigenvector of cos(theta) X - sin(theta) Y, and compare the
    surviving qubit with the logical step gate. No channel machinery involved.
    """

    _CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    _PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)

    @staticmethod
    def _basis_ket(theta, m):
        return np.array([1.0, (-1) ** m * np.exp(-1j * theta)], dtype=complex) / np.sqrt(2)

    def _teleport(self, psi, theta, m):
        joint = (self._CZ @ np.kron(psi, self._PLUS)).reshape(2, 2)
        out = np.tensordot(self._basis_ket(theta, m).conj(), joint, axes=(0, 0))
        prob = float(np.linalg.norm(out) ** 2)
        return prob, out / np.linalg.norm(out)

    def test_single_site_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            theta = rng.uniform(-np.pi, np.pi)
            for m in (0, 1):
                prob, out = self._teleport(psi, theta, m)
                assert prob == pytest.approx(0.5, abs=1e-12)  # state independent
                target = step_unitary(theta, m).matrix @ psi
                assert abs(np.vdot(target, out)) == pytest.approx(1.0, abs=1e-10)

    def test_chained_sites_compose(self):
        # measuring site after site reproduces the block gate
        rng = np.random.default_rng(9)
        for _ in range(25):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            angles = rng.uniform(-np.pi, np.pi, size=3)
            outcomes = rng.integers(0, 2, size=3)
            state = psi
            for theta, m in zip(angles, outcomes):
                _, state = self._teleport(state, theta, int(m))
            target = block_gates(angles, outcomes) @ psi
            assert abs(np.vdot(target, state)) == pytest.approx(1.0, abs=1e-10)
