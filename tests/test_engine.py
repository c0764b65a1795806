import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from mbqcrb import engine
from mbqcrb.channels import Channel, I2, Unitary2, plus_state
from mbqcrb.engine import (
    PROTOCOLS,
    RBConfig,
    SpamModel,
    exact_sequence_fidelity,
    run_protocol,
    sequence_fidelity_estimate,
    sequence_inverse,
)
from mbqcrb.gatesets import (
    COSET_REP_WORDS,
    clifford_group,
    clifford_index,
    clifford_table,
    derandomized_design,
    element_from_outcomes,
)
from mbqcrb.wire import (
    AFTER_EACH_STEP,
    NO_NOISE,
    InstrumentConfig,
    NoiseModel,
    WireRun,
    frame_unitary,
    run_gate_block,
    survival_probability,
)

from conftest import ScriptedRng

DEP = NoiseModel(kind="depolarizing", strength=0.9)
DEPENDENT = NoiseModel(dependence=lambda angles, outcomes: DEP)
NONE = NoiseModel()


def item_rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestDrawGateIndices:
    FULL_POOL = np.arange(24)

    def test_full_group_uniform(self):
        rng = item_rng(101)
        n = 100_000
        counts = np.bincount(engine._draw_gate_indices(n, self.FULL_POOL, rng), minlength=24)
        assert counts.size == 24
        sigma = np.sqrt(n * (1 / 24) * (23 / 24))
        assert np.all(np.abs(counts - n / 24) < 3 * sigma)

    def test_coset_membership(self):
        rng = item_rng(5)
        group = clifford_group()
        words = {"I", "P", "H", "PH", "HP", "PHP"}
        for g in engine._draw_gate_indices(50, engine._gate_pool("clifford-mbqc", "coset"), rng):
            assert group[g].word in words

    def test_only_a_coset_mode_clifford_wire_draws_from_the_coset_reps(self):
        reps = engine._gate_pool("clifford-mbqc", "coset")
        assert sorted(clifford_group()[g].word for g in reps) == sorted(COSET_REP_WORDS)
        for protocol, mode in [("clifford-mbqc", "full"), ("circuit", "coset"), ("circuit", "full")]:
            assert engine._gate_pool(protocol, mode).tolist() == self.FULL_POOL.tolist()

    def test_seeded_determinism(self):
        a = engine._draw_gate_indices(10, self.FULL_POOL, item_rng(3))
        b = engine._draw_gate_indices(10, self.FULL_POOL, item_rng(3))
        assert a.tolist() == b.tolist()


class TestSequenceInverse:
    def test_h_is_self_inverse(self):
        group = {e.word: e.unitary for e in clifford_group()}
        assert sequence_inverse([group["H"]]).equals_up_to_phase(group["H"])

    def test_two_gate_order(self):
        group = {e.word: e.unitary for e in clifford_group()}
        inv = sequence_inverse([group["P"], group["H"]])
        expected = Unitary2((group["H"].matrix @ group["P"].matrix).conj().T)
        assert inv.equals_up_to_phase(expected)

    def test_random_sequences_close(self, rng):
        group = clifford_group()
        for _ in range(100):
            seq = [group[k].unitary for k in rng.integers(0, 24, size=8)]
            inv = sequence_inverse(seq)
            total = np.eye(2, dtype=complex)
            for u in seq:
                total = u.matrix @ total
            assert Unitary2(inv.matrix @ total).phase_distance(I2) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sequence_inverse([])


class TestRBConfigValidation:
    def test_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            RBConfig(protocol="mirror", lengths=(1,), sequences_per_length=1, shots_per_sequence=1)

    def test_rejects_empty_lengths(self):
        with pytest.raises(ValueError):
            RBConfig(protocol="circuit", lengths=(), sequences_per_length=1, shots_per_sequence=1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            RBConfig(protocol="circuit", lengths=(1,), sequences_per_length=1, shots_per_sequence=0)

    def test_rejects_zero_length_and_unknown_mode(self):
        with pytest.raises(ValueError, match="lengths"):
            RBConfig(protocol="clifford-mbqc", lengths=(0,), sequences_per_length=1, shots_per_sequence=1)
        with pytest.raises(ValueError, match="clifford_mode"):
            RBConfig(
                protocol="clifford-mbqc", lengths=(3,), sequences_per_length=1,
                shots_per_sequence=1, clifford_mode="both",
            )


class TestSettingsRejectedByTheLibrary:
    """The config types and the oracle apply the checks that config files get."""

    @pytest.mark.parametrize(
        "overrides",
        [{"lengths": (1.5, 2, 3)}, {"shots_per_sequence": True}],
        ids=["fractional-length", "flag-as-count"],
    )
    def test_config_field_of_the_wrong_type(self, overrides):
        settings = dict(protocol="circuit", lengths=(1, 2, 3), sequences_per_length=1, shots_per_sequence=1)
        with pytest.raises(ValueError):
            RBConfig(**{**settings, **overrides})

    def test_noise_strength_given_as_text(self):
        with pytest.raises(ValueError, match="strength"):
            NoiseModel("depolarizing", "0.9")

    @pytest.mark.parametrize(
        "options",
        [
            {"clifford_mode": "cosett"},
            {"bias": -0.9},
            {"design_phis": (1.0,)},
            {"design_phis": (0, 0, 5)},
        ],
        ids=["mode", "bias", "one-phi", "three-phis"],
    )
    def test_oracle_setting_a_config_rejects(self, options):
        for protocol in ("clifford-mbqc", "derandomized-mbqc"):
            with pytest.raises(ValueError):
                exact_sequence_fidelity(protocol, 2, DEP, **options)

    @pytest.mark.parametrize(
        "protocol, noise, noise_inv, field",
        [
            ("circuit", DEPENDENT, None, "noise"),
            ("circuit", DEP, DEPENDENT, "noise_inv"),
            ("derandomized-mbqc", DEP, DEPENDENT, "noise_inv"),
            ("derandomized-mbqc", DEPENDENT, None, "noise"),
            ("circuit", NoiseModel(kind="composite", parts=(DEP, DEPENDENT)), None, "noise"),
        ],
        ids=[
            "circuit-gates",
            "circuit-inverse",
            "derandomized-inverse",
            "derandomized-reused-inverse",
            "circuit-composite-part",
        ],
    )
    def test_dependence_where_no_angle_or_outcome_is_given(self, protocol, noise, noise_inv, field):
        # the map would be called with (None, None): rejected up front, naming the field
        message = f"^{field} has a dependence map, but the {protocol} protocol gives it no angle or outcome$"
        with pytest.raises(ValueError, match=message):
            RBConfig(protocol, (1,), 1, 1, noise, noise_inv)
        with pytest.raises(ValueError, match=message):
            exact_sequence_fidelity(protocol, 2, noise, None, noise_inv)


class TestCompositeNoise:
    def test_dependent_part_is_realized_at_each_block(self):
        calls = []

        def half(angles, outcomes):
            calls.append((angles, outcomes))
            return NoiseModel(kind="depolarizing", strength=0.5)

        part = NoiseModel(dependence=half)
        alone = exact_sequence_fidelity("clifford-mbqc", 3, part).enumerated
        composite = NoiseModel(kind="composite", parts=(part,))
        assert exact_sequence_fidelity("clifford-mbqc", 3, composite).enumerated == alone
        assert calls and all(a is not None and o is not None for a, o in calls)
        assert abs(alone - 0.53125) < 1e-12
        # a composite returned by a dependence map realizes its parts too
        nested = NoiseModel(dependence=lambda angles, outcomes: composite)
        assert exact_sequence_fidelity("clifford-mbqc", 3, nested).enumerated == alone

    @pytest.mark.parametrize("placement", ["after-each-gate-block", AFTER_EACH_STEP])
    def test_parts_act_in_order_at_the_step_context(self, placement):
        damp = NoiseModel(kind="amplitude-damping", strength=0.05)
        part = NoiseModel(
            dependence=lambda angles, outcomes: NoiseModel(
                kind="unitary-overrotation", strength=0.1 + 0.05 * float(np.sum(outcomes))
            )
        )
        composite = NoiseModel(kind="composite", parts=(part, damp), placement=placement)
        folded = NoiseModel(
            placement=placement,
            dependence=lambda angles, outcomes: Channel(
                damp.base_channel().ptm @ part.realize(angles, outcomes).ptm
            ),
        )
        for protocol in ("clifford-mbqc", "derandomized-mbqc"):
            got = exact_sequence_fidelity(protocol, 4, composite, None, NONE)
            want = exact_sequence_fidelity(protocol, 4, folded, None, NONE)
            assert abs(got.enumerated - want.enumerated) < 1e-14

    # recorded before composites realized their parts at each step: a composite
    # with no dependent part, the only kind a config file can hold, keeps its bits
    STATIC = {
        ("after-each-gate-block", "circuit"): 0.8854709238942087,
        ("after-each-gate-block", "clifford-mbqc"): 0.8854709238942086,
        ("after-each-gate-block", "derandomized-mbqc"): 0.8854709238942089,
        ("after-each-step", "circuit"): 0.8854709238942087,
        ("after-each-step", "clifford-mbqc"): 0.7260132963206487,
        ("after-each-step", "derandomized-mbqc"): 0.6595958237231957,
    }

    @pytest.mark.parametrize("placement, protocol", sorted(STATIC))
    def test_static_composite_keeps_its_bits(self, placement, protocol):
        parts = (
            NoiseModel(kind="depolarizing", strength=0.97),
            NoiseModel(kind="amplitude-damping", strength=0.02),
        )
        noise = NoiseModel(kind="composite", parts=parts, placement=placement)
        assert not noise.dependent
        assert noise.realize(0.5, 1) is noise.base_channel()
        got = exact_sequence_fidelity(protocol, 5, noise).enumerated
        assert got == self.STATIC[placement, protocol]


class TestNoiselessProtocols:
    @pytest.mark.parametrize("protocol", ["circuit", "clifford-mbqc", "derandomized-mbqc"])
    def test_every_shot_survives(self, protocol):
        cfg = RBConfig(
            protocol=protocol,
            lengths=(1, 2, 5),
            sequences_per_length=10,
            shots_per_sequence=40,
            seed=23,
        )
        ds = run_protocol(cfg)
        assert all(r.survivals == r.shots for r in ds.records)

    def test_byproduct_folding_over_1000_runs(self):
        # 1000 noiseless wire runs across lengths: survival always certain
        cfg = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1, 2, 3, 4, 5),
            sequences_per_length=20,
            shots_per_sequence=10,
            seed=29,
        )
        ds = run_protocol(cfg)
        assert sum(r.shots for r in ds.records) == 1000
        assert all(r.survivals == r.shots for r in ds.records)


class TestRunProtocolStatistics:
    def test_clifford_decay_within_3_sigma(self):
        dep = NoiseModel(kind="depolarizing", strength=0.96)
        cfg = RBConfig(
            protocol="clifford-mbqc",
            lengths=(1, 4, 8),
            sequences_per_length=40,
            shots_per_sequence=100,
            noise=dep,
            noise_inv=NONE,
            seed=31,
        )
        ds = run_protocol(cfg)
        for s in cfg.lengths:
            mean, _ = sequence_fidelity_estimate(ds, s)
            target = 0.5 * 0.96**s + 0.5
            sigma = np.sqrt(target * (1 - target) / (40 * 100))
            assert abs(mean - target) < 3 * sigma, s

    def test_derandomized_decay_within_3_sigma(self):
        dep = NoiseModel(kind="depolarizing", strength=0.96)
        cfg = RBConfig(
            protocol="derandomized-mbqc",
            lengths=(1, 4, 8),
            sequences_per_length=40,
            shots_per_sequence=100,
            noise=dep,
            noise_inv=NONE,
            seed=37,
        )
        ds = run_protocol(cfg)
        for s in cfg.lengths:
            mean, _ = sequence_fidelity_estimate(ds, s)
            target = 0.5 * 0.96**s + 0.5
            sigma = np.sqrt(target * (1 - target) / (40 * 100))
            assert abs(mean - target) < 3 * sigma, s

    def test_same_seed_reproduces(self):
        cfg = RBConfig(
            protocol="derandomized-mbqc",
            lengths=(1, 3),
            sequences_per_length=5,
            shots_per_sequence=20,
            noise=DEP,
            seed=41,
        )
        a, b = run_protocol(cfg), run_protocol(cfg)
        assert a.records == b.records

    def test_bias_warning_flag(self):
        cfg = RBConfig(
            protocol="derandomized-mbqc",
            lengths=(1,),
            sequences_per_length=1,
            shots_per_sequence=1,
            instrument=InstrumentConfig(bias=0.1),
            seed=1,
        )
        assert run_protocol(cfg).warnings
        ok = RBConfig(
            protocol="derandomized-mbqc",
            lengths=(1,),
            sequences_per_length=1,
            shots_per_sequence=1,
            instrument=InstrumentConfig(bias=0.1, inject_randomness=True),
            seed=1,
        )
        assert not run_protocol(ok).warnings


class TestRecordsIndependentOfBatching:
    """Each record depends only on the seed, its length and its index."""

    @pytest.mark.parametrize("shots", [50, 5462], ids=["50-shots", "5462-shots"])
    @pytest.mark.parametrize("protocol", ["circuit", "clifford-mbqc", "derandomized-mbqc"])
    def test_first_records_equal_for_more_sequences(self, protocol, shots):
        k = 3
        base = dict(
            protocol=protocol,
            lengths=(1, 4),
            shots_per_sequence=shots,
            noise=DEP,
            instrument=InstrumentConfig(bias=0.1, inject_randomness=True),
            seed=61,
        )
        few = run_protocol(RBConfig(sequences_per_length=k, **base))
        many = run_protocol(RBConfig(sequences_per_length=3 * k, **base))
        for s in base["lengths"]:
            assert [r for r in few.records if r.s == s] == [r for r in many.records if r.s == s][:k]
        alone = run_protocol(RBConfig(sequences_per_length=k, **{**base, "lengths": (4,)}))
        assert alone.records == tuple(r for r in few.records if r.s == 4)


class TestSequenceFidelityEstimate:
    def _dataset(self):
        cfg = RBConfig(
            protocol="circuit",
            lengths=(1, 2),
            sequences_per_length=2,
            shots_per_sequence=10,
            seed=3,
        )
        return run_protocol(cfg)

    def test_all_survive(self):
        mean, stderr = sequence_fidelity_estimate(self._dataset(), 1)
        assert mean == 1.0 and stderr == 0.0

    def test_simple_average(self):
        from mbqcrb.engine import RBDataset, SequenceRecord

        ds = self._dataset()
        records = (
            SequenceRecord(s=1, index=0, gate_indices=(), survivals=6, shots=10, digest="x"),
            SequenceRecord(s=1, index=1, gate_indices=(), survivals=8, shots=10, digest="y"),
        )
        mean, stderr = sequence_fidelity_estimate(
            RBDataset(config=ds.config, records=records), 1
        )
        assert mean == pytest.approx(0.7)
        assert stderr == pytest.approx(np.std([0.6, 0.8], ddof=1) / np.sqrt(2))

    def test_missing_length(self):
        with pytest.raises(KeyError):
            sequence_fidelity_estimate(self._dataset(), 9)


# The oracle-ladder settings of the benchmark: gate-dependent noise and biased outcomes.
LADDER_NOISE = NoiseModel(kind="amplitude-damping", strength=0.02, placement=AFTER_EACH_STEP)
LADDER_SPAM = SpamModel(prep_shrink=0.98, effect_bias=0.01)


def ladder_operator(protocol, mode="coset"):
    return engine._transfer_operator(
        protocol, LADDER_NOISE, LADDER_NOISE, LADDER_SPAM, 0.1, mode, (0.0, 0.0)
    )


def dense_transfer_operator(gates, readout, x0, pool):
    """Test-only reference: the dense M = sum_g P_g (x) B[g] / |pool| that the
    engine applies without forming, with its start state and readout.

    P_g moves product class v to product[g, v], and the state holds, per
    class, the per-gate state summed over the sequences in it.
    """
    table = clifford_table()
    d = len(x0)
    op = np.zeros((24, d, 24, d))  # [product class, state] x [class, state]
    # for fixed v, g -> product[g, v] is a bijection: every entry is set once
    op[table.product[pool], :, np.arange(24)] = gates[pool][:, None] / len(pool)
    start = np.zeros((24, d))
    start[0] = x0
    return op.reshape(24 * d, 24 * d), start.ravel(), readout.ravel()


def dense_value(dense, s):
    op, x, readout = dense
    for _ in range(s):
        x = op @ x
    return float(readout @ x)


# (protocol, mode) of the three group oracles, and the noise they are checked under
GROUP_ORACLES = {
    "circuit": ("circuit", "coset"),
    "coset": ("clifford-mbqc", "coset"),
    "full": ("clifford-mbqc", "full"),
}


def group_settings(variant, noise_name):
    protocol, mode = GROUP_ORACLES[variant]
    noise = LADDER_NOISE if noise_name == "ladder" else DEPENDENCE_NOISE[noise_name]
    return protocol, noise, noise, LADDER_SPAM, 0.1, mode, (0.0, 0.0)


def dense_reference(protocol, noise, noise_inv, spam, bias, mode, phis):
    pool = engine._gate_pool(protocol, mode)
    return dense_transfer_operator(*engine._gate_operators(protocol, noise, noise_inv, spam, bias), pool)


class TestExactOracle:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_transfer_operator_is_read_only(self, protocol):
        for part in ladder_operator(protocol):
            with pytest.raises(ValueError):
                part.flat[0] = part.flat[0]

    # SHA-256 of the dense M recorded from the engine's former transpose-and-copy
    # construction, kept as the reference the matrix-free step is checked against
    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("coset", "36888717b3d69198e3b926a6562ba0ed4ccdafb275a1346810d794fe5e8b6aca"),
            ("full", "454868b2338b833ed9d4d6960e18e3fddd501a84bf4e045c72d9b353aba0452d"),
        ],
    )
    def test_transfer_operator_bytes_pinned(self, mode, digest):
        op = dense_reference(*group_settings(mode, "ladder"))[0]
        assert op.shape == (384, 384)
        assert hashlib.sha256(op.tobytes()).hexdigest() == digest

    # the circuit model reads no angle or outcome, so dependence noise has no context there
    @pytest.mark.parametrize(
        "variant, noise_name",
        [("circuit", "ladder")] + [(v, n) for v in ("coset", "full") for n in ("ladder", "block", "step")],
    )
    def test_matrix_free_step_matches_dense_reference(self, variant, noise_name):
        settings = group_settings(variant, noise_name)
        operator = engine._transfer_operator(*settings)
        dense = dense_reference(*settings)
        for s in (1, 2, 3, 4, 50, 200):
            assert engine._transfer_value(operator, s) == pytest.approx(dense_value(dense, s), abs=1e-13), s

    @pytest.mark.parametrize("noise_name", ["ladder", "block", "step"])
    def test_derandomized_step_keeps_the_bits_of_op_at_x(self, noise_name):
        # run draws its Born coins from this value: the one-class step must
        # round exactly as the matrix-vector product of the 16x16 operator
        noise, noise_inv = LADDER_NOISE, LADDER_NOISE
        if noise_name != "ladder":  # the inverse is a readout rotation: no block context
            noise, noise_inv = DEPENDENCE_NOISE[noise_name], NoiseModel(kind="depolarizing", strength=0.98)
        operator = engine._transfer_operator(
            "derandomized-mbqc", noise, noise_inv, LADDER_SPAM, 0.1, "coset", (0.3, 1.1)
        )
        stacked, _, x0, readout = operator
        op, x = np.ascontiguousarray(stacked.T), x0.ravel()
        for s in range(1, 201):
            x = op @ x
            assert engine._transfer_value(operator, s) == float(readout.ravel() @ x), s

    def test_full_mode_oracle_never_holds_the_dense_operator(self):
        # the dense M of the Clifford wire alone is 384**2 doubles, 1.18 MB
        clifford_table(), clifford_group()  # shared tables, built once per process
        engine._block_table.cache_clear()
        tracemalloc.start()
        try:
            operator = engine._transfer_operator.__wrapped__(*group_settings("full", "ladder"))
            for s in (1, 2, 3, 4, 200):
                engine._transfer_value(operator, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    @pytest.mark.parametrize("protocol,smax", [("circuit", 4), ("clifford-mbqc", 3), ("derandomized-mbqc", 3)])
    def test_noiseless_is_one(self, protocol, smax):
        for s in range(1, smax + 1):
            ex = exact_sequence_fidelity(protocol, s)
            assert ex.enumerated == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("protocol,smax", [("circuit", 4), ("clifford-mbqc", 3), ("derandomized-mbqc", 3)])
    def test_depolarizing_closed_form(self, protocol, smax):
        for s in range(1, smax + 1):
            ex = exact_sequence_fidelity(protocol, s, noise=DEP, noise_inv=NONE)
            assert ex.enumerated == pytest.approx(0.5 * 0.9**s + 0.5, abs=1e-9)
            assert ex.enumerated == pytest.approx(ex.analytic, abs=1e-9)

    def test_clifford_s2_value(self):
        ex = exact_sequence_fidelity("clifford-mbqc", 2, noise=DEP, noise_inv=NONE)
        assert ex.enumerated == pytest.approx(0.905, abs=1e-9)

    def test_protocol_equivalence(self):
        # equal per-element depolarizing noise: all three reduce to the same value
        for s in (1, 2, 3):
            values = [
                exact_sequence_fidelity(proto, s, noise=DEP, noise_inv=NONE).enumerated
                for proto in ("circuit", "clifford-mbqc", "derandomized-mbqc")
            ]
            assert max(values) - min(values) < 1e-9

    def test_full_mode_matches_coset_mode(self):
        for s in (1, 2):
            a = exact_sequence_fidelity("clifford-mbqc", s, noise=DEP, clifford_mode="coset")
            b = exact_sequence_fidelity("clifford-mbqc", s, noise=DEP, clifford_mode="full")
            assert a.enumerated == pytest.approx(b.enumerated, abs=1e-9)

    def test_any_length_from_one_accepted(self):
        # lengths past the old enumeration caps (4, or 3 for derandomized) work
        for protocol in ("circuit", "clifford-mbqc", "derandomized-mbqc"):
            for s in (4, 5, 1000):
                ex = exact_sequence_fidelity(protocol, s, noise=DEP, noise_inv=NONE)
                assert 0.0 <= ex.enumerated <= 1.0
            for s in (0, -1):
                with pytest.raises(ValueError, match=">= 1"):
                    exact_sequence_fidelity(protocol, s)

    @pytest.mark.parametrize(
        "protocol,mode",
        [
            ("circuit", "coset"),
            ("clifford-mbqc", "coset"),
            ("clifford-mbqc", "full"),
            ("derandomized-mbqc", "coset"),
        ],
    )
    @pytest.mark.parametrize("s", [5, 50, 1000])
    @pytest.mark.parametrize("inv_p", [1.0, 0.95])
    def test_depolarizing_closed_form_at_long_lengths(self, protocol, mode, s, inv_p):
        dinv = NoiseModel(kind="depolarizing", strength=inv_p)
        ex = exact_sequence_fidelity(protocol, s, noise=DEP, noise_inv=dinv, clifford_mode=mode)
        assert ex.enumerated == pytest.approx(0.5 + 0.5 * inv_p * 0.9**s, abs=1e-12)

    def test_per_step_placement_closed_form(self):
        dep_step = NoiseModel(kind="depolarizing", strength=0.99, placement=AFTER_EACH_STEP)
        ex = exact_sequence_fidelity("clifford-mbqc", 2, noise=dep_step, noise_inv=NONE)
        p_block = 0.99**3
        assert ex.enumerated == pytest.approx(0.5 * p_block**2 + 0.5, abs=1e-9)
        assert ex.analytic == pytest.approx(ex.enumerated, abs=1e-9)

    def test_gate_dependent_noise_deviation_reported(self):
        # per-gate depolarizing strengths varying +-10%. The fold must match
        # the dense reference; and since a depolarizing channel commutes with
        # every gate, the average over independent gates stays on the model at
        # the mean strength, so the reported deviation is rounding only
        from mbqcrb.channels import depolarizing

        strengths = [0.9 * (1 + 0.1 * np.cos(2 * np.pi * k / 24)) for k in range(24)]
        table = clifford_table()
        steps = np.array([depolarizing(min(pk, 1.0)).ptm @ g for pk, g in zip(strengths, table.ptm)])
        prep = plus_state().bloch
        readout = SpamModel().effect().bloch_coeffs @ table.ptm[table.inverse]
        parts = (steps, readout, prep, np.arange(24))
        value = engine._transfer_value(engine._group_transfer(*parts), 2)
        assert value == pytest.approx(dense_value(dense_transfer_operator(*parts), 2), abs=1e-13)
        p_mean = float(np.mean(strengths))
        model = 0.5 * p_mean**2 + 0.5
        deviation = abs(value - model)
        print(f"gate-dependent noise: enumeration {value:.8f}, model {model:.8f}, deviation {deviation:.2e}")
        assert deviation < 1e-12


class TestExactVersusLiteralBruteForce:
    """Independent oracle: replay every branch through the scalar wire ops."""

    def _clifford_brute_force(self, s, noise, noise_inv, bias, mode):
        group = clifford_group()
        pool = [group[k] for k in clifford_table().coset_reps] if mode == "coset" else group
        spam = SpamModel()
        total = 0.0
        nsteps = 3 * (s + 1)
        for seq in itertools.product(pool, repeat=s):
            inv = group[clifford_index(sequence_inverse([e.unitary for e in seq]))]
            blocks = list(seq) + [inv]
            noises = [noise] * s + [noise_inv]
            for bits in itertools.product((0, 1), repeat=nsteps):
                weight = 1.0
                for b in bits:
                    weight *= 0.5 + bias if b else 0.5 - bias
                if weight == 0.0:
                    continue
                draws = [0.0 if b else 0.999 for b in bits]
                rng = ScriptedRng(draws)
                run = WireRun(state=spam.prep())
                instrument = InstrumentConfig(bias=bias)
                for element, nz in zip(blocks, noises):
                    run_gate_block(run, element.angles, nz, instrument, rng)
                p = survival_probability(
                    run, frame_unitary(run.pauli_frame), NO_NOISE, spam.effect()
                )
                total += weight * p / len(pool) ** s
        return total

    def _derandomized_brute_force(self, s, noise, noise_inv, bias):
        design = derandomized_design()
        spam = SpamModel()
        total = 0.0
        for bits in itertools.product((0, 1), repeat=5 * s):
            weight = 1.0
            for b in bits:
                weight *= 0.5 + bias if b else 0.5 - bias
            if weight == 0.0:
                continue
            draws = [0.0 if b else 0.999 for b in bits]
            rng = ScriptedRng(draws)
            run = WireRun(state=spam.prep())
            instrument = InstrumentConfig(bias=bias)
            v = np.eye(2, dtype=complex)
            for j in range(s):
                _, outcomes = run_gate_block(run, design.angles, noise, instrument, rng)
                v = element_from_outcomes(design, outcomes).matrix @ v
            p = survival_probability(run, Unitary2(v.conj().T), noise_inv, spam.effect())
            total += weight * p
        return total

    def test_clifford_unbiased(self):
        for s in (1, 2):
            brute = self._clifford_brute_force(s, DEP, NONE, 0.0, "coset")
            fast = exact_sequence_fidelity("clifford-mbqc", s, noise=DEP, noise_inv=NONE)
            assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    def test_clifford_biased_outcomes(self):
        noise = NoiseModel(kind="amplitude-damping", strength=0.12)
        brute = self._clifford_brute_force(1, noise, NONE, 0.2, "coset")
        fast = exact_sequence_fidelity(
            "clifford-mbqc", 1, noise=noise, noise_inv=NONE, bias=0.2
        )
        assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    def test_clifford_with_inverse_noise(self):
        dinv = NoiseModel(kind="dephasing", strength=0.07)
        brute = self._clifford_brute_force(1, DEP, dinv, 0.0, "coset")
        fast = exact_sequence_fidelity("clifford-mbqc", 1, noise=DEP, noise_inv=dinv)
        assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    def test_derandomized_unbiased(self):
        for s in (1, 2):
            brute = self._derandomized_brute_force(s, DEP, NONE, 0.0)
            fast = exact_sequence_fidelity("derandomized-mbqc", s, noise=DEP, noise_inv=NONE)
            assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    def test_derandomized_biased(self):
        noise = NoiseModel(kind="dephasing", strength=0.05)
        brute = self._derandomized_brute_force(1, noise, NONE, 0.15)
        fast = exact_sequence_fidelity(
            "derandomized-mbqc", 1, noise=noise, noise_inv=NONE, bias=0.15
        )
        assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("noise", ["block", "step"])
    def test_clifford_outcome_dependent_noise(self, noise):
        dinv = NoiseModel(kind="depolarizing", strength=0.98)
        brute = self._clifford_brute_force(1, DEPENDENCE_NOISE[noise], dinv, 0.1, "coset")
        fast = exact_sequence_fidelity(
            "clifford-mbqc", 1, noise=DEPENDENCE_NOISE[noise], noise_inv=dinv, bias=0.1
        )
        assert fast.enumerated == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("noise", ["block", "step"])
    def test_derandomized_outcome_dependent_noise(self, noise):
        dinv = NoiseModel(kind="depolarizing", strength=0.98)
        brute = self._derandomized_brute_force(1, DEPENDENCE_NOISE[noise], dinv, 0.1)
        fast = exact_sequence_fidelity(
            "derandomized-mbqc", 1, noise=DEPENDENCE_NOISE[noise], noise_inv=dinv, bias=0.1
        )
        assert fast.enumerated == pytest.approx(brute, abs=1e-12)


class TestMonteCarloVersusExact:
    @pytest.mark.parametrize("protocol", ["clifford-mbqc", "derandomized-mbqc"])
    def test_within_3_sigma(self, protocol):
        dep = NoiseModel(kind="depolarizing", strength=0.96)
        cfg = RBConfig(
            protocol=protocol,
            lengths=(1, 2, 3),
            sequences_per_length=200,
            shots_per_sequence=200,
            noise=dep,
            seed=53,
        )
        ds = run_protocol(cfg)
        for s in (1, 2, 3):
            mean, stderr = sequence_fidelity_estimate(ds, s)
            exact = exact_sequence_fidelity(protocol, s, noise=dep).enumerated
            sigma = max(stderr, np.sqrt(exact * (1 - exact) / (200 * 200)))
            assert abs(mean - exact) < 3 * sigma, (protocol, s)


class TestSampledRunnerAgainstScalarWire:
    def test_forced_outcomes_match_scalar_path(self):
        # bias +-1/2 pins every outcome, so the vectorized runner must agree
        # with a scalar wire replay exactly
        for bias in (-0.5, 0.5):
            bit = int(bias > 0)
            dep = NoiseModel(kind="depolarizing", strength=0.8)
            cfg = RBConfig(
                protocol="clifford-mbqc",
                lengths=(3,),
                sequences_per_length=4,
                shots_per_sequence=500,
                noise=dep,
                noise_inv=NONE,
                instrument=InstrumentConfig(bias=bias),
                seed=59,
            )
            ds = run_protocol(cfg)
            group = clifford_group()
            for record in ds.records:
                seq = [group[k] for k in record.gate_indices]
                inv = group[clifford_index(sequence_inverse([e.unitary for e in seq]))]
                run = WireRun(state=plus_state())
                rng = ScriptedRng([0.0 if bit else 0.999] * (3 * 4))
                blocks = seq + [inv]
                for k, element in enumerate(blocks):
                    nz = dep if k < len(seq) else NONE
                    run_gate_block(run, element.angles, nz, InstrumentConfig(bias=bias), rng)
                p = survival_probability(run, frame_unitary(run.pauli_frame))
                sigma = np.sqrt(max(p * (1 - p), 1e-12) / 500)
                assert abs(record.survivals / record.shots - p) < max(4 * sigma, 1e-9)


# Outcome-dependent noise cannot be written to a config file, so the CLI
# goldens never reach it. These SHA-256 digests of run_protocol records were
# recorded when each item's survivals became Born coins at its outcome-averaged
# survival; any change to that value or to the random stream shows up here.
# TestSequenceSurvivalVersusLiteralWire checks the value itself against the
# scalar wire under both kinds of dependence.
def _block_dependence(angles, outcomes):
    """Damping that grows with the 1 outcomes and the block's total angle."""
    strength = 0.01 * (1 + sum(outcomes)) + 0.002 * float(sum(angles))
    return NoiseModel(kind="amplitude-damping", strength=strength)


def _step_dependence(theta, m):
    """Damping after a 1 outcome, an angle-dependent overrotation after a 0."""
    if m:
        return NoiseModel(kind="amplitude-damping", strength=0.04)
    return NoiseModel(kind="unitary-overrotation", strength=0.05 * (1.0 + theta))


DEPENDENCE_NOISE = {
    "block": NoiseModel(dependence=_block_dependence),
    "step": NoiseModel(placement=AFTER_EACH_STEP, dependence=_step_dependence),
}
DEPENDENCE_RUNS = {
    "clifford-coset": dict(protocol="clifford-mbqc", clifford_mode="coset"),
    "clifford-full": dict(protocol="clifford-mbqc", clifford_mode="full"),
    "derandomized": dict(
        protocol="derandomized-mbqc",
        design_phis=(0.25 * np.pi, 0.0),
        instrument=InstrumentConfig(bias=0.05, inject_randomness=True),
    ),
}
DEPENDENCE_GOLDEN = {
    "clifford-coset/block": "576edd172adadabba24e066d86a9e0a66e8a73c78c644eb4a182e54aef0a8f74",
    "clifford-coset/step": "28e31a36cf659a6bbfb98869bce4f9aa2ec61f81fd9ad4a9a3e7ba13d2b3e101",
    "clifford-full/block": "69d5e15a57bb2dcaf82e673f6a28e0d0f599c94614832a59ca6933d99088174f",
    "clifford-full/step": "c6e81b89d9c76227299eb7dcb8e03a8189d4fb65fd6eda6b8e89910e1ec92520",
    "derandomized/block": "1b7c7201213f548f2b9061f3ea0234689d3377e9779a74eb98db1e44f7b75557",
    "derandomized/step": "7bb0470a515a1968a1a840b5e1e4634283690358f79a8cf95f1c68c2c8a7fd83",
}


def records_digest(dataset) -> str:
    rows = [
        [r.s, r.index, list(r.gate_indices), r.survivals, r.shots, r.digest]
        for r in dataset.records
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("noise", sorted(DEPENDENCE_NOISE))
@pytest.mark.parametrize("run", sorted(DEPENDENCE_RUNS))
def test_dependence_noise_golden_records(run, noise):
    settings = {
        "lengths": (1, 2, 3, 5),
        "sequences_per_length": 4,
        "shots_per_sequence": 64,
        "noise": DEPENDENCE_NOISE[noise],
        "noise_inv": NoiseModel(kind="depolarizing", strength=0.98),
        "instrument": InstrumentConfig(bias=0.1),
        "spam": SpamModel(prep_shrink=0.98, effect_bias=0.01),
        "seed": 2016,
        **DEPENDENCE_RUNS[run],
    }
    digest = records_digest(run_protocol(RBConfig(**settings)))
    assert digest == DEPENDENCE_GOLDEN[f"{run}/{noise}"]


def _clifford_sequence_brute_force(seq, noise, noise_inv, bias, spam):
    """One gate sequence's survival averaged over every outcome string,
    each branch replayed through the scalar wire ops."""
    group = clifford_group()
    inv = group[clifford_index(sequence_inverse([e.unitary for e in seq]))]
    instrument = InstrumentConfig(bias=bias)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=3 * (len(seq) + 1)):
        weight = np.prod([0.5 + bias if b else 0.5 - bias for b in bits])
        rng = ScriptedRng([0.0 if b else 0.999 for b in bits])
        run = WireRun(state=spam.prep())
        for k, element in enumerate([*seq, inv]):
            run_gate_block(run, element.angles, noise if k < len(seq) else noise_inv, instrument, rng)
        p = survival_probability(run, frame_unitary(run.pauli_frame), NO_NOISE, spam.effect())
        total += weight * p
    return total


class TestSequenceSurvivalVersusLiteralWire:
    """The sampler's per-sequence survival, averaged over outcomes, is exact."""

    @pytest.mark.parametrize("bias", [0.1, -0.3])
    @pytest.mark.parametrize("noise", sorted(DEPENDENCE_NOISE))
    @pytest.mark.parametrize("s", [1, 2])
    def test_clifford_sequences(self, s, noise, bias):
        spam = SpamModel(prep_shrink=0.98, effect_bias=0.01)
        dinv = NoiseModel(kind="depolarizing", strength=0.98)
        gates = item_rng(71 + s).integers(0, 24, size=(2, s))
        operators = engine._gate_operators("clifford-mbqc", DEPENDENCE_NOISE[noise], dinv, spam, bias)
        fast = engine._outcome_averaged_survival(operators, gates)
        group = clifford_group()
        for row, value in zip(gates, fast):
            seq = [group[g] for g in row]
            brute = _clifford_sequence_brute_force(seq, DEPENDENCE_NOISE[noise], dinv, bias, spam)
            assert value == pytest.approx(brute, abs=1e-12), row


class TestSurvivalDispersion:
    """Each item's count is Binomial(shots, p) at its sequence's survival p.

    The chi-square statistic over n items has mean n and variance about 2n;
    an item whose shots shared outcomes, or a count at the wrong p, would
    inflate it.
    """

    @pytest.mark.parametrize("protocol", ["clifford-mbqc", "derandomized-mbqc"])
    def test_counts_binomial_at_sequence_survival(self, protocol):
        cfg = RBConfig(
            protocol=protocol,
            lengths=(1, 3, 8, 20),
            sequences_per_length=60,
            shots_per_sequence=500,
            noise=DEPENDENCE_NOISE["step"],
            noise_inv=NoiseModel(kind="depolarizing", strength=0.98),
            instrument=InstrumentConfig(bias=0.1),
            spam=SpamModel(prep_shrink=0.98, effect_bias=0.01),
            seed=73,
        )
        records = run_protocol(cfg).records
        if protocol == "clifford-mbqc":
            settings = (protocol, cfg.noise, cfg.noise_inv, cfg.spam, cfg.instrument.bias)
            operators = engine._gate_operators(*settings)
            p = np.concatenate(
                [engine._outcome_averaged_survival(operators, np.array([r.gate_indices])) for r in records]
            )
        else:
            exact = {
                s: exact_sequence_fidelity(
                    protocol, s, cfg.noise, cfg.spam, cfg.noise_inv, bias=cfg.instrument.bias
                ).enumerated
                for s in cfg.lengths
            }
            p = np.array([exact[r.s] for r in records])
        counts = np.array([r.survivals for r in records])
        n, shots = len(records), cfg.shots_per_sequence
        assert n >= 200 and np.all((p > 0.01) & (p < 0.99))
        chi2 = float(np.sum((counts - shots * p) ** 2 / (shots * p * (1 - p))))
        print(f"{protocol}: chi-square {chi2:.1f} over {n} items")
        assert abs(chi2 - n) < 4 * np.sqrt(2 * n)
