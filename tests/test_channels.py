import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbqcrb.channels import (
    CP_EIG_FLOOR,
    Channel,
    Effect,
    H,
    I2,
    P,
    State,
    Unitary2,
    X,
    Y,
    Z,
    amplitude_damping,
    avg_gate_fidelity,
    channel_from_unitary,
    choi_matrix,
    compose,
    dephasing,
    depolarizing,
    frame_potential,
    identity_channel,
    measure,
    plus_state,
    projector_effect,
    random_cptp_channel,
    survival_effect,
    twirl,
    unitary_ptms,
    unitary_stack,
    z_rotation,
    z_rotations,
    _no_eigenvalue_below,
)

from mbqcrb.gatesets import clifford_group, derandomized_design

from conftest import haar_unitaries, haar_unitary


def haar_average_fidelity(noisy, ideal, samples, rng):
    """Monte Carlo average gate fidelity, independent of the closed form.

    Samples pure states uniformly on the Bloch sphere and averages
    tr[(U psi U^dag) noisy(psi)].
    """
    vecs = rng.normal(size=(samples, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    blochs = np.hstack([np.ones((samples, 1)), vecs])
    out = blochs @ noisy.ptm.T
    targets = blochs @ channel_from_unitary(ideal).ptm.T
    # tr(P rho) = (1 + t.r)/2 for a pure-state projector with Bloch vector t
    fids = (1.0 + np.einsum("si,si->s", targets[:, 1:], out[:, 1:])) / 2.0
    return float(fids.mean())


class TestUnitary2:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Unitary2([[1, 0], [0, 2]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Unitary2(np.eye(3))

    def test_phase_equality(self):
        assert I2.equals_up_to_phase(Unitary2(np.exp(0.7j) * np.eye(2)))
        assert not X.equals_up_to_phase(Z)

    def test_matmul_and_dagger(self):
        assert (H @ H).equals_up_to_phase(I2)
        assert (P @ P.dagger()).equals_up_to_phase(I2)

    @given(st.floats(-10, 10), st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_global_phase_never_separates(self, theta, phase):
        u = z_rotation(theta)
        v = Unitary2(np.exp(1j * phase) * u.matrix)
        assert u.equals_up_to_phase(v)


class TestUnitaryStack:
    def test_non_unitary_entry_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 1.001]), np.eye(2)])
        with pytest.raises(ValueError, match="not unitary"):
            unitary_stack(stack)
        with pytest.raises(ValueError, match="not unitary"):
            Unitary2.from_stack(stack)

    def test_no_relative_slack(self):
        # a 4e-6 diagonal error is far outside 1e-12; a relative tolerance hid it
        with pytest.raises(ValueError, match="not unitary"):
            Unitary2(np.diag([1.0, 1.0 + 4e-6]))

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            unitary_stack(np.eye(3))
        with pytest.raises(ValueError):
            Unitary2.from_stack(np.eye(2))

    def test_from_stack_wraps_each_matrix_read_only(self, rng):
        stack = np.stack([haar_unitary(rng) for _ in range(3)])
        us = Unitary2.from_stack(stack)
        assert len(us) == 3
        for u, m in zip(us, stack):
            assert np.array_equal(u.matrix, m)
            with pytest.raises(ValueError):
                u.matrix[0, 0] = 0

    def test_ptms_match_one_at_a_time(self, rng):
        stack = np.stack([haar_unitary(rng) for _ in range(5)])
        ptms = unitary_ptms(stack)
        for r, m in zip(ptms, stack):
            assert r.tobytes() == channel_from_unitary(Unitary2(m)).ptm.tobytes()

    def test_z_rotations_match_scalar(self):
        thetas = np.linspace(-7.0, 7.0, 11)
        for m, t in zip(z_rotations(thetas), thetas):
            assert np.array_equal(m, z_rotation(t).matrix)


class TestZRotation:
    def test_zero_is_identity(self):
        assert np.allclose(z_rotation(0.0).matrix, np.eye(2))

    def test_half_pi_is_phase_gate(self):
        # P := Z_{pi/2}, i.e. diag(1, i) up to phase
        assert z_rotation(np.pi / 2).equals_up_to_phase(Unitary2(np.diag([1, 1j])))

    def test_pi_is_z(self):
        # direct evaluation: diag(e^{-i pi/2}, e^{i pi/2}) = -i diag(1, -1)
        assert z_rotation(np.pi).equals_up_to_phase(Z)
        assert np.allclose(z_rotation(np.pi).matrix, np.diag([-1j, 1j]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            z_rotation(np.nan)
        with pytest.raises(ValueError):
            z_rotation(np.inf)

    @given(st.floats(-6, 6), st.floats(-6, 6))
    @settings(max_examples=50, deadline=None)
    def test_additive(self, a, b):
        lhs = z_rotation(a) @ z_rotation(b)
        assert lhs.phase_distance(z_rotation(a + b)) < 1e-9


class TestChannelFromUnitary:
    def test_identity(self):
        assert np.allclose(channel_from_unitary(I2).ptm, np.eye(4))

    def test_x_gate(self):
        # hand evaluation of R_ij = tr(sigma_i X sigma_j X)/2: X fixes X,
        # flips Y and Z
        assert np.allclose(channel_from_unitary(X).ptm, np.diag([1, 1, -1, -1]))

    def test_global_phase_cancels(self):
        u = Unitary2(np.exp(1.3j) * H.matrix)
        assert np.allclose(channel_from_unitary(u).ptm, channel_from_unitary(H).ptm)

    def test_unital_block_is_orthogonal(self, rng):
        for _ in range(100):
            r = channel_from_unitary(Unitary2(haar_unitary(rng))).ptm
            block = r[1:, 1:]
            assert np.allclose(block @ block.T, np.eye(3), atol=1e-10)
            assert abs(abs(np.linalg.det(block)) - 1.0) < 1e-10

    def test_trace_entry_exact_for_gate_sets(self):
        # the gate matrices are unitary only to rounding; the PTM is rescaled
        gates = [e.unitary for e in clifford_group()] + list(derandomized_design().elements)
        assert len(gates) == 56
        assert all(channel_from_unitary(u).ptm[0, 0] == 1.0 for u in gates)

    def test_is_cptp(self, rng):
        for _ in range(20):
            ptm = channel_from_unitary(Unitary2(haar_unitary(rng))).ptm
            eigs = np.linalg.eigvalsh(choi_matrix(ptm))
            assert eigs.min() > -1e-10


class TestChannelValidation:
    def test_rejects_trace_increasing(self):
        bad = np.eye(4)
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            Channel(bad)

    def test_rejects_non_cp(self):
        # transposition map: positive but not completely positive
        with pytest.raises(ValueError):
            Channel(np.diag([1.0, 1.0, -1.0, 1.0]))

    def test_non_cp_message_gives_the_lowest_choi_eigenvalue(self):
        with pytest.raises(ValueError) as raised:
            Channel(np.diag([1.0, 1.0, -1.0, 1.0]))
        assert str(raised.value) == "map is not completely positive (Choi eigenvalue -5.000e-01)"

    def test_trace_row_has_no_relative_slack(self):
        with pytest.raises(ValueError, match="trace preserving"):
            Channel(np.diag([1.0 + 5e-6, 1.0, 1.0, 1.0]))


FLOORS = (CP_EIG_FLOOR, -1e-12)  # the Channel's and the Effect's


def hermitian_with_spectrum(eigenvalues, seed) -> np.ndarray:
    """V diag(eigenvalues) V^dag for a random unitary V of the matching size."""
    n = len(eigenvalues)
    g = np.random.default_rng(seed).normal(size=(2, n, n))
    v, _ = np.linalg.qr(g[0] + 1j * g[1])
    return (v * eigenvalues) @ v.conj().T


@st.composite
def hermitian_matrices(draw):
    """4x4 and 2x2 Hermitian matrices, some of them rank deficient or with an
    eigenvalue near a floor, and the Choi matrices of unitary channels (rank 1)."""
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["spectrum", "unitary-choi"]))
    if kind == "unitary-choi":
        u = haar_unitary(np.random.default_rng(seed))
        return choi_matrix(channel_from_unitary(Unitary2(u)).ptm)
    n = draw(st.sampled_from([2, 4]))
    near = [0.0, *(f + d for f in FLOORS for d in (-1e-12, -2e-13, 2e-13, 1e-12))]
    eigenvalue = st.floats(-1.0, 1.0) | st.sampled_from(near)
    return hermitian_with_spectrum(draw(st.lists(eigenvalue, min_size=n, max_size=n)), seed)


class TestPositivityRule:
    """``_no_eigenvalue_below`` keeps the rule of ``eigvalsh(m).min() >= floor``."""

    @given(hermitian_matrices(), st.sampled_from(FLOORS))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_eigvalsh_away_from_the_floor(self, m, floor):
        lowest = np.linalg.eigvalsh(m).min()
        if abs(lowest - floor) > 1e-13:
            assert _no_eigenvalue_below(m, floor) == (lowest >= floor)

    def test_reads_only_the_lower_triangle(self):
        m = np.array([[1.0, 5.0], [0.5, 1.0]])  # Hermitian from its lower triangle: eigenvalues 0.5, 1.5
        assert _no_eigenvalue_below(m, 0.0)
        assert not _no_eigenvalue_below(m.T, 0.0)


class TestCompose:
    def test_identity_neutral(self, rng):
        c = random_cptp_channel(rng)
        assert np.allclose(compose(identity_channel(), c).ptm, c.ptm)
        assert np.allclose(compose(c, identity_channel()).ptm, c.ptm)

    def test_x_squares_to_identity(self):
        cx = channel_from_unitary(X)
        assert np.allclose(compose(cx, cx).ptm, np.eye(4))

    def test_depolarizing_multiplies(self):
        # diagonal ptms multiply entrywise
        got = compose(depolarizing(0.9), depolarizing(0.8))
        assert np.allclose(got.ptm, depolarizing(0.72).ptm, atol=1e-12)

    def test_order_matters(self):
        ad = amplitude_damping(0.3)
        cx = channel_from_unitary(X)
        assert not np.allclose(compose(ad, cx).ptm, compose(cx, ad).ptm)


class TestDepolarizing:
    def test_one_is_identity(self):
        assert np.allclose(depolarizing(1.0).ptm, np.eye(4))

    def test_zero_erases_bloch_vector(self):
        assert np.allclose(depolarizing(0.0).ptm, np.diag([1.0, 0, 0, 0]))

    def test_fidelity_closed_form(self):
        for p in (0.0, 0.3, 0.96, 1.0):
            assert avg_gate_fidelity(depolarizing(p), I2) == pytest.approx(
                (1 + p) / 2, abs=1e-12
            )

    @pytest.mark.parametrize("p", [-0.01, 1.01, -1e-9 - 1e-12])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            depolarizing(p)


class TestAvgGateFidelity:
    def test_identity_is_one(self):
        assert avg_gate_fidelity(identity_channel(), I2) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        # the closed form must agree with a Haar average of state fidelities
        mc_rng = np.random.default_rng(7)
        for _ in range(5):
            ch = random_cptp_channel(mc_rng, kraus_rank=2)
            u = Unitary2(haar_unitary(mc_rng))
            mc = haar_average_fidelity(ch, u, samples=100_000, rng=mc_rng)
            assert avg_gate_fidelity(ch, u) == pytest.approx(mc, abs=1e-3)


class TestTwirl:
    def _clifford_unitaries(self):
        from mbqcrb.gatesets import clifford_group

        return [e.unitary for e in clifford_group()]

    def test_depolarizing_fixed_point(self, rng):
        gates = [Unitary2(haar_unitary(rng)) for _ in range(7)]
        tw = twirl(depolarizing(0.85), gates)
        assert np.allclose(tw.ptm, depolarizing(0.85).ptm, atol=1e-12)

    def test_clifford_twirl_is_depolarizing(self, rng):
        gates = self._clifford_unitaries()
        for _ in range(5):
            ch = random_cptp_channel(rng)
            tw = twirl(ch, gates)
            p = np.trace(tw.ptm[1:, 1:]) / 3
            assert np.max(np.abs(tw.ptm - np.diag([1, p, p, p]))) < 1e-10
            assert (1 + p) / 2 == pytest.approx(avg_gate_fidelity(ch, I2), abs=1e-10)

    def test_amplitude_damping_target(self):
        # direct-summation oracle: the twirled decay parameter is the mean
        # of the unital diagonal, (2 sqrt(1-g) + 1 - g) / 3
        g = 0.1
        tw = twirl(amplitude_damping(g), self._clifford_unitaries())
        p = (2 * np.sqrt(1 - g) + (1 - g)) / 3
        assert np.max(np.abs(tw.ptm - np.diag([1, p, p, p]))) < 1e-10

    def test_idempotent(self, rng):
        gates = self._clifford_unitaries()
        ch = random_cptp_channel(rng)
        once = twirl(ch, gates)
        twice = twirl(once, gates)
        assert np.allclose(once.ptm, twice.ptm, atol=1e-10)

    def test_preserves_average_fidelity(self, rng):
        gates = self._clifford_unitaries()
        for _ in range(5):
            ch = random_cptp_channel(rng)
            assert avg_gate_fidelity(twirl(ch, gates), I2) == pytest.approx(
                avg_gate_fidelity(ch, I2), abs=1e-10
            )

    def test_empty_gateset_rejected(self):
        with pytest.raises(ValueError):
            twirl(depolarizing(0.5), [])


class TestDepolarizingCommutes:
    def test_with_random_unitaries(self, rng):
        d = depolarizing(0.77)
        for _ in range(100):
            u = channel_from_unitary(Unitary2(haar_unitary(rng)))
            assert np.allclose(compose(u, d).ptm, compose(d, u).ptm, atol=1e-10)


class TestFramePotential:
    def test_pauli_is_a_1_design(self):
        paulis = [I2, X, Y, Z]
        # direct summation oracle
        total = 0.0
        for u in paulis:
            for v in paulis:
                total += abs(np.trace(u.matrix.conj().T @ v.matrix)) ** 2
        assert total / 16 == pytest.approx(1.0, abs=1e-12)
        assert frame_potential(paulis, 1) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_fails_t2(self):
        assert frame_potential([I2, X, Y, Z], 2) > 2.0 + 0.5

    def test_clifford_t2_haar_value(self, rng):
        from mbqcrb.gatesets import clifford_group

        gates = [e.unitary for e in clifford_group()]
        assert frame_potential(gates, 2) == pytest.approx(2.0, abs=1e-10)
        # Monte Carlo Haar reference for the t = 2 value, over independent pairs
        u, v = haar_unitaries(rng, 200_000), haar_unitaries(rng, 200_000)
        samples = np.abs(np.trace(u.conj().swapaxes(1, 2) @ v, axis1=1, axis2=2)) ** 4
        assert np.mean(samples) == pytest.approx(2.0, abs=3 * np.std(samples) / np.sqrt(len(samples)))

    def test_haar_value_is_lower_bound(self, rng):
        gates = [Unitary2(haar_unitary(rng)) for _ in range(6)]
        assert frame_potential(gates, 2) >= 2.0 - 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            frame_potential([], 2)
        with pytest.raises(ValueError):
            frame_potential([I2], 3)


class TestStatesAndEffects:
    def test_plus_on_plus(self):
        assert measure(projector_effect(I2), plus_state().bloch) == pytest.approx(1.0)

    def test_plus_on_mixed(self):
        assert measure(projector_effect(I2), State.from_xyz(0.0, 0.0, 0.0).bloch) == pytest.approx(0.5)

    def test_depolarized_plus(self):
        for p in (0.0, 0.4, 1.0):
            bloch = depolarizing(p).ptm @ plus_state().bloch
            assert measure(projector_effect(I2), bloch) == pytest.approx((1 + p) / 2, abs=1e-12)

    def test_probability_clamped(self):
        assert 0.0 <= measure(projector_effect(H), plus_state().bloch) <= 1.0

    def test_state_validation(self):
        with pytest.raises(ValueError):
            State([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            State([0.5, 0, 0, 0])

    def test_effect_validation(self):
        with pytest.raises(ValueError):
            Effect(np.array([[1.5, 0], [0, 0]]))
        with pytest.raises(ValueError):
            Effect(np.array([[0, 1], [0, 0]]))

    def test_effect_hermiticity_has_no_relative_slack(self):
        off = np.array([[0.5, 0.5 + 1e-7], [0.5, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            Effect(off)

    def test_survival_effect_background(self):
        e = survival_effect(0.05)
        assert measure(e, plus_state().bloch) == pytest.approx(1.0)
        minus = State.from_xyz(-1.0, 0.0, 0.0)
        assert measure(e, minus.bloch) == pytest.approx(0.05)


class TestNamedChannels:
    def test_dephasing_full_flip_is_z(self):
        assert np.allclose(dephasing(1.0).ptm, channel_from_unitary(Z).ptm)

    def test_amplitude_damping_limits(self):
        assert np.allclose(amplitude_damping(0.0).ptm, np.eye(4))
        full = amplitude_damping(1.0)
        zero = full.ptm @ State.from_xyz(0.3, -0.2, -0.8).bloch
        assert np.allclose(zero, [1, 0, 0, 1])  # everything decays to |0>

    def test_random_cptp_is_valid(self, rng):
        for rank in (1, 2, 3):
            ch = random_cptp_channel(rng, kraus_rank=rank)
            eigs = np.linalg.eigvalsh(choi_matrix(ch.ptm))
            assert eigs.min() > -1e-10
