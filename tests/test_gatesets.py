import hashlib
import re

import numpy as np
import pytest

from mbqcrb import gatesets
from mbqcrb.channels import H, I2, P, Unitary2, X, Y, Z, frame_potential, phase_distances, avg_gate_fidelity, twirl, random_cptp_channel, amplitude_damping, channel_from_unitary, z_rotation
from mbqcrb.gatesets import (
    CLIFFORD_ANGLE_TABLE,
    COSET_REP_WORDS,
    OUTCOME_TRIPLES,
    VerificationError,
    _word_matrix,
    block_gates,
    byproduct_bits,
    clifford_group,
    clifford_index,
    clifford_table,
    conjugation_bits,
    derandomized_design,
    element_from_outcomes,
    frame_unitary,
    outcome_index,
    verify_2design,
    verify_angle_table,
    verify_byproduct_bits,
    verify_design_reference,
)
from mbqcrb.wire import step_unitary

from conftest import haar_unitaries

HALF_PI = np.pi / 2
PAULIS = [I2, X, Y, Z]


def quarter_turn_gate(turns) -> Unitary2:
    """Gate of a three-measurement block at quarter-turn angles, all outcomes zero."""
    return Unitary2(block_gates([k * HALF_PI for k in turns]))


class TestCliffordGroup:
    def test_size(self):
        assert len(clifford_group()) == 24

    def test_contains_named_gates(self):
        mats = [e.unitary for e in clifford_group()]
        for target in (I2, P, H):
            assert any(u.equals_up_to_phase(target) for u in mats)

    def test_words_match_unitaries(self):
        for e in clifford_group():
            assert e.unitary.equals_up_to_phase(Unitary2(_word_matrix(e.word)))

    def test_pairwise_distinct(self):
        group = clifford_group()
        for i in range(24):
            for j in range(i + 1, 24):
                assert not group[i].unitary.equals_up_to_phase(group[j].unitary)

    def test_product_closure(self):
        group = clifford_group()
        for a in group:
            for b in group:
                clifford_index(a.unitary @ b.unitary)  # raises if not in group

    def test_inverse_closure(self):
        for e in clifford_group():
            clifford_index(e.unitary.dagger())

    def test_angles_are_quarter_turns(self):
        for e in clifford_group():
            for theta in e.angles:
                assert abs(theta / HALF_PI - round(theta / HALF_PI)) < 1e-12

    def test_composition_order_pinned_by_the_h_and_i_rows(self, monkeypatch):
        table = dict(CLIFFORD_ANGLE_TABLE)
        table["H"] = table["I"]
        monkeypatch.setattr(gatesets, "CLIFFORD_ANGLE_TABLE", table)
        with pytest.raises(VerificationError, match="^angle table rows failed: H$"):
            clifford_group.__wrapped__()

    def test_clifford_index_rejects_outsiders(self):
        with pytest.raises(ValueError):
            clifford_index(z_rotation(0.3))


class TestWordMatrix:
    def test_generators_multiply_left_to_right(self):
        for word in CLIFFORD_ANGLE_TABLE:
            expected, last = np.eye(2, dtype=complex), None
            for c in word.replace("I", ""):
                if c.isdigit():
                    for _ in range(int(c) - 1):
                        expected = expected @ last
                else:
                    last = P.matrix if c == "P" else H.matrix
                    expected = expected @ last
            assert np.array_equal(_word_matrix(word), expected), word

    @pytest.mark.parametrize("word, other", [("X", "X"), ("P22", "2"), ("3H", "3"), ("PH\n", "\n"), ("HI", "I")])
    def test_unknown_generator_named(self, word, other):
        with pytest.raises(ValueError, match=rf"^unknown generator {re.escape(repr(other))} in word "):
            _word_matrix(word)


class TestCliffordKey:
    """clifford_index and conjugation_bits find a candidate by the signed
    permutation of a unitary's PTM and accept it only within PHASE_TOL."""

    def test_within_phase_tol_maps_to_the_element(self):
        # phase distance 2.5e-11: the same gate under the package's one rule
        near = Unitary2(P.matrix @ z_rotation(1e-5).matrix)
        assert near.equals_up_to_phase(P)
        assert clifford_index(near) == clifford_index(P) == list(CLIFFORD_ANGLE_TABLE).index("P")
        assert np.array_equal(conjugation_bits(near), conjugation_bits(P))

    @pytest.mark.parametrize(
        "u",
        [Unitary2(P.matrix @ z_rotation(1e-4).matrix), z_rotation(0.3), z_rotation(np.pi / 4)],
        ids=["P-beyond-tol", "rotation-0.3", "eighth-turn"],
    )
    def test_outsiders_raise(self, u):
        with pytest.raises(ValueError, match="^unitary is not a Clifford element$"):
            clifford_index(u)
        with pytest.raises(ValueError, match="^unitary is not a Clifford element$"):
            conjugation_bits(u)

    def test_global_phase_ignored(self):
        for k, e in enumerate(clifford_group()):
            for phase in (1j, -1.0, np.exp(0.7j)):
                u = Unitary2(phase * e.unitary.matrix)
                assert clifford_index(u) == k
                assert np.array_equal(conjugation_bits(u), conjugation_bits(e.unitary))

    def test_duplicated_row_fails_the_group_check(self, monkeypatch):
        # P3's row renamed PP, which names P2 again: 24 rows, 23 elements
        table = {("PP" if w == "P3" else w): n for w, n in CLIFFORD_ANGLE_TABLE.items()}
        monkeypatch.setattr(gatesets, "CLIFFORD_ANGLE_TABLE", table)
        clifford_group.cache_clear()
        try:
            with pytest.raises(VerificationError, match="24 distinct"):
                clifford_group()
        finally:
            clifford_group.cache_clear()


class TestCosetReps:
    def test_size_and_identity(self):
        group = clifford_group()
        reps = [group[k] for k in clifford_table().coset_reps]
        assert len(reps) == 6
        assert reps[0].unitary.equals_up_to_phase(I2)
        assert [e.word for e in reps] == ["I", "P", "H", "PH", "HP", "PHP"]

    def test_pauli_cosets_partition_group(self):
        # {I, X, Y, Z} x T1 must hit each of the 24 elements exactly once
        group = clifford_group()
        hits = []
        for w in PAULIS:
            for k in clifford_table().coset_reps:
                hits.append(clifford_index(Unitary2(w.matrix @ group[k].unitary.matrix)))
        assert sorted(hits) == list(range(24))


class TestBlockGates:
    def test_table_row_h(self):
        assert quarter_turn_gate((0, 0, 0)).equals_up_to_phase(H)

    def test_table_row_i(self):
        assert quarter_turn_gate((1, 1, 1)).equals_up_to_phase(I2)

    def test_table_row_p(self):
        assert quarter_turn_gate((0, 3, 3)).equals_up_to_phase(P)

    def test_table_row_p2_is_z(self):
        # squaring diag(1, i) gives diag(1, -1)
        assert (P @ P).equals_up_to_phase(Z)
        assert quarter_turn_gate((1, 3, 3)).equals_up_to_phase(Z)

    def test_any_number_of_steps_first_acting_first(self, rng):
        for q in (1, 2, 5):
            angles = rng.uniform(-np.pi, np.pi, size=q)
            outcomes = rng.integers(0, 2, size=q)
            expected = np.eye(2, dtype=complex)
            for theta, m in zip(angles, outcomes):
                expected = step_unitary(theta, m).matrix @ expected
            assert Unitary2(block_gates(angles, outcomes)).equals_up_to_phase(Unitary2(expected))


class TestAngleTable:
    def test_all_rows_pass(self):
        devs = verify_angle_table()
        assert len(devs) == 24
        assert max(devs.values()) < 1e-10

    def test_corrupted_row_names_offender(self):
        table = dict(CLIFFORD_ANGLE_TABLE)
        table["H"] = (0, 0, 1)
        with pytest.raises(VerificationError, match="H"):
            verify_angle_table(table)


class TestByproductBits:
    def test_zero_outcomes_no_correction(self):
        for n1 in range(4):
            for n2 in range(4):
                for n3 in range(4):
                    assert byproduct_bits((n1, n2, n3), (0, 0, 0)) == (0, 0)

    def test_first_outcome_all_zero_turns(self):
        assert byproduct_bits((0, 0, 0), (1, 0, 0)) == (1, 0)

    def test_brute_force_all_512(self):
        # matrix-product oracle over every quarter-turn/outcome combination
        worst = 0.0
        for n1 in range(4):
            for n2 in range(4):
                for n3 in range(4):
                    n = (n1, n2, n3)
                    base = quarter_turn_gate(n)
                    for m_int in range(8):
                        m = ((m_int >> 2) & 1, (m_int >> 1) & 1, m_int & 1)
                        realized = np.eye(2, dtype=complex)
                        for nk, mk in zip(n, m):
                            realized = step_unitary(nk * HALF_PI, mk).matrix @ realized
                        b1, b2 = byproduct_bits(n, m)
                        predicted = base.matrix
                        if b2:
                            predicted = Z.matrix @ predicted
                        if b1:
                            predicted = X.matrix @ predicted
                        dev = Unitary2(realized).phase_distance(Unitary2(predicted))
                        worst = max(worst, dev)
        assert worst < 1e-10

    def test_verify_helper_agrees(self):
        assert verify_byproduct_bits() < 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            byproduct_bits((4, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            byproduct_bits((0, 0, 0), (2, 0, 0))
        with pytest.raises(ValueError):
            byproduct_bits(np.zeros((5, 3)), np.full((5, 3), 2))
        # checked as given, not after truncation to int
        with pytest.raises(ValueError):
            byproduct_bits([2.5, 1, 1], [0, 1, 1])
        with pytest.raises(ValueError):
            byproduct_bits([0, 1, 1], [0, 1, 0.5])

    def test_broadcasts_like_scalar_calls(self):
        n = np.array(list(np.ndindex(4, 4, 4)))[:, None]
        b1, b2 = byproduct_bits(n, np.array(OUTCOME_TRIPLES))
        assert b1.shape == b2.shape == (64, 8)
        for i, triple in enumerate(np.ndindex(4, 4, 4)):
            for j, m in enumerate(OUTCOME_TRIPLES):
                assert (b1[i, j], b2[i, j]) == byproduct_bits(triple, m)

    def test_verify_catches_a_wrong_formula(self, monkeypatch):
        import mbqcrb.gatesets as gatesets

        right = gatesets.byproduct_bits
        monkeypatch.setattr(gatesets, "byproduct_bits", lambda n, m: right(n, m)[::-1])
        with pytest.raises(VerificationError, match="byproduct formulas failed"):
            verify_byproduct_bits()


class TestCliffordTable:
    def test_entries_match_matrix_computation(self):
        # checked against the unitaries up to phase, not through clifford_index,
        # which reads the same signed permutations the table is built from
        group = clifford_group()
        table = clifford_table()
        for i, a in enumerate(group):
            for j, b in enumerate(group):
                assert (a.unitary @ b.unitary).equals_up_to_phase(group[table.product[i, j]].unitary)
            assert a.unitary.dagger().equals_up_to_phase(group[table.inverse[i]].unitary)
            assert np.allclose(table.ptm[i], channel_from_unitary(a.unitary).ptm, atol=1e-12)
        assert [group[k].word for k in table.coset_reps] == list(COSET_REP_WORDS)
        for fx in (0, 1):
            for fz in (0, 1):
                ptm = channel_from_unitary(frame_unitary((fx, fz))).ptm
                assert np.array_equal(table.frame_ptm[fx, fz], ptm)

    @staticmethod
    def _conjugation_holds(u: Unitary2, a) -> bool:
        """u X^fx Z^fz u^dag = X^fx' Z^fz' up to phase, (fx', fz') = A (fx, fz), for X and Z."""
        return all(
            (u @ frame_unitary(f) @ u.dagger()).equals_up_to_phase(frame_unitary(a @ f % 2))
            for f in (np.array([1, 0]), np.array([0, 1]))
        )

    def test_conjugation_bits_match_matrices(self):
        # the 24 elements and the 64 all-zeros quarter-turn blocks
        gates = [e.unitary for e in clifford_group()]
        gates += [quarter_turn_gate(n) for n in np.ndindex(4, 4, 4)]
        for u in gates:
            a = conjugation_bits(u)
            assert a.shape == (2, 2) and set(a.ravel().tolist()) <= {0, 1}
            assert self._conjugation_holds(u, a)

    def test_frame_step_matches_matrices(self):
        # entered with frame f, block n with outcomes m leaves frame f':
        # block(n, m) P_f = P_f' block(n, 0) up to phase, over all 2048 cases
        step = clifford_table().frame_step
        n = np.array(list(np.ndindex(4, 4, 4))).reshape(4, 4, 4, 1, 1, 3)
        m = np.array(OUTCOME_TRIPLES).reshape(8, 1, 3)
        paulis = np.stack([frame_unitary((f // 2, f % 2)).matrix for f in range(4)])
        realized = block_gates(n * HALF_PI, m) @ paulis
        predicted = paulis[step] @ block_gates(n * HALF_PI)
        assert realized.shape == predicted.shape == (4, 4, 4, 8, 4, 2, 2)
        assert np.all(phase_distances(realized, predicted) < 1e-10)

    # SHA-256 of each integer array as int64 bytes: product, inverse and
    # coset_reps recorded from the element-by-element build of the table,
    # frame_step from the frame fold it replaced, over all 64 triples.
    PINNED = {
        "product": ((24, 24), "ade9303509b4c0694940ff2c45e3b34a8ba8279069e163e3559efc1041db284d"),
        "inverse": ((24,), "0b9358f1cfbb7959aefa90d132fbf23b233bc9dd75e993b3050465896eb9499f"),
        "coset_reps": ((6,), "0904e93407888cc68d1bb9372202a6922e152011c1878f319d07372f2ebc1fa0"),
        "frame_step": (
            (4, 4, 4, 8, 4),
            "75881225578fa4ff1833efde8b1be9049928352f03a18b15289fefdf498c86a2",
        ),
    }

    def test_integer_arrays_pinned(self):
        table = clifford_table()
        for name, (shape, digest) in self.PINNED.items():
            a = getattr(table, name)
            assert a.shape == shape, name
            data = np.ascontiguousarray(a, dtype=np.int64).tobytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

    def test_ptms_bitwise_equal_channel_from_unitary(self):
        table = clifford_table()
        for i, e in enumerate(clifford_group()):
            assert table.ptm[i].tobytes() == channel_from_unitary(e.unitary).ptm.tobytes()
        for fx in (0, 1):
            for fz in (0, 1):
                ptm = channel_from_unitary(frame_unitary((fx, fz))).ptm
                assert table.frame_ptm[fx, fz].tobytes() == ptm.tobytes()

    def test_arrays_are_read_only(self):
        table = clifford_table()
        with pytest.raises(ValueError):
            table.product[0, 0] = 1
        with pytest.raises(ValueError):
            table.frame_step[0, 0, 0, 0, 0] = 1


class TestDerandomizedDesign:
    def test_angles(self):
        d = derandomized_design()
        assert d.angles[0] == 0.0
        assert d.angles[1] == pytest.approx(np.pi / 4)
        assert d.angles[2] == pytest.approx(np.arccos(1 / np.sqrt(3)))
        assert d.angles[4] == 0.0

    def test_zero_phi_flip_matrices(self):
        d = derandomized_design()
        assert d.a[3].equals_up_to_phase(Z)
        assert d.a[4].equals_up_to_phase(X)
        a3 = np.array([[0, np.exp(-1j * np.pi / 4)], [np.exp(1j * np.pi / 4), 0]])
        assert np.allclose(d.a[2].matrix, a3, atol=1e-12)
        assert d.a[0].matrix[0, 0] == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_reference_matrices_entrywise(self):
        devs = verify_design_reference()
        assert max(devs.values()) < 1e-10

    def test_flips_are_pi_rotations(self):
        for phis in ((0.0, 0.0), (0.4, -1.2)):
            d = derandomized_design(*phis)
            for a in d.a:
                m = a.matrix
                assert abs(np.trace(m)) < 1e-10
                assert np.allclose(m, m.conj().T, atol=1e-10)
                assert (a @ a).equals_up_to_phase(I2)

    def test_element_lookup_identities(self):
        d = derandomized_design()
        assert element_from_outcomes(d, (0, 0, 0, 0, 0)).equals_up_to_phase(d.q_gate)
        a1q = Unitary2(d.a[0].matrix @ d.q_gate.matrix)
        assert element_from_outcomes(d, (1, 0, 0, 0, 0)).equals_up_to_phase(a1q)

    def test_elements_match_direct_product(self):
        # oracle: chain the 5 raw measurement gates X^m H Z_theta directly
        for phis in ((0.0, 0.0), (0.9, 0.2)):
            d = derandomized_design(*phis)
            for idx in range(32):
                bits = tuple((idx >> (4 - k)) & 1 for k in range(5))
                direct = np.eye(2, dtype=complex)
                for theta, m in zip(d.angles, bits):
                    direct = step_unitary(theta, m).matrix @ direct
                assert element_from_outcomes(d, bits).equals_up_to_phase(
                    Unitary2(direct)
                ), (phis, bits)

    def test_elements_distinct(self):
        d = derandomized_design()
        for i in range(32):
            for j in range(i + 1, 32):
                assert not d.elements[i].equals_up_to_phase(d.elements[j])

    def test_outcome_index(self):
        assert outcome_index((0, 0, 0, 0, 0)) == 0
        assert outcome_index((1, 0, 0, 0, 0)) == 16
        assert outcome_index((0, 0, 0, 0, 1)) == 1
        with pytest.raises(ValueError):
            outcome_index((1, 0, 0))
        # checked as given, not after int() truncates or parses
        with pytest.raises(ValueError):
            outcome_index((0.5, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            outcome_index(("1", 0, 0, 0, 0))

    def test_rejects_non_finite_phis(self):
        with pytest.raises(ValueError):
            derandomized_design(np.nan, 0.0)

    def test_flip_slightly_off_hermitian_rejected(self, monkeypatch):
        # unitary and traceless, but 1e-6 off Hermitian: every flip built from
        # it is then no pi rotation, however small the relative error
        import mbqcrb.gatesets as gatesets

        off = Unitary2(np.array([[0, 1], [np.exp(1e-6j), 0]]))
        monkeypatch.setattr(gatesets, "Z", off)
        gatesets._design.cache_clear()
        try:
            with pytest.raises(VerificationError, match="not a pi rotation"):
                derandomized_design(0.3, 0.0)
        finally:
            gatesets._design.cache_clear()

    def test_built_once_per_phis(self):
        assert derandomized_design() is derandomized_design(0.0, 0.0)
        assert derandomized_design(0.4, -1.2) is derandomized_design(0.4, -1.2)
        assert derandomized_design(0.4, -1.2) is not derandomized_design()


class TestVerify2Design:
    def test_clifford_passes(self):
        assert verify_2design([e.unitary for e in clifford_group()], 1e-9)

    def test_derandomized_passes(self):
        assert verify_2design(list(derandomized_design().elements), 1e-9)

    def test_nonzero_phis_still_pass(self):
        for phis in ((0.3, -0.7), (1.1, 0.4), (0.05, 2.2)):
            assert verify_2design(list(derandomized_design(*phis).elements), 1e-8)

    def test_pauli_fails(self):
        assert not verify_2design(PAULIS, 1e-9)

    @pytest.mark.parametrize(
        "gateset, deviation",
        [(PAULIS, 2 / 3), ([e.unitary for e in clifford_group()[:12]], 1 / 3)],
        ids=["paulis", "half-clifford"],
    )
    def test_twirl_check_alone_rejects(self, monkeypatch, gateset, deviation):
        # with the frame potential passing, only the twirl check stands between
        # these sets and certification
        monkeypatch.setattr(gatesets, "frame_potential", lambda gates, t: 2.0)
        assert not verify_2design(gateset, 1e-9)
        off = np.max(np.abs(gatesets._twirl_superoperator(gateset) - gatesets._HAAR_TWIRL))
        assert off == pytest.approx(deviation, abs=1e-12)

    @pytest.mark.parametrize("name", ["clifford", "derandomized", "haar-random"])
    def test_twirl_superoperator_matches_channel_twirl(self, rng, name):
        # on a 2-design the superoperator is symmetric; five random gates, a set
        # not closed under inversion, tell it from its transpose
        gates = {
            "clifford": lambda: [e.unitary for e in clifford_group()],
            "derandomized": lambda: list(derandomized_design().elements),
            "haar-random": lambda: list(Unitary2.from_stack(haar_unitaries(rng, 5))),
        }[name]()
        sup = gatesets._twirl_superoperator(gates)
        for _ in range(20):
            ch = random_cptp_channel(rng, kraus_rank=2)
            got = (sup @ ch.ptm.ravel()).reshape(4, 4)
            assert np.max(np.abs(got - twirl(ch, gates).ptm)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            verify_2design([], 1e-9)

    def test_design_frame_potential(self):
        assert frame_potential(list(derandomized_design().elements), 2) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_design_twirl_matches_fidelity(self, rng):
        gates = list(derandomized_design().elements)
        for _ in range(5):
            ch = random_cptp_channel(rng)
            tw = twirl(ch, gates).ptm
            p = np.trace(tw[1:, 1:]) / 3
            assert np.max(np.abs(tw - np.diag([1, p, p, p]))) < 1e-9
            assert (1 + p) / 2 == pytest.approx(
                avg_gate_fidelity(ch, I2), abs=1e-9
            )

    def test_amplitude_damping_twirl_examples(self):
        tw = twirl(amplitude_damping(0.1), [e.unitary for e in clifford_group()]).ptm
        off = tw - np.diag(np.diagonal(tw))
        assert np.max(np.abs(off)) < 1e-10
