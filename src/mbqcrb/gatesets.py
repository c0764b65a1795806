"""The two benchmarking gate sets.

The 24-element single-qubit Clifford group comes with a table of
quarter-turn measurement-angle triples that realize each element on a
three-site wire when all outcomes are zero. The 32-element derandomized set
is generated by a fixed five-angle measurement pattern, indexed by the
outcome bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    H,
    I2,
    P,
    PHASE_TOL,
    Unitary2,
    X,
    Y,
    Z,
    _frozen,
    channel_from_unitary,
    frame_potential,
    random_cptp_channel,
    twirl,
    z_rotation,
)

HALF_PI = np.pi / 2


class VerificationError(RuntimeError):
    """A gate-set self-check failed."""


# Quarter-turn angle triples (theta_1, theta_2, theta_3), in units of pi/2,
# realizing each Clifford word as (H Z_t3)(H Z_t2)(H Z_t1) with all
# measurement outcomes zero. theta_1 is the first measurement applied.
CLIFFORD_ANGLE_TABLE: dict[str, tuple[int, int, int]] = {
    "I": (1, 1, 1),
    "P": (0, 3, 3),
    "P2": (1, 3, 3),
    "P3": (0, 1, 1),
    "H": (0, 0, 0),
    "PH": (0, 1, 0),
    "P2H": (0, 2, 0),
    "P3H": (0, 3, 0),
    "HP": (0, 0, 1),
    "PHP": (1, 1, 0),
    "P2HP": (0, 2, 3),
    "P3HP": (1, 3, 0),
    "HP2": (2, 0, 0),
    "PHP2": (0, 3, 2),
    "P2HP2": (0, 2, 2),
    "P3HP2": (0, 1, 2),
    "HP3": (0, 0, 3),
    "PHP3": (1, 3, 2),
    "P2HP3": (0, 2, 1),
    "P3HP3": (1, 1, 2),
    "HP2H": (1, 1, 3),
    "PHP2H": (0, 1, 3),
    "P2HP2H": (1, 3, 1),
    "P3HP2H": (0, 3, 1),
}

COSET_REP_WORDS = ("I", "P", "H", "PH", "HP", "PHP")


@dataclass(frozen=True)
class CliffordElement:
    """A Clifford gate with its generator word and wire angles (radians)."""

    unitary: Unitary2
    word: str
    angles: tuple[float, float, float]

    @property
    def quarter_turns(self) -> tuple[int, int, int]:
        return tuple(int(round(a / HALF_PI)) % 4 for a in self.angles)


def word_to_unitary(word: str) -> Unitary2:
    """Product of generators P and H named by ``word`` (e.g. "P2HP3")."""
    if word == "I":
        return I2
    m = np.eye(2, dtype=complex)
    i = 0
    while i < len(word):
        if word[i] not in "PH":
            raise ValueError(f"unknown generator {word[i]!r} in word {word!r}")
        g = P.matrix if word[i] == "P" else H.matrix
        power = 1
        if i + 1 < len(word) and word[i + 1].isdigit():
            power = int(word[i + 1])
            i += 1
        for _ in range(power):
            m = m @ g
        i += 1
    return Unitary2(m)


def angles_to_clifford(angles) -> Unitary2:
    """Gate realized by three wire measurements at quarter-turn angles.

    The first angle is the rightmost factor: (H Z_t3)(H Z_t2)(H Z_t1).
    """
    t1, t2, t3 = (float(a) for a in angles)
    for a in (t1, t2, t3):
        if abs(a / HALF_PI - round(a / HALF_PI)) > 1e-9:
            raise ValueError(f"angle {a} is not an integer multiple of pi/2")
    hm = H.matrix
    m = (hm @ z_rotation(t3).matrix) @ (hm @ z_rotation(t2).matrix) @ (hm @ z_rotation(t1).matrix)
    return Unitary2(m)


def _phase_key(m: np.ndarray, decimals: int = 6) -> bytes:
    """Hashable form of a unitary with the global phase stripped."""
    anchor = m[0, 0] if abs(m[0, 0]) > 0.3 else m[0, 1]
    normed = m * (abs(anchor) / anchor)
    return (np.round(normed, decimals) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0


@lru_cache(maxsize=None)
def clifford_group() -> tuple[CliffordElement, ...]:
    """All 24 single-qubit Cliffords, ordered and keyed by generator word.

    The group is rebuilt by breadth-first closure over {P, H} with
    up-to-phase deduplication and checked against the angle table rows; the
    composition-order convention is pinned by the I and H rows.
    """
    table_unitaries = {w: word_to_unitary(w) for w in CLIFFORD_ANGLE_TABLE}

    # Closure from the identity under right-multiplication by P and H.
    seen = {_phase_key(I2.matrix): I2}
    frontier = [I2]
    while frontier:
        nxt = []
        for u in frontier:
            for g in (P, H):
                v = u @ g
                key = _phase_key(v.matrix)
                if key not in seen:
                    seen[key] = v
                    nxt.append(v)
        frontier = nxt
    if len(seen) != 24:
        raise VerificationError(f"closure over P, H produced {len(seen)} elements, expected 24")
    table_keys = {_phase_key(u.matrix) for u in table_unitaries.values()}
    if table_keys != set(seen):
        raise VerificationError("angle-table words do not enumerate the closure of P, H")

    # Pin the angle composition order before trusting the rest of the table.
    for word, target in (("H", H), ("I", I2)):
        got = angles_to_clifford(_row_angles(word))
        if not got.equals_up_to_phase(target):
            raise VerificationError(f"angle composition order check failed on row {word}")

    return tuple(
        CliffordElement(unitary=table_unitaries[w], word=w, angles=_row_angles(w))
        for w in CLIFFORD_ANGLE_TABLE
    )


def _row_angles(word: str) -> tuple[float, float, float]:
    n1, n2, n3 = CLIFFORD_ANGLE_TABLE[word]
    return (n1 * HALF_PI, n2 * HALF_PI, n3 * HALF_PI)


def coset_reps() -> tuple[CliffordElement, ...]:
    """Coset representatives {I, P, H, PH, HP, PHP} of the Pauli subgroup."""
    by_word = {e.word: e for e in clifford_group()}
    return tuple(by_word[w] for w in COSET_REP_WORDS)


def clifford_index(u: Unitary2) -> int:
    """Position of ``u`` in :func:`clifford_group`, matched up to phase."""
    key = _phase_key(u.matrix)
    try:
        return _index_by_key()[key]
    except KeyError:
        raise ValueError("unitary is not a Clifford element") from None


@lru_cache(maxsize=None)
def _index_by_key() -> dict[bytes, int]:
    return {_phase_key(e.unitary.matrix): i for i, e in enumerate(clifford_group())}


def verify_angle_table(table: dict[str, tuple[int, int, int]] | None = None) -> dict[str, float]:
    """Check every angle row against its named gate.

    Returns the phase distance per row on success; raises
    :class:`VerificationError` naming the offending rows otherwise.
    """
    if table is None:
        table = CLIFFORD_ANGLE_TABLE
    deviations = {}
    failures = []
    for word, quads in table.items():
        target = word_to_unitary(word)
        got = angles_to_clifford(tuple(n * HALF_PI for n in quads))
        dev = got.phase_distance(target)
        deviations[word] = dev
        if dev > PHASE_TOL:
            failures.append(word)
    if failures:
        raise VerificationError(f"angle table rows failed: {', '.join(failures)}")
    return deviations


def byproduct_bits(n, m) -> tuple[int, int]:
    """Pauli exponents (b1, b2) from outcomes ``m`` of a quarter-turn triple ``n``.

    The realized three-measurement gate equals X^b1 Z^b2 times the
    all-outcomes-zero gate, up to global phase.
    """
    n1, n2, n3 = (int(k) for k in n)
    m1, m2, m3 = (int(b) for b in m)
    if not all(k in (0, 1, 2, 3) for k in (n1, n2, n3)):
        raise ValueError("quarter-turn indices must lie in {0, 1, 2, 3}")
    if not all(b in (0, 1) for b in (m1, m2, m3)):
        raise ValueError("outcomes must be bits")
    b1 = (m3 + m2 * n3 + m1 * (n2 * n3 + 1)) % 2
    b2 = (m2 + m1 * n2) % 2
    return b1, b2


def verify_byproduct_bits() -> float:
    """Brute-force check of the byproduct formulas over all 512 cases.

    For every quarter-turn triple and outcome triple, the realized
    three-measurement product must equal X^b1 Z^b2 times the all-zeros gate
    up to phase. Returns the worst phase distance; raises
    :class:`VerificationError` on any mismatch.
    """
    worst = 0.0
    failures = []
    for n1 in range(4):
        for n2 in range(4):
            for n3 in range(4):
                n = (n1, n2, n3)
                base = angles_to_clifford(tuple(k * HALF_PI for k in n))
                for m1 in range(2):
                    for m2 in range(2):
                        for m3 in range(2):
                            m = (m1, m2, m3)
                            real = np.eye(2, dtype=complex)
                            for nk, mk in zip(n, m):
                                step = H.matrix @ z_rotation(nk * HALF_PI).matrix
                                if mk:
                                    step = X.matrix @ step
                                real = step @ real
                            b1, b2 = byproduct_bits(n, m)
                            pred = base.matrix
                            if b2:
                                pred = Z.matrix @ pred
                            if b1:
                                pred = X.matrix @ pred
                            dev = Unitary2(real).phase_distance(Unitary2(pred))
                            worst = max(worst, dev)
                            if dev > PHASE_TOL:
                                failures.append((n, m))
    if failures:
        raise VerificationError(f"byproduct formulas failed for {len(failures)} cases")
    return worst


_PAULI_BITS = {(1, 0): X, (1, 1): Y, (0, 1): Z}


def conjugation_bits(u: Unitary2) -> np.ndarray:
    """GF(2) action of frame conjugation by a Clifford ``u``.

    Returns the 2x2 bit matrix A with u X^fx Z^fz u^dag = X^fx' Z^fz' up to
    phase, (fx', fz') = A (fx, fz).
    """
    cols = []
    for w in (X, Z):
        conj = Unitary2(u.matrix @ w.matrix @ u.matrix.conj().T)
        for bits, pauli in _PAULI_BITS.items():
            if conj.equals_up_to_phase(pauli):
                cols.append(bits)
                break
        else:
            raise ValueError("unitary does not normalize the Pauli group")
    return np.array(cols, dtype=int).T


def frame_unitary(frame) -> Unitary2:
    """The Pauli X^fx Z^fz recorded in a frame."""
    fx, fz = frame
    m = np.eye(2, dtype=complex)
    if fz:
        m = Z.matrix @ m
    if fx:
        m = X.matrix @ m
    return Unitary2(m)


def fold_frame(action, bits, fx, fz):
    """Pauli frame after one gate block: (b + A f) mod 2.

    The old frame (fx, fz) is conjugated through the block's all-zeros gate,
    whose GF(2) action is ``action``, and the block's byproduct ``bits``
    (b1, b2) are XORed on top. Broadcasts over arrays of frames and bits.
    """
    return (
        (bits[..., 0] + action[0, 0] * fx + action[0, 1] * fz) % 2,
        (bits[..., 1] + action[1, 0] * fx + action[1, 1] * fz) % 2,
    )


OUTCOME_TRIPLES = tuple(itertools.product((0, 1), repeat=3))


@dataclass(frozen=True)
class CliffordTable:
    """Read-only arrays indexed by position in :func:`clifford_group` (0 is I).

    ``byproducts[g, m]`` holds row g's byproduct bits for outcome triple
    ``OUTCOME_TRIPLES[m]``; ``triple_element[n]`` is the element any
    quarter-turn triple n realizes with all outcomes zero.
    """

    product: np.ndarray  # [g, v]: element g applied after v
    inverse: np.ndarray
    ptm: np.ndarray
    frame_action: np.ndarray  # conjugation_bits of each element
    byproducts: np.ndarray
    coset_reps: np.ndarray
    triple_element: np.ndarray
    frame_ptm: np.ndarray  # [fx, fz]: PTM of X^fx Z^fz

    def sequence_inverse(self, indices):
        """Element undoing the gates along the last axis of ``indices``, the first applied first."""
        v = 0
        for g in np.asarray(indices).T:
            v = self.product[g, v]
        return self.inverse[v]

    def next_frame(self, g, m, fx, fz):
        """Frame after row g's block with outcome index (or indices) ``m``."""
        return fold_frame(self.frame_action[g], self.byproducts[g, m], fx, fz)


@lru_cache(maxsize=None)
def clifford_table() -> CliffordTable:
    """The shared :class:`CliffordTable`, built on first use."""
    group = clifford_group()
    index = _index_by_key()
    mats = [e.unitary.matrix for e in group]
    return CliffordTable(
        product=_frozen([[index[_phase_key(a @ b)] for b in mats] for a in mats]),
        inverse=_frozen([index[_phase_key(a.conj().T)] for a in mats]),
        ptm=_frozen([channel_from_unitary(e.unitary).ptm for e in group]),
        frame_action=_frozen([conjugation_bits(e.unitary) for e in group]),
        byproducts=_frozen(
            [[byproduct_bits(e.quarter_turns, m) for m in OUTCOME_TRIPLES] for e in group]
        ),
        coset_reps=_frozen([clifford_index(e.unitary) for e in coset_reps()]),
        triple_element=_frozen(
            [clifford_index(angles_to_clifford(np.array(n) * HALF_PI)) for n in np.ndindex(4, 4, 4)]
        ).reshape(4, 4, 4),
        frame_ptm=_frozen(
            [[channel_from_unitary(frame_unitary((fx, fz))).ptm for fz in (0, 1)] for fx in (0, 1)]
        ),
    )


@dataclass(frozen=True)
class DerandomizedDesign:
    """The 32-element measurement-based 2-design for one five-site pattern.

    ``elements`` is indexed by the outcome bits as
    m1*16 + m2*8 + m3*4 + m4*2 + m5.
    """

    phi1: float
    phi2: float
    angles: tuple[float, float, float, float, float]
    a: tuple[Unitary2, Unitary2, Unitary2, Unitary2, Unitary2]
    q_gate: Unitary2
    elements: tuple[Unitary2, ...]


def design_angles(phi1: float = 0.0, phi2: float = 0.0):
    return (phi1, np.pi / 4, float(np.arccos(1.0 / np.sqrt(3.0))), np.pi / 4, phi2)


def derandomized_design(phi1: float = 0.0, phi2: float = 0.0) -> DerandomizedDesign:
    """Build the fixed-pattern 2-design for free angles ``phi1``, ``phi2``.

    Each flip A_i is Z conjugated by the tail of the measurement pattern
    from site i onward; element m applies, after the all-zeros gate Q, the
    flips A_i for which m_i = 1, in order of increasing i.
    """
    if not (np.isfinite(phi1) and np.isfinite(phi2)):
        raise ValueError("free angles must be finite")
    angles = design_angles(phi1, phi2)
    steps = [H.matrix @ z_rotation(t).matrix for t in angles]

    q = np.eye(2, dtype=complex)
    for s in steps:
        q = s @ q

    flips = []
    for i in range(1, 6):
        tail = np.eye(2, dtype=complex)
        for k in range(i, 6):
            tail = steps[k - 1] @ tail
        a = Unitary2(tail @ Z.matrix @ tail.conj().T)
        if abs(np.trace(a.matrix)) > 1e-10 or not np.allclose(
            a.matrix, a.matrix.conj().T, atol=1e-10
        ):
            raise VerificationError(f"flip matrix A{i} is not a pi rotation")
        flips.append(a)

    elements = []
    for idx in range(32):
        bits = [(idx >> (4 - k)) & 1 for k in range(5)]  # m1 .. m5
        m = q.copy()
        for i in range(5):
            if bits[i]:
                m = flips[i].matrix @ m
        elements.append(Unitary2(m))

    return DerandomizedDesign(
        phi1=phi1,
        phi2=phi2,
        angles=angles,
        a=tuple(flips),
        q_gate=Unitary2(q),
        elements=tuple(elements),
    )


def outcome_index(m) -> int:
    bits = [int(b) for b in m]
    if len(bits) != 5 or any(b not in (0, 1) for b in bits):
        raise ValueError("expected five outcome bits")
    return bits[0] * 16 + bits[1] * 8 + bits[2] * 4 + bits[3] * 2 + bits[4]


def element_from_outcomes(design: DerandomizedDesign, m) -> Unitary2:
    """Design element realized by outcome bits (m1, ..., m5); pure lookup."""
    return design.elements[outcome_index(m)]


# Printed reference values for the phi1 = phi2 = 0 flips and all-zeros gate.
_S3 = 1.0 / np.sqrt(3.0)
ZERO_PHI_REFERENCE: dict[str, np.ndarray] = {
    "A1": np.array(
        [
            [_S3, -(1 + 1j) * (np.sqrt(3.0) + 3j) / 6.0],
            [(1 + 1j) * (3.0 + 1j * np.sqrt(3.0)) / 6.0, -_S3],
        ]
    ),
    "A2": np.array([[_S3, (1 + 1j) * _S3], [(1 - 1j) * _S3, -_S3]]),
    "A3": np.array([[0, np.exp(-1j * np.pi / 4)], [np.exp(1j * np.pi / 4), 0]]),
    "A4": np.array([[1, 0], [0, -1]], dtype=complex),
    "A5": np.array([[0, 1], [1, 0]], dtype=complex),
}


def _phase_aligned_deviation(got: np.ndarray, ref: np.ndarray) -> float:
    """Max entrywise deviation after removing the global phase."""
    flat = np.argmax(np.abs(ref))
    scale = got.flat[flat] / ref.flat[flat]
    scale /= abs(scale)
    return float(np.max(np.abs(got - scale * ref)))


def verify_design_reference() -> dict[str, float]:
    """Compare the generated zero-phase design against its printed values.

    Also checks Q against its closed form as alternating Z rotations and
    Hadamards. Raises :class:`VerificationError` on any mismatch.
    """
    design = derandomized_design(0.0, 0.0)
    t3 = float(np.arccos(1.0 / np.sqrt(3.0)))
    q_ref = (
        z_rotation(np.pi / 4).matrix
        @ H.matrix
        @ z_rotation(t3).matrix
        @ H.matrix
        @ z_rotation(np.pi / 4).matrix
        @ H.matrix
    )
    checks = {f"A{i + 1}": (design.a[i].matrix, ZERO_PHI_REFERENCE[f"A{i + 1}"]) for i in range(5)}
    checks["Q"] = (design.q_gate.matrix, q_ref)
    deviations = {}
    failures = []
    for name, (got, ref) in checks.items():
        dev = _phase_aligned_deviation(got, ref)
        deviations[name] = dev
        if dev > PHASE_TOL:
            failures.append(name)
    if failures:
        raise VerificationError(f"design reference mismatch: {', '.join(failures)}")
    return deviations


def pauli_group() -> tuple[Unitary2, Unitary2, Unitary2, Unitary2]:
    return (I2, X, Y, Z)


HAAR_FRAME_POTENTIAL_T2 = 2.0


def verify_2design(gateset: list[Unitary2], tol: float, *, n_channels: int = 10,
                   rng: np.random.Generator | None = None) -> bool:
    """True iff the set passes both 2-design diagnostics.

    The frame potential must not exceed the Haar value by more than ``tol``,
    and twirling random CPTP maps over the set must leave only a depolarizing
    channel (off-target PTM entries at most ``tol``).
    """
    if not gateset:
        raise ValueError("cannot certify an empty gate set")
    if frame_potential(gateset, 2) > HAAR_FRAME_POTENTIAL_T2 + tol:
        return False
    if rng is None:
        rng = np.random.default_rng(20160811)
    for _ in range(n_channels):
        ch = random_cptp_channel(rng, kraus_rank=2)
        tw = twirl(ch, gateset).ptm
        p = np.trace(tw[1:, 1:]) / 3.0
        if np.max(np.abs(tw - np.diag([1.0, p, p, p]))) > tol:
            return False
    return True
