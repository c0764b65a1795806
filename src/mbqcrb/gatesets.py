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
from functools import lru_cache, reduce

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
    _dagger,
    _frozen,
    frame_potential,
    phase_distances,
    random_cptp_channel,
    twirl,
    unitary_ptms,
    unitary_stack,
    z_rotation,
    z_rotations,
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


def _word_matrix(word: str) -> np.ndarray:
    """Product of generators P and H named by ``word`` (e.g. "P2HP3")."""
    m = np.eye(2, dtype=complex)
    if word == "I":
        return m
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
    return m


def measurement_gates(angles, outcomes=0) -> np.ndarray:
    """Gate X^m H Z_theta of one wire measurement, over broadcast angles and outcome bits."""
    u = H.matrix @ z_rotations(angles)
    return np.where(np.asarray(outcomes)[..., None, None] != 0, X.matrix @ u, u)


def block_gates(angles, outcomes=0) -> np.ndarray:
    """Gates of wire measurements at (..., q) angles and outcomes, the first acting first.

    Three steps give (s3 s2) s1: the product runs from the last step down.
    """
    steps = np.moveaxis(measurement_gates(angles, outcomes), -3, 0)
    return reduce(np.matmul, steps[::-1])


_PHASE_KEY_DECIMALS = 6


def _phase_keys(mats) -> list[bytes]:
    """Hashable form of each unitary of a (..., 2, 2) stack, global phase stripped."""
    m = np.reshape(mats, (-1, 2, 2))
    anchor = np.where(np.abs(m[:, 0, 0]) > 0.3, m[:, 0, 0], m[:, 0, 1])
    normed = m * (np.abs(anchor) / anchor)[:, None, None]
    # +0.0 folds -0.0 into +0.0
    return [k.tobytes() for k in np.round(normed, _PHASE_KEY_DECIMALS) + 0.0]


@lru_cache(maxsize=None)
def clifford_group() -> tuple[CliffordElement, ...]:
    """All 24 single-qubit Cliffords, ordered and keyed by generator word.

    The group is rebuilt by breadth-first closure over {P, H} with
    up-to-phase deduplication and checked against the angle table rows; the
    composition-order convention is pinned by the I and H rows.
    """
    table = CLIFFORD_ANGLE_TABLE
    words = tuple(table)
    mats = unitary_stack([_word_matrix(w) for w in words])

    # Closure from the identity under right-multiplication by P and H.
    seen = set(_phase_keys(I2.matrix))
    frontier = I2.matrix[None]
    while len(frontier):
        products = (frontier[:, None] @ np.stack([P.matrix, H.matrix])).reshape(-1, 2, 2)
        fresh = {k: v for k, v in zip(_phase_keys(products), products) if k not in seen}
        seen.update(fresh)
        frontier = unitary_stack(np.reshape(list(fresh.values()), (-1, 2, 2)))
    if len(seen) != 24:
        raise VerificationError(f"closure over P, H produced {len(seen)} elements, expected 24")
    if set(_phase_keys(mats)) != seen:
        raise VerificationError("angle-table words do not enumerate the closure of P, H")

    # Pin the angle composition order before trusting the rest of the table.
    for word, dev in _row_deviations({w: table[w] for w in ("H", "I")}).items():
        if not dev < PHASE_TOL:
            raise VerificationError(f"angle composition order check failed on row {word}")

    return tuple(
        CliffordElement(unitary=u, word=w, angles=tuple(k * HALF_PI for k in table[w]))
        for u, w in zip(Unitary2.from_stack(mats), words)
    )


def _clifford_indices(mats) -> np.ndarray:
    """Position in :func:`clifford_group` of each matrix of a (..., 2, 2) stack, up to phase."""
    index = _index_by_key()
    try:
        found = [index[k] for k in _phase_keys(mats)]
    except KeyError:
        raise ValueError("unitary is not a Clifford element") from None
    return np.reshape(found, np.shape(mats)[:-2])


def clifford_index(u: Unitary2) -> int:
    """Position of ``u`` in :func:`clifford_group`, matched up to phase."""
    return int(_clifford_indices(u.matrix))


@lru_cache(maxsize=None)
def _index_by_key() -> dict[bytes, int]:
    return {k: i for i, k in enumerate(_phase_keys([e.unitary.matrix for e in clifford_group()]))}


def _row_deviations(table: dict[str, tuple[int, int, int]]) -> dict[str, float]:
    """Phase distance between each row's angle-triple gate and its named word."""
    words = list(table)
    targets = unitary_stack(np.reshape([_word_matrix(w) for w in words], (-1, 2, 2)))
    angles = np.reshape([table[w] for w in words], (-1, 3)) * HALF_PI
    return dict(zip(words, phase_distances(unitary_stack(block_gates(angles)), targets).tolist()))


def verify_angle_table(table: dict[str, tuple[int, int, int]] | None = None) -> dict[str, float]:
    """Check every angle row against its named gate.

    Returns the phase distance per row on success; raises
    :class:`VerificationError` naming the offending rows otherwise.
    """
    deviations = _row_deviations(CLIFFORD_ANGLE_TABLE if table is None else table)
    failures = [w for w, dev in deviations.items() if dev > PHASE_TOL]
    if failures:
        raise VerificationError(f"angle table rows failed: {', '.join(failures)}")
    return deviations


def byproduct_bits(n, m):
    """Pauli exponents (b1, b2) from outcomes ``m`` of a quarter-turn triple ``n``.

    The realized three-measurement gate equals X^b1 Z^b2 times the
    all-outcomes-zero gate, up to global phase. Broadcasts over arrays of
    triples along the last axis.
    """
    n = np.asarray(n).astype(np.int64)
    m = np.asarray(m).astype(np.int64)
    if ((n < 0) | (n > 3)).any():
        raise ValueError("quarter-turn indices must lie in {0, 1, 2, 3}")
    if ((m != 0) & (m != 1)).any():
        raise ValueError("outcomes must be bits")
    (_, n2, n3), (m1, m2, m3) = np.moveaxis(n, -1, 0), np.moveaxis(m, -1, 0)
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
    n = QUARTER_TRIPLES[:, None]  # [n, 1, k]
    m = np.array(OUTCOME_TRIPLES)  # [m, k]
    real = block_gates(n * HALF_PI, m)
    b1, b2 = (np.asarray(b)[..., None, None] for b in byproduct_bits(n, m))
    pred = block_gates(n * HALF_PI)
    pred = np.where(b2 != 0, Z.matrix @ pred, pred)
    pred = np.where(b1 != 0, X.matrix @ pred, pred)
    devs = phase_distances(unitary_stack(real), unitary_stack(pred))
    failures = int((devs > PHASE_TOL).sum())
    if failures:
        raise VerificationError(f"byproduct formulas failed for {failures} cases")
    return max(0.0, float(devs.max()))


_FRAME_PAULIS = np.stack([X.matrix, Y.matrix, Z.matrix])
_FRAME_BITS = np.array([(1, 0), (1, 1), (0, 1)])  # (fx, fz) of X, Y, Z


def _conjugation_bits(mats: np.ndarray) -> np.ndarray:
    """:func:`conjugation_bits` of each matrix of an (n, 2, 2) stack."""
    conj = mats[:, None] @ np.stack([X.matrix, Z.matrix]) @ _dagger(mats)[:, None]
    hits = phase_distances(conj[:, :, None], _FRAME_PAULIS) < PHASE_TOL  # [n, X or Z, pauli]
    if not hits.any(axis=-1).all():
        raise ValueError("unitary does not normalize the Pauli group")
    return _FRAME_BITS[hits.argmax(axis=-1)].swapaxes(-1, -2)


def conjugation_bits(u: Unitary2) -> np.ndarray:
    """GF(2) action of frame conjugation by a Clifford ``u``.

    Returns the 2x2 bit matrix A with u X^fx Z^fz u^dag = X^fx' Z^fz' up to
    phase, (fx', fz') = A (fx, fz).
    """
    return _conjugation_bits(u.matrix[None])[0]


def frame_unitary(frame) -> Unitary2:
    """The Pauli X^fx Z^fz recorded in a frame."""
    fx, fz = frame
    m = np.eye(2, dtype=complex)
    if fz:
        m = Z.matrix @ m
    if fx:
        m = X.matrix @ m
    return Unitary2(m)


OUTCOME_TRIPLES = tuple(itertools.product((0, 1), repeat=3))
QUARTER_TRIPLES = _frozen(list(np.ndindex(4, 4, 4)))  # every (n1, n2, n3), n3 fastest


@dataclass(frozen=True)
class CliffordTable:
    """Read-only arrays of Clifford facts, built once by :func:`clifford_table`.

    Group elements are indexed by position in :func:`clifford_group` (0 is
    I). ``frame_step[n1, n2, n3, m, f]`` is the Pauli frame, coded 2 fx + fz,
    after the wire block of quarter turns (n1, n2, n3) with outcome triple
    ``OUTCOME_TRIPLES[m]``, entered with frame f: the old frame conjugated
    through the block's all-zeros gate, with the block's byproduct bits
    XORed on top.
    """

    product: np.ndarray  # [g, v]: element g applied after v
    inverse: np.ndarray
    ptm: np.ndarray
    coset_reps: np.ndarray
    frame_ptm: np.ndarray  # [fx, fz]: PTM of X^fx Z^fz
    frame_step: np.ndarray


@lru_cache(maxsize=None)
def clifford_table() -> CliffordTable:
    """The shared :class:`CliffordTable`, built on first use."""
    group = clifford_group()
    words = [e.word for e in group]
    mats = np.stack([e.unitary.matrix for e in group])
    frames = [frame_unitary(f).matrix for f in itertools.product((0, 1), repeat=2)]
    action = _conjugation_bits(unitary_stack(block_gates(HALF_PI * QUARTER_TRIPLES)))
    bits = np.stack(byproduct_bits(QUARTER_TRIPLES[:, None], np.array(OUTCOME_TRIPLES)), axis=-1)
    f = np.arange(4)
    # [n, m, (fx, fz), f]: frame f conjugated through the all-zeros gate, byproducts on top
    step = (bits[..., None] + action[:, None] @ np.stack([f // 2, f % 2])) % 2
    step = step.reshape(4, 4, 4, len(OUTCOME_TRIPLES), 2, 4)
    return CliffordTable(
        product=_frozen(_clifford_indices(mats[:, None] @ mats)),
        inverse=_frozen(_clifford_indices(_dagger(mats))),
        ptm=_frozen(unitary_ptms(mats)),
        coset_reps=_frozen([words.index(w) for w in COSET_REP_WORDS]),
        frame_ptm=_frozen(unitary_ptms(np.stack(frames)).reshape(2, 2, 4, 4)),
        frame_step=_frozen(2 * step[..., 0, :] + step[..., 1, :]),
    )


@dataclass(frozen=True)
class DerandomizedDesign:
    """The 32-element measurement-based 2-design for one five-site pattern.

    ``elements`` is indexed by the outcome bits as
    m1*16 + m2*8 + m3*4 + m4*2 + m5.
    """

    angles: tuple[float, float, float, float, float]
    a: tuple[Unitary2, Unitary2, Unitary2, Unitary2, Unitary2]
    q_gate: Unitary2
    elements: tuple[Unitary2, ...]


def derandomized_design(phi1: float = 0.0, phi2: float = 0.0) -> DerandomizedDesign:
    """The fixed-pattern 2-design for free angles ``phi1``, ``phi2``, built once per pair.

    Each flip A_i is Z conjugated by the tail of the measurement pattern
    from site i onward; element m applies, after the all-zeros gate Q, the
    flips A_i for which m_i = 1, in order of increasing i.
    """
    if not (np.isfinite(phi1) and np.isfinite(phi2)):
        raise ValueError("free angles must be finite")
    return _design(float(phi1), float(phi2))


@lru_cache(maxsize=8)
def _design(phi1: float, phi2: float) -> DerandomizedDesign:
    angles = (phi1, np.pi / 4, float(np.arccos(1.0 / np.sqrt(3.0))), np.pi / 4, phi2)
    # tails[i] is the pattern from site i + 1 on, so tails[0] is Q
    tails = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
    for k, step in enumerate(measurement_gates(angles)):
        tails[: k + 1] = step @ tails[: k + 1]
    flips = unitary_stack(tails @ Z.matrix @ _dagger(tails))
    for i, a in enumerate(flips, 1):
        if abs(np.trace(a)) > 1e-10 or not np.allclose(a, _dagger(a), rtol=0, atol=1e-10):
            raise VerificationError(f"flip matrix A{i} is not a pi rotation")
    # each flip doubles the stack and appends the next outcome bit, m1 most significant
    elements = tails[:1]
    for a in flips:
        elements = np.stack([elements, a @ elements], axis=1).reshape(-1, 2, 2)

    return DerandomizedDesign(
        angles=angles,
        a=Unitary2.from_stack(flips),
        q_gate=Unitary2(tails[0]),
        elements=Unitary2.from_stack(elements),
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
    deviations = {name: _phase_aligned_deviation(got, ref) for name, (got, ref) in checks.items()}
    failures = [name for name, dev in deviations.items() if dev > PHASE_TOL]
    if failures:
        raise VerificationError(f"design reference mismatch: {', '.join(failures)}")
    return deviations


HAAR_FRAME_POTENTIAL_T2 = 2.0
TWIRL_CHANNELS = 10
TWIRL_SEED = 20160811


def verify_2design(gateset: list[Unitary2], tol: float) -> bool:
    """True iff the set passes both 2-design diagnostics.

    The frame potential must not exceed the Haar value by more than ``tol``,
    and twirling ``TWIRL_CHANNELS`` random CPTP maps (seeded with
    ``TWIRL_SEED``) over the set must leave only a depolarizing channel
    (off-target PTM entries at most ``tol``).
    """
    if not gateset:
        raise ValueError("cannot certify an empty gate set")
    if frame_potential(gateset, 2) > HAAR_FRAME_POTENTIAL_T2 + tol:
        return False
    rng = np.random.default_rng(TWIRL_SEED)
    for _ in range(TWIRL_CHANNELS):
        ch = random_cptp_channel(rng, kraus_rank=2)
        tw = twirl(ch, gateset).ptm
        p = np.trace(tw[1:, 1:]) / 3.0
        if np.max(np.abs(tw - np.diag([1.0, p, p, p]))) > tol:
            return False
    return True
