"""The two benchmarking gate sets.

The 24-element single-qubit Clifford group comes with a table of
quarter-turn measurement-angle triples that realize each element on a
three-site wire when all outcomes are zero. The 32-element derandomized set
is generated by a fixed five-angle measurement pattern, indexed by the
outcome bits. ``verify_angle_table`` checks the table, since
``clifford_group`` runs it; the other checks are in ``verify``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .channels import (
    H,
    P,
    PHASE_TOL,
    Unitary2,
    X,
    Z,
    _dagger,
    _frozen,
    phase_distances,
    unitary_ptms,
    unitary_stack,
    z_rotations,
)

HALF_PI = np.pi / 2
ACOS_SQRT3 = float(np.arccos(1.0 / np.sqrt(3.0)))  # the design pattern's third angle


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
    """A Clifford gate with its generator word and its row of the angle table."""

    unitary: Unitary2
    word: str
    quarter_turns: tuple[int, int, int]

    @property
    def angles(self) -> tuple[float, float, float]:
        """The wire angles in radians."""
        return tuple(k * HALF_PI for k in self.quarter_turns)


def _word_matrix(word: str) -> np.ndarray:
    """Product of generators P and H named by ``word`` (e.g. "P2HP3"), left to right: each
    generator takes an optional one-digit power, and any other character is an error."""
    m = np.eye(2, dtype=complex)
    if word == "I":
        return m
    for g, power, other in re.findall("([PH])([0-9]?)|([^PH])", word):
        if other:
            raise ValueError(f"unknown generator {other!r} in word {word!r}")
        for _ in range(int(power or 1)):
            m = m @ (P.matrix if g == "P" else H.matrix)
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


_FRAME_BITS = np.array([(1, 0), (1, 1), (0, 1)])  # (fx, fz) of X, Y, Z


def _signed_perms(ptms) -> np.ndarray:
    """The unital 3x3 block of each PTM of a (..., 4, 4) stack, rounded to integers.

    For a Clifford it is the signed permutation by which conjugation moves
    X, Y and Z, which names the element up to global phase.
    """
    return np.rint(ptms[..., 1:, 1:]).astype(np.int8)


def _positions(keys, perms) -> np.ndarray:
    """Position of each signed permutation of a (..., 3, 3) stack among ``perms``, or -1."""
    hits = (keys[..., None, :, :] == perms).all(axis=(-2, -1))
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)


def _frame_bits(perms) -> np.ndarray:
    """(fx', fz') images of X (column 0) and Z (column 1) under each signed permutation."""
    return _FRAME_BITS.T @ np.abs(perms[..., ::2])


@lru_cache(maxsize=None)
def clifford_group() -> tuple[CliffordElement, ...]:
    """All 24 single-qubit Cliffords, ordered and keyed by generator word.

    Every row is a word in P and H, so 24 rows with distinct signed
    permutations whose products stay among them are exactly the group P and
    H generate. The composition-order convention is pinned by the I and H
    rows.
    """
    table = CLIFFORD_ANGLE_TABLE
    words = tuple(table)
    mats = unitary_stack([_word_matrix(w) for w in words])
    perms = _signed_perms(unitary_ptms(mats))
    if len(words) != 24 or (_positions(perms, perms) != np.arange(24)).any():
        raise VerificationError("angle-table words do not name 24 distinct elements")
    if (_positions(perms[:, None] @ perms, perms) < 0).any():
        raise VerificationError("products of angle-table words leave the table")

    # Pin the angle composition order before trusting the rest of the table.
    verify_angle_table({w: table[w] for w in ("H", "I")})

    return tuple(
        CliffordElement(unitary=u, word=w, quarter_turns=table[w])
        for u, w in zip(Unitary2.from_stack(mats), words)
    )


def clifford_index(u: Unitary2) -> int:
    """Position of ``u`` in :func:`clifford_group`, matched up to phase.

    The candidate is the element whose signed permutation ``u``'s PTM
    rounds to. It is accepted only within ``PHASE_TOL`` of ``u``, the one
    equality rule of the package; anything else raises ValueError.
    """
    key = _signed_perms(unitary_ptms(u.matrix[None]))[0]
    k = int(_positions(key, _signed_perms(clifford_table().ptm)))
    if k < 0 or not u.equals_up_to_phase(clifford_group()[k].unitary):
        raise ValueError("unitary is not a Clifford element")
    return k


def verify_angle_table(table: dict[str, tuple[int, int, int]] | None = None) -> dict[str, float]:
    """Check every angle row against its named gate.

    Returns the phase distance per row on success; raises
    :class:`VerificationError` naming the offending rows otherwise.
    """
    table = CLIFFORD_ANGLE_TABLE if table is None else table
    words = list(table)
    targets = unitary_stack(np.reshape([_word_matrix(w) for w in words], (-1, 2, 2)))
    angles = np.reshape([table[w] for w in words], (-1, 3)) * HALF_PI
    deviations = dict(zip(words, phase_distances(unitary_stack(block_gates(angles)), targets).tolist()))
    failures = [w for w, dev in deviations.items() if dev > PHASE_TOL]
    if failures:
        raise VerificationError(f"angle table rows failed: {', '.join(failures)}")
    return deviations


def _as_indices(values, k: int, message: str, size: int | None = None) -> np.ndarray:
    """``values`` as an int64 array, if each is an integer in [0, k) as given.

    The check runs before any cast, so 2.5 or "1" raise ``ValueError(message)``
    rather than being truncated or parsed. ``size`` is the required length.
    """
    values = np.asarray(values)
    if (size is not None and values.shape != (size,)) or not set(values.ravel().tolist()) <= set(range(k)):
        raise ValueError(message)
    return values.astype(np.int64)


def byproduct_bits(n, m):
    """Pauli exponents (b1, b2) from outcomes ``m`` of a quarter-turn triple ``n``.

    The realized three-measurement gate equals X^b1 Z^b2 times the
    all-outcomes-zero gate, up to global phase. Broadcasts over arrays of
    triples along the last axis.
    """
    n = _as_indices(n, 4, "quarter-turn indices must lie in {0, 1, 2, 3}")
    m = _as_indices(m, 2, "outcomes must be bits")
    (_, n2, n3), (m1, m2, m3) = np.moveaxis(n, -1, 0), np.moveaxis(m, -1, 0)
    b1 = (m3 + m2 * n3 + m1 * (n2 * n3 + 1)) % 2
    b2 = (m2 + m1 * n2) % 2
    return b1, b2


def conjugation_bits(u: Unitary2) -> np.ndarray:
    """GF(2) action of frame conjugation by a Clifford ``u``.

    Returns the 2x2 bit matrix A with u X^fx Z^fz u^dag = X^fx' Z^fz' up to
    phase, (fx', fz') = A (fx, fz): its columns say where the signed
    permutation of ``u``'s element sends X and Z. ``u`` is matched as by
    :func:`clifford_index`, so a non-Clifford raises ValueError.
    """
    return _frame_bits(_signed_perms(clifford_table().ptm[clifford_index(u)]))


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
    ptm = unitary_ptms(np.stack([e.unitary.matrix for e in group]))
    perms = _signed_perms(ptm)
    frames = [frame_unitary(f).matrix for f in itertools.product((0, 1), repeat=2)]
    blocks = _signed_perms(unitary_ptms(block_gates(HALF_PI * QUARTER_TRIPLES)))
    if (_positions(blocks, perms) < 0).any():
        raise VerificationError("a quarter-turn block is not a Clifford element")
    action = _frame_bits(blocks)
    bits = np.stack(byproduct_bits(QUARTER_TRIPLES[:, None], np.array(OUTCOME_TRIPLES)), axis=-1)
    f = np.arange(4)
    # [n, m, (fx, fz), f]: frame f conjugated through the all-zeros gate, byproducts on top
    step = (bits[..., None] + action[:, None] @ np.stack([f // 2, f % 2])) % 2
    step = step.reshape(4, 4, 4, len(OUTCOME_TRIPLES), 2, 4)
    return CliffordTable(
        product=_frozen(_positions(perms[:, None] @ perms, perms)),
        inverse=_frozen(_positions(perms.swapaxes(-1, -2), perms)),
        ptm=_frozen(ptm),
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
    angles = (phi1, np.pi / 4, ACOS_SQRT3, np.pi / 4, phi2)
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
    return int(_as_indices(m, 2, "expected five outcome bits", size=5) @ (16, 8, 4, 2, 1))


def element_from_outcomes(design: DerandomizedDesign, m) -> Unitary2:
    """Design element realized by outcome bits (m1, ..., m5); pure lookup."""
    return design.elements[outcome_index(m)]


def __getattr__(name):
    # perfbench times the three checks it reads here; they live in ``verify``,
    # loaded on first access. ROADMAP item 10 repoints perfbench and drops this.
    if name in ("verify_2design", "verify_byproduct_bits", "verify_design_reference"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
