"""The gate-set verification suite that ``verify`` and ``run``'s
``verify_first`` run.

Each check compares what ``gatesets`` builds against an independent form:
the design's flips against their printed matrices, the byproduct formulas
against the 512 realized three-measurement products, and both gate sets
against the Haar frame potential and twirl. ``verify_angle_table`` stays in
``gatesets``, since ``clifford_group`` runs it. Only those two commands
import this module, so ``oracle``, ``fit`` and a plain ``run`` never
compile it.
"""

from __future__ import annotations

import numpy as np

from .channels import (
    H,
    PHASE_TOL,
    Unitary2,
    X,
    Z,
    frame_potential,
    phase_distances,
    unitary_ptms,
    unitary_stack,
    z_rotation,
)
from .gatesets import (
    ACOS_SQRT3,
    CLIFFORD_ANGLE_TABLE,
    HALF_PI,
    OUTCOME_TRIPLES,
    QUARTER_TRIPLES,
    VerificationError,
    block_gates,
    byproduct_bits,
    clifford_group,
    derandomized_design,
    verify_angle_table,
)

DESIGN_TOL = 1e-9


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
    q_ref = (
        z_rotation(np.pi / 4).matrix
        @ H.matrix
        @ z_rotation(ACOS_SQRT3).matrix
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

# The Haar twirl as a superoperator on row-major flattened PTMs: it keeps
# E_00 and sends the unital block E[1:, 1:] to (tr / 3) I.
_UNITAL = np.diag([0.0, 1.0, 1.0, 1.0]).ravel()
_HAAR_TWIRL = np.outer(np.eye(16)[0], np.eye(16)[0]) + np.outer(_UNITAL, _UNITAL) / 3.0


def _twirl_superoperator(gateset: list[Unitary2]) -> np.ndarray:
    """The set's twirl on row-major flattened PTMs: (1/N) sum_U (R_U (x) R_U)^T,
    which sends E to the average of R_U^T E R_U, as :func:`channels.twirl` does."""
    r = unitary_ptms(np.stack([u.matrix for u in gateset]))
    return np.einsum("nki,nlj->ijkl", r, r).reshape(16, 16) / len(r)


def verify_2design(gateset: list[Unitary2], tol: float) -> bool:
    """True iff the set passes both 2-design diagnostics.

    The frame potential must not exceed the Haar value by more than ``tol``,
    and the set's twirl superoperator must match the Haar twirl entrywise
    within ``tol``. The superoperator is the twirl of all 16 matrix units,
    which span every PTM, so the twirl check is exact and uses no random
    channels; ``verify`` therefore loads neither ``numpy.random`` nor, through
    it, OpenSSL.
    """
    if not gateset:
        raise ValueError("cannot certify an empty gate set")
    if frame_potential(gateset, 2) > HAAR_FRAME_POTENTIAL_T2 + tol:
        return False
    return bool(np.max(np.abs(_twirl_superoperator(gateset) - _HAAR_TWIRL)) <= tol)


def _checks():
    """The verification suite, as (name, check) pairs."""

    def check_table():
        devs = verify_angle_table(CLIFFORD_ANGLE_TABLE)
        return f"24/24 rows, max deviation {max(devs.values()):.2e}"

    def check_reference():
        devs = verify_design_reference()
        return f"max deviation {max(devs.values()):.2e}"

    def check_clifford_design():
        gates = [e.unitary for e in clifford_group()]
        if not verify_2design(gates, DESIGN_TOL):
            raise VerificationError("Clifford set failed the 2-design diagnostics")
        return f"frame potential and twirl within {DESIGN_TOL:.0e}"

    def check_derandomized_design():
        gates = list(derandomized_design().elements)
        if not verify_2design(gates, DESIGN_TOL):
            raise VerificationError("derandomized set failed the 2-design diagnostics")
        return f"{len(gates)} elements within {DESIGN_TOL:.0e}"

    def check_byproducts():
        worst = verify_byproduct_bits()
        return f"512/512 cases, max deviation {worst:.2e}"

    return [
        ("clifford-angle-table", check_table),
        ("design-reference-matrices", check_reference),
        ("clifford-2design", check_clifford_design),
        ("derandomized-2design", check_derandomized_design),
        ("byproduct-bits", check_byproducts),
    ]


def run_checks(quiet: bool, fail_stream) -> list[str]:
    """Run the verification suite: a PASS line per passed check on stdout unless ``quiet``,
    a FAIL line per failed one on ``fail_stream``. Returns the failed checks' names."""
    failed = []
    for name, check in _checks():
        try:
            detail = check()
        except (VerificationError, ValueError) as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}", file=fail_stream)
        else:
            if not quiet:
                print(f"PASS {name}: {detail}")
    return failed
