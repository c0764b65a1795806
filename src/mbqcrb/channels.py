"""Single-qubit unitary and channel algebra.

Unitaries are 2x2 complex matrices compared up to global phase. Channels are
stored as 4x4 real Pauli-transfer matrices (PTM) over the basis {I, X, Y, Z},
which makes composition a matrix product and trace preservation a check on the
first row. States are length-4 Bloch vectors (1, x, y, z) for the density
matrix (I + x X + y Y + z Z) / 2.
"""

from __future__ import annotations

import numpy as np

PHASE_TOL = 1e-10
UNITARY_TOL = 1e-12
TP_TOL = 1e-12
CP_EIG_FLOOR = -1e-10

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_PAULIS = np.stack([_I, _X, _Y, _Z])


def _frozen(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def unitary_stack(matrices) -> np.ndarray:
    """Read-only (..., 2, 2) complex stack, checked unitary once as a whole."""
    m = np.asarray(matrices, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    if not np.allclose(_dagger(m) @ m, _I, rtol=0.0, atol=UNITARY_TOL):
        raise ValueError("matrix is not unitary within 1e-12")
    return _frozen(m)


def phase_distances(a, b) -> np.ndarray:
    """2 - |tr(A^dag B)| over broadcast (..., 2, 2) stacks; zero where they agree up to phase."""
    return 2.0 - np.abs(np.trace(_dagger(a) @ b, axis1=-2, axis2=-1))


class Unitary2:
    """A 2x2 unitary, equal to another up to global phase.

    Two unitaries are considered the same gate when |tr(U^dag V)| = 2 within
    ``PHASE_TOL``; all gate identities in this package hold only in that sense.
    """

    __slots__ = ("_m",)

    def __init__(self, matrix):
        self._m = unitary_stack(matrix)
        if self._m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {self._m.shape}")

    @classmethod
    def from_stack(cls, matrices) -> tuple["Unitary2", ...]:
        """One Unitary2 per matrix of an (n, 2, 2) stack, validated once for the whole stack."""
        stack = unitary_stack(matrices)
        if stack.ndim != 3:
            raise ValueError(f"expected an (n, 2, 2) stack, got shape {stack.shape}")
        units = tuple(object.__new__(cls) for _ in stack)
        for u, m in zip(units, stack):
            u._m = m
        return units

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    def dagger(self) -> "Unitary2":
        return Unitary2(_dagger(self._m))

    def __matmul__(self, other: "Unitary2") -> "Unitary2":
        return Unitary2(self._m @ other._m)

    def phase_distance(self, other: "Unitary2") -> float:
        """2 - |tr(U^dag V)|; zero iff the two agree up to global phase."""
        return float(phase_distances(self._m, other._m))

    def equals_up_to_phase(self, other: "Unitary2") -> bool:
        return self.phase_distance(other) < PHASE_TOL

    def __repr__(self):
        return f"Unitary2({np.array2string(self._m, precision=6)})"


def z_rotations(thetas) -> np.ndarray:
    """Stack of rotations about Z: diag(e^{-i theta/2}, e^{+i theta/2}) per angle."""
    t = np.asarray(thetas, dtype=float)
    m = np.zeros(t.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
    return m


def z_rotation(theta: float) -> Unitary2:
    """Rotation about Z by ``theta``: diag(e^{-i theta/2}, e^{+i theta/2})."""
    if not np.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    return Unitary2(z_rotations(theta))


I2 = Unitary2(_I)
X = Unitary2(_X)
Y = Unitary2(_Y)
Z = Unitary2(_Z)
H = Unitary2(_H)
P = z_rotation(np.pi / 2)  # phase gate, diag(1, i) up to global phase


# _CHOI_BASIS[i, k] = sigma_i (x) sigma_k^T
_CHOI_BASIS = np.stack(
    [np.stack([np.kron(_PAULIS[i], _PAULIS[k].T) for k in range(4)]) for i in range(4)]
)


def _no_eigenvalue_below(m: np.ndarray, floor: float) -> bool:
    """True iff the Hermitian ``m`` has no eigenvalue below ``floor``.

    A Cholesky of m - floor*I in plain numpy, which reads only the lower
    triangle, as ``eigvalsh`` does: every pivot must be positive. Its backward
    error, about 1e-16 times the largest diagonal entry, is far below the
    floors used here. Unlike LAPACK's first call, it makes no OpenBLAS pages
    resident, about 1 MB of every command's peak RSS.
    """
    a = np.tril(m) - floor * np.eye(len(m))
    for k in range(len(a)):
        pivot = a[k, k].real
        if not pivot > 0.0:  # also rejects NaN
            return False
        col = a[k + 1:, k] / np.sqrt(pivot)
        a[k + 1:, k + 1:] -= np.outer(col, col.conj())  # its upper part is never read
    return True


def choi_matrix(ptm: np.ndarray) -> np.ndarray:
    """Choi state of a PTM, normalized to unit trace for a TP map.

    J = (1/4) sum_ij R_ij sigma_i (x) sigma_j^T; complete positivity of the
    channel is positivity of J.
    """
    return np.einsum("ik,ikab->ab", ptm, _CHOI_BASIS) / 4.0


class Channel:
    """A single-qubit CPTP map as a 4x4 real Pauli-transfer matrix."""

    __slots__ = ("_ptm",)

    def __init__(self, ptm):
        r = np.asarray(ptm, dtype=float)
        if r.shape != (4, 4):
            raise ValueError(f"expected a 4x4 PTM, got shape {r.shape}")
        if not np.allclose(r[0], [1.0, 0.0, 0.0, 0.0], rtol=0.0, atol=TP_TOL):
            raise ValueError("PTM first row must be (1, 0, 0, 0): map is not trace preserving")
        choi = choi_matrix(r)
        if not _no_eigenvalue_below(choi, CP_EIG_FLOOR):  # LAPACK only to word the error
            lowest = np.linalg.eigvalsh(choi).min()
            raise ValueError(f"map is not completely positive (Choi eigenvalue {lowest:.3e})")
        self._ptm = _frozen(r)

    @property
    def ptm(self) -> np.ndarray:
        return self._ptm

    def __repr__(self):
        return f"Channel({np.array2string(self._ptm, precision=6)})"


class State:
    """A qubit state as a Bloch vector (1, x, y, z)."""

    __slots__ = ("_bloch",)

    def __init__(self, bloch):
        b = np.asarray(bloch, dtype=float)
        if b.shape != (4,):
            raise ValueError(f"expected a length-4 Bloch vector, got shape {b.shape}")
        if abs(b[0] - 1.0) > TP_TOL:
            raise ValueError("Bloch vector must have unit trace component")
        if np.linalg.norm(b[1:]) > 1.0 + 1e-12:
            raise ValueError("Bloch vector lies outside the Bloch ball")
        self._bloch = _frozen(b)

    @property
    def bloch(self) -> np.ndarray:
        return self._bloch

    @classmethod
    def from_xyz(cls, x: float, y: float, z: float) -> "State":
        return cls([1.0, x, y, z])

    def __repr__(self):
        return f"State(bloch={np.array2string(self._bloch, precision=6)})"


def plus_state(shrink: float = 1.0) -> State:
    """|+><+|, optionally with its Bloch vector scaled toward the center."""
    return State.from_xyz(shrink, 0.0, 0.0)


class Effect:
    """A POVM effect: 2x2 Hermitian with spectrum in [0, 1]."""

    __slots__ = ("_op", "_coeffs")

    def __init__(self, operator):
        op = np.asarray(operator, dtype=complex)
        if op.shape != (2, 2):
            raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
        if not np.allclose(op, op.conj().T, rtol=0.0, atol=1e-12):
            raise ValueError("effect operator must be Hermitian")
        if not (_no_eigenvalue_below(op, -1e-12) and _no_eigenvalue_below(_I - op, -1e-12)):
            raise ValueError("effect eigenvalues must lie in [0, 1]")
        self._op = _frozen(op)
        # tr(E rho) = sum_i coeffs_i * bloch_i with coeffs_i = tr(sigma_i E)/2
        self._coeffs = _frozen(np.real(np.trace(_PAULIS @ op, axis1=1, axis2=2)) / 2.0)

    @property
    def bloch_coeffs(self) -> np.ndarray:
        return self._coeffs

    def __repr__(self):
        return f"Effect({np.array2string(self._op, precision=6)})"


def projector_effect(u: Unitary2) -> Effect:
    """Rank-1 effect U |+><+| U^dag."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    v = u.matrix @ plus
    return Effect(np.outer(v, v.conj()))


def survival_effect(background: float = 0.0) -> Effect:
    """Noisy |+> readout: responds to |+> with 1 and to |-> with ``background``."""
    return Effect((1.0 - background) * (_I + _X) / 2.0 + background * _I)


def _kraus_ptms(k: np.ndarray) -> np.ndarray:
    """R_ij = Re tr(sigma_i K sigma_j K^dag) / 2 for each K of an (n, 2, 2) stack."""
    conj = np.einsum("nab,jbc,ndc->njad", k, _PAULIS, k.conj())
    return np.real(np.einsum("iab,njba->nij", _PAULIS, conj)) / 2.0


def unitary_ptms(matrices) -> np.ndarray:
    """PTMs of rho -> U rho U^dag for each U of an (n, 2, 2) stack.

    Gate matrices are unitary only to rounding, and R(cU) = |c|^2 R(U), so each
    R is divided by its R_00: the map then preserves the trace exactly, also
    over many thousands of applications.
    """
    r = _kraus_ptms(np.asarray(matrices))
    return r / r[:, :1, :1]


def channel_from_unitary(u: Unitary2) -> Channel:
    """The channel rho -> U rho U^dag; see :func:`unitary_ptms`."""
    return Channel(unitary_ptms(u.matrix[None])[0])


def identity_channel() -> Channel:
    return Channel(np.eye(4))


def compose(second: Channel, first: Channel) -> Channel:
    """Channel that applies ``first`` and then ``second``."""
    return Channel(second.ptm @ first.ptm)


def depolarizing(p: float) -> Channel:
    """rho -> p rho + (1 - p) I/2; PTM diag(1, p, p, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {p}")
    return Channel(np.diag([1.0, p, p, p]))


def dephasing(flip_probability: float) -> Channel:
    """Z-flip with the given probability; PTM diag(1, 1-2q, 1-2q, 1)."""
    if not 0.0 <= flip_probability <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {flip_probability}")
    c = 1.0 - 2.0 * flip_probability
    return Channel(np.diag([1.0, c, c, 1.0]))


def amplitude_damping(gamma: float) -> Channel:
    """Decay toward |0> with probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping probability must lie in [0, 1], got {gamma}")
    s = np.sqrt(1.0 - gamma)
    r = np.diag([1.0, s, s, 1.0 - gamma])
    r[3, 0] = gamma
    return Channel(r)


def avg_gate_fidelity(noisy: Channel, ideal: Unitary2) -> float:
    """Average over pure states of the fidelity between ``noisy`` and ``ideal``.

    Closed form via the process fidelity: F_pro = tr(R_ideal^T R_noisy) / 4 and
    F_avg = (2 F_pro + 1) / 3 for one qubit.
    """
    f_pro = float(np.trace(channel_from_unitary(ideal).ptm.T @ noisy.ptm)) / 4.0
    return (2.0 * f_pro + 1.0) / 3.0


def twirl(e: Channel, gateset: list[Unitary2]) -> Channel:
    """Average of U^dag . e . U over the gate set."""
    if not gateset:
        raise ValueError("cannot twirl over an empty gate set")
    r = unitary_ptms(np.stack([u.matrix for u in gateset]))
    return Channel((r.swapaxes(1, 2) @ e.ptm @ r).sum(axis=0) / len(gateset))


def frame_potential(gateset: list[Unitary2], t: int) -> float:
    """(1/N^2) sum_{U,V} |tr(U^dag V)|^(2t).

    Lower-bounded by the Haar value (1 for t=1, 2 for t=2 on a qubit), with
    equality exactly when the set is a t-design.
    """
    if not gateset:
        raise ValueError("frame potential of an empty gate set is undefined")
    if t not in (1, 2):
        raise ValueError(f"moment order must be 1 or 2, got {t}")
    mats = np.stack([u.matrix for u in gateset])
    gram = np.einsum("aji,bjk->abik", mats.conj(), mats)
    traces = np.abs(np.trace(gram, axis1=2, axis2=3)) ** (2 * t)
    return float(traces.sum()) / len(gateset) ** 2


def measure(e: Effect, bloch: np.ndarray) -> float:
    """Born probability tr(E rho) of the Bloch vector ``bloch``, clamped to [0, 1]."""
    p = float(e.bloch_coeffs @ bloch)
    return min(max(p, 0.0), 1.0)


def random_cptp_channel(rng: np.random.Generator, kraus_rank: int = 2) -> Channel:
    """Random CPTP map from a Haar-random Stinespring isometry."""
    g = rng.normal(size=(2 * kraus_rank, 2)) + 1j * rng.normal(size=(2 * kraus_rank, 2))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))  # fix the gauge so the draw is Haar
    return Channel(_kraus_ptms(q.reshape(kraus_rank, 2, 2)).sum(axis=0))
