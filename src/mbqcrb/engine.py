"""Randomized-benchmarking protocol execution and exact oracles.

Three protocols share one dataset format: a circuit-model baseline where
gates act directly as channels, the Clifford wire protocol (three
measurements per gate, byproducts tracked as a Pauli frame, inverse realized
as one extra gate block), and the derandomized fixed-pattern protocol (five
measurements per gate, realized elements read off the outcomes, inverse
absorbed into a rotated final measurement).

Sampling is vectorized over shots; exact enumeration sums every sequence and
outcome branch at small lengths and doubles as the oracle for the sampled
paths.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    Effect,
    State,
    Unitary2,
    channel_from_unitary,
    plus_state,
    survival_effect,
    _PAULIS,
)
from .gatesets import (
    OUTCOME_TRIPLES,
    CliffordElement,
    DerandomizedDesign,
    clifford_group,
    clifford_table,
    derandomized_design,
)
from .wire import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    NO_NOISE,
    InstrumentConfig,
    NoiseModel,
    step_unitary,
)

PROTOCOLS = ("circuit", "clifford-mbqc", "derandomized-mbqc")
_PROTOCOL_TAGS = {name: k for k, name in enumerate(PROTOCOLS)}

CLIFFORD_MODES = ("coset", "full")

ENUMERATION_LIMITS = {"circuit": 4, "clifford-mbqc": 4, "derandomized-mbqc": 3}

_BIAS_WARNING = "derandomized outcomes are biased and randomness injection is off"


@dataclass(frozen=True)
class SpamModel:
    """State-preparation and measurement imperfections.

    ``prep_shrink`` scales the prepared |+> Bloch vector toward the center;
    ``effect_bias`` is the dark response of the survival readout on the
    orthogonal state.
    """

    prep_shrink: float = 1.0
    effect_bias: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.prep_shrink <= 1.0:
            raise ValueError("preparation shrink must lie in [0, 1]")
        if not 0.0 <= self.effect_bias <= 1.0:
            raise ValueError("effect bias must lie in [0, 1]")

    def prep(self) -> State:
        return plus_state(self.prep_shrink)

    def effect(self) -> Effect:
        return survival_effect(self.effect_bias)


IDEAL_SPAM = SpamModel()


@dataclass(frozen=True)
class RBConfig:
    """Full description of one benchmarking experiment."""

    protocol: str
    lengths: tuple[int, ...]
    sequences_per_length: int
    shots_per_sequence: int
    noise: NoiseModel = NO_NOISE
    noise_inv: NoiseModel | None = None  # None: reuse the per-gate noise
    instrument: InstrumentConfig = InstrumentConfig()
    spam: SpamModel = IDEAL_SPAM
    seed: int = 0
    design_phis: tuple[float, float] = (0.0, 0.0)
    clifford_mode: str = "coset"

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        object.__setattr__(self, "lengths", tuple(int(s) for s in self.lengths))
        if not self.lengths or any(s < 1 for s in self.lengths):
            raise ValueError("lengths must be a nonempty list of integers >= 1")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("lengths must be distinct")
        if self.sequences_per_length < 1:
            raise ValueError("sequences_per_length must be >= 1")
        if self.shots_per_sequence < 1:
            raise ValueError("shots_per_sequence must be >= 1")
        if self.clifford_mode not in CLIFFORD_MODES:
            raise ValueError(f"unknown clifford_mode {self.clifford_mode!r}")
        object.__setattr__(
            self, "design_phis", tuple(float(x) for x in self.design_phis)
        )

    def resolved_noise_inv(self) -> NoiseModel:
        return self.noise if self.noise_inv is None else self.noise_inv


@dataclass(frozen=True)
class SequenceRecord:
    """Survival counts for one (length, sequence) cell of the experiment."""

    s: int
    index: int
    gate_indices: tuple[int, ...]
    survivals: int
    shots: int
    digest: str

    def __post_init__(self):
        if not 0 <= self.survivals <= self.shots:
            raise ValueError(
                f"survival count {self.survivals} outside [0, {self.shots}]"
            )


@dataclass(frozen=True)
class RBDataset:
    config: RBConfig
    records: tuple[SequenceRecord, ...]
    warnings: tuple[str, ...] = ()

    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted({r.s for r in self.records}))

    def survival_fractions(self, s: int) -> np.ndarray:
        rows = [r for r in self.records if r.s == s]
        if not rows:
            raise KeyError(f"dataset has no records at length {s}")
        rows.sort(key=lambda r: r.index)
        return np.array([r.survivals / r.shots for r in rows])


def cluster_length(protocol: str, s: int) -> int | None:
    """Number of cluster sites consumed by one run, None for the circuit model."""
    if protocol == "clifford-mbqc":
        return 3 * s + 4
    if protocol == "derandomized-mbqc":
        return 5 * s + 1
    return None


def gen_clifford_sequence(
    s: int, mode: str = "full", rng: np.random.Generator | None = None
) -> list[CliffordElement]:
    """Draw ``s`` gates uniformly from the Clifford group or its coset reps."""
    if s < 1:
        raise ValueError("sequence length must be >= 1")
    if mode not in CLIFFORD_MODES:
        raise ValueError(f"unknown sequence mode {mode!r}")
    if rng is None:
        raise ValueError("an explicit random generator is required")
    group = clifford_group()
    return [group[g] for g in _draw_gate_indices(s, mode, rng)]


def _draw_gate_indices(s: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Group indices of ``s`` gates drawn uniformly from the group or its coset reps."""
    pool = clifford_table().coset_reps if mode == "coset" else np.arange(len(clifford_group()))
    return pool[rng.integers(0, len(pool), size=s)]


def sequence_inverse(realized: list[Unitary2]) -> Unitary2:
    """Inverse of the ordered product of gates (first gate applied first)."""
    if not realized:
        raise ValueError("cannot invert an empty sequence")
    total = np.eye(2, dtype=complex)
    for u in realized:
        total = u.matrix @ total
    return Unitary2(total.conj().T)


# ---------------------------------------------------------------------------
# sampled protocol runners (vectorized over shots)
# ---------------------------------------------------------------------------


def _item_rng(seed: int, protocol: str, s: int, i: int) -> np.random.Generator:
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, _PROTOCOL_TAGS[protocol], int(s), int(i))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@lru_cache(maxsize=4096)
def _step_ptm(theta: float, m: int, noise: NoiseModel, per_step: bool) -> np.ndarray:
    ptm = channel_from_unitary(step_unitary(theta, m)).ptm
    if per_step:
        ptm = noise.realize(theta, m).ptm @ ptm
    return ptm


def _apply_block_noise(states, noise: NoiseModel, angles, mbits) -> np.ndarray:
    """Apply block-placed noise, grouping shots when it depends on outcomes."""
    if noise.dependence is None:
        return states @ noise.base_channel().ptm.T
    for pattern in np.unique(mbits, axis=0):
        mask = (mbits == pattern).all(axis=1)
        ptm = noise.realize(tuple(angles), tuple(int(b) for b in pattern)).ptm
        states[mask] = states[mask] @ ptm.T
    return states


def _outcome_bits(rng, shots, nsteps, instrument: InstrumentConfig) -> np.ndarray:
    raw = rng.random((shots, nsteps)) < 0.5 + instrument.bias
    if instrument.inject_randomness:
        raw = raw ^ (rng.random((shots, nsteps)) < 0.5)
    return raw


def _outcome_index(mbits: np.ndarray) -> np.ndarray:
    """Each row of outcome bits as an integer, the first outcome most significant."""
    q = mbits.shape[1]
    return mbits.astype(np.int64) @ (1 << np.arange(q - 1, -1, -1))


def _digest(array) -> str:
    data = np.ascontiguousarray(array, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:12]


def _run_circuit_item(cfg: RBConfig, s: int, i: int) -> SequenceRecord:
    rng = _item_rng(cfg.seed, cfg.protocol, s, i)
    table = clifford_table()
    gates = _draw_gate_indices(s, "full", rng)

    noise_ptm = cfg.noise.realize().ptm if not cfg.noise.trivial else None
    bloch = cfg.spam.prep().bloch.copy()
    for g in gates:
        bloch = table.ptm[g] @ bloch
        if noise_ptm is not None:
            bloch = noise_ptm @ bloch
    bloch = table.ptm[table.sequence_inverse(gates)] @ bloch
    dinv = cfg.resolved_noise_inv()
    if not dinv.trivial:
        bloch = dinv.realize().ptm @ bloch
    p = float(np.clip(cfg.spam.effect().bloch_coeffs @ bloch, 0.0, 1.0))

    born = rng.random(cfg.shots_per_sequence)
    survivals = int((born < p).sum())
    return SequenceRecord(
        s=s,
        index=i,
        gate_indices=tuple(int(g) for g in gates),
        survivals=survivals,
        shots=cfg.shots_per_sequence,
        digest=_digest(gates),
    )


def _run_clifford_item(cfg: RBConfig, s: int, i: int) -> SequenceRecord:
    rng = _item_rng(cfg.seed, cfg.protocol, s, i)
    group = clifford_group()
    table = clifford_table()
    gates = _draw_gate_indices(s, cfg.clifford_mode, rng)
    blocks = [*gates, table.sequence_inverse(gates)]
    noises = [cfg.noise] * s + [cfg.resolved_noise_inv()]

    shots = cfg.shots_per_sequence
    bits = _outcome_bits(rng, shots, 3 * (s + 1), cfg.instrument)
    born = rng.random(shots)

    states = np.tile(cfg.spam.prep().bloch, (shots, 1))
    fx = np.zeros(shots, dtype=np.int64)
    fz = np.zeros(shots, dtype=np.int64)
    for col, (g, noise) in enumerate(zip(blocks, noises)):
        element = group[g]
        per_step = (not noise.trivial) and noise.placement == AFTER_EACH_STEP
        mcols = bits[:, 3 * col : 3 * col + 3]
        for k, theta in enumerate(element.angles):
            m0 = _step_ptm(theta, 0, noise, per_step)
            m1 = _step_ptm(theta, 1, noise, per_step)
            states = np.where(mcols[:, k : k + 1], states @ m1.T, states @ m0.T)
        if (not noise.trivial) and noise.placement == AFTER_EACH_GATE_BLOCK:
            states = _apply_block_noise(states, noise, element.angles, mcols)
        fx, fz = table.next_frame(g, _outcome_index(mcols), fx, fz)
    for gx, gz in np.ndindex(2, 2):
        mask = (fx == gx) & (fz == gz)
        if mask.any():
            states[mask] = states[mask] @ table.frame_ptm[gx, gz].T
    probs = np.clip(states @ cfg.spam.effect().bloch_coeffs, 0.0, 1.0)
    survivals = int((born < probs).sum())
    return SequenceRecord(
        s=s,
        index=i,
        gate_indices=tuple(int(g) for g in gates),
        survivals=survivals,
        shots=shots,
        digest=_digest(gates),
    )


def _ptm_batch(mats: np.ndarray) -> np.ndarray:
    """PTMs of a batch of 2x2 unitaries, shape (n, 2, 2) -> (n, 4, 4)."""
    conj = np.einsum("sab,jbc,sdc->sjad", mats, _PAULIS, mats.conj())
    return np.real(np.einsum("iab,sjba->sij", _PAULIS, conj)) / 2.0


def _run_derandomized_item(cfg: RBConfig, s: int, i: int) -> SequenceRecord:
    rng = _item_rng(cfg.seed, cfg.protocol, s, i)
    design = _cached_design(cfg.design_phis)
    element_mats = np.stack([u.matrix for u in design.elements])

    shots = cfg.shots_per_sequence
    bits = _outcome_bits(rng, shots, 5 * s, cfg.instrument)
    born = rng.random(shots)

    states = np.tile(cfg.spam.prep().bloch, (shots, 1))
    totals = np.tile(np.eye(2, dtype=complex), (shots, 1, 1))
    realized = np.zeros((shots, s), dtype=np.int64)
    per_step = (not cfg.noise.trivial) and cfg.noise.placement == AFTER_EACH_STEP
    col = 0
    for j in range(s):
        mcols = bits[:, col : col + 5]
        col += 5
        for k, theta in enumerate(design.angles):
            m0 = _step_ptm(theta, 0, cfg.noise, per_step)
            m1 = _step_ptm(theta, 1, cfg.noise, per_step)
            states = np.where(mcols[:, k : k + 1], states @ m1.T, states @ m0.T)
        if (not cfg.noise.trivial) and cfg.noise.placement == AFTER_EACH_GATE_BLOCK:
            states = _apply_block_noise(states, cfg.noise, design.angles, mcols)
        idx = _outcome_index(mcols)
        realized[:, j] = idx
        totals = element_mats[idx] @ totals

    # inverse via a rotated final measurement on the tracked product
    rot = _ptm_batch(np.conj(np.transpose(totals, (0, 2, 1))))
    states = np.einsum("sij,sj->si", rot, states)
    dinv = cfg.resolved_noise_inv()
    if not dinv.trivial:
        states = states @ dinv.realize().ptm.T
    probs = np.clip(states @ cfg.spam.effect().bloch_coeffs, 0.0, 1.0)
    survivals = int((born < probs).sum())
    return SequenceRecord(
        s=s,
        index=i,
        gate_indices=(),
        survivals=survivals,
        shots=shots,
        digest=_digest(realized),
    )


@lru_cache(maxsize=8)
def _cached_design(phis: tuple[float, float]) -> DerandomizedDesign:
    return derandomized_design(*phis)


_RUNNERS = {
    "circuit": _run_circuit_item,
    "clifford-mbqc": _run_clifford_item,
    "derandomized-mbqc": _run_derandomized_item,
}


def run_protocol(config: RBConfig) -> RBDataset:
    """Run the configured experiment and collect per-sequence survivals.

    Work items (one per length and sequence index) carry independent,
    seed-derived random streams, so each record depends only on the seed,
    its length and its index.
    """
    if not isinstance(config, RBConfig):
        raise ValueError("config must be an RBConfig")
    warnings = ()
    if (
        config.protocol == "derandomized-mbqc"
        and config.instrument.bias != 0.0
        and not config.instrument.inject_randomness
    ):
        warnings = (_BIAS_WARNING,)

    runner = _RUNNERS[config.protocol]
    records = [
        runner(config, s, i) for s in config.lengths for i in range(config.sequences_per_length)
    ]
    return RBDataset(config=config, records=tuple(records), warnings=warnings)


def sequence_fidelity_estimate(dataset: RBDataset, s: int) -> tuple[float, float]:
    """Mean survival at length ``s`` and the standard error over sequences."""
    fractions = dataset.survival_fractions(s)
    mean = float(fractions.mean())
    if fractions.size > 1:
        stderr = float(fractions.std(ddof=1) / np.sqrt(fractions.size))
    else:
        stderr = 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactSequenceFidelity:
    """Exact sequence fidelity: full enumeration and the decay-model value.

    ``enumerated`` averages the survival probability over every sequence and
    (for the wire protocols) every outcome string at its probability.
    ``analytic`` evaluates the gate-independent decay model
    A0 p^s + B0 built from the twirled noise; the two agree when the noise is
    gate independent.
    """

    enumerated: float
    analytic: float


def _block_chain_ptm(angles, outcomes, noise: NoiseModel) -> np.ndarray:
    """PTM of one measured gate block, mirroring the wire-step semantics."""
    ptm = np.eye(4)
    per_step = (not noise.trivial) and noise.placement == AFTER_EACH_STEP
    for theta, bit in zip(angles, outcomes):
        ptm = channel_from_unitary(step_unitary(theta, bit)).ptm @ ptm
        if per_step:
            ptm = noise.realize(theta, bit).ptm @ ptm
    if (not noise.trivial) and noise.placement == AFTER_EACH_GATE_BLOCK:
        ptm = noise.realize(tuple(angles), tuple(outcomes)).ptm @ ptm
    return ptm


def _outcome_weight(outcomes, bias: float) -> float:
    w = 1.0
    for b in outcomes:
        w *= 0.5 + bias if b else 0.5 - bias
    return w


def _enumerate_circuit(s, step_ptms, dinv_ptm, prep, effect) -> float:
    """Average survival over all Clifford sequences via product-class folding."""
    table = clifford_table()
    acc = {0: np.eye(4)}
    for _ in range(s):
        nxt: dict[int, np.ndarray] = {}
        for v, mat in acc.items():
            for g in range(24):
                key = int(table.product[g, v])
                term = step_ptms[g] @ mat
                if key in nxt:
                    nxt[key] += term
                else:
                    nxt[key] = term
        acc = {k: m / 24.0 for k, m in nxt.items()}
    total = 0.0
    for v, mat in acc.items():
        chain = dinv_ptm @ table.ptm[table.inverse[v]] @ mat
        total += float(effect @ chain @ prep)
    return total


def _enumerate_clifford_wire(s, noise, noise_inv, bias, mode, prep, effect) -> float:
    """Average over sequences and outcome strings for the Clifford wire.

    Folds branches on (ideal product, Pauli frame); the weighted chain PTMs
    are summed per class, which is exact because the inverse block and the
    final rotation depend on the branch only through that pair.
    """
    group = clifford_group()
    table = clifford_table()
    pool = table.coset_reps if mode == "coset" else range(len(group))
    weights = [_outcome_weight(m, bias) for m in OUTCOME_TRIPLES]
    block_ptm = {
        (g, m): _block_chain_ptm(group[g].angles, triple, noise)
        for g in pool
        for m, triple in enumerate(OUTCOME_TRIPLES)
    }

    acc = {(0, 0, 0): np.eye(4)}
    inv_pool = 1.0 / len(pool)
    for _ in range(s):
        nxt: dict[tuple[int, int, int], np.ndarray] = {}
        for (v, fx, fz), mat in acc.items():
            for g in pool:
                v_new = int(table.product[g, v])
                for m, weight in enumerate(weights):
                    w = inv_pool * weight
                    key = (v_new, *(int(f) for f in table.next_frame(g, m, fx, fz)))
                    term = w * (block_ptm[g, m] @ mat)
                    if key in nxt:
                        nxt[key] += term
                    else:
                        nxt[key] = term
        acc = nxt

    inv_block_ptm = {
        (g, m): _block_chain_ptm(group[g].angles, triple, noise_inv)
        for g in {int(table.inverse[v]) for v, _, _ in acc}
        for m, triple in enumerate(OUTCOME_TRIPLES)
    }

    total = 0.0
    for (v, fx, fz), mat in acc.items():
        g = int(table.inverse[v])
        for m, w in enumerate(weights):
            chain = table.frame_ptm[table.next_frame(g, m, fx, fz)] @ inv_block_ptm[g, m] @ mat
            total += w * float(effect @ chain @ prep)
    return total


def _enumerate_derandomized(s, noise, noise_inv, bias, phis, prep, effect) -> float:
    """Average over all outcome strings of the fixed five-angle pattern."""
    design = _cached_design(tuple(phis))
    quints = list(itertools.product((0, 1), repeat=5))
    block_ptms = np.stack([_block_chain_ptm(design.angles, m, noise) for m in quints])
    element_mats = np.stack([u.matrix for u in design.elements])
    weights = np.array([_outcome_weight(m, bias) for m in quints])

    chains = np.eye(4)[None, :, :]
    totals = np.eye(2, dtype=complex)[None, :, :]
    branch_w = np.array([1.0])
    for _ in range(s):
        chains = np.einsum("mij,njk->nmik", block_ptms, chains).reshape(-1, 4, 4)
        totals = np.einsum("mij,njk->nmik", element_mats, totals).reshape(-1, 2, 2)
        branch_w = (branch_w[:, None] * weights[None, :]).reshape(-1)

    rot = _ptm_batch(np.conj(np.transpose(totals, (0, 2, 1))))
    dinv_ptm = noise_inv.realize().ptm if not noise_inv.trivial else np.eye(4)
    final = np.einsum("ij,njk,nkl->nil", dinv_ptm, rot, chains)
    values = np.einsum("i,nij,j->n", effect, final, prep)
    return float(branch_w @ values)


def _twirled_decay_parameter(block_ptm: np.ndarray) -> float:
    return float(np.trace(block_ptm[1:, 1:]) / 3.0)


def _analytic_value(protocol, s, noise, noise_inv, spam, phis) -> float:
    if protocol == "circuit":
        block = noise.base_channel().ptm
        inv_block = noise_inv.base_channel().ptm
    else:
        q = 3 if protocol == "clifford-mbqc" else 5
        base = noise.base_channel().ptm
        block = np.linalg.matrix_power(base, q) if noise.placement == AFTER_EACH_STEP else base
        inv_base = noise_inv.base_channel().ptm
        if protocol == "clifford-mbqc" and noise_inv.placement == AFTER_EACH_STEP:
            inv_block = np.linalg.matrix_power(inv_base, 3)
        else:
            inv_block = inv_base
    p = _twirled_decay_parameter(block)
    decay = np.diag([1.0, p**s, p**s, p**s])
    prep = spam.prep().bloch
    effect = spam.effect().bloch_coeffs
    return float(effect @ inv_block @ decay @ prep)


def exact_sequence_fidelity(
    protocol: str,
    s: int,
    noise: NoiseModel = NO_NOISE,
    spam: SpamModel | None = None,
    noise_inv: NoiseModel | None = None,
    *,
    bias: float = 0.0,
    clifford_mode: str = "coset",
    design_phis: tuple[float, float] = (0.0, 0.0),
) -> ExactSequenceFidelity:
    """Exact sequence fidelity at small lengths, by full enumeration.

    Also evaluates the zeroth-order decay value from the twirled noise; the
    two agree (to numerical precision) whenever the realized noise is gate
    independent and outcomes are unbiased.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if s < 1:
        raise ValueError("sequence length must be >= 1")
    limit = ENUMERATION_LIMITS[protocol]
    if s > limit:
        raise ValueError(f"enumeration for {protocol} is limited to s <= {limit}")
    if spam is None:
        spam = IDEAL_SPAM
    dinv = noise if noise_inv is None else noise_inv
    prep = spam.prep().bloch
    effect = spam.effect().bloch_coeffs

    if protocol == "circuit":
        noise_ptm = noise.realize().ptm
        steps = [noise_ptm @ g for g in clifford_table().ptm]
        dinv_ptm = dinv.realize().ptm
        value = _enumerate_circuit(s, steps, dinv_ptm, prep, effect)
    elif protocol == "clifford-mbqc":
        value = _enumerate_clifford_wire(s, noise, dinv, bias, clifford_mode, prep, effect)
    else:
        value = _enumerate_derandomized(s, noise, dinv, bias, design_phis, prep, effect)

    analytic = _analytic_value(protocol, s, noise, dinv, spam, design_phis)
    return ExactSequenceFidelity(enumerated=value, analytic=analytic)
