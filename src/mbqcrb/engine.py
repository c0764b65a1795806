"""Randomized-benchmarking protocol execution and exact oracles.

Three protocols share one dataset format: a circuit-model baseline where
gates act directly as channels, the Clifford wire protocol (three
measurements per gate, byproducts tracked as a Pauli frame, inverse realized
as one extra gate block), and the derandomized fixed-pattern protocol (five
measurements per gate, realized elements read off the outcomes, inverse
absorbed into a rotated final measurement).

A measured block's channel depends only on its gate and outcome pattern, so
both wire protocols read it from one table of block PTMs per noise model,
indexed by (gate, outcome index). Outcomes are drawn independently block by
block, so averages over them are linear. In the circuit model and the
Clifford wire a sequence survives, averaged over its outcome strings, with
probability readout[v] . B[g_s] ... B[g_1] x0 for per-gate operators B;
averaging over sequences too gives F(s) = readout . M^s x0 for a transfer
operator M built from the same B. In the derandomized protocol the outcomes
are the sequence, and F(s) comes from a 16-dimensional transfer operator.
Every shot draws fresh outcomes, so the sampler draws each sequence's
survivals as Born coins at its outcome-averaged survival, which is exact in
distribution.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .channels import (
    Effect,
    State,
    Unitary2,
    plus_state,
    survival_effect,
    unitary_ptms,
    _frozen,
)
from .gatesets import (
    OUTCOME_TRIPLES,
    clifford_group,
    clifford_table,
    derandomized_design,
    measurement_gates,
)
from .wire import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    NO_NOISE,
    InstrumentConfig,
    NoiseModel,
    _choice,
    _entries,
    _instance,
    _integer,
    _normalise,
    _real,
)

PROTOCOLS = ("circuit", "clifford-mbqc", "derandomized-mbqc")
_PROTOCOL_TAGS = {name: k for k, name in enumerate(PROTOCOLS)}

CLIFFORD_MODES = ("coset", "full")

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
        _normalise(self, prep_shrink=_real, effect_bias=_real)
        if not 0.0 <= self.prep_shrink <= 1.0:
            raise ValueError(f"prep_shrink must lie in [0, 1], got {self.prep_shrink}")
        if not 0.0 <= self.effect_bias <= 1.0:
            raise ValueError(f"effect_bias must lie in [0, 1], got {self.effect_bias}")

    def prep(self) -> State:
        return plus_state(self.prep_shrink)

    def effect(self) -> Effect:
        return survival_effect(self.effect_bias)


IDEAL_SPAM = SpamModel()


@dataclass(frozen=True)
class RBConfig:
    """Full description of one benchmarking experiment; it checks every field's type and range."""

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
        _normalise(
            self,
            protocol=_choice(*PROTOCOLS),
            lengths=partial(_entries, _integer),
            sequences_per_length=_integer,
            shots_per_sequence=_integer,
            noise=_instance(NoiseModel),
            noise_inv=_instance(NoiseModel, type(None)),
            instrument=_instance(InstrumentConfig),
            spam=_instance(SpamModel),
            seed=_integer,
            design_phis=partial(_entries, _real),
            clifford_mode=_choice(*CLIFFORD_MODES),
        )
        if not self.lengths or any(s < 1 for s in self.lengths):
            raise ValueError("lengths must be a nonempty list of integers >= 1")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("lengths must be distinct")
        if self.sequences_per_length < 1:
            raise ValueError("sequences_per_length must be >= 1")
        if self.shots_per_sequence < 1:
            raise ValueError("shots_per_sequence must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if len(self.design_phis) != 2:
            raise ValueError(
                f"design_phis must hold exactly two angles, got {len(self.design_phis)}"
            )


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


def _draw_gate_indices(s: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Group indices of ``s`` gates drawn uniformly from the group or its coset reps."""
    pool = _gate_pool(mode)
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
# measured-block table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _block_table(patterns: tuple[tuple[float, ...], ...], noise: NoiseModel) -> np.ndarray:
    """Every measured block's PTM, flat over (pattern, outcome index).

    Row ``k * 2**q + m`` is the block of angle pattern ``patterns[k]`` whose
    q outcomes spell m, the first outcome most significant. Each distinct
    (angle, outcome) step's PTM is built once, followed by the noise when it
    is placed after each step.
    """
    q = len(patterns[0])
    blocks = list(itertools.product(patterns, itertools.product((0, 1), repeat=q)))
    index = {}  # position of each distinct step among the step PTMs
    rows = [index.setdefault(step, len(index)) for block in blocks for step in zip(*block)]
    step_ptms = unitary_ptms(measurement_gates(*zip(*index)))
    if (not noise.trivial) and noise.placement == AFTER_EACH_STEP:
        step_ptms = np.array([noise.realize(t, m).ptm for t, m in index]) @ step_ptms
    steps = step_ptms[rows].reshape(len(blocks), q, 4, 4)
    ptm = np.eye(4)
    for k in range(q):
        ptm = steps[:, k] @ ptm
    if (not noise.trivial) and noise.placement == AFTER_EACH_GATE_BLOCK:
        ptm = np.array([noise.realize(tuple(a), o).ptm for a, o in blocks]) @ ptm
    return _frozen(ptm)


def _clifford_blocks(noise: NoiseModel) -> np.ndarray:
    """Block PTMs of the 24 Clifford rows, indexed [g, outcome index]."""
    patterns = tuple(e.angles for e in clifford_group())
    return _block_table(patterns, noise).reshape(24, len(OUTCOME_TRIPLES), 4, 4)


def _design_blocks(noise: NoiseModel, phis: tuple[float, float]) -> np.ndarray:
    """Block PTMs of the derandomized pattern, indexed by outcome index."""
    return _block_table((derandomized_design(*phis).angles,), noise)


def _outcome_weights(q: int, bias: float) -> np.ndarray:
    """Probability of each outcome index of q outcomes, the first outcome most significant."""
    w = np.ones(1)
    for _ in range(q):
        w = np.outer(w, (0.5 - bias, 0.5 + bias)).ravel()
    return w


# ---------------------------------------------------------------------------
# per-gate operators, shared by the sampler and the oracle
# ---------------------------------------------------------------------------


def _gate_pool(mode: str) -> np.ndarray:
    """Group indices a gate is drawn from: the whole group, or the coset reps."""
    return clifford_table().coset_reps if mode == "coset" else np.arange(24)


def _gate_operators(protocol, noise, noise_inv, spam, bias):
    """Per-gate operators ``(B, readout, x0)`` of the circuit model or the Clifford wire.

    A sequence g_1 ... g_s with ideal product v survives, averaged over its
    outcome strings, with probability readout[v] . B[g_s] ... B[g_1] x0.
    Circuit: the state is a Bloch vector, B[g] the noisy gate's PTM and
    readout[v] folds the inverse gate of v, the inverse noise and the effect.
    Clifford wire: the state holds a Bloch vector per Pauli frame (coded
    2 fx + fz), summed over the outcome strings that reach that frame at
    their weights; B[g] is gate g's block over (frame, Bloch), averaged over
    its outcomes, and readout[v] folds the inverse block of v with its
    outcome weights, the final frame's PTM and the effect.
    """
    table = clifford_table()
    prep = spam.prep().bloch
    effect = spam.effect().bloch_coeffs
    inv = table.inverse
    if protocol == "circuit":
        gates = noise.realize().ptm @ table.ptm
        return gates, effect @ noise_inv.realize().ptm @ table.ptm[inv], prep
    w = _outcome_weights(3, bias)
    turns = np.transpose([e.quarter_turns for e in clifford_group()])
    frames = table.frame_step[tuple(turns)]  # [g, m, f]
    # gather the outcomes that move frame f to frame f2 under gate g
    moves = frames[..., None] == np.arange(4)  # [g, m, f, f2]
    gates = np.einsum("gmfF,m,gmij->gFifj", moves, w, _clifford_blocks(noise))
    final = (effect @ table.frame_ptm).reshape(4, 4)  # [frame, i]
    readout = np.einsum(
        "m,vmfi,vmij->vfj", w, final[frames[inv]], _clifford_blocks(noise_inv)[inv]
    )
    x0 = np.zeros((4, 4))
    x0[0] = prep
    return gates.reshape(24, 16, 16), readout.reshape(24, 16), x0.ravel()


# ---------------------------------------------------------------------------
# sampled protocol runner
# ---------------------------------------------------------------------------


def _item_rng(seed: int, protocol: str, s: int, i: int) -> np.random.Generator:
    entropy = (seed, _PROTOCOL_TAGS[protocol], s, i)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _digest(array) -> str:
    data = np.ascontiguousarray(array, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:12]


def _outcome_averaged_survival(operators, gates: np.ndarray) -> np.ndarray:
    """Survival of each row of ``gates`` (the first gate applied first), averaged
    over outcome strings: one batched fold through the per-gate operators."""
    blocks, readout, x0 = operators
    product = clifford_table().product
    x = np.broadcast_to(x0, (len(gates), len(x0)))
    v = np.zeros(len(gates), dtype=np.int64)
    for g in gates.T:
        x = np.einsum("nij,nj->ni", blocks[g], x)
        v = product[g, v]
    return np.einsum("ni,ni->n", readout[v], x)


def run_protocol(config: RBConfig) -> RBDataset:
    """Run the configured experiment and collect per-sequence survivals.

    Every shot of an item draws fresh outcomes and a fresh Born coin, so
    the item's survival count is Binomial(shots, p), with p its sequence's
    survival averaged over outcome strings. p is computed exactly from the
    oracle's per-gate operators; in the derandomized protocol the outcomes
    are the sequence, so p = F(s). Each item draws its gates and then its
    Born coins from its own seed-derived stream, so a record depends only
    on the seed, its length and its index.
    """
    if not isinstance(config, RBConfig):
        raise ValueError("config must be an RBConfig")
    warnings = ()
    if config.protocol == "derandomized-mbqc" and config.instrument.outcome_bias != 0.0:
        warnings = (_BIAS_WARNING,)

    key = _operator_key(config)
    derandomized = config.protocol == "derandomized-mbqc"
    if derandomized:
        operator = _transfer_operator(*key)
    else:
        operators = _gate_operators(*key[:5])
    mode = "full" if config.protocol == "circuit" else config.clifford_mode
    shots = config.shots_per_sequence
    records = []
    for s in config.lengths:
        rngs = [_item_rng(config.seed, config.protocol, s, i) for i in range(config.sequences_per_length)]
        if derandomized:
            gates = np.zeros((len(rngs), 0), dtype=np.int64)
            survival = np.full(len(rngs), _transfer_value(operator, s))
        else:
            gates = np.array([_draw_gate_indices(s, mode, rng) for rng in rngs])
            survival = _outcome_averaged_survival(operators, gates)
        records += [
            SequenceRecord(
                s=s,
                index=i,
                gate_indices=tuple(int(g) for g in gates[i]),
                survivals=int((rng.random(shots) < p).sum()),
                shots=shots,
                digest=_digest(gates[i]),
            )
            for i, (rng, p) in enumerate(zip(rngs, survival))
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
    """Exact sequence fidelity and the decay-model value.

    ``enumerated`` averages the survival probability over every sequence and
    (for the wire protocols) every outcome string at its probability.
    ``analytic`` evaluates the gate-independent decay model A0 p^s + B0
    built from the twirled noise; the two agree when the noise is gate
    independent.
    """

    enumerated: float
    analytic: float


def _group_operator(gates, readout, x0, pool):
    """Transfer operator over (ideal product v, state): M = sum_g P_g (x) B[g] / |pool|.

    The sum runs over the gates of ``pool`` and P_g moves product class v to
    product[g, v]. The state holds, per class, the per-gate state summed over
    the sequences in it, and the readout applies readout[v] to class v.
    """
    table = clifford_table()
    d = len(x0)
    op = np.zeros((24, 24, d, d))
    # for fixed v, g -> product[g, v] is a bijection: every entry is set once
    op[table.product[pool], np.arange(24)] = gates[pool][:, None] / len(pool)
    start = np.zeros((24, d))
    start[0] = x0
    return op.transpose(0, 2, 1, 3).reshape(24 * d, 24 * d), start.ravel(), readout.ravel()


def _derandomized_operator(noise, noise_inv, spam, bias, phis):
    """Transfer operator of the derandomized protocol on a flattened 4x4 Y.

    Y = E[R(U_1)^T ... R(U_s)^T C_s ... C_1] over outcome strings, with C_m
    the noisy block PTM and R(U_m) the ideal PTM of the element realized by
    outcome index m. Peeling off the first block gives
    Y <- sum_m w_m R(U_m)^T Y C_m, and the survival is effect . D_inv Y prep.
    """
    w = _outcome_weights(5, bias)
    rot = unitary_ptms(np.stack([u.matrix for u in derandomized_design(*phis).elements]))
    op = np.einsum("m,mia,mjb->abij", w, rot, _design_blocks(noise, phis))
    readout = np.outer(spam.effect().bloch_coeffs @ noise_inv.realize().ptm, spam.prep().bloch)
    return op.reshape(16, 16), np.eye(4).ravel(), readout.ravel()


def _operator_key(config: RBConfig) -> tuple:
    """The settings the sampler and the oracle read, as ``_transfer_operator`` takes them.
    Without ``noise_inv`` the inverse reuses the per-gate noise."""
    noise_inv = config.noise if config.noise_inv is None else config.noise_inv
    bias = config.instrument.outcome_bias
    return (config.protocol, config.noise, noise_inv, config.spam, bias, config.clifford_mode, config.design_phis)


@lru_cache(maxsize=16)
def _transfer_operator(protocol, noise, noise_inv, spam, bias, mode, phis):
    """``(M, x0, readout)`` of one oracle setting, so that F(s) = readout . M^s x0."""
    if protocol == "derandomized-mbqc":
        parts = _derandomized_operator(noise, noise_inv, spam, bias, phis)
    else:
        pool = _gate_pool("full" if protocol == "circuit" else mode)
        parts = _group_operator(*_gate_operators(protocol, noise, noise_inv, spam, bias), pool)
    return tuple(_frozen(a) for a in parts)


def _transfer_value(operator, s: int) -> float:
    """``readout . M^s x0`` by s matrix-vector products, which at benchmarking
    lengths cost less and round less than ``np.linalg.matrix_power``."""
    op, x, readout = operator
    for _ in range(s):
        x = op @ x
    return float(readout @ x)


# The measurement steps in one gate block and in the inverse block: a noise
# placed after each step acts that many times per block.
_BLOCK_STEPS = {"circuit": (1, 1), "clifford-mbqc": (3, 3), "derandomized-mbqc": (5, 1)}


def _analytic_value(s, protocol, noise, noise_inv, spam) -> float:
    block, inv_block = (
        np.linalg.matrix_power(n.base_channel().ptm, steps if n.placement == AFTER_EACH_STEP else 1)
        for n, steps in zip((noise, noise_inv), _BLOCK_STEPS[protocol])
    )
    p = float(np.trace(block[1:, 1:]) / 3.0)  # the twirled decay parameter
    decay = np.diag([1.0, p**s, p**s, p**s])
    prep = spam.prep().bloch
    effect = spam.effect().bloch_coeffs
    return float(effect @ inv_block @ decay @ prep)


def _exact_fidelity(config: RBConfig, s: int) -> ExactSequenceFidelity:
    """The oracle of ``config``'s experiment at length ``s``, which need not be one of its lengths."""
    s = _integer(s, "sequence length")
    if s < 1:
        raise ValueError("sequence length must be >= 1")
    key = _operator_key(config)
    return ExactSequenceFidelity(
        enumerated=_transfer_value(_transfer_operator(*key), s), analytic=_analytic_value(s, *key[:4])
    )


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
    """Exact sequence fidelity at length ``s``, from the protocol's transfer operator.

    Each setting means what the RBConfig field of that name means and passes
    the same check, so what an RBConfig rejects raises ValueError here too.
    ``spam`` None is ideal, and ``bias`` in [-1/2, 1/2] is the bias of the
    outcomes the wire acts on: an instrument's ``outcome_bias``. Exact also
    under gate- and outcome-dependent noise and biased outcomes; ``analytic``
    is the twirled-noise decay value, equal to it when the realized noise is
    gate independent and outcomes are unbiased.
    """
    # the lengths and counts are placeholders: the oracle reads only the settings
    instrument = InstrumentConfig(bias=bias)
    spam = IDEAL_SPAM if spam is None else spam
    config = RBConfig(protocol, (1,), 1, 1, noise, noise_inv, instrument, spam, 0, design_phis, clifford_mode)
    return _exact_fidelity(config, s)
