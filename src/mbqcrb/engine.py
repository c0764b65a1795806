"""Randomized-benchmarking protocol execution and exact oracles.

An experiment's settings and their checks live in ``config``; this module
samples and evaluates them. Three protocols share one dataset format: a
circuit-model baseline where gates act directly as channels, the Clifford
wire protocol (three measurements per gate, byproducts tracked as a Pauli
frame, inverse realized as one extra gate block), and the derandomized
fixed-pattern protocol (five measurements per gate, realized elements read
off the outcomes, inverse absorbed into a rotated final measurement).

A measured block's channel depends only on its gate and outcome pattern, so
both wire protocols read it from one table of block PTMs per noise model,
indexed by (gate, outcome index). Outcomes are drawn independently block by
block, so averages over them are linear. In the circuit model and the
Clifford wire a sequence survives, averaged over its outcome strings, with
probability readout[v] . B[g_s] ... B[g_1] x0 for per-gate operators B;
averaging over sequences too gives F(s) = readout . M^s x0 for a transfer
operator M over (product class, state) built from the same B. M is applied,
not formed: one step gathers each class's predecessors and sums B[g] over
the pool, |pool| * 24 * d^2 multiply-adds on O(|pool| * 24 * d) memory,
where the dense M would hold (24 d)^2 entries. In the derandomized protocol
the outcomes are the sequence, and F(s) comes from a 16-dimensional transfer
operator applied the same way.
Every shot draws fresh outcomes, so the sampler draws each sequence's
survivals as Born coins at its outcome-averaged survival, which is exact in
distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .channels import Unitary2, unitary_ptms, _frozen
from .config import (
    AFTER_EACH_GATE_BLOCK,
    AFTER_EACH_STEP,
    IDEAL_SPAM,
    NO_NOISE,
    PROTOCOLS,
    InstrumentConfig,
    NoiseModel,
    RBConfig,
    SpamModel,
    _integer,
)
from .gatesets import (
    OUTCOME_TRIPLES,
    clifford_group,
    clifford_table,
    derandomized_design,
    measurement_gates,
)

_PROTOCOL_TAGS = {name: k for k, name in enumerate(PROTOCOLS)}

_BIAS_WARNING = "derandomized outcomes are biased and randomness injection is off"


class SequenceRecord(NamedTuple):
    """One data row of a dataset: survival counts for one (length, sequence)
    cell of the experiment, in the file's column order."""

    s: int
    index: int
    survivals: int
    shots: int
    digest: str


@dataclass(frozen=True)
class RBDataset:
    config: RBConfig
    records: tuple[SequenceRecord, ...]
    warnings: tuple[str, ...] = ()

    @cached_property
    def _fractions(self) -> dict[int, np.ndarray]:
        """Each length's survival fractions in sequence order, by length in increasing order."""
        groups = {}
        for r in sorted(self.records, key=lambda r: (r.s, r.index)):
            groups.setdefault(r.s, []).append(r.survivals / r.shots)
        return {s: _frozen(f) for s, f in groups.items()}

    def lengths(self) -> tuple[int, ...]:
        return tuple(self._fractions)

    def survival_fractions(self, s: int) -> np.ndarray:
        try:
            return self._fractions[s]
        except KeyError:
            raise KeyError(f"dataset has no records at length {s}") from None


def _draw_gates(s: int, pool: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Group indices of ``s`` gates drawn uniformly from ``pool``."""
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


def _gate_pool(protocol: str, mode: str) -> np.ndarray:
    """Group indices a gate is drawn from: the coset reps for a coset-mode
    Clifford wire, the whole group for every other protocol."""
    coset = protocol == "clifford-mbqc" and mode == "coset"
    return clifford_table().coset_reps if coset else np.arange(24)


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
    import hashlib  # here, so that oracle and verify never load OpenSSL

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
    pool = _gate_pool(config.protocol, config.clifford_mode)
    shots = config.shots_per_sequence
    records = []
    for s in config.lengths:
        rngs = [_item_rng(config.seed, config.protocol, s, i) for i in range(config.sequences_per_length)]
        if derandomized:
            gates = np.zeros((len(rngs), 0), dtype=np.int64)
            survival = np.full(len(rngs), _transfer_value(operator, s))
        else:
            gates = np.array([_draw_gates(s, pool, rng) for rng in rngs])
            survival = _outcome_averaged_survival(operators, gates)
        records += [
            SequenceRecord(s, i, int((rng.random(shots) < p).sum()), shots, _digest(gates[i]))
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


def _group_transfer(gates, readout, x0, pool):
    """The transfer operator M over (ideal product v, state), in parts that apply it without forming it.

    The state X holds, per product class v, the per-gate state summed over
    the sequences whose ideal product is v. One step of M is
    X[u] <- sum_{g in pool} B[g] X[product[inverse[g], u]] / |pool|: the
    sequences that reach class u through gate g came from class g^-1 u.
    Returns the operators B[g]^T / |pool| stacked over the pool, the gather
    index [u, g] -> product[inverse[g], u], the start state (x0 in the
    identity's class) and the per-class readout.
    """
    table = clifford_table()
    d = len(x0)
    start = np.zeros((24, d))
    start[0] = x0
    stacked = (gates[pool] / len(pool)).transpose(0, 2, 1).reshape(len(pool) * d, d)
    return stacked, table.product[table.inverse[pool]].T.copy(), start, readout


def _derandomized_operator(noise, noise_inv, spam, bias, phis):
    """Transfer operator of the derandomized protocol on a flattened 4x4 Y.

    Y = E[R(U_1)^T ... R(U_s)^T C_s ... C_1] over outcome strings, with C_m
    the noisy block PTM and R(U_m) the ideal PTM of the element realized by
    outcome index m. Peeling off the first block gives
    Y <- sum_m w_m R(U_m)^T Y C_m, and the survival is effect . D_inv Y prep.
    Returned in ``_group_transfer``'s form, with one class and one operator.
    """
    w = _outcome_weights(5, bias)
    rot = unitary_ptms(np.stack([u.matrix for u in derandomized_design(*phis).elements]))
    op = np.einsum("m,mia,mjb->abij", w, rot, _design_blocks(noise, phis))
    readout = np.outer(spam.effect().bloch_coeffs @ noise_inv.realize().ptm, spam.prep().bloch)
    index = np.zeros((1, 1), dtype=np.int64)
    return op.reshape(16, 16).T, index, np.eye(4).reshape(1, 16), readout.reshape(1, 16)


def _operator_key(config: RBConfig) -> tuple:
    """The settings the sampler and the oracle read, as ``_transfer_operator`` takes them.
    Without ``noise_inv`` the inverse reuses the per-gate noise."""
    noise_inv = config.noise if config.noise_inv is None else config.noise_inv
    bias = config.instrument.outcome_bias
    return (config.protocol, config.noise, noise_inv, config.spam, bias, config.clifford_mode, config.design_phis)


@lru_cache(maxsize=16)
def _transfer_operator(protocol, noise, noise_inv, spam, bias, mode, phis):
    """``(stacked, index, x0, readout)`` of one oracle setting, in the form of
    ``_group_transfer``; the derandomized protocol is one class with its
    16x16 operator. The parts are fresh arrays, or views of them, that
    nothing else holds, so they are made read-only in place rather than copied.
    """
    if protocol == "derandomized-mbqc":
        parts = _derandomized_operator(noise, noise_inv, spam, bias, phis)
    else:
        pool = _gate_pool(protocol, mode)
        parts = _group_transfer(*_gate_operators(protocol, noise, noise_inv, spam, bias), pool)
    for a in parts:
        a.setflags(write=False)
    return parts


def _transfer_value(operator, s: int) -> float:
    """F(s) = readout . M^s x0, with M applied s times and never formed.

    Each step gathers every class's predecessors (24 * |pool| * d entries)
    and sums B[g] over them in one matrix product of 24 * |pool| * d^2
    multiply-adds: as many as the dense M takes for the whole group, a
    quarter of them for the coset reps. With one class the step is x @ op.T
    on a transposed view, the same BLAS call as op @ x, so the derandomized
    values that ``run`` draws from keep their bits.
    """
    stacked, index, x, readout = operator
    for _ in range(s):
        x = x.take(index, axis=0).reshape(len(x), -1) @ stacked
    return float(readout.ravel() @ x.ravel())


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
