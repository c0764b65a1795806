"""Randomized-benchmarking protocol execution and exact oracles.

Three protocols share one dataset format: a circuit-model baseline where
gates act directly as channels, the Clifford wire protocol (three
measurements per gate, byproducts tracked as a Pauli frame, inverse realized
as one extra gate block), and the derandomized fixed-pattern protocol (five
measurements per gate, realized elements read off the outcomes, inverse
absorbed into a rotated final measurement).

A measured block's channel depends only on its gate and outcome pattern, so
both wire protocols read it from one table of block PTMs per noise model,
indexed by (gate, outcome index) and shared with the exact oracles. The wire
samplers run whole items of one length together, every shot a row, and
advance all rows one block column at a time by a gather from that table.
Because outcomes are drawn independently block by block, the exact average
over sequences and outcomes is a linear recursion, F(s) = readout . M^s x0,
for a small transfer operator M per protocol; it gives the exact oracle for
the sampled paths at every length.
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
    _frozen,
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
# measured-block table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _step_ptm(theta: float, m: int, noise: NoiseModel) -> np.ndarray:
    """PTM of one wire step, followed by the noise when it is placed after each step."""
    ptm = channel_from_unitary(step_unitary(theta, m)).ptm
    if (not noise.trivial) and noise.placement == AFTER_EACH_STEP:
        ptm = noise.realize(theta, m).ptm @ ptm
    return ptm


def _block_chain_ptm(angles, outcomes, noise: NoiseModel) -> np.ndarray:
    """PTM of one measured gate block, mirroring the wire-step semantics."""
    ptm = np.eye(4)
    for theta, bit in zip(angles, outcomes):
        ptm = _step_ptm(theta, bit, noise) @ ptm
    if (not noise.trivial) and noise.placement == AFTER_EACH_GATE_BLOCK:
        ptm = noise.realize(tuple(angles), tuple(outcomes)).ptm @ ptm
    return ptm


@lru_cache(maxsize=32)
def _block_table(patterns: tuple[tuple[float, ...], ...], noise: NoiseModel) -> np.ndarray:
    """Every measured block's PTM, flat over (pattern, outcome index).

    Row ``k * 2**q + m`` is the block of angle pattern ``patterns[k]`` whose
    q outcomes spell m, the first outcome most significant.
    """
    q = len(patterns[0])
    return _frozen(
        [
            _block_chain_ptm(angles, outcomes, noise)
            for angles in patterns
            for outcomes in itertools.product((0, 1), repeat=q)
        ]
    )


def _clifford_blocks(noise: NoiseModel) -> np.ndarray:
    """Block PTMs of the 24 Clifford rows, indexed [g, outcome index]."""
    patterns = tuple(e.angles for e in clifford_group())
    return _block_table(patterns, noise).reshape(24, len(OUTCOME_TRIPLES), 4, 4)


def _design_blocks(noise: NoiseModel, phis: tuple[float, float]) -> np.ndarray:
    """Block PTMs of the derandomized pattern, indexed by outcome index."""
    return _block_table((_cached_design(phis).angles,), noise)


@lru_cache(maxsize=8)
def _cached_design(phis: tuple[float, float]) -> DerandomizedDesign:
    return derandomized_design(*phis)


def _ptm_batch(mats: np.ndarray) -> np.ndarray:
    """PTMs of a batch of 2x2 unitaries, shape (n, 2, 2) -> (n, 4, 4)."""
    out = np.empty((len(mats), 4, 4))
    step = _CHUNK_ENTRIES // 16  # the contraction holds 4 x 2 x 2 complex entries per row
    for start in range(0, len(mats), step):
        chunk = mats[start : start + step]
        conj = np.einsum("sab,jbc,sdc->sjad", chunk, _PAULIS, chunk.conj(), optimize=True)
        out[start : start + step] = np.real(np.einsum("iab,sjba->sij", _PAULIS, conj)) / 2.0
    return out


# ---------------------------------------------------------------------------
# sampled protocol runners
# ---------------------------------------------------------------------------

# Rows (items x shots) a wire batch may hold. Batches take whole items, so
# an item with more shots than this runs alone.
_ROW_BUDGET = 1 << 14

# Array entries in the temporaries of one chunk of random draws or PTMs.
# Large temporaries, once freed, let the allocator keep far more memory
# resident than the run ever holds at once.
_CHUNK_ENTRIES = 1 << 14


def _item_rng(seed: int, protocol: str, s: int, i: int) -> np.random.Generator:
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, _PROTOCOL_TAGS[protocol], int(s), int(i))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _coins(rng, shots: int, nsteps: int, p: float) -> np.ndarray:
    """``rng.random((shots, nsteps)) < p``, drawing the same stream in row chunks."""
    out = np.empty((shots, nsteps), dtype=bool)
    step = max(1, _CHUNK_ENTRIES // nsteps)
    for start in range(0, shots, step):
        out[start : start + step] = rng.random((min(step, shots - start), nsteps)) < p
    return out


def _outcome_bits(rng, shots, nsteps, instrument: InstrumentConfig) -> np.ndarray:
    raw = _coins(rng, shots, nsteps, 0.5 + instrument.bias)
    if instrument.inject_randomness:
        raw ^= _coins(rng, shots, nsteps, 0.5)
    return raw


def _outcome_index(mbits: np.ndarray) -> np.ndarray:
    """Outcome bits along the last axis as an integer, the first outcome most significant."""
    index = np.zeros(mbits.shape[:-1], dtype=np.int64)
    for k in range(mbits.shape[-1]):
        index <<= 1
        index |= mbits[..., k]
    return index


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


@dataclass(frozen=True)
class _WireSetup:
    """The parts of a wire run that depend only on its config.

    Clifford frames are coded 2 fx + fz; ``frames[k, f]`` is the frame after
    the block in row k of ``blocks`` when f was the frame before.
    """

    q: int  # measurements per gate block
    blocks: np.ndarray  # flat block-PTM table the kernel gathers from
    prep: np.ndarray
    readout: np.ndarray  # effect after the last block (Clifford: one per final frame)
    frames: np.ndarray | None = None  # Clifford only
    elements: np.ndarray | None = None  # derandomized only: design elements by outcome index


def _frame_steps() -> np.ndarray:
    """Clifford frame after each block, ``[g * 8 + m, f]``, frames coded 2 fx + fz.

    Row g * 8 + m is row g's block with outcome index m; f is the frame before it.
    """
    table = clifford_table()
    m, fx, fz = np.ix_(range(len(OUTCOME_TRIPLES)), (0, 1), (0, 1))
    steps = [table.next_frame(g, m, fx, fz) for g in range(24)]
    return np.reshape([2 * nfx + nfz for nfx, nfz in steps], (-1, 4))


def _wire_setup(cfg: RBConfig) -> _WireSetup:
    prep = cfg.spam.prep().bloch
    effect = cfg.spam.effect().bloch_coeffs
    if cfg.protocol == "clifford-mbqc":
        # gate blocks, then inverse blocks with their own noise; the final
        # frame's PTM folds into the effect
        table = clifford_table()
        blocks = np.concatenate(
            [_clifford_blocks(cfg.noise), _clifford_blocks(cfg.resolved_noise_inv())]
        )
        return _WireSetup(
            q=3,
            blocks=blocks.reshape(-1, 4, 4),
            prep=prep,
            readout=(effect @ table.frame_ptm).reshape(4, 4),
            frames=np.tile(_frame_steps(), (2, 1)),  # both halves of blocks
        )
    dinv = cfg.resolved_noise_inv()
    return _WireSetup(
        q=5,
        blocks=_design_blocks(cfg.noise, cfg.design_phis),
        prep=prep,
        readout=effect if dinv.trivial else effect @ dinv.realize().ptm,
        elements=np.stack([u.matrix for u in _cached_design(cfg.design_phis).elements]),
    )


def _block_kernel(prep: np.ndarray, blocks: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Bloch vector of each row after one measured block per column of ``index``.

    ``index[r, j]`` picks row r's block in column j from the flat table
    ``blocks``: one gather and one batched matvec per column.
    """
    states = np.broadcast_to(prep, (len(index), 4))
    for col in index.T:
        states = np.einsum("rij,rj->ri", blocks.take(col, axis=0), states)
    return states


def _design_products(elements: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Each row's product of realized design elements, the first applied first.

    The batched 2x2 complex product is written out entry by entry, which is
    several times faster than matmul on stacks of 2x2 matrices.
    """
    e00, e01, e10, e11 = (elements[:, i, j] for i in (0, 1) for j in (0, 1))
    one, zero = np.ones(len(outcomes), dtype=complex), np.zeros(len(outcomes), dtype=complex)
    t00, t01, t10, t11 = one, zero, zero, one
    for m in outcomes.T:
        a, b, c, d = e00[m], e01[m], e10[m], e11[m]
        t00, t01, t10, t11 = (
            a * t00 + b * t10, a * t01 + b * t11, c * t00 + d * t10, c * t01 + d * t11
        )
    return np.stack([t00, t01, t10, t11], axis=-1).reshape(-1, 2, 2)


def _run_wire_batch(cfg: RBConfig, setup: _WireSetup, s: int, items) -> list[SequenceRecord]:
    """Records of whole wire items at length ``s``, their shots simulated as rows.

    Each item draws from its own stream in a fixed order (gates, outcome
    bits, injection coins, Born coins), so its record does not depend on
    which other items share the batch.
    """
    clifford = cfg.protocol == "clifford-mbqc"
    nblocks = s + 1 if clifford else s  # the Clifford inverse is a block too
    shots = cfg.shots_per_sequence
    gates, bits, born = [], [], []
    for i in items:
        rng = _item_rng(cfg.seed, cfg.protocol, s, i)
        if clifford:
            gates.append(_draw_gate_indices(s, cfg.clifford_mode, rng))
        bits.append(_outcome_bits(rng, shots, setup.q * nblocks, cfg.instrument))
        born.append(rng.random(shots))
    outcomes = _outcome_index(np.concatenate(bits).reshape(-1, nblocks, setup.q))

    if clifford:
        gates = np.array(gates)
        sequences = np.column_stack([gates, clifford_table().sequence_inverse(gates)])
        # row of each shot's block in setup.blocks: gate * 2**q + outcome index,
        # in the second half (the inverse's noise) for the inverse block
        index = outcomes
        index += np.repeat(sequences << setup.q, shots, axis=0)
        index[:, -1] += len(setup.blocks) // 2
        states = _block_kernel(setup.prep, setup.blocks, index)
        frame = np.zeros(len(index), dtype=np.int64)
        for col in index.T:
            frame = setup.frames[col, frame]
        readout = setup.readout[frame]
        digests = [_digest(g) for g in gates]
    else:
        # the inverse is a rotated final measurement on the tracked product
        states = _block_kernel(setup.prep, setup.blocks, outcomes)
        totals = _design_products(setup.elements, outcomes)
        rot = _ptm_batch(np.conj(np.transpose(totals, (0, 2, 1))))
        readout = setup.readout @ rot
        digests = [_digest(realized) for realized in np.split(outcomes, len(items))]

    probs = np.clip(np.einsum("ri,ri->r", readout, states), 0.0, 1.0)
    survivals = (np.concatenate(born) < probs).reshape(len(items), shots).sum(axis=1)
    return [
        SequenceRecord(
            s=s,
            index=i,
            gate_indices=tuple(int(g) for g in gates[k]) if clifford else (),
            survivals=int(survivals[k]),
            shots=shots,
            digest=digests[k],
        )
        for k, i in enumerate(items)
    ]


def run_protocol(config: RBConfig) -> RBDataset:
    """Run the configured experiment and collect per-sequence survivals.

    Work items (one per length and sequence index) carry independent,
    seed-derived random streams, so each record depends only on the seed,
    its length and its index.
    """
    if not isinstance(config, RBConfig):
        raise ValueError("config must be an RBConfig")
    warnings = ()
    if config.protocol == "derandomized-mbqc" and config.instrument.outcome_bias != 0.0:
        warnings = (_BIAS_WARNING,)

    n = config.sequences_per_length
    if config.protocol == "circuit":
        records = [_run_circuit_item(config, s, i) for s in config.lengths for i in range(n)]
    else:
        setup = _wire_setup(config)
        per_batch = max(1, _ROW_BUDGET // config.shots_per_sequence)
        records = [
            record
            for s in config.lengths
            for start in range(0, n, per_batch)
            for record in _run_wire_batch(config, setup, s, range(start, min(n, start + per_batch)))
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


def _outcome_weights(q: int, bias: float) -> np.ndarray:
    """Probability of each outcome index of q outcomes, the first outcome most significant."""
    w = np.ones(1)
    for _ in range(q):
        w = np.outer(w, (0.5 - bias, 0.5 + bias)).ravel()
    return w


def _circuit_operator(steps, dinv_ptm, prep, effect):
    """Transfer operator of the circuit model over (ideal product v, Bloch).

    ``steps[g]`` is gate g's noisy PTM. The state holds, per product class,
    the Bloch vector summed over the sequences in it; the readout folds the
    inverse gate of the class, the inverse noise and the effect.
    """
    table = clifford_table()
    op = np.zeros((24, 24, 4, 4))
    # for fixed v, g -> product[g, v] is a bijection: every entry is set once
    op[table.product, np.arange(24)] = np.asarray(steps)[:, None] / 24.0
    x0 = np.zeros((24, 4))
    x0[0] = prep
    readout = effect @ dinv_ptm @ table.ptm[table.inverse]
    return op.transpose(0, 2, 1, 3).reshape(96, 96), x0.ravel(), readout.ravel()


def _clifford_wire_operator(noise, noise_inv, bias, mode, prep, effect):
    """Transfer operator of the Clifford wire over (ideal product v, frame f, Bloch).

    The inverse block and the final frame rotation depend on a branch only
    through (v, f), so the state holds, per class, the Bloch vector summed
    over its branches at their weights. The readout folds the inverse block
    with its outcome weights, the final frame's PTM and the effect.
    """
    table = clifford_table()
    pool = table.coset_reps if mode == "coset" else np.arange(24)
    w = _outcome_weights(3, bias)
    frames = _frame_steps().reshape(24, 8, 4)  # [g, m, f]
    # gather the outcomes that move frame f to frame f2 under gate g
    moves = frames[pool][..., None] == np.arange(4)  # [g, m, f, f2]
    blocks = np.einsum("gmfF,m,gmij->gfFij", moves, w / len(pool), _clifford_blocks(noise)[pool])
    op = np.zeros((24, 4, 24, 4, 4, 4))  # [v2, f2, v, f, i, j]
    g, v, f2, f = np.ix_(range(len(pool)), range(24), range(4), range(4))
    # v2 = product[g, v] fixes g, so every entry is set once
    op[table.product[pool[g], v], f2, v, f] = blocks[g, f, f2]
    x0 = np.zeros((24, 4, 4))
    x0[0, 0] = prep
    final = (effect @ table.frame_ptm).reshape(4, 4)  # [frame, i]
    inv = table.inverse
    readout = np.einsum(
        "m,vmfi,vmij->vfj", w, final[frames[inv]], _clifford_blocks(noise_inv)[inv]
    )
    return op.transpose(0, 1, 4, 2, 3, 5).reshape(384, 384), x0.ravel(), readout.ravel()


def _derandomized_operator(noise, noise_inv, bias, phis, prep, effect):
    """Transfer operator of the derandomized protocol on a flattened 4x4 Y.

    Y = E[R(U_1)^T ... R(U_s)^T C_s ... C_1] over outcome strings, with C_m
    the noisy block PTM and R(U_m) the ideal PTM of the element realized by
    outcome index m. Peeling off the first block gives
    Y <- sum_m w_m R(U_m)^T Y C_m, and the survival is effect . D_inv Y prep.
    """
    w = _outcome_weights(5, bias)
    rot = _ptm_batch(np.stack([u.matrix for u in _cached_design(phis).elements]))
    # the element matrices are unitary only to rounding, about 1e-14, and
    # R(cU) = |c|^2 R(U): rescale so that the trace is kept over long powers
    rot /= rot[:, :1, :1]
    op = np.einsum("m,mia,mjb->abij", w, rot, _design_blocks(noise, phis))
    dinv_ptm = noise_inv.realize().ptm if not noise_inv.trivial else np.eye(4)
    return op.reshape(16, 16), np.eye(4).ravel(), np.outer(effect @ dinv_ptm, prep).ravel()


@lru_cache(maxsize=16)
def _transfer_operator(protocol, noise, noise_inv, spam, bias, mode, phis):
    """``(M, x0, readout)`` of one oracle setting, so that F(s) = readout . M^s x0."""
    prep = spam.prep().bloch
    effect = spam.effect().bloch_coeffs
    if protocol == "circuit":
        steps = noise.realize().ptm @ clifford_table().ptm
        parts = _circuit_operator(steps, noise_inv.realize().ptm, prep, effect)
    elif protocol == "clifford-mbqc":
        parts = _clifford_wire_operator(noise, noise_inv, bias, mode, prep, effect)
    else:
        parts = _derandomized_operator(noise, noise_inv, bias, phis, prep, effect)
    return tuple(_frozen(a) for a in parts)


def _transfer_value(operator, s: int) -> float:
    """``readout . M^s x0`` by s matrix-vector products, which at benchmarking
    lengths cost less and round less than ``np.linalg.matrix_power``."""
    op, x, readout = operator
    for _ in range(s):
        x = op @ x
    return float(readout @ x)


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
    """Exact sequence fidelity at any length, from the protocol's transfer operator.

    Exact also under gate- and outcome-dependent noise and biased outcomes.
    Also evaluates the zeroth-order decay value from the twirled noise; the
    two agree (to numerical precision) whenever the realized noise is gate
    independent and outcomes are unbiased.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if s < 1:
        raise ValueError("sequence length must be >= 1")
    if spam is None:
        spam = IDEAL_SPAM
    dinv = noise if noise_inv is None else noise_inv
    operator = _transfer_operator(
        protocol, noise, dinv, spam, float(bias), clifford_mode, tuple(design_phis)
    )
    analytic = _analytic_value(protocol, s, noise, dinv, spam, design_phis)
    return ExactSequenceFidelity(enumerated=_transfer_value(operator, s), analytic=analytic)
