"""The literal wire: a logical-level simulation of a noisy linear cluster wire.

Each site measurement applies X^m H Z_theta to the logical qubit, with the
outcome m sampled at a configurable, state-independent bias. Noise enters as
a configurable logical channel after each step or after each fixed-size gate
block; physical preparation/entangling/measurement errors are represented
only through that effective channel. It replays one run step by step, as the
independent reference that the engine's exact oracles are checked against;
no command loads it. The settings it takes are defined in ``config``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import lru_cache

import numpy as np

from .channels import (
    Effect,
    State,
    Unitary2,
    measure,
    projector_effect,
    unitary_ptms,
    I2,
    _frozen,
)
from .config import AFTER_EACH_GATE_BLOCK, AFTER_EACH_STEP, NO_NOISE, InstrumentConfig, NoiseModel
# conjugation_bits lives with the gate set and wire does not use it; it stays
# importable from here because perfbench times it as wire.conjugation_bits.
from .gatesets import _as_indices, clifford_table, conjugation_bits, measurement_gates


@dataclass
class WireRun:
    """One wire execution: a Bloch vector (checked once, as ``state``), outcomes, coins, frame."""

    state: InitVar[State]
    bloch: np.ndarray = field(init=False)
    outcomes: list[int] = field(default_factory=list)
    injected: list[int] = field(default_factory=list)
    pauli_frame: tuple[int, int] = (0, 0)

    def __post_init__(self, state: State):
        self.bloch = state.bloch


def step_unitary(theta: float, m: int) -> Unitary2:
    """Logical gate X^m H Z_theta applied by one wire measurement."""
    return Unitary2(measurement_gates(theta, m))


@lru_cache(maxsize=512)
def _step_ptm(theta: float, m: int) -> np.ndarray:
    return _frozen(unitary_ptms(measurement_gates(theta, m)[None])[0])


def measure_step(
    run: WireRun,
    theta: float,
    noise: NoiseModel = NO_NOISE,
    instrument: InstrumentConfig = InstrumentConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[WireRun, int]:
    """Measure one wire site at angle ``theta`` and advance the logical qubit.

    Samples the raw outcome at the instrument's bias, XORs in a fair coin
    when randomness injection is enabled (the flip amounts to relabeling the
    measurement axes, so the effective outcome drives the applied gate), and
    applies per-step noise. Returns the run and the effective outcome.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    m = int(rng.random() < 0.5 + instrument.bias)
    if instrument.inject_randomness:
        coin = int(rng.random() < 0.5)
        run.injected.append(coin)
        m ^= coin
    run.bloch = _step_ptm(float(theta), m) @ run.bloch
    if not noise.trivial and noise.placement == AFTER_EACH_STEP:
        run.bloch = noise.realize(theta, m).ptm @ run.bloch
    run.outcomes.append(m)
    return run, m


def run_gate_block(
    run: WireRun,
    angles,
    noise: NoiseModel = NO_NOISE,
    instrument: InstrumentConfig = InstrumentConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[WireRun, list[int]]:
    """Execute one gate block of measurements at the given angles.

    Block-placed noise is applied once after the block's ideal steps. For
    three-step blocks at quarter-turn angles, the run's Pauli frame is
    advanced automatically.
    """
    angles = list(angles)
    if len(angles) < 1:
        raise ValueError("a gate block needs at least one measurement")
    outcomes = []
    for theta in angles:
        _, m = measure_step(run, theta, noise, instrument, rng)
        outcomes.append(m)
    if not noise.trivial and noise.placement == AFTER_EACH_GATE_BLOCK:
        run.bloch = noise.realize(tuple(angles), tuple(outcomes)).ptm @ run.bloch
    if len(angles) == 3:
        quads = [a / (np.pi / 2) for a in angles]
        if all(abs(q - round(q)) < 1e-9 for q in quads):
            n = tuple(int(round(q)) % 4 for q in quads)
            run.pauli_frame = update_pauli_frame(run.pauli_frame, n, tuple(outcomes))
    return run, outcomes


def update_pauli_frame(frame, n, m) -> tuple[int, int]:
    """Fold one Clifford block's byproducts into an existing Pauli frame.

    ``n`` holds the block's quarter turns and ``m`` its outcomes. The old
    frame is conjugated through the block's all-zeros gate and the block's
    own byproduct bits are XORed on top: one lookup in the table's
    ``frame_step``.
    """
    fx, fz = _as_indices(frame, 2, "frame entries must be bits", size=2).tolist()
    n = tuple(_as_indices(n, 4, "quarter turns must be three entries in {0, 1, 2, 3}", size=3).tolist())
    m = _as_indices(m, 2, "outcomes must be three bits", size=3).tolist()
    f = int(clifford_table().frame_step[n][4 * m[0] + 2 * m[1] + m[2], 2 * fx + fz])
    return f // 2, f % 2


@lru_cache(maxsize=1)
def _plus_effect() -> Effect:
    return projector_effect(I2)


def survival_probability(
    run: WireRun,
    basis: Unitary2 = I2,
    noise_inv: NoiseModel = NO_NOISE,
    effect: Effect | None = None,
) -> float:
    """Exact Born probability that the terminal X-basis measurement survives.

    The basis rotation absorbs the sequence inverse and any Pauli frame, and
    is applied before the inverse-step noise so that the noisy inverse
    decomposes as noise after the ideal rotation.
    """
    bloch = run.bloch if basis is I2 else unitary_ptms(basis.matrix[None])[0] @ run.bloch
    if not noise_inv.trivial:
        bloch = noise_inv.realize().ptm @ bloch
    if effect is None:
        effect = _plus_effect()
    return measure(effect, bloch)
