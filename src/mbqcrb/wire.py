"""Logical-level simulation of a noisy linear cluster wire.

Each site measurement applies X^m H Z_theta to the logical qubit, with the
outcome m sampled at a configurable, state-independent bias. Noise enters as
a configurable logical channel after each step or after each fixed-size gate
block; physical preparation/entangling/measurement errors are represented
only through that effective channel.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .channels import (
    Channel,
    Effect,
    State,
    Unitary2,
    amplitude_damping,
    apply,
    channel_from_unitary,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    measure,
    projector_effect,
    z_rotation,
    I2,
)
# conjugation_bits and frame_unitary live with the gate set; they stay importable from here.
from .gatesets import clifford_table, conjugation_bits, frame_unitary
from .gatesets import measurement_gates

AFTER_EACH_STEP = "after-each-step"
AFTER_EACH_GATE_BLOCK = "after-each-gate-block"


# Field checks of the config types: each takes a value and the field's name and
# returns the value to store, or raises ValueError naming the field.


def _integer(value, what: str) -> int:
    """``value`` as an int; a flag, a fraction or anything but a number is an error."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{what} must be int, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a finite float; a flag or anything but a number is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite float, got {value!r}")
    return float(value)


def _entries(check, value, what: str) -> tuple:
    """``value``, a list or tuple, as a tuple of entries that pass ``check``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return tuple(check(x, f"{what} entry {k}") for k, x in enumerate(value, 1))


def _choice(*choices):
    def check(value, what: str):
        if value not in choices:
            raise ValueError(f"{what} must be one of {', '.join(choices)}; got {value!r}")
        return value
    return check


def _instance(*kinds):
    def check(value, what: str):
        if not isinstance(value, kinds):
            raise ValueError(f"{what} must be a {kinds[0].__name__}, got {value!r}")
        return value
    return check


def _normalise(config, **checks) -> None:
    """Store each named field of the frozen ``config`` as its checked value."""
    for name, check in checks.items():
        object.__setattr__(config, name, check(getattr(config, name), name))


NOISE_KINDS = (
    "none",
    "depolarizing",
    "dephasing",
    "amplitude-damping",
    "unitary-overrotation",
    "composite",
)


@dataclass(frozen=True)
class NoiseModel:
    """Per-step (or per-block) logical noise on the wire.

    ``strength`` is the retention parameter for depolarizing, the flip
    probability for dephasing, the decay probability for amplitude damping,
    and the overrotation angle (radians, about Z) for unitary-overrotation.
    ``dependence``, when set, receives the step angle and outcome (or the
    block's angle and outcome tuples, for block placement) and returns the
    NoiseModel or Channel to apply there instead.
    """

    kind: str = "none"
    strength: float = 0.0
    placement: str = AFTER_EACH_GATE_BLOCK
    dependence: Optional[Callable[[object, object], Union["NoiseModel", Channel]]] = None
    parts: tuple["NoiseModel", ...] = ()

    def __post_init__(self):
        _normalise(
            self,
            kind=_choice(*NOISE_KINDS),
            strength=_real,
            placement=_choice(AFTER_EACH_STEP, AFTER_EACH_GATE_BLOCK),
            parts=partial(_entries, _instance(NoiseModel)),
        )
        if self.kind == "composite" and not self.parts:
            raise ValueError("parts must be given for composite noise")
        if self.parts and self.kind != "composite":
            raise ValueError(f"parts are taken only by composite noise, not by {self.kind}")
        if self.strength != 0.0 and self.kind in ("none", "composite"):
            raise ValueError(f"strength is not taken by {self.kind} noise")

    @property
    def trivial(self) -> bool:
        return self.kind == "none" and self.dependence is None

    def base_channel(self) -> Channel:
        return _base_channel(self)

    def realize(self, theta=None, outcome=None) -> Channel:
        """Channel to apply at a step (or block) with the given context."""
        if self.dependence is not None:
            resolved = self.dependence(theta, outcome)
            if isinstance(resolved, Channel):
                return resolved
            return resolved.base_channel()
        return self.base_channel()


@lru_cache(maxsize=256)
def _base_channel(noise: "NoiseModel") -> Channel:
    if noise.kind == "none":
        return identity_channel()
    if noise.kind == "depolarizing":
        return depolarizing(noise.strength)
    if noise.kind == "dephasing":
        return dephasing(noise.strength)
    if noise.kind == "amplitude-damping":
        return amplitude_damping(noise.strength)
    if noise.kind == "unitary-overrotation":
        return channel_from_unitary(z_rotation(noise.strength))
    ch = identity_channel()
    for part in noise.parts:
        ch = compose(part.base_channel(), ch)
    return ch


NO_NOISE = NoiseModel()


@dataclass(frozen=True)
class InstrumentConfig:
    """Measurement-outcome statistics: P(m = 1) = 1/2 + bias.

    With ``inject_randomness`` every outcome is XORed with a fresh fair coin
    and the flip is folded into the step deterministically, which restores a
    uniform effective outcome distribution.
    """

    bias: float = 0.0
    inject_randomness: bool = False

    def __post_init__(self):
        _normalise(self, bias=_real, inject_randomness=_instance(bool))
        if not -0.5 <= self.bias <= 0.5:
            raise ValueError(f"bias must lie in [-1/2, 1/2], got {self.bias}")

    @property
    def outcome_bias(self) -> float:
        """Bias of the outcomes the wire acts on: 0 when randomness is injected."""
        return 0.0 if self.inject_randomness else self.bias


@dataclass
class WireRun:
    """State of one wire execution: logical qubit, outcomes, coins, frame."""

    state: State
    outcomes: list[int] = field(default_factory=list)
    injected: list[int] = field(default_factory=list)
    pauli_frame: tuple[int, int] = (0, 0)


def step_unitary(theta: float, m: int) -> Unitary2:
    """Logical gate X^m H Z_theta applied by one wire measurement."""
    return Unitary2(measurement_gates(theta, m))


@lru_cache(maxsize=512)
def _step_channel(theta: float, m: int) -> Channel:
    return channel_from_unitary(step_unitary(theta, m))


def measure_step(
    run: WireRun,
    theta: float,
    noise: NoiseModel = NO_NOISE,
    instrument: InstrumentConfig = InstrumentConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[WireRun, int]:
    """Measure one wire site at angle ``theta`` and advance the logical state.

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
    run.state = apply(_step_channel(float(theta), m), run.state)
    if not noise.trivial and noise.placement == AFTER_EACH_STEP:
        run.state = apply(noise.realize(theta, m), run.state)
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
        run.state = apply(noise.realize(tuple(angles), tuple(outcomes)), run.state)
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
    fx, fz = (int(b) for b in frame)
    n, m = tuple(int(k) for k in n), tuple(int(b) for b in m)
    if fx not in (0, 1) or fz not in (0, 1):
        raise ValueError("frame entries must be bits")
    if len(n) != 3 or not all(0 <= k <= 3 for k in n):
        raise ValueError("quarter turns must be three entries in {0, 1, 2, 3}")
    if len(m) != 3 or not all(b in (0, 1) for b in m):
        raise ValueError("outcomes must be three bits")
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
    if basis is I2:
        state = run.state
    else:
        state = apply(channel_from_unitary(basis), run.state)
    if not noise_inv.trivial:
        state = apply(noise_inv.realize(), state)
    if effect is None:
        effect = _plus_effect()
    return measure(effect, state)
