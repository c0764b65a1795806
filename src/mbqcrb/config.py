"""The experiment's settings, their checks and their file form.

A wire experiment is fixed by a few settings: the protocol with its lengths
and counts, the logical noise after each step or after each gate block, the
outcome bias with optional randomness injection, and SPAM. This module holds
their types (``NoiseModel``, ``InstrumentConfig``, ``SpamModel``,
``RBConfig`` and ``ExperimentConfig``), the field checks they share, and the
key/value form that config files and dataset preambles hold, with the JSON
rule both follow, and the count rule of dataset counts and command-line
integers. It loads neither the literal wire nor the engine, and
PyYAML only for a config file that is not JSON.
"""

from __future__ import annotations

import json
import numbers
import os
import re
import sys
from collections.abc import Hashable
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import lru_cache, partial
from typing import Callable, Optional, Union

import numpy as np

from .channels import (
    Channel,
    Effect,
    State,
    amplitude_damping,
    channel_from_unitary,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    plus_state,
    survival_effect,
    z_rotation,
)

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


def _file_name(value, what: str):
    """``value``, None or a str that ``open`` takes as a path: one that is not
    empty, that ``os.fsencode`` encodes, with no NUL character."""
    _instance(str, type(None))(value, what)
    if value is not None:
        try:
            if not value or "\0" in value:
                raise ValueError
            os.fsencode(value)
        except ValueError:  # a UnicodeEncodeError, for a lone surrogate
            raise ValueError(
                f"{what} must be a non-empty file name the file system can encode, with no NUL; got {value!r}"
            ) from None
    return value


def _normalise(config, **checks) -> None:
    """Store each named field of the frozen ``config`` as its checked value."""
    for name, check in checks.items():
        object.__setattr__(config, name, check(getattr(config, name), name))


# The noise kinds that take a strength, each with the channel factory it is
# passed to. The other kinds, "none" and "composite", chain their parts.
_STRENGTH_CHANNELS = {
    "depolarizing": depolarizing,
    "dephasing": dephasing,
    "amplitude-damping": amplitude_damping,
    "unitary-overrotation": lambda angle: channel_from_unitary(z_rotation(angle)),
}

NOISE_KINDS = ("none", *_STRENGTH_CHANNELS, "composite")


@dataclass(frozen=True)
class NoiseModel:
    """Per-step (or per-block) logical noise on the wire.

    ``strength`` is the retention parameter for depolarizing, the flip
    probability for dephasing, the decay probability for amplitude damping,
    and the overrotation angle (radians, about Z) for unitary-overrotation.
    ``dependence``, when set, receives the step angle and outcome (or the
    block's angle and outcome tuples, for block placement) and returns the
    NoiseModel or Channel to apply there instead. A NoiseModel it returns,
    and each of a composite's ``parts`` (applied in order), is realized with
    that same context.
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
        if self.strength != 0.0 and self.kind not in _STRENGTH_CHANNELS:
            raise ValueError(f"strength is not taken by {self.kind} noise")
        self.base_channel()  # the channel factory checks the strength's range

    @property
    def trivial(self) -> bool:
        return self.kind == "none" and self.dependence is None

    @property
    def dependent(self) -> bool:
        """True when a dependence map, here or in a part, reads the step's context."""
        return self.dependence is not None or any(p.dependent for p in self.parts)

    def base_channel(self) -> Channel:
        return _base_channel(self)

    def realize(self, theta=None, outcome=None) -> Channel:
        """Channel to apply at a step (or block) with the given context.

        A composite realizes each part with that context, the first part
        acting first; with no dependent part it is its cached base channel.
        """
        if self.dependence is not None:
            resolved = self.dependence(theta, outcome)
            if isinstance(resolved, Channel):
                return resolved
            return resolved.realize(theta, outcome)
        if self.dependent:
            return _chain(p.realize(theta, outcome) for p in self.parts)
        return self.base_channel()


def _chain(channels) -> Channel:
    """The channels applied in order, the first acting first."""
    ch = identity_channel()
    for c in channels:
        ch = compose(c, ch)
    return ch


@lru_cache(maxsize=256)
def _base_channel(noise: "NoiseModel") -> Channel:
    factory = _STRENGTH_CHANNELS.get(noise.kind)
    if factory is not None:
        return factory(noise.strength)
    return _chain(p.base_channel() for p in noise.parts)


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


PROTOCOLS = ("circuit", "clifford-mbqc", "derandomized-mbqc")

CLIFFORD_MODES = ("coset", "full")


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
        # A dependence map needs a measured step's angle and outcome: circuit gates have
        # none, nor has the derandomized inverse, a rotated final measurement.
        inverse = "noise" if self.noise_inv is None else "noise_inv"
        unmeasured = {"circuit": (inverse, "noise"), "derandomized-mbqc": (inverse,)}
        for name in unmeasured.get(self.protocol, ()):
            if getattr(self, name).dependent:
                raise ValueError(
                    f"{name} has a dependence map, but the {self.protocol} protocol gives it no angle or outcome"
                )


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable mirror of an RBConfig plus output path and toggles."""

    rb: RBConfig
    output: str | None = None
    verify_first: bool = False

    def __post_init__(self):
        _normalise(self, output=_file_name, verify_first=_instance(bool))


def _noise_to_dict(noise: NoiseModel) -> dict:
    d = {"kind": noise.kind}
    if noise.kind in _STRENGTH_CHANNELS:
        d["strength"] = noise.strength
    d["placement"] = noise.placement
    if noise.parts:
        d["parts"] = [_noise_to_dict(p) for p in noise.parts]
    if noise.dependence is not None:
        raise ValueError("noise with a dependence map cannot be serialized")
    return d


def config_to_dict(config: ExperimentConfig) -> dict:
    rb = config.rb
    d = {
        "protocol": rb.protocol,
        "lengths": list(rb.lengths),
        "sequences_per_length": rb.sequences_per_length,
        "shots_per_sequence": rb.shots_per_sequence,
        "seed": rb.seed,
        "clifford_mode": rb.clifford_mode,
        "design_phis": [round(x / np.pi, 12) for x in rb.design_phis],
        "noise": _noise_to_dict(rb.noise),
        "instrument": asdict(rb.instrument),
        "spam": asdict(rb.spam),
        "verify_first": config.verify_first,
    }
    if rb.noise_inv is not None:
        d["noise_inv"] = _noise_to_dict(rb.noise_inv)
    if config.output is not None:
        d["output"] = config.output
    return d


def _section(cls, d, where: str, **convert):
    """``cls`` built from the config-file mapping ``d``, whose keys are its fields but
    ``dependence``. Only the keys given are passed, so the defaults and checks
    of ``cls`` apply; ``convert[key]`` turns a file value into a field value.
    Messages name ``where``, the section's path, which is empty at the top."""
    name = where or "config"
    if not isinstance(d, dict):
        raise ValueError(f"{name} must be a key/value mapping, got {d!r}")
    accepted = [f for f in fields(cls) if f.name != "dependence"]
    unknown = [str(k) for k in d if k not in {f.name for f in accepted}]
    if unknown:
        raise ValueError(f"unknown key in {name}: {', '.join(unknown)}")
    missing = [f.name for f in accepted if f.default is MISSING and f.name not in d]
    if missing:
        raise ValueError(f"{name} is missing required keys: {', '.join(missing)}")
    values = {k: convert[k](v) if k in convert else v for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}" if where else str(exc)) from None


def _noise_from_dict(d, where: str) -> NoiseModel:
    parts = partial(_entries, _noise_from_dict, what=f"{where} parts")
    return _section(NoiseModel, d, where, parts=parts)


def config_from_dict(d) -> ExperimentConfig:
    """The experiment a config file's top-level mapping describes; angles are in units of pi."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be a key/value mapping, got {d!r}")
    options = ("output", "verify_first")
    rb = _section(
        RBConfig,
        {k: v for k, v in d.items() if k not in options},
        "",
        noise=lambda v: _noise_from_dict(v, "noise"),
        noise_inv=lambda v: _noise_from_dict(v, "noise_inv"),
        instrument=lambda v: _section(InstrumentConfig, v, "instrument"),
        spam=lambda v: _section(SpamModel, v, "spam"),
    )
    phis = tuple(x * np.pi for x in rb.design_phis)
    for k, (x, phi) in enumerate(zip(rb.design_phis, phis), 1):
        if not np.isfinite(phi):
            raise ValueError(
                f"design_phis entry {k} is {x!r} (units of pi), too large to convert to radians"
            )
    rb = replace(rb, design_phis=phis)
    return ExperimentConfig(rb=rb, **{k: d[k] for k in options if k in d})


def _unique_keys(pairs):
    """``object_pairs_hook`` for ``json.loads`` that raises ValueError on a key
    repeated in one object, at any depth."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json(text: str):
    """The value of the JSON ``text``, by the one rule that config files and the
    JSON lines of a dataset preamble follow: text that is not JSON, a key
    repeated in one object, or NaN or Infinity raises ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys, parse_constant=_no_constant)


INTEGER = re.compile("-?[0-9]+")  # a count: ASCII digits, nothing else


def parse_count(text: str) -> int:
    """``text`` as an int by the count rule: a dataset's count fields and the
    command line's integers follow it."""
    if not INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _config_loader():
    """``yaml.SafeLoader`` that raises ValueError on a key repeated in one
    mapping, at any depth, and reads an exponent float such as ``1e-05`` as a
    float, as JSON does; YAML 1.1 reads it as a string. Built on call, so
    importing this module loads no yaml."""
    import yaml

    class ConfigLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            if isinstance(node, yaml.MappingNode):
                seen = set()
                for key_node, _ in node.value:
                    if key_node.tag == "tag:yaml.org,2002:merge":
                        continue  # a key merged in with << may be overridden
                    key = self.construct_object(key_node, deep=deep)
                    if not isinstance(key, Hashable):
                        continue  # the base class rejects it
                    if key in seen:
                        raise ValueError(
                            f"duplicate key {key!r} (line {key_node.start_mark.line + 1})"
                        )
                    seen.add(key)
            return super().construct_mapping(node, deep=deep)

    # appended after the built-in resolvers, so an integer stays an integer
    ConfigLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return ConfigLoader


def _load_yaml(fh):
    import yaml

    try:
        return yaml.load(fh, Loader=_config_loader())
    except yaml.YAMLError as exc:
        raise ValueError(str(exc)) from None


def load_config(path: str) -> ExperimentConfig:
    """The experiment of the config file at ``path``. Text that ``parse_json``
    reads is taken by JSON rules, so a JSON config loads no yaml; any other
    text, a repeated key or a NaN included, is read as YAML. A repeated key, or
    text that is not YAML, raises ValueError with the parser's message, and so
    does input nested too deeply to read."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
        try:
            try:
                d = parse_json(text)
            except ValueError:
                fh.seek(0)  # read from the file, so that the YAML error names it
                d = _load_yaml(fh)
            return config_from_dict(d)
        except RecursionError:
            raise ValueError("the file is nested too deeply to read") from None
