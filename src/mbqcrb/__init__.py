"""Randomized benchmarking on linear cluster-state wires.

The public names below load their module on first access, so a process
imports only the modules it uses: ``run``, ``oracle`` and ``verify`` never
load ``fitting``, and no command loads the literal ``wire``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Fewest bootstrap resamples ``fitting.bootstrap_ci`` accepts. It lives here
# because the CLI's help text quotes it without loading ``fitting``.
MIN_RESAMPLES = 100

_EXPORTS = {
    "channels": (
        "Channel",
        "Effect",
        "State",
        "Unitary2",
        "amplitude_damping",
        "apply",
        "avg_gate_fidelity",
        "channel_from_unitary",
        "compose",
        "dephasing",
        "depolarizing",
        "frame_potential",
        "identity_channel",
        "measure",
        "plus_state",
        "twirl",
        "z_rotation",
    ),
    "config": ("InstrumentConfig", "NoiseModel", "RBConfig", "SpamModel"),
    "engine": (
        "ExactSequenceFidelity",
        "RBDataset",
        "SequenceRecord",
        "exact_sequence_fidelity",
        "run_protocol",
        "sequence_fidelity_estimate",
        "sequence_inverse",
    ),
    "fitting": ("DecayFit", "bootstrap_ci", "fidelity_from_p", "fit_decay"),
    "gatesets": (
        "CliffordElement",
        "DerandomizedDesign",
        "VerificationError",
        "byproduct_bits",
        "clifford_group",
        "derandomized_design",
        "element_from_outcomes",
        "verify_2design",
        "verify_angle_table",
        "verify_byproduct_bits",
        "verify_design_reference",
    ),
    "wire": (
        "WireRun",
        "measure_step",
        "run_gate_block",
        "update_pauli_frame",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
