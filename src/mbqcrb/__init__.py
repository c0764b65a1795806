"""Randomized benchmarking on linear cluster-state wires."""

__version__ = "0.1.0"

from .channels import (
    Channel,
    Effect,
    State,
    Unitary2,
    amplitude_damping,
    apply,
    avg_gate_fidelity,
    channel_from_unitary,
    compose,
    dephasing,
    depolarizing,
    frame_potential,
    identity_channel,
    measure,
    plus_state,
    twirl,
    z_rotation,
)
from .engine import (
    ExactSequenceFidelity,
    RBConfig,
    RBDataset,
    SequenceRecord,
    SpamModel,
    exact_sequence_fidelity,
    run_protocol,
    sequence_fidelity_estimate,
    sequence_inverse,
)
from .fitting import DecayFit, bootstrap_ci, fidelity_from_p, fit_decay
from .gatesets import (
    CliffordElement,
    DerandomizedDesign,
    VerificationError,
    byproduct_bits,
    clifford_group,
    derandomized_design,
    element_from_outcomes,
    verify_2design,
    verify_angle_table,
    verify_byproduct_bits,
    verify_design_reference,
)
from .wire import (
    InstrumentConfig,
    NoiseModel,
    WireRun,
    measure_step,
    run_gate_block,
    update_pauli_frame,
)
