"""Register-labeled statevector simulation and verification of message
transfer between measurement branches under global observer control."""

from .branches import (
    Branch,
    TransferVerdict,
    decompose_by_register,
    evaluate_transfer,
    register_component_magnitude,
    verify_transfer,
)
from .nogo import (
    ClaimReport,
    construct_G,
    run_no_uncompute_variant,
    verify_amplitude_immutability,
    witness_mu_dependence,
)
from .protocol import (
    Message,
    ProtocolConfig,
    ProtocolRun,
    build_protocol_circuit,
    checkpoint_reference_state,
    run_protocol,
)
from .qasm import parse_qasm, simulate_qasm, to_qasm
from .statevec import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    apply_circuit,
    apply_gate,
    fidelity,
    gate_matrix,
    make_basis_state,
    protocol_layout,
    zero_state,
)
from .suites import run_suite
from .swapsynth import FriendSnapshot, SwapPlan, synthesize_swap

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Circuit",
    "ClaimReport",
    "FriendSnapshot",
    "GateKind",
    "GateOp",
    "Message",
    "ProtocolConfig",
    "ProtocolRun",
    "RegisterLayout",
    "StateVector",
    "SwapPlan",
    "TransferVerdict",
    "apply_circuit",
    "apply_gate",
    "build_protocol_circuit",
    "checkpoint_reference_state",
    "construct_G",
    "decompose_by_register",
    "evaluate_transfer",
    "fidelity",
    "gate_matrix",
    "make_basis_state",
    "parse_qasm",
    "protocol_layout",
    "register_component_magnitude",
    "run_no_uncompute_variant",
    "run_protocol",
    "run_suite",
    "simulate_qasm",
    "synthesize_swap",
    "to_qasm",
    "verify_amplitude_immutability",
    "verify_transfer",
    "witness_mu_dependence",
    "zero_state",
]
