"""Synthesis of the friend-swap operator and the wide-friend demo.

When the two branch-resident friends differ in k-qubit snapshots f0 and f1,
the partial branch swap needs an X on exactly the bits where the snapshots
disagree, so its cost is their Hamming distance; identical snapshots
("twins") swap for free. The demo runs build_protocol_circuit's circuit,
whose record and encoder sit on a friend qubit or on Q, never on R.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branches import TransferVerdict, evaluate_transfer
from .protocol import Message, ProtocolConfig, build_protocol_circuit
from .statevec import (
    GateOp,
    StateVector,
    _integer,
    apply_circuit,
    apply_gate,
    check_bits,
    zero_state,
)


@dataclass(frozen=True)
class FriendSnapshot:
    """Classical snapshot of a friend register, bit 0 most significant."""

    bits: str

    def __post_init__(self) -> None:
        check_bits(self.bits, "snapshot")

    @property
    def width(self) -> int:
        return len(self.bits)


@dataclass(frozen=True)
class SwapPlan:
    """X placements that exchange two friend snapshots.

    Positions are 1-based within the friend register and sorted ascending;
    the cost is their count, the Hamming distance between the snapshots.
    """

    x_positions: tuple[int, ...]
    hamming_cost: int

    def __post_init__(self) -> None:
        positions = tuple(_integer(p, "swap position") for p in self.x_positions)
        object.__setattr__(self, "x_positions", positions)
        object.__setattr__(self, "hamming_cost", _integer(self.hamming_cost, "swap cost"))
        if list(positions) != sorted(set(positions)):
            raise ValueError(f"positions must be strictly ascending, got {positions}")
        if any(p < 1 for p in positions):
            raise ValueError(f"positions are 1-based, got {positions}")
        if self.hamming_cost != len(positions):
            raise ValueError(
                f"cost {self.hamming_cost} != number of positions {len(positions)}"
            )

    def operator_string(self) -> str:
        if not self.x_positions:
            return "identity"
        return " ".join(f"X_{p}" for p in self.x_positions)

    def to_dict(self) -> dict:
        return {"positions": list(self.x_positions), "cost": self.hamming_cost}


def synthesize_swap(friend0: FriendSnapshot, friend1: FriendSnapshot) -> SwapPlan:
    """X positions (1-based) where the two snapshots differ."""
    if friend0.width != friend1.width:
        raise ValueError(
            f"snapshot widths differ: {friend0.width} != {friend1.width}"
        )
    positions = tuple(
        i + 1 for i, (a, b) in enumerate(zip(friend0.bits, friend1.bits)) if a != b
    )
    return SwapPlan(positions, len(positions))


def apply_swap_plan(state: StateVector, plan: SwapPlan, register: str) -> StateVector:
    """Apply a plan's X gates inside one named register."""
    layout = state.layout
    width = layout.width(register)
    if plan.x_positions and plan.x_positions[-1] > width:
        raise ValueError(
            f"plan touches position {plan.x_positions[-1]}, but register "
            f"{register!r} has width {width}"
        )
    if not plan.x_positions:
        return state
    offset = layout.offset(register)
    return apply_gate(
        state, GateOp.multi_x(tuple(offset + p - 1 for p in plan.x_positions))
    )


def wide_friend_protocol_demo(
    friend0: FriendSnapshot, friend1: FriendSnapshot, message: Message
) -> TransferVerdict:
    """Full transfer between branches whose friends hold arbitrary snapshots.

    build_protocol_circuit rests the friend in friend0 and steers it to
    friend1 when Q=1; the record and the encoder are controlled on the first
    qubit steered from 0 to 1 (else on Q), and the swap applies X to Q, R and
    the synthesize_swap positions, none for identical snapshots.
    """
    circuit = build_protocol_circuit(
        ProtocolConfig(n=message.n), message, friend0.bits, friend1.bits
    )
    final, _ = apply_circuit(zero_state(circuit.layout), circuit)
    return evaluate_transfer(
        final, message, receiver_friend=friend0.bits, sender_friend=friend1.bits
    )
