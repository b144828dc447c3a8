"""Synthesis of the friend-swap operator and the wide-friend demo.

When the two branch-resident friends differ in k-qubit snapshots f0 and f1,
the partial branch swap needs an X on exactly the bits where the snapshots
disagree. The cost of the swap is therefore the Hamming distance between
the snapshots; identical snapshots ("twins") swap for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branches import TransferVerdict, evaluate_transfer
from .protocol import Message
from .statevec import (
    Circuit,
    GateOp,
    StateVector,
    apply_circuit,
    apply_gate,
    check_bits,
    protocol_layout,
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
        positions = tuple(int(p) for p in self.x_positions)
        object.__setattr__(self, "x_positions", positions)
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

    Layout Q(1) R(1) F(k) M(n) P(n). The friend register is prepared in
    friend0 and steered to friend1 in the Q=1 branch, the room record is
    set from Q, the message is written and uncomputed in the R=1 branch,
    and the final swap block applies X to Q, R, and the synthesized friend
    positions. Identical snapshots need no friend X at all.
    """
    if friend0.width != friend1.width:
        raise ValueError(
            f"snapshot widths differ: {friend0.width} != {friend1.width}"
        )
    plan = synthesize_swap(friend0, friend1)
    layout = protocol_layout(message.n, friend_width=friend0.width)
    q = layout.offset("Q")
    r = layout.offset("R")
    f = layout.qubits("F")
    m = layout.qubits("M")
    p = layout.qubits("P")

    ops: list[GateOp] = [GateOp.h(q)]
    rest_targets = tuple(f[i] for i, bit in enumerate(friend0.bits) if bit == "1")
    if rest_targets:
        ops.append(GateOp.multi_x(rest_targets))
    for position in plan.x_positions:
        ops.append(GateOp.cnot(q, f[position - 1]))
    ops.append(GateOp.cnot(q, r))
    ops.append(GateOp.encode(message.bits, m, control=r))
    ops.append(GateOp.transversal_cnot(m, p))
    ops.append(GateOp.transversal_cnot(p, m))
    swap_targets = (q, r) + tuple(f[position - 1] for position in plan.x_positions)
    ops.append(GateOp.multi_x(swap_targets))

    final, _ = apply_circuit(zero_state(layout), Circuit(layout, tuple(ops)))
    return evaluate_transfer(
        final, message, receiver_friend=friend0.bits, sender_friend=friend1.bits
    )
