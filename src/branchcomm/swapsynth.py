"""Synthesis of the friend-swap operator.

When the two branch-resident friends differ in k-qubit snapshots f0 and f1,
the partial branch swap needs an X on exactly the bits where the snapshots
disagree, so its cost is their Hamming distance; identical snapshots
("twins") swap for free. This is the one place that decision is made: the
protocol builder steers and swaps exactly the friend qubits the plan lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .statevec import _integer, check_bits


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

    def __post_init__(self) -> None:
        positions = tuple(_integer(p, "swap position") for p in self.x_positions)
        object.__setattr__(self, "x_positions", positions)
        if list(positions) != sorted(set(positions)):
            raise ValueError(f"positions must be strictly ascending, got {positions}")
        if any(p < 1 for p in positions):
            raise ValueError(f"positions are 1-based, got {positions}")

    @property
    def hamming_cost(self) -> int:
        return len(self.x_positions)

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
    return SwapPlan(positions)
