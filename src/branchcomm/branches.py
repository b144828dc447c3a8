"""Branch decomposition and the message-transfer success predicate.

A branch, for our purposes, is the component of a state with a definite
classical value in one register (here usually the room record R). The
decomposition is an orthogonal projection per register value, so branch
components re-sum exactly to the input and their squared amplitudes are a
probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .protocol import Message, ProtocolRun
from .statevec import RegisterLayout, StateVector, dense_amplitudes, l2_norm

# Amplitudes below this are numerical dust and are treated as zero.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """One register-value component of a state.

    `amplitude` is the component's coefficient when it is a single basis
    vector, and its L2 weight otherwise. `local_state` maps every register
    to its bit-string and is present only for single-basis-vector
    components. `indices` and `values` hold the component's nonzero
    amplitudes in ascending index order (lists from a support-held state,
    arrays from a dense-held one); `component` is the same projection as a
    full-length dense array (unnormalized, read-only), built on first
    access, so decompositions can be re-summed and re-projected.
    """

    label: str
    amplitude: complex
    local_state: dict[str, str] | None
    layout: RegisterLayout = field(compare=False, repr=False)
    indices: Sequence[int] = field(compare=False, repr=False)
    values: Sequence[complex] = field(compare=False, repr=False)

    @cached_property
    def component(self) -> np.ndarray:
        return dense_amplitudes(self.layout, self.indices, self.values)


def _register_blocks(state: StateVector, register: str) -> np.ndarray:
    """A dense-held state's array viewed as (higher bits, register value,
    lower bits), so [:, value, :] is the component where the register reads
    `value`, in ascending index order."""
    shift, mask = state.layout.field(register)
    return state.amplitudes.reshape(-1, mask + 1, 1 << shift)


def _groups(
    state: StateVector, register: str
) -> list[tuple[Sequence[int], Sequence[complex], Sequence[int]]]:
    """(indices, amplitudes, live) per register value that holds a nonzero
    entry, values ascending.

    `indices` and `amplitudes` list the group's nonzero entries in ascending
    index order; `live` gives the positions in them of the amplitudes above
    ZERO_TOL. A support-held state is grouped entry by entry; a dense-held
    state is split by _register_blocks, with no per-entry Python loop.
    """
    shift, mask = state.layout.field(register)
    if not state.dense_held:
        groups: dict[int, tuple[list[int], list[complex], list[int]]] = {}
        for index, amp in state.nonzero_items():
            indices, amps, live = groups.setdefault((index >> shift) & mask, ([], [], []))
            if abs(amp) > ZERO_TOL:
                live.append(len(amps))
            indices.append(index)
            amps.append(amp)
        return [groups[value] for value in sorted(groups)]
    blocks = _register_blocks(state, register)
    high = shift + mask.bit_length()
    low_mask = (1 << shift) - 1
    out = []
    for value in np.flatnonzero(blocks.any(axis=(0, 2))).tolist():
        block = blocks[:, value, :].reshape(-1)
        pos = np.flatnonzero(block)
        indices = ((pos >> shift) << high) | (value << shift) | (pos & low_mask)
        amps = block[pos]
        out.append((indices, amps, np.flatnonzero(np.abs(amps) > ZERO_TOL)))
    return out


def decompose_by_register(state: StateVector, register: str) -> list[Branch]:
    """Split a state into branches by the classical value of one register.

    Branches with no amplitude above ZERO_TOL are dropped. Labels are the
    register's bit-strings, in ascending value order.
    """
    layout = state.layout
    branches: list[Branch] = []
    for indices, amps, live in _groups(state, register):
        if not len(live):
            continue
        if len(live) == 1:
            amplitude = complex(amps[live[0]])
            local_state = layout.assignment_of(int(indices[live[0]]))
            label = local_state[register]
        else:
            amplitude = complex(l2_norm(amps))
            local_state = None
            label = layout.value_of(int(indices[0]), register)
        branches.append(Branch(label, amplitude, local_state, layout, indices, amps))
    return branches


def register_component_magnitude(state: StateVector, register: str, bits: str) -> float:
    """L2 weight of the component where `register` reads exactly `bits`."""
    value = state.layout.value_for(register, bits)
    if state.dense_held:
        # The zeros in the block add +0.0 to each running sum, which leaves
        # it unchanged, so this equals the sum over the nonzero entries.
        return l2_norm(_register_blocks(state, register)[:, value, :].reshape(-1))
    shift, mask = state.layout.field(register)
    return l2_norm(
        amp for index, amp in state.nonzero_items() if (index >> shift) & mask == value
    )


def branches_to_json(branches: list[Branch]) -> list[dict]:
    """JSON-ready branch list: label, [re, im] amplitude, register values."""
    return [
        {
            "label": b.label,
            "amplitude": [b.amplitude.real, b.amplitude.imag],
            "registers": dict(b.local_state) if b.local_state is not None else None,
        }
        for b in branches
    ]


@dataclass(frozen=True)
class TransferVerdict:
    """Outcome of the transfer predicate on a final state.

    On success, failure_reason is None; `note` carries advisories such as a
    blank message having been transferred. Register fields hold what the
    decomposition found and stay None when a branch could not be read.
    """

    success: bool
    receiver_paper: str | None = None
    receiver_memory: str | None = None
    sender_paper: str | None = None
    failure_reason: str | None = None
    note: str | None = None

    def __post_init__(self) -> None:
        if self.success and self.failure_reason is not None:
            raise ValueError("a successful verdict cannot carry a failure reason")


def evaluate_transfer(
    final: StateVector,
    message: Message,
    receiver_friend: str | None = None,
    sender_friend: str | None = None,
) -> TransferVerdict:
    """Transfer predicate on a post-swap final state.

    Success requires the state to split into exactly two single-basis-vector
    branches on R, with the R=0 branch holding paper = message, cleared
    memory, friend in the expected rest value, and Q = 0, and the R=1 branch
    holding blank paper and cleared memory. Friend expectations default to
    all-zeros for the receiver; the sender's friend value is only checked
    when given. A given friend value is parsed by layout.value_for, so a
    malformed one raises ValueError. failure_reason names the first violated
    clause.
    """
    layout = final.layout
    n = layout.width("M")
    if message.n != n:
        raise ValueError(f"message width {message.n} != memory width {n}")
    for friend in (receiver_friend, sender_friend):
        if friend is not None:
            layout.value_for("F", friend)
    if receiver_friend is None:
        receiver_friend = "0" * layout.width("F")
    zeros = "0" * n

    branches = decompose_by_register(final, "R")
    if len(branches) != 2:
        return TransferVerdict(
            False,
            failure_reason=f"expected exactly two branches on R, found {len(branches)}",
        )
    for b in branches:
        if b.local_state is None:
            return TransferVerdict(
                False,
                failure_reason=(
                    f"non-classical branch: R={b.label} component is not a "
                    "single basis state"
                ),
            )
    # Branches come in ascending R order with distinct labels.
    receiver, sender = branches
    if receiver.label != "0" or sender.label != "1":
        return TransferVerdict(
            False,
            failure_reason=f"branch labels {sorted(b.label for b in branches)} "
            "do not cover R=0 and R=1",
        )

    r, s = receiver.local_state, sender.local_state
    if r["P"] != message.bits:
        reason = f"receiver paper '{r['P']}' != message '{message.bits}'"
    elif r["M"] != zeros:
        reason = f"cross-branch memory: receiver memory '{r['M']}' != '{zeros}'"
    elif r["F"] != receiver_friend:
        reason = f"receiver friend '{r['F']}' != expected '{receiver_friend}'"
    elif r["Q"] != "0":
        reason = f"receiver qubit '{r['Q']}' != '0'"
    elif s["P"] != zeros:
        reason = f"sender paper '{s['P']}' is not blank"
    elif s["M"] != zeros:
        reason = f"sender memory '{s['M']}' is not cleared"
    elif sender_friend is not None and s["F"] != sender_friend:
        reason = f"sender friend '{s['F']}' != expected '{sender_friend}'"
    else:
        note = "blank message" if message.blank else None
        return TransferVerdict(True, r["P"], r["M"], s["P"], note=note)
    return TransferVerdict(False, r["P"], r["M"], s["P"], failure_reason=reason)


def verify_transfer(run: ProtocolRun, message: Message) -> TransferVerdict:
    """Transfer predicate on a completed protocol run (swap required)."""
    if not run.config.apply_branch_swap:
        raise ValueError("transfer verification requires a completed branch swap")
    if message.n != run.config.n:
        raise ValueError(
            f"message width {message.n} != configured width {run.config.n}"
        )
    return evaluate_transfer(run.final, message)
