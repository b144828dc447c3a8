"""Branch decomposition and the message-transfer success predicate.

A branch, for our purposes, is the component of a state with a definite
classical value in one register (here usually the room record R). The
decomposition is an orthogonal projection per register value, so branch
components re-sum exactly to the input and their squared amplitudes are a
probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .protocol import Message, ProtocolRun, check_message_width
from .statevec import RegisterLayout, StateVector, _trusted, l2_norm

# Amplitudes below this are numerical dust and are treated as zero.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """One register-value component of a state.

    `amplitude` is the component's coefficient when it is a single basis
    vector, and its L2 weight otherwise. `local_state` maps every register
    to its bit-string and is present only for single-basis-vector
    components. `indices` and `values` list the component's nonzero
    amplitudes in ascending index order: the unnormalized projection.
    """

    label: str
    amplitude: complex
    local_state: dict[str, str] | None
    layout: RegisterLayout = field(compare=False, repr=False)
    indices: Sequence[int] = field(compare=False, repr=False)
    values: Sequence[complex] = field(compare=False, repr=False)


def _groups(
    state: StateVector, register: str
) -> list[tuple[list[int], list[complex], list[int]]]:
    """(indices, amplitudes, live) per register value that holds a nonzero
    entry, values ascending.

    `indices` and `amplitudes` list the group's nonzero entries in ascending
    index order; `live` gives the positions in them of the amplitudes above
    ZERO_TOL.
    """
    shift, mask = state.layout.field(register)
    groups: dict[int, tuple[list[int], list[complex], list[int]]] = {}
    for index, amp in state.nonzero_items():
        indices, amps, live = groups.setdefault((index >> shift) & mask, ([], [], []))
        if abs(amp) > ZERO_TOL:
            live.append(len(amps))
        indices.append(index)
        amps.append(amp)
    return [groups[value] for value in sorted(groups)]


def decompose_by_register(state: StateVector, register: str) -> list[Branch]:
    """Split a state into branches by the classical value of one register.

    Branches with no amplitude above ZERO_TOL are dropped. Labels are the
    register's bit-strings, in ascending value order.
    """
    layout = state.layout
    branches: list[Branch] = []
    for indices, amps, live in _groups(state, register):
        if not live:
            continue
        if len(live) == 1:
            amplitude = amps[live[0]]
            local_state = layout.assignment_of(indices[live[0]])
            label = local_state[register]
        else:
            amplitude = complex(l2_norm(amps))
            local_state = None
            label = layout.value_of(indices[0], register)
        branches.append(Branch(label, amplitude, local_state, layout, indices, amps))
    return branches


def register_component_magnitude(state: StateVector, register: str, bits: str) -> float:
    """L2 weight of the component where `register` reads exactly `bits`."""
    value = state.layout.value_for(register, bits)
    shift, mask = state.layout.field(register)
    return l2_norm(
        amp for index, amp in state.nonzero_items() if (index >> shift) & mask == value
    )


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

    The final state is grouped on R by _groups, the grouping
    decompose_by_register uses, and each clause reads its register's value
    at a branch's basis index as an int (layout.field), in the order above.
    Bit-strings are formatted only for a failure: the failing clause's text
    and the verdict's three register fields. A success's fields are the
    message and blank strings the clauses matched.
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

    # Each branch on R that decompose_by_register would keep, as its
    # indices and the positions of its amplitudes above ZERO_TOL.
    found = [(indices, live) for indices, _, live in _groups(final, "R") if live]
    if len(found) != 2:
        return TransferVerdict(
            False, failure_reason=f"expected exactly two branches on R, found {len(found)}",
        )
    for indices, live in found:
        if len(live) != 1:
            return TransferVerdict(
                False,
                failure_reason=(
                    f"non-classical branch: R={layout.value_of(indices[0], 'R')} "
                    "component is not a single basis state"
                ),
            )
    # Two single-basis-vector branches, in ascending R order: one index
    # each. They are R=0 and R=1 exactly when R is one bit wide.
    (receiver, (r_at,)), (sender, (s_at,)) = found
    r, s = receiver[r_at], sender[s_at]
    if layout.width("R") != 1:
        labels = [layout.value_of(r, "R"), layout.value_of(s, "R")]
        return TransferVerdict(
            False, failure_reason=f"branch labels {labels} do not cover R=0 and R=1",
        )

    # Each clause reads a register's value as an int. As in a comparison of
    # bit-strings, one of another width never matches: M is n bits wide, so
    # P is when pm == mm, which the first clause requires, and Q is one bit
    # wide when qm == 1.
    (ps, pm), (ms, mm), (fs, fm), (qs, qm) = map(layout.field, "PMFQ")
    value_of = layout.value_of
    if pm != mm or (r >> ps) & pm != int(message.bits, 2):
        reason = f"receiver paper '{value_of(r, 'P')}' != message '{message.bits}'"
    elif (r >> ms) & mm:
        reason = f"cross-branch memory: receiver memory '{value_of(r, 'M')}' != '{zeros}'"
    elif (r >> fs) & fm != int(receiver_friend, 2):
        reason = f"receiver friend '{value_of(r, 'F')}' != expected '{receiver_friend}'"
    elif qm != 1 or (r >> qs) & qm:
        reason = f"receiver qubit '{value_of(r, 'Q')}' != '0'"
    elif (s >> ps) & pm:
        reason = f"sender paper '{value_of(s, 'P')}' is not blank"
    elif (s >> ms) & mm:
        reason = f"sender memory '{value_of(s, 'M')}' is not cleared"
    elif sender_friend is not None and (s >> fs) & fm != int(sender_friend, 2):
        reason = f"sender friend '{value_of(s, 'F')}' != expected '{sender_friend}'"
    else:
        # Every clause held, so the three fields read the expected bits. A
        # success carries no failure reason, the one thing the constructor
        # checks.
        return _trusted(TransferVerdict, {
            "success": True, "receiver_paper": message.bits, "receiver_memory": zeros,
            "sender_paper": zeros, "failure_reason": None,
            "note": "blank message" if message.blank else None,
        })
    return TransferVerdict(
        False, value_of(r, "P"), value_of(r, "M"), value_of(s, "P"), failure_reason=reason,
    )


def verify_transfer(run: ProtocolRun, message: Message) -> TransferVerdict:
    """Transfer predicate on a completed protocol run (swap required)."""
    if not run.config.apply_branch_swap:
        raise ValueError("transfer verification requires a completed branch swap")
    check_message_width(message, run.config.n)
    return evaluate_transfer(run.final, message)
