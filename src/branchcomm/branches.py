"""Branch decomposition and the message-transfer success predicate.

A branch, for our purposes, is the component of a state with a definite
classical value in one register (here usually the room record R). The
decomposition is an orthogonal projection per register value, so branch
components re-sum exactly to the input and their squared amplitudes are a
probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .protocol import Message, ProtocolRun
from .statevec import StateVector

# Amplitudes below this are numerical dust and are treated as zero.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Branch:
    """One register-value component of a state.

    `amplitude` is the component's coefficient when it is a single basis
    vector, and its L2 weight otherwise. `local_state` maps every register
    to its bit-string and is present only for single-basis-vector
    components. `component` keeps the raw projected vector (unnormalized,
    full length) so decompositions can be re-summed and re-projected.
    """

    label: str
    amplitude: complex
    local_state: dict[str, str] | None
    component: np.ndarray = field(compare=False, repr=False)


def decompose_by_register(state: StateVector, register: str) -> list[Branch]:
    """Split a state into branches by the classical value of one register.

    Branches with weight below ZERO_TOL are dropped. Labels are the
    register's bit-strings, in ascending value order.
    """
    layout = state.layout
    width = layout.width(register)
    shift = layout.total_qubits - layout.offset(register) - width
    amps = state.amplitudes
    idx = np.arange(amps.shape[0])
    values = (idx >> shift) & ((1 << width) - 1)

    live = np.abs(amps) > ZERO_TOL
    branches: list[Branch] = []
    for value in np.unique(values[live]):
        mask = values == value
        component = np.where(mask, amps, 0.0)
        weight = float(np.linalg.norm(component))
        if weight < ZERO_TOL:
            continue
        support = np.flatnonzero(np.abs(component) > ZERO_TOL)
        if support.shape[0] == 1:
            k = int(support[0])
            amplitude = complex(component[k])
            local_state = layout.assignment_of(k)
        else:
            amplitude = complex(weight)
            local_state = None
        component.setflags(write=False)
        branches.append(
            Branch(format(int(value), f"0{width}b"), amplitude, local_state, component)
        )
    return branches


def register_component_magnitude(state: StateVector, register: str, bits: str) -> float:
    """L2 weight of the component where `register` reads exactly `bits`."""
    layout = state.layout
    width = layout.width(register)
    if len(bits) != width:
        raise ValueError(f"register {register!r} expects {width} bits, got {len(bits)}")
    shift = layout.total_qubits - layout.offset(register) - width
    idx = np.arange(state.dim)
    mask = ((idx >> shift) & ((1 << width) - 1)) == int(bits, 2)
    return float(np.linalg.norm(state.amplitudes[mask]))


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
    when given. failure_reason names the first violated clause.
    """
    layout = final.layout
    n = layout.width("M")
    if message.n != n:
        raise ValueError(f"message width {message.n} != memory width {n}")
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
    by_label = {b.label: b for b in branches}
    receiver = by_label.get("0")
    sender = by_label.get("1")
    if receiver is None or sender is None:
        return TransferVerdict(
            False,
            failure_reason=f"branch labels {sorted(by_label)} do not cover R=0 and R=1",
        )

    r_paper = receiver.local_state["P"]
    r_memory = receiver.local_state["M"]
    s_paper = sender.local_state["P"]
    fields = {
        "receiver_paper": r_paper,
        "receiver_memory": r_memory,
        "sender_paper": s_paper,
    }

    def fail(reason: str) -> TransferVerdict:
        return TransferVerdict(False, failure_reason=reason, **fields)

    if r_paper != message.bits:
        return fail(f"receiver paper '{r_paper}' != message '{message.bits}'")
    if r_memory != zeros:
        return fail(f"cross-branch memory: receiver memory '{r_memory}' != '{zeros}'")
    if receiver.local_state["F"] != receiver_friend:
        return fail(
            f"receiver friend '{receiver.local_state['F']}' != expected "
            f"'{receiver_friend}'"
        )
    if receiver.local_state["Q"] != "0":
        return fail(f"receiver qubit '{receiver.local_state['Q']}' != '0'")
    if s_paper != zeros:
        return fail(f"sender paper '{s_paper}' is not blank")
    if sender.local_state["M"] != zeros:
        return fail(f"sender memory '{sender.local_state['M']}' is not cleared")
    if sender_friend is not None and sender.local_state["F"] != sender_friend:
        return fail(
            f"sender friend '{sender.local_state['F']}' != expected '{sender_friend}'"
        )

    note = "blank message" if message.blank else None
    return TransferVerdict(True, note=note, **fields)


def verify_transfer(run: ProtocolRun, message: Message) -> TransferVerdict:
    """Transfer predicate on a completed protocol run (swap required)."""
    if not run.config.apply_branch_swap:
        raise ValueError("transfer verification requires a completed branch swap")
    if message.n != run.config.n:
        raise ValueError(
            f"message width {message.n} != configured width {run.config.n}"
        )
    return evaluate_transfer(run.final, message)
