"""Builder and runner for the inter-branch message-transfer circuit.

The scenario: a qubit Q is measured by a friend F inside a sealed lab, the
measurement outcome is copied into a room record R, and the friend in the
outcome-1 branch writes an n-bit message mu into a memory register M and a
paper register P. The friend's memory is then uncomputed, and an observer
with global control over the lab applies a partial branch swap that
exchanges Q, R, and F between the two branches while leaving the paper
alone. The outcome-0 friend ends up holding a paper that reads mu, in a
branch whose memory and records carry no trace of who wrote it.

Circuit columns, in order, on the layout Q(1) R(1) F(k) M(n) P(n), for a
friend resting in snapshot friend0 and steered to friend1 when Q=1 (the
paper's circuit is the default, k = 1 and "0" -> "1"):

    1. Q preparation realizing amp0|0> + amp1|1>        -> checkpoint eq1
    2. MULTI_X on the 1-bits of friend0 (friend rest, if any), then
       CNOT Q -> F_i for each position of the swap plan
       (steering)                                       -> checkpoint eq2
    3. CNOT C -> R          (room records the outcome)  -> checkpoint eq3
    4. ENCODE_MU on M, controlled on C                  -> checkpoint eq4
    5. TRANSVERSAL_CNOT M -> P  (message to paper)      -> checkpoint eq5
    6. TRANSVERSAL_CNOT P -> M  (memory uncompute)      -> checkpoint eq6
    7. MULTI_X on Q, R, steered F_i (partial branch swap) -> checkpoint eq8

The swap plan is synthesize_swap(friend0, friend1): the friend positions
where the two snapshots differ. Columns 2 and 7 both read it, so the swap
flips exactly the friend qubits on which the two branches differ.

C, the first friend qubit steered from 0 to 1 (else Q), reads 1 exactly in
the Q=1 branch; a qubit steered from 1 to 0 would fire in the Q=0 branch.
eq2 marks the last op before column 3. Label eq7 is reserved for the swap
operation itself rather than a state, so no checkpoint carries it. Column 6
is skipped when uncompute_memory is false, column 7 when apply_branch_swap
is false; their checkpoint labels disappear with them and the final state is
then the last recorded one.

Only column 4 depends on mu, and only column 1 on the amplitudes. One
template Circuit per (n, friend0, friend1, uncompute_memory,
apply_branch_swap, rotated), with a blank encoder and an H preparation, or
RY(0.0) when the amplitudes differ (rotated), is built through the public
constructor and cached with the encoder's index. Every circuit with that
key is template._derive(...) (statevec.Circuit._derive): a copy with the
encoder's payload, and a rotated preparation's angle, replaced and only
those checked and compiled, so the ops Theorem 1 requires to be
message-independent, and their kernels, are the same objects for every
message. The RY angle is never cached: ProtocolConfig(amp1=0.0) ==
ProtocolConfig(amp1=-0.0), yet the first prepares with RY(0.0) and the
second with RY(-0.0), and the JSON export prints that sign.

run_protocol builds its ProtocolRun trusted (statevec._trusted, which skips
the constructor), around a read-only view of the fresh snapshot dict
apply_circuit returns, which the public constructor would copy.
Circuit(...) and ProtocolRun(...) keep every check for every other caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .statevec import (
    SQRT_HALF,
    Circuit,
    GateOp,
    StateVector,
    _integer,
    _real,
    _trusted,
    apply_circuit,
    check_bits,
    protocol_layout,
    zero_state,
)
from .swapsynth import FriendSnapshot, synthesize_swap

AMP_TOL = 1e-12

CHECKPOINT_LABELS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq8")
REFERENCE_LABELS = ("eq2", "eq3", "eq4", "eq5", "eq6", "eq8")


@dataclass(frozen=True)
class Message:
    """Classical n-bit message, written most significant bit first."""

    bits: str

    def __post_init__(self) -> None:
        check_bits(self.bits, "message")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def blank(self) -> bool:
        return set(self.bits) == {"0"}


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of one protocol run.

    Amplitudes are restricted to real non-negative values normalized to
    |amp0|^2 + |amp1|^2 = 1 within 1e-12.
    """

    n: int = 1
    amp0: float = SQRT_HALF
    amp1: float = SQRT_HALF
    uncompute_memory: bool = True
    apply_branch_swap: bool = True

    def __post_init__(self) -> None:
        n = _integer(self.n, "message width")
        if n < 1:
            raise ValueError(f"message width must be an int >= 1, got {self.n!r}")
        object.__setattr__(self, "n", n)
        for name, amp in (("amp0", self.amp0), ("amp1", self.amp1)):
            if not (_real(amp) and math.isfinite(amp)):
                raise ValueError(f"{name} must be a finite real, got {amp!r}")
            if amp < 0:
                raise ValueError(f"{name} must be non-negative, got {amp}")
        total = self.amp0 * self.amp0 + self.amp1 * self.amp1
        if abs(total - 1.0) > AMP_TOL:
            raise ValueError(
                f"amplitudes must satisfy amp0^2 + amp1^2 = 1, got {total!r}"
            )


@dataclass(frozen=True)
class ProtocolRun:
    """A completed run: configuration, checkpoint states, final state."""

    config: ProtocolConfig
    checkpoints: Mapping[str, StateVector]
    final: StateVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "checkpoints", MappingProxyType(dict(self.checkpoints)))


@lru_cache(maxsize=128)
def _shared_parts(
    n: int, friend0: str, friend1: str, uncompute_memory: bool, apply_branch_swap: bool,
    rotated: bool,
) -> tuple[Circuit, int]:
    """The template circuit, checked by the public constructor, with a blank
    encoder and an H preparation, or RY(0.0) when `rotated`; and the
    encoder's index."""
    plan = synthesize_swap(FriendSnapshot(friend0), FriendSnapshot(friend1))
    layout = protocol_layout(n, friend_width=len(friend0))
    q, r = layout.offset("Q"), layout.offset("R")
    m, p = layout.qubits("M"), layout.qubits("P")
    friend = list(zip(layout.qubits("F"), friend0, friend1))
    rest = tuple(f for f, a, _ in friend if a == "1")
    # The plan's positions are 1-based within F.
    steered = tuple(layout.offset("F") + i - 1 for i in plan.x_positions)
    # A qubit steered from 0 to 1 reads 1 in the Q=1 branch only.
    control = next((f for f, a, b in friend if a < b), q)
    ops = [GateOp.ry(0.0, q) if rotated else GateOp.h(q)]
    ops += [GateOp.multi_x(rest)] if rest else []
    ops += [GateOp.cnot(q, f) for f in steered] + [GateOp.cnot(control, r)]
    e = len(ops)  # the encoder's index
    ops += [GateOp.encode("0" * n, m, control=control), GateOp.transversal_cnot(m, p)]
    checkpoints = [(0, "eq1"), (e - 2, "eq2"), (e - 1, "eq3"), (e, "eq4"), (e + 1, "eq5")]
    if uncompute_memory:
        ops.append(GateOp.transversal_cnot(p, m))
        checkpoints.append((len(ops) - 1, "eq6"))
    if apply_branch_swap:
        ops.append(GateOp.multi_x((q, r, *steered)))
        checkpoints.append((len(ops) - 1, "eq8"))
    return Circuit(layout, ops, checkpoints), e


def build_protocol_circuit(
    config: ProtocolConfig, message: Message | None = None,
    friend0: str = "0", friend1: str = "1",
) -> Circuit:
    """Assemble the transfer circuit for a configuration.

    The ENCODE_MU payload is taken from `message`; with no message given the
    payload is blank, which keeps the circuit shape while writing nothing.
    The friend rests in `friend0` and is steered to `friend1` when Q=1.
    The circuit is derived from the cached template (Circuit._derive):
    the encoder, and an RY preparation's angle, are set per call.
    """
    n = config.n
    if message is not None and message.n != n:
        raise ValueError(f"message width {message.n} != configured width {n}")
    payload = message.bits if message is not None else "0" * n

    rotated = abs(config.amp0 - config.amp1) > AMP_TOL
    template, e = _shared_parts(
        n, friend0, friend1, bool(config.uncompute_memory), bool(config.apply_branch_swap),
        rotated,
    )
    parameters: dict[int, str | float] = {e: payload}
    if rotated:
        parameters[0] = 2.0 * math.atan2(config.amp1, config.amp0)
    return template._derive(parameters)


def run_protocol(config: ProtocolConfig, message: Message) -> ProtocolRun:
    """Evolve the all-zero state through the transfer circuit."""
    circuit = build_protocol_circuit(config, message)
    final, snapshots = apply_circuit(zero_state(circuit.layout), circuit)
    fields = {"config": config, "checkpoints": MappingProxyType(snapshots), "final": final}
    return _trusted(ProtocolRun, fields)


def checkpoint_reference_state(
    label: str, config: ProtocolConfig, message: Message
) -> StateVector:
    """Closed-form two-term state expected at a checkpoint.

    Held as its two basis indices and amplitudes, independent of any
    circuit evolution, so simulated checkpoints can be validated against it.
    Defined for labels eq2 through eq6 and eq8, when the configuration
    produces that label.
    """
    if message.n != config.n:
        raise ValueError(f"message width {message.n} != configured width {config.n}")
    if label not in REFERENCE_LABELS:
        raise ValueError(f"no closed-form reference for label {label!r}")
    if (label == "eq6" and not config.uncompute_memory) or (
        label == "eq8" and not config.apply_branch_swap
    ):
        raise ValueError(f"this configuration produces no checkpoint {label!r}")
    n = config.n
    mu = message.bits
    zeros = "0" * n
    base = {"Q": "0", "R": "0", "F": "0", "M": zeros, "P": zeros}
    ones = {"Q": "1", "R": "1", "F": "1"}

    if label == "eq2":
        term0 = base
        term1 = {**base, "Q": "1", "F": "1"}
    elif label == "eq3":
        term0 = base
        term1 = {**base, **ones}
    elif label == "eq4":
        term0 = base
        term1 = {**base, **ones, "M": mu}
    elif label == "eq5":
        term0 = base
        term1 = {**base, **ones, "M": mu, "P": mu}
    elif label == "eq6":
        term0 = base
        term1 = {**base, **ones, "P": mu}
    else:  # eq8: swap exchanges the Q/R/F markers between the two branches
        term0 = {**base, **ones}
        # Without the uncompute the message branch still remembers mu.
        term1 = {**base, "M": zeros if config.uncompute_memory else mu, "P": mu}

    layout = protocol_layout(n)
    return StateVector(
        layout,
        support={
            layout.index_for(term0): config.amp0,
            layout.index_for(term1): config.amp1,
        },
    )
