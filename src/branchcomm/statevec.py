"""Dense statevector engine over named qubit registers.

Index convention: registers are concatenated in layout order to form the
global basis index, most significant bit first, and within a register bit 0
is the register's most significant bit. A basis label therefore reads left
to right exactly like the ket it denotes: for registers Q(1), R(1), F(1),
the assignment {Q: "1", R: "1", F: "1"} is global index 0b111 = 7.

States are immutable value objects; every operation returns a new state and
never touches its input.

Five gate kinds (X, MULTI_X, CNOT, ENCODE_MU, TRANSVERSAL_CNOT) only permute
basis states. Each compiles to an ordered list of (control mask C, flip
mask F) pairs, applied in turn; a pair flips the bits of F in every basis
index whose C bits are all set, with bit masks taken over the global index.
These pairs are the single description of those kinds: the vector kernel,
gate_matrix and the QASM emitter all read them. H and RY mix the two values
of one qubit and have their own kernel. The route that shares no code with
this module is the Kronecker-product oracle in tests/helpers.py.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

SQRT_HALF = math.sqrt(0.5)

# Dense operator construction is quadratic in the state dimension; past this
# many qubits a single matrix no longer fits comfortably in memory.
GATE_MATRIX_QUBIT_LIMIT = 12


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    RY = "RY"
    CNOT = "CNOT"
    MULTI_X = "MULTI_X"
    ENCODE_MU = "ENCODE_MU"
    TRANSVERSAL_CNOT = "TRANSVERSAL_CNOT"


def check_bits(bits: str, what: str) -> str:
    """Return bits if it is a nonempty string over {0,1}, else raise ValueError."""
    if not isinstance(bits, str) or not bits or any(c not in "01" for c in bits):
        raise ValueError(f"{what} must be a nonempty string over {{0,1}}, got {bits!r}")
    return bits


@dataclass(frozen=True)
class RegisterLayout:
    """Named, ordered qubit registers packed into one global index space."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        regs = tuple((str(name), int(width)) for name, width in self.registers)
        object.__setattr__(self, "registers", regs)
        seen: set[str] = set()
        for name, width in regs:
            if not name:
                raise ValueError("register names must be nonempty")
            if name in seen:
                raise ValueError(f"duplicate register name {name!r}")
            if width < 1:
                raise ValueError(f"register {name!r} must have width >= 1, got {width}")
            seen.add(name)

    @cached_property
    def _offsets(self) -> dict[str, tuple[int, int]]:
        table: dict[str, tuple[int, int]] = {}
        pos = 0
        for name, width in self.registers:
            table[name] = (pos, width)
            pos += width
        return table

    @property
    def total_qubits(self) -> int:
        return sum(width for _, width in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def _entry(self, name: str) -> tuple[int, int]:
        try:
            return self._offsets[name]
        except KeyError:
            raise ValueError(f"unknown register {name!r}; have {self.names}") from None

    def offset(self, name: str) -> int:
        """Global position (0 = most significant) of the register's bit 0."""
        return self._entry(name)[0]

    def width(self, name: str) -> int:
        return self._entry(name)[1]

    def qubits(self, name: str) -> tuple[int, ...]:
        """Global qubit positions of the register, most significant first."""
        off, width = self._entry(name)
        return tuple(range(off, off + width))

    def index_for(self, assignment: Mapping[str, str]) -> int:
        """Global basis index of a full classical assignment."""
        extra = set(assignment) - set(self.names)
        if extra:
            raise ValueError(f"assignment names unknown registers {sorted(extra)}")
        index = 0
        for name, width in self.registers:
            if name not in assignment:
                raise ValueError(f"assignment missing register {name!r}")
            bits = check_bits(assignment[name], f"register {name!r} value")
            if len(bits) != width:
                raise ValueError(
                    f"register {name!r} expects {width} bits, got {len(bits)}"
                )
            index = (index << width) | int(bits, 2)
        return index

    def value_of(self, index: int, name: str) -> str:
        """Bit-string held by one register at a global basis index."""
        off, width = self._entry(name)
        shift = self.total_qubits - off - width
        return format((index >> shift) & ((1 << width) - 1), f"0{width}b")

    def assignment_of(self, index: int) -> dict[str, str]:
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range for {self.total_qubits} qubits")
        return {name: self.value_of(index, name) for name, _ in self.registers}


def protocol_layout(n: int, friend_width: int = 1) -> RegisterLayout:
    """Canonical transfer layout: Q(1), R(1), F(friend_width), M(n), P(n)."""
    if n < 1:
        raise ValueError(f"message width must be >= 1, got {n}")
    if friend_width < 1:
        raise ValueError(f"friend width must be >= 1, got {friend_width}")
    return RegisterLayout(
        (("Q", 1), ("R", 1), ("F", friend_width), ("M", n), ("P", n))
    )


@dataclass(frozen=True)
class StateVector:
    """Immutable amplitude vector over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != self.layout.dim:
            raise ValueError(
                f"amplitude vector must have length {self.layout.dim}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        if arr is self.amplitudes and arr.flags.writeable:
            arr = arr.copy()
        if arr.flags.writeable:
            arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def make_basis_state(layout: RegisterLayout, assignment: Mapping[str, str]) -> StateVector:
    """Computational basis state for a full classical register assignment."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_for(assignment)] = 1.0
    amps.setflags(write=False)
    return StateVector(layout, amps)


def zero_state(layout: RegisterLayout) -> StateVector:
    """All-registers-zero basis state."""
    return make_basis_state(layout, {name: "0" * w for name, w in layout.registers})


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, target qubits, optional controls, optional payload.

    Payload is the bit-string written by ENCODE_MU; angle parameterizes RY.
    Global qubit positions follow the layout convention (0 = most significant).
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    payload: str | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "controls", tuple(int(c) for c in self.controls))

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, target: int) -> "GateOp":
        return cls(GateKind.X, (target,))

    @classmethod
    def h(cls, target: int) -> "GateOp":
        return cls(GateKind.H, (target,))

    @classmethod
    def ry(cls, angle: float, target: int) -> "GateOp":
        return cls(GateKind.RY, (target,), angle=float(angle))

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateOp":
        return cls(GateKind.CNOT, (target,), (control,))

    @classmethod
    def multi_x(cls, targets: Iterable[int]) -> "GateOp":
        return cls(GateKind.MULTI_X, tuple(targets))

    @classmethod
    def encode(
        cls, payload: str, targets: Iterable[int], control: int | None = None
    ) -> "GateOp":
        controls = () if control is None else (control,)
        return cls(GateKind.ENCODE_MU, tuple(targets), controls, payload=payload)

    @classmethod
    def transversal_cnot(
        cls, controls: Iterable[int], targets: Iterable[int]
    ) -> "GateOp":
        return cls(GateKind.TRANSVERSAL_CNOT, tuple(targets), tuple(controls))

    # -- structure ---------------------------------------------------------

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def validate(self, layout: RegisterLayout) -> None:
        total = layout.total_qubits
        touched = self.qubits
        if not self.targets:
            raise ValueError(f"{self.kind.value} op has no targets")
        for q in touched:
            if not 0 <= q < total:
                raise ValueError(f"qubit {q} out of range for {total}-qubit layout")
        if len(set(touched)) != len(touched):
            raise ValueError(f"{self.kind.value} op reuses a qubit: {touched}")

        kind = self.kind
        if kind in (GateKind.X, GateKind.H, GateKind.RY):
            if len(self.targets) != 1 or self.controls:
                raise ValueError(f"{kind.value} takes exactly one target and no controls")
            if kind is GateKind.RY and self.angle is None:
                raise ValueError("RY requires an angle")
        elif kind is GateKind.CNOT:
            if len(self.targets) != 1 or len(self.controls) != 1:
                raise ValueError("CNOT takes exactly one control and one target")
        elif kind is GateKind.MULTI_X:
            if self.controls:
                raise ValueError("MULTI_X takes no controls")
        elif kind is GateKind.ENCODE_MU:
            if self.payload is None:
                raise ValueError("ENCODE_MU requires a payload bit-string")
            check_bits(self.payload, "ENCODE_MU payload")
            if len(self.payload) != len(self.targets):
                raise ValueError(
                    f"ENCODE_MU payload width {len(self.payload)} != "
                    f"target register width {len(self.targets)}"
                )
        elif kind is GateKind.TRANSVERSAL_CNOT:
            if len(self.controls) != len(self.targets):
                raise ValueError(
                    "TRANSVERSAL_CNOT pairs registers bitwise; control and "
                    "target widths must match"
                )
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown gate kind {kind!r}")

    def inverse(self) -> "GateOp":
        """Inverse gate; every kind here is self-inverse except RY."""
        if self.kind is GateKind.RY:
            return GateOp(self.kind, self.targets, self.controls, angle=-self.angle)
        return self


@dataclass(frozen=True)
class Circuit:
    """Validated gate sequence with labeled checkpoints.

    A checkpoint (op_index, label) snapshots the state right after
    ops[op_index] has been applied.
    """

    layout: RegisterLayout
    ops: tuple[GateOp, ...]
    checkpoints: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        object.__setattr__(
            self, "checkpoints", tuple((int(i), str(l)) for i, l in self.checkpoints)
        )
        for op in self.ops:
            op.validate(self.layout)
        labels = [label for _, label in self.checkpoints]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate checkpoint labels in {labels}")
        for op_index, label in self.checkpoints:
            if not 0 <= op_index < len(self.ops):
                raise ValueError(
                    f"checkpoint {label!r} attached to op {op_index}, "
                    f"but circuit has {len(self.ops)} ops"
                )

    @property
    def gate_count(self) -> int:
        return len(self.ops)

    @property
    def layer_depth(self) -> int:
        """Greedy layering: ops sharing no qubit may share a layer."""
        frontier: dict[int, int] = {}
        depth = 0
        for op in self.ops:
            layer = 1 + max((frontier.get(q, 0) for q in op.qubits), default=0)
            for q in op.qubits:
                frontier[q] = layer
            depth = max(depth, layer)
        return depth

    def inverse(self) -> "Circuit":
        return Circuit(self.layout, tuple(op.inverse() for op in reversed(self.ops)))


# ---------------------------------------------------------------------------
# gate application kernels


def _mask(total: int, qubits: Iterable[int]) -> int:
    """Global-index bit mask of distinct qubit positions."""
    return sum(1 << (total - 1 - q) for q in qubits)


def flip_pairs(op: GateOp, total: int) -> tuple[tuple[int, int], ...]:
    """(control mask, flip mask) pairs of a basis-permuting op, in order."""
    kind = op.kind
    if kind is GateKind.TRANSVERSAL_CNOT:
        return tuple(
            (_mask(total, (c,)), _mask(total, (t,)))
            for c, t in zip(op.controls, op.targets)
        )
    if kind is GateKind.ENCODE_MU:
        flipped = [t for bit, t in zip(op.payload, op.targets) if bit == "1"]
    elif kind in (GateKind.X, GateKind.MULTI_X, GateKind.CNOT):
        flipped = op.targets
    else:
        raise ValueError(f"{kind.value} is not a basis permutation")
    return ((_mask(total, op.controls), _mask(total, flipped)),)


def _permute(
    amps: np.ndarray, pairs: tuple[tuple[int, int], ...], total: int
) -> np.ndarray:
    """out[i] = amps[source(i)] for the permutation the pairs describe."""
    out = amps.reshape((2,) * total).copy()
    bits = [1 << (total - 1 - q) for q in range(total)]
    for cmask, fmask in pairs:
        # Length-1 slices keep every axis, so axis q stays qubit q.
        view = out[tuple(slice(1, 2) if cmask & b else slice(None) for b in bits)]
        view[...] = np.flip(view, tuple(q for q, b in enumerate(bits) if fmask & b))
    return out.reshape(-1)


def _apply_kernel(amps: np.ndarray, op: GateOp, total: int) -> np.ndarray:
    kind = op.kind
    if kind in (GateKind.H, GateKind.RY):
        t = op.targets[0]
        pre, post = 1 << t, 1 << (total - 1 - t)
        a = amps.reshape(pre, 2, post)
        out = np.empty_like(a)
        if kind is GateKind.H:
            out[:, 0, :] = (a[:, 0, :] + a[:, 1, :]) * SQRT_HALF
            out[:, 1, :] = (a[:, 0, :] - a[:, 1, :]) * SQRT_HALF
        else:
            c, s = math.cos(op.angle / 2.0), math.sin(op.angle / 2.0)
            out[:, 0, :] = c * a[:, 0, :] - s * a[:, 1, :]
            out[:, 1, :] = s * a[:, 0, :] + c * a[:, 1, :]
        return out.reshape(-1)
    return _permute(amps, flip_pairs(op, total), total)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; returns a new state, input untouched."""
    op.validate(state.layout)
    out = _apply_kernel(state.amplitudes, op, state.layout.total_qubits)
    out.setflags(write=False)
    return StateVector(state.layout, out)


def apply_circuit(
    state: StateVector, circuit: Circuit
) -> tuple[StateVector, dict[str, StateVector]]:
    """Run a circuit, returning the final state and checkpoint snapshots.

    Snapshots are keyed by checkpoint label, in execution order. An empty
    circuit returns the input state unchanged and no snapshots.
    """
    if circuit.layout != state.layout:
        raise ValueError("circuit layout does not match state layout")
    if not circuit.ops:
        return state, {}
    snap_at: dict[int, list[str]] = {}
    for op_index, label in circuit.checkpoints:
        snap_at.setdefault(op_index, []).append(label)

    total = state.layout.total_qubits
    amps = state.amplitudes
    snapshots: dict[str, StateVector] = {}
    for i, op in enumerate(circuit.ops):
        amps = _apply_kernel(amps, op, total)
        amps.setflags(write=False)
        for label in snap_at.get(i, ()):
            snapshots[label] = StateVector(state.layout, amps)
    return StateVector(state.layout, amps), snapshots


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def gate_matrix(op: GateOp, layout: RegisterLayout) -> np.ndarray:
    """Dense unitary of one gate on the full index space.

    Guarded at GATE_MATRIX_QUBIT_LIMIT qubits. Permutation kinds scatter the
    source index the flip pairs give each output index, so they share their
    definition with apply_gate; the Kronecker oracle in tests/helpers.py is
    the independent check.
    """
    total = layout.total_qubits
    if total > GATE_MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"gate_matrix is dense and limited to {GATE_MATRIX_QUBIT_LIMIT} "
            f"qubits; layout has {total}"
        )
    op.validate(layout)
    dim = 1 << total
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    if op.kind in (GateKind.H, GateKind.RY):
        mask = _mask(total, op.targets)
        idx = np.arange(dim)
        i0 = idx[(idx & mask) == 0]
        i1 = i0 + mask
        if op.kind is GateKind.H:
            matrix[i0, i0] = SQRT_HALF
            matrix[i0, i1] = SQRT_HALF
            matrix[i1, i0] = SQRT_HALF
            matrix[i1, i1] = -SQRT_HALF
        else:
            c, s = math.cos(op.angle / 2.0), math.sin(op.angle / 2.0)
            matrix[i0, i0] = c
            matrix[i0, i1] = -s
            matrix[i1, i0] = s
            matrix[i1, i1] = c
    else:
        src = _permute(np.arange(dim), flip_pairs(op, total), total)
        matrix[np.arange(dim), src] = 1.0
    return matrix
