"""Statevector engine over named qubit registers.

Index convention: registers are concatenated in layout order to form the
global basis index, most significant bit first, and within a register bit 0
is the register's most significant bit. A basis label therefore reads left
to right exactly like the ket it denotes: for registers Q(1), R(1), F(1),
the assignment {Q: "1", R: "1", F: "1"} is global index 0b111 = 7.

States are immutable value objects; every operation returns a new state and
never touches its input. Every state holds its support: a dict from basis
index to amplitude, which apply_gate and apply_circuit evolve, so a circuit
started from a basis state costs time and memory in its support size, not
in 2^n. make_basis_state, zero_state and the protocol's closed-form
reference states list their support directly; an amplitude array given by
the caller lists every entry whose float64 bit pattern is nonzero, and is
not kept. Every state builds its `.amplitudes` from its support on first
access, up to STATE_QUBIT_LIMIT qubits.

Five gate kinds (X, MULTI_X, CNOT, ENCODE_MU, TRANSVERSAL_CNOT) only permute
basis states, and are described by the op's own fields. X, MULTI_X, CNOT and
ENCODE_MU flip the qubits GateOp.flipped names in every basis index whose
control bits are all set: one (control mask, flip mask) pair, with bit masks
taken over the global index. A TRANSVERSAL_CNOT's (control, target) pairs
touch pairwise distinct qubits, so they commute, and together they map an
index i to i ^ spread(i & C), where spread shifts each control bit onto its
target, one shift per control-to-target distance (the linear reversible
view of Patel, Markov & Hayes, quant-ph/0302002). So its kernel holds one
control mask per distance, and a support entry costs one shift per
distance, not one test per pair. Each mask is parsed in one pass from a
base-2 string, in time linear in the layout's width, so the protocol's
circuit is built in time and memory linear in the message width. The QASM
emitter reads the same fields.

What repeats from run to run is checked and compiled once. A GateOp is a
plain value of its five fields. A Circuit checks each op for its width
(GateOp._check) and keeps each op's kernel, built by _compile_entry, the
one place where a gate kind becomes code, with the labels to snapshot after
each op; apply_circuit reads both, and apply_gate and gate_matrix take the
kernel of a one-op Circuit. Circuit._derive copies a circuit with new
ENCODE_MU payloads or RY angles: GateOp._derive reruns only the checks
that read that field, and each replaced op's kernel comes from its kernel
family (_compile_entry with family=True), which the template builds on the
first _derive at that op and keeps. A family holds what reads only the
op's qubits, an RY's target bit or an encoder's control mask, and computes
per op what reads the parameter: RY's coefficients, the encoder's flip
mask over op.flipped. Every other op and kernel is the template's own, so
a derived circuit costs only what its new parameters change, and a Circuit
never derived from builds no family. The protocol builds each run's
circuit that way from a template it checked once. protocol_layout is
cached, since a RegisterLayout is immutable, and zero_state holds
{0: 1+0j}, the all-zero index in every layout.

A value object whose fields have all passed its constructor's checks
already is built by _trusted, which skips the constructor: the copies
GateOp._derive and Circuit._derive make, and in protocol and branches a
ProtocolRun and a success verdict. _state wraps a kernel's output the
same way, writing its three fields itself. Every public constructor keeps
all its checks.

H and RY mix the two values of one qubit: each (i, i|t) pair with a listed
entry goes through _mix on Python complex scalars, an unlisted partner read
as 0j. gate_matrix fills column j with the kernel run on {j: 1+0j}, so its
columns are apply_gate's bytes for every kind by construction. The route
that shares no code with this module is the Kronecker-product oracle in
tests/helpers.py.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_J = complex(SQRT_HALF)

# Dense operator construction is quadratic in the state dimension; past this
# many qubits a single matrix no longer fits comfortably in memory.
GATE_MATRIX_QUBIT_LIMIT = 12

# Widest state whose dense array may be built: 2^20 amplitudes, 16 MiB.
# The widest protocol state densified in use is 19 qubits (n = 8); the next
# protocol width, 21 qubits, would make the `run` document's text alone
# several GiB.
STATE_QUBIT_LIMIT = 20

_T = TypeVar("_T")


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    RY = "RY"
    CNOT = "CNOT"
    MULTI_X = "MULTI_X"
    ENCODE_MU = "ENCODE_MU"
    TRANSVERSAL_CNOT = "TRANSVERSAL_CNOT"


# The kinds a protocol run's derived ops are checked and compiled by, as
# module globals: GateKind.RY is an attribute lookup on the enum class,
# about 0.1 us on CPython 3.11, and each run reads them several times.
_H, _RY, _ENCODE_MU = GateKind.H, GateKind.RY, GateKind.ENCODE_MU


def check_bits(bits: str, what: str) -> str:
    """Return bits if it is a nonempty string over {0,1}, else raise ValueError."""
    if not isinstance(bits, str) or not bits or bits.strip("01"):
        raise ValueError(f"{what} must be a nonempty string over {{0,1}}, got {bits!r}")
    return bits


def _integer(value: object, what: str) -> int:
    """value as an int if it is integral (numpy integers too) and not a bool,
    else ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _real(value: object) -> bool:
    """True for a float or another real number, numpy's included, but not a bool."""
    return type(value) is float or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


@dataclass(frozen=True)
class RegisterLayout:
    """Named, ordered qubit registers packed into one global index space, and
    the one reader of register fields (field, value_of) and values (value_for)."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        regs = tuple((str(n), _integer(w, f"register {n!r} width")) for n, w in self.registers)
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
    def _offsets(self) -> dict[str, tuple[int, int, int, int, str]]:
        """(offset, width, shift, mask, format spec) per register, in layout order."""
        table = {}
        pos = 0
        for name, width in self.registers:
            pos += width
            shift, mask = self.total_qubits - pos, (1 << width) - 1
            table[name] = (pos - width, width, shift, mask, f"0{width}b")
        return table

    @cached_property
    def total_qubits(self) -> int:
        return sum(width for _, width in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.registers)

    def _entry(self, name: str) -> tuple[int, int, int, int, str]:
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
        off, width, *_ = self._entry(name)
        return tuple(range(off, off + width))

    def field(self, name: str) -> tuple[int, int]:
        """(shift, mask) such that (index >> shift) & mask is the register's value."""
        return self._entry(name)[2:4]

    def value_for(self, name: str, bits: str) -> int:
        """A register's bit-string as an int; a malformed or wrong-width one raises."""
        width = self.width(name)
        if len(check_bits(bits, f"register {name!r} value")) != width:
            raise ValueError(f"register {name!r} expects {width} bits, got {len(bits)}")
        return int(bits, 2)

    def index_for(self, assignment: Mapping[str, str]) -> int:
        """Global basis index of a full classical assignment."""
        extra = set(assignment) - set(self.names)
        if extra:
            raise ValueError(f"assignment names unknown registers {sorted(extra)}")
        index = 0
        for name, width in self.registers:
            if name not in assignment:
                raise ValueError(f"assignment missing register {name!r}")
            index = (index << width) | self.value_for(name, assignment[name])
        return index

    def value_of(self, index: int, name: str) -> str:
        """Bit-string held by one register at a global basis index."""
        _, _, shift, mask, spec = self._entry(name)
        return format((index >> shift) & mask, spec)

    def assignment_of(self, index: int) -> dict[str, str]:
        """Bit-string of every register at a global basis index, layout order."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range for {self.total_qubits} qubits")
        return {name: self.value_of(index, name) for name in self.names}


@lru_cache(maxsize=128)
def protocol_layout(n: int, friend_width: int = 1) -> RegisterLayout:
    """Canonical transfer layout: Q(1), R(1), F(friend_width), M(n), P(n).

    Cached: a RegisterLayout is immutable, so every caller may share one.
    """
    if n < 1:
        raise ValueError(f"message width must be >= 1, got {n}")
    if friend_width < 1:
        raise ValueError(f"friend width must be >= 1, got {friend_width}")
    return RegisterLayout(
        (("Q", 1), ("R", 1), ("F", friend_width), ("M", n), ("P", n))
    )


def l2_norm(amplitudes: Iterable[complex]) -> float:
    """sqrt(sum re^2 + sum im^2), each sum taken left to right.

    A plain float loop, not sum(), which compensates from Python 3.12 on:
    the same values in the same order give the same bits on every version,
    whether they come as a list, a generator or an array.
    """
    re = im = 0.0
    for amp in amplitudes:
        re += amp.real * amp.real
        im += amp.imag * amp.imag
    return math.sqrt(re + im)


def check_dense_limit(layout: RegisterLayout) -> None:
    """Raise ValueError if a dense array over `layout` is past STATE_QUBIT_LIMIT."""
    total = layout.total_qubits
    if total > STATE_QUBIT_LIMIT:
        raise ValueError(
            f"a dense state of {total} qubits needs 2^{total} amplitudes "
            f"(2^{total + 4} bytes); dense states are limited to "
            f"{STATE_QUBIT_LIMIT} qubits"
        )


def dense_amplitudes(
    layout: RegisterLayout,
    indices: Sequence[int],
    values: Sequence[complex],
) -> np.ndarray:
    """Read-only dense array holding `values` at `indices` and zeros elsewhere.

    Raises ValueError past STATE_QUBIT_LIMIT qubits, before allocating.
    """
    check_dense_limit(layout)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    if len(indices):
        amps[indices] = values
    amps.setflags(write=False)
    return amps


class StateVector:
    """Immutable amplitude vector over a register layout, held as its support.

    Built from its support, `StateVector(layout, support={index: amplitude})`,
    with every index not listed holding zero, or from a dense amplitude
    array, `StateVector(layout, amplitudes)`, which lists every entry whose
    float64 bit pattern is nonzero (so a -0.0 is listed) and keeps no array.
    `.amplitudes` is built from the support on first access, so an array
    past STATE_QUBIT_LIMIT qubits is refused up front. Data from a caller is
    validated (length or index range, finite values); a kernel's output,
    wrapped by _state, is not scanned again.
    """

    def __init__(
        self,
        layout: RegisterLayout,
        amplitudes: np.ndarray | None = None,
        *,
        support: Mapping[int, complex] | None = None,
    ) -> None:
        if (amplitudes is None) == (support is None):
            raise ValueError("give exactly one of amplitudes and support")
        fields = self.__dict__  # __setattr__ refuses every assignment
        fields["layout"] = layout
        fields["_dense"] = amplitudes  # read by __post_init__, then dropped
        fields["_support"] = support
        self.__post_init__()

    def __post_init__(self, kernel_output: bool = False) -> None:
        """Validate the caller's data and list its support; runs on every
        construction.

        A kernel's output (kernel_output, from _state) is a fresh dict of int
        keys and complex values computed from validated data, so it is kept
        as it is.
        """
        if kernel_output:
            return
        if self._support is not None:
            dim = self.layout.dim
            support = {}
            for index, amp in self._support.items():
                index, amp = _integer(index, "basis index"), complex(amp)
                if not 0 <= index < dim:
                    raise ValueError(f"basis index {index} out of range for dim {dim}")
                if not cmath.isfinite(amp):
                    raise ValueError("amplitudes must be finite")
                support[index] = amp
            object.__setattr__(self, "_support", support)
            return
        check_dense_limit(self.layout)
        arr = np.asarray(self._dense, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != self.layout.dim:
            raise ValueError(
                f"amplitude vector must have length {self.layout.dim}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        bits = np.ascontiguousarray(arr).view(np.uint64)
        idx = np.flatnonzero(bits[0::2] | bits[1::2])
        object.__setattr__(self, "_dense", None)
        object.__setattr__(self, "_support", dict(zip(idx.tolist(), arr[idx].tolist())))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"StateVector is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"StateVector(layout={self.layout!r}, support={self._support!r})"

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only dense amplitude array, built on first access."""
        if self._dense is None:
            support = self._support
            dense = dense_amplitudes(self.layout, list(support), list(support.values()))
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def nonzero_items(self) -> list[tuple[int, complex]]:
        """(basis index, amplitude) of every nonzero amplitude, ascending index."""
        return sorted(filter(itemgetter(1), self._support.items()))

    def listed_items(self) -> list[tuple[int, complex]]:
        """(basis index, amplitude) of every support entry, in support order,
        kept even when the value is zero. Every other entry is +0.0 in both
        parts."""
        return list(self._support.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.layout != other.layout:
            return False
        return dict(self.nonzero_items()) == dict(other.nonzero_items())

    __hash__ = None  # type: ignore[assignment]

    @property
    def dim(self) -> int:
        return self.layout.dim

    def norm(self) -> float:
        return l2_norm(a for _, a in self.nonzero_items())


def _trusted(cls: type[_T], fields: Mapping[str, object]) -> _T:
    """An instance of cls holding a copy of `fields` as its attributes,
    built without running cls's constructor.

    Only for fields that have already passed every check that constructor
    makes, so that it would keep them as they are. The public constructor
    stays the route for every other caller.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# _state is StateVector's trusted constructor. It writes its three fields
# itself rather than through _trusted: a state is wrapped after every
# checkpoint, and the dict _trusted needs cost about 5% of a protocol run.
_new_state = partial(object.__new__, StateVector)


def _state(layout: RegisterLayout, support: dict[int, complex]) -> StateVector:
    """Wrap a kernel's output support dict in a StateVector without checking
    or scanning it again."""
    state = _new_state()
    fields = state.__dict__
    fields["layout"], fields["_dense"], fields["_support"] = layout, None, support
    state.__post_init__(True)
    return state


def make_basis_state(layout: RegisterLayout, assignment: Mapping[str, str]) -> StateVector:
    """Computational basis state for a full classical register assignment."""
    return StateVector(layout, support={layout.index_for(assignment): 1.0})


def zero_state(layout: RegisterLayout) -> StateVector:
    """All-registers-zero basis state: index 0 in every layout."""
    return _state(layout, {0: 1 + 0j})


def _qubits(qubits: Iterable[int]) -> tuple[int, ...]:
    """Qubit positions as ints; a non-integral one raises _integer's ValueError."""
    return tuple(_integer(q, "qubit") for q in qubits)


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, target qubits, optional controls, optional payload.

    Payload is the bit-string written by ENCODE_MU; angle parameterizes RY.
    Global qubit positions follow the layout convention (0 = most significant).
    A plain value holding just these five fields: it is checked for a width
    (_check) and compiled by the Circuit that runs it.
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    payload: str | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _qubits(self.targets))
        object.__setattr__(self, "controls", _qubits(self.controls))

    # -- constructors ------------------------------------------------------

    @classmethod
    def x(cls, target: int) -> "GateOp":
        return cls(GateKind.X, (target,))

    @classmethod
    def h(cls, target: int) -> "GateOp":
        return cls(GateKind.H, (target,))

    @classmethod
    def ry(cls, angle: float, target: int) -> "GateOp":
        return cls(GateKind.RY, (target,), angle=float(angle) if _real(angle) else angle)

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

    @property
    def flipped(self) -> Sequence[int]:
        """The targets flipped once every control is set, in target order:
        for ENCODE_MU those whose payload bit is 1, for X, MULTI_X and CNOT
        all of them. The kernel and the QASM emitter both read it."""
        if self.kind is _ENCODE_MU:
            return list(compress(self.targets, map("1".__eq__, self.payload)))
        return self.targets

    def _check(self, total: int) -> None:
        """Raise ValueError if the op is malformed on `total` qubits.

        Every check that reads the payload or the angle is in
        _check_parameter; the others read only kind, targets and controls,
        which an op made by _derive shares with its template.
        """
        touched = self.targets + self.controls
        if not self.targets:
            raise ValueError(f"{self.kind.value} op has no targets")
        if min(touched) < 0 or max(touched) >= total:
            q = next(q for q in touched if not 0 <= q < total)
            raise ValueError(f"qubit {q} out of range for {total}-qubit layout")
        if len(set(touched)) != len(touched):
            raise ValueError(f"{self.kind.value} op reuses a qubit: {touched}")

        kind = self.kind
        if kind in (GateKind.X, GateKind.H, GateKind.RY):
            if len(self.targets) != 1 or self.controls:
                raise ValueError(f"{kind.value} takes exactly one target and no controls")
        elif kind is GateKind.CNOT:
            if len(self.targets) != 1 or len(self.controls) != 1:
                raise ValueError("CNOT takes exactly one control and one target")
        elif kind is GateKind.MULTI_X:
            if self.controls:
                raise ValueError("MULTI_X takes no controls")
        elif kind is GateKind.TRANSVERSAL_CNOT:
            if len(self.controls) != len(self.targets):
                raise ValueError(
                    "TRANSVERSAL_CNOT pairs registers bitwise; control and "
                    "target widths must match"
                )
        elif kind is not GateKind.ENCODE_MU:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown gate kind {kind!r}")
        self._check_parameter()

    def _check_parameter(self) -> None:
        """The checks on the one field _derive replaces: an RY's angle, an
        ENCODE_MU's payload (against its target count)."""
        if self.kind is _RY:
            angle = self.angle
            if not (_real(angle) and math.isfinite(angle)):
                raise ValueError(f"RY angle must be a finite real, got {angle!r}")
        elif self.kind is _ENCODE_MU:
            if self.payload is None:
                raise ValueError("ENCODE_MU requires a payload bit-string")
            check_bits(self.payload, "ENCODE_MU payload")
            if len(self.payload) != len(self.targets):
                raise ValueError(
                    f"ENCODE_MU payload width {len(self.payload)} != "
                    f"target register width {len(self.targets)}"
                )

    def _derive(self, parameter: str | float) -> "GateOp":
        """A copy of this ENCODE_MU op with payload `parameter`, or of this
        RY op with angle `parameter`, valid on every width this op is valid on.

        The copy differs from this op in that one field alone, so of _check
        it reruns only _check_parameter, which raises _check's text for a
        malformed parameter.
        """
        op = _trusted(GateOp, self.__dict__)
        fields = op.__dict__
        if self.kind is _RY:
            fields["angle"] = parameter
        elif self.kind is _ENCODE_MU:
            fields["payload"] = parameter
        else:
            raise ValueError(f"{self.kind.value} has no parameter to replace")
        op._check_parameter()
        return op


@dataclass(frozen=True)
class Circuit:
    """Validated gate sequence with labeled checkpoints.

    A checkpoint (op_index, label) snapshots the state right after
    ops[op_index] has been applied. Construction checks each op for the
    layout's width (GateOp._check), normalises the checkpoints to (int, str)
    pairs and checks them. For apply_circuit it then records the labels to
    snapshot after each op index, in table order, and the kernel of each op
    (_compile_entry). _derive adds the kernel families it builds to a third
    record, _families, empty until then. No record takes part in ==, hash
    or repr.
    """

    layout: RegisterLayout
    ops: tuple[GateOp, ...]
    checkpoints: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        table = tuple((_integer(i, "checkpoint op index"), str(l)) for i, l in self.checkpoints)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "checkpoints", table)
        total = self.layout.total_qubits
        for op in ops:
            op._check(total)
        labels_at: dict[int, tuple[str, ...]] = {}
        strays = []
        for op_index, label in table:
            labels_at[op_index] = labels_at.get(op_index, ()) + (label,)
            if not 0 <= op_index < len(ops):
                strays.append((op_index, label))
        labels = [label for _, label in table]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate checkpoint labels in {labels}")
        if strays:
            op_index, label = strays[0]
            raise ValueError(
                f"checkpoint {label!r} attached to op {op_index}, "
                f"but circuit has {len(ops)} ops"
            )
        object.__setattr__(self, "_labels_at", labels_at)
        object.__setattr__(self, "_kernels", tuple(_compile_entry(op, total) for op in ops))
        object.__setattr__(self, "_families", {})

    def _derive(self, parameters: Mapping[int, str | float]) -> "Circuit":
        """A copy of this circuit with ops[i] replaced by
        ops[i]._derive(parameter) for each i: parameter in `parameters`.

        Each new op's kernel comes from the kernel family of the op it
        replaces (_compile_entry with family=True), built on the first
        _derive at that index and kept in _families, which every circuit
        derived from this one shares. Every other op and kernel, and the
        checkpoints and their record, are this circuit's own objects.
        """
        ops, kernels = list(self.ops), list(self._kernels)
        families = self._families
        for i, parameter in parameters.items():
            op = ops[i]._derive(parameter)
            family = families.get(i)
            if family is None:
                family = families[i] = _compile_entry(ops[i], self.layout.total_qubits, True)
            ops[i], kernels[i] = op, family(op)
        return _trusted(Circuit, {**self.__dict__, "ops": tuple(ops), "_kernels": tuple(kernels)})

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


# ---------------------------------------------------------------------------
# gate application kernels


def _mask(total: int, qubits: Iterable[int]) -> int:
    """Global-index bit mask of distinct qubit positions, parsed in one pass
    from a base-2 string (base 2 is exempt from the int string-length limit)."""
    bits = bytearray(b"0") * total
    for q in qubits:
        bits[q] = 49  # ord("1"); position 0 is the most significant bit
    return int(bits, 2)


def _flip_support(cmask: int, fmask: int, support: dict[int, complex]) -> dict[int, complex]:
    """One (control mask, flip mask) pair on a support dict: each amplitude
    moves to its index with the F bits flipped when all its C bits are set."""
    out = {}
    for index, amp in support.items():
        if index & cmask == cmask:
            index ^= fmask
        out[index] = amp
    return out


def _shift_support(
    shifts: tuple[tuple[int, int, int], ...], support: dict[int, complex]
) -> dict[int, complex]:
    """A transversal CNOT on a support dict, one pass per (control mask,
    right shift, left shift) triple: each moves the control bits of one
    control-to-target distance onto their targets. No triple moves a
    control bit, so the passes commute."""
    for cmask, right, left in shifts:
        out = {}
        for index, amp in support.items():
            out[index ^ ((index & cmask) >> right << left)] = amp
        support = out
    return support


_Coefficients = tuple[complex, complex] | None


def _coefficients(op: GateOp) -> _Coefficients:
    """None for H, (cos, sin) of half the angle, as complex, for RY."""
    if op.kind is _H:
        return None
    return complex(math.cos(op.angle / 2.0)), complex(math.sin(op.angle / 2.0))


def _mix(coeffs: _Coefficients, a0: complex, a1: complex) -> tuple[complex, complex]:
    """H (coeffs None) or RY (coeffs from _coefficients) on one (target = 0,
    target = 1) amplitude pair: the new target-0 and target-1 values.

    The factors are complex, so every product is the full complex product
    (x + yj)(c + 0j) = (xc - y0) + (x0 + yc)j on every Python version.
    RY adds +0j, which turns -0.0 into +0.0 and leaves every other value as
    it is: for cos(angle / 2) < 0 a listed pair of zeros would otherwise come
    out -0.0 where an unlisted pair reads +0.0, so the bytes of a state would
    depend on which of its zeros its support lists.
    """
    if coeffs is None:
        return (a0 + a1) * _SQRT_HALF_J, (a0 - a1) * _SQRT_HALF_J
    c, s = coeffs
    return c * a0 - s * a1 + 0j, s * a0 + c * a1 + 0j


def _mix_support(
    coeffs: _Coefficients, bit: int, held: dict[int, complex]
) -> dict[int, complex]:
    """H or RY on the target qubit whose global-index bit is `bit`.

    Every pair with a listed entry is computed through _mix, with an
    unlisted partner read as 0j, and kept even when it comes out zero.
    """
    out = {}
    for low in {index & ~bit for index in held}:
        high = low | bit
        out[low], out[high] = _mix(coeffs, held.get(low, 0j), held.get(high, 0j))
    return out


_Kernel = Callable[[dict[int, complex]], dict[int, complex]]
_Family = Callable[[GateOp], _Kernel]


# Kernel builders for _compile_entry: (what reads only the op's qubits,
# qubit count, op) -> the op's kernel.
def _mix_kernel(bit: int, total: int, op: GateOp) -> _Kernel:
    return partial(_mix_support, _coefficients(op), bit)


def _shift_kernel(shifts: tuple[tuple[int, int, int], ...], total: int, op: GateOp) -> _Kernel:
    return partial(_shift_support, shifts)


def _flip_kernel(cmask: int, total: int, op: GateOp) -> _Kernel:
    return partial(_flip_support, cmask, _mask(total, op.flipped))


def _compile_entry(op: GateOp, total: int, family: bool = False) -> _Kernel | _Family:
    """The kernel of an op valid on `total` qubits, built from its qubit
    positions: the one place where a gate kind becomes code.

    With `family`, the op's kernel family instead: a function from an op
    with this op's kind and qubits (this op, or one GateOp._derive made
    from it) to that op's kernel. It computes once what reads only the
    qubits, and per op what reads the parameter.

    H and RY run through _mix_support on the target's bit, with RY's
    coefficients read per op. A transversal CNOT's controls are grouped by
    control-to-target distance t - c, in pair order, one control mask per
    distance, run by _shift_support. Every other permuting kind is one
    (control mask, flip mask) pair, run by _flip_support: the control mask
    over its controls, the flip mask over op.flipped, read per op. A kernel
    holds only masks and coefficients, never the op, so it makes no
    reference cycle.
    """
    kind = op.kind
    if kind is _H or kind is _RY:
        build, fixed = _mix_kernel, 1 << (total - 1 - op.targets[0])
    elif kind is GateKind.TRANSVERSAL_CNOT:
        by_distance: dict[int, list[int]] = {}
        for c, t in zip(op.controls, op.targets):
            by_distance.setdefault(t - c, []).append(c)
        shifts = tuple(
            (_mask(total, controls), max(d, 0), max(-d, 0))
            for d, controls in by_distance.items()
        )
        build, fixed = _shift_kernel, shifts
    else:
        build, fixed = _flip_kernel, _mask(total, op.controls)
    return partial(build, fixed, total) if family else build(fixed, total, op)


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; returns a new state, input untouched."""
    (kernel,) = Circuit(state.layout, (op,))._kernels
    return _state(state.layout, kernel(state._support))


def apply_circuit(
    state: StateVector, circuit: Circuit
) -> tuple[StateVector, dict[str, StateVector]]:
    """Run a circuit, returning the final state and checkpoint snapshots.

    Snapshots are keyed by checkpoint label, in execution order, and the
    labels of one op in checkpoint-table order. Each op's support is wrapped
    once: its labels share one StateVector, and the final state is the last
    op's snapshot when that op carries a label. An empty circuit returns
    the input state unchanged and no snapshots.
    """
    layout = state.layout
    if circuit.layout is not layout and circuit.layout != layout:
        raise ValueError("circuit layout does not match state layout")
    if not circuit.ops:
        return state, {}
    labels_at, held = circuit._labels_at, state._support
    snapshots: dict[str, StateVector] = {}
    for i, kernel in enumerate(circuit._kernels):
        held = kernel(held)
        labels = labels_at.get(i)
        if labels:
            snapshot = _state(layout, held)
            for label in labels:
                snapshots[label] = snapshot
    # After a snapshotted last op, the final state is that snapshot.
    return (snapshot if labels else _state(layout, held)), snapshots


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    theirs = dict(b.nonzero_items())
    overlap = sum(
        (x.conjugate() * theirs[i] for i, x in a.nonzero_items() if i in theirs), 0j
    )
    return float(abs(overlap) ** 2)


def gate_matrix(op: GateOp, layout: RegisterLayout) -> np.ndarray:
    """Dense unitary of one gate on the full index space, guarded at
    GATE_MATRIX_QUBIT_LIMIT qubits.

    Column j is the op's kernel run on basis vector j,
    {j: 1+0j}, so it holds the bytes apply_gate gives there by
    construction; the Kronecker oracle in tests/helpers.py is the
    independent check.
    """
    total = layout.total_qubits
    if total > GATE_MATRIX_QUBIT_LIMIT:
        raise ValueError(
            f"gate_matrix is dense and limited to {GATE_MATRIX_QUBIT_LIMIT} "
            f"qubits; layout has {total}"
        )
    (kernel,) = Circuit(layout, (op,))._kernels
    dim = 1 << total
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        for i, amp in kernel({j: 1 + 0j}).items():
            matrix[i, j] = amp
    return matrix
