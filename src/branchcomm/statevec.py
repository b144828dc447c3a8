"""Statevector engine over named qubit registers.

Index convention: registers are concatenated in layout order to form the
global basis index, most significant bit first, and within a register bit 0
is the register's most significant bit. A basis label therefore reads left
to right exactly like the ket it denotes: for registers Q(1), R(1), F(1),
the assignment {Q: "1", R: "1", F: "1"} is global index 0b111 = 7.

States are immutable value objects; every operation returns a new state and
never touches its input. A state is held in one of two forms, chosen by how
it was made. make_basis_state, zero_state and the protocol's closed-form
reference states hold their support: a dict from basis index to amplitude,
which apply_gate and apply_circuit evolve in that form, so a circuit started
from a basis state costs time and memory in its support size, not in 2^n.
An amplitude array given by the caller is held dense and evolved by the
array kernels. A support-held state builds its dense array on first access
to `.amplitudes`, up to STATE_QUBIT_LIMIT qubits.

Five gate kinds (X, MULTI_X, CNOT, ENCODE_MU, TRANSVERSAL_CNOT) only permute
basis states. Each compiles to an ordered list of (control mask C, flip
mask F) pairs, applied in turn; a pair flips the bits of F in every basis
index whose C bits are all set, with bit masks taken over the global index.
These pairs are the single description of those kinds: both forms' kernels,
gate_matrix and the QASM emitter all read them. The support-held kernel of a
TRANSVERSAL_CNOT is folded from its pairs (_fold): the pairs touch pairwise
distinct qubits, so they commute, and together they map an index i to
i ^ spread(i & C), where spread shifts each control bit onto its target,
one shift per control-to-target distance (the linear reversible view of
Patel, Markov & Hayes, quant-ph/0302002). So a support entry costs one
shift per distance, not one test per pair.

What repeats from run to run is validated and compiled once. An op depends
on a layout only through its total qubit count, so each GateOp remembers per
count that it passed validation (never a failure), its flip pairs and its
support kernel, the fold among them. A Circuit checks only the ops not yet
valid for its width; its checkpoint table is normalised once, with the
labels to snapshot after each op, and a Circuit built over another's table
reuses it, checking only its indices against its own op count.
GateOp._derive copies a validated ENCODE_MU or RY op with a new payload or
angle and reruns only the checks that read that field: the protocol builds
its two per-run ops that way, from templates it validated once.
protocol_layout is cached, since a RegisterLayout is immutable, and
zero_state holds {0: 1+0j}, the all-zero index in every layout.

H and RY mix the two values of one qubit. Both forms compute each (i, i|t)
pair with the expressions written once in _mix: the dense kernel on numpy
arrays of all pairs, the support-held kernel on Python complex scalars for
each pair with a listed entry, an unlisted partner read as 0j. The factors
are complex, so numpy's array product and Python's scalar product are the
same IEEE operations, and RY adds +0j so that no pair of zeros comes out
-0.0; a support-held state and the same state held dense therefore evolve
to the same bytes, signed zeros included. The route that shares no code
with this module is the Kronecker-product oracle in tests/helpers.py.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_J = complex(SQRT_HALF)

# Dense operator construction is quadratic in the state dimension; past this
# many qubits a single matrix no longer fits comfortably in memory.
GATE_MATRIX_QUBIT_LIMIT = 12

# Widest support-held state that may be made dense: 2^20 amplitudes, 16 MiB.
# The widest protocol state densified in use is 19 qubits (n = 8); the next
# protocol width, 21 qubits, would make the `run` document's text alone
# several GiB.
STATE_QUBIT_LIMIT = 20


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
    if not isinstance(bits, str) or not bits or bits.strip("01"):
        raise ValueError(f"{what} must be a nonempty string over {{0,1}}, got {bits!r}")
    return bits


def _integer(value: object, what: str) -> int:
    """value as an int if it is integral (numpy integers too), else ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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

    @cached_property
    def _slices(self) -> tuple[tuple[str, ...], str, tuple[slice, ...]]:
        """Register names, the format spec of a whole index, and each
        register's slice of that text, in layout order."""
        spans = tuple(slice(off, off + w) for off, w, *_ in self._offsets.values())
        return tuple(self._offsets), f"0{self.total_qubits}b", spans

    def assignment_of(self, index: int) -> dict[str, str]:
        """Bit-string of every register at a global basis index, layout order."""
        if not 0 <= index < self.dim:
            raise ValueError(f"basis index {index} out of range for {self.total_qubits} qubits")
        names, spec, spans = self._slices
        return dict(zip(names, map(format(index, spec).__getitem__, spans)))


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


# A state's data in either form: a read-only amplitude array or a support dict.
_Held = np.ndarray | dict[int, complex]


def l2_norm(amplitudes: Iterable[complex] | np.ndarray) -> float:
    """sqrt(sum re^2 + sum im^2), each sum taken left to right.

    The running sums (np.cumsum) add in the order given, as Python's float
    sum does through 3.11, so the same values in the same order give the
    same bits whether they come as a list, a generator or an array.
    """
    if not isinstance(amplitudes, np.ndarray):
        amplitudes = np.fromiter(amplitudes, dtype=np.complex128)
    if not amplitudes.size:
        return 0.0
    re, im = amplitudes.real, amplitudes.imag
    return math.sqrt(np.cumsum(re * re)[-1] + np.cumsum(im * im)[-1])


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
    indices: Sequence[int] | np.ndarray,
    values: Sequence[complex] | np.ndarray,
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
    """Immutable amplitude vector over a register layout.

    Built from a dense amplitude array, `StateVector(layout, amplitudes)`, or
    from its support, `StateVector(layout, support={index: amplitude})`,
    with every index not listed holding zero. A support-held state makes
    `.amplitudes` on first access (see STATE_QUBIT_LIMIT); nonzero_items()
    and listed_items() read either form without doing so. Data from a caller
    is validated (index range, finite values); a kernel's output, wrapped by
    _state, is not scanned again. norm, == and fidelity work on the
    nonzero items when a support-held state is involved, reading a dense
    operand only at the other's support, and on whole arrays when every
    state is dense, where a per-item loop would cost O(2^n) in Python.
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
        fields["_dense"] = amplitudes
        fields["_support"] = support
        self.__post_init__()

    def __post_init__(self, kernel_output: bool = False) -> None:
        """Validate and freeze the held form; runs on every construction.

        A kernel's output (kernel_output, from _state) is already a frozen
        array or a fresh dict of int keys and complex values computed from
        validated data, so it is kept as it is.
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
        arr = np.asarray(self._dense, dtype=np.complex128)
        if arr.ndim != 1 or arr.shape[0] != self.layout.dim:
            raise ValueError(
                f"amplitude vector must have length {self.layout.dim}, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        if arr is self._dense and arr.flags.writeable:
            arr = arr.copy()
        if arr.flags.writeable:
            arr.setflags(write=False)
        object.__setattr__(self, "_dense", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"StateVector is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        held = self._support if self._support is not None else self._dense
        form = "support" if self._support is not None else "amplitudes"
        return f"StateVector(layout={self.layout!r}, {form}={held!r})"

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
        if self._support is not None:
            return sorted((i, a) for i, a in self._support.items() if a)
        idx = np.flatnonzero(self._dense)
        return list(zip(idx.tolist(), self._dense[idx].tolist()))

    def listed_items(self) -> list[tuple[int, complex]]:
        """(basis index, amplitude) of every entry the state holds explicitly.

        For a support-held state these are its support keys, in support order
        and kept even when the value is zero; for a dense-held state, the
        entries whose real or imaginary float64 bit pattern is nonzero, so a
        -0.0 is listed. Every other entry is +0.0 in both parts.
        """
        if self._support is not None:
            return list(self._support.items())
        bits = np.ascontiguousarray(self._dense).view(np.uint64)
        idx = np.flatnonzero(bits[0::2] | bits[1::2])
        return list(zip(idx.tolist(), self._dense[idx].tolist()))

    @property
    def dense_held(self) -> bool:
        """True when the state is held as an amplitude array, not its support."""
        return self._support is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        if self.layout != other.layout:
            return False
        if self._support is None and other._support is None:
            return np.array_equal(self._dense, other._dense)
        if self._support is not None and other._support is not None:
            return dict(self.nonzero_items()) == dict(other.nonzero_items())
        # One side dense: equal when it holds exactly the other's nonzero
        # entries, read at those indices rather than walked entry by entry.
        held, dense = (self, other._dense) if other._support is None else (other, self._dense)
        items = held.nonzero_items()
        at_support = dense[[i for i, _ in items]].tolist()
        return np.count_nonzero(dense) == len(items) and at_support == [a for _, a in items]

    __hash__ = None  # type: ignore[assignment]

    @property
    def dim(self) -> int:
        return self.layout.dim

    def norm(self) -> float:
        if self._support is None:
            return float(np.linalg.norm(self._dense))
        return l2_norm(a for _, a in self.nonzero_items())


_new_state = partial(object.__new__, StateVector)


def _state(layout: RegisterLayout, held: _Held) -> StateVector:
    """Wrap a kernel's output, an amplitude array or a support dict, in a
    StateVector without checking or scanning it again."""
    state = _new_state()
    fields = state.__dict__
    fields["layout"] = layout
    if type(held) is dict:
        fields["_dense"], fields["_support"] = None, held
    else:
        fields["_dense"], fields["_support"] = held, None
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
    qubits = tuple(qubits)
    try:
        return tuple(map(operator.index, qubits))
    except TypeError:
        return tuple(_integer(q, "qubit") for q in qubits)


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, target qubits, optional controls, optional payload.

    Payload is the bit-string written by ENCODE_MU; angle parameterizes RY.
    Global qubit positions follow the layout convention (0 = most significant).

    An op depends on a layout only through its total qubit count, so it
    remembers, per count, that it passed validate and what flip_pairs and
    the support kernel compiled it to; a rejected op is not remembered and
    raises every time. No memo takes part in ==, hash or repr.
    """

    kind: GateKind
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    payload: str | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", _qubits(self.targets))
        object.__setattr__(self, "controls", _qubits(self.controls))
        object.__setattr__(self, "_valid_for", set())
        object.__setattr__(self, "_pairs_for", {})
        object.__setattr__(self, "_kernel_for", {})

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
        if total not in self._valid_for:
            self._check(total)
            self._valid_for.add(total)

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
        if self.kind is GateKind.RY:
            if self.angle is None:
                raise ValueError("RY requires an angle")
        elif self.kind is GateKind.ENCODE_MU:
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
        RY op with angle float(parameter), valid for every width this op
        passed validate for.

        The copy differs from this op in that one field alone, so of _check
        it reruns only _check_parameter, which raises _check's text for a
        malformed parameter. Its flip pairs and kernels are compiled afresh.
        """
        op = _new_op()
        fields = op.__dict__
        fields.update(self.__dict__)
        if self.kind is GateKind.RY:
            fields["angle"] = float(parameter)
        elif self.kind is GateKind.ENCODE_MU:
            fields["payload"] = parameter
        else:
            raise ValueError(f"{self.kind.value} has no parameter to replace")
        fields["_pairs_for"] = {}
        fields["_kernel_for"] = {}
        op._check_parameter()
        fields["_valid_for"] = set(self._valid_for)
        return op

    def inverse(self) -> "GateOp":
        """Inverse gate; every kind here is self-inverse except RY."""
        if self.kind is GateKind.RY:
            return GateOp(self.kind, self.targets, self.controls, angle=-self.angle)
        return self


_new_op = partial(object.__new__, GateOp)


class _CheckpointTable(tuple):
    """A circuit's checkpoints as (int, str) pairs, normalised once.

    Built only by _checkpoint_table, which also records what every circuit
    sharing the table needs: the labels to snapshot after each op index, in
    table order (labels_at), the lowest and highest op index, and whether a
    label repeats. The range of the indices depends on the circuit's op
    count and is checked by each Circuit.
    """

    labels_at: dict[int, tuple[str, ...]]
    span: tuple[int, int]
    repeats: bool


def _checkpoint_table(checkpoints: Iterable[tuple[int, str]]) -> _CheckpointTable:
    """checkpoints as a _CheckpointTable; one that already is so is returned."""
    if type(checkpoints) is _CheckpointTable:
        return checkpoints
    table = _CheckpointTable(
        (_integer(i, "checkpoint op index"), str(l)) for i, l in checkpoints
    )
    labels_at: dict[int, tuple[str, ...]] = {}
    for op_index, label in table:
        labels_at[op_index] = labels_at.get(op_index, ()) + (label,)
    table.labels_at = labels_at
    table.span = (min(labels_at, default=0), max(labels_at, default=-1))
    table.repeats = len({label for _, label in table}) != len(table)
    return table


@dataclass(frozen=True)
class Circuit:
    """Validated gate sequence with labeled checkpoints.

    A checkpoint (op_index, label) snapshots the state right after
    ops[op_index] has been applied. Construction validates each op not yet
    validated for the layout's width (GateOp.validate) and checks the
    checkpoint table; a table taken from another Circuit is not normalised
    again.
    """

    layout: RegisterLayout
    ops: tuple[GateOp, ...]
    checkpoints: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        table = _checkpoint_table(self.checkpoints)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "checkpoints", table)
        for op in ops:
            op.validate(self.layout)
        if table.repeats:
            raise ValueError(f"duplicate checkpoint labels in {[l for _, l in table]}")
        first, last = table.span
        if first < 0 or last >= len(ops):
            op_index, label = next(p for p in table if not 0 <= p[0] < len(ops))
            raise ValueError(
                f"checkpoint {label!r} attached to op {op_index}, "
                f"but circuit has {len(ops)} ops"
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
    top, mask = 1 << (total - 1), 0
    for q in qubits:
        mask |= top >> q
    return mask


def flip_pairs(op: GateOp, total: int) -> tuple[tuple[int, int], ...]:
    """(control mask, flip mask) pairs of a basis-permuting op, in order.

    Compiled once per op and total qubit count.
    """
    pairs = op._pairs_for.get(total)
    if pairs is None:
        pairs = op._pairs_for[total] = _compile_pairs(op, total)
    return pairs


def _compile_pairs(op: GateOp, total: int) -> tuple[tuple[int, int], ...]:
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


def _flip_support(cmask: int, fmask: int, support: dict[int, complex]) -> dict[int, complex]:
    """One (control mask, flip mask) pair on a support dict: each amplitude
    moves to its index with the F bits flipped when all its C bits are set."""
    out = {}
    for index, amp in support.items():
        if index & cmask == cmask:
            index ^= fmask
        out[index] = amp
    return out


def _fold(pairs: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int, int], ...]:
    """A transversal CNOT's one-bit pairs as (control mask, right shift,
    left shift), one triple per control-to-target distance.

    The pairs touch pairwise-distinct qubits, so no pair changes another's
    control bit: they commute, and together they map index to
    index ^ spread(index), where spread moves each control bit to its
    target's position: (index & control mask) >> right << left, per triple.
    """
    masks: dict[int, int] = {}
    for cmask, fmask in pairs:
        distance = cmask.bit_length() - fmask.bit_length()
        masks[distance] = masks.get(distance, 0) | cmask
    return tuple((cmask, max(d, 0), max(-d, 0)) for d, cmask in masks.items())


def _shift_support(
    folded: tuple[tuple[int, int, int], ...], support: dict[int, complex]
) -> dict[int, complex]:
    """A transversal CNOT on a support dict, one pass per triple of its
    _fold: no triple moves a control bit, so the passes commute."""
    for cmask, right, left in folded:
        out = {}
        for index, amp in support.items():
            out[index ^ ((index & cmask) >> right << left)] = amp
        support = out
    return support


_Coefficients = tuple[complex, complex] | None


def _coefficients(op: GateOp) -> _Coefficients:
    """None for H, (cos, sin) of half the angle, as complex, for RY."""
    if op.kind is GateKind.H:
        return None
    return complex(math.cos(op.angle / 2.0)), complex(math.sin(op.angle / 2.0))


def _mix(coeffs: _Coefficients, a0, a1) -> Iterator:
    """H (coeffs None) or RY (coeffs from _coefficients) on (target = 0,
    target = 1) amplitude pairs: yields the new target-0 value, then the new
    target-1 value.

    Works elementwise on arrays and on Python complex scalars alike. numpy
    multiplies by a real scalar as by c + 0j, in full: (x + yj)(c + 0j) =
    (xc - y0) + (x0 + yc)j. The factors are complex here, so Python's
    scalar product (on every version) is that same expression. A dense
    kernel stores the first output before the second is computed, so it
    holds one temporary at a time.

    RY adds +0j, which turns -0.0 into +0.0 and leaves every other value
    as it is: for cos(angle / 2) < 0 a pair of +0j would otherwise come out
    -0.0, which a dense array would hold where the support form lists
    nothing.
    """
    if coeffs is None:
        yield (a0 + a1) * _SQRT_HALF_J
        yield (a0 - a1) * _SQRT_HALF_J
    else:
        c, s = coeffs
        yield c * a0 - s * a1 + 0j
        yield s * a0 + c * a1 + 0j


def _mix_support(
    coeffs: _Coefficients, bit: int, held: dict[int, complex]
) -> dict[int, complex]:
    """H or RY on the target qubit whose global-index bit is `bit`.

    Every pair with a listed entry is computed through _mix, with an
    unlisted partner read as the 0j a dense array holds, and kept even when
    it comes out zero, so both forms end with identical bytes.
    """
    out = {}
    for low in {index & ~bit for index in held}:
        high = low | bit
        out[low], out[high] = _mix(coeffs, held.get(low, 0j), held.get(high, 0j))
    return out


_SupportKernel = Callable[[dict[int, complex]], dict[int, complex]]


def _support_kernel(op: GateOp, total: int) -> _SupportKernel:
    """The op on a support dict over `total` qubits, compiled once per op
    and count and kept next to its flip pairs.

    A transversal CNOT runs from the _fold of its pairs; every other
    permuting kind compiles to one pair, run by _flip_support; H and RY run
    through _mix_support. A kernel holds only masks and coefficients, never
    the op, so it makes no reference cycle.
    """
    kernel = op._kernel_for.get(total)
    if kernel is None:
        kind = op.kind
        if kind is GateKind.H or kind is GateKind.RY:
            bit = 1 << (total - 1 - op.targets[0])
            kernel = partial(_mix_support, _coefficients(op), bit)
        elif kind is GateKind.TRANSVERSAL_CNOT:
            kernel = partial(_shift_support, _fold(flip_pairs(op, total)))
        else:
            (pair,) = flip_pairs(op, total)
            kernel = partial(_flip_support, *pair)
        op._kernel_for[total] = kernel
    return kernel


def _dense_kernel(op: GateOp, total: int, held: np.ndarray) -> np.ndarray:
    """One gate on a read-only amplitude array; the output is read-only."""
    if op.kind is GateKind.H or op.kind is GateKind.RY:
        t = op.targets[0]
        a = held.reshape(1 << t, 2, 1 << (total - 1 - t))
        out = np.empty_like(a)
        mixed = _mix(_coefficients(op), a[:, 0, :], a[:, 1, :])
        out[:, 0, :] = next(mixed)
        out[:, 1, :] = next(mixed)
        out = out.reshape(-1)
    else:
        out = _permute(held, flip_pairs(op, total), total)
    out.setflags(write=False)
    return out


def _held(state: StateVector) -> _Held:
    return state._support if state._support is not None else state.amplitudes


def apply_gate(state: StateVector, op: GateOp) -> StateVector:
    """Apply one gate; returns a new state, input untouched."""
    op.validate(state.layout)
    total, held = state.layout.total_qubits, _held(state)
    if type(held) is dict:
        return _state(state.layout, _support_kernel(op, total)(held))
    return _state(state.layout, _dense_kernel(op, total, held))


def apply_circuit(
    state: StateVector, circuit: Circuit
) -> tuple[StateVector, dict[str, StateVector]]:
    """Run a circuit, returning the final state and checkpoint snapshots.

    Snapshots are keyed by checkpoint label, in execution order, and the
    labels of one op in checkpoint-table order. An empty circuit returns
    the input state unchanged and no snapshots. The state keeps its form
    throughout.
    """
    layout = state.layout
    if circuit.layout is not layout and circuit.layout != layout:
        raise ValueError("circuit layout does not match state layout")
    if not circuit.ops:
        return state, {}
    labels_at = circuit.checkpoints.labels_at
    total, held = layout.total_qubits, _held(state)
    if type(held) is dict:
        kernels = map(_support_kernel, circuit.ops, repeat(total))
    else:
        kernels = (partial(_dense_kernel, op, total) for op in circuit.ops)
    snapshots: dict[str, StateVector] = {}
    for i, kernel in enumerate(kernels):
        held = kernel(held)
        for label in labels_at.get(i, ()):
            snapshots[label] = _state(layout, held)
    return _state(layout, held), snapshots


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.layout != b.layout:
        raise ValueError("states live on different layouts")
    if a._support is None and b._support is None:
        return float(abs(np.vdot(a._dense, b._dense)) ** 2)
    overlap = sum((x.conjugate() * y for x, y in _common_nonzero(a, b)), 0j)
    return float(abs(overlap) ** 2)


def _common_nonzero(
    a: StateVector, b: StateVector
) -> list[tuple[complex, complex]]:
    """(a_i, b_i) at every index i where both are nonzero, ascending i.

    At least one state is support-held; a dense operand is read only at the
    other's support, never walked entry by entry.
    """
    if a._support is not None and b._support is not None:
        theirs = dict(b.nonzero_items())
        return [(x, theirs[i]) for i, x in a.nonzero_items() if i in theirs]
    if a._support is None:
        return [(y, x) for x, y in _common_nonzero(b, a)]
    items = a.nonzero_items()
    theirs = b._dense[[i for i, _ in items]].tolist()
    return [(x, y) for (_, x), y in zip(items, theirs) if y]


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
