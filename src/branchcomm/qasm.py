"""Minimal OPENQASM 2.0 emission and re-import for protocol circuits.

The dialect is deliberately tiny: one flat qubit register, gates x, h, cx,
and optional per-register measurements. Global qubit position i maps to
q[i], so re-simulating the emitted gate list reproduces the source
circuit's amplitudes index for index.
"""

from __future__ import annotations

import re

from .statevec import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    apply_circuit,
    zero_state,
)


def _gate_lines(op: GateOp) -> list[str]:
    """The op's x, h or cx lines, read from its fields: one cx per
    (control, target) pair of a transversal CNOT, else one x or cx per
    flipped target (GateOp.flipped), in op.targets order."""
    kind = op.kind
    if kind is GateKind.H:
        return [f"h q[{op.targets[0]}];"]
    if kind is GateKind.RY:
        raise ValueError(f"{kind.value} is not a basis permutation")
    if kind is GateKind.TRANSVERSAL_CNOT:
        return [f"cx q[{c}], q[{t}];" for c, t in zip(op.controls, op.targets)]
    if len(op.controls) > 1:
        raise ValueError(f"multi-control {kind.value} has no x/h/cx representation")
    head = f"cx q[{op.controls[0]}], " if op.controls else "x "
    return [f"{head}q[{t}];" for t in op.flipped]


def to_qasm(circuit: Circuit, measure: bool = False) -> str:
    """Emit a circuit as OPENQASM 2.0 text.

    Multi-control encoders and rotation gates are outside the dialect and
    raise ValueError. With measure=True, one classical register per layout
    register is declared and measured at the end.
    """
    total = circuit.layout.total_qubits
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{total}];"]
    if measure:
        for name, width in circuit.layout.registers:
            lines.append(f"creg c{name.lower()}[{width}];")
    for op in circuit.ops:
        lines.extend(_gate_lines(op))
    if measure:
        for name, width in circuit.layout.registers:
            offset = circuit.layout.offset(name)
            for i in range(width):
                lines.append(f"measure q[{offset + i}] -> c{name.lower()}[{i}];")
    return "\n".join(lines) + "\n"


_QREG_RE = re.compile(r"^qreg\s+q\[(\d+)\]$")
_ONE_Q_RE = re.compile(r"^(h|x)\s+q\[(\d+)\]$")
_CX_RE = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]$")


def parse_qasm(text: str) -> tuple[int, list[GateOp]]:
    """Parse the emitted dialect back into a qubit count and gate list."""
    total: int | None = None
    ops: list[GateOp] = []
    for raw in text.splitlines():
        line = raw.split("//")[0].strip().rstrip(";").strip()
        if not line:
            continue
        if line.startswith(("OPENQASM", "include", "creg", "measure", "barrier")):
            continue
        m = _QREG_RE.match(line)
        if m:
            if total is not None:
                raise ValueError(f"qasm text declares a second qreg: {raw!r}")
            total = int(m.group(1))
            continue
        if total is None:
            raise ValueError(f"qasm line before the qreg declaration: {raw!r}")
        m = _ONE_Q_RE.match(line)
        if m:
            target = int(m.group(2))
            ops.append(GateOp.h(target) if m.group(1) == "h" else GateOp.x(target))
            continue
        m = _CX_RE.match(line)
        if m:
            ops.append(GateOp.cnot(int(m.group(1)), int(m.group(2))))
            continue
        raise ValueError(f"unsupported line in qasm text: {raw!r}")
    if total is None:
        raise ValueError("qasm text declares no qreg")
    return total, ops


def simulate_qasm(text: str) -> StateVector:
    """Re-simulate parsed qasm from the all-zero state on a flat layout."""
    total, ops = parse_qasm(text)
    layout = RegisterLayout((("q", total),))
    final, _ = apply_circuit(zero_state(layout), Circuit(layout, tuple(ops)))
    return final
