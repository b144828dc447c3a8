import math
from collections import Counter

import numpy as np
import pytest

from branchcomm.protocol import Message, ProtocolConfig, build_protocol_circuit, run_protocol
from branchcomm.qasm import parse_qasm, simulate_qasm, to_qasm
from branchcomm.statevec import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    apply_circuit,
    zero_state,
)

from helpers import oracle_apply


def gate_histogram(text):
    counts = Counter()
    for line in text.splitlines():
        head = line.split(" ")[0].rstrip(";")
        if head in ("h", "x", "cx", "measure"):
            counts[head] += 1
    return counts


def test_default_run_emits_the_enumerated_gate_list():
    circuit = build_protocol_circuit(ProtocolConfig(n=1), Message("1"))
    text = to_qasm(circuit)
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[5];"
    assert lines[3:] == [
        "h q[0];",
        "cx q[0], q[2];",
        "cx q[2], q[1];",
        "cx q[2], q[3];",
        "cx q[3], q[4];",
        "cx q[4], q[3];",
        "x q[0];",
        "x q[1];",
        "x q[2];",
    ]
    assert gate_histogram(text) == {"h": 1, "cx": 5, "x": 3}


def test_hand_built_circuit_keeps_target_order():
    # Targets deliberately out of ascending order: lines follow op.targets.
    layout = RegisterLayout((("q", 5),))
    circuit = Circuit(
        layout,
        (
            GateOp.multi_x((3, 0, 2)),
            GateOp.encode("011", (4, 2, 1), control=0),
            GateOp.encode("11", (3, 1)),
            GateOp.transversal_cnot((4, 0), (1, 3)),
        ),
    )
    assert to_qasm(circuit) == (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[5];\n"
        "x q[3];\n"
        "x q[0];\n"
        "x q[2];\n"
        "cx q[0], q[2];\n"
        "cx q[0], q[1];\n"
        "x q[3];\n"
        "x q[1];\n"
        "cx q[4], q[1];\n"
        "cx q[0], q[3];\n"
    )


def test_blank_message_drops_the_encoder_line():
    circuit = build_protocol_circuit(ProtocolConfig(n=1), Message("0"))
    assert gate_histogram(to_qasm(circuit)) == {"h": 1, "cx": 4, "x": 3}


def test_wider_message_scales_cx_count():
    circuit = build_protocol_circuit(ProtocolConfig(n=3), Message("101"))
    counts = gate_histogram(to_qasm(circuit))
    # 2 record cx + 2 encoder cx (bits 1 and 3) + 3 write + 3 uncompute
    assert counts == {"h": 1, "cx": 10, "x": 3}


def test_measure_emits_classical_registers():
    circuit = build_protocol_circuit(ProtocolConfig(n=2), Message("10"))
    text = to_qasm(circuit, measure=True)
    assert "creg cq[1];" in text
    assert "creg cr[1];" in text
    assert "creg cf[1];" in text
    assert "creg cm[2];" in text
    assert "creg cp[2];" in text
    assert "measure q[0] -> cq[0];" in text
    assert "measure q[3] -> cm[0];" in text
    assert "measure q[4] -> cm[1];" in text
    assert gate_histogram(text)["measure"] == 7


@pytest.mark.parametrize(
    "n, bits", [(1, "0"), (1, "1"), (3, "101")]
)
def test_round_trip_reproduces_amplitudes(n, bits):
    config = ProtocolConfig(n=n)
    message = Message(bits)
    circuit = build_protocol_circuit(config, message)
    run = run_protocol(config, message)
    resimulated = simulate_qasm(to_qasm(circuit))
    assert resimulated.dim == run.final.dim
    assert np.max(np.abs(resimulated.amplitudes - run.final.amplitudes)) <= 1e-12


def test_parse_qasm_structure():
    total, ops = parse_qasm(
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[3];\n"
        "h q[0];\n"
        "cx q[0], q[2]; // comment\n"
        "x q[1];\n"
    )
    assert total == 3
    assert [op.kind for op in ops] == [GateKind.H, GateKind.CNOT, GateKind.X]
    assert ops[1].controls == (0,) and ops[1].targets == (2,)


def test_parse_qasm_rejects_unknown_lines():
    with pytest.raises(ValueError):
        parse_qasm("qreg q[2];\nry(0.5) q[0];\n")
    with pytest.raises(ValueError):
        parse_qasm("h q[0];\n")  # no qreg declared


def test_parse_qasm_rejects_a_gate_before_qreg():
    with pytest.raises(ValueError, match="before the qreg"):
        parse_qasm("h q[0];\nqreg q[2];\ncx q[0], q[1];\n")


def test_parse_qasm_rejects_a_second_qreg():
    with pytest.raises(ValueError, match="second qreg"):
        parse_qasm("qreg q[1];\nqreg q[3];\nx q[2];\n")


def test_rotation_gates_are_outside_the_dialect():
    circuit = build_protocol_circuit(
        ProtocolConfig(n=1, amp0=math.sqrt(1 / 3), amp1=math.sqrt(2 / 3)),
        Message("1"),
    )
    assert circuit.ops[0].kind is GateKind.RY
    with pytest.raises(ValueError, match="RY is not a basis permutation"):
        to_qasm(circuit)


def test_multi_control_encoder_is_outside_the_dialect():
    layout = RegisterLayout((("q", 3),))
    op = GateOp(GateKind.ENCODE_MU, (1,), (0, 2), payload="1")
    with pytest.raises(ValueError, match="multi-control"):
        to_qasm(Circuit(layout, (op,)))


def test_wide_export_has_one_line_per_flipped_bit():
    # Two transversal CNOTs over 4096 pairs each: one cx line per pair.
    n = 4096
    message = Message("10" * (n // 2))
    text = to_qasm(build_protocol_circuit(ProtocolConfig(n=n), message))
    weight = message.bits.count("1")
    assert gate_histogram(text) == {"h": 1, "x": 3, "cx": 2 + weight + 2 * n}
    assert len(text.splitlines()) == 3 + 1 + 3 + 2 + weight + 2 * n


def test_random_x_h_cx_circuits_round_trip():
    rng = np.random.default_rng(2024)
    for trial in range(150):
        total = int(rng.integers(1, 6))
        layout = RegisterLayout((("q", total),))
        ops = []
        for _ in range(int(rng.integers(1, 13))):
            qubits = [int(q) for q in rng.permutation(total)]
            kind = int(rng.integers(3 if total > 1 else 2))
            if kind == 0:
                ops.append(GateOp.x(qubits[0]))
            elif kind == 1:
                ops.append(GateOp.h(qubits[0]))
            else:
                ops.append(GateOp.cnot(qubits[0], qubits[1]))
        circuit = Circuit(layout, tuple(ops))
        text = to_qasm(circuit, measure=bool(trial % 2))
        assert parse_qasm(text) == (total, ops), trial
        expected, _ = apply_circuit(zero_state(layout), circuit)
        resimulated = simulate_qasm(text)
        assert resimulated == expected, trial
        start = np.zeros(layout.dim, dtype=complex)
        start[0] = 1.0
        oracle = oracle_apply(start, ops, total)
        assert np.max(np.abs(resimulated.amplitudes - oracle)) <= 1e-12, trial
