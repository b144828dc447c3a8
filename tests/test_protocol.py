import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from branchcomm import protocol, suites
from branchcomm.branches import verify_transfer
from branchcomm.protocol import (
    Message,
    ProtocolConfig,
    ProtocolRun,
    build_protocol_circuit,
    checkpoint_reference_state,
    run_protocol,
)
from branchcomm.statevec import (
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    apply_circuit,
    fidelity,
    gate_matrix,
    protocol_layout,
    zero_state,
)

from helpers import inverse_op, oracle_apply, small_protocol_cases

SQRT_HALF = math.sqrt(0.5)


def all_messages(n, nonblank=False):
    return [Message(format(v, f"0{n}b")) for v in range(1 if nonblank else 0, 1 << n)]


# --- message and config types -------------------------------------------------


def test_message_validation():
    assert Message("0101").n == 4
    assert Message("000").blank
    assert not Message("010").blank
    for bad in ("", "012", "ab", None):
        with pytest.raises((ValueError, TypeError)):
            Message(bad)


def test_config_validation():
    ProtocolConfig(n=2, amp0=math.sqrt(1 / 3), amp1=math.sqrt(2 / 3))
    for bad_n in (0, True, 2.5):
        with pytest.raises(ValueError):
            ProtocolConfig(n=bad_n)
    with pytest.raises(ValueError):
        ProtocolConfig(amp0=-SQRT_HALF, amp1=SQRT_HALF)
    with pytest.raises(ValueError):
        ProtocolConfig(amp0=0.5, amp1=0.5)  # 0.25 + 0.25 != 1
    with pytest.raises(ValueError):
        ProtocolConfig(amp0=float("nan"), amp1=1.0)
    for amp0, amp1 in ((True, False), ("0.6", 0.8), (None, 1.0)):
        with pytest.raises(ValueError, match="amp0"):
            ProtocolConfig(amp0=amp0, amp1=amp1)


def test_config_width_accepts_numpy_integers():
    for width in (np.int64(3), np.uint8(3)):
        config = ProtocolConfig(n=width)
        assert config.n == 3 and type(config.n) is int
        assert config == ProtocolConfig(n=3)
        assert verify_transfer(run_protocol(config, Message("101")), Message("101")).success
    for bad in (np.int64(0), np.bool_(True), np.float64(3.0)):
        with pytest.raises(ValueError, match="message width"):
            ProtocolConfig(n=bad)


# --- circuit structure ---------------------------------------------------------


def test_default_circuit_structure_n1():
    circuit = build_protocol_circuit(ProtocolConfig(n=1), Message("1"))
    kinds = [op.kind for op in circuit.ops]
    assert kinds == [
        GateKind.H,
        GateKind.CNOT,
        GateKind.CNOT,
        GateKind.ENCODE_MU,
        GateKind.TRANSVERSAL_CNOT,
        GateKind.TRANSVERSAL_CNOT,
        GateKind.MULTI_X,
    ]
    assert circuit.gate_count == 7
    layout = circuit.layout
    assert circuit.ops[1].controls == (layout.offset("Q"),)
    assert circuit.ops[1].targets == (layout.offset("F"),)
    assert circuit.ops[2].controls == (layout.offset("F"),)
    assert circuit.ops[2].targets == (layout.offset("R"),)
    assert circuit.ops[3].payload == "1"
    assert circuit.ops[3].controls == (layout.offset("F"),)
    assert circuit.ops[6].targets == (
        layout.offset("Q"),
        layout.offset("R"),
        layout.offset("F"),
    )
    assert dict(circuit.checkpoints) == {
        0: "eq1", 1: "eq2", 2: "eq3", 3: "eq4", 4: "eq5", 5: "eq6", 6: "eq8"
    }


def test_variant_circuits_drop_their_columns():
    prefix = build_protocol_circuit(
        ProtocolConfig(n=1, uncompute_memory=False, apply_branch_swap=False)
    )
    assert prefix.gate_count == 5
    assert prefix.checkpoints == (
        (0, "eq1"), (1, "eq2"), (2, "eq3"), (3, "eq4"), (4, "eq5")
    )
    no_uncompute = build_protocol_circuit(
        ProtocolConfig(n=1, uncompute_memory=False)
    )
    assert no_uncompute.gate_count == 6
    assert no_uncompute.ops[-1].kind is GateKind.MULTI_X
    assert no_uncompute.checkpoints == (
        (0, "eq1"), (1, "eq2"), (2, "eq3"), (3, "eq4"), (4, "eq5"), (5, "eq8")
    )
    no_swap = build_protocol_circuit(ProtocolConfig(n=1, apply_branch_swap=False))
    assert no_swap.gate_count == 6
    assert no_swap.ops[-1].kind is GateKind.TRANSVERSAL_CNOT
    assert no_swap.checkpoints == (
        (0, "eq1"), (1, "eq2"), (2, "eq3"), (3, "eq4"), (4, "eq5"), (5, "eq6")
    )


def test_transversal_pairing_n3():
    circuit = build_protocol_circuit(ProtocolConfig(n=3), Message("101"))
    layout = circuit.layout
    write = circuit.ops[4]
    assert write.controls == layout.qubits("M")
    assert write.targets == layout.qubits("P")
    uncompute = circuit.ops[5]
    assert uncompute.controls == layout.qubits("P")
    assert uncompute.targets == layout.qubits("M")


def test_preparation_gate_matches_amplitudes():
    default = build_protocol_circuit(ProtocolConfig(n=1))
    assert default.ops[0].kind is GateKind.H

    amp0, amp1 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    skewed = build_protocol_circuit(ProtocolConfig(n=1, amp0=amp0, amp1=amp1))
    prep = skewed.ops[0]
    assert prep.kind is GateKind.RY
    assert abs(prep.angle - 2 * math.atan2(amp1, amp0)) <= 1e-15
    assert abs(math.cos(prep.angle / 2) - amp0) <= 1e-12
    assert abs(math.sin(prep.angle / 2) - amp1) <= 1e-12


def _ops_built_fresh(config, payload):
    """The transfer circuit's ops, written out against an uncached layout."""
    n = config.n
    layout = RegisterLayout((("Q", 1), ("R", 1), ("F", 1), ("M", n), ("P", n)))
    q, r, f = (layout.offset(name) for name in "QRF")
    m, p = layout.qubits("M"), layout.qubits("P")
    if abs(config.amp0 - config.amp1) <= 1e-12:
        prep = GateOp.h(q)
    else:
        prep = GateOp.ry(2.0 * math.atan2(config.amp1, config.amp0), q)
    ops = [prep, GateOp.cnot(q, f), GateOp.cnot(f, r)]
    ops += [GateOp.encode(payload, m, control=f), GateOp.transversal_cnot(m, p)]
    if config.uncompute_memory:
        ops.append(GateOp.transversal_cnot(p, m))
    if config.apply_branch_swap:
        ops.append(GateOp.multi_x((q, r, f)))
    return layout, ops


def test_interleaved_builds_share_parts_and_keep_their_payloads():
    configs = [
        ProtocolConfig(n=2),
        ProtocolConfig(n=3, uncompute_memory=False),
        ProtocolConfig(n=2, amp0=0.6, amp1=0.8),
        ProtocolConfig(n=3, apply_branch_swap=False),
        ProtocolConfig(n=2, uncompute_memory=False, apply_branch_swap=False),
    ]
    built = []
    for round_ in range(2):
        for config in configs:
            for message in [None] + all_messages(config.n)[round_::3]:
                built.append((config, message, build_protocol_circuit(config, message)))
    for config, message, circuit in built:
        payload = message.bits if message is not None else "0" * config.n
        layout, fresh = _ops_built_fresh(config, payload)
        assert circuit.layout == layout
        assert circuit.ops == tuple(fresh)
        (encoder,) = [op for op in circuit.ops if op.kind is GateKind.ENCODE_MU]
        assert encoder.payload == payload
    # the message-independent ops are the same objects for every message
    for config in configs:
        first, *rest = [c for cfg, _, c in built if cfg == config]
        for circuit in rest:
            for i, op in enumerate(circuit.ops):
                if i not in (0, 3):
                    assert op is first.ops[i]


def test_negative_zero_amplitude_keeps_its_sign():
    positive = build_protocol_circuit(ProtocolConfig(n=1, amp0=1.0, amp1=0.0))
    negative = build_protocol_circuit(ProtocolConfig(n=1, amp0=1.0, amp1=-0.0))
    assert math.copysign(1, positive.ops[0].angle) == 1
    assert math.copysign(1, negative.ops[0].angle) == -1


def test_wide_friend_ops_are_message_independent():
    """Theorem 1's op comparison, run on the wide-friend circuits."""
    compared = 0
    for width in (1, 2):
        snapshots = ["".join(bits) for bits in itertools.product("01", repeat=width)]
        for f0, f1 in itertools.product(snapshots, repeat=2):
            for n in (1, 2, 3):
                config = ProtocolConfig(n=n)
                base = build_protocol_circuit(config, None, f0, f1)
                for message in all_messages(n):
                    circuit = build_protocol_circuit(config, message, f0, f1)
                    assert circuit.checkpoints == base.checkpoints
                    assert len(circuit.ops) == len(base.ops)
                    for op, base_op in zip(circuit.ops, base.ops):
                        if op.kind is GateKind.ENCODE_MU:
                            assert op.payload == message.bits
                            continue
                        assert op == base_op, (f0, f1, message.bits, op)
                        compared += 1
    assert compared > 0


def test_circuits_over_shared_ops_still_validate_their_fresh_ops():
    """The shared ops and checkpoint table have passed validation; a fresh
    op next to them is checked in full, with today's error texts."""
    circuit = build_protocol_circuit(ProtocolConfig(n=3, amp0=0.6, amp1=0.8), Message("101"))
    ops, layout = list(circuit.ops), circuit.layout  # 9 qubits
    (e,) = [i for i, op in enumerate(ops) if op.kind is GateKind.ENCODE_MU]
    encoder = ops[e]
    for payload, text in (
        ("1x1", "ENCODE_MU payload must be a nonempty string over {0,1}, got '1x1'"),
        ("10", "ENCODE_MU payload width 2 != target register width 3"),
    ):
        bad = GateOp(GateKind.ENCODE_MU, encoder.targets, encoder.controls, payload=payload)
        with pytest.raises(ValueError, match=re.escape(text)):
            Circuit(layout, (*ops[:e], bad, *ops[e + 1 :]), circuit.checkpoints)
        with pytest.raises(ValueError, match=re.escape(text)):
            encoder._derive(payload)
    stray = GateOp.x(9)
    with pytest.raises(ValueError, match=re.escape("qubit 9 out of range for 9-qubit layout")):
        Circuit(layout, (*ops, stray), circuit.checkpoints)

    # Every op here passed for 9 qubits, none for 5: each is checked again.
    narrow = protocol_layout(1)
    text = "qubit 5 out of range for 5-qubit layout"
    with pytest.raises(ValueError, match=re.escape(text)):
        Circuit(narrow, circuit.ops)
    with pytest.raises(ValueError, match=re.escape(text)):
        Circuit(narrow, (encoder._derive("011"),))
    with pytest.raises(ValueError, match="checkpoint 'eq8' attached to op 6, but circuit has 6 ops"):
        Circuit(layout, ops[:6], circuit.checkpoints)


def test_builder_rejects_malformed_snapshots():
    config = ProtocolConfig(n=1)
    with pytest.raises(ValueError, match="snapshot widths differ: 2 != 3"):
        build_protocol_circuit(config, Message("1"), "01", "011")
    with pytest.raises(ValueError, match="snapshot must be a nonempty string"):
        build_protocol_circuit(config, Message("1"), "0a", "01")
    with pytest.raises(ValueError, match="snapshot must be a nonempty string"):
        build_protocol_circuit(config, Message("1"), "01", "")


def test_blank_payload_default_and_width_mismatch():
    circuit = build_protocol_circuit(ProtocolConfig(n=2))
    assert circuit.ops[3].payload == "00"
    with pytest.raises(ValueError):
        build_protocol_circuit(ProtocolConfig(n=2), Message("101"))
    with pytest.raises(ValueError):
        run_protocol(ProtocolConfig(n=2), Message("101"))


# --- evolution ------------------------------------------------------------------


def test_final_state_n1_two_branch_form():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    layout = run.final.layout
    expected = np.zeros(layout.dim, dtype=complex)
    expected[layout.index_for({"Q": "1", "R": "1", "F": "1", "M": "0", "P": "0"})] = (
        SQRT_HALF
    )
    expected[layout.index_for({"Q": "0", "R": "0", "F": "0", "M": "0", "P": "1"})] = (
        SQRT_HALF
    )
    assert np.max(np.abs(run.final.amplitudes - expected)) <= 1e-12


def test_checkpoint_labels_present():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    assert list(run.checkpoints) == ["eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq8"]
    no_uncompute = run_protocol(
        ProtocolConfig(n=1, uncompute_memory=False), Message("1")
    )
    assert "eq6" not in no_uncompute.checkpoints
    no_swap = run_protocol(ProtocolConfig(n=1, apply_branch_swap=False), Message("1"))
    assert "eq8" not in no_swap.checkpoints
    assert no_swap.final == no_swap.checkpoints["eq6"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_checkpoint_sweep_matches_references(n):
    config = ProtocolConfig(n=n)
    for message in all_messages(n):
        run = run_protocol(config, message)
        for label, state in run.checkpoints.items():
            if label == "eq1":
                continue
            reference = checkpoint_reference_state(label, config, message)
            assert fidelity(state, reference) >= 1 - 1e-12
            assert np.max(np.abs(state.amplitudes - reference.amplitudes)) <= 1e-12


def test_reference_state_closed_forms():
    config = ProtocolConfig(n=1)
    message = Message("1")
    layout = protocol_layout(1)

    eq2 = checkpoint_reference_state("eq2", config, message)
    zeros = {"Q": "0", "R": "0", "F": "0", "M": "0", "P": "0"}
    assert eq2.amplitudes[layout.index_for(zeros)] == pytest.approx(SQRT_HALF)
    assert eq2.amplitudes[
        layout.index_for({**zeros, "Q": "1", "F": "1"})
    ] == pytest.approx(SQRT_HALF)

    eq6 = checkpoint_reference_state("eq6", config, message)
    assert eq6.amplitudes[
        layout.index_for({**zeros, "Q": "1", "R": "1", "F": "1", "P": "1"})
    ] == pytest.approx(SQRT_HALF)

    skew = ProtocolConfig(n=1, amp0=math.sqrt(1 / 3), amp1=math.sqrt(2 / 3))
    eq8 = checkpoint_reference_state("eq8", skew, message)
    assert eq8.amplitudes[
        layout.index_for({**zeros, "P": "1"})
    ] == pytest.approx(math.sqrt(2 / 3))
    assert eq8.amplitudes[
        layout.index_for({**zeros, "Q": "1", "R": "1", "F": "1"})
    ] == pytest.approx(math.sqrt(1 / 3))

    # Without the uncompute the message branch keeps M = mu after the swap.
    no_uncompute = ProtocolConfig(n=1, uncompute_memory=False)
    eq8 = checkpoint_reference_state("eq8", no_uncompute, message)
    assert eq8.amplitudes[
        layout.index_for({**zeros, "M": "1", "P": "1"})
    ] == pytest.approx(SQRT_HALF)
    run = run_protocol(no_uncompute, message)
    assert fidelity(run.final, eq8) == pytest.approx(1.0, abs=1e-12)


def test_reference_state_rejects_unknown_labels():
    config = ProtocolConfig(n=1)
    for label in ("eq1", "eq7", "eq9", "final"):
        with pytest.raises(ValueError):
            checkpoint_reference_state(label, config, Message("1"))
    # Labels the configuration never produces have no reference either.
    for label, skipped in (
        ("eq6", ProtocolConfig(n=1, uncompute_memory=False)),
        ("eq8", ProtocolConfig(n=1, apply_branch_swap=False)),
    ):
        with pytest.raises(ValueError):
            checkpoint_reference_state(label, skipped, Message("1"))


def test_run_against_dense_oracle_n3():
    config = ProtocolConfig(n=3)
    message = Message("101")
    circuit = build_protocol_circuit(config, message)
    run = run_protocol(config, message)
    expected = oracle_apply(
        zero_state(circuit.layout).amplitudes, circuit.ops, circuit.layout.total_qubits
    )
    assert np.max(np.abs(run.final.amplitudes - expected)) <= 1e-10


def test_protocol_reversibility():
    for config in (
        ProtocolConfig(n=2),
        ProtocolConfig(n=2, amp0=0.6, amp1=0.8),
    ):
        message = Message("10")
        circuit = build_protocol_circuit(config, message)
        run = run_protocol(config, message)
        inverse = Circuit(circuit.layout, tuple(map(inverse_op, reversed(circuit.ops))))
        recovered, _ = apply_circuit(run.final, inverse)
        target = zero_state(circuit.layout)
        assert np.max(np.abs(recovered.amplitudes - target.amplitudes)) <= 1e-12


@pytest.mark.parametrize("label", ["eq6", "eq8"])
def test_memory_reads_zero_after_uncompute(label):
    from branchcomm.branches import register_component_magnitude

    for message in all_messages(3, nonblank=True):
        run = run_protocol(ProtocolConfig(n=3), message)
        state = run.checkpoints[label]
        assert register_component_magnitude(state, "M", "000") == pytest.approx(
            1.0, abs=1e-12
        )


def test_non_encoder_ops_identical_across_messages():
    config = ProtocolConfig(n=2)
    layout = protocol_layout(2)
    base = build_protocol_circuit(config)
    base_matrices = [
        gate_matrix(op, layout)
        for op in base.ops
        if op.kind is not GateKind.ENCODE_MU
    ]
    for message in all_messages(2):
        circuit = build_protocol_circuit(config, message)
        matrices = [
            gate_matrix(op, layout)
            for op in circuit.ops
            if op.kind is not GateKind.ENCODE_MU
        ]
        assert len(matrices) == len(base_matrices)
        for got, expected in zip(matrices, base_matrices):
            assert np.array_equal(got, expected)


def _record_cnot_on_q(circuit, message):
    if not message.bits.endswith("1"):
        return circuit.ops
    layout = circuit.layout
    ops = list(circuit.ops)
    ops[2] = GateOp.cnot(layout.offset("Q"), layout.offset("R"))
    return tuple(ops)


def _extra_op_for_mu_1(circuit, message):
    return circuit.ops + ((GateOp.x(0),) if message.bits == "1" else ())


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (_record_cnot_on_q, "n=1 mu=1 op=2"),
        (_extra_op_for_mu_1, "n=1 mu=1: op count changed"),
    ],
)
def test_mu_independence_report_names_message_dependent_ops(
    monkeypatch, tamper, expected
):
    build = suites.build_protocol_circuit

    def tampered(config, message=None):
        circuit = build(config, message)
        if message is None:
            return circuit
        return dataclasses.replace(circuit, ops=tamper(circuit, message))

    monkeypatch.setattr(suites, "build_protocol_circuit", tampered)
    report = suites._mu_independence_report()
    assert not report.passed
    assert expected in report.measurements["mismatches"]


def _kernel_parts(circuit):
    """Each kernel's function and bound arguments: partial objects compare
    by identity, these by value."""
    return [(kernel.func, kernel.args) for kernel in circuit._kernels]


def test_trusted_circuits_and_runs_equal_checked_ones():
    """build_protocol_circuit and run_protocol skip their public
    constructors; what they return is what those constructors build, and a
    derived circuit shares every kernel but the encoder's and an RY
    preparation's with its template."""
    wide = [(ProtocolConfig(n=2), m, "01", "10") for m in all_messages(2)]
    for config, message, *friends in [*small_protocol_cases(), *wide]:
        circuit = build_protocol_circuit(config, message, *friends)
        checked = Circuit(circuit.layout, circuit.ops, circuit.checkpoints)
        assert circuit == checked and set(vars(circuit)) == set(vars(checked))
        assert circuit._labels_at == checked._labels_at
        assert _kernel_parts(circuit) == _kernel_parts(checked)
        rotated = circuit.ops[0].kind is GateKind.RY
        template, e = protocol._shared_parts(
            config.n, *(friends or ("0", "1")), config.uncompute_memory,
            config.apply_branch_swap, rotated,
        )
        assert circuit.checkpoints is template.checkpoints
        assert circuit._labels_at is template._labels_at
        for i, (kernel, shared) in enumerate(zip(circuit._kernels, template._kernels)):
            if i == e or (i == 0 and rotated):
                assert kernel is not shared
            else:
                assert kernel is shared and circuit.ops[i] is template.ops[i]
        if friends:
            continue
        run = run_protocol(config, message)
        checked = ProtocolRun(config, run.checkpoints, run.final)
        assert run == checked and vars(run) == vars(checked)
        with pytest.raises(TypeError):
            run.checkpoints["extra"] = run.final


def test_run_is_frozen_snapshot():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    assert isinstance(run, ProtocolRun)
    with pytest.raises(TypeError):
        run.checkpoints["extra"] = run.final


@pytest.mark.parametrize(
    "flags",
    [
        {},
        {"uncompute_memory": False},
        {"apply_branch_swap": False},
        {"amp0": 0.6, "amp1": 0.8},
    ],
)
def test_support_route_matches_dense_route_bitwise(flags):
    for n in range(1, 6):
        config = ProtocolConfig(n=n, **flags)
        for message in all_messages(n):
            run = run_protocol(config, message)
            circuit = build_protocol_circuit(config, message)
            layout = circuit.layout
            dense_zero = StateVector(layout, zero_state(layout).amplitudes.copy())
            final, snapshots = apply_circuit(dense_zero, circuit)
            assert list(snapshots) == list(run.checkpoints)
            for label, state in snapshots.items():
                held = run.checkpoints[label]
                assert held.amplitudes.tobytes() == state.amplitudes.tobytes()
            assert run.final.amplitudes.tobytes() == final.amplitudes.tobytes()


@pytest.mark.parametrize("n", [64, 200])
def test_wide_messages_transfer_without_dense_vectors(n):
    message = Message(("1101" * 50)[:n])
    run = run_protocol(ProtocolConfig(n=n), message)
    verdict = verify_transfer(run, message)
    assert verdict.success
    assert verdict.receiver_paper == message.bits
    with pytest.raises(ValueError, match=f"{2 * n + 3} qubits"):
        run.final.amplitudes


# A build at 2n may trace at most this many times the peak of a build at n.
BUILD_PEAK_GROWTH = 2.5


def test_building_a_circuit_takes_memory_linear_in_the_width():
    """tracemalloc peak of build_protocol_circuit at n = 8192 against
    n = 4096, each built afresh (the shared parts' cache cleared) after a
    warm-up build, so first-call costs are not counted."""

    def traced_peak(n):
        protocol._shared_parts.cache_clear()
        config, message = ProtocolConfig(n=n), Message("10" * (n // 2))
        tracemalloc.start()
        try:
            build_protocol_circuit(config, message)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            protocol._shared_parts.cache_clear()

    traced_peak(8)
    narrow, wide = traced_peak(4096), traced_peak(8192)
    assert wide <= BUILD_PEAK_GROWTH * narrow, (narrow, wide)
