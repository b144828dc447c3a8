"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass line with
its key measurements; pytest -s shows the full scoreboard. Tolerances are
stated inline next to each assertion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from branchcomm.branches import (
    decompose_by_register,
    register_component_magnitude,
    verify_transfer,
)
from branchcomm.nogo import (
    construct_G,
    run_no_uncompute_variant,
    verify_amplitude_immutability,
    witness_mu_dependence,
)
from branchcomm.protocol import (
    Message,
    ProtocolConfig,
    build_protocol_circuit,
    checkpoint_reference_state,
    run_protocol,
)
from branchcomm.qasm import simulate_qasm, to_qasm
from branchcomm.statevec import fidelity, protocol_layout
from branchcomm.suites import run_suite
from branchcomm.swapsynth import FriendSnapshot, synthesize_swap

from helpers import oracle_apply, oracle_matrix, random_circuit, random_state

SQRT_HALF = math.sqrt(0.5)


def all_messages(n, nonblank=False):
    return [Message(format(v, f"0{n}b")) for v in range(1 if nonblank else 0, 1 << n)]


def test_criterion_1_two_branch_final_state():
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        run = run_protocol(ProtocolConfig(n=1), Message("1"))
        best = min(best, time.perf_counter() - start)

    layout = run.final.layout
    expected = np.zeros(layout.dim, dtype=complex)
    expected[layout.index_for({"Q": "1", "R": "1", "F": "1", "M": "0", "P": "0"})] = (
        SQRT_HALF
    )
    expected[layout.index_for({"Q": "0", "R": "0", "F": "0", "M": "0", "P": "1"})] = (
        SQRT_HALF
    )
    fid = fidelity(run.final, run.final.__class__(layout, expected))
    assert fid >= 1 - 1e-12
    assert best < 0.010
    print(
        f"criterion 1 PASS  two-branch final state reproduced "
        f"(fidelity {fid:.15f}, best runtime {best * 1e3:.2f} ms)"
    )


def test_criterion_2_checkpoint_sweep():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for n in (1, 2, 3):
        config = ProtocolConfig(n=n)
        for message in all_messages(n):
            run = run_protocol(config, message)
            for label, state in run.checkpoints.items():
                if label == "eq1":
                    continue
                reference = checkpoint_reference_state(label, config, message)
                delta = float(np.max(np.abs(state.amplitudes - reference.amplitudes)))
                worst = max(worst, delta)
                assert delta <= 1e-12, (n, message.bits, label, delta)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 2 PASS  {checked} checkpoints vs closed forms "
        f"(max delta {worst:.2e}, {elapsed:.2f} s)"
    )


def test_criterion_3_transfer_for_every_message():
    runs = 0
    for n in (1, 2, 3):
        for message in all_messages(n):
            verdict = verify_transfer(
                run_protocol(ProtocolConfig(n=n), message), message
            )
            assert verdict.success, (n, message.bits, verdict.failure_reason)
            runs += 1
    exhaustive = runs

    rng = np.random.default_rng(20240917)
    sampled = 0
    for n in range(4, 9):
        for value in rng.choice(1 << n, size=12, replace=False):
            message = Message(format(int(value), f"0{n}b"))
            verdict = verify_transfer(
                run_protocol(ProtocolConfig(n=n), message), message
            )
            assert verdict.success, (n, message.bits, verdict.failure_reason)
            sampled += 1
    assert sampled >= 50

    from branchcomm.statevec import GateKind

    # Each non-encoder op's Kronecker-oracle matrix must equal the
    # blank-payload circuit's at the same index; the oracle, unlike
    # gate_matrix, shares no code with the engine's kernels. One base matrix
    # is held at a time (64 MiB each at n = 4). An op both circuits share is
    # one object, so its oracle matrix is the base's: only ops built per
    # message are recomputed.
    matrix_ns = (1, 2, 3, 4)
    for n in matrix_ns:
        total = protocol_layout(n).total_qubits
        base = build_protocol_circuit(ProtocolConfig(n=n)).ops
        circuits = [
            build_protocol_circuit(ProtocolConfig(n=n), message)
            for message in all_messages(n)
        ]
        assert all(len(circuit.ops) == len(base) for circuit in circuits)
        for i, base_op in enumerate(base):
            if base_op.kind is GateKind.ENCODE_MU:
                continue
            expected = oracle_matrix(base_op, total)
            for circuit in circuits:
                op = circuit.ops[i]
                got = expected if op is base_op else oracle_matrix(op, total)
                assert np.array_equal(got, expected)
    print(
        f"criterion 3 PASS  transfer succeeds for every message "
        f"({exhaustive} exhaustive, {sampled} sampled, gate matrices "
        f"bitwise message-independent at n <= {matrix_ns[-1]})"
    )


def test_criterion_4_uncompute_is_necessary():
    failures = 0
    worst = 0.0
    for n in (1, 2, 3):
        layout = protocol_layout(n)
        zeros = "0" * n
        for message in all_messages(n, nonblank=True):
            state, verdict = run_no_uncompute_variant(message)
            expected = np.zeros(layout.dim, dtype=complex)
            expected[
                layout.index_for(
                    {"Q": "1", "R": "1", "F": "1", "M": zeros, "P": zeros}
                )
            ] = SQRT_HALF
            expected[
                layout.index_for(
                    {"Q": "0", "R": "0", "F": "0", "M": message.bits, "P": message.bits}
                )
            ] = SQRT_HALF
            delta = float(np.max(np.abs(state.amplitudes - expected)))
            worst = max(worst, delta)
            assert delta <= 1e-12
            assert not verdict.success
            assert verdict.failure_reason.startswith("cross-branch memory")
            assert verdict.receiver_memory == message.bits
            failures += 1
    print(
        f"criterion 4 PASS  skipping the uncompute leaks the memory in all "
        f"{failures} nonblank cases (max delta {worst:.2e})"
    )


def test_criterion_5_memory_swap_is_message_dependent():
    sqrt2 = math.sqrt(2)
    for n in (2, 3):
        report = witness_mu_dependence(n)
        assert report.passed
        assert report.measurements["max_unitarity_deviation"] <= 1e-12
        assert report.measurements["max_distance_deviation_from_sqrt2"] <= 1e-12

        dim = 1 << n
        messages = all_messages(n, nonblank=True)
        blank = np.zeros(dim, dtype=complex)
        blank[0] = 1.0
        for mu in messages:
            g = construct_G(mu)
            assert np.max(np.abs(g.conj().T @ g - np.eye(dim))) <= 1e-12
            assert np.max(np.abs(g @ g - np.eye(dim))) <= 1e-12
        for mu1, mu2 in itertools.combinations(messages, 2):
            gap = np.linalg.norm(
                (construct_G(mu1) - construct_G(mu2)) @ blank
            )
            assert abs(gap - sqrt2) <= 1e-12
    print(
        "criterion 5 PASS  every G(mu) unitary and self-inverse; all pairwise "
        "blank-state gaps equal sqrt(2) within 1e-12 at n = 2, 3"
    )


def test_criterion_6_branch_weights_survive_the_swap():
    amp0, amp1 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    report = verify_amplitude_immutability(amp0, amp1, Message("1"))
    assert report.passed
    m = report.measurements
    assert abs(m["paper_component_magnitude_pre_swap"] - amp1) <= 1e-12
    assert abs(m["paper_component_magnitude_post_swap"] - amp1) <= 1e-12
    assert m["magnitude_delta"] <= 1e-12
    assert m["exchange_delta"] <= 1e-12

    run = run_protocol(ProtocolConfig(n=1, amp0=amp0, amp1=amp1), Message("1"))
    assert abs(
        register_component_magnitude(run.final, "P", "1") - amp1
    ) <= 1e-12
    weights = {
        b.label: abs(b.amplitude) for b in decompose_by_register(run.final, "R")
    }
    assert abs(weights["0"] - amp1) <= 1e-12
    assert abs(weights["1"] - amp0) <= 1e-12
    print(
        f"criterion 6 PASS  P-component magnitude {m['paper_component_magnitude_post_swap']:.12f} "
        f"= sqrt(2/3) before and after the swap; R weights exchanged"
    )


def test_criterion_7_swap_synthesis_example():
    plan = synthesize_swap(FriendSnapshot("0101110101"), FriendSnapshot("1101100100"))
    assert plan.x_positions == (1, 6, 10)
    assert plan.hamming_cost == 3
    print(
        f"criterion 7 PASS  plan {plan.operator_string()} with cost "
        f"{plan.hamming_cost}"
    )


def test_criterion_8_property_suites_green():
    rng = np.random.default_rng(42)
    layout = protocol_layout(1)

    worst = 0.0
    for _ in range(100):
        circuit = random_circuit(rng, layout)
        state = random_state(layout, rng)
        from branchcomm.statevec import apply_circuit

        fast, _ = apply_circuit(state, circuit)
        slow = oracle_apply(state.amplitudes, circuit.ops, layout.total_qubits)
        worst = max(worst, float(np.max(np.abs(fast.amplitudes - slow))))
        assert worst <= 1e-10
        assert abs(fast.norm() - 1.0) <= 1e-10

    start = time.perf_counter()
    reports = run_suite("all")
    elapsed = time.perf_counter() - start
    assert all(report.passed for report in reports)
    assert elapsed < 10.0
    print(
        f"criterion 8 PASS  100 random circuits vs dense oracle "
        f"(max delta {worst:.2e}); all {len(reports)} suite claims verified in "
        f"{elapsed:.2f} s"
    )


def test_criterion_9_export_round_trip():
    config = ProtocolConfig(n=3)
    message = Message("101")
    circuit = build_protocol_circuit(config, message)
    run = run_protocol(config, message)
    resimulated = simulate_qasm(to_qasm(circuit))
    delta = float(np.max(np.abs(resimulated.amplitudes - run.final.amplitudes)))
    assert delta <= 1e-12
    print(f"criterion 9 PASS  n=3 export re-simulates to the final state (max delta {delta:.2e})")
