import itertools

import numpy as np
import pytest

from branchcomm.protocol import Message, ProtocolConfig, build_protocol_circuit
from branchcomm.statevec import GateKind
from branchcomm.swapsynth import FriendSnapshot, SwapPlan, synthesize_swap

from helpers import wide_transfer


def test_ten_bit_snapshots_differ_in_three_positions():
    plan = synthesize_swap(
        FriendSnapshot("0101110101"), FriendSnapshot("1101100100")
    )
    assert plan.x_positions == (1, 6, 10)
    assert plan.hamming_cost == 3
    assert plan.operator_string() == "X_1 X_6 X_10"
    assert plan.to_dict() == {"positions": [1, 6, 10], "cost": 3}


def test_identical_snapshots_swap_for_free():
    plan = synthesize_swap(FriendSnapshot("0110"), FriendSnapshot("0110"))
    assert plan.x_positions == ()
    assert plan.hamming_cost == 0
    assert plan.operator_string() == "identity"


def test_complementary_snapshots_cost_full_width():
    plan = synthesize_swap(FriendSnapshot("0101"), FriendSnapshot("1010"))
    assert plan.x_positions == (1, 2, 3, 4)
    assert plan.hamming_cost == 4


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        synthesize_swap(FriendSnapshot("01"), FriendSnapshot("011"))
    with pytest.raises(ValueError):
        wide_transfer("01", "011", Message("1"))


def test_snapshot_validation():
    for bad in ("", "01a", "2"):
        with pytest.raises(ValueError):
            FriendSnapshot(bad)


def test_swap_plan_validation():
    assert SwapPlan(()).hamming_cost == 0
    assert SwapPlan((2, 5)).hamming_cost == 2
    with pytest.raises(ValueError):
        SwapPlan((5, 2))
    with pytest.raises(ValueError):
        SwapPlan((0, 1))


def test_swap_plan_positions_must_be_integral():
    for positions in ((1.5, 2.9), (1, 2.0), ("1",)):
        with pytest.raises(ValueError, match="must be an integer"):
            SwapPlan(positions)
    plan = SwapPlan((np.int64(1), np.uint8(3)))
    assert plan.x_positions == (1, 3) and plan.hamming_cost == 2
    assert all(type(p) is int for p in (*plan.x_positions, plan.hamming_cost))
    assert plan.to_dict() == {"positions": [1, 3], "cost": 2}


def test_cost_equals_bit_count_of_xor():
    rng = np.random.default_rng(20240917)
    for _ in range(50):
        width = int(rng.integers(1, 17))
        a = int(rng.integers(0, 1 << width))
        b = int(rng.integers(0, 1 << width))
        plan = synthesize_swap(
            FriendSnapshot(format(a, f"0{width}b")),
            FriendSnapshot(format(b, f"0{width}b")),
        )
        assert plan.hamming_cost == bin(a ^ b).count("1")


def test_wide_demo_single_bit_matches_core_protocol():
    from branchcomm.protocol import ProtocolConfig, run_protocol
    from branchcomm.branches import verify_transfer

    core = verify_transfer(run_protocol(ProtocolConfig(n=1), Message("1")), Message("1"))
    wide = wide_transfer("0", "1", Message("1"))
    assert wide.success
    assert (wide.receiver_paper, wide.receiver_memory, wide.sender_paper) == (
        core.receiver_paper,
        core.receiver_memory,
        core.sender_paper,
    )


def test_wide_demo_ten_bit_snapshots():
    verdict = wide_transfer("0101110101", "1101100100", Message("10"))
    assert verdict.success
    assert verdict.receiver_paper == "10"
    assert verdict.receiver_memory == "00"
    assert verdict.sender_paper == "00"


def test_wide_demo_twins_swap_costlessly():
    verdict = wide_transfer("1011", "1011", Message("1"))
    assert verdict.success
    assert verdict.receiver_paper == "1"


def test_wide_demo_exhaustive_small_widths():
    runs = 0
    for width in (1, 2, 3):
        snapshots = ["".join(bits) for bits in itertools.product("01", repeat=width)]
        for f0, f1 in itertools.product(snapshots, repeat=2):
            for n in (1, 2):
                for value in range(1 << n):
                    verdict = wide_transfer(f0, f1, Message(format(value, f"0{n}b")))
                    runs += 1
                    assert verdict.success, (f0, f1, n, value, verdict.failure_reason)
    assert runs == (4 + 16 + 64) * (2 + 4)


def _wide_ops(f0, f1):
    """The steering CNOTs (onto a friend qubit), the record CNOT, the encoder
    and the final MULTI_X of a wide circuit."""
    circuit = build_protocol_circuit(ProtocolConfig(n=2), Message("10"), f0, f1)
    layout = circuit.layout
    friend = layout.qubits("F")
    steering = [
        op for op in circuit.ops
        if op.kind is GateKind.CNOT and op.targets[0] in friend
    ]
    (record,) = [op for op in circuit.ops if op.targets == (layout.offset("R"),)]
    (encoder,) = [op for op in circuit.ops if op.kind is GateKind.ENCODE_MU]
    return layout, steering, record, encoder, circuit.ops[-1]


def test_wide_circuit_control_rule_and_swap_follow_the_plan():
    checked = 0
    for width in (1, 2, 3):
        snapshots = ["".join(bits) for bits in itertools.product("01", repeat=width)]
        for f0, f1 in itertools.product(snapshots, repeat=2):
            layout, steering, record, encoder, swap = _wide_ops(f0, f1)
            q, f = layout.offset("Q"), layout.qubits("F")
            rising = [i for i in range(width) if f0[i] == "0" and f1[i] == "1"]
            control = f[rising[0]] if rising else q
            assert record.kind is GateKind.CNOT
            assert record.controls == (control,), (f0, f1)
            assert encoder.controls == (control,), (f0, f1)
            plan = synthesize_swap(FriendSnapshot(f0), FriendSnapshot(f1))
            planned = tuple(f[position - 1] for position in plan.x_positions)
            assert [op.controls for op in steering] == [(q,)] * len(planned)
            assert tuple(op.targets[0] for op in steering) == planned, (f0, f1)
            assert swap.kind is GateKind.MULTI_X
            assert swap.targets == (q, layout.offset("R")) + planned, (f0, f1)
            checked += 1
    assert checked == 4 + 16 + 64


def test_friend_steered_from_one_to_zero_does_not_control():
    layout, steering, record, encoder, swap = _wide_ops("1", "0")
    q, f = layout.offset("Q"), layout.offset("F")
    assert [op.targets for op in steering] == [(f,)]
    assert record.controls == encoder.controls == (q,)
    assert swap.targets == (q, layout.offset("R"), f)
    verdict = wide_transfer("1", "0", Message("1"))
    assert verdict.success, verdict.failure_reason
    assert verdict.receiver_paper == "1"


def test_wide_circuit_checkpoint_indices_follow_the_ops():
    labels = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq8")
    cases = {
        # rest MULTI_X at 1, steering CNOTs at 2-4, record at 5
        ("0101110101", "1101100100"): (0, 4, 5, 6, 7, 8, 9),
        ("1011", "1011"): (0, 1, 2, 3, 4, 5, 6),  # rest only, no steering
        ("0", "0"): (0, 0, 1, 2, 3, 4, 5),  # nothing between prep and record
        ("10", "01"): (0, 3, 4, 5, 6, 7, 8),
    }
    for (f0, f1), indices in cases.items():
        circuit = build_protocol_circuit(ProtocolConfig(n=1), Message("1"), f0, f1)
        assert circuit.checkpoints == tuple(zip(indices, labels)), (f0, f1)
        assert circuit.ops[indices[2]].targets == (circuit.layout.offset("R"),)
        assert circuit.ops[indices[3]].kind is GateKind.ENCODE_MU
