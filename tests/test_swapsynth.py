import itertools

import numpy as np
import pytest

from branchcomm.protocol import Message, ProtocolConfig, build_protocol_circuit
from branchcomm.statevec import GateKind, RegisterLayout, StateVector, make_basis_state
from branchcomm.swapsynth import (
    FriendSnapshot,
    SwapPlan,
    apply_swap_plan,
    synthesize_swap,
    wide_friend_protocol_demo,
)

from helpers import random_state


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
        wide_friend_protocol_demo(
            FriendSnapshot("01"), FriendSnapshot("011"), Message("1")
        )


def test_snapshot_validation():
    for bad in ("", "01a", "2"):
        with pytest.raises(ValueError):
            FriendSnapshot(bad)


def test_swap_plan_validation():
    SwapPlan((), 0)
    SwapPlan((2, 5), 2)
    with pytest.raises(ValueError):
        SwapPlan((5, 2), 2)
    with pytest.raises(ValueError):
        SwapPlan((1, 2), 3)
    with pytest.raises(ValueError):
        SwapPlan((0, 1), 2)


def test_swap_plan_positions_must_be_integral():
    for positions, cost in (((1.5, 2.9), 2), ((1, 2.0), 2), (("1",), 1), ((1,), 1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            SwapPlan(positions, cost)
    plan = SwapPlan((np.int64(1), np.uint8(3)), np.int64(2))
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


def test_apply_swap_plan_exchanges_snapshots_on_every_basis_state():
    layout = RegisterLayout((("A", 1), ("F", 4)))
    f0, f1 = "0101", "1100"
    plan = synthesize_swap(FriendSnapshot(f0), FriendSnapshot(f1))
    flip = int(f0, 2) ^ int(f1, 2)
    for a_bit in "01":
        for value in range(16):
            bits = format(value, "04b")
            state = make_basis_state(layout, {"A": a_bit, "F": bits})
            swapped = apply_swap_plan(state, plan, "F")
            expected = make_basis_state(
                layout, {"A": a_bit, "F": format(value ^ flip, "04b")}
            )
            assert np.array_equal(swapped.amplitudes, expected.amplitudes)


def test_apply_swap_plan_on_superpositions_is_a_permutation():
    layout = RegisterLayout((("F", 3), ("B", 2)))
    plan = synthesize_swap(FriendSnapshot("010"), FriendSnapshot("111"))
    rng = np.random.default_rng(7)
    state = random_state(layout, rng)
    swapped = apply_swap_plan(state, plan, "F")

    flip = (0b101) << layout.width("B")
    permuted = np.empty_like(state.amplitudes)
    for idx in range(layout.dim):
        permuted[idx ^ flip] = state.amplitudes[idx]
    assert np.max(np.abs(swapped.amplitudes - permuted)) <= 1e-15

    back = apply_swap_plan(swapped, plan, "F")
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_empty_plan_returns_state_unchanged():
    layout = RegisterLayout((("F", 2),))
    state = make_basis_state(layout, {"F": "10"})
    plan = SwapPlan((), 0)
    assert apply_swap_plan(state, plan, "F") is state


def test_plan_wider_than_register_rejected():
    layout = RegisterLayout((("F", 2),))
    state = make_basis_state(layout, {"F": "00"})
    with pytest.raises(ValueError):
        apply_swap_plan(state, SwapPlan((1, 3), 2), "F")


def test_wide_demo_single_bit_matches_core_protocol():
    from branchcomm.protocol import ProtocolConfig, run_protocol
    from branchcomm.branches import verify_transfer

    core = verify_transfer(run_protocol(ProtocolConfig(n=1), Message("1")), Message("1"))
    wide = wide_friend_protocol_demo(
        FriendSnapshot("0"), FriendSnapshot("1"), Message("1")
    )
    assert wide.success
    assert (wide.receiver_paper, wide.receiver_memory, wide.sender_paper) == (
        core.receiver_paper,
        core.receiver_memory,
        core.sender_paper,
    )


def test_wide_demo_ten_bit_snapshots():
    verdict = wide_friend_protocol_demo(
        FriendSnapshot("0101110101"), FriendSnapshot("1101100100"), Message("10")
    )
    assert verdict.success
    assert verdict.receiver_paper == "10"
    assert verdict.receiver_memory == "00"
    assert verdict.sender_paper == "00"


def test_wide_demo_twins_swap_costlessly():
    verdict = wide_friend_protocol_demo(
        FriendSnapshot("1011"), FriendSnapshot("1011"), Message("1")
    )
    assert verdict.success
    assert verdict.receiver_paper == "1"


def test_wide_demo_exhaustive_small_widths():
    runs = 0
    for width in (1, 2, 3):
        snapshots = ["".join(bits) for bits in itertools.product("01", repeat=width)]
        for f0, f1 in itertools.product(snapshots, repeat=2):
            for n in (1, 2):
                for value in range(1 << n):
                    verdict = wide_friend_protocol_demo(
                        FriendSnapshot(f0),
                        FriendSnapshot(f1),
                        Message(format(value, f"0{n}b")),
                    )
                    runs += 1
                    assert verdict.success, (f0, f1, n, value, verdict.failure_reason)
    assert runs == (4 + 16 + 64) * (2 + 4)


def _record_encoder_and_swap(f0, f1):
    """The record CNOT, the encoder and the final MULTI_X of a wide circuit."""
    circuit = build_protocol_circuit(ProtocolConfig(n=2), Message("10"), f0, f1)
    r = circuit.layout.offset("R")
    (record,) = [op for op in circuit.ops if op.targets == (r,)]
    (encoder,) = [op for op in circuit.ops if op.kind is GateKind.ENCODE_MU]
    return circuit.layout, record, encoder, circuit.ops[-1]


def test_wide_circuit_control_rule_and_swap_follow_the_plan():
    checked = 0
    for width in (1, 2, 3):
        snapshots = ["".join(bits) for bits in itertools.product("01", repeat=width)]
        for f0, f1 in itertools.product(snapshots, repeat=2):
            layout, record, encoder, swap = _record_encoder_and_swap(f0, f1)
            q, f = layout.offset("Q"), layout.qubits("F")
            rising = [i for i in range(width) if f0[i] == "0" and f1[i] == "1"]
            control = f[rising[0]] if rising else q
            assert record.kind is GateKind.CNOT
            assert record.controls == (control,), (f0, f1)
            assert encoder.controls == (control,), (f0, f1)
            plan = synthesize_swap(FriendSnapshot(f0), FriendSnapshot(f1))
            assert swap.kind is GateKind.MULTI_X
            assert swap.targets == (q, layout.offset("R")) + tuple(
                f[position - 1] for position in plan.x_positions
            ), (f0, f1)
            checked += 1
    assert checked == 4 + 16 + 64


def test_friend_steered_from_one_to_zero_does_not_control():
    layout, record, encoder, swap = _record_encoder_and_swap("1", "0")
    q, f = layout.offset("Q"), layout.offset("F")
    assert record.controls == encoder.controls == (q,)
    assert swap.targets == (q, layout.offset("R"), f)
    verdict = wide_friend_protocol_demo(
        FriendSnapshot("1"), FriendSnapshot("0"), Message("1")
    )
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
