import math

import numpy as np
import pytest

from branchcomm.branches import (
    ZERO_TOL,
    Branch,
    TransferVerdict,
    decompose_by_register,
    evaluate_transfer,
    register_component_magnitude,
    verify_transfer,
)
from branchcomm.protocol import (
    Message,
    ProtocolConfig,
    ProtocolRun,
    build_protocol_circuit,
    run_protocol,
)
from branchcomm.statevec import (
    RegisterLayout,
    StateVector,
    apply_circuit,
    make_basis_state,
    protocol_layout,
    zero_state,
)

from helpers import branch_component, listed_by_bits, random_state, small_protocol_cases

SQRT_HALF = math.sqrt(0.5)


def two_term_state(layout, assignment_a, assignment_b, amp_a=SQRT_HALF, amp_b=SQRT_HALF):
    amps = np.zeros(layout.dim, dtype=complex)
    amps[layout.index_for(assignment_a)] = amp_a
    amps[layout.index_for(assignment_b)] = amp_b
    return StateVector(layout, amps)


ZEROS = {"Q": "0", "R": "0", "F": "0", "M": "0", "P": "0"}
ONES_SENT = {"Q": "1", "R": "1", "F": "1", "M": "0", "P": "0"}


def final_state(layout, receiver=None, sender=None):
    """Two-branch state shaped like a completed run, with optional overrides."""
    a = dict(ZEROS, P="1")
    b = dict(ONES_SENT)
    if receiver:
        a.update(receiver)
    if sender:
        b.update(sender)
    return two_term_state(layout, a, b)


# --- decomposition ---------------------------------------------------------------


def test_two_branch_final_state():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    branches = decompose_by_register(run.final, "R")
    assert [b.label for b in branches] == ["0", "1"]
    by_label = {b.label: b for b in branches}
    assert by_label["0"].amplitude == pytest.approx(SQRT_HALF, abs=1e-12)
    assert by_label["1"].amplitude == pytest.approx(SQRT_HALF, abs=1e-12)
    assert by_label["0"].local_state == dict(ZEROS, P="1")
    assert by_label["1"].local_state == ONES_SENT


def test_single_branch_product_state():
    layout = protocol_layout(2)
    state = make_basis_state(
        layout, {"Q": "1", "R": "1", "F": "1", "M": "10", "P": "00"}
    )
    branches = decompose_by_register(state, "R")
    assert len(branches) == 1
    assert branches[0].label == "1"
    assert branches[0].amplitude == pytest.approx(1.0)
    assert branches[0].local_state == {
        "Q": "1", "R": "1", "F": "1", "M": "10", "P": "00"
    }


def test_superposed_branch_has_no_local_state():
    layout = protocol_layout(1)
    state = two_term_state(layout, dict(ZEROS), dict(ZEROS, P="1"))
    branches = decompose_by_register(state, "R")
    assert len(branches) == 1
    assert branches[0].label == "0"
    assert branches[0].local_state is None
    assert branches[0].amplitude == pytest.approx(1.0, abs=1e-12)


def test_decomposition_completeness_and_reconstruction():
    run = run_protocol(ProtocolConfig(n=2), Message("10"))
    branches = decompose_by_register(run.final, "R")
    total = sum(b.amplitude**2 for b in branches)
    assert total == pytest.approx(1.0, abs=1e-12)
    rebuilt = sum(branch_component(b) for b in branches)
    assert np.array_equal(rebuilt, run.final.amplitudes)


def test_decomposition_orthogonality_and_idempotence():
    run = run_protocol(
        ProtocolConfig(n=1, amp0=math.sqrt(1 / 3), amp1=math.sqrt(2 / 3)),
        Message("1"),
    )
    branches = decompose_by_register(run.final, "R")
    assert np.vdot(branch_component(branches[0]), branch_component(branches[1])) == 0
    for branch in branches:
        normalized = branch_component(branch) / branch.amplitude
        again = decompose_by_register(
            StateVector(run.final.layout, normalized), "R"
        )
        assert len(again) == 1
        assert again[0].label == branch.label
        assert again[0].amplitude == pytest.approx(1.0, abs=1e-12)


def test_decomposition_drops_numerical_dust():
    layout = protocol_layout(1)
    amps = np.zeros(layout.dim, dtype=complex)
    amps[layout.index_for(dict(ZEROS))] = 1.0
    amps[layout.index_for(dict(ZEROS, R="1"))] = 1e-15
    branches = decompose_by_register(StateVector(layout, amps), "R")
    assert [b.label for b in branches] == ["0"]


def test_decompose_by_other_registers():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    by_paper = decompose_by_register(run.final, "P")
    assert [b.label for b in by_paper] == ["0", "1"]
    with pytest.raises((KeyError, ValueError)):
        decompose_by_register(run.final, "Z")


def test_register_component_magnitude():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    assert register_component_magnitude(run.final, "P", "1") == pytest.approx(
        SQRT_HALF, abs=1e-12
    )
    assert register_component_magnitude(run.final, "M", "0") == pytest.approx(
        1.0, abs=1e-12
    )
    assert register_component_magnitude(run.final, "M", "1") == 0.0


def _error_text(call, *args, **kwargs):
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("bad", ["-1", "+1", " 1", "1 ", "1_0", "2", "", "wide"])
def test_malformed_register_values_fail_alike_in_both_forms(bad):
    message = Message("11")
    run = run_protocol(ProtocolConfig(n=2), message)
    held = run.checkpoints["eq6"]
    dense = StateVector(held.layout, held.amplitudes)
    layout = held.layout
    for register in ("F", "P"):
        value = "0" * (layout.width(register) + 1) if bad == "wide" else bad
        texts = {
            _error_text(layout.index_for, {**layout.assignment_of(0), register: value}),
            _error_text(register_component_magnitude, held, register, value),
            _error_text(register_component_magnitude, dense, register, value),
        }
        if register == "F":
            for friend in ("receiver_friend", "sender_friend"):
                given = {friend: value}
                texts.add(_error_text(evaluate_transfer, run.final, message, **given))
        assert len(texts) == 1, texts
    if bad == "-1":
        assert texts == {"register 'P' value must be a nonempty string over {0,1}, got '-1'"}


# --- verdicts --------------------------------------------------------------------


def test_verify_transfer_success():
    run = run_protocol(ProtocolConfig(n=1), Message("1"))
    verdict = verify_transfer(run, Message("1"))
    assert verdict.success
    assert verdict.receiver_paper == "1"
    assert verdict.receiver_memory == "0"
    assert verdict.failure_reason is None
    assert verdict.note is None


def test_verify_transfer_blank_message_notes_it():
    run = run_protocol(ProtocolConfig(n=2), Message("00"))
    verdict = verify_transfer(run, Message("00"))
    assert verdict.success
    assert verdict.note == "blank message"


def test_verify_transfer_requires_branch_swap():
    run = run_protocol(ProtocolConfig(n=1, apply_branch_swap=False), Message("1"))
    with pytest.raises(ValueError):
        verify_transfer(run, Message("1"))


def test_verify_transfer_width_mismatch():
    run = run_protocol(ProtocolConfig(n=2), Message("10"))
    with pytest.raises(ValueError):
        verify_transfer(run, Message("1"))


def test_failure_wrong_receiver_paper():
    layout = protocol_layout(1)
    state = final_state(layout, receiver={"P": "0"})
    verdict = evaluate_transfer(state, Message("1"))
    assert not verdict.success
    assert "paper" in verdict.failure_reason
    assert "'0'" in verdict.failure_reason and "'1'" in verdict.failure_reason


def test_failure_cross_branch_memory():
    layout = protocol_layout(1)
    state = final_state(layout, receiver={"M": "1"})
    verdict = evaluate_transfer(state, Message("1"))
    assert not verdict.success
    assert verdict.failure_reason.startswith("cross-branch memory")
    assert verdict.receiver_memory == "1"


def test_failure_receiver_friend_and_qubit():
    layout = protocol_layout(1)
    friend_bad = final_state(layout, receiver={"F": "1"})
    verdict = evaluate_transfer(friend_bad, Message("1"))
    assert not verdict.success
    assert "friend" in verdict.failure_reason

    qubit_bad = final_state(layout, receiver={"Q": "1"})
    verdict = evaluate_transfer(qubit_bad, Message("1"))
    assert not verdict.success
    assert "qubit" in verdict.failure_reason.lower()


def test_failure_sender_side():
    layout = protocol_layout(1)
    paper_bad = final_state(layout, sender={"P": "1"})
    verdict = evaluate_transfer(paper_bad, Message("1"))
    assert not verdict.success
    assert "paper" in verdict.failure_reason

    memory_bad = final_state(layout, sender={"M": "1"})
    verdict = evaluate_transfer(memory_bad, Message("1"))
    assert not verdict.success
    assert "memory" in verdict.failure_reason


def test_failure_branch_count_and_classicality():
    layout = protocol_layout(1)
    one_branch = make_basis_state(layout, dict(ZEROS, P="1"))
    verdict = evaluate_transfer(one_branch, Message("1"))
    assert not verdict.success
    assert "branch" in verdict.failure_reason

    superposed = two_term_state(
        layout, dict(ZEROS, P="1"), dict(ZEROS, M="1"),
    )
    amps = superposed.amplitudes.copy()
    amps[layout.index_for(ONES_SENT)] = SQRT_HALF
    amps *= 1 / np.linalg.norm(amps)
    messy = StateVector(layout, amps)
    verdict = evaluate_transfer(messy, Message("1"))
    assert not verdict.success
    assert "classical" in verdict.failure_reason


def test_clause_order_paper_checked_before_memory():
    layout = protocol_layout(1)
    both_bad = final_state(layout, receiver={"P": "0", "M": "1"})
    verdict = evaluate_transfer(both_bad, Message("1"))
    assert "paper" in verdict.failure_reason
    assert not verdict.failure_reason.startswith("cross-branch memory")


def test_sender_friend_check_is_optional():
    layout = protocol_layout(1)
    state = final_state(layout)
    assert evaluate_transfer(state, Message("1")).success
    assert evaluate_transfer(
        state, Message("1"), receiver_friend="0", sender_friend="1"
    ).success
    verdict = evaluate_transfer(
        state, Message("1"), receiver_friend="0", sender_friend="0"
    )
    assert not verdict.success
    assert "friend" in verdict.failure_reason


# Every failure clause of evaluate_transfer, pinned whole: the reason text and
# the three register fields. Each case is (layout widths as (n, friend width)
# or a register table, message, receiver and sender overrides on a
# completed-run state, friend expectations, reason, receiver paper, receiver
# memory, sender paper).
PINNED_FAILURES = [
    # n = 1, the paper's friend, no friend expectations given
    ((1, 1), "1", {"P": "0"}, {}, {},
     "receiver paper '0' != message '1'", "0", "0", "0"),
    ((1, 1), "1", {"M": "1"}, {}, {},
     "cross-branch memory: receiver memory '1' != '0'", "1", "1", "0"),
    ((1, 1), "1", {"F": "1"}, {}, {},
     "receiver friend '1' != expected '0'", "1", "0", "0"),
    ((1, 1), "1", {"Q": "1"}, {}, {},
     "receiver qubit '1' != '0'", "1", "0", "0"),
    ((1, 1), "1", {}, {"P": "1"}, {},
     "sender paper '1' is not blank", "1", "0", "1"),
    ((1, 1), "1", {}, {"M": "1"}, {},
     "sender memory '1' is not cleared", "1", "0", "0"),
    ((1, 1), "1", {}, {}, {"sender_friend": "0"},
     "sender friend '1' != expected '0'", "1", "0", "0"),
    # the first failing clause names the verdict
    ((1, 1), "1", {"P": "0", "M": "1"}, {"P": "1"}, {},
     "receiver paper '0' != message '1'", "0", "1", "1"),
    ((1, 1), "0", {"F": "1"}, {"M": "1"}, {"sender_friend": "0"},
     "receiver friend '1' != expected '0'", "0", "0", "0"),
    # n = 3, a 2-bit friend resting in 01 and steered to 10
    ((3, 2), "101", {"P": "100"}, {}, {"receiver_friend": "01", "sender_friend": "10"},
     "receiver paper '100' != message '101'", "100", "000", "000"),
    ((3, 2), "101", {"M": "010"}, {}, {"receiver_friend": "01", "sender_friend": "10"},
     "cross-branch memory: receiver memory '010' != '000'", "101", "010", "000"),
    ((3, 2), "101", {"F": "11"}, {}, {"receiver_friend": "01", "sender_friend": "10"},
     "receiver friend '11' != expected '01'", "101", "000", "000"),
    ((3, 2), "101", {"F": "01"}, {}, {},
     "receiver friend '01' != expected '00'", "101", "000", "000"),
    ((3, 2), "101", {"Q": "1"}, {}, {"receiver_friend": "01", "sender_friend": "10"},
     "receiver qubit '1' != '0'", "101", "000", "000"),
    ((3, 2), "101", {}, {"P": "001"}, {"receiver_friend": "01", "sender_friend": "10"},
     "sender paper '001' is not blank", "101", "000", "001"),
    ((3, 2), "101", {}, {"M": "110"}, {"receiver_friend": "01", "sender_friend": "10"},
     "sender memory '110' is not cleared", "101", "000", "000"),
    ((3, 2), "101", {}, {"F": "00"}, {"receiver_friend": "01", "sender_friend": "10"},
     "sender friend '00' != expected '10'", "101", "000", "000"),
    ((3, 2), "000", {"M": "111"}, {"P": "111"}, {"receiver_friend": "01"},
     "cross-branch memory: receiver memory '111' != '000'", "000", "111", "111"),
    # layouts that are not protocol_layout's: a register value is compared
    # as a bit-string, so a width that differs never matches
    ((("Q", 2), ("R", 1), ("F", 1), ("M", 1), ("P", 1)), "1", {"Q": "00"}, {"Q": "11"}, {},
     "receiver qubit '00' != '0'", "1", "0", "0"),
    ((("Q", 1), ("R", 1), ("F", 1), ("M", 2), ("P", 3)), "01", {"P": "001"}, {"P": "000"}, {},
     "receiver paper '001' != message '01'", "001", "00", "000"),
    ((("Q", 1), ("R", 1), ("F", 1), ("M", 2), ("P", 1)), "00", {"P": "0"}, {"P": "0"}, {},
     "receiver paper '0' != message '00'", "0", "00", "0"),
]


def _completed_run_state(widths, message, receiver, sender):
    """Two-term state shaped like a completed run on `widths`, with the
    receiver (R=0) and sender (R=1) terms' registers overridden. The
    friend rests in all zeros and is steered to all ones, or at width 2
    rests in 01 and is steered to 10."""
    if isinstance(widths[0], tuple):
        layout = RegisterLayout(widths)
    else:
        layout = protocol_layout(*widths)
    blank = {name: "0" * width for name, width in layout.registers}
    a = {**blank, "P": message if layout.width("P") == len(message) else blank["P"]}
    b = {**blank, "Q": "1", "R": "1", "F": "1" * layout.width("F")}
    if layout.width("F") == 2:
        a["F"], b["F"] = "01", "10"
    return two_term_state(layout, {**a, **receiver}, {**b, **sender})


@pytest.mark.parametrize("case", PINNED_FAILURES)
def test_failure_verdicts_are_pinned(case):
    widths, bits, receiver, sender, friends, reason, r_paper, r_memory, s_paper = case
    state = _completed_run_state(widths, bits, receiver, sender)
    verdict = evaluate_transfer(state, Message(bits), **friends)
    assert verdict == TransferVerdict(False, r_paper, r_memory, s_paper, reason)
    assert verdict.note is None


def test_structural_failure_verdicts_are_pinned():
    """The clauses read before any register: branch count, classical
    branches and the R values; each leaves every register field None."""
    layout = protocol_layout(1)
    found_one = make_basis_state(layout, dict(ZEROS, P="1"))
    dust_only = StateVector(layout, support={3: ZERO_TOL, 20: -0.5j * ZERO_TOL})
    sender_mixed = {
        layout.index_for(dict(ZEROS, P="1")): 0.5,
        layout.index_for(ONES_SENT): 0.5,
        layout.index_for(dict(ONES_SENT, M="1")): 0.5,
        layout.index_for(dict(ONES_SENT, P="1")): 0.5,
    }
    both_mixed = {**sender_mixed, layout.index_for(ZEROS): 0.5}
    wide_r = RegisterLayout((("Q", 1), ("R", 2), ("F", 1), ("M", 1), ("P", 1)))
    r_00_01 = two_term_state(
        wide_r, dict(ZEROS, R="00", P="1"), dict(ONES_SENT, R="01"),
    )
    cases = [
        (found_one, "expected exactly two branches on R, found 1"),
        (dust_only, "expected exactly two branches on R, found 0"),
        (StateVector(layout, support=sender_mixed),
         "non-classical branch: R=1 component is not a single basis state"),
        (StateVector(layout, support=both_mixed),
         "non-classical branch: R=0 component is not a single basis state"),
        (r_00_01, "branch labels ['00', '01'] do not cover R=0 and R=1"),
    ]
    for state, reason in cases:
        verdict = evaluate_transfer(state, Message("1"))
        assert verdict == TransferVerdict(False, failure_reason=reason)
        assert (verdict.receiver_paper, verdict.receiver_memory, verdict.sender_paper,
                verdict.note) == (None, None, None, None)


def test_verdict_invariant():
    with pytest.raises(ValueError):
        TransferVerdict(
            success=True,
            receiver_paper="1",
            receiver_memory="0",
            sender_paper="0",
            failure_reason="should not be here",
        )


def test_trusted_branches_and_verdicts_equal_checked_ones():
    """decompose_by_register and a successful evaluate_transfer skip their
    public constructors; what they return is what those constructors build."""
    cases = []  # (state, message, friend expectations, transfer completed)
    for config, message in small_protocol_cases():
        run = run_protocol(config, message)
        done = config.uncompute_memory and config.apply_branch_swap
        cases += [(state, message, {}, False) for state in run.checkpoints.values()]
        cases.append((run.final, message, {}, done))
    for message in (Message("0"), Message("1")):
        circuit = build_protocol_circuit(ProtocolConfig(n=1), message, "01", "10")
        final, _ = apply_circuit(zero_state(circuit.layout), circuit)
        friends = {"receiver_friend": "01", "sender_friend": "10"}
        cases.append((final, message, friends, True))

    for state, message, friends, done in cases:
        for register in state.layout.names:
            for branch in decompose_by_register(state, register):
                checked = Branch(
                    branch.label, branch.amplitude, branch.local_state,
                    branch.layout, branch.indices, branch.values,
                )
                assert branch == checked and vars(branch) == vars(checked)
        verdict = evaluate_transfer(state, message, **friends)
        assert verdict.success or not done
        if verdict.success:
            checked = TransferVerdict(
                True, verdict.receiver_paper, verdict.receiver_memory,
                verdict.sender_paper, note=verdict.note,
            )
            assert verdict == checked and vars(verdict) == vars(checked)


def test_branch_type_is_frozen():
    layout = protocol_layout(1)
    branches = decompose_by_register(make_basis_state(layout, ZEROS), "R")
    assert isinstance(branches[0], Branch)
    with pytest.raises(AttributeError):
        branches[0].label = "2"


def test_dense_and_support_held_states_decompose_alike():
    """A state built from an array (entries of +0j not listed) and the same
    state built from its support (zeros listed) give the same branches and
    component magnitudes."""
    rng = np.random.default_rng(17)
    for trial in range(80):
        layout = protocol_layout(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        if trial % 8 == 0:
            dense = random_state(layout, rng)
            held = StateVector(layout, support=dict(enumerate(dense.amplitudes.tolist())))
        else:
            count = int(rng.integers(1, layout.dim + 1))
            indices = rng.choice(layout.dim, size=count, replace=False)
            scale = rng.choice([1.0, 1e-13, 0.0], size=count, p=[0.8, 0.1, 0.1])
            values = (rng.normal(size=count) + 1j * rng.normal(size=count)) * scale
            held = StateVector(layout, support=dict(zip(indices.tolist(), values.tolist())))
            dense = StateVector(layout, held.amplitudes)
        assert dense.listed_items() == listed_by_bits(held.amplitudes)
        for register in layout.names:
            from_dense = decompose_by_register(dense, register)
            from_support = decompose_by_register(held, register)
            assert from_dense == from_support, (trial, register)
            for a, b in zip(from_dense, from_support):
                assert list(a.indices) == list(b.indices)
                assert branch_component(a).tobytes() == branch_component(b).tobytes()
            width = layout.width(register)
            for value in range(1 << width):
                bits = format(value, f"0{width}b")
                assert register_component_magnitude(
                    dense, register, bits
                ) == register_component_magnitude(held, register, bits), (trial, bits)


@pytest.mark.parametrize("dense", [False, True])
def test_amplitudes_at_the_zero_tolerance(dense):
    run = run_protocol(ProtocolConfig(n=2), Message("10"))
    layout = run.final.layout
    # a second entry in the receiver's branch (R=0), with paper 11
    extra = layout.index_for({"Q": "0", "R": "0", "F": "0", "M": "00", "P": "11"})
    for dust, counted in (
        (ZERO_TOL * (1 - 1e-9), False),
        (ZERO_TOL, False),
        (-1j * ZERO_TOL, False),
        (ZERO_TOL * (1 + 1e-9), True),
        (-1j * ZERO_TOL * (1 + 1e-9), True),
    ):
        state = StateVector(layout, support={**dict(run.final.nonzero_items()), extra: dust})
        if dense:
            state = StateVector(layout, state.amplitudes)
        by_paper = decompose_by_register(state, "P")
        assert [b.label for b in by_paper] == ["00", "10"] + ["11"] * counted
        receiver, sender = decompose_by_register(state, "R")
        assert (receiver.local_state is None) == counted
        assert sender.local_state is not None
        if not counted:
            assert receiver.amplitude == SQRT_HALF
        verdict = verify_transfer(ProtocolRun(run.config, run.checkpoints, state), Message("10"))
        assert verdict.success == (not counted), dust
        if counted:
            assert verdict.failure_reason.startswith("non-classical branch: R=0")
