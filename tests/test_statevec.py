import copy
import math
import pickle
import re

import numpy as np
import pytest

from branchcomm.statevec import (
    GATE_MATRIX_QUBIT_LIMIT,
    STATE_QUBIT_LIMIT,
    Circuit,
    GateKind,
    GateOp,
    RegisterLayout,
    StateVector,
    apply_circuit,
    apply_gate,
    fidelity,
    gate_matrix,
    l2_norm,
    make_basis_state,
    protocol_layout,
    zero_state,
    _mask,
)
from branchcomm.protocol import ProtocolConfig

from helpers import (
    H2,
    I2,
    X2,
    inverse_op,
    listed_by_bits,
    oracle_apply,
    oracle_matrix,
    random_circuit,
    random_state,
)

QRF = RegisterLayout((("Q", 1), ("R", 1), ("F", 1)))


# --- layout and basis indexing ----------------------------------------------


def test_protocol_layout_shape():
    layout = protocol_layout(3)
    assert layout.registers == (("Q", 1), ("R", 1), ("F", 1), ("M", 3), ("P", 3))
    assert layout.total_qubits == 9
    assert layout.offset("Q") == 0
    assert layout.offset("M") == 3
    assert layout.qubits("P") == (6, 7, 8)
    assert protocol_layout(2, friend_width=4).qubits("F") == (2, 3, 4, 5)


def test_layout_validation():
    with pytest.raises(ValueError):
        RegisterLayout((("Q", 1), ("Q", 2)))
    with pytest.raises(ValueError):
        RegisterLayout((("Q", 0),))
    with pytest.raises(ValueError):
        RegisterLayout((("", 1),))
    with pytest.raises(ValueError):
        QRF.offset("Z")


def test_all_ones_basis_index_derived_by_enumeration():
    # Independent derivation: read each index as a 3-bit string and find the
    # one whose bits are all ones.
    expected = [k for k in range(8) if format(k, "03b") == "111"]
    assert expected == [7]
    state = make_basis_state(QRF, {"Q": "1", "R": "1", "F": "1"})
    assert state.amplitudes[7] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1


def test_index_round_trip_exhaustive():
    layout = protocol_layout(2)
    for k in range(layout.dim):
        bits = format(k, f"0{layout.total_qubits}b")
        assignment = {
            "Q": bits[0],
            "R": bits[1],
            "F": bits[2],
            "M": bits[3:5],
            "P": bits[5:7],
        }
        assert layout.index_for(assignment) == k
        assert layout.assignment_of(k) == assignment


def test_layout_fields_and_values_round_trip():
    rng = np.random.default_rng(23)
    layouts = [protocol_layout(200)]
    for _ in range(20):
        widths = rng.integers(1, 9, size=rng.integers(1, 6))
        layouts.append(RegisterLayout(tuple((f"r{k}", w) for k, w in enumerate(widths))))
    assert layouts[0].total_qubits == 403
    for layout in layouts:
        for trial in range(30):
            bits = "".join(map(str, rng.integers(0, 2, layout.total_qubits)))
            if trial < 2:
                bits = str(trial) * layout.total_qubits
            index = int(bits, 2)
            assert layout.index_for(layout.assignment_of(index)) == index
            for name in layout.names:
                shift, mask = layout.field(name)
                value = layout.value_of(index, name)
                start = layout.offset(name)
                assert value == bits[start : start + layout.width(name)]
                assert layout.value_for(name, value) == (index >> shift) & mask


def test_layout_rejects_non_integral_widths():
    for width in (1.5, "2", None):
        text = f"register 'Q' width must be an integer, got {width!r}"
        with pytest.raises(ValueError, match=re.escape(text)):
            RegisterLayout((("Q", width),))
    assert RegisterLayout((("Q", np.int64(2)),)).registers == (("Q", 2),)


def test_basis_state_errors():
    with pytest.raises(ValueError):
        make_basis_state(QRF, {"Q": "1", "R": "1"})
    with pytest.raises(ValueError):
        make_basis_state(QRF, {"Q": "1", "R": "1", "F": "10"})
    with pytest.raises(ValueError):
        make_basis_state(QRF, {"Q": "1", "R": "1", "F": "1", "Z": "0"})
    with pytest.raises(ValueError):
        make_basis_state(QRF, {"Q": "2", "R": "0", "F": "0"})


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(QRF, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(QRF, np.full(8, np.nan))


def test_statevector_is_read_only_and_copies_writable_input():
    raw = np.zeros(8, dtype=complex)
    raw[0] = 1.0
    state = StateVector(QRF, raw)
    raw[0] = 5.0  # caller's array stays theirs
    assert state.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[0] = 2.0


# --- gates on small states ---------------------------------------------------


def test_h_prepares_equal_superposition():
    one_qubit = RegisterLayout((("Q", 1),))
    plus = apply_gate(zero_state(one_qubit), GateOp.h(0))
    assert np.allclose(plus.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)


def test_cnot_copies_control_into_target():
    two = RegisterLayout((("A", 1), ("B", 1)))
    state = make_basis_state(two, {"A": "1", "B": "0"})
    out = apply_gate(state, GateOp.cnot(0, 1))
    assert out.amplitudes[two.index_for({"A": "1", "B": "1"})] == 1.0


def test_encode_mu_writes_payload_ones():
    layout = RegisterLayout((("M", 3),))
    out = apply_gate(zero_state(layout), GateOp.encode("101", layout.qubits("M")))
    assert out.amplitudes[layout.index_for({"M": "101"})] == 1.0


def test_controlled_encode_only_fires_when_control_set():
    layout = RegisterLayout((("F", 1), ("M", 2)))
    op = GateOp.encode("11", layout.qubits("M"), control=0)
    idle = apply_gate(make_basis_state(layout, {"F": "0", "M": "00"}), op)
    assert idle.amplitudes[layout.index_for({"F": "0", "M": "00"})] == 1.0
    fired = apply_gate(make_basis_state(layout, {"F": "1", "M": "00"}), op)
    assert fired.amplitudes[layout.index_for({"F": "1", "M": "11"})] == 1.0


def test_transversal_cnot_pairs_bitwise():
    layout = RegisterLayout((("M", 3), ("P", 3)))
    op = GateOp.transversal_cnot(layout.qubits("M"), layout.qubits("P"))
    out = apply_gate(make_basis_state(layout, {"M": "101", "P": "000"}), op)
    assert out.amplitudes[layout.index_for({"M": "101", "P": "101"})] == 1.0


def test_apply_gate_leaves_input_untouched():
    rng = np.random.default_rng(7)
    state = random_state(QRF, rng)
    before = state.amplitudes.copy()
    apply_gate(state, GateOp.multi_x((0, 2)))
    assert np.array_equal(state.amplitudes, before)


def test_gateop_validation():
    for op in (
        GateOp.cnot(1, 1),
        GateOp.x(3),
        GateOp.encode("10", (0, 1, 2)),
        GateOp.transversal_cnot((0, 1), (2,)),
        GateOp(GateKind.RY, (0,)),
        GateOp.encode("2", (0,)),
        GateOp(GateKind.MULTI_X, ()),
    ):
        with pytest.raises(ValueError):
            Circuit(QRF, (op,))


def test_gateop_rejects_non_integral_qubits():
    for qubit in ("2", 1.5, np.float64(1.0)):
        text = f"qubit must be an integer, got {qubit!r}"
        with pytest.raises(ValueError, match=re.escape(text)):
            GateOp.x(qubit)
        with pytest.raises(ValueError, match="qubit must be an integer"):
            GateOp.cnot(qubit, 0)
    op = GateOp.transversal_cnot(np.arange(2), (np.int64(2), 3))
    assert op.controls == (0, 1) and op.targets == (2, 3)
    assert all(type(q) is int for q in op.qubits)


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: GateOp.ry(True, 0)._check(3), "RY angle must be a finite real, got True"),
        (lambda: Circuit(QRF, (GateOp(GateKind.RY, (0,), angle=True),)),
         "RY angle must be a finite real, got True"),
        (lambda: ProtocolConfig(amp0=True, amp1=0.0), "amp0 must be a finite real, got True"),
        (lambda: ProtocolConfig(n=True), "message width must be an integer, got True"),
        (lambda: GateOp.cnot(0, True), "qubit must be an integer, got True"),
        (lambda: RegisterLayout((("q", True),)), "register 'q' width must be an integer, got True"),
        (lambda: Circuit(QRF, (GateOp.x(0),), ((True, "a"),)),
         "checkpoint op index must be an integer, got True"),
    ],
    ids=["ry", "ry-op", "amp0", "n", "qubit", "register-width", "checkpoint-index"],
)
def test_a_bool_is_refused_where_a_number_is_expected(build, text):
    """bool is an int subclass, so int and float checks must refuse it by name."""
    with pytest.raises(ValueError, match=re.escape(text)):
        build()


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, "x", 1j])
def test_ry_angle_that_is_not_a_finite_real_is_refused(angle):
    """Refused with a text naming the angle, on every route to a kernel."""
    text = re.escape(f"RY angle must be a finite real, got {angle!r}")
    dense = StateVector(QRF, zero_state(QRF).amplitudes)
    for op in (GateOp.ry(angle, 0), GateOp(GateKind.RY, (0,), angle=angle)):
        for use in (
            lambda layout: op._check(layout.total_qubits),
            lambda layout: Circuit(layout, (op,)),
            lambda layout: apply_gate(zero_state(layout), op),
            lambda layout: apply_gate(dense, op),
            lambda layout: gate_matrix(op, layout),
        ):
            with pytest.raises(ValueError, match=text):
                use(QRF)
    template = GateOp.ry(0.5, 0)
    with pytest.raises(ValueError, match=text):
        template._derive(angle)
    with pytest.raises(ValueError, match=text):
        Circuit(QRF, (template,))._derive({0: angle})


def test_gateop_remembers_only_passed_validation_per_width():
    """An op valid on one width says nothing about another: each Circuit
    checks its ops for its own width, every time."""
    wide = protocol_layout(8)  # 19 qubits
    op = GateOp.x(10)
    Circuit(wide, (op,))
    with pytest.raises(ValueError, match="out of range for 3-qubit"):
        Circuit(QRF, (op,))
    Circuit(wide, (op,))

    rejected = GateOp.encode("10", (0, 1, 2))
    for _ in range(2):
        with pytest.raises(ValueError, match="payload width"):
            Circuit(QRF, (rejected,))
    bad_qubit = GateOp.x(3)
    with pytest.raises(ValueError, match="out of range"):
        Circuit(QRF, (bad_qubit,))
    Circuit(protocol_layout(1), (bad_qubit,))  # 5 qubits: qubit 3 exists
    with pytest.raises(ValueError, match="out of range"):
        Circuit(QRF, (bad_qubit,))


def _kernel(op, total):
    """The kernel a one-op Circuit on `total` qubits compiles for op."""
    (kernel,) = Circuit(RegisterLayout((("q", total),)), (op,))._kernels
    return kernel


def test_kernels_compile_once_per_width_outside_equality():
    """Each Circuit compiles its ops for its own width; the kernels take no
    part in the op's or the circuit's ==, hash or repr."""
    op = GateOp.transversal_cnot((0, 1), (2, 3))
    narrow, wide = _kernel(op, 4), _kernel(op, 6)
    assert narrow({0b1000: 1j, 0b0100: 2.0, 0b1100: 3.0}) == {
        0b1010: 1j, 0b0101: 2.0, 0b1111: 3.0
    }
    assert wide({0b100000: 1j, 0b010000: 2.0, 0b110011: 3.0}) == {
        0b101000: 1j, 0b010100: 2.0, 0b111111: 3.0
    }
    fresh = GateOp.transversal_cnot((0, 1), (2, 3))
    assert op == fresh and hash(op) == hash(fresh) and repr(op) == repr(fresh)
    layout = RegisterLayout((("q", 4),))
    one, two = Circuit(layout, (op,)), Circuit(layout, (fresh,))
    assert one._kernels[0] is not two._kernels[0]
    assert one == two and hash(one) == hash(two) and repr(one) == repr(two)


def test_compiling_an_op_not_valid_for_the_width_raises_its_check():
    for op, total, text in (
        (GateOp.x(5), 3, "qubit 5 out of range for 3-qubit layout"),
        (GateOp.transversal_cnot((0, 7), (1, 9)), 4, "qubit 9 out of range for 4-qubit layout"),
        (GateOp.x(-1), 3, "qubit -1 out of range for 3-qubit layout"),
    ):
        for _ in range(2):  # a rejected op raises every time
            with pytest.raises(ValueError, match=re.escape(text)):
                _kernel(op, total)
            with pytest.raises(ValueError, match=re.escape(text)):
                op._check(total)


def test_gateop_is_a_plain_value():
    """An op holds its five fields and nothing else, whichever widths it
    has run at, and equal ops stay equal, with equal hashes and reprs."""
    fields = {"kind", "targets", "controls", "payload", "angle"}
    ops = [GateOp.x(2), GateOp.ry(0.3, 1), GateOp.encode("101", (0, 1, 2)),
           GateOp.transversal_cnot((0,), (2,))]
    twins = [GateOp.x(2), GateOp.ry(0.3, 1), GateOp.encode("101", (0, 1, 2)),
             GateOp.transversal_cnot((0,), (2,))]
    for total in (3, 5, 19):
        layout = RegisterLayout((("q", total),))
        circuit = Circuit(layout, ops)
        apply_circuit(zero_state(layout), circuit)
        apply_circuit(zero_state(layout), circuit._derive({1: 0.7, 2: "011"}))
        if total <= GATE_MATRIX_QUBIT_LIMIT:
            gate_matrix(ops[0], layout)
    for op, twin in zip(ops, twins):
        assert set(vars(op)) == fields
        assert op == twin and hash(op) == hash(twin) and repr(op) == repr(twin)


def test_circuit_derive_refuses_what_its_ops_refuse():
    """Circuit._derive replaces only an RY's angle or an ENCODE_MU's
    payload, each checked with the texts a fresh op gets."""
    ops = (GateOp.x(0), GateOp.h(1), GateOp.cnot(0, 1), GateOp.ry(0.5, 2),
           GateOp.encode("10", (1, 2), control=0))
    circuit = Circuit(QRF, ops)
    for i, name in ((0, "X"), (1, "H"), (2, "CNOT")):
        with pytest.raises(ValueError, match=f"^{name} has no parameter to replace$"):
            circuit._derive({i: "1"})
    for i, parameter, text in (
        (3, math.nan, "RY angle must be a finite real, got nan"),
        (3, "0.5", "RY angle must be a finite real, got '0.5'"),
        (4, "1x", "ENCODE_MU payload must be a nonempty string over {0,1}, got '1x'"),
        (4, "101", "ENCODE_MU payload width 3 != target register width 2"),
        (4, None, "ENCODE_MU requires a payload bit-string"),
    ):
        with pytest.raises(ValueError, match=re.escape(text)):
            circuit._derive({i: parameter})
    derived = circuit._derive({3: 1.5, 4: "01"})
    assert derived == Circuit(QRF, (*ops[:3], GateOp.ry(1.5, 2), GateOp.encode("01", (1, 2), 0)))
    assert all(a is b for a, b in zip(derived._kernels[:3], circuit._kernels))


@pytest.mark.parametrize("total", [1, 7, 64, 4301, 10007])
def test_masks_match_a_bit_by_bit_reference(total):
    """_mask parses a base-2 string, which is exempt from the int
    string-length limit (4300 digits by default), so wide layouts work."""
    rng = np.random.default_rng(total)
    for count in (0, 1, total // 2, total):
        qubits = rng.permutation(total)[:count].tolist()
        expected = 0
        for q in qubits:
            expected |= 1 << (total - 1 - q)
        assert _mask(total, qubits) == expected


# --- circuits -----------------------------------------------------------------


def test_empty_circuit_returns_input_unchanged():
    state = zero_state(QRF)
    final, snapshots = apply_circuit(state, Circuit(QRF, ()))
    assert final is state
    assert snapshots == {}


def test_checkpoints_snapshot_after_named_op():
    circuit = Circuit(
        QRF,
        (GateOp.x(0), GateOp.cnot(0, 1)),
        ((0, "after_x"), (1, "after_cnot")),
    )
    final, snaps = apply_circuit(zero_state(QRF), circuit)
    assert set(snaps) == {"after_x", "after_cnot"}
    assert snaps["after_x"].amplitudes[QRF.index_for({"Q": "1", "R": "0", "F": "0"})] == 1.0
    assert np.array_equal(snaps["after_cnot"].amplitudes, final.amplitudes)


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(QRF, (GateOp.x(0),), ((1, "late"),))
    with pytest.raises(ValueError):
        Circuit(QRF, (GateOp.x(0), GateOp.x(1)), ((0, "a"), (1, "a")))
    with pytest.raises(ValueError):
        apply_circuit(zero_state(protocol_layout(1)), Circuit(QRF, (GateOp.x(0),)))


def test_circuit_checks_each_op_not_yet_valid_for_its_width():
    seen = GateOp.x(3)
    Circuit(protocol_layout(1), (seen,))  # 5 qubits: qubit 3 exists
    for ops, text in (
        ((GateOp.x(0), GateOp.cnot(1, 1)), "CNOT op reuses a qubit: (1, 1)"),
        ((GateOp.x(0), seen), "qubit 3 out of range for 3-qubit layout"),
        ((GateOp.encode("1", (0,)), GateOp.encode("12", (1, 2))),
         "ENCODE_MU payload must be a nonempty string over {0,1}, got '12'"),
    ):
        for _ in range(2):  # a rejected op is checked again
            with pytest.raises(ValueError, match=re.escape(text)):
                Circuit(QRF, ops)


def test_circuit_rejects_non_integral_checkpoint_indices():
    ops = (GateOp.x(0), GateOp.x(1))
    for index in (0.5, 1.0, "1"):
        text = f"checkpoint op index must be an integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(text)):
            Circuit(QRF, ops, ((index, "a"),))
    assert Circuit(QRF, ops, ((np.int64(1), "a"),)).checkpoints == ((1, "a"),)


def test_snapshots_follow_op_order_then_table_order():
    ops = (GateOp.x(0), GateOp.x(1), GateOp.x(2))
    table = ((2, "c"), (0, "a2"), (1, "b"), (0, "a1"))
    circuit = Circuit(QRF, ops, table)
    assert circuit.checkpoints == table
    expected = {"a2": 0b100, "a1": 0b100, "b": 0b110, "c": 0b111}
    for start in (zero_state(QRF), StateVector(QRF, zero_state(QRF).amplitudes)):
        final, snapshots = apply_circuit(start, circuit)
        assert list(snapshots) == list(expected)
        for label, index in expected.items():
            assert snapshots[label].nonzero_items() == [(index, 1 + 0j)]
        # An op's labels share one wrapped state, and the last op's is the final state.
        assert snapshots["a2"] is snapshots["a1"]
        assert final == snapshots["c"] and final is snapshots["c"]

    # A second circuit over the same table checks it against its own ops.
    again = Circuit(QRF, (GateOp.x(2), GateOp.x(1), GateOp.x(0)), circuit.checkpoints)
    assert again.checkpoints == circuit.checkpoints
    assert list(apply_circuit(zero_state(QRF), again)[1]) == ["a2", "a1", "b", "c"]
    with pytest.raises(ValueError, match="checkpoint 'c' attached to op 2, but circuit has 2 ops"):
        Circuit(QRF, ops[:2], circuit.checkpoints)
    with pytest.raises(ValueError, match="checkpoint 'neg' attached to op -1, but circuit has 3 ops"):
        Circuit(QRF, ops, ((0, "a"), (-1, "neg")))
    with pytest.raises(ValueError, match=re.escape("duplicate checkpoint labels in ['a', 'b', 'a']")):
        Circuit(QRF, ops, ((0, "a"), (1, "b"), (2, "a")))


def _pair_by_pair(controls, targets, total, listed):
    """Each listed entry moved by the op's one-bit (control, target) pairs
    applied one by one, masks built bit by bit here."""
    pairs = [(1 << (total - 1 - c), 1 << (total - 1 - t)) for c, t in zip(controls, targets)]
    moved = {}
    for index, amp in listed:
        for cmask, fmask in pairs:
            if index & cmask == cmask:
                index ^= fmask
        moved[index] = amp
    return list(moved.items())


def test_folded_transversal_cnot_matches_pair_by_pair():
    """The kernel applies a transversal CNOT as one map per control-to-target
    distance; it moves each listed entry where its one-bit pairs, applied one
    by one, move it, for distances that differ in size and in sign, and gives
    an array-built input the bytes it gives the support-built one."""
    rng = np.random.default_rng(20261020)
    fixed = [((0, 1), (3, 2)), ((3, 2), (0, 1)), ((0, 3), (2, 1))]
    several_distances = 0
    for total in (4, 5, 6, 7):
        layout = RegisterLayout((("q", total),))
        for trial in range(30):
            if trial < len(fixed):
                controls, targets = fixed[trial]
            else:
                width = int(rng.integers(1, total // 2 + 1))
                qubits = rng.permutation(total)[: 2 * width].tolist()
                controls, targets = qubits[:width], qubits[width:]
            op = GateOp.transversal_cnot(controls, targets)
            several_distances += len({t - c for c, t in zip(controls, targets)}) > 1

            size = int(rng.integers(2, min(12, layout.dim) + 1))
            indices = rng.choice(layout.dim, size=size, replace=False).tolist()
            values = rng.normal(size=size) + 1j * rng.normal(size=size)
            held = StateVector(layout, support=dict(zip(indices, values.tolist())))
            from_array = StateVector(layout, held.amplitudes)
            assert from_array.listed_items() == sorted(held.listed_items())
            folded = apply_gate(held, op)
            assert folded.amplitudes.tobytes() == apply_gate(from_array, op).amplitudes.tobytes()
            expected = _pair_by_pair(controls, targets, total, held.listed_items())
            assert folded.listed_items() == expected
    assert several_distances >= 20


def test_folded_transversal_cnot_matches_pair_by_pair_when_wide():
    """At 8192 qubits, over 4096 random pairs with thousands of distinct
    distances, and over the protocol's one distance in both directions."""
    rng = np.random.default_rng(8192)
    total, width = 8192, 4096
    layout = RegisterLayout((("q", total),))
    qubits = rng.permutation(total).tolist()
    for controls, targets in (
        (qubits[:width], qubits[width:]),
        (range(width), range(width, total)),
        (range(width, total), range(width)),
    ):
        op = GateOp.transversal_cnot(controls, targets)
        listed = [(int.from_bytes(rng.bytes(total // 8), "big"), complex(k)) for k in range(1, 5)]
        folded = apply_gate(StateVector(layout, support=dict(listed)), op)
        assert folded.listed_items() == _pair_by_pair(op.controls, op.targets, total, listed)


def test_repr_names_the_held_form():
    held = StateVector(QRF, support={5: 0.6, 1: 0.8j})
    assert repr(held) == f"StateVector(layout={QRF!r}, support={{5: (0.6+0j), 1: 0.8j}})"
    # an array-built state shows the support it lists, in ascending index order
    dense = StateVector(QRF, held.amplitudes)
    assert repr(dense) == f"StateVector(layout={QRF!r}, support={{1: 0.8j, 5: (0.6+0j)}})"
    assert "amplitudes=" not in repr(dense)


def test_gate_count_and_layer_depth():
    circuit = Circuit(QRF, (GateOp.x(0), GateOp.x(1), GateOp.cnot(0, 1)))
    assert circuit.gate_count == 3
    assert circuit.layer_depth == 2  # the two X ops share a layer


# --- numerical properties -----------------------------------------------------


@pytest.mark.parametrize(
    "op",
    [
        GateOp.x(1),
        GateOp.h(0),
        GateOp.ry(0.7, 2),
        GateOp.cnot(0, 2),
        GateOp.multi_x((0, 1, 2)),
        GateOp.encode("10", (1, 2)),
        GateOp.encode("11", (1, 2), control=0),
        GateOp.transversal_cnot((0,), (2,)),
    ],
)
def test_norm_preserved_by_every_kind(op):
    rng = np.random.default_rng(11)
    state = random_state(QRF, rng)
    assert abs(apply_gate(state, op).norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("total", [2, 4, 6, 8])
def test_unitarity_of_every_kind(total):
    layout = RegisterLayout((("q", total),))
    ops = [
        GateOp.x(0),
        GateOp.h(total - 1),
        GateOp.ry(1.234, 1),
        GateOp.cnot(0, total - 1),
        GateOp.multi_x(tuple(range(total))),
        GateOp.encode("1" * (total // 2), tuple(range(total // 2))),
        GateOp.encode(
            ("10" * total)[: total - 1], tuple(range(1, total)), control=0
        ),
        GateOp.transversal_cnot(
            tuple(range(total // 2)), tuple(range(total // 2, 2 * (total // 2)))
        ),
    ]
    eye = np.eye(layout.dim)
    for op in ops:
        matrix = gate_matrix(op, layout)
        assert np.max(np.abs(matrix.conj().T @ matrix - eye)) <= 1e-12


def test_gate_matrix_against_kron_oracle():
    layout = RegisterLayout((("M", 2),))
    # payload "10" writes only the first memory bit
    matrix = gate_matrix(GateOp.encode("10", (0, 1)), layout)
    assert np.array_equal(matrix, np.kron(X2, I2))
    one = RegisterLayout((("q", 1),))
    assert np.allclose(gate_matrix(GateOp.h(0), one), H2, atol=1e-15)


@pytest.mark.parametrize(
    "op",
    [
        GateOp.h(1),
        GateOp.ry(2.1, 0),
        GateOp.cnot(2, 0),
        GateOp.encode("11", (0, 2), control=1),
        GateOp.transversal_cnot((0, 1), (2, 3)),
        GateOp.multi_x((1, 3)),
        # Two controls: the flip fires only where both are set.
        GateOp(GateKind.ENCODE_MU, (1, 3), (0, 2), payload="11"),
    ],
)
def test_gate_matrix_matches_oracle_matrix(op):
    layout = RegisterLayout((("q", 4),))
    assert np.allclose(gate_matrix(op, layout), oracle_matrix(op, 4), atol=1e-12)


def test_gate_matrix_dense_guard():
    big = RegisterLayout((("q", GATE_MATRIX_QUBIT_LIMIT + 1),))
    with pytest.raises(ValueError):
        gate_matrix(GateOp.x(0), big)


def test_gate_matrix_agrees_with_apply_path():
    rng = np.random.default_rng(23)
    layout = RegisterLayout((("a", 2), ("b", 2)))
    state = random_state(layout, rng)
    for op in (GateOp.h(3), GateOp.encode("01", (2, 3), control=0)):
        via_matrix = gate_matrix(op, layout) @ state.amplitudes
        assert np.allclose(
            via_matrix, apply_gate(state, op).amplitudes, atol=1e-12
        )


def test_gate_matrix_columns_are_apply_gate_on_basis_vectors():
    """Column j of gate_matrix holds the bytes apply_gate gives on dense
    basis vector j, signed zeros included, for every kind; the matrix is a
    writable complex128 array."""
    more = {
        2: [GateOp.transversal_cnot((0,), (1,)), GateOp.transversal_cnot((1,), (0,))],
        3: [
            GateOp(GateKind.ENCODE_MU, (2,), (0, 1), payload="1"),
            GateOp.encode("01", (0, 2), control=1),
        ],
        4: [
            GateOp(GateKind.ENCODE_MU, (2, 3), (0, 1), payload="10"),
            # control-to-target distances of mixed sign
            GateOp.transversal_cnot((0, 3), (2, 1)),
            GateOp.transversal_cnot((1, 2), (0, 3)),
            GateOp.transversal_cnot((0, 1), (3, 2)),
        ],
    }
    for total in (1, 2, 3, 4):
        layout = RegisterLayout((("q", total),))
        ops = [
            GateOp.multi_x(range(total)),
            GateOp.encode("0" * total, range(total)),  # blank payload
            GateOp.encode("1" + "0" * (total - 1), range(total)),
            *more.get(total, ()),
        ]
        for target in range(total):
            ops += [GateOp.x(target), GateOp.h(target)]
            ops += [
                GateOp.ry(angle, target) for angle in (0.0, -0.0, math.pi, 2 * math.pi, -1.1)
            ]
            ops += [GateOp.cnot(control, target) for control in range(total) if control != target]
        for op in ops:
            matrix = gate_matrix(op, layout)
            assert matrix.dtype == np.complex128 and matrix.flags.writeable
            for j in range(layout.dim):
                basis = np.zeros(layout.dim, dtype=np.complex128)
                basis[j] = 1.0
                column = apply_gate(StateVector(layout, basis), op).amplitudes
                assert matrix[:, j].tobytes() == column.tobytes(), (op, total, j)


def test_oracle_equivalence_on_random_circuits():
    # two-route check: vector kernels vs dense kron matrix chains
    rng = np.random.default_rng(20240917)
    layout = RegisterLayout((("q", 3),))
    for _ in range(120):
        circuit = random_circuit(rng, layout, max_gates=6)
        state = random_state(layout, rng)
        final, _ = apply_circuit(state, circuit)
        expected = oracle_apply(state.amplitudes, circuit.ops, 3)
        assert np.max(np.abs(final.amplitudes - expected)) <= 1e-10


def test_linearity_of_apply_circuit():
    rng = np.random.default_rng(5)
    layout = RegisterLayout((("q", 3),))
    circuit = random_circuit(rng, layout, max_gates=5)
    s1 = make_basis_state(layout, {"q": "010"})
    s2 = make_basis_state(layout, {"q": "111"})
    alpha, beta = 0.6, 0.8j
    combo = StateVector(layout, alpha * s1.amplitudes + beta * s2.amplitudes)
    lhs, _ = apply_circuit(combo, circuit)
    r1, _ = apply_circuit(s1, circuit)
    r2, _ = apply_circuit(s2, circuit)
    rhs = alpha * r1.amplitudes + beta * r2.amplitudes
    assert np.max(np.abs(lhs.amplitudes - rhs)) <= 1e-12


@pytest.mark.parametrize(
    "op",
    [
        GateOp.x(0),
        GateOp.h(2),
        GateOp.cnot(1, 0),
        GateOp.multi_x((0, 1)),
        GateOp.encode("11", (1, 2), control=0),
        GateOp.transversal_cnot((0, 1), (2, 3)),
    ],
)
def test_self_inverse_kinds(op):
    rng = np.random.default_rng(3)
    layout = RegisterLayout((("q", 4),))
    state = random_state(layout, rng)
    back = apply_gate(apply_gate(state, op), op)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12


def test_ry_inverse_negates_angle():
    rng = np.random.default_rng(4)
    layout = RegisterLayout((("q", 2),))
    state = random_state(layout, rng)
    op = GateOp.ry(0.9, 1)
    back = apply_gate(apply_gate(state, op), inverse_op(op))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-12


def test_fidelity_examples():
    one = RegisterLayout((("q", 1),))
    zero = zero_state(one)
    plus = apply_gate(zero, GateOp.h(0))
    assert abs(fidelity(zero, plus) - 0.5) <= 1e-12
    assert abs(fidelity(zero, zero) - 1.0) <= 1e-12
    assert fidelity(plus, zero) == fidelity(zero, plus)
    with pytest.raises(ValueError):
        fidelity(zero, zero_state(QRF))


# --- states built from their support and from an array ----------------------


def _fidelity_by_items(a, b):
    """The support-route formula: conj(a_i) * b_i over the indices nonzero in
    both, ascending, summed left to right from 0j."""
    theirs = dict(b.nonzero_items())
    overlap = sum(
        (amp.conjugate() * theirs[i] for i, amp in a.nonzero_items() if i in theirs), 0j
    )
    return float(abs(overlap) ** 2)


def test_mixed_form_fidelity_and_equality_read_the_support():
    """fidelity and == of an array-built state against support-built ones
    read the nonzero entries both list, in ascending index order."""
    rng = np.random.default_rng(8)
    layout = RegisterLayout((("q", 10),))
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    amps[rng.choice(layout.dim, 300, replace=False)] = 0.0
    dense = StateVector(layout, amps / np.linalg.norm(amps))
    assert dense.listed_items() == listed_by_bits(dense.amplitudes)
    assert len(dense.listed_items()) == layout.dim - 300
    zeros = np.flatnonzero(dense.amplitudes == 0)
    cases = []
    for size in (0, 1, 2, 40):
        picked = rng.choice(layout.dim, size, replace=False).tolist()
        if size:
            picked[0] = int(zeros[0])  # a zero partner in the array-built operand
        values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        cases.append(StateVector(layout, support=dict(zip(picked, values.tolist()))))

    expected = {
        (id(s), order): _fidelity_by_items(*((s, dense) if order else (dense, s)))
        for s in cases
        for order in (0, 1)
    }
    for held in cases:
        as_dense = StateVector(layout, held.amplitudes.copy())
        for order, (a, b) in enumerate(((dense, held), (held, dense))):
            got = fidelity(a, b)
            assert got == expected[id(held), order]
            all_dense = (dense, as_dense) if order == 0 else (as_dense, dense)
            assert abs(got - fidelity(*all_dense)) <= 1e-12
        assert held != dense and dense != held
        assert held == as_dense and as_dense == held

    held = StateVector(layout, support={5: 0.6, 9: 0.8j, 11: 0.0})
    same = held.amplitudes.copy()
    same[3] = complex(-0.0, 0.0)  # a signed zero is still zero
    assert held == StateVector(layout, same)
    extra = same.copy()
    extra[4] = 1e-300
    assert held != StateVector(layout, extra)
    shifted = same.copy()
    shifted[9] = 0.8j + 1e-16
    assert held != StateVector(layout, shifted)


def test_support_and_dense_routes_agree_on_random_circuits():
    rng = np.random.default_rng(20261018)
    for total in (1, 2, 3, 4):
        layout = RegisterLayout((("q", total),))
        for _ in range(50):
            bits = format(int(rng.integers(layout.dim)), f"0{total}b")
            held = make_basis_state(layout, {"q": bits})
            dense = StateVector(layout, held.amplitudes.copy())
            circuit = random_circuit(rng, layout, max_gates=6)
            via_support, _ = apply_circuit(held, circuit)
            via_dense, _ = apply_circuit(dense, circuit)
            # an array-built basis state lists the one entry the other lists
            assert dense.listed_items() == held.listed_items()
            assert np.array_equal(via_support.amplitudes, via_dense.amplitudes)
            expected = oracle_apply(dense.amplitudes, circuit.ops, total)
            assert np.max(np.abs(via_support.amplitudes - expected)) <= 1e-12

            stepped = held
            for op in circuit.ops:
                stepped = apply_gate(stepped, op)
            assert stepped == via_support == via_dense
            assert abs(via_support.norm() - via_dense.norm()) <= 1e-12
            assert abs(fidelity(via_support, held) - fidelity(via_dense, dense)) <= 1e-12
            assert abs(fidelity(via_support, dense) - fidelity(via_dense, held)) <= 1e-12


def _array_step(amps, op, total):
    """amps after one op by numpy array arithmetic: a basis permutation read
    off the Kronecker oracle's 0/1 matrix, and H or RY as the elementwise
    complex expressions over every (i, i|t) pair at once."""
    if op.kind not in (GateKind.H, GateKind.RY):
        return amps[np.argmax(oracle_matrix(op, total), axis=1)]
    pairs = amps.reshape(1 << op.targets[0], 2, -1)
    a0, a1 = pairs[:, 0, :], pairs[:, 1, :]
    if op.kind is GateKind.H:
        half = complex(math.sqrt(0.5))
        mixed = ((a0 + a1) * half, (a0 - a1) * half)
    else:
        c, s = complex(math.cos(op.angle / 2.0)), complex(math.sin(op.angle / 2.0))
        mixed = (c * a0 - s * a1 + 0j, s * a0 + c * a1 + 0j)
    return np.stack(mixed, axis=1).reshape(-1)


def test_mixing_kernel_agrees_bit_for_bit_in_both_forms():
    """H and RY on superposed states, signed zeros and RY(-0.0) included:
    every snapshot has the bytes numpy's array arithmetic gives, not just
    equal values, whether the input was built from its support (zeros
    listed) or from its array (+0j entries not listed)."""
    rng = np.random.default_rng(20261019)
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    for total in (1, 2, 3, 4):
        layout = RegisterLayout((("q", total),))
        for _ in range(40):
            size = int(rng.integers(2, layout.dim + 1))
            indices = rng.choice(layout.dim, size=size, replace=False).tolist()
            values = rng.normal(size=size) + 1j * rng.normal(size=size)
            support = dict(zip(indices, values.tolist()))
            for index in indices[: int(rng.integers(0, size))]:
                support[index] = zeros[int(rng.integers(len(zeros)))]
            held = StateVector(layout, support=support)
            dense = StateVector(layout, held.amplitudes)
            assert dense.listed_items() == listed_by_bits(held.amplitudes)

            ops = list(random_circuit(rng, layout, max_gates=3).ops)
            for _ in range(4):
                q = int(rng.integers(total))
                angle = (-0.0, 0.0, float(rng.uniform(-2 * np.pi, 2 * np.pi)))[
                    int(rng.integers(3))
                ]
                mixer = GateOp.h(q) if rng.integers(2) else GateOp.ry(angle, q)
                ops.insert(int(rng.integers(len(ops) + 1)), mixer)
            circuit = Circuit(layout, tuple(ops), tuple((i, str(i)) for i in range(len(ops))))
            _, via_support = apply_circuit(held, circuit)
            _, via_dense = apply_circuit(dense, circuit)
            expected = held.amplitudes
            for op, (label, state) in zip(circuit.ops, via_support.items()):
                expected = _array_step(expected, op, total)
                assert state.amplitudes.tobytes() == expected.tobytes(), (op, label)
                assert state.amplitudes.tobytes() == via_dense[label].amplitudes.tobytes()


def test_support_form_validation_and_dense_limit():
    with pytest.raises(ValueError):
        StateVector(QRF)
    with pytest.raises(ValueError):
        StateVector(QRF, np.zeros(8), support={0: 1.0})
    with pytest.raises(ValueError):
        StateVector(QRF, support={8: 1.0})
    with pytest.raises(ValueError):
        StateVector(QRF, support={0: complex("nan")})
    state = StateVector(QRF, support={7: 0.6, 1: 0.8j, 3: 0.0})
    assert state.nonzero_items() == [(1, 0.8j), (7, 0.6 + 0j)]
    assert state.amplitudes.tolist() == [0, 0.8j, 0, 0, 0, 0, 0, 0.6]
    with pytest.raises(AttributeError):
        state.layout = QRF
    for copied in (copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert copied == state and copied.nonzero_items() == state.nonzero_items()

    wide = RegisterLayout((("q", STATE_QUBIT_LIMIT + 1),))
    held = apply_gate(zero_state(wide), GateOp.h(0))
    assert abs(held.norm() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match=f"{STATE_QUBIT_LIMIT + 1} qubits"):
        held.amplitudes
    # an array too wide to rebuild as .amplitudes is refused before it is read
    with pytest.raises(ValueError, match=f"{STATE_QUBIT_LIMIT + 1} qubits"):
        StateVector(wide, np.zeros(1))


def test_support_rejects_non_integral_indices():
    for index in (1.5, 2.0, "1"):
        text = f"basis index must be an integer, got {index!r}"
        with pytest.raises(ValueError, match=re.escape(text)):
            StateVector(QRF, support={1: 0.6, index: 0.8})
    state = StateVector(QRF, support={np.int64(1): 0.6, np.uint8(2): 0.8})
    assert state.nonzero_items() == [(1, 0.6 + 0j), (2, 0.8 + 0j)]
    assert all(type(i) is int for i, _ in state.listed_items())


@pytest.mark.parametrize(
    "bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan), complex(np.inf, 1.0)]
)
def test_caller_data_that_is_not_finite_is_rejected(bad):
    amps = np.zeros(8, dtype=complex)
    amps[3] = bad
    with pytest.raises(ValueError, match="finite"):
        StateVector(QRF, amps)
    with pytest.raises(ValueError, match="finite"):
        StateVector(QRF, amps.tolist())
    with pytest.raises(ValueError, match="finite"):
        StateVector(QRF, support={3: bad})


def test_kernel_outputs_are_not_scanned_again(monkeypatch):
    given = np.full(8, math.sqrt(1 / 8), dtype=complex)
    state = StateVector(QRF, given)
    # a writable input is copied, then frozen
    assert state.amplitudes is not given and not state.amplitudes.flags.writeable
    assert state.listed_items() == list(enumerate(given.tolist()))

    def no_scan(*args, **kwargs):
        raise AssertionError("finiteness scan")

    monkeypatch.setattr(np, "isfinite", no_scan)
    circuit = Circuit(QRF, (GateOp.h(0), GateOp.cnot(0, 1)), ((0, "after_h"),))
    final, snapshots = apply_circuit(state, circuit)
    for out in (final, snapshots["after_h"], apply_gate(state, GateOp.x(2))):
        assert not out.amplitudes.flags.writeable
    with pytest.raises(AssertionError, match="finiteness scan"):
        StateVector(QRF, np.ones(8, dtype=complex))


def test_listed_items_keep_signed_zeros():
    support = {0: -0.0, 2: complex(-0.0, -0.0), 5: 0j, 7: 1e-300j}
    held = StateVector(QRF, support=support)
    array = held.amplitudes.copy()
    dense = StateVector(QRF, array)
    array[:] = 9  # the caller's array is not kept
    assert dense.amplitudes.tobytes() == held.amplitudes.tobytes()
    assert held.listed_items() == list(support.items())
    # +0j at index 5 has an all-zero bit pattern, so only the array-built state drops it
    listed = dense.listed_items()
    assert [i for i, _ in listed] == [0, 2, 7]
    assert [repr((a.real, a.imag)) for _, a in listed] == [
        "(-0.0, 0.0)", "(-0.0, -0.0)", "(0.0, 1e-300)"
    ]


def test_l2_norm_sums_left_to_right_from_any_container():
    rng = np.random.default_rng(5)
    for size in (0, 1, 2, 7, 1000):
        values = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
        values = values + 1j * rng.normal(size=size)
        re_sum = im_sum = 0.0
        for a in values.tolist():
            re_sum += a.real * a.real
            im_sum += a.imag * a.imag
        expected = math.sqrt(re_sum + im_sum)
        assert l2_norm(values) == expected
        assert l2_norm(values.tolist()) == expected
        assert l2_norm(iter(values.tolist())) == expected
