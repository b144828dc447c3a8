import math

import numpy as np
import pytest

from branchcomm import nogo
from branchcomm.nogo import (
    WITNESS_N_LIMIT,
    ClaimReport,
    construct_G,
    memory_swap_report,
    run_no_uncompute_variant,
    verify_amplitude_immutability,
    witness_mu_dependence,
)
from branchcomm.protocol import (
    Message,
    ProtocolConfig,
    build_protocol_circuit,
    run_protocol,
)
from branchcomm.statevec import GATE_MATRIX_QUBIT_LIMIT, protocol_layout, zero_state

from helpers import gram_schmidt_G, oracle_apply

SQRT_HALF = math.sqrt(0.5)


# --- skipping the memory uncompute ------------------------------------------------


def test_no_uncompute_final_state_n1():
    state, verdict = run_no_uncompute_variant(Message("1"))
    layout = state.layout
    expected = np.zeros(layout.dim, dtype=complex)
    expected[
        layout.index_for({"Q": "1", "R": "1", "F": "1", "M": "0", "P": "0"})
    ] = SQRT_HALF
    expected[
        layout.index_for({"Q": "0", "R": "0", "F": "0", "M": "1", "P": "1"})
    ] = SQRT_HALF
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
    assert verdict is not None
    assert not verdict.success
    assert verdict.failure_reason.startswith("cross-branch memory")
    assert verdict.receiver_memory == "1"
    assert verdict.receiver_paper == "1"


def test_no_uncompute_without_swap_returns_pre_swap_state():
    config = ProtocolConfig(n=1, uncompute_memory=False, apply_branch_swap=False)
    state = run_protocol(config, Message("1")).final
    layout = state.layout
    expected = np.zeros(layout.dim, dtype=complex)
    expected[
        layout.index_for({"Q": "0", "R": "0", "F": "0", "M": "0", "P": "0"})
    ] = SQRT_HALF
    expected[
        layout.index_for({"Q": "1", "R": "1", "F": "1", "M": "1", "P": "1"})
    ] = SQRT_HALF
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_no_uncompute_rejects_blank_message():
    with pytest.raises(ValueError):
        run_no_uncompute_variant(Message("00"))


def test_no_uncompute_n2_against_dense_oracle():
    message = Message("11")
    config = ProtocolConfig(n=2, uncompute_memory=False)
    circuit = build_protocol_circuit(config, message)
    expected = oracle_apply(
        zero_state(circuit.layout).amplitudes,
        circuit.ops,
        circuit.layout.total_qubits,
    )
    state, verdict = run_no_uncompute_variant(message)
    assert state.layout.total_qubits == 7
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-10
    assert not verdict.success


# --- the memory-preserving swap family ---------------------------------------------


def test_construct_G_single_bit_is_bit_flip():
    g = construct_G(Message("1"))
    assert g.shape == (2, 2)
    assert np.array_equal(g, np.array([[0, 1], [1, 0]], dtype=complex))


def test_construct_G_two_bits_swaps_blank_with_message():
    g = construct_G(Message("10"))
    expected = np.eye(4, dtype=complex)
    expected[[0, 2]] = expected[[2, 0]]
    assert np.max(np.abs(g - expected)) <= 1e-12
    assert np.max(np.abs(g @ g - np.eye(4))) <= 1e-12


def test_construct_G_rejects_blank():
    for blank in ("0", "00", "000"):
        with pytest.raises(ValueError):
            construct_G(Message(blank))


def test_construct_G_matches_gram_schmidt_oracle_bitwise():
    checked = 0
    for n in range(1, 7):
        for value in range(1, 1 << n):
            bits = format(value, f"0{n}b")
            g = construct_G(Message(bits))
            oracle = gram_schmidt_G(bits)
            assert g.dtype == oracle.dtype and g.shape == oracle.shape
            assert g.tobytes() == oracle.tobytes(), bits
            assert not g.flags.writeable
            checked += 1
    assert checked == 120


def test_construct_G_rejects_messages_past_the_dense_limit():
    width = GATE_MATRIX_QUBIT_LIMIT + 1
    with pytest.raises(
        ValueError, match=f"limited to {GATE_MATRIX_QUBIT_LIMIT} .* has {width}"
    ):
        construct_G(Message("1" * width))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_G_is_unitary_and_self_inverse(n):
    dim = 1 << n
    for value in range(1, dim):
        g = construct_G(Message(format(value, f"0{n}b")))
        assert np.max(np.abs(g.conj().T @ g - np.eye(dim))) <= 1e-12
        assert np.max(np.abs(g @ g - np.eye(dim))) <= 1e-12


def test_G_pairs_differ_on_the_blank_state():
    g1 = construct_G(Message("01"))
    g2 = construct_G(Message("10"))
    blank = np.zeros(4, dtype=complex)
    blank[0] = 1.0
    gap = np.linalg.norm((g1 - g2) @ blank)
    assert gap == pytest.approx(math.sqrt(2), abs=1e-12)
    diff = np.abs(g1 - g2)
    assert np.max(diff) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(g1 - g2, ord=2) > 1


def test_memory_swap_report_checks_each_listed_message(monkeypatch):
    report = memory_swap_report(3, [1, 6])
    assert report.passed
    assert report.parameters == {"n": 3, "messages_checked": 2}
    assert set(report.measurements.values()) == {0.0}

    # The identity is unitary and self-inverse but leaves the memory blank.
    monkeypatch.setattr(
        nogo, "construct_G", lambda mu: np.eye(1 << mu.n, dtype=complex)
    )
    report = memory_swap_report(3, [1, 6])
    assert not report.passed
    assert report.measurements == {
        "max_unitarity_deviation": 0.0,
        "max_self_inverse_deviation": 0.0,
        "max_action_deviation": 1.0,
    }


def test_a_nan_in_G_fails_both_lemma1_reports(monkeypatch):
    def nan_at_origin(mu):
        g = np.array(construct_G(mu))
        g[0, 0] = np.nan
        return g

    monkeypatch.setattr(nogo, "construct_G", nan_at_origin)
    report = memory_swap_report(3, [1, 6])
    assert not report.passed
    assert all(math.isnan(value) for value in report.measurements.values())

    report = witness_mu_dependence(3)
    assert not report.passed
    for key in (
        "max_unitarity_deviation",
        "max_distance_deviation_from_sqrt2",
        "min_pairwise_distance",
    ):
        assert math.isnan(report.measurements[key]), key


@pytest.mark.parametrize(
    "n, values, text",
    [
        (3, [8], r"message value 8 out of range 1\.\.7"),
        (3, [1, 0], r"message value 0 out of range 1\.\.7"),
        (GATE_MATRIX_QUBIT_LIMIT + 1, [1], f"limited to n in 1..{GATE_MATRIX_QUBIT_LIMIT}"),
    ],
)
def test_memory_swap_report_refuses_bad_input_before_building_a_matrix(
    monkeypatch, n, values, text
):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(nogo.np, "eye", no_matrix)
    monkeypatch.setattr(nogo, "construct_G", no_matrix)
    with pytest.raises(ValueError, match=text):
        memory_swap_report(n, values)


# --- witness reports ---------------------------------------------------------------


def test_witness_n1_is_vacuous():
    report = witness_mu_dependence(1)
    assert isinstance(report, ClaimReport)
    assert report.passed
    assert report.parameters["n"] == 1
    assert "note" in report.measurements


def test_witness_small_n():
    for n in (2, 3):
        report = witness_mu_dependence(n)
        assert report.passed
        assert report.parameters["n"] == n
        assert report.measurements["max_unitarity_deviation"] <= 1e-12
        assert report.measurements["max_distance_deviation_from_sqrt2"] <= 1e-12
        assert report.measurements["min_pairwise_distance"] == pytest.approx(
            math.sqrt(2), abs=1e-12
        )
        dim = 1 << n
        assert report.measurements["pairs"] == (dim - 1) * (dim - 2) // 2


def test_witness_rejects_out_of_range_n():
    for bad in (0, -1, WITNESS_N_LIMIT + 1):
        with pytest.raises(ValueError):
            witness_mu_dependence(bad)


def test_claim_report_serialization():
    report = witness_mu_dependence(2)
    doc = report.to_dict()
    assert set(doc) == {"claim", "parameters", "measurements", "pass"}
    assert doc["pass"] is True


# --- amplitude immutability ---------------------------------------------------------


def test_amplitude_immutability_unequal_branches():
    amp0, amp1 = math.sqrt(1 / 3), math.sqrt(2 / 3)
    report = verify_amplitude_immutability(amp0, amp1, Message("1"))
    assert report.passed
    m = report.measurements
    assert m["paper_component_magnitude_pre_swap"] == pytest.approx(amp1, abs=1e-12)
    assert m["paper_component_magnitude_post_swap"] == pytest.approx(amp1, abs=1e-12)
    assert m["magnitude_delta"] <= 1e-12
    assert m["branch_weights_pre_swap"]["1"] == pytest.approx(amp1, abs=1e-12)
    assert m["branch_weights_post_swap"]["0"] == pytest.approx(amp1, abs=1e-12)
    assert m["branch_weights_post_swap"]["1"] == pytest.approx(amp0, abs=1e-12)
    assert m["exchange_delta"] <= 1e-12


def test_amplitude_immutability_degenerate_amplitudes():
    report = verify_amplitude_immutability(1.0, 0.0, Message("1"))
    assert report.passed
    assert report.measurements["paper_component_magnitude_post_swap"] == pytest.approx(
        0.0, abs=1e-12
    )


def test_amplitude_immutability_rejects_blank():
    with pytest.raises(ValueError):
        verify_amplitude_immutability(SQRT_HALF, SQRT_HALF, Message("0"))
