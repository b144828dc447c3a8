import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from branchcomm import cli, nogo, statevec
from branchcomm.branches import ZERO_TOL
from branchcomm.cli import main
from branchcomm.nogo import ClaimReport
from branchcomm.protocol import (
    Message,
    ProtocolConfig,
    ProtocolRun,
    build_protocol_circuit,
    run_protocol,
)
from branchcomm.qasm import to_qasm
from branchcomm.statevec import StateVector

SQRT_HALF = math.sqrt(0.5)


def run_cli(capsys, *argv):
    """Invoke the CLI, tolerating argparse's SystemExit on usage errors."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -------------------------------------------------------------------------


def test_run_emits_checkpoint_document(capsys):
    code, out, err = run_cli(capsys, "run", "--message", "1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "message", "checkpoints", "final"}
    assert doc["message"] == "1"
    assert doc["config"]["n"] == 1
    assert doc["config"]["uncompute_memory"] is True
    assert doc["config"]["apply_branch_swap"] is True
    assert set(doc["checkpoints"]) == {
        "eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq8"
    }
    assert len(doc["final"]) == 32
    assert doc["final"][28] == pytest.approx([SQRT_HALF, 0.0])
    assert doc["final"][1] == pytest.approx([SQRT_HALF, 0.0])
    assert "verdict: success, receiver paper reads '1'" in err
    assert "circuit: 7 ops" in err


def test_run_document_round_trips_amplitudes(capsys):
    code, out, _ = run_cli(capsys, "run", "--message", "10")
    assert code == 0
    doc = json.loads(out)
    run = run_protocol(ProtocolConfig(n=2), Message("10"))
    rebuilt = np.array([complex(re, im) for re, im in doc["final"]])
    assert np.max(np.abs(rebuilt - run.final.amplitudes)) <= 1e-15
    for label, pairs in doc["checkpoints"].items():
        rebuilt = np.array([complex(re, im) for re, im in pairs])
        assert np.max(
            np.abs(rebuilt - run.checkpoints[label].amplitudes)
        ) <= 1e-15


def json_dumps_document(run, message):
    """The `run` document built as a dict and written by json.dumps."""

    def pairs(state):
        return [[a.real, a.imag] for a in state.amplitudes.tolist()]

    config = run.config
    document = {
        "config": {
            "n": config.n,
            "amp0": config.amp0,
            "amp1": config.amp1,
            "uncompute_memory": config.uncompute_memory,
            "apply_branch_swap": config.apply_branch_swap,
        },
        "message": message.bits,
        "checkpoints": {label: pairs(state) for label, state in run.checkpoints.items()},
        "final": pairs(run.final),
    }
    return json.dumps(document, indent=2)


def test_run_document_is_the_json_dumps_text():
    rng = np.random.default_rng(7)
    config = ProtocolConfig(n=1, amp0=0.6, amp1=0.8, apply_branch_swap=False)
    run = run_protocol(config, Message("1"))
    layout = run.final.layout
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    amps[:4] = [-0.0, complex(-0.0, -0.0), 1e-300j, -1 / 3]
    checkpoints = {**run.checkpoints, "eq1": StateVector(layout, amps)}
    odd = ProtocolRun(config, checkpoints, run.final)
    assert cli.run_document(odd, Message("1")) == json_dumps_document(odd, Message("1"))


@pytest.mark.parametrize("dense", [False, True])
def test_run_document_keeps_signed_zeros_and_both_ends(dense, monkeypatch):
    config = ProtocolConfig(n=2, amp0=0.6, amp1=0.8)
    message = Message("10")
    run = run_protocol(config, message)
    layout = run.final.layout
    support = {
        0: -0.0,
        5: complex(-0.0, -0.0),
        6: 0j,
        9: -1 / 3,
        layout.dim - 1: 1e-300j,
    }
    state = StateVector(layout, support=support)
    if dense:
        state = StateVector(layout, state.amplitudes)
    odd = ProtocolRun(config, {**run.checkpoints, "eq3": state}, state)
    with monkeypatch.context() as patch:
        if not dense:  # the text is written without making the state dense

            def refuse(*args):
                raise AssertionError("made a dense array")

            patch.setattr(statevec, "dense_amplitudes", refuse)
        text = cli.run_document(odd, message)
    assert text == json_dumps_document(odd, message)
    assert text.count("-0.0") == 6  # three per array: eq3 and final


def run_cli_document(capsys, tmp_path, *argv):
    """The `run` document as the CLI writes it to an -o file, checked to be
    the stdout text minus its final newline."""
    path = tmp_path / "run.json"
    written = run_cli(capsys, "run", *argv, "-o", str(path))
    code, text, err = run_cli(capsys, "run", *argv)
    assert written == (code, "", err)
    assert text.endswith("}\n")
    assert path.read_bytes() == text[:-1].encode("ascii")
    return text[:-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_run_document_is_json_dumps_for_every_config(n, capsys, tmp_path):
    rng = np.random.default_rng(n)
    messages = sorted({"1" * n, "".join(rng.choice(["0", "1"], size=n))})
    for bits in messages:
        for flags, argv in (
            ({}, ()),
            ({"uncompute_memory": False}, ("--no-uncompute",)),
            ({"apply_branch_swap": False}, ("--no-swap",)),
            ({"amp0": 0.6, "amp1": 0.8}, ("--amp0", "0.6", "--amp1", "0.8")),
        ):
            run = run_protocol(ProtocolConfig(n=n, **flags), Message(bits))
            text = cli.run_document(run, Message(bits))
            assert text == json_dumps_document(run, Message(bits)), (bits, flags)
            written = run_cli_document(capsys, tmp_path, "--message", bits, *argv)
            assert written == text, (bits, flags)


def test_run_file_spans_several_zero_blocks(capsys, tmp_path):
    message = Message("101101")
    run = run_protocol(ProtocolConfig(n=6), message)
    assert run.final.dim > 4 * cli.ZERO_BLOCK_ITEMS
    expected = json_dumps_document(run, message)
    assert run_cli_document(capsys, tmp_path, "--message", message.bits) == expected
    # No chunk is longer than the cached zero block, whatever the width.
    block = cli._item_texts("    ")[1]
    assert max(len(chunk) for chunk in cli._document_chunks(run, message)) == len(block)


@pytest.mark.parametrize("dense", [False, True])
def test_run_file_keeps_signed_zeros_and_both_ends(dense, capsys, tmp_path, monkeypatch):
    config = ProtocolConfig(n=2, amp0=0.6, amp1=0.8, apply_branch_swap=False)
    message = Message("10")
    run = run_protocol(config, message)
    layout = run.final.layout
    support = {  # descending: the file is written in ascending index order
        layout.dim - 1: 1e-300j,
        9: -1 / 3,
        6: 0j,
        5: complex(-0.0, -0.0),
        0: -0.0,
    }
    state = StateVector(layout, support=support)
    if dense:
        state = StateVector(layout, state.amplitudes)
    odd = ProtocolRun(config, {**run.checkpoints, "eq3": state}, state)
    expected = json_dumps_document(odd, message)
    monkeypatch.setattr(cli, "run_protocol", lambda config, message: odd)
    if not dense:

        def refuse(*args):
            raise AssertionError("made a dense array")

        monkeypatch.setattr(statevec, "dense_amplitudes", refuse)
    argv = ("--message", "10", "--amp0", "0.6", "--amp1", "0.8", "--no-swap")
    assert run_cli_document(capsys, tmp_path, *argv) == expected


def test_run_file_is_written_without_the_whole_text(capsys, tmp_path, monkeypatch):
    message = Message("10110")
    expected = json_dumps_document(run_protocol(ProtocolConfig(n=5), message), message)

    def refuse(*args):
        raise AssertionError("built the whole text or a dense array")

    monkeypatch.setattr(cli, "run_document", refuse)
    monkeypatch.setattr(statevec, "dense_amplitudes", refuse)
    path = tmp_path / "run.json"
    code, out, err = run_cli(capsys, "run", "--message", "10110", "-o", str(path))
    assert (code, out) == (0, "")
    assert "verdict: success" in err
    assert path.read_text(encoding="ascii") == expected


def test_run_stdout_is_written_without_the_whole_text(capsys, monkeypatch):
    message = Message("10110")
    expected = json_dumps_document(run_protocol(ProtocolConfig(n=5), message), message)

    def refuse(*args):
        raise AssertionError("built the whole text or a dense array")

    monkeypatch.setattr(cli, "run_document", refuse)
    monkeypatch.setattr(statevec, "dense_amplitudes", refuse)
    code, out, err = run_cli(capsys, "run", "--message", "10110")
    assert code == 0 and "verdict: success" in err
    assert out == expected + "\n"


# Peak RSS of `run` at n = 8 to stdout. The document is 171,967,059 bytes
# (164 MiB); streamed, the process stays near the interpreter and numpy's
# own ~30 MiB, where joining the text first peaked at about 358 MiB.
RUN_STDOUT_MAX_RSS_MIB = 96


def _child_peak_mib(*argv: str) -> tuple[int, float]:
    """Exit code and peak RSS in MiB of one `branchcomm.cli` call, read as
    RUSAGE_CHILDREN ru_maxrss by a small parent process.

    Linux carries the peak RSS of the process that spawns a child into the
    child's ru_maxrss at exec, so the test process (well past the bounds
    after the rest of the suite) cannot spawn the call and read it directly.
    """
    src = Path(cli.__file__).resolve().parents[1]
    parent = (
        "import resource, subprocess, sys\n"
        "code = subprocess.run(\n"
        f"    [sys.executable, '-m', 'branchcomm.cli', *{list(argv)!r}],\n"
        "    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,\n"
        ").returncode\n"
        "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", parent],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    code, peak = map(int, done.stdout.split())
    return code, peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes or KiB


def test_run_stdout_at_n8_holds_no_whole_document():
    """`run` at n = 8 with stdout on /dev/null."""
    code, peak_mib = _child_peak_mib("run", "--message", "10110101")
    assert code == 0
    assert peak_mib < RUN_STDOUT_MAX_RSS_MIB, peak_mib


# Peak RSS of `export` at n = 32768 in either format. Its circuit is built
# in memory linear in n; one (control mask, flip mask) pair per qubit pair
# of the two transversal CNOTs, as built before, peaked at about 600 MiB.
EXPORT_WIDE_MAX_RSS_MIB = 128


@pytest.mark.parametrize("fmt", ["qasm", "json"])
def test_wide_export_takes_memory_linear_in_the_width(fmt, tmp_path):
    path = tmp_path / f"wide.{fmt}"
    code, peak_mib = _child_peak_mib(
        "export", "--message", "10" * 16384, "--format", fmt, "-o", str(path)
    )
    assert code == 0
    assert peak_mib < EXPORT_WIDE_MAX_RSS_MIB, peak_mib


def test_run_writes_output_file(capsys, tmp_path):
    path = tmp_path / "run.json"
    code, out, err = run_cli(
        capsys, "run", "--message", "1", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["message"] == "1"
    assert "verdict: success" in err


def test_run_usage_errors_exit_1(capsys):
    for argv in (
        ["run", "--message", ""],
        ["run", "--message", "012"],
        ["run", "--message", "10", "--n", "3"],
        ["run"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert "error" in err


def test_run_refuses_a_one_branch_preparation_around_the_zero_tolerance(capsys, tmp_path):
    """A prepared amplitude at or under ZERO_TOL is a usage error (exit 1),
    one above it transfers (exit 0); no input near the boundary fails the
    verdict (exit 2). The sweep crosses the boundary on both amplitudes, in
    steps finer than the rounding RY adds to a small amp0."""
    existing = tmp_path / "existing.json"
    small = [ZERO_TOL * (1 + k * 1e-5) for k in range(-20, 21)]
    small += [math.nextafter(ZERO_TOL, 0.0), math.nextafter(ZERO_TOL, 1.0), 0.0, -0.0]
    codes = set()
    for tiny in small:
        for amps in (("--amp0", "1", f"--amp1={tiny!r}"), (f"--amp0={tiny!r}", "--amp1", "1")):
            argv = ("run", "--message", "11", *amps, "-o", str(existing))
            existing.write_bytes(b"kept\n")
            code, out, err = run_cli(capsys, *argv)
            assert code in (0, 1), (argv, err)
            if code == 1:
                assert out == "" and len(err.splitlines()) == 1, argv
                assert "prepares an amplitude at or under 1e-12" in err
                assert existing.read_bytes() == b"kept\n"
            codes.add(code)
    assert codes == {0, 1}
    for amps, flag in (
        (("1", "-0.0"), "--amp1"), (("1", "0"), "--amp1"),
        (("1", "1e-12"), "--amp1"), (("0", "1"), "--amp0"),
    ):
        argv = ("run", "--message", "11", f"--amp0={amps[0]}", f"--amp1={amps[1]}")
        code, _, err = run_cli(capsys, *argv)
        assert (code, err.split()[:2]) == (1, ["error:", flag]), amps


def test_run_past_the_dense_limit_exits_1(capsys, tmp_path):
    path = tmp_path / "run.json"
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"kept\n")
    for output in ([], ["-o", str(path)], ["-o", str(existing)]):
        code, out, err = run_cli(capsys, "run", "--message", "1" * 14, *output)
        assert code == 1
        assert out == ""
        assert err.startswith("error: a dense state of 31 qubits needs 2^31 amplitudes")
        assert len(err.splitlines()) == 1
    assert not path.exists()
    assert existing.read_bytes() == b"kept\n"


def test_run_refuses_a_too_wide_message_before_running(capsys, monkeypatch):
    def refuse(config, message):
        raise AssertionError("run_protocol called for a state too wide to write")

    monkeypatch.setattr(cli, "run_protocol", refuse)
    code, out, err = run_cli(capsys, "run", "--message", "101101101")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a dense state of 21 qubits needs 2^21 amplitudes")


@pytest.mark.parametrize("command", ["run", "export"])
def test_unwritable_output_exits_1(capsys, tmp_path, command):
    targets = [tmp_path]  # a directory: open fails
    if os.path.exists("/dev/full"):
        targets.append("/dev/full")  # open succeeds, the write fails
    for target in targets:
        code, out, err = run_cli(capsys, command, "--message", "101", "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {str(target)!r}: "), err
        assert len(err.splitlines()) == 1


def document_bytes(bits):
    """The default `run` document of a message, as json.dumps writes it."""
    message = Message(bits)
    run = run_protocol(ProtocolConfig(n=message.n), message)
    return json_dumps_document(run, message).encode("ascii")


def test_run_over_a_longer_file_leaves_no_tail(capsys, tmp_path):
    path = tmp_path / "run.json"
    for bits in ("101101", "1"):
        code, out, _ = run_cli(capsys, "run", "--message", bits, "-o", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == document_bytes(bits), bits


def test_run_same_length_rewrite_with_another_message(capsys, tmp_path):
    path = tmp_path / "run.json"
    old, new = document_bytes("10110"), document_bytes("01001")
    assert len(old) == len(new) and old != new
    path.write_bytes(old)
    path.chmod(0o600)
    code, _, err = run_cli(capsys, "run", "--message", "01001", "-o", str(path))
    assert code == 0
    assert "receiver paper reads '01001'" in err
    assert path.read_bytes() == new
    assert path.stat().st_mode & 0o777 == 0o600


def test_run_through_a_symlink_rewrites_its_target(capsys, tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(document_bytes("1111"))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "run", "--message", "10", "-o", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == document_bytes("10")


def test_run_to_the_null_device(capsys):
    code, out, err = run_cli(capsys, "run", "--message", "101", "-o", os.devnull)
    assert (code, out) == (0, "")
    assert "verdict: success, receiver paper reads '101'" in err


@pytest.mark.parametrize("head_size", [8, 3 * 8192])
def test_failed_write_leaves_what_reached_the_file(tmp_path, head_size):
    # A short head is still buffered when the write fails, a long one has
    # reached the file; either way nothing of the old file may follow it.
    path = tmp_path / "out.json"
    path.write_bytes(b"o" * (head_size + 3000))
    head = (b"new-head" * head_size)[:head_size]

    def chunks():
        yield head
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with pytest.raises(cli._UsageError) as failure:
        cli._write_chunks(chunks(), str(path))
    assert str(failure.value) == (
        f"cannot write {str(path)!r}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    )
    assert path.read_bytes() == head


def test_run_branch_table_on_stderr(capsys):
    _, _, err = run_cli(capsys, "run", "--message", "1")
    assert "final-state branches by room record R:" in err
    assert "R=0" in err and "R=1" in err
    assert "P=1" in err


def test_run_no_uncompute_fails_with_reason(capsys):
    code, out, err = run_cli(capsys, "run", "--message", "1", "--no-uncompute")
    assert code == 2
    doc = json.loads(out)
    assert "eq6" not in doc["checkpoints"]
    assert "verdict: FAILED" in err
    assert "cross-branch memory" in err


def test_run_no_swap_skips_verdict(capsys):
    code, out, err = run_cli(capsys, "run", "--message", "1", "--no-swap")
    assert code == 0
    doc = json.loads(out)
    assert "eq8" not in doc["checkpoints"]
    assert "verdict: skipped (branch swap disabled)" in err


def test_amplitudes_renormalized_with_warning(capsys):
    code, out, err = run_cli(
        capsys,
        "run", "--message", "1", "--amp0", "0.70710678", "--amp1", "0.70710678",
    )
    assert code == 0
    assert "warning: renormalizing amplitudes" in err
    doc = json.loads(out)
    assert doc["config"]["amp0"] == pytest.approx(SQRT_HALF, abs=1e-12)


def test_amplitudes_exact_pair_no_warning(capsys):
    code, _, err = run_cli(capsys, "run", "--message", "1", "--amp0", "0.6", "--amp1", "0.8")
    assert code == 0
    assert "warning" not in err


def test_amplitudes_rejected_when_far_from_normalized(capsys):
    code, _, err = run_cli(
        capsys, "run", "--message", "1", "--amp0", "0.7072", "--amp1", "0.7072"
    )
    assert code == 1
    assert "not normalized" in err

    code, _, err = run_cli(
        capsys, "run", "--message", "1", "--amp0", "-0.6", "--amp1", "0.8"
    )
    assert code == 1
    assert "non-negative" in err


# --- verify ----------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["theorem1", "corollary1", "lemma1", "corollary2"])
def test_verify_single_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert f"suite '{suite}':" in out
    counted = out.strip().splitlines()[-1]
    claims = out.count("[PASS]")
    assert f"{claims}/{claims} claims verified" in counted
    assert out == SUITE_STDOUT[suite]


THEOREM1_STDOUT = """\
[PASS] the transfer protocol delivers every message to the receiving branch with \
records and memory cleared (checked_exhaustive=14, checked_sampled=60)
[PASS] the global observer's operations are message-independent: every non-encoder \
gate matrix is bitwise identical across messages (matrices_compared=180)
suite 'theorem1': 2/2 claims verified
"""

LEMMA1_STDOUT = """\
[PASS] memory-preserving swaps are message-dependent: distinct messages force \
distinct swap unitaries (messages=3, pairs=3, max_unitarity_deviation=0.000e+00, \
max_distance_deviation_from_sqrt2=0.000e+00, min_pairwise_distance=1.414e+00)
[PASS] memory-preserving swaps are message-dependent: distinct messages force \
distinct swap unitaries (messages=7, pairs=21, max_unitarity_deviation=0.000e+00, \
max_distance_deviation_from_sqrt2=0.000e+00, min_pairwise_distance=1.414e+00)
[PASS] each memory swap is unitary, self-inverse, and exchanges the blank memory \
with its message while fixing everything else (max_unitarity_deviation=0.000e+00, \
max_self_inverse_deviation=0.000e+00, max_action_deviation=0.000e+00)
[PASS] each memory swap is unitary, self-inverse, and exchanges the blank memory \
with its message while fixing everything else (max_unitarity_deviation=0.000e+00, \
max_self_inverse_deviation=0.000e+00, max_action_deviation=0.000e+00)
[PASS] each memory swap is unitary, self-inverse, and exchanges the blank memory \
with its message while fixing everything else (max_unitarity_deviation=0.000e+00, \
max_self_inverse_deviation=0.000e+00, max_action_deviation=0.000e+00)
[PASS] each memory swap is unitary, self-inverse, and exchanges the blank memory \
with its message while fixing everything else (max_unitarity_deviation=0.000e+00, \
max_self_inverse_deviation=0.000e+00, max_action_deviation=0.000e+00)
[PASS] each memory swap is unitary, self-inverse, and exchanges the blank memory \
with its message while fixing everything else (max_unitarity_deviation=0.000e+00, \
max_self_inverse_deviation=0.000e+00, max_action_deviation=0.000e+00)
suite 'lemma1': 7/7 claims verified
"""

COROLLARY1_STDOUT = """\
[PASS] without the memory uncompute the receiver's memory still reads the message, so \
the transfer predicate fails (checked=11, min_reference_fidelity=1.000e+00)
suite 'corollary1': 1/1 claims verified
"""

# The second claim runs the 20 enumerated preparations that
# tests/test_suites.py pins; its deltas print as 0.000e+00 on each.
COROLLARY2_STDOUT = """\
[PASS] the branch swap relabels branches but cannot change the paper-carrying \
component's amplitude (paper_component_magnitude_pre_swap=8.165e-01, \
paper_component_magnitude_post_swap=8.165e-01, magnitude_delta=0.000e+00, \
exchange_delta=0.000e+00)
[PASS] randomized preparations: the swap exchanges branch weights and never alters \
the paper component's magnitude (max_magnitude_delta=0.000e+00, \
max_exchange_delta=0.000e+00, failures=0)
suite 'corollary2': 2/2 claims verified
"""

SUITE_STDOUT = {
    "theorem1": THEOREM1_STDOUT,
    "corollary1": COROLLARY1_STDOUT,
    "lemma1": LEMMA1_STDOUT,
    "corollary2": COROLLARY2_STDOUT,
}


def test_verify_lemma1_fails_on_a_wrong_memory_swap(capsys, monkeypatch):
    def wrong_swap(mu):
        k = int(mu.bits, 2) ^ 1
        matrix = np.eye(1 << mu.n, dtype=np.complex128)
        matrix[[0, k]] = matrix[[k, 0]]
        return matrix

    monkeypatch.setattr(nogo, "construct_G", wrong_swap)
    code, out, _ = run_cli(capsys, "verify", "--suite", "lemma1")
    assert code == 2
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("[FAIL]")]
    assert len(fails) == 5
    assert all("max_action_deviation=1.000e+00" in line for line in fails)
    assert lines[-1] == "suite 'lemma1': 2/7 claims verified"


def test_verify_all_suites(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    claims = [
        line for text in SUITE_STDOUT.values() for line in text.splitlines()[:-1]
    ]
    assert out.splitlines() == [*claims, "suite 'all': 12/12 claims verified"]


def test_verify_fail_lists_failing_inputs(capsys, monkeypatch):
    report = ClaimReport(
        claim="ops are message-independent",
        parameters={},
        measurements={
            "matrices_compared": 3,
            "mismatches": ["n=1 mu=1 op=2"],
            "failures": [],
        },
        passed=False,
    )
    monkeypatch.setattr(cli, "run_suite", lambda suite: [report])
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorem1")
    assert code == 2
    assert out == (
        "[FAIL] ops are message-independent (matrices_compared=3)\n"
        "  mismatches: n=1 mu=1 op=2\n"
        "suite 'theorem1': 0/1 claims verified\n"
    )


def test_verify_unknown_suite_exits_1(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1
    assert "invalid choice" in err


# --- swap-synth ------------------------------------------------------------------


def test_swap_synth_output(capsys):
    code, out, _ = run_cli(capsys, "swap-synth", "0101110101", "1101100100")
    assert code == 0
    assert out.strip() == "X_1 X_6 X_10 (cost 3)"


def test_swap_synth_identity(capsys):
    code, out, _ = run_cli(capsys, "swap-synth", "01", "01")
    assert code == 0
    assert out.strip() == "identity (cost 0)"


def test_swap_synth_width_mismatch(capsys):
    code, _, err = run_cli(capsys, "swap-synth", "01", "011")
    assert code == 1
    assert "widths differ" in err


# --- export ----------------------------------------------------------------------


def test_export_qasm_default(capsys):
    code, out, err = run_cli(capsys, "export", "--message", "1")
    assert code == 0
    assert out.splitlines()[0] == "OPENQASM 2.0;"
    assert out.count("cx ") == 5
    assert out.count("\nx ") == 3
    assert "measure" not in out
    assert "circuit: 7 ops" in err


def test_export_qasm_with_measure(capsys):
    code, out, _ = run_cli(capsys, "export", "--message", "1", "--measure")
    assert code == 0
    assert "creg cq[1];" in out
    assert out.count("measure ") == 5


def test_export_json(capsys):
    code, out, _ = run_cli(capsys, "export", "--message", "101", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["layout"] == [["Q", 1], ["R", 1], ["F", 1], ["M", 3], ["P", 3]]
    assert doc["message"] == "101"
    assert doc["gate_count"] == 7
    assert doc["ops"][0]["kind"].lower() == "h"
    assert doc["ops"][3]["payload"] == "101"


QASM_101_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[9];\n'
QASM_101_GATES = (
    "h q[0];\n"
    "cx q[0], q[2];\n"
    "cx q[2], q[1];\n"
    "cx q[2], q[3];\n"
    "cx q[2], q[5];\n"
    "cx q[3], q[6];\n"
    "cx q[4], q[7];\n"
    "cx q[5], q[8];\n"
    "cx q[6], q[3];\n"
    "cx q[7], q[4];\n"
    "cx q[8], q[5];\n"
    "x q[0];\n"
    "x q[1];\n"
    "x q[2];\n"
)
QASM_101_CREGS = (
    "creg cq[1];\ncreg cr[1];\ncreg cf[1];\ncreg cm[3];\ncreg cp[3];\n"
)
QASM_101_MEASURES = "".join(
    f"measure q[{q}] -> c{reg}[{i}];\n"
    for q, (reg, i) in enumerate(
        [("q", 0), ("r", 0), ("f", 0), ("m", 0), ("m", 1), ("m", 2),
         ("p", 0), ("p", 1), ("p", 2)]
    )
)


def _op(kind, targets, controls=(), payload=None):
    return {
        "kind": kind,
        "targets": list(targets),
        "controls": list(controls),
        "payload": payload,
        "angle": None,
    }


JSON_101 = json.dumps(
    {
        "layout": [["Q", 1], ["R", 1], ["F", 1], ["M", 3], ["P", 3]],
        "message": "101",
        "gate_count": 7,
        "layer_depth": 6,
        "ops": [
            _op("H", [0]),
            _op("CNOT", [2], [0]),
            _op("CNOT", [1], [2]),
            _op("ENCODE_MU", [3, 4, 5], [2], "101"),
            _op("TRANSVERSAL_CNOT", [6, 7, 8], [3, 4, 5]),
            _op("TRANSVERSAL_CNOT", [3, 4, 5], [6, 7, 8]),
            _op("MULTI_X", [0, 1, 2]),
        ],
    },
    indent=2,
) + "\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        ((), QASM_101_HEADER + QASM_101_GATES),
        (
            ("--measure",),
            QASM_101_HEADER + QASM_101_CREGS + QASM_101_GATES + QASM_101_MEASURES,
        ),
        (("--format", "json"), JSON_101),
    ],
)
def test_export_message_101_is_pinned(capsys, flags, expected):
    code, out, err = run_cli(capsys, "export", "--message", "101", *flags)
    assert code == 0
    assert out == expected
    assert err == "circuit: 7 ops, layer depth 6\n"


def test_export_unequal_amplitudes_has_no_qasm(capsys):
    code, _, err = run_cli(
        capsys,
        "export", "--message", "1",
        "--amp0", str(math.sqrt(1 / 3)), "--amp1", str(math.sqrt(2 / 3)),
    )
    assert code == 1
    assert err == (
        "error: rotation preparation (unequal amplitudes) has no x/h/cx "
        "representation; export with --format json instead\n"
    )

    code, out, _ = run_cli(
        capsys,
        "export", "--message", "1", "--format", "json",
        "--amp0", str(math.sqrt(1 / 3)), "--amp1", str(math.sqrt(2 / 3)),
    )
    assert code == 0
    assert json.loads(out)["ops"][0]["kind"].lower() == "ry"


def test_export_writes_output_file(capsys, tmp_path):
    path = tmp_path / "circuit.qasm"
    code, out, _ = run_cli(
        capsys, "export", "--message", "1", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("OPENQASM 2.0;")


def test_export_over_a_run_document(capsys, tmp_path):
    path = tmp_path / "out"
    path.write_bytes(document_bytes("101"))
    code, out, _ = run_cli(capsys, "export", "--message", "101", "-o", str(path))
    assert (code, out) == (0, "")
    circuit = build_protocol_circuit(ProtocolConfig(n=3), Message("101"))
    assert path.read_bytes() == to_qasm(circuit).encode("ascii")


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1
