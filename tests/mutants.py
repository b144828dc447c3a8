"""Repeatable mutation checks: each mutant must make its named tests fail.

Run from anywhere:  python tests/mutants.py

Each entry names a file under src/, an exact original text that must occur
in it exactly once, its replacement, and the test ids expected to fail. For
each entry the runner copies src/ to a temporary directory, applies the
mutant there and runs only the named tests against the copy (PYTHONPATH and
pytest's pythonpath both point at it); pytest must report failed tests
(exit 1). The named tests first run once on an unmutated copy and must
pass, so a test that fails for another reason cannot pass as a kill. A
failure that ends in a NameError or AttributeError is not a kill either: the
replacement named something that does not exist, so the tests never saw the
behaviour it meant to break. An original text that no longer occurs
exactly once fails the run: a refactor that moves the code must move the
mutant with it. Each pytest run is stopped after PYTEST_TIMEOUT_S seconds;
a mutant whose tests run that long (say, a loop that no longer ends) is
reported as TIME and counts as a problem, not as a kill.

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    original: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "control on the first differing friend qubit, not the first rising one",
        "branchcomm/protocol.py",
        "control = next((f for f, a, b in friend if a < b), q)",
        "control = next((f for f, a, b in friend if a != b), q)",
        (
            "tests/test_swapsynth.py::test_wide_demo_exhaustive_small_widths",
            "tests/test_swapsynth.py::test_friend_steered_from_one_to_zero_does_not_control",
        ),
    ),
    Mutant(
        "branch swap leaves the steered friend qubits alone",
        "branchcomm/protocol.py",
        "ops.append(GateOp.multi_x((q, r, *steered)))",
        "ops.append(GateOp.multi_x((q, r)))",
        (
            "tests/test_swapsynth.py::test_wide_demo_ten_bit_snapshots",
            "tests/test_swapsynth.py::test_wide_circuit_control_rule_and_swap_follow_the_plan",
        ),
    ),
    Mutant(
        "the swap plan lists only rising positions",
        "branchcomm/swapsynth.py",
        "if a != b",
        "if a < b",
        (
            "tests/test_swapsynth.py::test_wide_demo_exhaustive_small_widths",
            "tests/test_swapsynth.py::test_friend_steered_from_one_to_zero_does_not_control",
        ),
    ),
    Mutant(
        "eq8 checkpoint one op early",
        "branchcomm/protocol.py",
        'checkpoints.append((len(ops) - 1, "eq8"))',
        'checkpoints.append((len(ops) - 2, "eq8"))',
        (
            "tests/test_protocol.py::test_default_circuit_structure_n1",
            "tests/test_protocol.py::test_variant_circuits_drop_their_columns",
        ),
    ),
    Mutant(
        "skewed amplitudes keep the template's RY(0.0) preparation",
        "branchcomm/protocol.py",
        "parameters[0] = 2.0 * math.atan2(config.amp1, config.amp0)",
        "pass",
        (
            "tests/test_protocol.py::test_preparation_gate_matches_amplitudes",
            "tests/test_protocol.py::test_negative_zero_amplitude_keeps_its_sign",
        ),
    ),
    Mutant(
        "construct_G swaps the blank state with k xor 1",
        "branchcomm/nogo.py",
        "images[0], images[k] = k, 0",
        "images[0], images[k ^ 1] = k ^ 1, 0",
        (
            "tests/test_nogo.py::test_construct_G_single_bit_is_bit_flip",
            "tests/test_nogo.py::test_construct_G_two_bits_swaps_blank_with_message",
        ),
    ),
    Mutant(
        "the memory swap's action is checked against the identity map",
        "branchcomm/nogo.py",
        "max_action = max(max_action, float(p != swapped))",
        "max_action = max(max_action, float(p != identity))",
        (
            "tests/test_nogo.py::test_memory_swap_report_checks_each_listed_message",
            "tests/test_cli.py::test_verify_single_suites_pass[lemma1]",
        ),
    ),
    Mutant(
        "unitarity is read from the map's length, not its distinct images",
        "branchcomm/nogo.py",
        "and len(set(images)) == dim",
        "and len(images) == dim",
        ("tests/test_nogo.py::test_a_malformed_map_fails_both_lemma1_reports[repeated image]",),
    ),
    Mutant(
        "nogo imports numpy again",
        "branchcomm/nogo.py",
        "import itertools\n",
        "import itertools\nimport numpy as np\n",
        ("tests/test_nogo.py::test_claim_modules_import_no_numpy[nogo]",),
    ),
    Mutant(
        "a protocol run's checkpoints are left writable",
        "branchcomm/protocol.py",
        '"checkpoints": MappingProxyType(snapshots)',
        '"checkpoints": snapshots',
        (
            "tests/test_protocol.py::test_trusted_circuits_and_runs_equal_checked_ones",
            "tests/test_protocol.py::test_run_is_frozen_snapshot",
        ),
    ),
    Mutant(
        "eq5's amp1 row loses M = mu",
        "branchcomm/protocol.py",
        '"eq5": ((0, 0, 0, 0, 0), (1, 1, 1, mu, mu)),',
        '"eq5": ((0, 0, 0, 0, 0), (1, 1, 1, 0, mu)),',
        (
            "tests/test_protocol.py::test_checkpoint_sweep_matches_references[1]",
            "tests/test_protocol.py::test_wide_checkpoints_match_references_without_dense_vectors[16]",
        ),
    ),
    Mutant(
        "the eq8 reference ignores uncompute_memory",
        "branchcomm/protocol.py",
        "kept = 0 if config.uncompute_memory else mu",
        "kept = 0",
        (
            "tests/test_protocol.py::test_reference_state_closed_forms",
            "tests/test_protocol.py::test_checkpoint_sweep_matches_references[1]",
        ),
    ),
    Mutant(
        "M and P exchanged in the reference's index formula",
        "branchcomm/protocol.py",
        "<< n | m) << n | p for",
        "<< n | p) << n | m for",
        ("tests/test_protocol.py::test_checkpoint_sweep_matches_references[1]",),
    ),
    Mutant(
        "fidelity summed in descending index order",
        "branchcomm/statevec.py",
        "for i, x in a.nonzero_items() if i in theirs), 0j",
        "for i, x in reversed(a.nonzero_items()) if i in theirs), 0j",
        ("tests/test_statevec.py::test_mixed_form_fidelity_and_equality_read_the_support",),
    ),
    Mutant(
        "an array-built state drops its signed zeros",
        "branchcomm/statevec.py",
        "idx = np.flatnonzero(bits[0::2] | bits[1::2])",
        "idx = np.flatnonzero(arr)",
        (
            "tests/test_statevec.py::test_listed_items_keep_signed_zeros",
            "tests/test_cli.py::test_run_document_keeps_signed_zeros_and_both_ends[True]",
        ),
    ),
    Mutant(
        "H written as a0 * SQRT_HALF + a1 * SQRT_HALF",
        "branchcomm/statevec.py",
        "out[low], out[high] = _mix(coeffs, held.get(low, 0j), held.get(high, 0j))",
        "a0, a1 = held.get(low, 0j), held.get(high, 0j); out[low], out[high] = "
        "(a0 * SQRT_HALF + a1 * SQRT_HALF, a0 * SQRT_HALF - a1 * SQRT_HALF) "
        "if coeffs is None else _mix(coeffs, a0, a1)",
        ("tests/test_statevec.py::test_mixing_kernel_agrees_bit_for_bit_in_both_forms",),
    ),
    Mutant(
        "folded transversal CNOT shifts each control bit the wrong way",
        "branchcomm/statevec.py",
        "by_distance.setdefault(t - c, []).append(c)",
        "by_distance.setdefault(c - t, []).append(c)",
        (
            "tests/test_statevec.py::test_folded_transversal_cnot_matches_pair_by_pair",
            "tests/test_statevec.py::test_folded_transversal_cnot_matches_pair_by_pair_when_wide",
            "tests/test_acceptance.py::test_criterion_2_checkpoint_sweep",
        ),
    ),
    Mutant(
        "QASM transversal CNOT swaps control and target",
        "branchcomm/qasm.py",
        'return [f"cx q[{c}], q[{t}];" for c, t in zip(op.controls, op.targets)]',
        'return [f"cx q[{t}], q[{c}];" for c, t in zip(op.controls, op.targets)]',
        (
            "tests/test_qasm.py::test_default_run_emits_the_enumerated_gate_list",
            "tests/test_qasm.py::test_hand_built_circuit_keeps_target_order",
        ),
    ),
    Mutant(
        "a checkpoint may follow the op one past the circuit's last",
        "branchcomm/statevec.py",
        "if not 0 <= op_index < len(ops):",
        "if not 0 <= op_index <= len(ops):",
        ("tests/test_statevec.py::test_snapshots_follow_op_order_then_table_order",),
    ),
    Mutant(
        "Circuit compiles its ops without _check",
        "branchcomm/statevec.py",
        "            op._check(total)\n",
        "            pass\n",
        ("tests/test_statevec.py::test_circuit_checks_each_op_not_yet_valid_for_its_width",),
    ),
    Mutant(
        "a derived op skips the check on its new parameter",
        "branchcomm/statevec.py",
        "        op._check_parameter()\n",
        "",
        ("tests/test_protocol.py::test_circuits_over_shared_ops_still_validate_their_fresh_ops",),
    ),
    Mutant(
        "Circuit._derive keeps the template's kernel for a replaced op",
        "branchcomm/statevec.py",
        "            ops[i], kernels[i] = op, family(op)\n",
        "            ops[i] = op\n",
        (
            "tests/test_protocol.py::test_run_against_dense_oracle_n3",
            "tests/test_protocol.py::test_trusted_circuits_and_runs_equal_checked_ones",
            "tests/test_protocol.py::test_derived_kernels_match_freshly_compiled_ones",
        ),
    ),
    Mutant(
        "a derived encoder keeps its template's flip mask",
        "branchcomm/statevec.py",
        "        build, fixed = _flip_kernel, _mask(total, op.controls)\n",
        "        build, fixed = (lambda fixed, total, _: _flip_kernel(fixed, total, op)), "
        "_mask(total, op.controls)\n",
        ("tests/test_protocol.py::test_derived_kernels_match_freshly_compiled_ones",),
    ),
    Mutant(
        "gate_matrix writes each column as a row",
        "branchcomm/statevec.py",
        "matrix[i, j] = amp",
        "matrix[j, i] = amp",
        (
            "tests/test_statevec.py::test_gate_matrix_columns_are_apply_gate_on_basis_vectors",
            "tests/test_statevec.py::test_gate_matrix_matches_oracle_matrix[op1]",
        ),
    ),
    Mutant(
        "a multi-control flip fires when any control is set",
        "branchcomm/statevec.py",
        "if index & cmask == cmask:",
        "if not cmask or index & cmask:",
        ("tests/test_statevec.py::test_gate_matrix_matches_oracle_matrix[op6]",),
    ),
    Mutant(
        "an RY angle need only be real, not finite",
        "branchcomm/statevec.py",
        "if not (_real(angle) and math.isfinite(angle)):",
        "if not _real(angle):",
        (
            "tests/test_statevec.py::test_ry_angle_that_is_not_a_finite_real_is_refused[nan]",
            "tests/test_statevec.py::test_ry_angle_that_is_not_a_finite_real_is_refused[inf]",
        ),
    ),
    Mutant(
        "check_bits also accepts the digit 2",
        "branchcomm/statevec.py",
        'bits.strip("01")',
        'bits.strip("012")',
        (
            "tests/test_protocol.py::test_message_validation",
            "tests/test_cli.py::test_run_usage_errors_exit_1",
        ),
    ),
    Mutant(
        "the transfer predicate skips the sender-memory clause",
        "branchcomm/branches.py",
        "    elif (s >> ms) & mm:\n"
        "        reason = f\"sender memory '{value_of(s, 'M')}' is not cleared\"\n",
        "",
        (
            "tests/test_branches.py::test_failure_verdicts_are_pinned",
            "tests/test_branches.py::test_failure_sender_side",
        ),
    ),
    Mutant(
        "register_component_magnitude parses its bits with a bare int()",
        "branchcomm/branches.py",
        "value = state.layout.value_for(register, bits)",
        "value = int(bits, 2)",
        (
            "tests/test_branches.py::test_malformed_register_values_fail_alike_in_both_forms",
        ),
    ),
    Mutant(
        "the suites' evenly spaced inputs stop short of their top end",
        "branchcomm/suites.py",
        "(high - low) * i // (count - 1)",
        "(high - low) * i // count",
        (
            "tests/test_suites.py::test_theorem1_checks_the_pinned_messages",
            "tests/test_suites.py::test_lemma1_checks_the_pinned_values",
        ),
    ),
    Mutant(
        "-o file left at its old length",
        "branchcomm/cli.py",
        "handle.raw.truncate()",
        "pass",
        (
            "tests/test_cli.py::test_run_over_a_longer_file_leaves_no_tail",
            "tests/test_cli.py::test_export_over_a_run_document",
        ),
    ),
    Mutant(
        "run checks the dense limit only after opening the -o file",
        "branchcomm/cli.py",
        "    try:\n        check_dense_limit(protocol_layout(config.n))\n"
        "    except ValueError as exc:  # too wide to write out densely\n"
        "        raise _UsageError(str(exc)) from None\n",
        "",
        ("tests/test_cli.py::test_run_past_the_dense_limit_exits_1",),
    ),
    Mutant(
        "run evolves the state before it checks the dense limit",
        "branchcomm/cli.py",
        "    try:\n        check_dense_limit(protocol_layout(config.n))\n",
        "    run_protocol(config, message)\n"
        "    try:\n        check_dense_limit(protocol_layout(config.n))\n",
        ("tests/test_cli.py::test_run_refuses_a_too_wide_message_before_running",),
    ),
)


# pytest's traceback line for an exception raised by a name the mutant broke.
BROKEN_NAME = re.compile(r"^E\s+(NameError|AttributeError)\b", re.MULTILINE)

# Longest one pytest run may take; every named test together takes seconds.
PYTEST_TIMEOUT_S = 300


def _pytest(src: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit status and output; the status is None for a run
    stopped after PYTEST_TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=PYTEST_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        return None, (exc.output or b"").decode(errors="replace")
    output = done.stdout.decode(errors="replace")
    if done.returncode not in (0, 1):
        sys.stdout.write(output)
    return done.returncode, output


def main() -> int:
    started = time.perf_counter()
    problems = 0
    with tempfile.TemporaryDirectory(prefix="branchcomm-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in MUTANTS:
            count = (src / mutant.path).read_text().count(mutant.original)
            if count != 1 or not mutant.tests:
                print(f"BAD  {mutant.name}: original text occurs {count} times, "
                      f"{len(mutant.tests)} tests named")
                problems += 1
        if problems:
            return 1
        named = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        code, _ = _pytest(src, named)
        if code != 0:
            how = f"exit {code}" if code is not None else f"run past {PYTEST_TIMEOUT_S} s"
            print(f"BAD  the named tests {how} on the unmutated source")
            return 1
        for mutant in MUTANTS:
            target = src / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.original, mutant.replacement))
            try:
                code, output = _pytest(src, mutant.tests)
            finally:
                target.write_text(original)
            if code is None:
                problems += 1
                print(f"TIME {mutant.name} (pytest stopped after {PYTEST_TIMEOUT_S} s)")
                continue
            broken = BROKEN_NAME.search(output)
            killed = code == 1 and not broken
            problems += not killed
            verdict = "ok  " if killed else "LIVE"
            why = f", dies of a {broken[1]}" if broken else ""
            print(f"{verdict} {mutant.name} (pytest exit {code}{why})")
    print(f"{len(MUTANTS)} mutants, {problems} problems, {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
