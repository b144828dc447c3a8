"""Repeatable mutation checks: each mutant must make its named tests fail.

Run from anywhere:  python tests/mutants.py

Each entry names a file under src/, an exact original text that must occur
in it exactly once, its replacement, and the test ids expected to fail. For
each entry the runner copies src/ to a temporary directory, applies the
mutant there and runs only the named tests against the copy (PYTHONPATH and
pytest's pythonpath both point at it); pytest must report failed tests
(exit 1). The named tests first run once on an unmutated copy and must
pass, so a test that fails for another reason cannot pass as a kill. An
original text that no longer occurs exactly once fails the run: a refactor
that moves the code must move the mutant with it.

Exit status 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
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
        "tail.append(GateOp.multi_x((q, r, *steered)))",
        "tail.append(GateOp.multi_x((q, r)))",
        (
            "tests/test_swapsynth.py::test_wide_demo_ten_bit_snapshots",
            "tests/test_swapsynth.py::test_wide_circuit_control_rule_and_swap_follow_the_plan",
        ),
    ),
    Mutant(
        "eq8 checkpoint one op early",
        "branchcomm/protocol.py",
        'checkpoints.append((e + len(tail), "eq8"))',
        'checkpoints.append((e + len(tail) - 1, "eq8"))',
        (
            "tests/test_protocol.py::test_default_circuit_structure_n1",
            "tests/test_protocol.py::test_variant_circuits_drop_their_columns",
        ),
    ),
    Mutant(
        "construct_G swaps row 0 with k xor 1",
        "branchcomm/nogo.py",
        "k = int(mu.bits, 2)\n",
        "k = int(mu.bits, 2) ^ 1\n",
        (
            "tests/test_nogo.py::test_construct_G_single_bit_is_bit_flip",
            "tests/test_nogo.py::test_construct_G_two_bits_swaps_blank_with_message",
        ),
    ),
    Mutant(
        "mixed-form == without its count_nonzero",
        "branchcomm/statevec.py",
        "return np.count_nonzero(dense) == len(items) and at_support ==",
        "return at_support ==",
        ("tests/test_statevec.py::test_mixed_form_fidelity_and_equality_read_the_support",),
    ),
    Mutant(
        "mixed-form fidelity summed in descending index order",
        "branchcomm/statevec.py",
        "for x, y in _common_nonzero(a, b)), 0j)",
        "for x, y in reversed(_common_nonzero(a, b))), 0j)",
        ("tests/test_statevec.py::test_mixed_form_fidelity_and_equality_read_the_support",),
    ),
    Mutant(
        "dense listed_items drops signed zeros",
        "branchcomm/statevec.py",
        "idx = np.flatnonzero(bits[0::2] | bits[1::2])",
        "idx = np.flatnonzero(self._dense)",
        (
            "tests/test_statevec.py::test_listed_items_keep_signed_zeros",
            "tests/test_cli.py::test_run_document_keeps_signed_zeros_and_both_ends[True]",
        ),
    ),
    Mutant(
        "validation remembered regardless of width",
        "branchcomm/statevec.py",
        "if total not in self._valid_for:",
        "if not self._valid_for:",
        ("tests/test_statevec.py::test_gateop_remembers_only_passed_validation_per_width",),
    ),
    Mutant(
        "support-held H written as a0 * SQRT_HALF + a1 * SQRT_HALF",
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
        "distance = cmask.bit_length() - fmask.bit_length()",
        "distance = fmask.bit_length() - cmask.bit_length()",
        (
            "tests/test_statevec.py::test_folded_transversal_cnot_matches_pair_by_pair",
            "tests/test_acceptance.py::test_criterion_2_checkpoint_sweep",
        ),
    ),
    Mutant(
        "Circuit marks an op it has not seen as valid without checking it",
        "branchcomm/statevec.py",
        "            op.validate(self.layout)\n",
        "            op._valid_for.add(self.layout.total_qubits)\n",
        (
            "tests/test_statevec.py::test_circuit_checks_each_op_not_yet_valid_for_its_width",
            "tests/test_protocol.py::test_circuits_over_shared_ops_still_validate_their_fresh_ops",
        ),
    ),
    Mutant(
        "a derived op takes on its template's widths without checking its parameter",
        "branchcomm/statevec.py",
        "        op._check_parameter()\n",
        "",
        ("tests/test_protocol.py::test_circuits_over_shared_ops_still_validate_their_fresh_ops",),
    ),
    Mutant(
        "StateVector repr names the other held form",
        "branchcomm/statevec.py",
        'form = "support" if self._support is not None else "amplitudes"',
        'form = "support" if self._support is None else "amplitudes"',
        ("tests/test_statevec.py::test_repr_names_the_held_form",),
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
        "dense branch indices rebuilt one bit too low",
        "branchcomm/branches.py",
        "indices = ((pos >> shift) << high) |",
        "indices = ((pos >> shift) << (high - 1)) |",
        ("tests/test_branches.py::test_dense_and_support_held_states_decompose_alike",),
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
        "    try:\n        check_dense_limit(run.final.layout)\n"
        "    except ValueError as exc:  # too wide to write out densely\n"
        "        raise _UsageError(str(exc)) from None\n",
        "",
        ("tests/test_cli.py::test_run_past_the_dense_limit_exits_1",),
    ),
)


def _pytest(src: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *tests,
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout.decode(errors="replace"))
    return done.returncode


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
        code = _pytest(src, named)
        if code != 0:
            print(f"BAD  the named tests exit {code} on the unmutated source")
            return 1
        for mutant in MUTANTS:
            target = src / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.original, mutant.replacement))
            try:
                code = _pytest(src, mutant.tests)
            finally:
                target.write_text(original)
            killed = code == 1
            problems += not killed
            print(f"{'ok  ' if killed else 'LIVE'} {mutant.name} (pytest exit {code})")
    print(f"{len(MUTANTS)} mutants, {problems} problems, {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
