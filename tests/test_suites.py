"""The inputs each claim suite checks, pinned.

The suites enumerate their inputs (no random draws), so these lists are the
whole of what `branchcomm verify` checks beyond the exhaustive ranges. Each
test records the inputs a suite hands to the function it checks them with,
and calls that function as the suite would.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from branchcomm import suites

# theorem1: 12 message values per width, from the blank message to all-ones.
THEOREM1_VALUES = {
    4: [0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 15],
    5: [0, 2, 5, 8, 11, 14, 16, 19, 22, 25, 28, 31],
    6: [0, 5, 11, 17, 22, 28, 34, 40, 45, 51, 57, 63],
    7: [0, 11, 23, 34, 46, 57, 69, 80, 92, 103, 115, 127],
    8: [0, 23, 46, 69, 92, 115, 139, 162, 185, 208, 231, 255],
}

# lemma1: every nonblank value up to n = 4, then 10 values from 1 to 2^n - 1.
LEMMA1_VALUES = [
    (2, list(range(1, 4))),
    (3, list(range(1, 8))),
    (4, list(range(1, 16))),
    (5, [1, 4, 7, 11, 14, 17, 21, 24, 27, 31]),
    (6, [1, 7, 14, 21, 28, 35, 42, 49, 56, 63]),
]

# corollary2: the messages of the 20 preparations after the fixed first one.
COROLLARY2_MESSAGES = [
    "1", "01", "001", "1", "10", "010", "1", "11", "011", "1",
    "01", "100", "1", "10", "101", "1", "11", "110", "1", "01",
]


def _recording(monkeypatch, name):
    """Replace suites.<name> with a wrapper that lists its arguments."""
    calls = []
    real = getattr(suites, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(suites, name, record)
    return calls


def test_theorem1_checks_the_pinned_messages(monkeypatch):
    calls = _recording(monkeypatch, "run_protocol")
    [report, _] = suites.theorem1_suite()
    assert report.passed
    checked = [message.bits for _, message in calls]
    exhaustive = [format(v, f"0{n}b") for n in (1, 2, 3) for v in range(1 << n)]
    sampled = [
        format(v, f"0{n}b") for n, values in THEOREM1_VALUES.items() for v in values
    ]
    assert checked == exhaustive + sampled
    assert len(exhaustive) == 14 and len(sampled) == 60
    for n in THEOREM1_VALUES:
        assert "0" * n in sampled and "1" * n in sampled


def test_lemma1_checks_the_pinned_values(monkeypatch):
    calls = _recording(monkeypatch, "memory_swap_report")
    assert all(report.passed for report in suites.lemma1_suite())
    assert [(n, list(values)) for n, values in calls] == LEMMA1_VALUES


def test_corollary2_checks_the_pinned_preparations(monkeypatch):
    calls = _recording(monkeypatch, "verify_amplitude_immutability")
    assert all(report.passed for report in suites.corollary2_suite())
    (amp0, amp1, first), *swept = calls
    assert (amp0, amp1, first.bits) == (math.sqrt(1 / 3), math.sqrt(2 / 3), "1")
    assert [message.bits for _, _, message in swept] == COROLLARY2_MESSAGES
    # phi runs evenly from 0.05 to pi/2 - 0.05, both ends included.
    phis = [math.atan2(amp1, amp0) for amp0, amp1, _ in swept]
    step = (math.pi / 2 - 0.1) / 19
    assert phis[0] == pytest.approx(0.05, abs=1e-12)
    assert phis[-1] == pytest.approx(math.pi / 2 - 0.05, abs=1e-12)
    for low, high in zip(phis, phis[1:]):
        assert high - low == pytest.approx(step, abs=1e-12)


def test_verify_loads_no_numpy_random():
    """A fresh `branchcomm verify` process draws nothing, so it never
    imports numpy's random streams."""
    src = Path(suites.__file__).resolve().parents[1]
    child = (
        "import contextlib, io, sys\n"
        "from branchcomm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    assert done.stdout.split() == ["0", "False"]
