"""The CLI's output bytes, pinned.

Each case runs one invocation through cli.main and compares the first 16
hex digits of the SHA-256 of its stdout, its stderr and its -o file, and
its exit code, with the values recorded when the case was added. A change
that is meant to leave every output as it was must keep these.

Left out: `verify`, whose samples come from numpy's Generator, whose
streams numpy does not promise to keep across versions; and RY preparations
other than +-0.0, whose bytes depend on the platform's cos, sin and atan2.
"""

import hashlib

import pytest

from branchcomm.cli import main

OUTPUT = "out.data"  # stands for the -o path, made under tmp_path

# name: (argv, (exit code, stdout, stderr, -o file or None))
CASES = {
    "run n=1": (
        ("run", "--message", "1"),
        (0, "314bfa16ee1d95e9", "5c7af56f735c8fd0", None),
    ),
    "run n=2": (
        ("run", "--message", "10"),
        (0, "cf7322e1d1f69d10", "470d05756a8e7c0e", None),
    ),
    "run n=3": (
        ("run", "--message", "101"),
        (0, "ab68222f7daf262a", "22e92d17af29e4d8", None),
    ),
    "run n=4": (
        ("run", "--message", "0110"),
        (0, "3f184fbdf3343211", "a25e408a548f88d0", None),
    ),
    "run n=5": (
        ("run", "--message", "10110"),
        (0, "e0bd1c393dd19977", "f7e7aeca602eece2", None),
    ),
    "run --no-uncompute": (
        ("run", "--message", "101", "--no-uncompute"),
        (2, "9dd66fc67b68440a", "238a344246a8c53d", None),
    ),
    "run --no-swap": (
        ("run", "--message", "011", "--no-swap"),
        (0, "ad8ba5b5202b5b18", "0dfb5a9fce6a017e", None),
    ),
    "run -o": (
        ("run", "--message", "1101", "-o", OUTPUT),
        (0, "e3b0c44298fc1c14", "8ac91329b35ca756", "308b4eeb56abc25f"),
    ),
    "run amp1 -0.0": (
        ("run", "--message", "11", "--amp0", "1", "--amp1=-0.0"),
        (1, "e3b0c44298fc1c14", "99e96facce048e52", None),
    ),
    "export qasm": (
        ("export", "--message", "101"),
        (0, "f45c87b2ee324ff8", "0ae2086aa21012ee", None),
    ),
    "export --measure": (
        ("export", "--message", "1001", "--measure"),
        (0, "8efc0e87a418beeb", "0ae2086aa21012ee", None),
    ),
    "export --measure -o": (
        ("export", "--message", "01", "--measure", "-o", OUTPUT),
        (0, "e3b0c44298fc1c14", "0ae2086aa21012ee", "fa7f7e953e82a470"),
    ),
    "export json": (
        ("export", "--message", "101", "--format", "json"),
        (0, "e8f7d8f1c565cbe5", "0ae2086aa21012ee", None),
    ),
    "export json amp1 -0.0": (
        ("export", "--message", "10", "--amp0", "1", "--amp1=-0.0", "--format", "json"),
        (0, "3b9906665722352b", "0ae2086aa21012ee", None),
    ),
    "export qasm refuses RY": (
        ("export", "--message", "10", "--amp0", "0.6", "--amp1", "0.8"),
        (1, "e3b0c44298fc1c14", "0c6d9671b9c54ddd", None),
    ),
    "run n=9 too wide": (
        ("run", "--message", "101101101"),
        (1, "e3b0c44298fc1c14", "f895938dcf7567bb", None),
    ),
    "swap-synth": (
        ("swap-synth", "0110", "0101"),
        (0, "75ee980227e012d4", "e3b0c44298fc1c14", None),
    ),
    "swap-synth mismatched": (
        ("swap-synth", "01", "011"),
        (1, "e3b0c44298fc1c14", "3fb068b33b8cbd35", None),
    ),
    "run --message 12": (
        ("run", "--message", "12"),
        (1, "e3b0c44298fc1c14", "3697fe5c088e28a0", None),
    ),
    "run --n mismatch": (
        ("run", "--message", "101", "--n", "4"),
        (1, "e3b0c44298fc1c14", "cdc547bb0e30a89d", None),
    ),
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def invoke(capsys, tmp_path, argv):
    """(exit code, stdout, stderr, -o file or None) digests of one invocation."""
    path = tmp_path / OUTPUT
    argv = [str(path) if arg == OUTPUT else arg for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    written = digest(path.read_bytes()) if path.exists() else None
    return code, digest(captured.out.encode()), digest(captured.err.encode()), written


@pytest.mark.parametrize("name", CASES)
def test_cli_output_bytes_are_pinned(capsys, tmp_path, name):
    argv, expected = CASES[name]
    assert invoke(capsys, tmp_path, argv) == expected
