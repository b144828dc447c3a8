"""Command-line front end.

Subcommands: run (simulate a transfer and emit the JSON checkpoint
document), verify (run named verification suites), swap-synth (print the
friend-swap operator for two snapshots), export (emit the protocol circuit
as QASM or JSON).

Exit codes: 0 success or all claims verified, 1 usage or I/O error,
2 transfer verdict or verification failure. Data goes to stdout or the
requested output file; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator

from .branches import (
    ZERO_TOL,
    decompose_by_register,
    register_component_magnitude,
    verify_transfer,
)
from .protocol import (
    Message,
    ProtocolConfig,
    ProtocolRun,
    build_protocol_circuit,
    run_protocol,
)
from .qasm import to_qasm
from .statevec import (
    SQRT_HALF,
    Circuit,
    GateKind,
    StateVector,
    check_dense_limit,
    protocol_layout,
)
from .suites import SUITE_NAMES, run_suite
from .swapsynth import FriendSnapshot, synthesize_swap

# Inputs farther than this from a normalized amplitude pair are rejected;
# anything closer is renormalized (with a warning when the drift is real).
NORMALIZE_LIMIT = 1e-6
WARN_LIMIT = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this CLI reserves 2 for
    # verdict failures, so usage problems exit 1 instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _normalized_amplitudes(amp0: float, amp1: float) -> tuple[float, float]:
    if amp0 < 0 or amp1 < 0 or not (math.isfinite(amp0) and math.isfinite(amp1)):
        raise _UsageError("amplitudes must be finite and non-negative")
    total = amp0 * amp0 + amp1 * amp1
    if total == 0.0:
        raise _UsageError("amplitudes cannot both be zero")
    if abs(total - 1.0) >= NORMALIZE_LIMIT:
        raise _UsageError(
            f"amplitudes are not normalized: amp0^2 + amp1^2 = {total!r}"
        )
    if abs(total - 1.0) > WARN_LIMIT:
        print(
            f"warning: renormalizing amplitudes (amp0^2 + amp1^2 = {total!r})",
            file=sys.stderr,
        )
    scale = math.sqrt(total)
    return amp0 / scale, amp1 / scale


def _protocol_inputs(args: argparse.Namespace) -> tuple[ProtocolConfig, Message]:
    """Validated configuration and message from the run/export flags."""
    try:
        message = Message(args.message)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    n = args.n if args.n is not None else message.n
    if n != message.n:
        raise _UsageError(f"--n {n} does not match message width {message.n}")
    amp0, amp1 = _normalized_amplitudes(args.amp0, args.amp1)
    config = ProtocolConfig(
        n=n,
        amp0=amp0,
        amp1=amp1,
        uncompute_memory=args.uncompute,
        apply_branch_swap=args.swap,
    )
    return config, message


# Zero entries per cached block of `,<item>` text: 70-86 KB per indent,
# whatever the width of the state.
ZERO_BLOCK_ITEMS = 1 << 11


@functools.cache
def _item_texts(indent: str) -> tuple[str, memoryview]:
    """The `,<item>` %r template of one [re, im] pair in a list opened at
    `indent`, and a read-only block of ZERO_BLOCK_ITEMS copies of it filled
    with +0.0, built once per indent."""
    pad = "\n" + indent
    item = f",{pad}  [{pad}    %r,{pad}    %r{pad}  ]"
    zeros = (item % (0.0, 0.0) * ZERO_BLOCK_ITEMS).encode("ascii")
    return item, memoryview(zeros)


def _item_chunks(state: StateVector, indent: str) -> Iterator[bytes | memoryview]:
    """The `,<item>` text of every entry of `state`, ascending index.

    Only the listed entries (StateVector.listed_items) go through the %r
    template; a run of other entries, +0.0 in both parts, is whole zero
    blocks plus one slice of a block.
    """
    item, zeros = _item_texts(indent)
    size = len(zeros) // ZERO_BLOCK_ITEMS
    start = 0
    for index, amp in sorted(state.listed_items()):
        yield from _zero_chunks(zeros, (index - start) * size)
        yield (item % (amp.real, amp.imag)).encode("ascii")
        start = index + 1
    yield from _zero_chunks(zeros, (state.dim - start) * size)


def _zero_chunks(zeros: memoryview, length: int) -> Iterator[memoryview]:
    """Chunks holding `length` bytes of `zeros` repeated end to end."""
    blocks, rest = divmod(length, len(zeros))
    yield from itertools.repeat(zeros, blocks)
    if rest:
        yield zeros[:rest]


def _pairs_json(state: StateVector, indent: str) -> Iterator[bytes | memoryview]:
    """The [re, im] pair list as json.dumps(..., indent=2) writes it when the
    list opens at `indent`, as chunks of ASCII bytes in text order.

    The chunks are the items of _item_chunks with the first item's leading
    comma dropped. Zero entries are slices of one cached block per indent,
    so the memory the chunks hold does not grow with the width of the state,
    and no dense array of the state is built.
    """
    chunks = _item_chunks(state, indent)
    yield b"["
    yield next(chunks)[1:]
    yield from chunks
    yield f"\n{indent}]".encode("ascii")


def _document_chunks(run: ProtocolRun, message: Message) -> Iterator[bytes | memoryview]:
    """The `run` document (see run_document) as chunks of ASCII bytes in
    text order, for a sink that takes them one at a time: stdout
    (_write_stdout) or an -o file (_write_chunks).

    Raises ValueError on the first step, before any chunk, when the states
    are wider than a dense state may be (STATE_QUBIT_LIMIT). That is not at
    the call, so cmd_run checks the width itself before it writes a byte or
    opens the file.
    """
    check_dense_limit(run.final.layout)
    head = json.dumps(
        {
            "config": {
                "n": run.config.n,
                "amp0": run.config.amp0,
                "amp1": run.config.amp1,
                "uncompute_memory": run.config.uncompute_memory,
                "apply_branch_swap": run.config.apply_branch_swap,
            },
            "message": message.bits,
        },
        indent=2,
    )
    yield f'{head[:-2]},\n  "checkpoints": {{'.encode("ascii")
    separator = ""
    for label, state in run.checkpoints.items():
        yield f"{separator}\n    {json.dumps(label)}: ".encode("ascii")
        yield from _pairs_json(state, "    ")
        separator = ","
    yield b'\n  },\n  "final": '
    yield from _pairs_json(run.final, "  ")
    yield b"\n}"


def run_document(run: ProtocolRun, message: Message) -> str:
    """JSON checkpoint document text: config, message, per-label amplitudes,
    final amplitudes, all in ascending global-index order.

    Byte-identical to json.dumps(document, indent=2). It is the join of the
    chunks `run` streams to stdout or its -o file (_document_chunks), so
    every route shares one producer. Raises ValueError, before any text is
    built, when the states are wider than a dense state may be
    (STATE_QUBIT_LIMIT).
    """
    return b"".join(_document_chunks(run, message)).decode("ascii")


def _open_in_place(path: str, flags: int) -> int:
    """open()'s flags for mode "wb" without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_chunks(chunks: Iterable[bytes | memoryview], output_path: str) -> None:
    """Write the chunks to output_path: the one file sink of `run -o` and
    `export -o`. Any OSError becomes a `cannot write` usage error (exit 1).

    An existing file is overwritten in place from offset 0 and then cut to
    the written length, not truncated on open: truncating a file of a few
    MB frees every block before the first byte is written, and costs
    several times what the rewrite does. After a failure the file is cut at
    the bytes that reached it, so no tail of the old file is left behind,
    and it ends as a truncating open would leave it. Only a regular file is
    cut; /dev/null, FIFOs and ttys ignore O_TRUNC and reject ftruncate.
    """
    try:
        with open(output_path, "wb", opener=_open_in_place) as handle:
            try:
                handle.writelines(chunks)
                handle.flush()
            finally:
                # At the kernel's offset; bytes still buffered after a
                # failure are flushed past the cut when the file closes.
                if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                    handle.raw.truncate()
    except OSError as exc:
        raise _UsageError(f"cannot write {output_path!r}: {exc}") from exc


def _write_stdout(chunks: Iterable[bytes | memoryview]) -> None:
    """Write the chunks, decoded, and a final newline to stdout one chunk at
    a time, so the document is never held whole."""
    out = sys.stdout
    out.writelines(str(chunk, "ascii") for chunk in chunks)
    out.write("\n")


def _emit(text: str, output_path: str | None) -> None:
    if output_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    _write_chunks((text.encode("utf-8"),), output_path)


def _circuit_summary(circuit: Circuit) -> str:
    return f"circuit: {circuit.gate_count} ops, layer depth {circuit.layer_depth}"


def cmd_run(args: argparse.Namespace) -> int:
    config, message = _protocol_inputs(args)
    # Checked here, before the protocol runs or an existing output file is
    # opened and truncated.
    try:
        check_dense_limit(protocol_layout(config.n))
    except ValueError as exc:  # too wide to write out densely
        raise _UsageError(str(exc)) from None
    run = run_protocol(config, message)
    if config.apply_branch_swap:
        # A prepared amplitude at or under ZERO_TOL leaves one branch to
        # swap: bad input, not a failed transfer. The prepared value is read,
        # since RY can round an input just above ZERO_TOL onto it.
        for bit, flag in (("0", "--amp0"), ("1", "--amp1")):
            if register_component_magnitude(run.checkpoints["eq1"], "Q", bit) <= ZERO_TOL:
                raise _UsageError(
                    f"{flag} prepares an amplitude at or under {ZERO_TOL!r}, "
                    "which leaves a single branch to transfer between"
                )
    if args.output is None:
        _write_stdout(_document_chunks(run, message))
    else:
        _write_chunks(_document_chunks(run, message), args.output)

    err = sys.stderr
    print(_circuit_summary(build_protocol_circuit(config, message)), file=err)
    print("final-state branches by room record R:", file=err)
    for branch in decompose_by_register(run.final, "R"):
        if branch.local_state is not None:
            values = " ".join(
                f"{name}={bits}" for name, bits in branch.local_state.items()
            )
        else:
            values = "(superposed component)"
        print(
            f"  R={branch.label}  |amplitude| = {abs(branch.amplitude):.6f}  {values}",
            file=err,
        )
    if not config.apply_branch_swap:
        print("verdict: skipped (branch swap disabled)", file=err)
        return 0
    verdict = verify_transfer(run, message)
    if verdict.success:
        suffix = f" [{verdict.note}]" if verdict.note else ""
        print(
            f"verdict: success, receiver paper reads '{verdict.receiver_paper}'{suffix}",
            file=err,
        )
        return 0
    print(f"verdict: FAILED, {verdict.failure_reason}", file=err)
    return 2


def cmd_verify(suite: str) -> int:
    reports = run_suite(suite)
    failures = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        detail = ", ".join(
            f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"
            for key, value in report.measurements.items()
            if isinstance(value, (int, float))
        )
        print(f"[{status}] {report.claim} ({detail})")
        if not report.passed:
            failures += 1
            for key, value in report.measurements.items():
                for entry in value if isinstance(value, list) else ():
                    print(f"  {key}: {entry}")
    print(f"suite {suite!r}: {len(reports) - failures}/{len(reports)} claims verified")
    return 0 if failures == 0 else 2


def cmd_swap_synth(friend0: str, friend1: str) -> int:
    try:
        plan = synthesize_swap(FriendSnapshot(friend0), FriendSnapshot(friend1))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"{plan.operator_string()} (cost {plan.hamming_cost})")
    return 0


def circuit_document(circuit: Circuit, message: Message) -> dict:
    return {
        "layout": [[name, width] for name, width in circuit.layout.registers],
        "message": message.bits,
        "gate_count": circuit.gate_count,
        "layer_depth": circuit.layer_depth,
        "ops": [
            {
                "kind": op.kind.value,
                "targets": list(op.targets),
                "controls": list(op.controls),
                "payload": op.payload,
                "angle": op.angle,
            }
            for op in circuit.ops
        ],
    }


def cmd_export(args: argparse.Namespace) -> int:
    config, message = _protocol_inputs(args)
    circuit = build_protocol_circuit(config, message)
    if args.format == "qasm":
        if any(op.kind is GateKind.RY for op in circuit.ops):
            print(
                "error: rotation preparation (unequal amplitudes) has no "
                "x/h/cx representation; export with --format json instead",
                file=sys.stderr,
            )
            return 1
        text = to_qasm(circuit, measure=args.measure)
    else:
        text = json.dumps(circuit_document(circuit, message), indent=2)
    _emit(text, args.output)
    print(_circuit_summary(circuit), file=sys.stderr)
    return 0


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--message", required=True, help="message bits, e.g. 101")
    parser.add_argument(
        "--n", type=int, default=None, help="message width (defaults to len(message))"
    )
    parser.add_argument(
        "--amp0", type=float, default=SQRT_HALF, help="preparation amplitude of |0>"
    )
    parser.add_argument(
        "--amp1", type=float, default=SQRT_HALF, help="preparation amplitude of |1>"
    )
    parser.add_argument(
        "--no-uncompute",
        dest="uncompute",
        action="store_false",
        help="skip the memory uncompute column",
    )
    parser.add_argument(
        "--no-swap",
        dest="swap",
        action="store_false",
        help="skip the final branch swap",
    )
    parser.add_argument("-o", "--output", default=None, help="write data to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once; parse_args returns a fresh Namespace per call."""
    parser = _Parser(
        prog="branchcomm",
        description="simulate and verify message transfer between branches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run the protocol, emit the JSON checkpoint document"
    )
    _add_protocol_flags(run_p)

    verify_p = sub.add_parser("verify", help="run named verification suites")
    verify_p.add_argument(
        "--suite",
        choices=SUITE_NAMES + ("all",),
        default="all",
        help=(
            "theorem1: transfer works for every message; corollary1: transfer "
            "needs the memory uncompute; lemma1: memory swaps are "
            "message-dependent; corollary2: branch weights survive the swap"
        ),
    )

    swap_p = sub.add_parser(
        "swap-synth", help="print the friend-swap operator for two snapshots"
    )
    swap_p.add_argument("friend0", help="snapshot of the friend in one branch")
    swap_p.add_argument("friend1", help="snapshot of the friend in the other branch")

    export_p = sub.add_parser("export", help="emit the protocol circuit")
    _add_protocol_flags(export_p)
    export_p.add_argument(
        "--format", choices=("qasm", "json"), default="qasm", help="output format"
    )
    export_p.add_argument(
        "--measure",
        action="store_true",
        help="append per-register measurements to qasm output",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "verify":
            return cmd_verify(args.suite)
        if args.command == "swap-synth":
            return cmd_swap_synth(args.friend0, args.friend1)
        if args.command == "export":
            return cmd_export(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
