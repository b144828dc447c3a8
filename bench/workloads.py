"""The three benchmark workloads.

Each workload draws its inputs from a seeded generator, runs one op per
input through branchcomm's public API, and checks the op's output against
an expectation the benchmark computes itself. `check` returns None when the
output is right and a one-line description of the first problem otherwise.
`corruptions` derives deliberately wrong expectations from an input, so the
self-test can confirm that `check` rejects them.

The program is passed in as the imported `branchcomm` package and every
call goes through an attribute lookup on it at call time, so the tracer's
patched names are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

FIDELITY_TOL = 1e-12
AMPLITUDE_TOL = 1e-12


def _flip_bit(bits: str, position: int = 0) -> str:
    flipped = "1" if bits[position] == "0" else "0"
    return bits[:position] + flipped + bits[position + 1 :]


def _random_bits(rng: np.random.Generator, width: int) -> str:
    return format(int(rng.integers(0, 1 << width)), f"0{width}b")


def closed_form_eq8(message: str, amp0: float, amp1: float) -> np.ndarray:
    """Post-swap state on Q(1) R(1) F(1) M(n) P(n), built from the index
    convention alone: amp0 on Q=R=F=1 with blank M and P, amp1 on blank
    Q, R, F, M with P = message."""
    n = len(message)
    amps = np.zeros(1 << (3 + 2 * n), dtype=np.complex128)
    amps[0b111 << (2 * n)] = amp0
    amps[int(message, 2)] = amp1
    return amps


def hamming_positions(friend0: str, friend1: str) -> list[int]:
    return [i + 1 for i, (a, b) in enumerate(zip(friend0, friend1)) if a != b]


# ---------------------------------------------------------------------------
# transfer_wide


@dataclass(frozen=True)
class TransferInput:
    message: str
    amp0: float
    amp1: float


class TransferWide:
    """run_protocol then verify_transfer at n=8 (19 qubits, 8 MiB per vector)."""

    name = "transfer_wide"
    n = 8
    pool_size = 8

    def __init__(self, bc, work_dir: Path) -> None:
        self.bc = bc

    def make_inputs(self, rng: np.random.Generator) -> list[TransferInput]:
        items = []
        while len(items) < self.pool_size:
            phi = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            amp0, amp1 = math.cos(phi), math.sin(phi)
            if abs(amp0 - amp1) <= 1e-9:  # equal amplitudes would select H, not RY
                continue
            items.append(TransferInput(_random_bits(rng, self.n), amp0, amp1))
        return items

    def _config(self, item: TransferInput):
        return self.bc.ProtocolConfig(n=self.n, amp0=item.amp0, amp1=item.amp1)

    def op(self, item: TransferInput):
        bc = self.bc
        message = bc.Message(item.message)
        run = bc.run_protocol(self._config(item), message)
        return run, bc.verify_transfer(run, message)

    def check(self, output, item: TransferInput) -> str | None:
        run, verdict = output
        if not verdict.success:
            return f"verdict failed: {verdict.failure_reason}"
        if verdict.receiver_paper != item.message:
            return f"receiver paper {verdict.receiver_paper!r} != message {item.message!r}"
        reference = self.bc.checkpoint_reference_state(
            "eq8", self._config(item), self.bc.Message(item.message)
        )
        fid = self.bc.fidelity(run.final, reference)
        if abs(fid - 1.0) > FIDELITY_TOL:
            return f"final state fidelity {fid!r} with the eq8 reference"
        return None

    def corruptions(self, item: TransferInput) -> list[tuple[str, TransferInput]]:
        return [("flipped message bit", replace(item, message=_flip_bit(item.message)))]


# ---------------------------------------------------------------------------
# claim_suites


@dataclass(frozen=True)
class SuitesExpectation:
    exit_code: int = 0
    summary: str = "12/12 claims verified"


class ClaimSuites:
    """`branchcomm verify`: all four claim suites in one pass."""

    name = "claim_suites"

    def __init__(self, bc, work_dir: Path) -> None:
        self.bc = bc

    def make_inputs(self, rng: np.random.Generator) -> list[SuitesExpectation]:
        # The suites draw their samples from their own fixed seed.
        return [SuitesExpectation()]

    def op(self, item: SuitesExpectation):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.bc.cli.main(["verify"])
        return code, out.getvalue()

    def check(self, output, item: SuitesExpectation) -> str | None:
        code, text = output
        if code != item.exit_code:
            return f"exit code {code} != {item.exit_code}"
        lines = text.strip().splitlines()
        last = lines[-1] if lines else ""
        if not last.endswith(f" {item.summary}"):
            return f"summary line {last!r} does not end with {item.summary!r}"
        return None

    def corruptions(self, item: SuitesExpectation) -> list[tuple[str, SuitesExpectation]]:
        return [
            ("wrong claim count", replace(item, summary="11/12 claims verified")),
            ("wrong exit code", replace(item, exit_code=2)),
        ]


# ---------------------------------------------------------------------------
# cli_roundtrip


@dataclass(frozen=True)
class RoundtripInput:
    message: str
    friend0: str
    friend1: str


@dataclass(frozen=True)
class RoundtripOutput:
    run_code: int
    export_code: int
    swap_code: int
    resimulated: object  # branchcomm.StateVector
    swap_text: str


class CliRoundtrip:
    """`run` to a JSON file, `export` to QASM and re-simulate, `swap-synth`."""

    name = "cli_roundtrip"
    n = 5
    snapshot_width = 10
    pool_size = 4

    def __init__(self, bc, work_dir: Path) -> None:
        self.bc = bc
        self.json_path = work_dir / "run.json"
        self.qasm_path = work_dir / "circuit.qasm"

    def make_inputs(self, rng: np.random.Generator) -> list[RoundtripInput]:
        return [
            RoundtripInput(
                _random_bits(rng, self.n),
                _random_bits(rng, self.snapshot_width),
                _random_bits(rng, self.snapshot_width),
            )
            for _ in range(self.pool_size)
        ]

    def op(self, item: RoundtripInput) -> RoundtripOutput:
        cli = self.bc.cli
        diagnostics, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(diagnostics):
            run_code = cli.main(["run", "--message", item.message, "-o", str(self.json_path)])
            export_code = cli.main(
                ["export", "--message", item.message, "-o", str(self.qasm_path)]
            )
            resimulated = self.bc.simulate_qasm(self.qasm_path.read_text(encoding="utf-8"))
            with contextlib.redirect_stdout(out):
                swap_code = cli.main(["swap-synth", item.friend0, item.friend1])
        return RoundtripOutput(run_code, export_code, swap_code, resimulated, out.getvalue())

    def check(self, output: RoundtripOutput, item: RoundtripInput) -> str | None:
        codes = (output.run_code, output.export_code, output.swap_code)
        if codes != (0, 0, 0):
            return f"exit codes run/export/swap-synth = {codes}"

        doc = json.loads(self.json_path.read_text(encoding="utf-8"))
        labels = list(doc["checkpoints"])
        if labels != list(self.bc.protocol.CHECKPOINT_LABELS):
            return f"checkpoint labels {labels}"
        expected = closed_form_eq8(item.message, math.sqrt(0.5), math.sqrt(0.5))
        final = np.asarray(doc["final"], dtype=np.float64)
        if final.shape != (expected.shape[0], 2):
            return f"final array has shape {final.shape}"
        drift = float(np.max(np.abs(final[:, 0] + 1j * final[:, 1] - expected)))
        if drift > AMPLITUDE_TOL:
            return f"final array differs from the closed-form eq8 state by {drift!r}"

        resim = output.resimulated.amplitudes
        if resim.shape != expected.shape:
            return f"re-simulated state has shape {resim.shape}"
        fid = float(abs(np.vdot(expected, resim)) ** 2)
        if abs(fid - 1.0) > FIDELITY_TOL:
            return f"re-simulated QASM has fidelity {fid!r} with the eq8 state"

        head = output.swap_text.strip().split(" (cost ")[0]
        positions = [] if head == "identity" else [int(t[2:]) for t in head.split()]
        want = hamming_positions(item.friend0, item.friend1)
        if positions != want:
            return f"swap-synth positions {positions} != Hamming positions {want}"
        return None

    def corruptions(self, item: RoundtripInput) -> list[tuple[str, RoundtripInput]]:
        return [
            ("flipped message bit", replace(item, message=_flip_bit(item.message))),
            ("flipped snapshot bit", replace(item, friend1=_flip_bit(item.friend1))),
        ]


WORKLOADS = {w.name: w for w in (TransferWide, ClaimSuites, CliRoundtrip)}
