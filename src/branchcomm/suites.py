"""Named verification suites over the protocol, no-go, and swap modules.

Each suite returns ClaimReports with measured tolerances so callers can
render pass/fail lines or serialize the evidence. Suite names are stable
CLI identifiers.

Every input a suite checks is enumerated, never drawn, so the same cases
are checked under every numpy version (numpy does not keep its random
streams stable); this module imports no numpy. theorem1 checks every
message up to n = 3 and 12 per width for n = 4..8, blank to all-ones;
lemma1 every nonblank value up to n = 4 and 10 from 1 to 2^n - 1 at n = 5
and 6; corollary2 20 preparations (cos phi, sin phi), phi evenly spaced
over [0.05, pi/2 - 0.05], while n and the message value cycle.
"""

from __future__ import annotations

import math

from .branches import verify_transfer
from .nogo import (
    ClaimReport,
    memory_swap_report,
    run_no_uncompute_variant,
    verify_amplitude_immutability,
    witness_mu_dependence,
)
from .protocol import (
    Message,
    ProtocolConfig,
    build_protocol_circuit,
    checkpoint_reference_state,
    run_protocol,
)
from .statevec import GateKind, fidelity

SUITE_NAMES = ("theorem1", "corollary1", "lemma1", "corollary2")

_EXHAUSTIVE_MAX_N = 3
_SAMPLED_NS = (4, 5, 6, 7, 8)
_SAMPLES_PER_N = 12
_MU_INDEPENDENCE_MAX_N = 4
_COROLLARY1_MAX_N = 3
_PREPARATIONS = 20


def _spread(low: int, high: int, count: int) -> list[int]:
    """`count` evenly spaced integers from `low` to `high`, both included."""
    return [low + (high - low) * i // (count - 1) for i in range(count)]


def _messages(n: int, values: range | list[int]) -> list[Message]:
    """The n-bit messages whose integer values are listed, in that order."""
    return [Message(format(value, f"0{n}b")) for value in values]


def _transfer_report() -> ClaimReport:
    exhaustive = [m for n in range(1, _EXHAUSTIVE_MAX_N + 1) for m in _messages(n, range(1 << n))]
    sampled = [
        m for n in _SAMPLED_NS
        for m in _messages(n, _spread(0, (1 << n) - 1, _SAMPLES_PER_N))
    ]
    failures: list[str] = []
    for message in exhaustive + sampled:
        run = run_protocol(ProtocolConfig(n=message.n), message)
        verdict = verify_transfer(run, message)
        if not verdict.success:
            failures.append(
                f"n={message.n} mu={message.bits}: {verdict.failure_reason}"
            )
    return ClaimReport(
        claim=(
            "the transfer protocol delivers every message to the receiving "
            "branch with records and memory cleared"
        ),
        parameters={
            "exhaustive_max_n": _EXHAUSTIVE_MAX_N,
            "sampled_ns": list(_SAMPLED_NS),
            "samples_per_n": _SAMPLES_PER_N,
        },
        measurements={
            "checked_exhaustive": len(exhaustive),
            "checked_sampled": len(sampled),
            "failures": failures,
        },
        passed=not failures,
    )


def _mu_independence_report() -> ClaimReport:
    """Every circuit op except the encoder must be bit-for-bit identical
    across all messages at a fixed width.

    Ops are compared with == to the blank-payload circuit's op at the same
    index. gate_matrix is a pure function of (op, layout), so equal ops have
    bitwise-equal matrices: this is at least as strict as comparing them.
    Acceptance criterion 3 compares the matrices of the independent
    Kronecker-product oracle in tests/helpers.py.
    """
    compared = 0
    mismatches: list[str] = []
    for n in range(1, _MU_INDEPENDENCE_MAX_N + 1):
        config = ProtocolConfig(n=n)
        base = build_protocol_circuit(config).ops
        for message in _messages(n, range(1 << n)):
            ops = build_protocol_circuit(config, message).ops
            if len(ops) != len(base):
                mismatches.append(f"n={n} mu={message.bits}: op count changed")
                continue
            for i, (op, base_op) in enumerate(zip(ops, base)):
                if op.kind is GateKind.ENCODE_MU:
                    continue
                compared += 1
                if op != base_op:
                    mismatches.append(f"n={n} mu={message.bits} op={i}")
    return ClaimReport(
        claim=(
            "the global observer's operations are message-independent: every "
            "non-encoder gate matrix is bitwise identical across messages"
        ),
        parameters={"max_n": _MU_INDEPENDENCE_MAX_N},
        measurements={"matrices_compared": compared, "mismatches": mismatches},
        passed=not mismatches,
    )


def theorem1_suite() -> list[ClaimReport]:
    return [_transfer_report(), _mu_independence_report()]


def corollary1_suite() -> list[ClaimReport]:
    checked = 0
    min_fidelity = 1.0
    failures: list[str] = []
    for n in range(1, _COROLLARY1_MAX_N + 1):
        for message in _messages(n, range(1, 1 << n)):
            final, verdict = run_no_uncompute_variant(message)
            checked += 1
            reference = checkpoint_reference_state(
                "eq8", ProtocolConfig(n=n, uncompute_memory=False), message
            )
            fid = fidelity(final, reference)
            min_fidelity = min(min_fidelity, fid)
            if fid < 1.0 - 1e-12:
                failures.append(f"n={n} mu={message.bits}: state fidelity {fid}")
            if verdict.success:
                failures.append(f"n={n} mu={message.bits}: verdict unexpectedly passed")
            elif not verdict.failure_reason.startswith("cross-branch memory"):
                failures.append(
                    f"n={n} mu={message.bits}: wrong reason {verdict.failure_reason!r}"
                )
    return [
        ClaimReport(
            claim=(
                "without the memory uncompute the receiver's memory still "
                "reads the message, so the transfer predicate fails"
            ),
            parameters={"max_n": _COROLLARY1_MAX_N},
            measurements={
                "checked": checked,
                "min_reference_fidelity": min_fidelity,
                "failures": failures,
            },
            passed=not failures,
        )
    ]


def lemma1_suite() -> list[ClaimReport]:
    reports = [witness_mu_dependence(2), witness_mu_dependence(3)]
    for n in (2, 3, 4):
        reports.append(memory_swap_report(n, range(1, 1 << n)))
    for n in (5, 6):
        reports.append(memory_swap_report(n, _spread(1, (1 << n) - 1, 10)))
    return reports


def corollary2_suite() -> list[ClaimReport]:
    reports = [
        verify_amplitude_immutability(math.sqrt(1 / 3), math.sqrt(2 / 3), Message("1"))
    ]
    max_magnitude_delta = 0.0
    max_exchange_delta = 0.0
    failures = 0
    for i in range(_PREPARATIONS):
        phi = 0.05 + (math.pi / 2 - 0.1) * i / (_PREPARATIONS - 1)
        n = 1 + i % 3
        (message,) = _messages(n, [1 + (i // 3) % ((1 << n) - 1)])
        report = verify_amplitude_immutability(math.cos(phi), math.sin(phi), message)
        max_magnitude_delta = max(
            max_magnitude_delta, report.measurements["magnitude_delta"]
        )
        max_exchange_delta = max(
            max_exchange_delta, report.measurements["exchange_delta"]
        )
        if not report.passed:
            failures += 1
    reports.append(
        ClaimReport(
            claim=(
                "randomized preparations: the swap exchanges branch weights "
                "and never alters the paper component's magnitude"
            ),
            parameters={"preparations": _PREPARATIONS},
            measurements={
                "max_magnitude_delta": max_magnitude_delta,
                "max_exchange_delta": max_exchange_delta,
                "failures": failures,
            },
            passed=failures == 0
            and max(max_magnitude_delta, max_exchange_delta) <= 1e-12,
        )
    )
    return reports


_SUITES = {
    "theorem1": theorem1_suite,
    "corollary1": corollary1_suite,
    "lemma1": lemma1_suite,
    "corollary2": corollary2_suite,
}


def run_suite(name: str) -> list[ClaimReport]:
    """Run one named suite, or all of them in order."""
    if name == "all":
        reports: list[ClaimReport] = []
        for suite_name in SUITE_NAMES:
            reports.extend(_SUITES[suite_name]())
        return reports
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return _SUITES[name]()
