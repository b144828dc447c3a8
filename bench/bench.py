#!/usr/bin/env python3
"""branchcomm benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 bench/bench.py --workload transfer_wide --seed 1 --seconds 30 --trace 0

The program is imported from ./src, never from an installed copy. Inputs
come from --seed; the next op starts only after the previous one has
finished and been checked. Every op's output is checked, and a wrong output
or an exception counts as a failed op without stopping the run.

--trace 0 reports the end-to-end metrics. --trace 1 runs the loop untraced
and then traced, each for half of --seconds, and reports the per-layer metrics from
the traced half plus the tracing overhead. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The lines above
it, and .bench_out/results-*.json, carry the run environment, sample counts
and the first failures. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("transfer_wide", "claim_suites", "cli_roundtrip")
# set-ups per run: this process, then fresh child processes until there are
# at least SETUP_MIN_SAMPLES and SETUP_MIN_TOTAL_S of set-up, or SETUP_MAX_SAMPLES
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_MIN_TOTAL_S = 3.0
SETUP_CHILD_TIMEOUT_S = 120
P90_MIN_OPS = 100
GATE_PROBE_N = 8  # protocol layout with an 8-bit message: 19 qubits
GATE_PROBE_REPEATS = 5
MAX_REPORTED_FAILURES = 20


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use. Must run
    before numpy is imported."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)
    return min(int(os.environ["OPENBLAS_NUM_THREADS"]), cap)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_program():
    package_dir = SRC / "branchcomm"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no branchcomm sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import branchcomm
    import branchcomm.cli  # noqa: F401  (not imported by the package itself)

    if Path(branchcomm.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported branchcomm from {branchcomm.__file__}, not {package_dir}")
    return branchcomm


# ---------------------------------------------------------------------------
# running ops


@dataclass
class LoopResult:
    latencies_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def completed(self) -> int:
        return self.attempted - len(self.failures)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies_s) * 1000.0


def attempt(workload, item, recording=None) -> tuple[float, float, str | None]:
    """Run one op and check it. Returns (op seconds, check seconds, problem)."""
    start = time.perf_counter()
    try:
        with recording if recording is not None else contextlib.nullcontext():
            output = workload.op(item)
    except Exception as exc:  # a failed op is counted, not fatal
        return time.perf_counter() - start, 0.0, f"op raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    check_start = time.perf_counter()
    try:
        problem = workload.check(output, item)
    except Exception as exc:
        problem = f"check raised {type(exc).__name__}: {exc}"
    return latency, time.perf_counter() - check_start, problem


def run_loop(workload, pool, seconds: float, tracer=None) -> LoopResult:
    """Closed loop over whole passes of the input pool until `seconds` have
    passed. Wall time excludes the benchmark's own output checks."""
    result = LoopResult()
    checking = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for item in pool:
            recording = tracer.recording(result.attempted) if tracer is not None else None
            latency, check_s, problem = attempt(workload, item, recording=recording)
            result.latencies_s.append(latency)
            checking += check_s
            if problem is not None:
                result.failures.append(f"op {result.attempted - 1}: {problem}")
    result.wall_s = time.perf_counter() - start - checking
    return result


@dataclass
class Prepared:
    bc: object
    workload: object
    pool: list
    setup_s: float
    warmup_problem: str | None


def prepare(name: str, seed: int, work_dir: Path) -> Prepared:
    """Set-up as timed by setup_s: import, input generation, one warm-up op."""
    start = time.perf_counter()
    bc = import_program()
    import numpy as np

    from workloads import WORKLOADS

    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](bc, work_dir)
    pool = workload.make_inputs(np.random.default_rng(seed))
    _, _, problem = attempt(workload, pool[0])
    return Prepared(bc, workload, pool, time.perf_counter() - start, problem)


def setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(setup_samples: list[float], loop: LoopResult) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (loop.completed / loop.wall_s, "1/s"),
        "op_ms_p50": (loop.p50_ms(), "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


# Span metrics, per traced op. The span is the name before the last dot; the
# suffix picks the value: .ms and .s inclusive time, .self_ms self time,
# .calls and .constructions the number of spans.
SPAN_METRICS = (
    "statevec.apply_circuit.self_ms",
    "statevec.StateVector.ms",
    "statevec.StateVector.constructions",
    "statevec.gate_matrix.ms",
    "statevec.gate_matrix.calls",
    "protocol.build_protocol_circuit.ms",
    "protocol.run_protocol.self_ms",
    "branches.decompose_by_register.ms",
    "branches.evaluate_transfer.self_ms",
    "branches.register_component_magnitude.ms",
    "nogo.construct_G.ms",
    "nogo.witness_mu_dependence.ms",
    "nogo.verify_amplitude_immutability.ms",
    "nogo.run_no_uncompute_variant.ms",
    "suites.theorem1.s",
    "suites.corollary1.s",
    "suites.lemma1.s",
    "suites.corollary2.s",
    "cli.main.self_ms",
    "cli.run_document.ms",
    "qasm.to_qasm.ms",
    "qasm.simulate_qasm.ms",
    "swapsynth.synthesize_swap.ms",
)
SPAN_SUFFIXES = {  # suffix -> (Tracer.totals field, scale, unit)
    "ms": ("ns", 1e-6, "ms"),
    "s": ("ns", 1e-9, "s"),
    "self_ms": ("self_ns", 1e-6, "ms"),
    "calls": ("calls", 1, "count"),
    "constructions": ("calls", 1, "count"),
}


def layer_metrics(tracer, ops: int) -> dict:
    from tracer import GATE_KINDS

    totals = tracer.totals()
    metrics = {}
    for metric in SPAN_METRICS:
        span, suffix = metric.rsplit(".", 1)
        key, scale, unit = SPAN_SUFFIXES[suffix]
        metrics[metric] = (totals.get(span, {}).get(key, 0) * scale / ops, unit)
    counters = [("statevec.gates_applied", "count")]
    counters += [(f"statevec.gates_applied.{kind}", "count") for kind in GATE_KINDS]
    counters += [("statevec.bytes_moved_computed", "B"), ("cli.bytes_written", "B")]
    for name, unit in counters:
        metrics[name] = (tracer.counts[name] / ops, unit)
    return metrics


def gate_probe_metrics(bc, seed: int) -> dict:
    """apply_gate once per gate kind on a fixed random 19-qubit state;
    median of GATE_PROBE_REPEATS, untraced."""
    import numpy as np

    from tracer import GATE_KINDS

    rng = np.random.default_rng(seed)
    layout = bc.protocol_layout(GATE_PROBE_N)
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    state = bc.StateVector(layout, amps / np.linalg.norm(amps))
    q, r, f = layout.offset("Q"), layout.offset("R"), layout.offset("F")
    m, p = layout.qubits("M"), layout.qubits("P")
    payload = format(int(rng.integers(1, 1 << GATE_PROBE_N)), f"0{GATE_PROBE_N}b")
    G = bc.GateOp
    ops = {
        "X": G.x(q),
        "H": G.h(q),
        "RY": G.ry(float(rng.uniform(0.1, 3.0)), q),
        "CNOT": G.cnot(q, f),
        "MULTI_X": G.multi_x((q, r, f)),
        "ENCODE_MU": G.encode(payload, m, control=f),
        "TRANSVERSAL_CNOT": G.transversal_cnot(m, p),
    }
    metrics = {}
    for kind in GATE_KINDS:
        times = []
        for _ in range(GATE_PROBE_REPEATS):
            start = time.perf_counter()
            bc.apply_gate(state, ops[kind])
            times.append(time.perf_counter() - start)
        metrics[f"statevec.gate.{kind}.ms"] = (statistics.median(times) * 1000.0, "ms")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int, blas_cap: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "blas_thread_cap": blas_cap,
        "seed": seed,
    }


def report(args, env: dict, metrics: dict, samples: dict, extra: dict,
           attempted: int, failures: list[str], latencies_s: list[float]) -> dict:
    failed = len(failures)
    print(f"branchcomm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:44s} {value:16.6f} {unit}{note}")
    for name, text in extra.items():
        print(f"  {name:44s} {text}")
    print(f"  {'failed_frac':44s} {failed / attempted:16.6f} (failed {failed} of {attempted})")
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"  FAILED {line}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "samples": samples, "extra": extra,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "op_latencies_ms": [t * 1000.0 for t in latencies_s], **result,
    }
    path = OUT_DIR / f"results-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    return result


def measure(args, blas_cap: int, work_dir: Path) -> dict:
    prepared = prepare(args.workload, args.seed, work_dir)
    workload, pool = prepared.workload, prepared.pool
    failures = [] if prepared.warmup_problem is None else [f"warm-up: {prepared.warmup_problem}"]
    env = environment(args.seed, blas_cap)
    # a traced run splits its time between an untraced and a traced loop
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = run_loop(workload, pool, loop_seconds)
    failures += untraced.failures
    attempted = 1 + untraced.attempted
    extra = {}

    if not args.trace:
        setup_samples = [prepared.setup_s]
        while len(setup_samples) < SETUP_MAX_SAMPLES and (
            len(setup_samples) < SETUP_MIN_SAMPLES or sum(setup_samples) < SETUP_MIN_TOTAL_S
        ):
            setup_samples.append(setup_in_fresh_process(args.workload, args.seed))
        metrics = end_to_end_metrics(setup_samples, untraced)
        samples = {"setup_s": len(setup_samples), "ops_per_s": untraced.completed,
                   "op_ms_p50": untraced.attempted, "peak_rss_mib": "whole process"}
        extra["setup_samples_s"] = " ".join(f"{t:.4f}" for t in setup_samples)
        if untraced.attempted >= P90_MIN_OPS:
            p90 = statistics.quantiles(untraced.latencies_s, n=10, method="inclusive")[-1]
            extra["op_ms_p90"] = f"{p90 * 1000.0:16.6f} ms  (n={untraced.attempted})"
        else:
            extra["op_ms_p90"] = (f"{'':16s} not reported: {untraced.attempted} ops "
                                  f"< {P90_MIN_OPS}")
        return report(args, env, metrics, samples, extra, attempted, failures,
                      untraced.latencies_s)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, pool, loop_seconds, tracer)
    finally:
        tracer.uninstall()
    failures += traced.failures
    attempted += traced.attempted
    metrics = layer_metrics(tracer, traced.attempted)
    metrics.update(gate_probe_metrics(prepared.bc, args.seed))
    metrics["trace_overhead_frac"] = (traced.p50_ms() / untraced.p50_ms() - 1.0, "frac")
    metrics["trace.ops"] = (float(traced.attempted), "count")
    samples = {name: traced.attempted for name in metrics}
    samples.update({name: GATE_PROBE_REPEATS for name in metrics if name.startswith("statevec.gate.")})
    samples["trace_overhead_frac"] = f"{traced.attempted} traced, {untraced.attempted} untraced"
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    extra["spans"] = f"{len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"
    return report(args, env, metrics, samples, extra, attempted, failures,
                  untraced.latencies_s + traced.latencies_s)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas_cap = cap_blas_threads()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.setup_only:
            prepared = prepare(args.workload, args.seed, work_dir)
            if prepared.warmup_problem is not None:
                raise BenchError(f"warm-up op failed: {prepared.warmup_problem}")
            print(json.dumps({"setup_s": prepared.setup_s}))
            return 0
        result = measure(args, blas_cap, work_dir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
