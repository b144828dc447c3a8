#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 bench/selftest.py

For each workload it runs a few ops and requires that none fails, then
runs the same ops against deliberately wrong expectations (a flipped
message bit, a wrong claim count, ...) and requires that every one of them
is counted as a failed op. It also checks that an op raising an exception
is counted rather than fatal, that the tracer restores every patched name,
that the metric names match BENCHMARK.json, and that the benchmark refuses
to run, without printing a result, where no program sources exist.
Takes about half a minute; exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import bench

bench.cap_blas_threads()

from tracer import Tracer  # noqa: E402  (after the BLAS cap, before numpy)

problems: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        problems.append(what)


class Miswired:
    """A workload whose outputs are checked against a wrong expectation."""

    def __init__(self, workload, corruption: int = 0, raises: bool = False) -> None:
        self.inner, self.corruption, self.raises = workload, corruption, raises

    def op(self, item):
        if self.raises:
            raise RuntimeError("injected failure")
        return self.inner.op(item)

    def check(self, output, item):
        return self.inner.check(output, self.inner.corruptions(item)[self.corruption][1])


def check_workload(name: str, work_dir) -> None:
    prepared = bench.prepare(name, seed=7, work_dir=work_dir / name)
    workload, pool = prepared.workload, prepared.pool
    expect(prepared.warmup_problem is None, f"{name}: warm-up op is correct")

    ops = pool[:2]
    loop = bench.run_loop(workload, ops, seconds=1e-3)
    expect(loop.attempted == len(ops) and not loop.failures,
           f"{name}: {loop.attempted} ops, failures {loop.failures}")

    for index, (what, _) in enumerate(workload.corruptions(pool[0])):
        wrong = bench.run_loop(Miswired(workload, index), pool[:1], seconds=1e-3)
        expect(wrong.attempted >= 1 and len(wrong.failures) == wrong.attempted,
               f"{name}: {what} is counted as a failure: {wrong.failures[:1]}")

    raising = bench.run_loop(Miswired(workload, raises=True), pool[:1], seconds=1e-3)
    expect(raising.attempted >= 1 and len(raising.failures) == raising.attempted
           and "injected failure" in raising.failures[0],
           f"{name}: an op that raises is counted as a failure")

    if name == "transfer_wide":
        check_tracer(prepared.bc, workload, pool)


def check_tracer(bc, workload, pool) -> None:
    modules = [m for k, m in sys.modules.items() if k.startswith("branchcomm")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    post_init = bc.StateVector.__post_init__
    tracer = Tracer()
    tracer.install()
    try:
        expect(bc.run_protocol is not before[("branchcomm", "run_protocol")],
               "tracer: package-level names are patched")
        loop = bench.run_loop(workload, pool[:2], seconds=1e-3, tracer=tracer)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    expect(before == after and bc.StateVector.__post_init__ is post_init,
           "tracer: uninstall restores every patched name")
    expect(not loop.failures, f"tracer: traced ops are correct {loop.failures}")
    metrics = bench.layer_metrics(tracer, loop.attempted)
    expect(metrics["statevec.gates_applied"][0] == 7.0,
           f"tracer: 7 gates per transfer op, got {metrics['statevec.gates_applied'][0]}")
    expect(metrics["statevec.StateVector.constructions"][0] == 9.0,
           "tracer: 9 StateVector constructions per transfer op")
    expect(metrics["statevec.bytes_moved_computed"][0] == 7 * 32 * 2**19,
           "tracer: computed bytes moved = gates x 32 B x 2^19")
    names = set(metrics) | set(bench.gate_probe_metrics(bc, seed=7))
    names |= {"trace_overhead_frac", "trace.ops"}
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({m["name"] for m in declared["per_layer"]} == names,
           "BENCHMARK.json per_layer names match the traced run's metrics")
    e2e = bench.end_to_end_metrics([1.0], loop)
    expect({m["name"] for m in declared["end_to_end"]} == set(e2e),
           "BENCHMARK.json end_to_end names match the untraced run's metrics")


def check_refuses_without_sources(work_dir) -> None:
    bare = work_dir / "bare"
    shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{bench.BENCH_DIR.name}/bench.py", "--workload", "transfer_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    work_dir = bench.OUT_DIR / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        check_refuses_without_sources(work_dir)
        for name in bench.WORKLOAD_NAMES:
            check_workload(name, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
