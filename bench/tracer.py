"""Span tracer that wraps branchcomm's public functions from outside.

Installing the tracer replaces each traced function, under every name any
branchcomm module (or a module-level dict such as the suite table) holds it
by, with a wrapper that records a span: name, start, end, parent span and
the op it belongs to. Nothing under src/ changes; `uninstall` puts the
originals back. Wrappers record only while `enabled` is true, so the
benchmark's own output checks are never traced.

Spans are kept in memory and written out by `write_spans` at the end.
A span's self time is its duration minus the durations of its direct
children; calls are strictly nested in one thread, so children never
overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

GATE_KINDS = ("X", "H", "RY", "CNOT", "MULTI_X", "ENCODE_MU", "TRANSVERSAL_CNOT")
AMPLITUDE_BYTES = 16  # complex128
PACKAGE = "branchcomm"


def _count_gates(counts: Counter, ops, dim: int) -> None:
    for op in ops:
        counts[f"statevec.gates_applied.{op.kind.value}"] += 1
        counts["statevec.gates_applied"] += 1
        # one read and one write of every amplitude; computed, not measured
        counts["statevec.bytes_moved_computed"] += 2 * AMPLITUDE_BYTES * dim


def _count_circuit(counts: Counter, args, kwargs) -> None:
    state, circuit = args[0], args[1]
    _count_gates(counts, circuit.ops, state.layout.dim)


def _count_gate(counts: Counter, args, kwargs) -> None:
    state, op = args[0], args[1]
    _count_gates(counts, (op,), state.layout.dim)


def _count_emitted(counts: Counter, args, kwargs) -> None:
    counts["cli.bytes_written"] += len(args[0].encode("utf-8"))


# (module, attribute, span name, counter); span name None means count only.
TRACED_FUNCTIONS = (
    ("statevec", "apply_circuit", "statevec.apply_circuit", _count_circuit),
    ("statevec", "apply_gate", "statevec.apply_gate", _count_gate),
    ("statevec", "gate_matrix", "statevec.gate_matrix", None),
    ("protocol", "build_protocol_circuit", "protocol.build_protocol_circuit", None),
    ("protocol", "run_protocol", "protocol.run_protocol", None),
    ("branches", "decompose_by_register", "branches.decompose_by_register", None),
    ("branches", "evaluate_transfer", "branches.evaluate_transfer", None),
    ("branches", "register_component_magnitude", "branches.register_component_magnitude", None),
    ("nogo", "construct_G", "nogo.construct_G", None),
    ("nogo", "witness_mu_dependence", "nogo.witness_mu_dependence", None),
    ("nogo", "verify_amplitude_immutability", "nogo.verify_amplitude_immutability", None),
    ("nogo", "run_no_uncompute_variant", "nogo.run_no_uncompute_variant", None),
    ("suites", "theorem1_suite", "suites.theorem1", None),
    ("suites", "corollary1_suite", "suites.corollary1", None),
    ("suites", "lemma1_suite", "suites.lemma1", None),
    ("suites", "corollary2_suite", "suites.corollary2", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_document", "cli.run_document", None),
    ("cli", "_emit", None, _count_emitted),
    ("qasm", "to_qasm", "qasm.to_qasm", None),
    ("qasm", "simulate_qasm", "qasm.simulate_qasm", None),
    ("swapsynth", "synthesize_swap", "swapsynth.synthesize_swap", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.op_index = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str | None, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs)
            if name is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op_index)

        return wrapper

    def _program_modules(self):
        return [
            module
            for key, module in list(sys.modules.items())
            if module is not None
            and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in self._program_modules():
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._restore.append((value, dkey, original))
                            value[dkey] = wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._program_modules()}
        for module_name, attr, name, count in TRACED_FUNCTIONS:
            original = getattr(modules[module_name], attr)
            self._patch_everywhere(original, self._wrap(original, name, count))
        # StateVector is also used in isinstance checks, so the class stays
        # and its constructor hook is wrapped instead.
        cls = modules["statevec"].StateVector
        self._restore.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
        cls.__post_init__ = self._wrap(cls.__post_init__, "statevec.StateVector", None)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self, op_index: int):
        """Record spans and counts for one op."""
        self.op_index = op_index
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    # -- results -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent, _ = span
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_ns):
            name, start, end, _, _ = span
            entry = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["ns"] += end - start
            entry["self_ns"] += end - start - children
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
