"""bench/tracer.py wraps branchcomm functions by name, and
StateVector.__post_init__, and its install() raises if a name is missing.
Installing it here makes a rename in src/ fail in the test suite, not only
in the traced benchmark run."""

import importlib.util
from pathlib import Path

import branchcomm
import branchcomm.cli
from branchcomm import Message, ProtocolConfig, StateVector

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("branchcomm_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_tracer_installs_records_and_uninstalls():
    tracer_module = _load_tracer()
    names = ("statevec", "protocol", "branches", "nogo", "suites", "qasm", "swapsynth", "cli")
    modules = {name: getattr(branchcomm, name) for name in names}
    originals = {
        (module, attr): getattr(modules[module], attr)
        for module, attr, *_ in tracer_module.TRACED_FUNCTIONS
    }
    post_init = StateVector.__dict__["__post_init__"]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(modules[module], attr) is not original, (module, attr)
        assert StateVector.__dict__["__post_init__"] is not post_init
        with tracer.recording(0):
            # looked up at call time, so the call goes through the wrapper
            modules["protocol"].run_protocol(ProtocolConfig(n=2), Message("10"))
    finally:
        tracer.uninstall()

    for (module, attr), original in originals.items():
        assert getattr(modules[module], attr) is original, (module, attr)
    assert StateVector.__dict__["__post_init__"] is post_init
    totals = tracer.totals()
    assert totals["protocol.run_protocol"]["calls"] == 1
    assert totals["protocol.build_protocol_circuit"]["calls"] == 1
    assert totals["statevec.apply_circuit"]["calls"] == 1
