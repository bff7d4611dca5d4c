"""The benchmark's tracer (perfbench/trace.py) wraps package functions by the
name the calling module looks them up under. Installing it here makes a source
change that deletes or renames a wrapped name fail the unit tests, not only a
traced benchmark run."""
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_unwrap_restores_it():
    trace = _load_trace()
    tracer = trace.Tracer()
    try:
        trace.install(tracer)
        patches = list(tracer._patches)
        assert patches
        for module, attr, original in patches:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.unwrap_all()
    for module, attr, original in patches:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
