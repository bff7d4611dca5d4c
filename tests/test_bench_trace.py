"""The benchmark's tracer (perfbench/trace.py) wraps package functions by the
name the calling module looks them up under. Installing it here makes a source
change that deletes or renames a wrapped name fail the unit tests, not only a
traced benchmark run. Likewise every benchmark workload's config must build
under the option checks."""
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_name_and_unwrap_restores_it():
    trace = _load("trace")
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


@pytest.mark.parametrize("name", ["desk", "wide", "sweep", "tiny"])
def test_workload_config_builds(name):
    workload = _load("chain").WORKLOADS[name]
    assert workload.config(seed=0).synth.sequences == workload.sequences
