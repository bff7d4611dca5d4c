"""The benchmark's tracer (perfbench/trace.py) wraps package functions by the
name the calling module looks them up under. Installing it here makes a source
change that deletes or renames a wrapped name fail the unit tests, not only a
traced benchmark run. Likewise every benchmark workload's config must build
under the option checks, and one short benchmark run must pass its own
correctness checks, which call package functions directly and compare the
forward pass with an independent reference."""
import json
import subprocess
import sys

import pytest

from testkit import PERFBENCH, load_perfbench


def test_install_wraps_every_name_and_unwrap_restores_it():
    trace = load_perfbench("trace")
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
    workload = load_perfbench("chain").WORKLOADS[name]
    assert workload.config(seed=0).synth.sequences == workload.sequences


@pytest.mark.slow
def test_tiny_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stderr
