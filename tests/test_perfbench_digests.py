"""Op 0 of each perfbench workload, and every recorded ``unit-random`` op,
still write their recorded bytes.

``perfbench/reference_digests.json`` holds the sha256 of the first ops'
output at the benchmark's default seed 0.  Running those ops here, untraced,
catches a change to any output byte before a benchmark run does.  The
per-layer counts, which only a traced run computes, and the callables a
traced run wraps are checked here too.  The benchmark's files are read,
never written.
"""
import importlib
import importlib.util
import json
import numbers
import sys
from functools import reduce
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_zero_matches_reference_digest(name):
    workload = workloads.WORKLOADS[name]
    out = workload.op(workloads.op_seed(0, 0), tracing.NullTracer())
    assert workload.check(out) == []
    assert workloads.digest(out.text) == REFERENCE[name]["0"]
    counts = workload.counts(out)
    assert isinstance(counts, dict) and counts
    assert all(isinstance(value, numbers.Real) and not isinstance(value, bool)
               for value in counts.values()), counts


@pytest.mark.parametrize("span", sorted(workloads.TRACE_TARGETS))
def test_trace_targets_resolve(span):
    for target in workloads.TRACE_TARGETS[span]:
        module, _, path = target.partition(":")
        assert callable(reduce(getattr, path.split("."),
                               importlib.import_module(module))), target


@pytest.mark.parametrize("index", sorted(REFERENCE["unit-random"], key=int))
def test_every_recorded_unit_random_op_matches_its_digest(index):
    # route_agreement is the largest error over the grid; a screen that
    # skipped the worst point on any recorded seed would change its bytes.
    # The digests were recorded from checked ops, so no workload check runs.
    workload = workloads.WORKLOADS["unit-random"]
    out = workload.op(workloads.op_seed(0, int(index)), tracing.NullTracer())
    assert workloads.digest(out.text) == REFERENCE["unit-random"][index]
