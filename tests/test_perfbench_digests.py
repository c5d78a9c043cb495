"""Op 0 of each perfbench workload still writes its recorded bytes.

``perfbench/reference_digests.json`` holds the sha256 of the first ops'
output at the benchmark's default seed 0.  Running op 0 here, untraced,
catches a change to any output byte before a benchmark run does.  The
benchmark's files are read, never written.
"""
import importlib.util
import json
import sys
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
