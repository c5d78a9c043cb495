"""Tests for the benchmark's own logic: spans, percentiles and the op audit.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import harness
import run
import tracing
import yardstick
from tracing import Span


def _spans():
    # op 0: root [0, 10) with children [1, 4) and [5, 9); [5, 9) has [6, 7)
    return [
        Span("op", 0.0, 10.0, None, 0),
        Span("oracle.off", 1.0, 4.0, 0, 0),
        Span("online_min.run", 5.0, 9.0, 0, 0),
        Span("oracle.off", 6.0, 7.0, 2, 0),
        Span("core.read", 0.0, 2.0, None, 1, error=True),
    ]


def test_self_time_is_span_minus_children():
    assert tracing.self_times(_spans()) == [3.0, 3.0, 3.0, 1.0, 2.0]
    by_op = tracing.self_time_by_op(_spans())
    assert by_op == {0: {"op": 3.0, "oracle.off": 4.0, "online_min.run": 3.0},
                     1: {"core.read": 2.0}}


def test_tracer_records_parents_and_errors():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with pytest.raises(ValueError):
            tracer.wrap("bad", _raise)()
    parents = [(s.name, s.parent, s.error, s.op) for s in tracer.spans]
    assert parents == [("outer", None, False, 7), ("inner", 0, False, 7),
                       ("bad", 0, True, 7)]
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]
    calls, errors = tracing.layer_counts(tracer.spans)
    assert calls == {"outer": 1, "inner": 1, "bad": 1}
    assert errors == {"outer": 0, "inner": 0, "bad": 1}


def _raise():
    raise ValueError("boom")


def test_layer_metrics_take_medians_and_fill_missing_with_zero():
    counts = {0: {"oracle.off_cells": 10}, 1: {"oracle.off_cells": 30}}
    out = harness.layer_metrics(_spans(), counts, ["oracle.off", "adversary.game"],
                                ["oracle.off_cells", "adversary.game_jobs"],
                                ["oracle", "core"])
    assert out["oracle.off_s"] == 2.0          # median of 4.0 and 0.0
    assert out["adversary.game_s"] == 0.0
    assert out["oracle.off_cells"] == 20
    assert out["adversary.game_jobs"] == 0
    assert out["oracle.calls"] == 1.0          # median of 2 and 0 spans
    assert out["core.errors"] == 1


@pytest.mark.parametrize("n, expected", [
    (0, None), (9, None), (19, None), (20, 50), (39, 50), (40, 75),
    (100, 90), (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_timing_summary_states_count_and_percentile():
    assert "over 9 samples; no percentile" in harness.timing_summary([1.0] * 9)
    line = harness.timing_summary([float(i) for i in range(1, 41)])
    assert "p50 20.500000 s over 40 samples" in line
    assert "p75 30.000000 s" in line


class _Out:
    def __init__(self, text):
        self.text = text


class _Workload:
    def __init__(self, op, problems=()):
        self.op = op
        self.check = lambda out: list(problems)


def _digest(text):
    return "d:" + text


def test_good_op_is_timed_and_passes():
    tally = harness.Tally()
    ticks = iter([0.0, 1.5])
    out, elapsed = harness.run_op(tally, _Workload(lambda s, t: _Out("x")), 1,
                                  None, "d:x", _digest, clock=lambda: next(ticks))
    assert out.text == "x" and elapsed == 1.5
    assert (tally.attempted, tally.failed, tally.seconds) == (1, 0, [1.5])


def test_corrupted_digest_counts_as_failed_op():
    tally = harness.Tally()
    out, _ = harness.run_op(tally, _Workload(lambda s, t: _Out("corrupt")), 1,
                            None, "d:x", _digest)
    assert out is None
    assert (tally.attempted, tally.failed, tally.seconds) == (1, 1, [])
    assert "digest" in tally.problems[0]
    assert tally.error_rate == 1.0


def test_raising_op_counts_as_failed_op():
    tally = harness.Tally()

    def op(seed, trace):
        raise RuntimeError("broken op")

    out, _ = harness.run_op(tally, _Workload(op), 3, None, None, _digest)
    assert out is None and tally.failed == 1
    assert "broken op" in tally.problems[0]


def test_failed_check_counts_as_failed_op():
    tally = harness.Tally()
    harness.run_op(tally, _Workload(lambda s, t: _Out("x"), ["no misses"]), 1,
                   None, None, _digest)
    harness.run_op(tally, _Workload(lambda s, t: _Out("x")), 2, None, None, _digest)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.error_rate == 0.5


def test_install_wraps_every_holder_and_reports_missing(monkeypatch):
    def f(x):
        return x + 1

    class K:
        def m(self):
            return 5

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    pkg.f, pkg.K = f, K
    method = K.__dict__["m"]
    sub.f = f
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    tracer = tracing.Tracer()
    undo, missing = tracing.install(tracer, {
        "fake.f": ["fakepkg.sub:f"], "fake.m": ["fakepkg:K.m"],
        "fake.gone": ["fakepkg:vanished", "fakepkg_absent:g"]}, "fakepkg")
    assert missing == ["fakepkg:vanished", "fakepkg_absent:g"]
    assert pkg.f is not f and sub.f is not f
    assert pkg.f(1) == 2 and K().m() == 5
    assert [s.name for s in tracer.spans] == ["fake.f", "fake.m"]
    tracer.active = False
    assert pkg.f(1) == 2 and len(tracer.spans) == 2
    tracing.uninstall(undo)
    assert pkg.f is f and sub.f is f and K.__dict__["m"] is method


def test_rescale_uses_the_mean_of_the_bracketing_yardsticks():
    nominal = yardstick.NOMINAL_S
    # A host twice as slow as nominal halves the reading.
    assert yardstick.rescale(4.0, 2 * nominal, 2 * nominal) == pytest.approx(2.0)
    assert yardstick.rescale(3.0, nominal / 2, 3 * nominal / 2) == pytest.approx(3.0)


def test_yardstick_times_one_pass_and_restores_gc():
    import gc
    ticks = iter([10.0, 10.5])
    assert yardstick.timed(clock=lambda: next(ticks)) == 0.5
    assert gc.isenabled()


def test_benchmark_json_declares_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_every_trace_target_exists_and_is_restored():
    workloads = run.import_library()
    import schedlab.oracle
    original = schedlab.oracle.IncrementalOff.__dict__["add"]
    undo, missing = tracing.install(tracing.Tracer(), workloads.TRACE_TARGETS,
                                    "schedlab")
    assert schedlab.oracle.IncrementalOff.__dict__["add"] is not original
    tracing.uninstall(undo)
    assert missing == []
    assert schedlab.oracle.IncrementalOff.__dict__["add"] is original
