#!/usr/bin/env python3
"""Benchmark for schedlab: four seeded workloads, end to end and per layer.

Run from the repository root, with no install step; the library is imported
from ``src/`` of the same checkout:

    python3 perfbench/run.py --workload unit-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace both \\
        --out perfbench/baseline.json

One client runs ops back to back in one thread (a closed loop); each workload
runs in a fresh process with BLAS/OpenMP pools pinned to one thread.  With
``--trace 0`` the run reports the end-to-end metrics, with its timings
rescaled by a yardstick timed around each op (see ``yardstick.py``); with
``--trace 1`` it alternates untraced and traced copies of each op and reports
per-layer metrics from the traced copies.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; child processes inherit them.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "reference_digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5
CORPUS_OPS = 1000      # op seeds per run; more than a run can reach
RECORDED_OPS = 32      # ops of the default seed with a reference digest
WORKLOAD_NAMES = ("unit-random", "adversary", "equal-deadline", "throughput")

# Declared in BENCHMARK.json.  The timings are rescaled to the yardstick's
# nominal host speed (see yardstick.py); the raw wall-clock figures are
# printed on the lines above the result but not declared, because on a shared
# host they follow the host's speed more than the program's.
END_TO_END = {               # name -> unit
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MiB",
}

# Printed beside them, not declared: the median rescaled op time, whose
# spread over ten seeds came to more than a third of the largest bound (a
# median of a dozen ops of varying size moves more than their mean), the
# same timings in wall-clock seconds, and the run's median yardstick time.
UNDECLARED_UNITS = {
    "op_s_p50": "s",
    "raw.setup_s": "s",
    "raw.ops_per_s": "ops/s",
    "raw.op_s_p50": "s",
    "yardstick_s": "s",
}

# Spans the traced run records; each yields a ``<span>_s`` self-time metric.
SPAN_NAMES = [
    "generators.build", "core.write", "core.read",
    "oracle.off", "oracle.volume_bound", "oracle.throughput_opt",
    "online_min.run", "online_min.transcript", "online_min.certificate",
    "adversary.game", "adversary.aggregate", "adversary.transcript",
    "equal_deadline.run", "equal_deadline.transcript",
    "throughput.reduce", "throughput.estimate", "throughput.matcher",
    "throughput.greedy", "throughput.edf", "throughput.roundtrip",
    "throughput.transcript",
]
COUNT_UNITS = {              # computed from each op's inputs and outputs
    "generators.jobs": "count", "core.jobs": "count", "core.bytes": "bytes",
    "oracle.off_updates": "count", "oracle.off_cells": "count",
    "oracle.off_useful_ratio": "ratio", "oracle.volume_bound_terms": "count",
    "oracle.throughput_opt_cells": "count",
    "oracle.throughput_opt_bytes": "bytes",
    "online_min.steps": "count", "online_min.heap_ops": "count",
    "online_min.machines_peak": "count",
    "online_min.transcript_bytes": "bytes",
    "online_min.cert_points": "count", "online_min.cert_mass_terms": "count",
    "adversary.game_jobs": "count", "adversary.aggregate_steps": "count",
    "equal_deadline.placements": "count",
    "equal_deadline.machines_used": "count",
    "equal_deadline.peak_over_lb": "ratio",
    "throughput.edges": "count", "throughput.matcher_cells": "count",
}
LAYERS = ["generators", "core", "oracle", "online_min", "adversary",
          "equal_deadline", "throughput"]
RUN_UNITS = {
    "trace.op_s": "s",            # median traced op
    "trace.glue_s": "s",          # op time in no recorded span
    "trace_overhead": "ratio",    # traced wall / untraced wall, same ops
    "trace.missing_spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_NAMES}
    units.update(COUNT_UNITS)
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units.update(RUN_UNITS)
    return units


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def import_library():
    """Import schedlab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "schedlab" / "__init__.py").is_file():
        fail(f"no library source at {SRC / 'schedlab'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import schedlab
    if Path(schedlab.__file__).resolve().parent != SRC / "schedlab":
        fail(f"imported schedlab from {schedlab.__file__}, not {SRC}")
    import workloads
    return workloads


def corpus_spec(workloads, name: str, seed: int):
    """The workload and the op seeds a run draws from; part of set-up."""
    return (workloads.WORKLOADS[name],
            [workloads.op_seed(seed, i) for i in range(CORPUS_OPS)])


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median set-up time of fresh processes that import and build the spec.

    Returns the raw median and the median rescaled by the yardsticks timed
    between the probes.
    """
    import yardstick
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    sticks = [yardstick.timed()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
        sticks.append(yardstick.timed())
    scaled = [yardstick.rescale(t, a, b) for t, a, b in zip(times, sticks, sticks[1:])]
    return statistics.median(times), statistics.median(scaled)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if dirty is None else bool(dirty.strip()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def load_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = import_library()
    import harness
    import tracing
    import yardstick

    refs = load_digests(name)
    print(json.dumps({"stamp": stamp(name, seed)}, sort_keys=True))
    yardstick.run()    # its first pass pays one-time costs; not timed
    setup_raw, setup_s = (None, None) if trace else measure_setup(name, seed)
    workload, seeds = corpus_spec(workloads, name, seed)

    tally = harness.Tally()
    null = tracing.NullTracer()
    # The reference op (default seed, index 0) warms caches and checks bytes.
    harness.run_op(tally, workload, workloads.op_seed(DEFAULT_SEED, 0), null,
                   refs.get("0"), workloads.digest)
    tally.seconds.clear()

    def expected(i: int) -> str | None:
        return refs.get(str(i)) if seed == DEFAULT_SEED else None

    if not trace:
        # Yardsticks bracket every op; an op's time is rescaled by the two
        # around it.  The run lasts ``seconds`` of wall time, yardsticks and
        # checks included.
        scaled = []
        sticks = [yardstick.timed()]
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds and i < len(seeds):
            out, elapsed = harness.run_op(tally, workload, seeds[i], null,
                                          expected(i), workloads.digest)
            ok, out = out is not None, None    # free the output first
            sticks.append(yardstick.timed())
            if ok:
                scaled.append(yardstick.rescale(elapsed, sticks[-2], sticks[-1]))
            i += 1
        samples = tally.seconds
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        undeclared = {
            "op_s_p50": harness.median(scaled),
            "raw.setup_s": setup_raw,
            "raw.ops_per_s": len(samples) / sum(samples) if samples else 0.0,
            "raw.op_s_p50": harness.median(samples),
            "yardstick_s": harness.median(sticks),
        }
        print("raw " + harness.timing_summary(samples))
        print("rescaled " + harness.timing_summary(scaled))
        for key, value in undeclared.items():
            print(f"{key}: {value} {UNDECLARED_UNITS[key]}")
    else:
        tracer = tracing.Tracer()
        tracer.active = False
        counts_by_op: dict[int, dict] = {}
        op_times: dict[int, float] = {}
        untraced = traced = 0.0

        def traced_op(op_seed: int, trace):
            # Wrappers record only while the op runs, so checks stay untraced.
            trace.active = True
            try:
                return workload.op(op_seed, trace)
            finally:
                trace.active = False

        traced_workload = dataclasses.replace(workload, op=traced_op)
        # Installed once, before any clock starts; inactive wrappers pass
        # calls straight through.
        undo, missing = tracing.install(tracer, workloads.TRACE_TARGETS, "schedlab")
        spent = 0.0
        i = 0
        # Each op runs untraced and traced on the same input, and both count.
        # The order alternates, so neither copy always finds caches warm.
        try:
            while spent < seconds and i < len(seeds):
                tracer.op = i
                counts = None
                for is_traced in ((False, True), (True, False))[i % 2]:
                    if is_traced:
                        out, elapsed = harness.run_op(
                            tally, traced_workload, seeds[i], tracer, expected(i),
                            workloads.digest)
                        counts = None if out is None else workload.counts(out)
                    else:
                        out, plain = harness.run_op(tally, workload, seeds[i], null,
                                                    expected(i), workloads.digest)
                        plain_ok = out is not None
                    out = None
                spent += plain + elapsed
                if plain_ok and counts is not None:
                    counts_by_op[i] = counts
                    op_times[i] = elapsed
                    untraced += plain
                    traced += elapsed
                i += 1
        finally:
            tracing.uninstall(undo)
        metrics = harness.layer_metrics(tracer.spans, counts_by_op, SPAN_NAMES,
                                        list(COUNT_UNITS), LAYERS)
        top = {op: 0.0 for op in op_times}
        for s in tracer.spans:
            if s.parent is None and s.op in top:
                top[s.op] += s.duration
        metrics["trace.op_s"] = harness.median(list(op_times.values()))
        metrics["trace.glue_s"] = harness.median(
            [op_times[op] - top[op] for op in op_times])
        metrics["trace_overhead"] = traced / untraced if untraced else 0.0
        metrics["trace.missing_spans"] = len(missing)
        units = per_layer_units()
        print(f"traced ops: {len(op_times)}")
        for target in missing:
            print(f"missing span target: {target}")

    for problem in tally.problems[:20]:
        sys.stderr.write(f"FAILED {problem}\n")
    print(f"error_rate: {tally.error_rate:.6f} ({tally.failed} of {tally.attempted} ops)")
    for key in units:
        print(f"{key}: {metrics[key]} {units[key]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; print and optionally save everything."""
    modes = {"0": ["0"], "1": ["1"], "both": ["0", "1"]}[args.trace]
    results: dict[str, dict] = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", mode]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={mode}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            stamp_line = json.loads(lines[0])
            ok = ok and result["correct"]
            print(f"== {name} trace={mode}")
            print("\n".join(lines[1:-1]))
            entry = results.setdefault(name, {"stamp": stamp_line["stamp"]})
            kind = "per_layer" if mode == "1" else "end_to_end"
            entry[kind] = result
            entry[kind + "_report"] = lines[1:-1]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "seed": args.seed,
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def record_digests() -> int:
    """Write reference digests for the first RECORDED_OPS ops of the default seed."""
    workloads = import_library()
    import tracing
    null = tracing.NullTracer()
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        table[name] = {}
        for i in range(RECORDED_OPS):
            out = workload.op(workloads.op_seed(DEFAULT_SEED, i), null)
            problems = workload.check(out)
            if problems:
                fail(f"{name} op {i} fails its check: {problems}")
            table[name][str(i)] = workloads.digest(out.text)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="0")
    parser.add_argument("--out", help="with --workload all: write all results here")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import and build the spec, then exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite reference_digests.json for the default seed")
    args = parser.parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.setup_probe:
        corpus_spec(import_library(), args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.trace == "both":
        fail("--trace both needs --workload all")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace == "1")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
