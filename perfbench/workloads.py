"""The four workloads.  One op carries one seeded input through a pipeline.

Each op calls the same public functions, in the same order, as the ``sched``
commands that users run (``gen``, ``run``, ``game``, ``verify``), and returns
the bytes those commands would write plus the objects the checker needs.
The checker and the per-layer counts run outside the timed region.

Op shapes are fixed; only the per-op seed varies.  The adversary stream takes
no seed, so its ops repeat the same input.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import schedlab as sl
from schedlab import adversary as sl_adversary
from schedlab import throughput as sl_throughput

UNIT_JOBS, UNIT_HORIZON, CERT_GRID = 2000, 500, 1000
ADV_N, GAME_ALPHA, AGG_N = 150, "2.5", 150_000
ED_KAPPA, ED_JOBS = 9, 1000
TP_JOBS, TP_HORIZON, TP_K, TP_TRIALS = 400, 100, 4, 2000
TP_CHECKED_TRIALS = 64


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` in a run with workload seed ``seed``."""
    return seed * 1_000_003 + index


def dump(payload) -> str:
    """JSON exactly as ``sched ... --out`` writes it."""
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Output:
    text: str                      # canonical output bytes of the op
    facts: dict = field(default_factory=dict)


def _round_trip(instance):
    """``sched gen --out f`` then ``sched run --instance f``."""
    text = sl.write_instance(instance)
    return sl.read_instance(text), len(text)


# ---------------------------------------------------------------------------
# unit-random: gen random-unit -> run e-edf -> verify certificate


def unit_random_op(seed: int, trace) -> Output:
    instance, nbytes = _round_trip(
        sl.random_unit_instance(UNIT_JOBS, UNIT_HORIZON, seed))
    run = sl.run_alpha_edf(instance, "e")
    with trace.span("online_min.transcript"):
        run_text = dump(run.to_jsonable())
    deadlines = sorted({int(j.d) for j in instance.jobs})
    targets = [deadlines[len(deadlines) // 2], deadlines[-1]]
    reports = []
    for dstar in targets:
        cert = sl.build_certificate(instance.jobs, dstar)
        report = sl.check_certificate(cert, run, CERT_GRID)
        reports.append({"dstar": dstar, **report.to_jsonable()})
    verify_text = dump({"grid": CERT_GRID, "reports": reports,
                        "ok": all(rep["ok"] for rep in reports)})
    return Output(run_text + verify_text, {
        "instance": instance, "run": run, "reports": reports,
        "bytes": nbytes, "run_bytes": len(run_text), "targets": targets})


def unit_random_check(out: Output) -> list[str]:
    f = out.facts
    run = f["run"]
    problems = []
    if run.schedule.misses:
        problems.append(f"{len(run.schedule.misses)} deadline misses")
    if run.cost != sl.ceil_times(sl.EULER, run.off_final):
        problems.append(f"cost {run.cost} != ceil(e * {run.off_final})")
    oracle_off = sl.off_unit(f["instance"].jobs)
    if run.off_final != oracle_off:
        problems.append(f"off_final {run.off_final} != off_unit {oracle_off}")
    problems += [f"certificate at dstar={rep['dstar']} failed"
                 for rep in f["reports"] if not rep["ok"]]
    return problems


def _off_counts(release_steps: list[int], off: list[int], deadline_columns: int,
                engines: int = 1) -> dict:
    """OFF-engine work implied by a run's inputs and its OFF series.

    The engine recomputes at every step that releases jobs, over a grid of
    (release values seen so far) x (distinct deadlines).
    """
    rows = 0
    cells = 0
    changed = 0
    prev = 0
    steps = set(release_steps)
    for t, value in enumerate(off):
        if t in steps:
            rows += 1
            cells += rows * deadline_columns
            changed += value != prev
        prev = value
    return {"oracle.off_updates": engines * len(steps),
            "oracle.off_cells": engines * cells,
            "oracle.off_changed": engines * changed}


def _off_ratio(counts: dict) -> dict:
    """Replace the changed-update count by its share of all updates."""
    changed = counts.pop("oracle.off_changed")
    counts["oracle.off_useful_ratio"] = changed / max(counts["oracle.off_updates"], 1)
    return counts


def _heap_ops(run) -> int:
    """Every job is pushed once and popped once, scheduled or missed."""
    released = sum(len(ids) for ids in run.released)
    return released + len(run.schedule.assignments) + len(run.schedule.misses)


def unit_random_counts(out: Output) -> dict:
    f = out.facts
    run, instance = f["run"], f["instance"]
    jobs = len(instance.jobs)
    release_steps = [t for t, ids in enumerate(run.released) if ids]
    counts = {
        "generators.jobs": jobs, "core.jobs": jobs, "core.bytes": f["bytes"],
        "online_min.steps": len(run.m), "online_min.heap_ops": _heap_ops(run),
        "online_min.machines_peak": run.cost,
        "online_min.transcript_bytes": f["run_bytes"],
        "online_min.cert_points": sum(d * CERT_GRID for d in f["targets"]),
        "online_min.cert_mass_terms": sum(
            (rep["dstar"] + 1) * rep["jobs"] for rep in f["reports"]),
    }
    counts.update(_off_counts(release_steps, run.off,
                              len({int(j.d) for j in instance.jobs})))
    return _off_ratio(counts)


# ---------------------------------------------------------------------------
# adversary: gen adversary -> run e-edf; game alpha-edf; game --aggregate


def adversary_op(seed: int, trace) -> Output:
    instance = sl.adversary_instance(ADV_N)
    run = sl.run_alpha_edf(instance, "e")
    with trace.span("online_min.transcript"):
        run_text = dump(run.to_jsonable())
    game = sl.play_game(sl.alpha_edf_player(GAME_ALPHA, ADV_N), ADV_N, rho=None)
    agg = sl.aggregate_game(GAME_ALPHA, AGG_N)
    with trace.span("adversary.transcript"):
        game_text = dump(game.to_jsonable()) + dump(agg.summary())
    return Output(run_text + game_text, {
        "instance": instance, "run": run, "game": game, "agg": agg,
        "run_bytes": len(run_text)})


def adversary_check(out: Output) -> list[str]:
    f = out.facts
    problems = []
    if f["run"].schedule.misses:
        problems.append(f"{len(f['run'].schedule.misses)} misses at alpha=e")
    expected = sl_adversary.actual_released(ADV_N)
    if f["game"].released_total != expected:
        problems.append(f"game released {f['game'].released_total} != {expected}")
    expected = sl_adversary.actual_released(AGG_N)
    if f["agg"].released_total != expected:
        problems.append(f"aggregate released {f['agg'].released_total} != {expected}")
    return problems


def adversary_counts(out: Output) -> dict:
    f = out.facts
    run, game = f["run"], f["game"]
    counts = {
        "generators.jobs": len(f["instance"].jobs),
        "online_min.steps": len(run.m) + len(game.steps),
        # the game's player pushes every release and pops what it schedules
        "online_min.heap_ops": (_heap_ops(run) + game.released_total
                                + game.scheduled_total),
        "online_min.machines_peak": max(run.cost, game.cost),
        "online_min.transcript_bytes": f["run_bytes"],
        "adversary.game_jobs": game.released_total,
        "adversary.aggregate_steps": AGG_N,
    }
    run_off = _off_counts([t for t, ids in enumerate(run.released) if ids],
                          run.off, 1)
    # the game tracks OFF twice per step: its own oracle and the player's
    game_steps = [t for t, step in enumerate(game.steps) if step["released"]]
    game_off = _off_counts(game_steps, [step["off"] for step in game.steps], 1,
                           engines=2)
    for key, val in run_off.items():
        counts[key] = val + game_off[key]
    return _off_ratio(counts)


# ---------------------------------------------------------------------------
# equal-deadline: gen equal-deadline -> run equal-deadline


def equal_deadline_op(seed: int, trace) -> Output:
    instance, nbytes = _round_trip(
        sl.equal_deadline_instance(ED_KAPPA, ED_JOBS, seed))
    transcript = sl.run_equal_deadline(instance)
    with trace.span("equal_deadline.transcript"):
        text = dump(transcript.to_jsonable())
    return Output(text, {"instance": instance, "transcript": transcript,
                         "bytes": nbytes})


def equal_deadline_check(out: Output) -> list[str]:
    tr = out.facts["transcript"]
    problems = []
    if not tr.ok:
        problems.append("transcript not ok")
    if tr.peak_concurrent > 16 * tr.lb + 1:
        problems.append(f"peak {tr.peak_concurrent} > 16 * {tr.lb} + 1")
    return problems


def equal_deadline_counts(out: Output) -> dict:
    f = out.facts
    jobs = f["instance"].jobs
    tr = f["transcript"]
    return {
        "generators.jobs": len(jobs), "core.jobs": len(jobs),
        "core.bytes": f["bytes"],
        "oracle.volume_bound_terms": len({j.r for j in jobs} | {0}) * len(jobs),
        "equal_deadline.placements": len(tr.schedule.assignments),
        "equal_deadline.machines_used": tr.machines_used,
        "equal_deadline.peak_over_lb": tr.peak_concurrent / tr.lb,
    }


# ---------------------------------------------------------------------------
# throughput: gen throughput -> run perturbed-greedy / greedy-baseline,
# verify reduction; an unweighted twin through run edf-throughput


def throughput_op(seed: int, trace) -> Output:
    instance, nbytes = _round_trip(
        sl.throughput_instance(TP_JOBS, TP_HORIZON, TP_K, seed=seed))
    mi = sl.reduce_to_matching(instance)
    estimate = sl.estimate_ratio(instance, trials=TP_TRIALS, seed=seed)
    greedy = sl.greedy_baseline(mi)
    opt_weight, opt_schedule = sl.offline_throughput_opt(instance)
    opt_matching = sl.schedule_to_matching(mi, opt_schedule)
    back = sl.matching_to_schedule(mi, opt_matching)

    twin, twin_bytes = _round_trip(sl.throughput_instance(
        TP_JOBS, TP_HORIZON, TP_K, seed=seed, unweighted=True))
    twin_mi = sl.reduce_to_matching(twin)
    twin_opt, _ = sl.offline_throughput_opt(twin)
    edf = sl.edf_throughput_unweighted(twin)
    edf_matching = sl.schedule_to_matching(twin_mi, edf)
    with trace.span("throughput.transcript"):
        text = dump({
            "estimate": estimate.to_jsonable(),
            "greedy_weight": str(greedy.weight),
            "opt_weight": str(opt_weight),
            "opt_assignments": [list(a) for a in opt_schedule.assignments],
            "edf_weight": str(edf_matching.weight),
            "twin_opt": str(twin_opt),
            "edf_assignments": [list(a) for a in edf.assignments],
        })
    return Output(text, {
        "instance": instance, "mi": mi, "estimate": estimate, "seed": seed,
        "greedy": greedy, "opt_weight": opt_weight, "opt_schedule": opt_schedule,
        "opt_matching": opt_matching, "back": back, "twin": twin,
        "twin_mi": twin_mi, "twin_opt": twin_opt, "edf_matching": edf_matching,
        "bytes": nbytes + twin_bytes})


def throughput_check(out: Output) -> list[str]:
    f = out.facts
    mi, opt = f["mi"], f["opt_weight"]
    problems = []
    # Replaying all trials would cost as much as the op, so the checker
    # replays the first TP_CHECKED_TRIALS of them and bounds the mean.
    seeds = sl_throughput.trial_seeds(f["seed"], TP_TRIALS)[:TP_CHECKED_TRIALS]
    trials = sl.batched_greedy_weights(mi, seeds)
    sequential = float(sl.perturbed_greedy(mi, seeds[0]).weight)
    if trials[0] != sequential:
        problems.append(f"batched {trials[0]} != sequential {sequential}")
    if (trials.max() > float(opt) or f["estimate"].mean_alg > float(opt)
            or f["greedy"].weight > opt):
        problems.append(f"a greedy weight exceeds OPT {opt}")
    if sorted(f["back"].assignments) != sorted(f["opt_schedule"].assignments):
        problems.append("OPT schedule -> matching -> schedule is not the identity")
    if f["opt_matching"].weight != opt:
        problems.append("round-trip matching weight differs from OPT")
    if f["edf_matching"].weight != f["twin_opt"]:
        problems.append(f"unweighted EDF {f['edf_matching'].weight} != OPT {f['twin_opt']}")
    return problems


def throughput_counts(out: Output) -> dict:
    f = out.facts
    jobs = len(f["instance"].jobs) + len(f["twin"].jobs)
    mi, twin_mi = f["mi"], f["twin_mi"]
    edges = sum(len(nb) for nb in mi.neighbors.values()) * mi.k
    twin_edges = sum(len(nb) for nb in twin_mi.neighbors.values()) * twin_mi.k
    # dense assignment matrix: jobs x (k * active steps + jobs), three solves
    opt_cells = (2 * len(mi.job_ids) * (mi.k * len(mi.steps) + len(mi.job_ids))
                 + len(twin_mi.job_ids) * (twin_mi.k * len(twin_mi.steps)
                                           + len(twin_mi.job_ids)))
    return {
        "generators.jobs": jobs, "core.jobs": jobs, "core.bytes": f["bytes"],
        # reduce_to_matching runs twice on the weighted instance
        "throughput.edges": 2 * edges + twin_edges,
        "throughput.matcher_cells": TP_TRIALS * edges,
        "oracle.throughput_opt_cells": opt_cells,
        "oracle.throughput_opt_bytes": 8 * opt_cells,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    op: object          # (op seed, tracer) -> Output
    check: object       # Output -> list of problems
    counts: object      # Output -> per-layer counts


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("unit-random", unit_random_op, unit_random_check, unit_random_counts),
    Workload("adversary", adversary_op, adversary_check, adversary_counts),
    Workload("equal-deadline", equal_deadline_op, equal_deadline_check,
             equal_deadline_counts),
    Workload("throughput", throughput_op, throughput_check, throughput_counts),
)}

# Span name -> library callables that the traced run wraps.  perturbed_greedy
# is left alone: estimate_ratio tests its default argument by identity.
TRACE_TARGETS = {
    "generators.build": [
        "schedlab.generators:random_unit_instance",
        "schedlab.generators:adversary_instance",
        "schedlab.generators:equal_deadline_instance",
        "schedlab.generators:throughput_instance"],
    "core.write": ["schedlab.core:write_instance"],
    "core.read": ["schedlab.core:read_instance"],
    "oracle.off": ["schedlab.oracle:IncrementalOff.add"],
    "oracle.volume_bound": ["schedlab.oracle:volume_lower_bound"],
    "oracle.throughput_opt": ["schedlab.oracle:offline_throughput_opt"],
    "online_min.run": ["schedlab.online_min:run_alpha_edf",
                       "schedlab.online_min:OnlineState.step"],
    "online_min.certificate": ["schedlab.online_min:build_certificate",
                               "schedlab.online_min:check_certificate"],
    "adversary.game": ["schedlab.adversary:play_game"],
    "adversary.aggregate": ["schedlab.adversary:aggregate_game"],
    "equal_deadline.run": ["schedlab.equal_deadline:run_equal_deadline"],
    "throughput.reduce": ["schedlab.throughput:reduce_to_matching"],
    "throughput.estimate": ["schedlab.throughput:estimate_ratio"],
    "throughput.matcher": ["schedlab.throughput:batched_greedy_weights"],
    "throughput.greedy": ["schedlab.throughput:greedy_baseline"],
    "throughput.edf": ["schedlab.throughput:edf_throughput_unweighted"],
    "throughput.roundtrip": ["schedlab.throughput:schedule_to_matching",
                             "schedlab.throughput:matching_to_schedule"],
}
