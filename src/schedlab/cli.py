"""Command line harness: generate, run, play games, verify, benchmark.

Exit codes are a stable contract: 0 on success, 1 when an audited property
fails (a deadline miss, a bound violation, a budget overrun), 2 on usage or
input errors.  All randomness flows from explicit --seed flags; identical
invocations produce identical bytes.  Set SCHED_LOG to adjust log level.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time

from . import adversary, equal_deadline, generators, online_min, oracle, throughput
from .core import (ContractViolation, ParseError, ValidationError,
                   dump_json, read_instance, write_instance)

log = logging.getLogger("schedlab")

CSV_VERSION = "# schedlab-csv v1"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(dump_json(payload) + "\n", out)


def _read_text(path: str) -> str:
    """The text of the UTF-8 file ``path``, which ``--instance`` and
    ``--spec`` files are read through; other bytes are a ``ParseError``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _load_instance(path: str):
    return read_instance(_read_text(path))


def _summary(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(payload))
    writer.writeheader()
    writer.writerow(payload)
    sys.stdout.write(CSV_VERSION + "\n" + buf.getvalue())


def cmd_gen(args) -> int:
    params = {
        "n": args.n, "N": args.big_n, "jobs": args.jobs,
        "horizon": args.horizon, "kappa": args.kappa, "k": args.k,
        "levels": args.levels, "w_max": args.w_max,
        "unweighted": args.unweighted,
    }
    params = {key: val for key, val in params.items()
              if val is not None and val is not False}
    instance = generators.generate(args.kind, seed=args.seed, **params)
    text = write_instance(instance)
    _emit(text, args.out)
    if args.out:
        log.info("wrote %d jobs to %s", len(instance.jobs), args.out)
    return 0


def _player_alpha(args) -> str:
    """The player's alpha: ``"e"`` for e-edf, ``--alpha`` for alpha-edf."""
    if args.algo == "alpha-edf" and args.alpha is None:
        raise ContractViolation("alpha-edf needs --alpha")
    return "e" if args.algo == "e-edf" else args.alpha


def _run_unit(args, instance) -> int:
    alpha = _player_alpha(args)
    transcript = online_min.run_alpha_edf(instance, alpha)
    misses = len(transcript.schedule.misses)
    if args.out:
        _emit_json(transcript.to_jsonable(), args.out)
    _summary({
        "algo": args.algo, "instance": args.instance,
        "alpha": alpha,
        "jobs": len(instance.jobs), "cost": transcript.cost,
        "off": transcript.off_final,
        "ratio": online_min.json_ratio(round(transcript.ratio, 6)),
        "misses": misses,
    }, args.format)
    return 1 if misses else 0


def _run_equal_deadline(args, instance) -> int:
    transcript = equal_deadline.run_equal_deadline(instance)
    if args.out:
        _emit_json(transcript.to_jsonable(), args.out)
    _summary({
        "algo": args.algo, "instance": args.instance,
        "jobs": len(instance.jobs), "kappa": transcript.kappa,
        "lb": transcript.lb, "peak": transcript.peak_concurrent,
        "misses": len(transcript.misses), "ok": transcript.ok,
    }, args.format)
    return 0 if transcript.ok else 1


def _run_throughput(args, instance) -> int:
    mi = throughput.reduce_to_matching(instance)
    opt_weight, _ = oracle.offline_throughput_opt(instance)
    if args.algo == "perturbed-greedy":
        if args.seed is None:
            raise ContractViolation("perturbed-greedy needs --seed")
        matching = throughput.perturbed_greedy(mi, args.seed)
    elif args.algo == "greedy-baseline":
        matching = throughput.greedy_baseline(mi)
    else:
        schedule = throughput.edf_throughput_unweighted(instance)
        matching = throughput.schedule_to_matching(mi, schedule)
    schedule = throughput.matching_to_schedule(mi, matching)
    if args.out:
        _emit_json({
            "algo": args.algo,
            "weight": float(matching.weight),
            "assignments": [
                {"job": j, "machine": m, "start": t}
                for j, m, t in schedule.assignments],
            "unscheduled": schedule.misses,
        }, args.out)
    # exact, then rounded once: both weights may round to 0.0 as floats
    ratio = float(matching.weight / opt_weight) if opt_weight else 1.0
    _summary({
        "algo": args.algo, "instance": args.instance,
        "seed": args.seed if args.seed is not None else "",
        "jobs": len(instance.jobs), "k": instance.k,
        "weight": float(matching.weight), "opt": float(opt_weight),
        "ratio": round(ratio, 6),
    }, args.format)
    if args.algo == "edf-throughput" and matching.weight != opt_weight:
        return 1
    return 0


def cmd_run(args) -> int:
    instance = _load_instance(args.instance)
    unit = {"e-edf", "alpha-edf"}
    wanted = {"unit-min": unit, "equal-deadline": {"equal-deadline"},
              "throughput": {"perturbed-greedy", "greedy-baseline",
                             "edf-throughput"}}
    if args.algo not in wanted[instance.model]:
        raise ContractViolation(
            f"algo {args.algo} does not apply to model {instance.model}")
    if args.algo in unit:
        return _run_unit(args, instance)
    if args.algo == "equal-deadline":
        return _run_equal_deadline(args, instance)
    return _run_throughput(args, instance)


def cmd_game(args) -> int:
    alpha = _player_alpha(args)
    if args.aggregate:
        rho = args.rho if args.rho is not None else "none"
        game = adversary.aggregate_game(alpha, args.n, args.big_n, rho)
        payload = game.summary()
        if args.out:
            _emit_json(payload, args.out)
        _summary(payload, args.format)
        return 0
    rho = args.rho if args.rho is not None else "e"
    player = adversary.alpha_edf_player(alpha, args.n)
    transcript = adversary.play_game(player, args.n, args.big_n, rho)
    if args.out:
        _emit_json(transcript.to_jsonable(), args.out)
    payload = transcript.to_jsonable()
    payload.pop("steps")
    _summary(payload, args.format)
    return 0


def _verify_certificate(args) -> int:
    if not args.instance:
        raise ContractViolation("verify certificate needs --instance")
    instance = _load_instance(args.instance)
    transcript = online_min.run_alpha_edf(instance, args.alpha)
    reports = []
    deadlines = oracle.distinct_deadlines(instance.jobs.d)
    targets = [args.dstar] if args.dstar is not None else deadlines
    all_ok = True
    for dstar in targets:
        cert = online_min.build_certificate(instance.jobs, dstar)
        report = online_min.check_certificate(cert, transcript, args.grid)
        reports.append({"dstar": dstar, **report.to_jsonable()})
        all_ok = all_ok and report.ok
    _emit_json({"instance": args.instance, "alpha": str(args.alpha),
                "grid": args.grid, "ok": all_ok, "reports": reports}, args.out)
    return 0 if all_ok else 1


def _verify_envelope(args) -> int:
    if args.n is None:
        raise ContractViolation("verify envelope needs --n")
    N = adversary.resolve_stream(args.n, args.big_n)
    t_max = args.t_max if args.t_max is not None else args.n - 1
    if not 0 <= t_max <= args.n - 1:
        raise ContractViolation(
            f"verify envelope needs 0 <= --t-max <= n - 1 = {args.n - 1}, got {t_max}")
    rows = adversary.scaling_bound_report(args.n, N, t_max)
    violations = [row.tstar for row in rows if not row.holds]
    clean_until = violations[0] - 1 if violations else rows[-1].tstar
    payload = {
        "n": args.n, "N": N,
        "t_max": t_max,
        "ok": not violations,
        "violations": violations,
        "clean_prefix_end": clean_until,
        "rows": [{"tstar": row.tstar, "off": row.off, "bound": row.bound,
                  "holds": row.holds} for row in rows],
    }
    _emit_json(payload, args.out)
    return 0 if not violations else 1


def _verify_equal_deadline(args) -> int:
    if not args.instance:
        raise ContractViolation("verify equal-deadline needs --instance")
    instance = _load_instance(args.instance)
    transcript = equal_deadline.run_equal_deadline(instance)
    _emit_json({"instance": args.instance, "ok": transcript.ok,
                "lb": transcript.lb, "peak": transcript.peak_concurrent,
                "bounds": transcript.bound_rows(),
                "misses": list(transcript.misses)}, args.out)
    return 0 if transcript.ok else 1


def _verify_reduction(args) -> int:
    if args.count < 1:
        raise ContractViolation(f"verify reduction needs --count >= 1, got {args.count}")
    import random as _random
    rng = _random.Random(args.seed)
    failures = []
    for case in range(args.count):
        instance = generators.throughput_instance(
            jobs=rng.randint(1, 30), horizon=rng.randint(2, 20),
            k=rng.randint(1, 4), w_max=10, seed=rng.getrandbits(32))
        mi = throughput.reduce_to_matching(instance)
        opt_weight, schedule = oracle.offline_throughput_opt(instance)
        matching = throughput.schedule_to_matching(mi, schedule)
        back = throughput.matching_to_schedule(mi, matching)
        same = sorted(back.assignments) == sorted(schedule.assignments)
        if not same or opt_weight != matching.weight:
            failures.append(case)
    _emit_json({"count": args.count, "seed": args.seed,
                "failures": failures, "ok": not failures}, args.out)
    return 0 if not failures else 1


def cmd_verify(args) -> int:
    dispatch = {"certificate": _verify_certificate,
                "envelope": _verify_envelope,
                "equal-deadline": _verify_equal_deadline,
                "reduction": _verify_reduction}
    return dispatch[args.what](args)


BENCH_COLUMNS = ["kind", "params", "seed", "status", "elapsed",
                 "cost", "off", "ratio", "missed", "mean", "opt", "stderr"]


#: Keys each bench cell kind must carry; the others have defaults.
BENCH_REQUIRED = {"aggregate-game": ["n"], "matching-ratio": [], "run": ["instance"]}

#: Keys whose values, when present, must be ints (bools are refused).
BENCH_INTEGERS = ("n", "N", "seed", "trials", "jobs", "horizon", "k", "levels", "w_max")


def _bench_cell(cell: dict) -> dict:
    kind = cell.get("kind")
    seed = cell.get("seed", 0)
    row = {col: "" for col in BENCH_COLUMNS}
    row.update(kind=kind, seed=seed, status="ok",
               params=json.dumps({key: val for key, val in sorted(cell.items())
                                  if key not in ("kind", "seed")},
                                 sort_keys=True))
    if kind == "aggregate-game":
        game = adversary.aggregate_game(
            cell.get("alpha", "e"), cell["n"], cell.get("N"),
            cell.get("rho"))
        row.update(cost=game.cost, off=game.off_final,
                   ratio=round(game.ratio, 6), missed=game.missed)
    elif kind == "matching-ratio":
        instance = generators.generate(
            cell.get("gen", "throughput"), seed=seed,
            **{key: val for key, val in cell.items()
               if key in ("jobs", "horizon", "k", "levels", "w_max",
                          "unweighted")})
        estimate = throughput.estimate_ratio(
            instance, trials=cell.get("trials", 200), seed=seed)
        row.update(mean=round(estimate.mean_alg, 6), opt=estimate.opt,
                   ratio=round(estimate.ratio, 6),
                   stderr=round(estimate.stderr, 6))
    else:
        instance = _load_instance(cell["instance"])
        transcript = online_min.run_alpha_edf(instance, cell.get("alpha", "e"))
        missed = bool(transcript.schedule.misses)
        row.update(cost=transcript.cost, off=transcript.off_final,
                   ratio=round(transcript.ratio, 6), missed=missed)
        if missed:
            row["status"] = "fail"
    return row


def cmd_bench(args) -> int:
    text = _read_text(args.spec)
    try:
        spec = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # json.loads refuses an int past the digit limit with a plain ValueError
        raise ParseError(f"bench spec {args.spec}: {exc}") from None
    cells = spec.get("cells", []) if isinstance(spec, dict) else None
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ParseError(f"bench spec {args.spec}: want an object with a list of cell objects")
    for cell in cells:
        kind = cell.get("kind")
        if not isinstance(kind, str) or kind not in BENCH_REQUIRED:
            raise ContractViolation(f"unknown bench cell kind {kind!r}")
        missing = [key for key in BENCH_REQUIRED[kind] if key not in cell]
        if missing:
            raise ContractViolation(f"bench cell {kind!r} needs {', '.join(missing)}")
        bad = [key for key in BENCH_INTEGERS if type(cell.get(key, 0)) is not int]
        if bad:
            raise ContractViolation(f"bench cell {kind!r}: {bad[0]} must be an integer")
        if type(cell.get("instance", "")) is not str:
            raise ContractViolation(f"bench cell {kind!r}: instance must be a file name")
    budget = args.budget if args.budget is not None else spec.get("budget")
    # NaN compares false, so it would turn the budget off
    if budget is not None and (type(budget) not in (int, float) or not budget >= 0):
        raise ContractViolation(f"bench budget must be a number >= 0, got {budget!r}")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    worst = 0
    for cell in cells:
        started = time.monotonic()
        row = _bench_cell(cell)
        elapsed = time.monotonic() - started
        row["elapsed"] = round(elapsed, 3)
        if budget is not None and elapsed > budget:
            row["status"] = "timeout"
        if row["status"] != "ok":
            worst = 1
        writer.writerow(row)
    _emit(CSV_VERSION + "\n" + buf.getvalue(), args.out)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sched",
        description="Online scheduling laboratory: generators, algorithm "
                    "runs, adversary games, verification, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("kind", choices=generators.KINDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int)
    gen.add_argument("--big-n", type=int, dest="big_n")
    gen.add_argument("--jobs", type=int)
    gen.add_argument("--horizon", type=int)
    gen.add_argument("--kappa", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--levels", type=int)
    gen.add_argument("--w-max", type=int, dest="w_max")
    gen.add_argument("--unweighted", action="store_true")
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an algorithm on an instance file")
    run.add_argument("algo", choices=["e-edf", "alpha-edf", "equal-deadline",
                                      "perturbed-greedy", "greedy-baseline",
                                      "edf-throughput"])
    run.add_argument("--instance", required=True)
    run.add_argument("--alpha")
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.add_argument("--format", choices=["csv", "json"], default="csv")
    run.set_defaults(func=cmd_run)

    game = sub.add_parser("game", help="play the adversary against a player")
    game.add_argument("algo", choices=["e-edf", "alpha-edf"])
    game.add_argument("--alpha")
    game.add_argument("--n", type=int, required=True)
    game.add_argument("--big-n", type=int, dest="big_n")
    game.add_argument("--rho")
    game.add_argument("--aggregate", action="store_true")
    game.add_argument("--out")
    game.add_argument("--format", choices=["csv", "json"], default="csv")
    game.set_defaults(func=cmd_game)

    verify = sub.add_parser("verify", help="check audited properties")
    verify.add_argument("what", choices=["certificate", "envelope",
                                         "equal-deadline", "reduction"])
    verify.add_argument("--instance")
    verify.add_argument("--alpha", default="e")
    verify.add_argument("--grid", type=int, default=1000)
    verify.add_argument("--dstar", type=int)
    verify.add_argument("--n", type=int)
    verify.add_argument("--big-n", type=int, dest="big_n")
    verify.add_argument("--t-max", type=int, dest="t_max")
    verify.add_argument("--count", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out")
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="run a sweep from a spec file")
    bench.add_argument("--spec", required=True)
    bench.add_argument("--budget", type=float)
    bench.add_argument("--out")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("SCHED_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContractViolation, ParseError, ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
