"""Acceptance suite: eight audited end-to-end properties.

Each test prints one visible PASS/FAIL line (with measured evidence) and then
asserts.  Budgeted tests also assert their wall-clock limit.
"""
import itertools
import math
import time
from fractions import Fraction

from schedlab.adversary import (
    actual_released,
    aggregate_game,
    counting_bounds,
    scaling_bound_report,
)
from schedlab.core import Instance, Job, MachineProfile
from schedlab.equal_deadline import run_equal_deadline
from schedlab.generators import (
    adversary_instance,
    equal_deadline_instance,
    random_unit_instance,
    throughput_instance,
    upper_triangular_instance,
)
from schedlab.online_min import (
    EULER,
    build_certificate,
    ceil_times,
    check_certificate,
    run_alpha_edf,
)
from schedlab.oracle import (
    brute_force_feasible,
    edf_simulate,
    flow_feasible,
    offline_throughput_opt,
)
from schedlab.throughput import (
    check_matching,
    edf_throughput_unweighted,
    estimate_ratio,
    matching_to_schedule,
    reduce_to_matching,
    schedule_to_matching,
)


def announce(capsys, index, passed, detail):
    with capsys.disabled():
        verdict = "PASS" if passed else "FAIL"
        print(f"\n[{index}/8] {verdict}  {detail}")


def test_1_scaled_edf_feasibility(capsys):
    started = time.perf_counter()
    bad = []
    count = 0
    for seed in range(1000):
        jobs = 1 + (seed * 7) % 200
        horizon = 2 + (seed * 13) % 99
        inst = random_unit_instance(jobs, horizon, seed=seed)
        tr = run_alpha_edf(inst, "e")
        if tr.schedule.misses or tr.cost != ceil_times(EULER, tr.off_final):
            bad.append(("random", seed))
        count += 1
    for n in (4, 10, 50, 100, 500):
        tr = run_alpha_edf(adversary_instance(n), "e")
        if tr.schedule.misses or tr.cost != ceil_times(EULER, tr.off_final):
            bad.append(("adversary", n))
        count += 1
    elapsed = time.perf_counter() - started
    passed = not bad and elapsed < 10.0
    announce(capsys, 1, passed,
             f"e-scaled EDF: zero misses and cost = ceil(e*OFF) on {count} "
             f"instances in {elapsed:.1f}s (budget 10s)"
             + (f"; failures {bad[:5]}" if bad else ""))
    assert bad == []
    assert elapsed < 10.0


def test_2_oracle_equivalence_exhaustive(capsys):
    started = time.perf_counter()
    windows = [(r, d) for r in range(4) for d in range(r + 1, 5)]
    profiles = [MachineProfile.constant(m, 4) for m in (1, 2)]
    disagreements = 0
    checks = 0
    for size in range(1, 6):
        for combo in itertools.combinations_with_replacement(windows, size):
            jobs = [Job(i, r, d) for i, (r, d) in enumerate(combo)]
            dmax = max(j.d for j in jobs)
            for profile in profiles:
                _, sched = edf_simulate(jobs, profile)
                votes = {not sched.misses,
                         flow_feasible(jobs, profile, dmax),
                         brute_force_feasible(jobs, profile)}
                if len(votes) != 1:
                    disagreements += 1
                checks += 1
    elapsed = time.perf_counter() - started
    passed = disagreements == 0 and elapsed < 60.0
    announce(capsys, 2, passed,
             f"EDF / flow / brute-force agree on all {checks} "
             f"(instance, profile) pairs with <=5 jobs, horizon <=4, "
             f"m in {{1,2}} in {elapsed:.1f}s (budget 60s)")
    assert disagreements == 0
    assert elapsed < 60.0


def test_3_certificate_checks(capsys):
    worst_completion = 0.0
    packing_failures = 0
    dominance_failures = 0
    scaled_excess = float("-inf")
    checked = 0
    for seed in range(200):
        inst = random_unit_instance(1 + seed % 40, 2 + seed % 10, seed=seed)
        tr = run_alpha_edf(inst, "e")
        for dstar in sorted({int(j.d) for j in inst.jobs}):
            rep = check_certificate(build_certificate(inst.jobs, dstar),
                                    tr, grid_per_unit=1000)
            worst_completion = max(worst_completion, rep.completion_worst)
            packing_failures += len(rep.packing_profile_failures)
            dominance_failures += len(rep.dominance_failures)
            scaled_excess = max(scaled_excess, rep.packing_scaled_off_excess)
            assert rep.agreement_ok
            checked += 1
    passed = (worst_completion <= 1e-9 and packing_failures == 0
              and dominance_failures == 0 and scaled_excess <= 1e-9)
    announce(capsys, 3, passed,
             f"fractional certificates: {checked} (instance, d*) checks; "
             f"worst completion error {worst_completion:.1e}, packing excess "
             f"over e*OFF {scaled_excess:.1e}, dominance failures "
             f"{dominance_failures}")
    assert worst_completion <= 1e-9
    assert packing_failures == 0
    assert scaled_excess <= 1e-9
    assert dominance_failures == 0


def truncated_misses(alpha, n: int, last_release: int) -> int:
    """Misses of scaled EDF on the adversary stream cut after ``last_release``."""
    jobs = [j for j in adversary_instance(n).jobs if j.r <= last_release]
    inst = Instance.of("unit-min", jobs, horizon=n)
    return len(run_alpha_edf(inst, alpha).schedule.misses)


def test_4_counting_bounds_and_large_scale_miss(capsys):
    sub_e = aggregate_game(2.5, 10**6)
    at_e = aggregate_game("e", 10**5)
    release_checks = []
    for n, N in ((10**6, 10**12), (10**5, 10**10), (4, 16)):
        cb = counting_bounds(n, N)
        reference = N * math.log(n) - (n - 1)
        release_checks.append(
            abs(cb.released_lower - reference) <= 1e-9 * reference)
        release_checks.append(actual_released(n, N) >= cb.released_lower)
    release_ok = all(release_checks)
    processed = [(g.processed_total,
                  counting_bounds(g.n, g.N, g.alpha).processed_upper)
                 for g in (sub_e, at_e)]
    processed_ok = all(total <= upper for total, upper in processed)

    tau = sub_e.forcing_stop()
    tau_e = at_e.forcing_stop()
    forced = False
    if tau is not None:
        stop_backlog = int(sub_e.backlog[tau])
        stop_capacity = (sub_e.n - 1 - tau) * int(sub_e.online[tau])
        forced = stop_backlog > stop_capacity
    # Job-level cross-check of the counters: stopping after tau misses by
    # exactly the excess backlog, stopping one step earlier misses nothing.
    truncation = []
    for n in (60, 100):
        g = aggregate_game(2, n)
        t = g.forcing_stop()
        excess = int(g.backlog[t]) - (n - 1 - t) * int(g.online[t])
        truncation.append((n, t, excess, truncated_misses(2, n, t),
                           truncated_misses(2, n, t - 1)))
    truncation_ok = all(excess > 0 and at == excess and before == 0
                        for _, _, excess, at, before in truncation)

    passed = (forced and tau_e is None and release_ok
              and processed_ok and truncation_ok)
    announce(capsys, 4, passed,
             "an adversary that stops forces a miss: alpha=2.5, n=10^6 "
             + (f"stops after tau={tau} (backlog {stop_backlog} > remaining "
                f"capacity {stop_capacity})" if forced
                else "has no such stop")
             + f"; alpha=e, n=10^5 forcing stop: {tau_e}; job-level "
             "cross-check at alpha=2: "
             + ", ".join(f"n={n} tau={t} -> {at} misses (cut at {t - 1}: "
                         f"{before})" for n, t, _, at, before in truncation)
             + f"; processed totals {[total for total, _ in processed]} "
             f"within counting_bounds {[f'{u:.4e}' for _, u in processed]}: "
             f"{processed_ok}; release bound reproduced to 1e-9 and exceeded "
             f"by actual totals: {release_ok}")
    assert release_ok
    assert processed_ok, (
        f"processed totals {processed} exceed counting_bounds.processed_upper")
    assert truncation_ok, (
        f"aggregate forcing stops disagree with job-level runs: {truncation}")
    assert tau_e is None, (
        f"at alpha=e, n=10^5 stopping after t={tau_e} forces a miss")
    assert forced, (
        "no stop time forces a miss at alpha=2.5, n=10^6: backlog[tau] "
        "never exceeds (n-1-tau)*online[tau]")


#: A rational below e: EULER is e rounded to 60 significant digits, so it
#: lies within 5e-60 of e.
E_BELOW = EULER - Fraction(1, 10**59)


def test_5_scaling_envelope_window(capsys):
    n = 100
    slack = {}
    off_mismatches = []
    for N in (10**4, 10**3):
        rows = scaling_bound_report(n, N)
        if [r.off for r in rows] != aggregate_game("e", n, N).off.tolist():
            off_mismatches.append(N)
        if N == 10**4:
            rented = [r.tstar for r in rows if not r.holds]
        # OFF(t*) <= ceil(N / (e (n - t* - 1))) for t* <= n - 2.
        slack[N] = [
            -(-(N * E_BELOW.denominator)
              // (E_BELOW.numerator * (n - r.tstar - 1))) - r.off
            for r in rows[:n - 1]]
    violations = {N: [t for t, s in enumerate(v) if s < 0]
                  for N, v in slack.items()}
    tight = [t for t, s in enumerate(slack[10**3]) if s == 0]
    passed = (not off_mismatches and not any(violations.values())
              and bool(tight))
    announce(capsys, 5, passed,
             f"OFF(t*) <= ceil(N/(e(n-t*-1))) for n={n}, t* in [0,{n - 2}]: "
             f"violations at N=10^4 {violations[10**4] or 'none'}, at N=10^3 "
             f"{violations[10**3] or 'none'}; met with equality at N=10^3 "
             f"for {len(tight)} rows t*={tight}; OFF column equals the hull "
             f"engine's: {not off_mismatches}; the rented envelope "
             f"ceil(N/(e(n-t*))) is exceeded at N=10^4 on {len(rented)} rows "
             f"from t*={rented[:3]} on")
    assert off_mismatches == [], (
        f"scaling_bound_report OFF differs from the hull engine at N in "
        f"{off_mismatches}")
    assert violations == {10**4: [], 10**3: []}, (
        f"OFF(t*) exceeds ceil(N/(e(n-t*-1))) at {violations}")
    assert tight, (
        "the bound is never met with equality at n=100, N=10^3, so an OFF "
        "row one too high there could pass unnoticed")


def test_6_equal_deadline_corpus_bounds(capsys):
    started = time.perf_counter()
    failures = []
    for seed in range(500):
        kappa = 2 + seed % 5
        jobs = 1 + (seed * 11) % 200
        inst = equal_deadline_instance(kappa, jobs, seed=seed)
        tr = run_equal_deadline(inst)
        if tr.misses or not tr.half_busy_ok:
            failures.append(seed)
            continue
        if any(not row["ok"] for row in tr.bound_rows()):
            failures.append(seed)
        elif tr.peak_concurrent > 16 * tr.lb + 1:
            failures.append(seed)
    elapsed = time.perf_counter() - started
    passed = not failures and elapsed < 30.0
    announce(capsys, 6, passed,
             f"common-deadline phases: 500 instances (kappa<=6, <=200 jobs): "
             f"zero misses, pool maxima within 8*LB+1 / 8*LB, peak <= 16*LB+1 "
             f"in {elapsed:.1f}s (budget 30s)"
             + (f"; failing seeds {failures[:5]}" if failures else ""))
    assert failures == []
    assert elapsed < 30.0


def test_7_reduction_bijection(capsys):
    mismatches = 0
    for seed in range(200):
        inst = throughput_instance(1 + seed % 30, 2 + seed % 12,
                                   k=1 + seed % 4, seed=seed)
        mi = reduce_to_matching(inst)
        opt_weight, sched = offline_throughput_opt(inst)
        matching = schedule_to_matching(mi, sched)
        check_matching(mi, matching)
        back = matching_to_schedule(mi, matching)
        if (sorted(back.assignments) != sorted(sched.assignments)
                or opt_weight != matching.weight):
            mismatches += 1
    passed = mismatches == 0
    announce(capsys, 7, passed,
             "schedule <-> matching round trip: identity with exactly "
             f"preserved weights on 200 instances ({mismatches} mismatches)")
    assert mismatches == 0


def test_8_matching_ratio_floor(capsys):
    floor = 1 - 1 / math.e - 0.02
    corpus = []
    for k in (1, 2, 4):
        for levels in (2, 3, 4, 5, 6):
            corpus.append(upper_triangular_instance(k, levels))
    seed = 0
    while len(corpus) < 50:
        k = (1, 2, 4)[seed % 3]
        corpus.append(throughput_instance(6 + seed % 25, 3 + seed % 8, k=k,
                                          seed=100 + seed))
        seed += 1
    worst = min(estimate_ratio(inst, trials=2000, seed=7).ratio
                for inst in corpus)

    edf_mismatches = 0
    for seed in range(300):
        inst = throughput_instance(1 + seed % 30, 2 + seed % 9,
                                   k=1 + seed % 4, seed=seed, unweighted=True)
        sched = edf_throughput_unweighted(inst)
        opt, _ = offline_throughput_opt(inst)
        if len(sched.assignments) != opt:
            edf_mismatches += 1

    passed = worst >= floor and edf_mismatches == 0
    announce(capsys, 8, passed,
             f"randomized matching: worst mean ratio {worst:.4f} >= "
             f"{floor:.4f} over 50 instances x 2000 trials (k in {{1,2,4}}); "
             f"unweighted EDF = OPT on 300 instances "
             f"({edf_mismatches} mismatches)")
    assert worst >= floor
    assert edf_mismatches == 0
