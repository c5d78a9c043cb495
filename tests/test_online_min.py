"""Scaled-EDF online runs and the fractional feasibility certificate."""
import dataclasses
import hashlib
import json
import math
import tracemalloc
import types
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_certificate import (_support_hi_index, reference_check_certificate,
                                   reference_grid)
from schedlab import online_min
from schedlab.core import (ContractViolation, Instance, Job, MachineProfile,
                           UnitJobs, ValidationError)
from schedlab.fileio import read_instance, write_instance
from schedlab.generators import adversary_instance, random_unit_instance
from schedlab.online_min import (
    EULER,
    OnlineState,
    _support_end,
    build_certificate,
    ceil_times,
    check_certificate,
    resolve_alpha,
    run_alpha_edf,
)
from schedlab.oracle import edf_simulate


class TestEulerConstant:
    def test_sixty_digit_accuracy(self):
        with localcontext() as ctx:
            ctx.prec = 80
            reference = Decimal(1).exp()
            err = abs(Decimal(EULER.numerator) / Decimal(EULER.denominator)
                      - reference)
        assert err < Decimal("1e-59")

    def test_resolve_alpha_forms(self):
        assert resolve_alpha("e") == EULER
        assert resolve_alpha(" E ") == EULER
        assert resolve_alpha(2) == 2
        assert resolve_alpha("5/2") == Fraction(5, 2)
        assert resolve_alpha(0.5) == Fraction(1, 2)
        with pytest.raises(ContractViolation):
            resolve_alpha(object())

    @pytest.mark.parametrize("bad", ["foo", "1/0", "nan", "inf", "", "-1",
                                     float("nan"), float("inf"), -0.5])
    def test_resolve_alpha_rejects(self, bad):
        with pytest.raises(ContractViolation, match="nonnegative number"):
            resolve_alpha(bad)


class TestCeilTimes:
    def test_integer_alpha(self):
        assert ceil_times(Fraction(2), 7) == 14

    def test_exact_rational(self):
        assert ceil_times(Fraction(5, 2), 3) == 8
        assert ceil_times(Fraction(5, 2), 4) == 10

    def test_zero(self):
        assert ceil_times(EULER, 0) == 0

    def test_matches_high_precision_decimal(self):
        with localcontext() as ctx:
            ctx.prec = 80
            e80 = Decimal(1).exp()
            for x in [1, 2, 3, 5, 16, 44, 1000, 94235, 10**6, 10**9]:
                want = int((e80 * x).to_integral_value(rounding="ROUND_CEILING"))
                assert ceil_times(EULER, x) == want

    def test_knife_guard_trips_on_near_integer_product(self):
        # 403978495031 is a continued-fraction denominator of e, so e times
        # it lies about 1.2e-13 above an integer: too close to round.
        with pytest.raises(ContractViolation, match="within 1e-12"):
            ceil_times(EULER, 403978495031)
        # Any other rational is exact, so it rounds however near it lies.
        near = Fraction(3 * 10**13 + 1, 10**13)
        assert ceil_times(near, 1) == 4
        assert ceil_times(Fraction(3 * 10**13 - 1, 10**13), 1) == 3


class TestRunAlphaEdf:
    def test_single_job_at_e(self):
        inst = Instance.of("unit-min", [Job(0, 0, 1)], horizon=1)
        tr = run_alpha_edf(inst, "e")
        assert tr.off == [1]
        assert tr.m == [3]
        assert tr.trace.chosen == [[0]]
        assert tr.schedule.misses == []
        assert tr.cost == 3

    def test_two_jobs_alpha_one(self):
        inst = Instance.of("unit-min", [Job(0, 0, 1), Job(1, 0, 1)], horizon=1)
        tr = run_alpha_edf(inst, 1)
        assert tr.off == [2]
        assert tr.m == [2]
        assert sorted(tr.trace.chosen[0]) == [0, 1]
        assert tr.schedule.misses == []

    def test_adversary_four_at_e(self):
        tr = run_alpha_edf(adversary_instance(4, 16), "e")
        assert tr.off == [1, 3, 5, 16]
        assert tr.m == [3, 9, 14, 44]
        assert tr.schedule.misses == []
        assert tr.cost == 44

    def test_adversary_four_at_one_misses(self):
        tr = run_alpha_edf(adversary_instance(4, 16), 1)
        assert sum(tr.m) == 25
        assert len(tr.schedule.misses) == 33 - 25

    def test_released_lists_stay_as_released(self):
        # Steps 0-2 admit jobs due at 6 into one EDF bucket, and step 2 a
        # smaller id than the bucket holds; each step's transcript list is
        # its block's id list, which the bucket must copy, not extend.
        inst = Instance.of("unit-min", [Job(0, 0, 6), Job(3, 0, 6), Job(4, 1, 6),
                                        Job(5, 1, 6), Job(1, 2, 6)], horizon=6)
        tr = run_alpha_edf(inst, 1)
        assert tr.released == [[0, 3], [4, 5], [1], [], [], []]
        # A block out of id order keeps its order in the transcript.
        state = OnlineState(1, [4])
        state.step(0, UnitJobs([7, 2, 5], [0, 0, 0], [4, 4, 4]))
        state.step(1, UnitJobs([9, 1], [1, 1], [4, 4]))
        assert state.finish().released == [[7, 2, 5], [9, 1]]

    def test_m_is_exact_scaled_ceiling_and_nondecreasing(self):
        for seed in range(10):
            inst = random_unit_instance(25, 9, seed=seed)
            for alpha in ("e", 2, Fraction(3, 2)):
                tr = run_alpha_edf(inst, alpha)
                a = resolve_alpha(alpha)
                assert tr.m == [ceil_times(a, v) for v in tr.off]
                assert all(x <= y for x, y in zip(tr.m, tr.m[1:]))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)),
                    min_size=1, max_size=30),
           st.sampled_from(["e", 1, 2, Fraction(3, 2), Fraction(1, 2), 0]))
    def test_dispatch_is_edf_under_its_machine_series(self, pairs, alpha):
        # The online run is EDF under the machine counts it rented.
        inst = Instance.of("unit-min", [Job(i, r, r + span)
                                        for i, (r, span) in enumerate(pairs)])
        tr = run_alpha_edf(inst, alpha)
        trace, sched = edf_simulate(inst.jobs,
                                    MachineProfile(dict(enumerate(tr.m))))
        assert tr.schedule.assignments == sched.assignments
        assert tr.schedule.misses == sched.misses
        assert tr.trace.chosen == trace.chosen
        assert tr.trace.miss_events == trace.miss_events

    def test_no_misses_at_e_on_random_corpus(self):
        for seed in range(100):
            inst = random_unit_instance(1 + seed % 30, 2 + seed % 10, seed=seed)
            tr = run_alpha_edf(inst, "e")
            assert tr.schedule.misses == []
            assert tr.cost <= math.e * tr.off_final + 1

    def test_ratio_accounting(self):
        for seed in range(20):
            inst = random_unit_instance(20, 8, seed=seed)
            tr = run_alpha_edf(inst, "e")
            assert tr.ratio <= math.e + 1 / tr.off_final + 1e-12

    def test_transcript_json_shape(self):
        tr = run_alpha_edf(adversary_instance(4, 16), "e")
        doc = tr.to_jsonable()
        assert doc["alpha"] == "e"
        assert doc["cost"] == 44
        assert [s["m"] for s in doc["steps"]] == [3, 9, 14, 44]

    def test_horizon_below_largest_deadline_is_refused(self):
        # Steps stop at the horizon, so job 1 would be neither run nor missed.
        inst = Instance.of("unit-min", [Job(0, 0, 2), Job(1, 5, 6)], horizon=3)
        with pytest.raises(ValidationError, match="HorizonMismatch"):
            run_alpha_edf(inst, "e")

    def test_invalid_columns_are_refused(self):
        # a duplicate id and the window [3, 1) ran to cost 3 with no miss
        inst = Instance("unit-min", UnitJobs([0, 0, 1], [0, 0, 3], [2, 2, 1]), horizon=2)
        with pytest.raises(ValidationError) as err:
            run_alpha_edf(inst, "e")
        assert [str(v) for v in err.value.violations] == [
            "DuplicateId[job 0]: job id reused",
            "WindowTooSmall[job 1]: r+p=4 exceeds d=1"]

    def test_adversary_run_builds_no_job_rows(self, no_job_rows):
        inst = adversary_instance(500)
        tr = run_alpha_edf(inst, "e")
        assert len(inst.jobs) == 1697979 == sum(map(len, tr.trace.chosen))


@pytest.fixture
def no_job_rows(monkeypatch):
    """Building a ``Job`` row from columns fails: iterating a ``UnitJobs``
    and indexing it by an integer raise, while slices and index arrays
    still give columns."""
    def refuse(*_):
        raise AssertionError("a Job row was built from columns")

    getitem = UnitJobs.__getitem__
    monkeypatch.setattr(UnitJobs, "__iter__", refuse)
    monkeypatch.setattr(UnitJobs, "__getitem__", lambda self, index: (
        refuse() if isinstance(index, (int, np.integer)) else getitem(self, index)))


def test_unit_min_pipeline_builds_no_job_rows(no_job_rows):
    # gen -> write -> read -> run -> certificate at every deadline
    inst = random_unit_instance(300, 40, seed=2)
    back = read_instance(write_instance(inst))
    assert isinstance(back.jobs, UnitJobs) and back == inst
    run = run_alpha_edf(back, "e")
    for dstar in np.unique(back.jobs.d).tolist():
        cert = build_certificate(back.jobs, dstar)
        assert check_certificate(cert, run, 20).ok


def acceptance_1_corpus():
    """The 1005 instances of acceptance test 1."""
    for seed in range(1000):
        yield random_unit_instance(1 + (seed * 7) % 200, 2 + (seed * 13) % 99,
                                   seed=seed)
    for n in (4, 10, 50, 100, 500):
        yield adversary_instance(n)


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(json.dumps(chunk, sort_keys=True).encode())
    return h.hexdigest()


# sha256 digests recorded from the heap EDF queue and the row-at-a-time
# engines, before unit jobs moved to columns.
def test_run_transcripts_digest():
    runs = (run_alpha_edf(inst, "e").to_jsonable()
            for inst in acceptance_1_corpus())
    assert _sha(runs) == (
        "25c8cdf425ac3248d172559ee4965c5bd455491f6bcad8d89b2071361bb99343")


def test_edf_simulate_digest():
    def chunks():
        for i, inst in enumerate(acceptance_1_corpus()):
            # Quotas cycle from 0 to about the mean load, so runs miss.
            top = 2 + len(inst.jobs) // inst.horizon
            profile = MachineProfile(
                {t: (3 * t + i) % top for t in range(inst.horizon)})
            trace, schedule = edf_simulate(inst.jobs, profile)
            yield [trace.chosen, trace.miss_events, schedule.assignments,
                   schedule.misses]
    assert _sha(chunks()) == (
        "31fc42acb2f72d8f75edca57a62a993a169a40a26b4a194f9f78d673a525e670")


class TestBuildCertificate:
    def test_release_at_dstar_is_refused(self):
        # d <= dstar <= r: the job's window is empty, so it has no support.
        with pytest.raises(ContractViolation, match="empty window"):
            build_certificate([Job(0, 4, 4, p=1)], 4)

    @pytest.mark.parametrize("dstar", [0, -3])
    def test_dstar_below_one_is_refused(self, dstar):
        with pytest.raises(ContractViolation, match="dstar"):
            build_certificate([Job(0, 0, 4)], dstar)

    def test_support_end_is_decided_exactly(self):
        # The last grid point k/g on the support [r, dstar - (dstar - r)/e].
        assert _support_end(0, 4, 1000) == _support_hi_index(0, 4, 1000) == 2528
        for dstar in range(1, 13):
            for r in range(dstar):
                for g in (1, 7, 1000):
                    end = math.floor(g * (dstar - (dstar - r) / EULER))
                    assert _support_end(r, dstar, g) == _support_hi_index(r, dstar, g) == end

    @settings(max_examples=500)
    @given(st.data(), st.integers(1, 10**12), st.integers(1, 10**6))
    def test_support_end_matches_float_search(self, data, dstar, g):
        # one floor division against the float estimate with exact corrections
        r = data.draw(st.integers(0, dstar - 1))
        assert _support_end(r, dstar, g) == _support_hi_index(r, dstar, g)

    @given(st.data(), st.integers(1, 10**6), st.integers(2, 10**4))
    def test_support_end_floors_from_any_grid(self, data, dstar, g):
        # the checker's dominance sweep takes each step end at g = 1, which
        # is the grid end floored to a step
        r = data.draw(st.integers(0, dstar - 1))
        assert _support_end(r, dstar, g) // g == _support_end(r, dstar, 1)

    def test_later_deadlines_not_members(self):
        cert = build_certificate([Job(0, 0, 2), Job(1, 0, 5)], 2)
        assert [j.id for j in cert.jobs] == [0]


class TestCheckCertificate:
    def test_completion_integrates_to_one(self):
        inst = Instance.of("unit-min", [Job(0, 0, 4), Job(1, 1, 4)], horizon=4)
        rep = check_certificate(build_certificate(inst.jobs, 4),
                                run_alpha_edf(inst, "e"), grid_per_unit=10)
        assert rep.completion_worst == pytest.approx(0.0, abs=1e-12)
        assert rep.to_jsonable()["completion"]["ok"]

    def test_random_instances_all_dstars_pass(self):
        for seed in range(12):
            inst = random_unit_instance(18, 7, seed=seed)
            tr = run_alpha_edf(inst, "e")
            for dstar in sorted({int(j.d) for j in inst.jobs}):
                rep = check_certificate(
                    build_certificate(inst.jobs, dstar), tr, grid_per_unit=120)
                assert rep.ok, rep.to_jsonable()

    def test_undersized_profile_reports_packing_violation(self):
        inst = adversary_instance(8)
        tr = run_alpha_edf(inst, 2)
        rep = check_certificate(build_certificate(inst.jobs, 8), tr,
                                grid_per_unit=200)
        assert not rep.packing_profile_ok
        t, density, machines = rep.packing_profile_failures[0]
        assert density > machines

    def test_single_job_packing_stays_under_scaled_off(self):
        inst = Instance.of("unit-min", [Job(0, 0, 3)], horizon=3)
        tr = run_alpha_edf(inst, "e")
        rep = check_certificate(build_certificate(inst.jobs, 3), tr,
                                grid_per_unit=300)
        assert rep.ok
        assert rep.packing_scaled_off_excess <= 0.0

    def test_dominance_holds_at_every_step(self):
        inst = adversary_instance(6)
        tr = run_alpha_edf(inst, "e")
        rep = check_certificate(build_certificate(inst.jobs, 6), tr,
                                grid_per_unit=400)
        assert rep.dominance_ok and rep.ok

    def test_coarse_grid_rejected(self):
        inst = Instance.of("unit-min", [Job(0, 0, 1)], horizon=1)
        tr = run_alpha_edf(inst, "e")
        with pytest.raises(ContractViolation):
            check_certificate(build_certificate(inst.jobs, 1), tr,
                              grid_per_unit=1)


def reference_dominance(cert, transcript, tol=1e-9):
    """The dominance check as a (steps x jobs) double loop with float
    support ends, kept to cross-check the sweep in ``check_certificate``."""
    dstar = cert.dstar
    star_ids = {j.id for j in cert.jobs}
    scheduled_running = 0
    lhs_by_t = [0]
    for t in range(dstar):
        if t < len(transcript.trace.chosen):
            scheduled_running += sum(1 for jid in transcript.trace.chosen[t]
                                     if jid in star_ids)
        lhs_by_t.append(scheduled_running)
    failures = []
    for t in range(dstar + 1):
        mass = 0.0
        for j in cert.jobs:
            if t <= j.r:
                continue
            end = dstar - (dstar - j.r) / math.e
            if t >= end:
                mass += math.log((dstar - j.r) / ((dstar - j.r) / math.e))
            else:
                mass += math.log((dstar - j.r) / (dstar - t))
        if lhs_by_t[t] < mass - tol:
            failures.append((t, lhs_by_t[t], mass))
    return failures


def sweep_dominance(cert, transcript):
    # Dominance is grid-free; the coarsest grid keeps the other checks cheap.
    return check_certificate(cert, transcript, grid_per_unit=2).dominance_failures


def assert_matches_reference(cert, transcript):
    got = sweep_dominance(cert, transcript)
    want = reference_dominance(cert, transcript)
    assert [(t, lhs) for t, lhs, _ in got] == [(t, lhs) for t, lhs, _ in want]
    for (_, _, mass), (_, _, ref_mass) in zip(got, want):
        assert abs(mass - ref_mass) <= 1e-9
    return got


class TestDominanceSweep:
    def test_matches_reference_on_acceptance_3_corpus(self):
        failing = 0
        for seed in range(200):
            inst = random_unit_instance(1 + seed % 40, 2 + seed % 10, seed=seed)
            for alpha in ("e", 1):
                tr = run_alpha_edf(inst, alpha)
                for dstar in sorted({int(j.d) for j in inst.jobs}):
                    got = assert_matches_reference(
                        build_certificate(inst.jobs, dstar), tr)
                    failing += bool(got)
        assert failing > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_large_random_runs(self, seed):
        inst = random_unit_instance(2000, 500, seed)
        deadlines = sorted({int(j.d) for j in inst.jobs})
        for alpha in ("e", 1, 2, Fraction(5, 2)):
            tr = run_alpha_edf(inst, alpha)
            for dstar in (deadlines[0], deadlines[len(deadlines) // 2],
                          deadlines[-1]):
                got = assert_matches_reference(
                    build_certificate(inst.jobs, dstar), tr)
                if alpha == 1 and dstar == deadlines[-1]:
                    assert got

    @pytest.mark.parametrize("n", [3, 6, 8, 20, 60])
    def test_matches_reference_on_adversary_runs(self, n):
        inst = adversary_instance(n)
        for alpha in ("e", 1, 2):
            assert_matches_reference(build_certificate(inst.jobs, n),
                                     run_alpha_edf(inst, alpha))

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)),
                    min_size=1, max_size=30),
           st.sampled_from(["e", 1, 2, Fraction(3, 2), Fraction(1, 2)]),
           st.integers(0, 10))
    def test_matches_reference_on_generated_runs(self, pairs, alpha, pick):
        inst = Instance.of("unit-min", [Job(i, r, r + span)
                                        for i, (r, span) in enumerate(pairs)])
        tr = run_alpha_edf(inst, alpha)
        deadlines = sorted({int(j.d) for j in inst.jobs})
        dstar = deadlines[pick % len(deadlines)]
        assert_matches_reference(build_certificate(inst.jobs, dstar), tr)

    def test_alpha_one_run_fails_dominance(self):
        inst = adversary_instance(6)
        tr = run_alpha_edf(inst, 1)
        rep = check_certificate(build_certificate(inst.jobs, 6), tr,
                                grid_per_unit=100)
        assert rep.dominance_failures
        assert not rep.dominance_ok and not rep.ok

    def test_delaying_one_job_shows_a_failure(self):
        inst = random_unit_instance(30, 10, seed=4)
        tr = run_alpha_edf(inst, "e")
        cert = build_certificate(inst.jobs, 4)
        assert sweep_dominance(cert, tr) == []
        # Hold the first certificate job EDF ran back to the last step
        # before dstar; the schedule then trails the mass it must cover.
        members = {j.id for j in cert.jobs}
        chosen = [list(ids) for ids in tr.trace.chosen]
        step = next(t for t, ids in enumerate(chosen) if members & set(ids))
        job = next(jid for jid in chosen[step] if jid in members)
        chosen[step].remove(job)
        chosen[3].append(job)
        delayed = dataclasses.replace(
            tr, trace=dataclasses.replace(tr.trace, chosen=chosen))
        failures = assert_matches_reference(cert, delayed)
        assert failures
        assert all(step < t <= 3 for t, _, _ in failures)

    def test_empty_certificate_has_no_mass(self):
        inst = Instance.of("unit-min", [Job(0, 0, 5)])
        cert = build_certificate(inst.jobs, 3)
        assert len(cert.jobs) == 0
        assert sweep_dominance(cert, run_alpha_edf(inst, "e")) == []


def assert_same_report(cert, transcript, grid_per_unit):
    """The checker's report equals the grid reference's, byte for byte."""
    got = check_certificate(cert, transcript, grid_per_unit)
    want = reference_check_certificate(cert, transcript, grid_per_unit)
    assert (json.dumps(got.to_jsonable(), sort_keys=True)
            == json.dumps(want.to_jsonable(), sort_keys=True))
    assert got == want  # the full failure lists too, past the 20 written
    return got


def dominance_cases():
    """A run and a certificate per case, at alpha e and below it, so that
    some steps trail their mass and fail."""
    for seed in range(3):
        inst = random_unit_instance(300 + 100 * seed, 80, seed=seed)
        deadlines = sorted({int(j.d) for j in inst.jobs})
        for alpha in ("e", 1, Fraction(3, 2)):
            tr = run_alpha_edf(inst, alpha)
            for dstar in (deadlines[len(deadlines) // 2], deadlines[-1]):
                yield build_certificate(inst.jobs, dstar), tr


class TestMassScreen:
    """``check_certificate`` screens every step's dominance mass from prefix
    sums and sums only the steps the screen cannot pass."""

    def test_summing_every_step_gives_the_same_report(self, monkeypatch):
        # an eps of 1 makes the rounding bound pass no step with any mass
        class WideEps:
            def __getattr__(self, name):
                return getattr(np, name)

            def finfo(self, dtype):
                return types.SimpleNamespace(eps=1.0)

        cases = list(dominance_cases())
        monkeypatch.setattr(online_min, "np", WideEps())
        failing = 0
        for cert, tr in cases:
            failing += not assert_same_report(cert, tr, 2).dominance_ok
        assert failing

    def test_bound_covers_the_prefix_sums_rounding(self):
        # The screen's own arithmetic, step by step, against the per-step
        # sums: the difference stays within a quarter of the bound.
        for cert, _ in dominance_cases():
            dstar = cert.dstar
            releases, counts = np.unique(cert.jobs.r, return_counts=True)
            ends = np.array([_support_end(r, dstar, 1) for r in releases.tolist()])
            t = np.arange(dstar + 1)
            lo, hi = np.searchsorted(ends, t), np.searchsorted(releases, t)
            done = np.append(0, np.cumsum(counts))
            log_span = np.log(dstar - releases.astype(np.float64))
            lead = np.append(0.0, np.cumsum(counts * log_span))
            log_now = np.log(np.maximum(dstar - t, 1))
            active = done[hi] - done[lo]
            screen = done[lo] + (lead[hi] - lead[lo] - active * log_now)
            bound = (4 * (len(releases) + 4) * np.finfo(np.float64).eps
                     * (done[lo] + lead[hi] + active * log_now))
            for step in range(dstar + 1):
                a, b = lo[step], hi[step]
                mass = float(done[a])
                if a < b:
                    mass += float((counts[a:b] * (log_span[a:b]
                                                  - math.log(dstar - step))).sum())
                assert abs(screen[step] - mass) <= bound[step] / 4


#: Job (release, span) lists, an alpha, a dstar pick and a grid.
GENERATED_RUNS = (st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)),
                           min_size=1, max_size=30),
                  st.sampled_from(["e", 1, 2, Fraction(3, 2), Fraction(1, 2), 0]),
                  st.integers(0, 10), st.sampled_from([2, 7, 50]))


class TestReportBytes:
    def test_random_corpus_at_every_dstar(self):
        packing = dominance = 0
        for seed in range(40):
            inst = random_unit_instance(1 + seed % 40, 2 + seed % 10, seed=seed)
            for alpha in ("e", 1, 2, Fraction(1, 2)):
                tr = run_alpha_edf(inst, alpha)
                # Every dstar, plus one past the horizon, where the run's
                # m and OFF series hold their last values.
                for dstar in range(1, inst.horizon + 2):
                    rep = assert_same_report(
                        build_certificate(inst.jobs, dstar), tr, 50)
                    packing += not rep.packing_profile_ok
                    dominance += not rep.dominance_ok
        assert packing and dominance

    @pytest.mark.parametrize("n", [4, 8, 20])
    def test_adversary_runs(self, n):
        inst = adversary_instance(n)
        for alpha in ("e", 1, 2):
            tr = run_alpha_edf(inst, alpha)
            for dstar in (n, n + 1):
                assert_same_report(build_certificate(inst.jobs, dstar), tr, 200)

    @pytest.mark.parametrize("grid", [2, 7, 50, 1000])
    def test_large_runs_at_each_grid(self, grid):
        inst = random_unit_instance(2000, 500, seed=1)
        deadlines = sorted({int(j.d) for j in inst.jobs})
        for alpha in ("e", 1):
            tr = run_alpha_edf(inst, alpha)
            rep = assert_same_report(
                build_certificate(inst.jobs, deadlines[-1]), tr, grid)
            assert rep.ok == (alpha == "e")

    @pytest.mark.parametrize("grid", [2, 50])
    def test_empty_certificate(self, grid):
        inst = Instance.of("unit-min", [Job(0, 0, 5)])
        cert = build_certificate(inst.jobs, 3)
        assert len(cert.jobs) == 0
        assert assert_same_report(cert, run_alpha_edf(inst, "e"), grid).ok

    @given(*GENERATED_RUNS)
    def test_generated_runs(self, pairs, alpha, pick, grid):
        inst = Instance.of("unit-min", [Job(i, r, r + span)
                                        for i, (r, span) in enumerate(pairs)])
        tr = run_alpha_edf(inst, alpha)
        assert_same_report(build_certificate(inst.jobs, 1 + pick), tr, grid)


def no_pruning(n, v):
    """An agreement bound that no seed passes: every piece gets the adds."""
    return np.full(len(n), np.inf)


def record_chunks(monkeypatch):
    """Record the grid points of every ``_worst_error`` call; a check's
    first call is its seed, at the pieces' last points."""
    calls, real = [], online_min._worst_error

    def spy(x, n, dstar, g):
        calls.append(x.copy())
        return real(x, n, dstar, g)

    monkeypatch.setattr(online_min, "_worst_error", spy)
    return calls


class TestReportBytesEveryPiece(TestReportBytes):
    """``TestReportBytes`` with every piece added: its reports equal the
    reference's, as the pruned ones do, so pruning changes no byte."""

    @pytest.fixture(autouse=True, scope="class")
    def every_piece(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(online_min, "_agreement_bound", no_pruning)
            yield

    # hypothesis runs one @given function from one class only
    @given(*GENERATED_RUNS)
    def test_generated_runs(self, pairs, alpha, pick, grid):
        TestReportBytes.test_generated_runs.hypothesis.inner_test(self, pairs, alpha, pick, grid)


class TestPruning:
    def test_full_adds_raise_the_seed(self, monkeypatch):
        # at the benchmark's median dstar the seed alone (no piece added)
        # stays under the worst error, so the full adds decide the report
        inst = random_unit_instance(2000, 500, seed=0)
        deadlines = sorted({int(j.d) for j in inst.jobs})
        cert = build_certificate(inst.jobs, deadlines[len(deadlines) // 2])
        tr = run_alpha_edf(inst, "e")
        worst = check_certificate(cert, tr, 1000).agreement_worst
        monkeypatch.setattr(online_min, "_agreement_bound",
                            lambda n, v: np.full(len(n), -np.inf))
        assert check_certificate(cert, tr, 1000).agreement_worst < worst

    def test_adds_skip_most_points(self, monkeypatch):
        inst = random_unit_instance(2000, 500, seed=0)
        cert = build_certificate(inst.jobs, 500)
        calls = record_chunks(monkeypatch)
        check_certificate(cert, run_alpha_edf(inst, "e"), 1000)
        assert 0 < sum(map(len, calls[1:])) < 500 * 1000 / 2


def repeated_add_error(n, v):
    """``|s_n - fl(n*v)|`` as an exact rational, ``s_n`` being ``v`` added
    ``n`` times to 0.0, one float add at a time."""
    s = 0.0
    for _ in range(n):
        s += v
    return abs(Fraction(s) - Fraction(n * v))


BINADES = st.integers(-60, 60)
BOUND_VALUES = st.one_of(
    BINADES.map(lambda e: math.ldexp(1.0, e)),  # exact powers of two
    # a few low mantissa bits set: the sums land on ties
    st.builds(lambda m, e: math.ldexp(1 + m * 2.0**-52, e), st.integers(1, 64), BINADES),
    st.builds(lambda m, e: math.ldexp(2 - m * 2.0**-52, e), st.integers(1, 64), BINADES),
    st.builds(lambda m, e: math.ldexp(1.5 + m * 2.0**-52, e), st.integers(-8, 8), BINADES),
    st.floats(2.0**-60, 2.0**60),
)
BOUND_COUNTS = st.one_of(st.integers(1, 4096), st.sampled_from(
    [2**k + d for k in range(13) for d in (-1, 0, 1) if 1 <= 2**k + d <= 4096]))


class TestAgreementBound:
    """``_agreement_bound`` is at least the exact repeated-add error."""

    @settings(max_examples=300, deadline=None)
    @given(BOUND_COUNTS, BOUND_VALUES)
    def test_bound_covers_the_repeated_adds(self, n, v):
        bound = online_min._agreement_bound(np.array([n]), np.array([v]))[0]
        assert Fraction(bound) >= repeated_add_error(n, v)

    def test_bound_covers_every_grid_point(self):
        inst = random_unit_instance(2000, 500, seed=0)
        inv, acc, counts = reference_grid(build_certificate(inst.jobs, 500), 1000)
        inv, acc, counts = inv[counts > 0], acc[counts > 0], counts[counts > 0]
        # acc and counts*inv lie within a factor 2, so their difference is exact
        ratio = np.abs(acc - counts * inv) / online_min._agreement_bound(counts, inv)
        assert ratio.max() <= 1
        assert ratio.max() > 0.5  # tight enough to prune


class TestChunks:
    """The agreement adds give the whole-grid reference's report bytes
    wherever chunk boundaries fall.  ``_TILE_POINTS`` is cut to 64 points,
    and each case runs pruned and with every piece added, so that the
    added points span several chunks."""

    @pytest.fixture(autouse=True, params=["pruned", "every piece"])
    def chunks(self, request, monkeypatch):
        monkeypatch.setattr(online_min, "_TILE_POINTS", 64)
        self.every_piece = request.param == "every piece"
        if self.every_piece:
            monkeypatch.setattr(online_min, "_agreement_bound", no_pruning)
        self.calls = record_chunks(monkeypatch)

    def check(self, cert, transcript, grid):
        """The report, checked against the reference, and its chunks."""
        self.calls.clear()
        return assert_same_report(cert, transcript, grid), self.calls[1:]

    @pytest.mark.parametrize("seed", range(4))
    def test_dstar_off_the_chunk_rows(self, seed):
        # grid 10: a chunk holds 6.4 rows' points, and 13 rows are no multiple
        inst = random_unit_instance(60, 13, seed=seed)
        most = 0
        for alpha in ("e", 1, Fraction(1, 2)):
            tr = run_alpha_edf(inst, alpha)
            for dstar in (5, 7, 13):
                _, chunks = self.check(build_certificate(inst.jobs, dstar), tr, 10)
                most = max(most, len(chunks))
        assert most > 1 or not self.every_piece

    @pytest.mark.parametrize("grid", [65, 100])
    def test_rows_wider_than_a_chunk(self, grid):
        # a piece can be a whole row, wider than a chunk
        inst = random_unit_instance(30, 8, seed=3)
        for alpha in ("e", 1):
            tr = run_alpha_edf(inst, alpha)
            for dstar in (1, 4, 8):
                _, chunks = self.check(build_certificate(inst.jobs, dstar), tr, grid)
                assert all(len(x) <= 64 for x in chunks)
                assert len(chunks) > 1 or dstar == 1

    @pytest.mark.parametrize("alpha", [0, Fraction(1, 2), 1])
    def test_first_hundred_packing_failures_across_chunks(self, alpha):
        inst = random_unit_instance(80, 12, seed=5)
        tr = run_alpha_edf(inst, alpha)
        rep, chunks = self.check(build_certificate(inst.jobs, 12), tr, 10)
        # at alpha 0 no step has a machine
        assert len(rep.packing_profile_failures) == (100 if alpha < 1 else 85)
        rows = {round(t * 10) // 10 for t, _, _ in rep.packing_profile_failures}
        met = {i for i, x in enumerate(chunks) if rows & set((x // 10).tolist())}
        assert len(met) > 1 or not self.every_piece

    @pytest.mark.parametrize("grid", [7, 10, 100])
    def test_dstar_past_the_horizon(self, grid):
        inst = random_unit_instance(40, 9, seed=2)
        for alpha in ("e", Fraction(1, 2)):
            tr = run_alpha_edf(inst, alpha)
            self.check(build_certificate(inst.jobs, inst.horizon + 1), tr, grid)


def test_packing_pass_holds_no_grid_sized_array():
    # the size probe is one float64 array over the grid, 3.8 MiB; two
    # such arrays at once pass 6 MiB
    inst = random_unit_instance(2000, 500, seed=0)
    tr = run_alpha_edf(inst, "e")
    cert = build_certificate(inst.jobs, 500)
    tracemalloc.start()
    try:
        check_certificate(cert, tr, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
