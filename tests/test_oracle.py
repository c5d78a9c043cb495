"""Offline ground truth: EDF runs, feasibility oracles, optima, bounds."""
import itertools

import pytest
from fractions import Fraction
from hypothesis import example, given
from hypothesis import strategies as st

from schedlab.core import ContractViolation, Instance, Job, MachineProfile, ValidationError
from schedlab.generators import (
    adversary_instance,
    random_unit_instance,
    throughput_instance,
)
from schedlab.oracle import (
    EdfQueue,
    IncrementalOff,
    _DeadlineHull,
    brute_force_feasible,
    edf_simulate,
    flow_feasible,
    off_prefix_series,
    off_unit,
    offline_throughput_opt,
    volume_lower_bound,
)


def unit_jobs(*windows):
    return [Job(i, r, d) for i, (r, d) in enumerate(windows)]


def all_small_instances():
    """Every multiset of up to 3 unit windows inside [0, 3]."""
    windows = [(r, d) for r in range(3) for d in range(r + 1, 4)]
    for size in range(1, 4):
        for combo in itertools.combinations_with_replacement(windows, size):
            yield unit_jobs(*combo)


SMALL_PROFILES = [
    MachineProfile.constant(1, 4),
    MachineProfile.constant(2, 4),
    MachineProfile.from_series([2, 0, 1, 1]),
]


class TestEdfSimulate:
    def test_order_forced_by_deadlines(self):
        trace, sched = edf_simulate(unit_jobs((0, 1), (0, 2)),
                                    MachineProfile.constant(1, 2))
        assert trace.chosen == [[0], [1]]
        assert sched.misses == []

    def test_one_slot_two_jobs_misses_one(self):
        trace, sched = edf_simulate(unit_jobs((0, 1), (0, 1)),
                                    MachineProfile.constant(1, 1))
        assert len(trace.chosen[0]) == 1
        assert len(sched.misses) == 1

    def test_varying_profile_fits_three_jobs(self):
        trace, sched = edf_simulate(unit_jobs((0, 2), (0, 2), (1, 2)),
                                    MachineProfile.from_series([2, 1]))
        assert trace.chosen == [[0, 1], [2]]
        assert sched.misses == []

    def test_non_unit_job_rejected(self):
        with pytest.raises(ContractViolation):
            edf_simulate([Job(0, 0, 4, p=2)], MachineProfile.constant(1, 4))

    def test_trace_slots_respect_quota_and_windows(self):
        inst = random_unit_instance(14, 6, seed=3)
        profile = MachineProfile.from_series([3, 1, 2, 2, 1, 3])
        trace, sched = edf_simulate(inst.jobs, profile)
        by_id = inst.jobs_by_id()
        for t, slot in enumerate(trace.chosen):
            assert len(slot) <= profile.at(t)
            for jid in slot:
                j = by_id[jid]
                assert j.r <= t and t + 1 <= j.d

    def test_miss_recorded_at_expiry_or_at_deadline(self):
        # Job 1 expires at step 1 while pending; job 3 is never run, so the
        # drain records it at its deadline 3.
        trace, sched = edf_simulate(unit_jobs((0, 1), (0, 1), (0, 3), (1, 3)),
                                    MachineProfile.from_series([1, 1, 0]))
        assert trace.chosen == [[0], [2], []]
        assert trace.miss_events == [(1, 1), (3, 3)]
        assert sched.misses == [1, 3]
        assert sched.assignments == [(0, 0, 0), (2, 0, 1)]

    def test_queue_steps_with_varying_quota(self):
        edf = EdfQueue()
        assert edf.step(0, unit_jobs((0, 3), (0, 2), (0, 2)), 2) == [1, 2]
        assert edf.step(1, [], 0) == []
        assert edf.step(2, [Job(3, 2, 3)], 5) == [0, 3]
        trace, sched = edf.finish()
        assert sched.assignments == [(1, 0, 0), (2, 1, 0), (0, 0, 2), (3, 1, 2)]
        assert trace.miss_events == [] and sched.misses == []


class TestFlowFeasible:
    def test_three_jobs_one_slot(self):
        jobs = unit_jobs((0, 1), (0, 1), (0, 1))
        assert not flow_feasible(jobs, MachineProfile.constant(2, 1), 1)

    def test_two_jobs_two_slots(self):
        jobs = unit_jobs((0, 2), (0, 2))
        assert flow_feasible(jobs, MachineProfile.constant(1, 2), 2)

    def test_three_jobs_two_unit_slots(self):
        jobs = unit_jobs((0, 1), (0, 2), (1, 2))
        assert not flow_feasible(jobs, MachineProfile.constant(1, 2), 2)

    def test_deadline_cutoff_ignores_later_jobs(self):
        jobs = unit_jobs((0, 1), (0, 5), (0, 5), (0, 5))
        assert flow_feasible(jobs, MachineProfile.constant(1, 5), 1)


class TestSmallInstanceAgreement:
    def test_edf_flow_and_brute_force_agree(self):
        checked = 0
        for jobs in all_small_instances():
            d = max(j.d for j in jobs)
            for profile in SMALL_PROFILES:
                _, sched = edf_simulate(jobs, profile)
                edf_ok = not sched.misses
                assert edf_ok == flow_feasible(jobs, profile, d)
                assert edf_ok == brute_force_feasible(jobs, profile)
                checked += 1
        assert checked > 200

    def test_brute_force_refuses_large_instances(self):
        jobs = [Job(i, 0, 9) for i in range(9)]
        with pytest.raises(ContractViolation):
            brute_force_feasible(jobs, MachineProfile.constant(9, 9))


class TestOffUnit:
    def test_three_jobs_one_slot(self):
        assert off_unit(unit_jobs((0, 1), (0, 1), (0, 1))) == 3

    def test_staircase_needs_two(self):
        assert off_unit(unit_jobs((0, 1), (0, 2), (1, 2))) == 2

    def test_two_jobs_two_slots(self):
        assert off_unit(unit_jobs((0, 2), (0, 2))) == 1

    def test_empty(self):
        assert off_unit([]) == 0

    def test_is_minimum_of_feasible_constants(self):
        for seed in range(8):
            inst = random_unit_instance(9, 5, seed=seed)
            m_star = off_unit(inst.jobs)
            d = max(j.d for j in inst.jobs)
            feasible = [m for m in range(1, len(inst.jobs) + 1)
                        if flow_feasible(inst.jobs,
                                         MachineProfile.constant(m, d), d)]
            assert m_star == min(feasible)


class TestOffSeries:
    def test_adversary_four_steps(self):
        inst = adversary_instance(4, 16)
        series = off_prefix_series(inst.jobs)
        assert [series[t] for t in range(4)] == [1, 3, 5, 16]

    def test_single_job(self):
        assert off_prefix_series([Job(0, 0, 5)]) == {0: 1}

    def test_nondecreasing_and_final_value(self):
        for seed in range(6):
            inst = random_unit_instance(12, 6, seed=seed)
            series = off_prefix_series(inst.jobs)
            vals = [series[t] for t in sorted(series)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == off_unit(inst.jobs)

    def test_matches_off_unit_of_every_prefix_on_corpus(self):
        # Horizons up to 20 give columns enough rows for the hull to drop
        # the ones behind its pointer and keep answering after the drop.
        for jobs, horizon in ((30, 8), (60, 20)):
            for seed in range(30):
                inst = random_unit_instance(jobs, horizon, seed=seed)
                for t, value in off_prefix_series(inst.jobs).items():
                    assert value == off_unit([j for j in inst.jobs if j.r <= t])

    def test_incremental_matches_batch(self):
        inst = random_unit_instance(18, 6, seed=4)
        series = off_prefix_series(inst.jobs)
        inc = IncrementalOff.for_jobs(inst.jobs)
        by_release = {}
        for j in inst.jobs:
            by_release.setdefault(int(j.r), []).append(j)
        for t in sorted(series):
            assert inc.add(by_release.get(t, []), t) == series[t]

    def test_unsorted_input_and_empty_steps(self):
        jobs = [Job(0, 4, 5), Job(1, 0, 3), Job(2, 4, 5), Job(3, 0, 1)]
        assert off_prefix_series(jobs) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 2}


class TestIncrementalOff:
    def test_repeated_step_rejected(self):
        inc = IncrementalOff([5])
        inc.add([Job(0, 3, 5)], 3)
        with pytest.raises(ContractViolation):
            inc.add([], 3)
        with pytest.raises(ContractViolation):
            inc.add([Job(1, 2, 5)], 2)
        assert inc.value == 1

    def test_skipped_steps_allowed(self):
        inc = IncrementalOff([4, 6])
        assert inc.add([Job(0, 1, 4), Job(1, 1, 6)], 1) == 1
        assert inc.add([Job(2, 3, 4), Job(3, 3, 4)], 3) == 2

    def test_wrong_release_rejected(self):
        with pytest.raises(ContractViolation, match="job 7 released at 1"):
            IncrementalOff([5]).add([Job(0, 2, 5), Job(7, 1, 5)], 2)

    def test_unregistered_or_past_deadline_rejected(self):
        with pytest.raises(ContractViolation, match="job 1 due at 4"):
            IncrementalOff([5]).add([Job(0, 0, 5), Job(1, 0, 4)], 0)
        inc = IncrementalOff([2, 5])
        inc.add([Job(0, 0, 2)], 0)
        with pytest.raises(ContractViolation, match="job 1 due at 2"):
            inc.add([Job(1, 2, 2)], 2)


class TestDeadlineHull:
    def test_adversary_stream_leaves_constant_lines(self):
        # The final burst leads from the newest row, so every older row ends
        # up behind the pointer and must not be kept.
        n = 3000
        hull = _DeadlineHull(n)
        released = 0
        for t in range(n):
            hull.add(t, released)
            released += n * n // (n - t)
            hull.query_ceil(released)
        assert len(hull.lines) <= 2
        # the last step alone releases N = n * n jobs into one slot
        assert hull.query_ceil(released) == n * n


# Windows ``[r, r + span)`` with releases up to 8, so some steps release
# nothing, spans of 1 (``d = r + 1``) and repeated deadlines are common, and
# the list is in whatever order hypothesis draws it.
unit_windows = st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)),
                        min_size=1, max_size=30)


@given(unit_windows)
def test_engine_matches_off_unit_of_every_prefix(pairs):
    jobs = [Job(i, r, r + span) for i, (r, span) in enumerate(pairs)]
    series = off_prefix_series(jobs)
    assert sorted(series) == list(range(max(r for r, _ in pairs) + 1))
    for t, value in series.items():
        assert value == off_unit([j for j in jobs if j.r <= t])
    # Driven only at the steps that release, the engine gives the same values.
    inc = IncrementalOff.for_jobs(jobs)
    for t in sorted({j.r for j in jobs}):
        assert inc.add([j for j in jobs if j.r == t], t) == series[t]


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)), min_size=1,
                max_size=8))
def test_engine_matches_brute_force(pairs):
    jobs = [Job(i, r, min(r + span, 6)) for i, (r, span) in enumerate(pairs)]
    series = off_prefix_series(jobs)
    for t, value in series.items():
        prefix = [j for j in jobs if j.r <= t]
        horizon = max((j.d for j in prefix), default=0)
        feasible = [m for m in range(len(prefix) + 1)
                    if brute_force_feasible(
                        prefix, MachineProfile.constant(m, horizon))]
        assert value == feasible[0]


def reference_volume_lower_bound(jobs, d):
    """Reference bound: rescan every job at each release, O(n·R)."""
    if not jobs:
        return 0
    best = 1
    for r in sorted({j.r for j in jobs} | {0}):
        vol = sum(j.p for j in jobs if j.r >= r)
        if vol == 0:
            continue
        q = Fraction(vol) / (Fraction(d) - Fraction(r))
        need = -(-q.numerator // q.denominator)
        best = max(best, need)
    return best


@st.composite
def volume_cases(draw):
    """Jobs against a common deadline ``d``: int and rational releases from
    a small pool, so releases repeat; with ``lo > 0`` no job sits at 0;
    lengths include non-dyadic rationals."""
    d = draw(st.integers(1, 31))
    lo = draw(st.sampled_from([0, Fraction(1, 3)]))
    release = st.one_of(st.integers(0, d - 1),
                        st.fractions(0, d, max_denominator=12)
                        ).filter(lambda r: lo <= r < d)
    length = st.one_of(st.integers(1, 5),
                       st.fractions(0, 5, max_denominator=12).filter(bool))
    pool = draw(st.lists(release, min_size=1, max_size=4))
    jobs = [Job(i, draw(st.sampled_from(pool)), d, p=draw(length))
            for i in range(draw(st.integers(1, 12)))]
    return jobs, d


class TestVolumeLowerBound:
    # Examples: one job, none at 0; a repeated int release before a
    # rational one; a job at 0 and a repeated rational release.
    @given(volume_cases())
    @example(([Job(0, Fraction(5, 2), 3, p=Fraction(1, 3))], 3))
    @example(([Job(0, 1, 7, p=Fraction(2, 3)), Job(1, 1, 7, p=5),
               Job(2, Fraction(4, 3), 7, p=Fraction(17, 3))], 7))
    @example(([Job(0, 0, 7, p=3), Job(1, Fraction(1, 3), 7, p=Fraction(1, 7)),
               Job(2, Fraction(1, 3), 7, p=Fraction(20, 3))], 7))
    def test_matches_quadratic_reference(self, case):
        jobs, d = case
        assert volume_lower_bound(jobs, d) == reference_volume_lower_bound(jobs, d)

    def test_late_pair(self):
        jobs = [Job(0, 3, 7, p=4), Job(1, 3, 7, p=4)]
        assert volume_lower_bound(jobs, 7) == 2

    def test_single_full_window(self):
        assert volume_lower_bound([Job(0, 0, 7, p=7)], 7) == 1

    def test_four_last_minute_jobs(self):
        jobs = [Job(i, 6, 7) for i in range(4)]
        assert volume_lower_bound(jobs, 7) == 4

    def test_empty(self):
        assert volume_lower_bound([], 7) == 0

    def test_dyadic_lengths(self):
        jobs = [Job(0, Fraction(1, 2), 3, p=Fraction(5, 4)),
                Job(1, 0, 3, p=Fraction(1, 4))]
        assert volume_lower_bound(jobs, 3) == 1

    def test_never_exceeds_unit_optimum(self):
        for seed in range(10):
            inst = random_unit_instance(10, 7, seed=seed)
            jobs = [j._replace(d=7) for j in inst.jobs]
            assert volume_lower_bound(jobs, 7) <= off_unit(jobs)


class TestThroughputOpt:
    def test_one_slot_takes_heavier(self):
        inst = Instance.of(
            "throughput", [Job(0, 0, 1, w=3), Job(1, 0, 1, w=5)], k=1)
        weight, sched = offline_throughput_opt(inst)
        assert weight == 5
        assert [a[0] for a in sched.assignments] == [1]

    def test_two_machines_take_both(self):
        inst = Instance.of(
            "throughput", [Job(0, 0, 1, w=3), Job(1, 0, 1, w=5)], k=2)
        weight, _ = offline_throughput_opt(inst)
        assert weight == 8

    def test_displacement_chain(self):
        inst = Instance.of(
            "throughput",
            [Job(0, 0, 1, w=3), Job(1, 0, 2, w=5), Job(2, 1, 2, w=4)], k=1)
        weight, sched = offline_throughput_opt(inst)
        assert weight == 9
        placed = {a[0]: a[2] for a in sched.assignments}
        assert placed == {1: 0, 2: 1}

    def test_respects_windows_and_capacity(self):
        inst = throughput_instance(12, 5, k=2, seed=2)
        weight, sched = offline_throughput_opt(inst)
        by_id = inst.jobs_by_id()
        slots = {}
        for jid, machine, start in sched.assignments:
            j = by_id[jid]
            assert j.r <= start and start + 1 <= j.d
            slots.setdefault(start, set()).add(machine)
        assert all(len(ms) <= inst.k for ms in slots.values())
        assert weight == sum(by_id[a[0]].w for a in sched.assignments)

    def test_fractional_window_refused(self):
        inst = Instance.of("throughput", [Job(0, Fraction(1, 2), 2, w=3)], k=1)
        with pytest.raises(ValidationError):
            offline_throughput_opt(inst)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), min_size=1,
                max_size=7))
def test_off_unit_capacity_suffices(pairs):
    jobs = [Job(i, r, r + span) for i, (r, span) in enumerate(pairs)]
    jobs.sort(key=lambda j: (j.r, j.id))
    jobs = [j._replace(id=i) for i, j in enumerate(jobs)]
    m = off_unit(jobs)
    d = max(j.d for j in jobs)
    _, sched = edf_simulate(jobs, MachineProfile.constant(m, d))
    assert sched.misses == []
    if m > 1:
        _, tight = edf_simulate(jobs, MachineProfile.constant(m - 1, d))
        assert tight.misses
