"""Offline ground truth: EDF runs, feasibility oracles, optima, bounds."""
import heapq
import itertools
from collections import Counter

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from schedlab import oracle
from schedlab.core import (ContractViolation, Instance, Job, MachineProfile,
                           Schedule, UnitJobs, ValidationError, unit_columns)
from schedlab.generators import (
    adversary_instance,
    random_unit_instance,
    throughput_instance,
)
from schedlab.oracle import (
    EdfQueue,
    EdfTrace,
    IncrementalOff,
    brute_force_feasible,
    distinct_deadlines,
    edf_simulate,
    flow_feasible,
    off_prefix_series,
    off_unit,
    offline_throughput_opt,
    release_blocks,
    volume_lower_bound,
)

from reference_hull import ReferenceOff


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
    MachineProfile(dict(enumerate([2, 0, 1, 1]))),
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
                                    MachineProfile(dict(enumerate([2, 1]))))
        assert trace.chosen == [[0, 1], [2]]
        assert sched.misses == []

    def test_non_unit_job_rejected(self):
        with pytest.raises(ContractViolation):
            edf_simulate([Job(0, 0, 4, p=2)], MachineProfile.constant(1, 4))

    def test_trace_slots_respect_quota_and_windows(self):
        inst = random_unit_instance(14, 6, seed=3)
        profile = MachineProfile(dict(enumerate([3, 1, 2, 2, 1, 3])))
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
                                    MachineProfile(dict(enumerate([1, 1, 0]))))
        assert trace.chosen == [[0], [2], []]
        assert trace.miss_events == [(1, 1), (3, 3)]
        assert sched.misses == [1, 3]
        assert sched.assignments == [(0, 0, 0), (2, 0, 1)]

    def test_queue_steps_with_varying_quota(self):
        edf = EdfQueue()
        assert edf.step(0, unit_columns(unit_jobs((0, 3), (0, 2), (0, 2))), 2) == [1, 2]
        assert edf.step(1, unit_columns([]), 0) == []
        assert edf.step(2, unit_columns([Job(3, 2, 3)]), 5) == [0, 3]
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

    def test_rows_and_columns_agree(self):
        jobs = random_unit_instance(60, 12, seed=4).jobs
        assert off_unit(jobs) == off_unit(list(jobs))

    def test_empty_window_refused_by_first_offender(self):
        jobs = unit_jobs((0, 2), (3, 3), (1, 0))
        with pytest.raises(ContractViolation,
                           match=r"job 1 window \[3, 3\) cannot hold a unit job"):
            off_unit(jobs)
        with pytest.raises(ContractViolation, match="job 1 window"):
            off_unit(unit_columns(jobs))

    def test_is_minimum_of_feasible_constants(self):
        for seed in range(8):
            inst = random_unit_instance(9, 5, seed=seed)
            m_star = off_unit(inst.jobs)
            d = max(j.d for j in inst.jobs)
            feasible = [m for m in range(1, len(inst.jobs) + 1)
                        if flow_feasible(inst.jobs,
                                         MachineProfile.constant(m, d), d)]
            assert m_star == min(feasible)


@given(st.lists(st.integers(-3, 3), max_size=12).map(sorted) | st.lists(st.integers(-3, 3)))
def test_distinct_deadlines_are_unique_values(d):
    # runs of equal deadlines, sorted or not, and the empty column
    column = np.array(d, dtype=np.int64)
    assert distinct_deadlines(column) == np.unique(column).tolist()


@st.composite
def release_streams(draw):
    """Unit jobs as ``Job`` rows in any order: ids shuffled, ties of
    deadline with ids out of order, steps that release nothing, and streams
    all due at one deadline; some already in ``(r, d, id)`` order."""
    horizon = draw(st.integers(1, 10))
    ids = draw(st.permutations(range(draw(st.integers(0, 25)))))
    one_deadline = draw(st.booleans())
    rows = []
    for i in ids:
        r = draw(st.integers(0, horizon - 1))
        rows.append(Job(i, r, horizon if one_deadline else draw(st.integers(r + 1, horizon))))
    if draw(st.booleans()):
        rows.sort(key=lambda j: (j.r, j.d, j.id))
    return rows, draw(st.integers(0, horizon + 2))


@settings(max_examples=200)
@given(release_streams())
def test_release_blocks_match_stably_sorted_slices(stream):
    rows, steps = stream
    jobs = unit_columns(rows)
    # the construction the blocks replace: slices of the columns stably
    # sorted by release, each checked and grouped on its own
    ordered = jobs[np.argsort(jobs.r, kind="stable")]
    bounds = np.searchsorted(ordered.r, np.arange(steps + 1)).tolist()
    blocks = list(release_blocks(jobs, steps))
    assert len(blocks) == steps
    for block, lo, hi in zip(blocks, bounds, bounds[1:]):
        old = UnitJobs(ordered.ids[lo:hi], ordered.r[lo:hi], ordered.d[lo:hi])
        assert block == old and block.id_list() == old.ids.tolist()
        pairs = sorted(zip(block.d.tolist(), block.ids.tolist()))
        assert block.by_deadline() == old.by_deadline() == tuple(
            (e, tuple(i for _, i in run)) for e, run in itertools.groupby(pairs, key=lambda x: x[0]))
        for column in (block.ids, block.r, block.d):
            with pytest.raises(ValueError):
                column[:1] = 0
        ids = block.id_list()
        ids.append(-1)
        assert block.id_list() == old.ids.tolist() and block.by_deadline() == old.by_deadline()


def test_one_deadline_blocks_share_their_id_tuple():
    # every adversary step is due at n, in id order: its one group is the
    # block's id tuple itself, so no step builds a second one
    blocks = list(release_blocks(adversary_instance(20).jobs, 20))
    for block in blocks:
        ((_, ids),) = block.by_deadline()
        assert ids is block._id_list and list(ids) == block.id_list()


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
        inc = IncrementalOff(inst.jobs.d.tolist())
        by_release = {}
        for j in inst.jobs:
            by_release.setdefault(int(j.r), []).append(j)
        for t in sorted(series):
            assert inc.add(unit_columns(by_release.get(t, [])), t) == series[t]

    def test_unsorted_input_and_empty_steps(self):
        jobs = [Job(0, 4, 5), Job(1, 0, 3), Job(2, 4, 5), Job(3, 0, 1)]
        assert off_prefix_series(jobs) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 2}


class TestIncrementalOff:
    def test_repeated_step_rejected(self):
        inc = IncrementalOff([5])
        inc.add(unit_columns([Job(0, 3, 5)]), 3)
        with pytest.raises(ContractViolation):
            inc.add(unit_columns([]), 3)
        with pytest.raises(ContractViolation):
            inc.add(unit_columns([Job(1, 2, 5)]), 2)
        assert inc.value == 1

    def test_skipped_steps_allowed(self):
        inc = IncrementalOff([4, 6])
        assert inc.add(unit_columns([Job(0, 1, 4), Job(1, 1, 6)]), 1) == 1
        assert inc.add(unit_columns([Job(2, 3, 4), Job(3, 3, 4)]), 3) == 2

    def test_wrong_release_rejected(self):
        with pytest.raises(ContractViolation, match="job 7 released at 1"):
            IncrementalOff([5]).add(unit_columns([Job(0, 2, 5), Job(7, 1, 5)]), 2)

    def test_unregistered_or_past_deadline_rejected(self):
        with pytest.raises(ContractViolation, match="job 1 due at 4"):
            IncrementalOff([5]).add(unit_columns([Job(0, 0, 5), Job(1, 0, 4)]), 0)
        inc = IncrementalOff([2, 5])
        inc.add(unit_columns([Job(0, 0, 2)]), 0)
        with pytest.raises(ContractViolation, match="job 1 due at 2"):
            inc.add(unit_columns([Job(1, 2, 2)]), 2)


    def test_refused_block_leaves_engine_unchanged(self, hull_path):
        first = unit_columns([Job(0, 1, 5), Job(1, 1, 8)])
        later = unit_columns([Job(2, 3, 8), Job(3, 3, 5), Job(4, 3, 5)])
        last = unit_columns([Job(8, 4, 5)])
        inc = IncrementalOff([5, 8])
        with pytest.raises(ContractViolation, match="job 9 due at 2"):
            inc.add(unit_columns([Job(9, 1, 2)]), 1)
        inc.add(first, 1)
        state = column_state(inc, 1)
        with pytest.raises(ContractViolation, match="job 6 due at 6"):
            inc.add(unit_columns([Job(5, 3, 8), Job(6, 3, 6)]), 3)
        with pytest.raises(ContractViolation, match="job 7 released at 2"):
            inc.add(unit_columns([Job(7, 2, 8)]), 3)
        assert column_state(inc, 1) == state
        fresh = IncrementalOff([5, 8])
        fresh.add(first, 1)
        assert inc.add(later, 3) == fresh.add(later, 3) == 1
        assert column_state(inc, 3) == column_state(fresh, 3)
        assert inc.add(last, 4) == fresh.add(last, 4) == 2
        assert column_state(inc, 4) == column_state(fresh, 4)

    def test_adversary_stream_leaves_constant_lines(self):
        # The final burst starts a busy period of its own, so every older
        # row of the one column must be dropped.
        n = 300
        jobs = adversary_instance(n).jobs
        inc = IncrementalOff([n])
        for t, released in enumerate(release_blocks(jobs, n)):
            inc.add(released, t)
        (column,) = inc._columns
        assert column.s == [n - 1]
        # the last step alone releases N = n * n jobs into one slot
        assert inc.value == n * n

    def test_int64_until_the_bound_then_python_ints(self, monkeypatch):
        # Values stay within 2 * total * H, H the widest window: with
        # H = 2^60 the table path holds 3 jobs in int64, and the 4th
        # switches it to Python ints for good.
        monkeypatch.setattr(oracle, "_SCALAR_COLUMNS", 0)
        e = 2**60
        inc = IncrementalOff([e])
        ref = ReferenceOff([e])
        assert inc.add(unit_block(range(3), 0, e), 0) == ref.add({e: 3}, 0)
        assert inc._E.dtype == inc._slack.dtype == inc._start.dtype == np.int64
        assert inc.add(unit_block(range(3, 4), 1, e), 1) == ref.add({e: 1}, 1)
        assert inc._E.dtype == inc._slack.dtype == inc._start.dtype == object
        assert inc.add(unit_block(range(4, 5), 2, e), 2) == ref.add({e: 1}, 2)
        assert inc._slack.dtype == object
        # Past 2^62 even one job exceeds the bound; a registered deadline
        # past int64 starts the columns in Python ints too.
        d = 2**62 + 5
        inc = IncrementalOff([d, 2**70])
        assert inc.add(unit_block([0], 0, d), 0) == 1
        assert inc._E.dtype == inc._slack.dtype == object
        assert inc.add(unit_block([1, 2, 3], d - 1, d), d - 1) == 3

    def test_long_busy_period_over_many_columns(self, hull_path, monkeypatch):
        # Five jobs a step, spread over 60 deadlines from 200 on, outrun
        # every rate OFF reaches (3), so the last column's backlog never
        # drains: each increase reads its whole history, in window tables
        # of at most 64 cells.
        monkeypatch.setattr(oracle, "_WINDOW_CELLS", 64)
        deadlines = list(range(200, 260))
        inc, ref = IncrementalOff(deadlines), ReferenceOff(deadlines)
        ids = 0
        for t in range(150):
            due = Counter(deadlines[(7 * t + 11 * i) % 60] for i in range(5))
            d = np.repeat(list(due), list(due.values()))
            block = UnitJobs(np.arange(ids, ids + len(d)), np.full(len(d), t), d)
            ids += len(d)
            assert inc.add(block, t) == ref.add(dict(due), t)
        assert inc.value == 3
        assert column_state(inc, 149)[-1] == (259, 3 * 259 - 750, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_matches_reference_at_scale(self, seed):
        jobs = random_unit_instance(5000, 1000, seed).jobs
        ref = ReferenceOff(jobs.d.tolist())
        steps = int(jobs.r.max()) + 1
        expected = {t: ref.add(dict(Counter(block.d.tolist())), t)
                    for t, block in enumerate(release_blocks(jobs, steps))}
        assert off_prefix_series(jobs) == expected


def column_state(inc, t):
    """``(deadline, slack, busy start)`` of each column of ``inc`` due
    after step ``t`` that a row has reached, read from either path."""
    if inc._columns is not None:
        return [(c.e, c.slack, c.s[0]) for c in inc._columns if c.e > t and c.s]
    return [(e, slack, start + inc._origin)
            for e, slack, start in zip(inc._deadlines, inc._slack.tolist(),
                                       inc._start.tolist())
            if e > t and start >= 0]


def unit_block(ids, t, d):
    """Unit jobs with the given ids, all released at ``t`` and due at ``d``."""
    ids = np.asarray(list(ids), dtype=np.int64)
    return UnitJobs(ids, np.full(len(ids), t), np.full(len(ids), d))


@st.composite
def off_streams(draw):
    """``(deadlines, steps)`` for one engine run: registered deadline
    columns and, per releasing step ``t``, the count due at each deadline.

    Four shapes: up to about 50 columns over 30 steps, with skipped steps,
    ``d = r + 1`` and unused columns; one column; one column whose busy
    window keeps many rows on its hull; and windows from ``2^58`` to past
    ``2^62``, whose totals cross the int64 bound mid-stream or start past
    it.
    """
    shape = draw(st.sampled_from(("columns", "one", "deep", "wide")))
    steps = []
    if shape == "columns":
        deadlines = set()
        for t in sorted(draw(st.sets(st.integers(0, 29), min_size=1, max_size=20))):
            ends = draw(st.lists(st.integers(t + 1, t + 30), min_size=1,
                                 max_size=4))
            due = {d: draw(st.integers(1, 6)) for d in ends}
            steps.append((t, due))
            deadlines |= set(due)
        deadlines |= draw(st.sets(st.integers(1, 60), max_size=10))
        return sorted(deadlines), steps
    if shape == "one":
        e = draw(st.integers(1, 200))
        counts = draw(st.lists(st.integers(0, 50), min_size=1, max_size=e))
    elif shape == "deep":
        e = draw(st.integers(200, 1000))
        slope, noise = draw(st.integers(1, 5)), draw(st.integers(0, 3))
        counts = [slope * s + 1 + draw(st.integers(0, noise))
                  for s in range(draw(st.integers(20, 60)))]
    else:
        e = draw(st.integers(2**58, 2**63 - 1))
        counts = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    return [e], [(t, {e: a}) for t, a in enumerate(counts) if a]


@settings(max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(off_streams())
@example(([1, 2, 3], [(0, {1: 2, 3: 1}), (2, {3: 4})]))
@example(([2**60], [(t, {2**60: 1}) for t in range(8)]))
# Bursts that grow late on one column, so that its ceiling's pointer
# reaches the column's last row.
@example(([13], [(t, {13: a}) for t, a in enumerate(
    [1, 0, 2, 0, 3, 0, 34, 74, 116, 144, 589, 783, 863]) if a]))
def test_engine_matches_per_column_hulls(hull_path, stream):
    deadlines, steps = stream
    inc, ref = IncrementalOff(deadlines), ReferenceOff(deadlines)
    ids = 0
    for t, due in steps:
        d = np.repeat(list(due), list(due.values()))
        block = UnitJobs(np.arange(ids, ids + len(d)), np.full(len(d), t), d)
        ids += len(d)
        assert inc.add(block, t) == ref.add(due, t)
    assert inc.value == ref.value
    if not steps:
        return
    if hull_path:
        assert inc._columns is not None
        return
    # The table path's columns turn to Python ints exactly once
    # 2 * total * H passes int64, H the widest window from the first
    # releasing step.
    widest = max(deadlines) - steps[0][0]
    wide = 2 * ids * widest > 2**63 - 1
    assert inc._slack.dtype == (object if wide else np.int64)


def test_paths_leave_the_same_slack_and_busy_starts(monkeypatch):
    # One stream on both paths.  Step t releases t // 2 + 1 jobs due at a
    # live deadline that cycles over the columns, so a step reaches from one
    # column to all of them, and the columns fall due from step 130 on.
    # The last column, due at 2^54, puts the int64 bound at 256 jobs: the
    # table path turns to Python ints at step 30.
    deadlines = [130 + 3 * i for i in range(40)] + [2**54]
    table, narrow = IncrementalOff(deadlines), IncrementalOff(deadlines)
    ids = 0
    for t in range(230):
        live = [d for d in deadlines if d > t]
        block = unit_block(range(ids, ids + t // 2 + 1), t, live[(7 * t) % len(live)])
        ids += t // 2 + 1
        for cut, inc in ((0, table), (2**62, narrow)):
            monkeypatch.setattr(oracle, "_SCALAR_COLUMNS", cut)
            inc.add(block, t)
        assert table.value == narrow.value
        assert column_state(table, t) == column_state(narrow, t)
    assert table._columns is None and narrow._columns is not None
    assert table._slack.dtype == object


# Windows ``[r, r + span)`` with releases up to 8, so some steps release
# nothing, spans of 1 (``d = r + 1``) and repeated deadlines are common, and
# the list is in whatever order hypothesis draws it.
unit_windows = st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)),
                        min_size=1, max_size=30)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(unit_windows)
def test_engine_matches_off_unit_of_every_prefix(hull_path, pairs):
    jobs = [Job(i, r, r + span) for i, (r, span) in enumerate(pairs)]
    series = off_prefix_series(jobs)
    assert sorted(series) == list(range(max(r for r, _ in pairs) + 1))
    for t, value in series.items():
        assert value == off_unit([j for j in jobs if j.r <= t])
    # Driven only at the steps that release, the engine gives the same values.
    inc = IncrementalOff(j.d for j in jobs)
    for t in sorted({j.r for j in jobs}):
        assert inc.add(unit_columns([j for j in jobs if j.r == t]), t) == series[t]


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

    def test_weights_past_the_exact_range_refused(self):
        # float64 rounds 2**53 + 1 to 2**53: the solve reported 2**53
        inst = Instance.of("throughput", [Job(0, 0, 1, w=2**53 + 1),
                                          Job(1, 0, 1, w=2**53)], k=1)
        with pytest.raises(ContractViolation, match="exact range"):
            offline_throughput_opt(inst)

    def test_weights_below_float_range_are_exact(self):
        # As floats both weights are 0.0: the solve placed job 0 and
        # reported 1e-400.  Over their common scale they are 1 and 2.
        tiny = Fraction(1, 10**400)
        inst = Instance.of("throughput", [Job(0, 0, 1, w=tiny),
                                          Job(1, 0, 1, w=2 * tiny)], k=1)
        weight, sched = offline_throughput_opt(inst)
        assert weight == 2 * tiny
        assert [a[0] for a in sched.assignments] == [1]

    def test_fractional_weights_past_the_exact_range_refused(self):
        # Both weights are 1.0 as floats, so the solve reported 1 as exact;
        # their numerators over 10**20 sum past 2**50.
        inst = Instance.of("throughput", [Job(0, 0, 1, w=1 + Fraction(1, 10**20)),
                                          Job(1, 0, 1, w=1)], k=1)
        with pytest.raises(ContractViolation, match="exact range"):
            offline_throughput_opt(inst)

    def test_weights_just_inside_the_exact_range_are_exact(self):
        # total weight plus jobs is exactly 2**50; one more is refused
        heavy, light = 2**49 - 1, 2**49 - 3
        jobs = [Job(0, 0, 1, w=light), Job(1, 0, 1, w=heavy), Job(2, 0, 2, w=1)]
        inst = Instance.of("throughput", jobs, k=1)
        assert sum(j.w for j in inst.jobs) + 3 == 2**50
        weight, sched = offline_throughput_opt(inst)
        assert weight == heavy + 1
        assert sorted(a[0] for a in sched.assignments) == [1, 2]
        jobs[0] = Job(0, 0, 1, w=light + 1)
        with pytest.raises(ContractViolation, match="exact range"):
            offline_throughput_opt(Instance.of("throughput", jobs, k=1))

    def test_table_too_large_to_allocate_refused(self):
        # 2 * (2**62 + 1) + 1 cells: numpy refuses them before allocating
        inst = Instance.of("throughput", [Job(0, 0, 2, w=1)], k=2**62 + 1)
        with pytest.raises(ContractViolation,
                           match="cells do not fit in memory as a float64 "
                                 "assignment table"):
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


class HeapEdfQueue:
    """The heap dispatch loop EdfQueue ran before it kept deadline buckets:
    one push and one pop of ``(deadline, id)`` per job."""

    def __init__(self):
        self.heap = []
        self.trace = EdfTrace()
        self.schedule = Schedule()

    def step(self, t, released, quota):
        for j in released:
            heapq.heappush(self.heap, (int(j.d), j.id))
        while self.heap and self.heap[0][0] <= t:
            job_id = heapq.heappop(self.heap)[1]
            self.trace.miss_events.append((job_id, t))
            self.schedule.misses.append(job_id)
        slot = [heapq.heappop(self.heap)[1]
                for _ in range(min(quota, len(self.heap)))]
        self.schedule.assignments.extend(
            (job_id, machine, t) for machine, job_id in enumerate(slot))
        self.trace.chosen.append(slot)
        return slot

    def finish(self):
        while self.heap:
            d, job_id = heapq.heappop(self.heap)
            self.trace.miss_events.append((job_id, d))
            self.schedule.misses.append(job_id)
        return self.trace, self.schedule


@st.composite
def edf_runs(draw):
    """Per-step releases and quotas for one EDF run.

    Ids are a permutation dealt out in draw order, so a later release often
    carries a smaller id than a pending job with the same deadline.  A few
    deadlines, from the release step itself (expired on arrival) to past
    the horizon (drained by ``finish``), are shared by many jobs.  Quotas
    start at 0 and are often below demand; many steps release nothing.
    """
    horizon = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(draw(st.integers(0, 30)))))
    deadlines = draw(st.lists(st.integers(0, horizon + 2), min_size=1,
                              max_size=4))
    steps = [[] for _ in range(horizon)]
    for job_id in ids:
        r = draw(st.integers(0, horizon - 1))
        steps[r].append(Job(job_id, r, draw(st.sampled_from(deadlines))))
    quotas = draw(st.lists(st.integers(0, 5), min_size=horizon,
                           max_size=horizon))
    return steps, quotas


@given(edf_runs())
@example(([[Job(5, 0, 3), Job(7, 0, 3)], [Job(2, 1, 3), Job(9, 1, 3)], []],
          [1, 1, 0]))
def test_bucket_queue_matches_heap_reference(run):
    steps, quotas = run
    buckets, heap = EdfQueue(), HeapEdfQueue()
    for t, (released, quota) in enumerate(zip(steps, quotas)):
        assert (buckets.step(t, unit_columns(released), quota)
                == heap.step(t, released, quota))
    (trace, schedule), (ref_trace, ref_schedule) = buckets.finish(), heap.finish()
    assert trace.chosen == ref_trace.chosen
    assert trace.miss_events == ref_trace.miss_events
    assert schedule.assignments == ref_schedule.assignments
    assert schedule.misses == ref_schedule.misses
