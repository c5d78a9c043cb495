"""Offline optima for unit-job scheduling, by several independent routes.

The primary quantity is ``off_unit(jobs)``: the fewest machines, constant
over time, on which every unit job fits inside its window ``[r, d)``.  Three
routes compute or cross-check it:

* earliest-deadline-first simulation (``edf_simulate`` + binary search),
* bipartite transportation feasibility on compressed slots (``flow_feasible``),
* exhaustive assignment search for tiny instances (``brute_force_feasible``).

These three are the independent cross-checks.  The production engine is
``IncrementalOff``: it keeps the same value over a growing released prefix
with one monotone convex hull per deadline column (Hall's condition on
interval windows), in amortized constant time per column a step touches.
Online players, the adversary game, the envelope report and
``off_prefix_series`` all track the optimum of everything released so far
through it.

``EdfQueue`` is the one earliest-deadline-first dispatch loop: ``edf_simulate``,
the online player, unweighted throughput and the offline witness differ only
in the per-step quota they give it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .core import (ContractViolation, Instance, Job, MachineProfile, Schedule,
                   require_valid)

_window = attrgetter("r", "d")


def _by_release(jobs: Iterable[Job]) -> dict[int, list[Job]]:
    """Jobs grouped by integer release, in input order; fastest when sorted."""
    out: dict[int, list[Job]] = {}
    for r, group in groupby(jobs, attrgetter("r")):
        out.setdefault(int(r), []).extend(group)
    return out


@dataclass
class EdfTrace:
    """Step-by-step record of one EDF run.

    ``chosen[t]`` lists job ids scheduled in slot ``t``; ``miss_events``
    records ``(job_id, step)`` pairs at the step the deadline expired.
    """

    chosen: list[list[int]] = field(default_factory=list)
    miss_events: list[tuple[int, int]] = field(default_factory=list)


class EdfQueue:
    """Earliest-deadline-first dispatch of unit jobs, one step at a time.

    Pending jobs are ordered by ``(deadline, id)``; one still pending at a
    step ``t >= d`` is recorded as missed at ``t`` and the run continues.
    """

    __slots__ = ("_heap", "trace", "schedule")

    def __init__(self):
        self._heap: list[tuple[int, int]] = []
        self.trace = EdfTrace()
        self.schedule = Schedule()

    def step(self, t: int, released: Iterable[Job], quota: int) -> list[int]:
        """Admit step ``t``'s releases, expire overdue jobs, then run up to
        ``quota`` jobs on machines ``0..quota-1``; return their ids."""
        heap = self._heap
        for j in released:
            heappush(heap, (int(j.d), j.id))
        # expired jobs have the smallest deadlines, so they surface first
        while heap and heap[0][0] <= t:
            job_id = heappop(heap)[1]
            self.trace.miss_events.append((job_id, t))
            self.schedule.misses.append(job_id)
        slot = [heappop(heap)[1] for _ in range(min(quota, len(heap)))]
        self.schedule.assignments.extend(
            (job_id, machine, t) for machine, job_id in enumerate(slot))
        self.trace.chosen.append(slot)
        return slot

    def finish(self) -> tuple[EdfTrace, Schedule]:
        """Record every never-run job as missed at its deadline."""
        while self._heap:
            d, job_id = heappop(self._heap)
            self.trace.miss_events.append((job_id, d))
            self.schedule.misses.append(job_id)
        return self.trace, self.schedule


def edf_simulate(jobs: Sequence[Job], profile: MachineProfile) -> tuple[EdfTrace, Schedule]:
    """Run earliest-deadline-first on unit jobs under a machine profile.

    At each step the pending jobs with the smallest deadlines (ties by id)
    occupy machines ``0..m(t)-1``.  A job whose deadline passes while it is
    still pending is recorded as missed and the run continues.
    """
    for j in jobs:
        if j.p != 1:
            raise ContractViolation(f"edf_simulate needs unit jobs, job {j.id} has p={j.p}")
    releases = _by_release(jobs)
    edf = EdfQueue()
    horizon = max((int(j.d) for j in jobs), default=0)
    for t in range(horizon):
        edf.step(t, releases.get(t, ()), profile.at(t))
    return edf.finish()


def flow_feasible(jobs: Sequence[Job], profile: MachineProfile, d: int) -> bool:
    """Can every job with deadline at most ``d`` be placed under ``profile``?

    Decided as a transportation problem: jobs on one side, maximal runs of
    slots between window endpoints on the other, so the network size depends
    on the number of distinct endpoints rather than on the horizon.
    """
    subset = [j for j in jobs if j.d <= d]
    for j in subset:
        if j.p != 1:
            raise ContractViolation(f"flow_feasible needs unit jobs, job {j.id} has p={j.p}")
    if not subset:
        return True
    points = sorted({int(j.r) for j in subset} | {int(j.d) for j in subset})
    segments = [(lo, hi) for lo, hi in zip(points, points[1:])]
    caps = [profile.capacity_between(lo, hi) for lo, hi in segments]

    n_jobs = len(subset)
    n_seg = len(segments)
    source = 0
    sink = 1 + n_jobs + n_seg
    rows, cols, data = [], [], []
    for ji, j in enumerate(subset):
        rows.append(source)
        cols.append(1 + ji)
        data.append(1)
        for si, (lo, hi) in enumerate(segments):
            if j.r <= lo and hi <= j.d:
                rows.append(1 + ji)
                cols.append(1 + n_jobs + si)
                data.append(1)
    for si, cap in enumerate(caps):
        if cap > 0:
            rows.append(1 + n_jobs + si)
            cols.append(sink)
            data.append(min(cap, 2**31 - 1))
    graph = csr_matrix((data, (rows, cols)),
                       shape=(sink + 1, sink + 1), dtype=np.int32)
    result = maximum_flow(graph, source, sink)
    return result.flow_value == n_jobs


def _edf_feasible(jobs: Sequence[Job], m: int) -> bool:
    if not jobs:
        return True
    horizon = int(max(j.d for j in jobs))
    _, schedule = edf_simulate(jobs, MachineProfile.constant(m, horizon))
    return not schedule.misses


def off_unit(jobs: Sequence[Job]) -> int:
    """Fewest machines at which EDF schedules every unit job in its window.

    Binary search over ``[1, len(jobs)]``; feasibility at a given count is
    monotone, so the search is sound.  Empty input costs zero machines.
    """
    jobs = list(jobs)
    if not jobs:
        return 0
    for j in jobs:
        if j.r + 1 > j.d:
            raise ContractViolation(f"job {j.id} window [{j.r}, {j.d}) cannot hold a unit job")
    lo, hi = 1, len(jobs)
    while lo < hi:
        mid = (lo + hi) // 2
        if _edf_feasible(jobs, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def off_prefix_series(jobs: Sequence[Job]) -> dict[int, int]:
    """``off_unit`` of everything released by time t, for each integer t.

    Keys run from 0 to the maximum release; the jobs may come in any order.
    The values come from one :class:`IncrementalOff` pass.
    """
    if not jobs:
        return {}
    by_release = _by_release(jobs)
    engine = IncrementalOff.for_jobs(jobs)
    return {t: engine.add(by_release.get(t, []), t)
            for t in range(max(by_release) + 1)}


class _DeadlineHull:
    """Exact ``max over rows s of ceil((x - P_s) / (e - s))`` for deadline ``e``.

    Row ``s`` is a line in ``x``, the count of released jobs due by ``e``;
    ``P_s`` is that count before step ``s``.  Rows arrive in increasing slope
    and queries at nondecreasing ``x`` (the monotone convex-hull case), so a
    pointer walks forward; the lines behind it can never lead again and are
    dropped once they fill half the list.  All comparisons cross-multiply
    Python ints.
    """

    __slots__ = ("e", "lines", "ptr")

    def __init__(self, e: int):
        self.e = e
        self.lines: list[tuple[int, int]] = []  # (e - s, P_s)
        self.ptr = 0

    def add(self, s: int, P: int) -> None:
        w = self.e - s
        lines = self.lines
        while len(lines) >= 2:
            w1, p1 = lines[-2]
            w2, p2 = lines[-1]
            # The last line never leads if the new one overtakes lines[-2]
            # no later than it does: compare the two crossing points.
            if (P * w1 - p1 * w) * (w1 - w2) > (p2 * w1 - p1 * w2) * (w1 - w):
                break
            lines.pop()
        lines.append((w, P))
        if self.ptr >= len(lines):
            self.ptr = len(lines) - 1

    def query_ceil(self, x: int) -> int:
        """``ceil`` of the hull maximum at count ``x``."""
        lines = self.lines
        i = self.ptr
        last = len(lines) - 1
        w, p = lines[i]
        while i < last:
            w2, p2 = lines[i + 1]
            if (x - p2) * w < (x - p) * w2:
                break
            i += 1
            w, p = w2, p2
        if 2 * i > last:
            del lines[:i]
            i = 0
        self.ptr = i
        return -((p - x) // w)


class IncrementalOff:
    """Exact optimum machine count over a growing released-job set.

    ``m`` constant machines suffice iff every window ``[s, e)`` holds at most
    ``m * (e - s)`` of the jobs confined to it.  Jobs arrive in release order,
    so with ``C_e`` the released jobs due by ``e``, the window holds
    ``C_e - P_e(s)`` with ``P_e(s)`` fixed when step ``s`` began: one
    :class:`_DeadlineHull` per registered deadline.  A step opens its row and
    queries only on the columns its jobs count towards; elsewhere that row
    would tie a later row's count and lose to it, or stay at zero.
    """

    def __init__(self, deadline_values: Iterable[int]):
        deadlines = sorted(set(int(v) for v in deadline_values))
        self._column = {d: i for i, d in enumerate(deadlines)}
        self._hulls = [_DeadlineHull(d) for d in deadlines]
        self._counts = [0] * len(deadlines)
        self._t: int | None = None
        self._value = 0

    @classmethod
    def for_jobs(cls, jobs: Sequence[Job]) -> "IncrementalOff":
        return cls(int(j.d) for j in jobs)

    @property
    def value(self) -> int:
        return self._value

    def add(self, released: Sequence[Job], t: int) -> int:
        """Register jobs released at step ``t`` (steps must increase, and
        steps without releases may be skipped); return the new optimum."""
        if self._t is not None and t <= self._t:
            raise ContractViolation(f"step {t} does not follow step {self._t}")
        self._t = t
        if not released:
            return self._value
        fresh: dict[int, int] = {}  # column -> jobs due there released now
        for (r, d), count in Counter(map(_window, released)).items():
            col = self._column.get(d)
            if r != t or col is None or d <= t:
                job = next(j for j in released if _window(j) == (r, d))
                if r != t:
                    raise ContractViolation(f"job {job.id} released at {r}, not {t}")
                raise ContractViolation(
                    f"job {job.id} due at {d}: not a registered deadline after {t}")
            fresh[col] = count
        hulls, counts = self._hulls, self._counts
        best = self._value
        added = 0
        for col in range(min(fresh), len(hulls)):
            added += fresh.get(col, 0)
            hull = hulls[col]
            count = counts[col]
            hull.add(t, count)
            count += added
            counts[col] = count
            value = hull.query_ceil(count)
            if value > best:
                best = value
        self._value = best
        return best


def volume_lower_bound(jobs: Sequence[Job], d) -> int:
    """Workload bound on machines for a common deadline ``d``.

    Every job released at or after ``r`` must run inside ``[r, d)``, so any
    schedule needs at least ``ceil(volume / (d - r))`` machines; take the
    worst release point (Horn's window condition).  Valid for arbitrary
    (rational) job lengths.  One suffix sum over the distinct releases,
    latest first, in exact arithmetic: O(n log n).
    """
    if not jobs:
        return 0
    volume_at = {0: 0}
    for j in jobs:
        volume_at[j.r] = volume_at.get(j.r, 0) + j.p
    best, vol, d = 1, 0, Fraction(d)
    for r in sorted(volume_at, reverse=True):
        vol += volume_at[r]
        if vol:
            q = Fraction(vol) / (d - Fraction(r))
            best = max(best, -(-q.numerator // q.denominator))
    return best


def active_steps(jobs: Iterable[Job]
                 ) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Steps some unit job can run in, each with the ids that can run there.

    A job with integer window ``[r, d)`` can run in steps ``r .. d-1``.  One
    pass over the windows; each step's ids come out ascending.
    """
    cover: dict[int, list[int]] = {}
    for j in sorted(jobs, key=attrgetter("id")):
        for t in range(int(j.r), int(j.d)):
            cover.setdefault(t, []).append(j.id)
    steps = tuple(sorted(cover))
    return steps, {t: tuple(cover[t]) for t in steps}


def offline_throughput_opt(instance: Instance) -> tuple[Fraction, Schedule]:
    """Maximum total weight schedulable on ``k`` machines, with a witness.

    Solved as an assignment problem: each job either takes one of the
    ``k`` machine-slots of each active step inside its window or falls back
    to a private zero-weight column, so skipping a job is always allowed.
    Slot ``s * k + i`` is machine ``i`` at the ``s``-th active step, so a
    job's slots are one contiguous column range.
    """
    if instance.model != "throughput":
        raise ContractViolation(f"expected a throughput instance, got {instance.model}")
    require_valid(instance)
    jobs = instance.jobs
    k = instance.k
    steps, _ = active_steps(jobs)
    n, m = len(jobs), k * len(steps)
    weight = np.full((n, m + n), -1.0)
    weight[np.arange(n), m + np.arange(n)] = 0.0
    for ji, j in enumerate(jobs):
        lo, hi = bisect_left(steps, j.r), bisect_left(steps, j.d)
        weight[ji, k * lo:k * hi] = float(j.w)
    rows, cols = linear_sum_assignment(weight, maximize=True)
    total = Fraction(0)
    schedule = Schedule()
    placed: set[int] = set()
    for ji, ci in zip(rows, cols):
        if ci < m:
            step, machine = divmod(int(ci), k)
            job = jobs[ji]
            schedule.assignments.append((job.id, machine, steps[step]))
            total += Fraction(job.w)
            placed.add(job.id)
    schedule.assignments.sort(key=lambda a: (a[2], a[1]))
    schedule.misses = sorted(j.id for j in jobs if j.id not in placed)
    return total, schedule


def brute_force_feasible(jobs: Sequence[Job], profile: MachineProfile) -> bool:
    """Exhaustive feasibility for tiny unit instances (<= 8 jobs, <= 6 slots)."""
    jobs = list(jobs)
    if not jobs:
        return True
    horizon = int(max(j.d for j in jobs))
    if len(jobs) > 8 or horizon > 6:
        raise ContractViolation(
            f"brute force capped at 8 jobs / 6 slots, got {len(jobs)} jobs, {horizon} slots")
    caps = [profile.at(t) for t in range(horizon)]
    # search jobs in deadline order so dead ends surface early
    order = sorted(jobs, key=lambda j: (j.d, j.r, j.id))
    seen: set[tuple[int, tuple[int, ...]]] = set()

    def place(idx: int, caps: tuple[int, ...]) -> bool:
        if idx == len(order):
            return True
        key = (idx, caps)
        if key in seen:
            return False
        job = order[idx]
        for t in range(int(job.r), int(job.d)):
            if caps[t] > 0:
                nxt = list(caps)
                nxt[t] -= 1
                if place(idx + 1, tuple(nxt)):
                    return True
        seen.add(key)
        return False

    return place(0, tuple(caps))
