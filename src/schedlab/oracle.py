"""Offline optima for unit-job scheduling, by several independent routes.

The primary quantity is ``off_unit(jobs)``: the fewest machines, constant
over time, on which every unit job fits inside its window ``[r, d)``.  Three
routes compute or cross-check it:

* earliest-deadline-first simulation (``edf_simulate`` + binary search),
* bipartite transportation feasibility on compressed slots (``flow_feasible``),
* exhaustive assignment search for tiny instances (``brute_force_feasible``).

These three are the independent cross-checks.  The production engine is
``IncrementalOff``: it keeps the same value over a growing released prefix
with one monotone convex hull per deadline column (Horn's window condition),
all held in one numpy table, in amortized constant time per column a step
touches.  A step over many columns updates them together in numpy passes;
one over a few, such as every step of the adversary stream, walks them in
Python ints, since a step's numpy passes cost as much as some 30 columns
done one by one.  Online players and ``off_prefix_series`` track the
optimum of everything released so far through it.  The adversary
stream, whose counts never decrease, has its own closed form in
``adversary._off_series``, which the tests check against the hull.

``EdfQueue`` is the one earliest-deadline-first dispatch loop: ``edf_simulate``,
the online player, unweighted throughput and the offline witness differ only
in the per-step quota they give it.  It is a bucket queue keyed by integer
deadline, so a step costs a slice per deadline it touches, not a heap
operation per job.  The engines run on :class:`~schedlab.core.UnitJobs`
column blocks, one per release step, found by ``release_blocks``.  Their
per-step methods take column blocks only; the instance-level entries
(``edf_simulate``, ``off_prefix_series``) also take ``Job`` rows, which
``core.unit_columns`` converts once.

``active_steps`` is the one window index: the sorted active steps and each
job's contiguous run of them, which the throughput OPT and the matching
graph of :mod:`~schedlab.throughput` both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (INT64_MAX, ContractViolation, Instance, Job, MachineProfile,
                   Schedule, UnitJobs, _int64_column, _ratio, allocating,
                   arange_exact, require_valid, time_grid, unit_columns)

# Slots per column when the hull table is made; it doubles as columns need.
_HULL_CAPACITY = 8

# Widest step, in deadline columns, that runs column by column in Python
# ints rather than as numpy passes over the table.  A column costs about
# 2 µs that way, and a step's passes 60-75 µs at any width: an interleaved
# sweep over the acceptance-1 corpus and the benchmark's random and
# adversary streams put the crossover at 31-32 columns (2-core x86-64,
# Python 3.11, numpy 2.4).
_SCALAR_COLUMNS = 30


def release_blocks(jobs: UnitJobs, steps: int) -> Iterator[UnitJobs]:
    """The jobs released at each step ``t < steps``, in input order.

    Columns not sorted by release are stably sorted first; each step's block
    is then one slice, its bounds found by ``searchsorted``.  A ``steps``
    too large for numpy to hold the bounds is refused.
    """
    r = jobs.r
    if (r[1:] < r[:-1]).any():
        jobs = jobs[np.argsort(r, kind="stable")]
        r = jobs.r
    with allocating(steps, "steps"):
        bounds = np.searchsorted(r, arange_exact(0, steps + 1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield jobs[lo:hi]


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

    A bucket queue keyed by integer deadline (Dial, 1969): each deadline
    holds its pending ids ascending, from a head index on, and a small heap
    holds the deadlines with pending jobs.  A step costs one slice per
    deadline it touches, however many jobs it runs.
    """

    __slots__ = ("_due", "_buckets", "trace", "misses")

    def __init__(self):
        self._due: list[int] = []                          # heap of deadlines
        self._buckets: dict[int, tuple[list[int], int]] = {}  # d -> (ids, head)
        self.trace = EdfTrace()
        self.misses: list[int] = []

    def _admit(self, released: UnitJobs) -> None:
        buckets = self._buckets
        for d, fresh in released.by_deadline():
            bucket = buckets.get(d)
            if bucket is None:
                buckets[d] = (fresh[:], 0)  # the block keeps its own lists
                heappush(self._due, d)
                continue
            ids, head = bucket
            if ids[-1] < fresh[0]:
                ids += fresh
            else:
                # a smaller id arrived late: merge it into id order
                ids = ids[head:] + fresh
                ids.sort()
                buckets[d] = (ids, 0)

    def _expire(self, t: int) -> None:
        """Record every job due by ``t`` as missed at ``t``."""
        due, buckets = self._due, self._buckets
        while due and due[0] <= t:
            ids, head = buckets.pop(heappop(due))
            missed = ids[head:]
            self.trace.miss_events.extend(zip(missed, repeat(t)))
            self.misses.extend(missed)

    @property
    def pending(self) -> bool:
        """Whether a job waits: admitted, and neither run nor expired."""
        return bool(self._due)

    def step(self, t: int, released: UnitJobs, quota: int) -> list[int]:
        """Admit step ``t``'s releases, expire overdue jobs, then run up to
        ``quota`` jobs on machines ``0..quota-1``; return their ids."""
        self._admit(released)
        self._expire(t)
        due, buckets = self._due, self._buckets
        slot: list[int] = []
        while due and len(slot) < quota:
            d = due[0]
            ids, head = buckets[d]
            take = ids[head:head + quota - len(slot)]
            slot += take
            head += len(take)
            if head == len(ids):
                heappop(due)
                del buckets[d]
            elif 2 * head > len(ids):
                buckets[d] = (ids[head:], 0)
            else:
                buckets[d] = (ids, head)
        self.trace.chosen.append(slot)
        return slot

    def finish(self) -> tuple[EdfTrace, Schedule]:
        """Record every never-run job as missed at its deadline; the
        schedule's assignments are read from the trace's slots."""
        while self._due:
            self._expire(self._due[0])
        return self.trace, Schedule.from_slots(self.trace.chosen, self.misses)


def edf_simulate(jobs: Sequence[Job], profile: MachineProfile) -> tuple[EdfTrace, Schedule]:
    """Run earliest-deadline-first on unit jobs under a machine profile.

    At each step the pending jobs with the smallest deadlines (ties by id)
    occupy machines ``0..m(t)-1``.  A job whose deadline passes while it is
    still pending is recorded as missed and the run continues.
    """
    jobs = unit_columns(jobs)
    edf = EdfQueue()
    horizon = int(jobs.d.max(initial=0))
    for t, released in enumerate(release_blocks(jobs, horizon)):
        edf.step(t, released, profile.at(t))
    return edf.finish()


def flow_feasible(jobs: Sequence[Job], profile: MachineProfile, d: int) -> bool:
    """Can every job with deadline at most ``d`` be placed under ``profile``?

    Decided as a transportation problem: jobs on one side, maximal runs of
    slots between window endpoints on the other, so the network size depends
    on the number of distinct endpoints rather than on the horizon.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

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


def _edf_feasible(jobs: UnitJobs, m: int) -> bool:
    horizon = int(jobs.d.max())
    _, schedule = edf_simulate(jobs, MachineProfile.constant(m, horizon))
    return not schedule.misses


def off_unit(jobs: Sequence[Job]) -> int:
    """Fewest machines at which EDF schedules every unit job in its window.

    Binary search over ``[1, len(jobs)]``; feasibility at a given count is
    monotone, so the search is sound.  Empty input costs zero machines.
    The jobs are converted to columns once (:func:`unit_columns`), and
    every probe runs on them.
    """
    jobs = unit_columns(jobs)
    if not len(jobs):
        return 0
    empty = np.flatnonzero(jobs.r >= jobs.d)
    if len(empty):
        j = jobs[int(empty[0])]
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
    jobs = unit_columns(jobs)
    if not len(jobs):
        return {}
    engine = IncrementalOff(np.unique(jobs.d).tolist())
    steps = int(jobs.r.max()) + 1
    return {t: engine.add(released, t)
            for t, released in enumerate(release_blocks(jobs, steps))}


class IncrementalOff:
    """Exact optimum machine count over a growing released-job set.

    ``m`` constant machines suffice iff every window ``[s, e)`` holds at most
    ``m * (e - s)`` of the jobs confined to it (Horn, 1974).  Jobs arrive in
    release order, so with ``C_e`` the released jobs due by ``e``, the window
    holds ``C_e - P_e(s)`` with ``P_e(s)`` fixed when step ``s`` began, and
    ``OFF`` is the largest ``ceil((C_e - P_e(s)) / (e - s))``.  For each
    deadline column ``e`` the rows ``s`` are lines in ``C_e`` of increasing
    slope, queried at nondecreasing ``C_e``: the monotone convex-hull case.

    One table holds every column's hull: flat arrays ``W`` (the widths
    ``e - s``) and ``P`` (the counts ``P_e(s)``) with ``capacity`` slots per
    column, and per column a length, a pointer to the leading line and the
    running count ``C``.  A step opens its row on the columns from the
    smallest deadline it releases to the last; elsewhere that row would tie
    a later row's count and lose to it, or stay at zero.  On more than
    ``_SCALAR_COLUMNS`` columns it pops, appends and advances pointers on
    all of them at once, each loop running as many passes as the worst
    column needs.  On at most that many, where the passes' fixed cost
    would dominate, it does the same column by column in Python ints on
    the same table: one slice read of each column's lines from its pointer
    on, then the new slot, length, pointer and count written back.  Lines
    behind a pointer never lead again; they are shifted out of every column
    before any column can fill its last slot, and the capacity doubles only
    if a column is still more than half full after that.

    Both tests multiply a width by a count difference, so with ``C_total``
    the jobs released so far and ``H`` the widest window every value they
    form stays within ``2 * C_total * H``.  The table runs in int64 while
    that fits and switches once, for good, to object arrays of Python ints
    when it would not.
    """

    def __init__(self, deadline_values: Iterable[int]):
        deadlines = sorted(set(int(v) for v in deadline_values))
        self._deadlines = deadlines
        self._column = {d: i for i, d in enumerate(deadlines)}
        try:
            self._E = np.array(deadlines, dtype=np.int64)
        except OverflowError:
            self._E = np.array(deadlines, dtype=object)
        columns = len(deadlines)
        self._len = np.zeros(columns, dtype=np.int64)
        self._ptr = np.zeros(columns, dtype=np.int64)
        self._C = np.zeros(columns, dtype=np.int64)
        self._resize(np.zeros((columns, _HULL_CAPACITY), dtype=np.int64),
                     np.zeros((columns, _HULL_CAPACITY), dtype=np.int64))
        self._total = 0
        self._int64_total: int | None = None  # largest total int64 holds
        self._t: int | None = None
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def add(self, released: UnitJobs, t: int) -> int:
        """Register jobs released at step ``t`` (steps must increase, and
        steps without releases may be skipped); return the new optimum.

        A refused block leaves the engine as it was."""
        if self._t is not None and t <= self._t:
            raise ContractViolation(f"step {t} does not follow step {self._t}")
        if not len(released):
            self._t = t
            return self._value
        groups = released.by_deadline()
        column = self._column
        if ((released.r != t).any()
                or any(d not in column or d <= t for d, _ in groups)):
            self._refuse(released, t)
        self._t = t
        self._total += len(released)
        if self._int64_total is None:
            widest = int(self._E[-1]) - t
            self._int64_total = INT64_MAX // (2 * widest)
        if self._total > self._int64_total and self._W.dtype != object:
            self._widen()
        if not self._room:
            self._compact()
        self._room -= 1
        first = column[groups[0][0]]
        if len(self._len) - first <= _SCALAR_COLUMNS:
            best = self._step_columns(groups, first, t)
        else:
            best = self._step_table(groups, first, t)
        if best > self._value:
            self._value = best
        return self._value

    def _step_columns(self, groups, first: int, t: int) -> int:
        """Open row ``t`` on columns ``first..`` one column at a time, in
        Python ints; return the largest ceiling among them.

        The same pops, append and pointer advance as :meth:`_step_table`,
        reading only the lines from the pointer on, since no line at or
        behind the pointer pops.  A row adds at least one job to every
        column it opens on, so ``P`` strictly increases down a column.  A
        line at or behind the pointer overtook the line before it at some
        count ``y`` no greater than the current count ``x`` and above both
        lines' ``P``.  There the line before is above 0 and the new line,
        0 at ``x``, is not, so the new line overtakes the line before later
        than that line did.
        """
        W, P, size = self._W, self._P, self._capacity
        lens = self._len[first:].tolist()
        ptrs = self._ptr[first:].tolist()
        counts = self._C[first:].tolist()
        due = {self._column[d] - first: len(ids) for d, ids in groups}
        added = best = 0
        for i, e in enumerate(self._deadlines[first:]):
            added += due.get(i, 0)
            n, p, x = lens[i], ptrs[i], counts[i]
            lo = (first + i) * size + p
            ws, ps = W[lo:lo + n - p].tolist(), P[lo:lo + n - p].tolist()
            w = e - t
            while len(ws) >= 2 and (ws[-2] * (x - ps[-1]) - ws[-1] * (x - ps[-2])
                                    + w * (ps[-1] - ps[-2]) <= 0):
                ws.pop()
                ps.pop()
            W[lo + len(ws)] = w
            P[lo + len(ws)] = x
            ws.append(w)
            ps.append(x)
            x += added
            j, last = 0, len(ws) - 1
            while j < last and (x - ps[j + 1]) * ws[j] >= (x - ps[j]) * ws[j + 1]:
                j += 1
            lens[i], ptrs[i], counts[i] = p + last + 1, p + j, x
            ceiling = -((ps[j] - x) // ws[j])
            if ceiling > best:
                best = ceiling
        self._len[first:] = lens
        self._ptr[first:] = ptrs
        self._C[first:] = counts
        return best

    def _step_table(self, groups, first: int, t: int) -> int:
        """Open row ``t`` on columns ``first..`` all at once; return the
        largest ceiling among them."""
        column = self._column
        # jobs released now that count towards each column from `first` on
        added = np.empty(len(self._len) - first, dtype=np.int64)
        bounds = [column[d] - first for d, _ in groups] + [len(added)]
        due = 0
        for (_, ids), lo, hi in zip(groups, bounds, bounds[1:]):
            due += len(ids)
            added[lo:hi] = due
        W, P, base = self._W, self._P, self._base[first:]
        lens, ptr, count = self._len[first:], self._ptr[first:], self._C[first:]
        w = self._E[first:] - t
        # Pop the last line wherever the new one overtakes the line before
        # it no later than the last line does: the last never leads again.
        # Columns with fewer than two lines read stale slots, masked out.
        while True:
            top = base + lens
            w1, p1, w2, p2 = W[top - 2], P[top - 2], W[top - 1], P[top - 1]
            # (count*w1 - p1*w)(w1 - w2) <= (p2*w1 - p1*w2)(w1 - w), divided by w1
            pop = w1 * (count - p2) - w2 * (count - p1) + w * (p2 - p1) <= 0
            pop &= lens >= 2
            if not pop.any():
                break
            lens -= pop
        # No line at or behind a pointer pops (see _step_columns), so every
        # pointer stays on a line.
        W[top] = w
        P[top] = count
        lens += 1
        count += added
        # Advance each pointer while the next line leads at the new count.
        # A column's last line reads the free slot after it, masked out.
        while True:
            at = base + ptr
            wa, pa, wb, pb = W[at], P[at], W[at + 1], P[at + 1]
            move = (count - pb) * wa >= (count - pa) * wb
            move &= ptr + 1 < lens
            if not move.any():
                break
            ptr += move
        return -int(((pa - count) // wa).min())  # the largest ceiling

    def _widen(self) -> None:
        """Hold the table in Python ints from now on."""
        for name in ("_E", "_W", "_P", "_C"):
            setattr(self, name, getattr(self, name).astype(object))

    def _resize(self, W: np.ndarray, P: np.ndarray) -> None:
        """Take ``(columns, capacity)`` tables as the new ``W`` and ``P``."""
        columns, self._capacity = W.shape
        self._W, self._P = W.ravel(), P.ravel()
        self._base = np.arange(0, columns * self._capacity, self._capacity)
        # A step appends at most one line per column, so this many steps
        # fit before some column fills all but its last slot, which stays
        # free for the pointer test to read.
        self._room = self._capacity - 1 - int(self._len.max(initial=0))

    def _compact(self) -> None:
        """Shift every column left by its pointer; double the capacity if
        a column is still more than half full."""
        size = self._capacity
        src = self._base[:, None] + np.minimum(self._ptr[:, None] + np.arange(size),
                                               size - 1)
        W, P = self._W[src], self._P[src]
        self._len -= self._ptr
        self._ptr[:] = 0
        if 2 * self._len.max() > size:
            W = np.hstack((W, np.zeros_like(W)))
            P = np.hstack((P, np.zeros_like(P)))
        self._resize(W, P)

    def _refuse(self, released: UnitJobs, t: int) -> None:
        """Name the first job, in input order, released off step ``t`` or
        due at no registered deadline after it."""
        for job_id, r, d in zip(released.ids.tolist(), released.r.tolist(),
                                released.d.tolist()):
            if r != t:
                raise ContractViolation(f"job {job_id} released at {r}, not {t}")
            if d not in self._column or d <= t:
                raise ContractViolation(
                    f"job {job_id} due at {d}: not a registered deadline after {t}")


def volume_lower_bound(jobs: Sequence[Job], d) -> int:
    """Workload bound on machines for a common deadline ``d``.

    Every job released at or after ``r`` must run inside ``[r, d)``, so any
    schedule needs at least ``ceil(volume / (d - r))`` machines; take the
    worst release point (Horn's window condition).  Valid for arbitrary
    (rational) job lengths.  One suffix sum over the distinct releases,
    latest first, on the integer numerators of
    :class:`~schedlab.core.GridJobs` (``Job`` rows are converted by
    :func:`~schedlab.core.time_grid`), so each ratio is one integer
    division: O(n log n).
    """
    if not jobs:
        return 0
    grid = time_grid(jobs)
    end = d * grid.scale
    volume_at = {0: 0}
    for r, p in zip(grid.r, grid.p):
        volume_at[r] = volume_at.get(r, 0) + p
    best, vol = 1, 0
    for r in sorted(volume_at, reverse=True):
        vol += volume_at[r]
        if vol:
            best = max(best, -(-vol // (end - r)))
    return best


def active_steps(jobs: Iterable[Job]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one window index of unit jobs: the steps some job can run in,
    ascending, and each job's run ``steps[lo:hi]`` of them, in input order.

    A job with integer window ``[r, d)`` can run in steps ``r .. d-1``.  In
    release order each window adds the steps past the latest deadline
    before it, so no array is as long as the horizon; all three are int64,
    and steps numpy will not hold are refused before any is written.
    """
    grid = time_grid(jobs)
    r, d = (_int64_column([x // grid.scale for x in col], name)
            for col, name in ((grid.r, "r"), (grid.d, "d")))
    order = np.argsort(r, kind="stable")
    reach = np.maximum.accumulate(d[order])
    first = np.maximum(r[order], np.r_[r[order[:1]], reach[:-1]])
    sizes = np.maximum(reach - first, 0)
    count = sum(sizes.tolist())
    with allocating(count, "steps"):
        steps = arange_exact(0, count)
        steps += np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
    return steps, np.searchsorted(steps, r), np.searchsorted(steps, d)


#: Largest sum of weight numerators plus job count that
#: :func:`offline_throughput_opt` solves.
_EXACT_SPREAD = 2**50


def offline_throughput_opt(instance: Instance) -> tuple[Fraction, Schedule]:
    """Maximum total weight schedulable on ``k`` machines, with a witness.

    Solved as an assignment problem: each job either takes one of the
    ``k`` machine-slots of each active step inside its window or falls back
    to a private zero-weight column, so skipping a job is always allowed.
    Slot ``s * k + i`` is machine ``i`` at the ``s``-th active step, so a
    job's slots are the columns ``k * lo .. k * hi`` of :func:`active_steps`.
    The dense float64 table of ``jobs x (k * steps + jobs)`` costs is
    refused, by :func:`~schedlab.core.allocating`, when numpy will not hold it.

    The solver (scipy's shortest augmenting path) works in float64 on the
    weight numerators ``w_i`` over the jobs' common ``scale``, which rank
    the jobs as their weights do: the costs are ``w_i`` (the job's slots),
    ``0`` (its private column) and ``-1`` (every other cell), negated to
    minimise, so row ``i``'s costs span ``w_i + 1``; let ``S`` be the sum
    of these spans.  Adding row ``i`` takes a path length in ``[-w_i, 1]``,
    each column potential falls by at most ``w_i + 1`` on that row, and a
    row potential is a cost less a column potential, so every value the
    solver forms is an integer within ``4 S + 1``, exact in float64 below
    ``2**53``, while ``S <= 2**50``; instances past that are refused rather
    than solved with rounded sums.  The reported total is the exact sum of
    the placed jobs' numerators over their scale.
    """
    from scipy.optimize import linear_sum_assignment

    if instance.model != "throughput":
        raise ContractViolation(f"expected a throughput instance, got {instance.model}")
    require_valid(instance)
    jobs = time_grid(instance.jobs)
    k, n, scale = instance.k, len(jobs), jobs.scale
    if sum(jobs.w) + n > _EXACT_SPREAD:
        raise ContractViolation(
            f"{n} jobs of total weight {_ratio(sum(jobs.w), scale)} leave the "
            f"float64 solver's exact range: their weight numerators over the "
            f"common denominator {scale}, plus the job count, must not exceed "
            f"{_EXACT_SPREAD}")
    steps, lo, hi = active_steps(jobs)
    m = k * len(steps)
    with allocating(n * (m + n), "cells", "a float64 assignment table"):
        weight = np.full((n, m + n), -1.0)
    weight[np.arange(n), m + np.arange(n)] = 0.0
    for row, a, b, w in zip(weight, lo.tolist(), hi.tolist(), jobs.w):
        row[k * a:k * b] = w
    rows, cols = linear_sum_assignment(weight, maximize=True)
    steps = steps.tolist()
    placed = [(int(ji), *divmod(int(ci), k)) for ji, ci in zip(rows, cols) if ci < m]
    schedule = Schedule(
        sorted(((jobs.ids[ji], machine, steps[step]) for ji, step, machine in placed),
               key=lambda a: (a[2], a[1])))
    done = {ji for ji, _, _ in placed}
    schedule.misses = sorted(u for ji, u in enumerate(jobs.ids) if ji not in done)
    return Fraction(sum(jobs.w[ji] for ji in done), scale), schedule


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
