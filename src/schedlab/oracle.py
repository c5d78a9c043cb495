"""Offline optima for unit-job scheduling, by several independent routes.

The primary quantity is ``off_unit(jobs)``: the fewest machines, constant
over time, on which every unit job fits inside its window ``[r, d)``.  Three
routes compute or cross-check it:

* earliest-deadline-first simulation (``edf_simulate`` + binary search),
* bipartite transportation feasibility on compressed slots (``flow_feasible``),
* exhaustive assignment search for tiny instances (``brute_force_feasible``).

These three are the independent cross-checks.  The production engine,
``IncrementalOff``, tracks the optimum ``v`` of a growing released prefix
as EDF's backlog per deadline column at rate ``v`` (Horn's condition is
that none exceeds what ``v`` machines drain by its deadline).  A step that
keeps ``v`` reads no history; an increase reads only the rows from each
column's busy start on, O(rows × live columns); between steps the engine
holds O(columns) and the groups released since the earliest busy start.
The adversary stream has its own closed form, ``adversary._off_series``.

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

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (INT64_MAX, ContractViolation, Instance, Job, MachineProfile,
                   Schedule, UnitJobs, _deadline_runs, _int64_column, _ratio, allocating,
                   arange_exact, require_valid, time_grid, unit_columns)

# Most deadline columns live at an engine's first releasing step for which
# ``IncrementalOff`` holds its state in Python ints rather than numpy columns.
# An interleaved sweep (2-core x86-64, Python 3.11, numpy 2.4) read 19.7, 15.0,
# 14.1 and 14.4 µs a releasing step on the acceptance-1 corpus at cuts 30, 50,
# 100 and 200, and 13-14 ms for each 2000-job, 500-step random stream.
_SCALAR_COLUMNS = 50

# Most cells of one window table an ``OFF`` increase holds at a time: on the
# 4000-step scaling probe, 2**14 to 2**18 gave 0.33, 0.24, 0.21 and 0.25 s.
_WINDOW_CELLS = 2**16


def release_blocks(jobs: UnitJobs, steps: int) -> Iterator[UnitJobs]:
    """The jobs released at each step ``t < steps``, in input order.

    Columns not sorted by release are stably sorted first; each step's block
    is then one slice, its bounds found by ``searchsorted``.  A ``steps``
    too large for numpy to hold the bounds is refused.  One ``(r, d, id)``
    order of all the jobs, found with no sort where it holds (as on the
    adversary stream), gives each block its ``by_deadline`` groups, cut from
    its ids as they are converted, so no block is checked or sorted again.
    """
    r = jobs.r
    if (r[1:] < r[:-1]).any():
        jobs = jobs[np.argsort(r, kind="stable")]
        r = jobs.r
    with allocating(steps, "steps"):
        bounds = np.searchsorted(r, arange_exact(0, steps + 1)).tolist()
    order, heads, deadlines = _deadline_runs(jobs.ids, jobs.d, r)
    # positions within each step: where its jobs go in (d, id) order, its runs start
    moves = None if order is None else (order - np.searchsorted(r, r)).tolist()
    starts = (heads - np.searchsorted(r, r[heads])).tolist()
    runs = np.searchsorted(heads, bounds).tolist()  # each bound heads a run, or ends them
    for lo, hi, a, b in zip(bounds, bounds[1:], runs, runs[1:]):
        block_ids = grouped = tuple(jobs.ids[lo:hi].tolist())
        if moves is not None:
            grouped = tuple(map(block_ids.__getitem__, moves[lo:hi]))
        cuts = starts[a:b]
        step = tuple(zip(deadlines[a:b].tolist(),
                         map(grouped.__getitem__, map(slice, cuts, cuts[1:] + [hi - lo]))))
        yield _block(jobs.ids[lo:hi], r[lo:hi], jobs.d[lo:hi], block_ids, step)


def _block(*values) -> UnitJobs:
    """The private constructor of a release block: views of checked
    read-only int64 columns, their id tuple and their groups, as the slots
    of a ``UnitJobs`` in order, with no check and no copy."""
    block = object.__new__(UnitJobs)
    for name, value in zip(UnitJobs.__slots__, values):
        object.__setattr__(block, name, value)
    return block


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

    __slots__ = ("_due", "_buckets", "trace")

    def __init__(self):
        self._due: list[int] = []                          # heap of deadlines
        self._buckets: dict[int, tuple[list[int], int]] = {}  # d -> (ids, head)
        self.trace = EdfTrace()

    def _admit(self, released: UnitJobs) -> None:
        buckets = self._buckets
        for d, fresh in released.by_deadline():
            bucket = buckets.get(d)
            if bucket is None:
                buckets[d] = (list(fresh), 0)
                heappush(self._due, d)
            elif bucket[0][-1] < fresh[0]:
                bucket[0].extend(fresh)
            else:  # a smaller id arrived late: merge it into id order
                buckets[d] = (sorted([*bucket[0][bucket[1]:], *fresh]), 0)

    def _expire(self, t: int) -> None:
        """Record every job due by ``t`` as missed at ``t``."""
        due, buckets = self._due, self._buckets
        while due and due[0] <= t:
            ids, head = buckets.pop(heappop(due))
            self.trace.miss_events.extend(zip(ids[head:], repeat(t)))

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
        schedule's assignments and misses are read from the trace."""
        while self._due:
            self._expire(self._due[0])
        misses = [job_id for job_id, _ in self.trace.miss_events]
        return self.trace, Schedule.from_slots(self.trace.chosen, misses)


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
    segments = list(zip(points, points[1:]))
    # node 0 is the source, 1 + i job i, 1 + n + s segment s, the last the sink
    n, sink = len(subset), len(subset) + len(segments) + 1
    arcs = [(0, 1 + i, 1) for i in range(n)]
    arcs += [(1 + i, 1 + n + s, 1) for i, j in enumerate(subset)
             for s, (lo, hi) in enumerate(segments) if j.r <= lo and hi <= j.d]
    arcs += [(1 + n + s, sink, min(cap, 2**31 - 1)) for s, (lo, hi) in enumerate(segments)
             if (cap := profile.capacity_between(lo, hi)) > 0]
    rows, cols, caps = zip(*arcs)
    graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1), dtype=np.int32)
    return maximum_flow(graph, 0, sink).flow_value == n


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
    lo, hi, horizon = 1, len(jobs), int(jobs.d.max())
    while lo < hi:
        mid = (lo + hi) // 2
        if not edf_simulate(jobs, MachineProfile.constant(mid, horizon))[1].misses:
            hi = mid
        else:
            lo = mid + 1
    return lo


def distinct_deadlines(d: np.ndarray) -> list[int]:
    """The distinct values of a deadline column, ascending.  Equal neighbours
    go first, so jobs that share a deadline in runs cost one pass, not a sort."""
    keep = np.ones(len(d), dtype=bool)
    keep[1:] = d[1:] != d[:-1]
    return np.unique(d[keep]).tolist()


def off_prefix_series(jobs: Sequence[Job]) -> dict[int, int]:
    """``off_unit`` of everything released by time t, for each integer t.

    Keys run from 0 to the maximum release; the jobs may come in any order.
    The values come from one :class:`IncrementalOff` pass.
    """
    jobs = unit_columns(jobs)
    if not len(jobs):
        return {}
    engine = IncrementalOff(distinct_deadlines(jobs.d))
    steps = int(jobs.r.max()) + 1
    return {t: engine.add(released, t)
            for t, released in enumerate(release_blocks(jobs, steps))}


class IncrementalOff:
    """Exact optimum machine count over a growing released-job set.

    ``v`` machines suffice iff every window ``[s, e)`` holds at most
    ``v (e - s)`` of the jobs confined to it (Horn, 1974).  With ``A_e(s)``
    the jobs released from step ``s`` on that are due by ``e``, that is
    EDF's test: column ``e``'s backlog, the largest ``A_e(s) - v (t - s)``,
    which follows Lindley's recursion ``B <- max(B - v (t - t'), 0) + a``
    (Lindley, 1952), fits in ``v (e - t)``.  Per column the engine keeps
    that slack, the least ``v (e - s) - A_e(s)`` over the rows that released
    jobs due by ``e``, and the busy start ``b_e``, the latest row at it.  A
    step moves the slack of each column it reaches to ``min(slack,
    v (e - t)) - a_e(t)``, and ``b_e`` to ``t`` where its row is the least.

    ``OFF = v`` stands while no slack is negative.  When one is, the new
    ``OFF`` is the largest ``ceil(A_e(s) / (e - s))`` over those columns and
    their rows from ``b_e`` on: a row ``s < b_e`` has ``A_e(s) - A_e(b_e) <=
    v (b_e - s)``, so its ratio is a mediant of one at most ``v`` and the
    ratio at ``b_e``.  The same bound keeps it off the minimum at any higher
    rate, so the live slacks and busy starts are recomputed over the same
    windows, and no row before the earliest live busy start is read again.

    Past ``_SCALAR_COLUMNS`` columns live at the first releasing step, these
    are numpy columns, with a log of the groups released since the earliest
    live busy start, trimmed at each increase and whenever it doubles.  A
    step that keeps ``OFF`` is a handful of numpy passes; an increase
    rebuilds ``A_e(s)`` as suffix sums over the window, O(rows × live
    columns), in tables of ``_WINDOW_CELLS`` cells or one column, none kept.
    Fewer columns run in Python ints (:class:`_Column`), at amortized O(1)
    a column.  The numpy columns count steps from the first releasing step,
    so every value stays within ``2 * C_total * H``, ``C_total`` the jobs so
    far and ``H`` the widest window then: int64 while that fits, then Python
    ints for good.
    """

    def __init__(self, deadline_values: Iterable[int]):
        self._deadlines = deadlines = sorted(set(int(v) for v in deadline_values))
        self._column = {d: i for i, d in enumerate(deadlines)}
        self._t: int | None = None
        self._value = self._total = 0
        self._origin: int | None = None  # the first releasing step
        self._columns: list[_Column] | None = None  # the narrow path's live ones

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
        if (released.r != t).any() or any(d not in self._column or d <= t for d, _ in groups):
            self._refuse(released, t)
        self._t = t
        self._total += len(released)
        if self._origin is None:
            self._open(t)
        if self._columns is not None:
            self._step_columns(groups, t)
            return self._value
        if self._total > self._int64_total and self._none < math.inf:
            # from now on the numpy columns hold Python ints
            for name in ("_E", "_vE", "_slack", "_start"):
                setattr(self, name, getattr(self, name).astype(object))
            self._none = math.inf
            self._slack[self._start < 0] = math.inf
        if self._step_table(groups, t):
            self._raise_table(bisect_right(self._deadlines, t))
        elif len(self._log) > self._log_limit:
            self._trim(bisect_right(self._deadlines, t))
        return self._value

    def _open(self, t: int) -> None:
        """Set up the path for the columns live at the first releasing step."""
        self._origin = t
        lo = bisect_right(self._deadlines, t)
        if len(self._deadlines) - lo <= _SCALAR_COLUMNS:
            self._columns = [_Column(e) for e in self._deadlines[lo:]]
            return
        widest = self._deadlines[-1] - t
        self._int64_total = INT64_MAX // (2 * widest)  # largest total int64 holds
        dtype = np.int64 if widest <= INT64_MAX else object
        # a column already due is never read
        self._E = np.array([max(d - t, 0) for d in self._deadlines], dtype=dtype)
        self._vE = self._E * 0
        self._none = INT64_MAX  # the slack of a column no row has reached
        self._slack, self._start = (np.full(len(self._E), x, dtype) for x in (INT64_MAX, -1))
        self._log, self._log_limit = [], 0  # (step, columns, counts) per releasing step

    def _step_table(self, groups, t: int) -> bool:
        """Add row ``t`` to the columns it reaches, as numpy passes; return
        whether a slack went negative."""
        rel = t - self._origin
        cols = [self._column[d] for d, _ in groups]
        counts = [len(ids) for _, ids in groups]
        self._log.append((rel, cols, counts))
        first = cols[0]
        cap = self._vE[first:] - self._value * rel
        slack = self._slack[first:]
        self._start[first:][slack >= cap] = rel
        np.minimum(slack, cap, out=slack)
        for c, n in zip(cols, counts):  # jobs due at c count towards every later column
            slack[c - first:] -= n
        return slack.min() < 0

    def _windows(self, cols: np.ndarray) -> Iterator[tuple]:
        """Chunks of the column indices ``cols`` (ascending): each with its
        logged rows from its earliest busy start on, ``A_e(s)`` of every row
        and column, the widths ``e - s``, and the cells that count (from the
        column's busy start on, with jobs), of ``_WINDOW_CELLS`` or one column."""
        dtype, log = self._E.dtype, self._log
        logged = np.array([row for row, _, _ in log], dtype=dtype)
        of = np.repeat(np.arange(len(log)), [len(at) for _, at, _ in log])
        at = np.fromiter(chain.from_iterable(at for _, at, _ in log), np.int64, len(of))
        sizes = np.fromiter(chain.from_iterable(n for _, _, n in log), np.int64, len(of))
        starts = self._start[cols]
        size = max(_WINDOW_CELLS // (len(log) - np.searchsorted(logged, starts.min())), 1)
        for lo in range(0, len(cols), size):
            chunk, start = cols[lo:lo + size], starts[lo:lo + size]
            first = np.searchsorted(logged, start.min())
            k = np.searchsorted(of, first)
            bucket = np.searchsorted(chunk, at[k:])  # the first column due no earlier
            keep = bucket < len(chunk)
            rows = logged[first:]
            A = np.zeros((len(rows), len(chunk)), dtype=dtype)
            np.add.at(A, (of[k:][keep] - first, bucket[keep]), sizes[k:][keep])
            np.cumsum(A, axis=1, out=A)
            np.cumsum(A[::-1], axis=0, out=A[::-1])
            width = self._E[chunk] - rows[:, None]
            valid = (rows[:, None] >= start) & (A > 0)
            yield chunk, rows, A, width, valid

    def _raise_table(self, lo: int) -> None:
        """Raise ``OFF`` to the largest ceiling over the windows of the
        columns short of slack, then recompute the slack and busy start of
        every live column (``lo`` on) at it."""
        start, slack, v = self._start, self._slack, self._value
        short, reached = (np.flatnonzero(m) + lo for m in (slack[lo:] < 0, start[lo:] >= 0))
        with allocating(len(self._log) * (len(slack) - lo), "cells", "window tables"):
            for _, _, A, width, valid in self._windows(short):
                v = max(v, int(np.where(valid, -(-A // width), 0).max()))
            for cols, rows, A, width, valid in self._windows(reached):
                gap = np.where(valid, v * width - A, self._none)
                last = len(rows) - 1 - gap[::-1].argmin(axis=0)  # the latest minimum
                slack[cols] = gap[last, np.arange(len(cols))]
                start[cols] = rows[last]
        self._value = v
        self._vE = v * self._E
        self._trim(lo)

    def _trim(self, lo: int) -> None:
        """Drop the logged rows before the earliest live busy start."""
        start = self._start[lo:]
        since = start[start >= 0].min(initial=self._none)  # `_none` is past every step
        del self._log[:bisect_left(self._log, (since,))]
        self._log_limit = 2 * len(self._log) + 64

    def _step_columns(self, groups, t: int) -> None:
        """Add row ``t`` to the columns it reaches, one at a time in Python
        ints, and raise ``OFF`` if a slack went negative."""
        columns = self._columns
        del columns[:bisect_right(columns, t, key=attrgetter("e"))]
        due = {d: len(ids) for d, ids in groups}
        v, added, short = self._value, 0, False
        for col in columns[bisect_left(columns, groups[0][0], key=attrgetter("e")):]:
            added += due.get(col.e, 0)
            cap = v * (col.e - t)
            if col.slack >= cap:  # the backlog had drained: a busy period starts
                col.slack, col.s, col.p, col.lead = cap - added, [t], [col.count], 0
            else:
                col.slack -= added
                col.push(t, col.count)
            col.count += added
            short |= col.slack < 0
        if short:
            self._value = v = max(col.ceiling() for col in columns if col.slack < 0)
            for col in columns:
                if col.s:
                    col.restart(v)

    def _refuse(self, released: UnitJobs, t: int) -> None:
        """Name the first job, in input order, released off step ``t`` or
        due at no registered deadline after it."""
        for job in released:
            if job.r != t:
                raise ContractViolation(f"job {job.id} released at {job.r}, not {t}")
            if job.d not in self._column or job.d <= t:
                raise ContractViolation(
                    f"job {job.id} due at {job.d}: not a registered deadline after {t}")


class _Column:
    """A deadline column ``e`` in Python ints: its slack, its count of jobs
    due by ``e``, and the rows ``(s, P)`` of its busy window, ``P`` that
    count before ``s``, on their lower convex hull.  A row off the hull
    never leads; along it the ceiling and the slack's terms are unimodal,
    and their peaks only move later, so ``lead`` (the last ceiling's row)
    and the busy start (the first row) only move forward."""

    __slots__ = ("e", "slack", "count", "s", "p", "lead")

    def __init__(self, e: int):
        self.e, self.slack, self.count, self.s, self.p, self.lead = e, math.inf, 0, [], [], 0

    def push(self, s: int, p: int) -> None:
        """Append row ``(s, p)``, popping the rows on or above the segment to
        it; ``lead`` led at a count of at most ``p``, so it pops only for one as good."""
        rs, rp = self.s, self.p
        while len(rs) >= 2 and ((rp[-1] - rp[-2]) * (s - rs[-2])
                                >= (p - rp[-2]) * (rs[-1] - rs[-2])):
            rs.pop()
            rp.pop()
        rs.append(s)
        rp.append(p)

    def ceiling(self) -> int:
        """The largest ``ceil((count - P) / (e - s))`` over the rows."""
        s, p, x, e = self.s, self.p, self.count, self.e
        i, last = self.lead, len(s) - 1
        while i < last and (x - p[i + 1]) * (e - s[i]) >= (x - p[i]) * (e - s[i + 1]):
            i += 1
        self.lead = i
        return -((p[i] - x) // (e - s[i]))

    def restart(self, v: int) -> None:
        """Restart at the latest row of least slack at rate ``v``."""
        s, p = self.s, self.p
        j, last = 0, len(s) - 1
        while j < last and p[j + 1] - p[j] <= v * (s[j + 1] - s[j]):
            j += 1
        if j:
            del s[:j], p[:j]
            self.lead = max(self.lead - j, 0)
        self.slack = v * (self.e - s[0]) - (self.count - p[0])


def volume_lower_bound(jobs: Sequence[Job], d) -> int:
    """Workload bound on machines for a common deadline ``d``.

    Every job released at or after ``r`` must run inside ``[r, d)``, so any
    schedule needs at least ``ceil(volume / (d - r))`` machines; take the
    worst release point (Horn's window condition).  Valid for arbitrary
    (rational) job lengths.  One suffix sum over the jobs, latest release
    first, on the :func:`~schedlab.core.time_grid` numerators, so each
    ratio is one integer division; part of one release's jobs gives no more
    than all of them.  The sort is linear on a checked instance's columns.
    """
    if not jobs:
        return 0
    grid = time_grid(jobs)
    end = d * grid.scale
    best, vol = 1, 0
    for r, p in reversed(sorted(zip(grid.r, grid.p))):
        vol += p
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
    jobs = time_grid(require_valid(instance).jobs)
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
    # search jobs in deadline order so dead ends surface early
    order = sorted(jobs, key=lambda j: (j.d, j.r, j.id))

    @cache
    def place(idx: int, caps: tuple[int, ...]) -> bool:
        """Whether jobs ``idx..`` fit in the free slots ``caps``."""
        if idx == len(order):
            return True
        job = order[idx]
        return any(place(idx + 1, caps[:t] + (caps[t] - 1,) + caps[t + 1:])
                   for t in range(int(job.r), int(job.d)) if caps[t] > 0)

    return place(0, tuple(profile.at(t) for t in range(horizon)))
