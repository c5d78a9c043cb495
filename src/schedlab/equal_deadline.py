"""Phase-based scheduler for arbitrary lengths with one common deadline.

The horizon ``[0, d]`` with ``d = 2^kappa - 1`` splits into ``kappa`` phases
of geometrically shrinking lengths ``2^(kappa-i)``.  A job released in phase
``i`` is short when its length is at most a quarter phase, long otherwise.
Long jobs start immediately on a machine of their own; short jobs wait for
the next phase boundary, where they are stacked greedily onto a pool of
short machines.  Closed machines are reopened lowest id first, so the cost
that matters is the peak number concurrently open.

Times are exact.  An instance's jobs are :class:`~schedlab.core.GridJobs`:
every time a Python ``int`` numerator over one common denominator ``L``, so
``x`` is held as ``x * L``.  The generator and the file reader fill those
columns; ``Job`` rows from elsewhere are converted once, by
:func:`~schedlab.core.time_grid`.  The runner and the volume bound read the
numerators as they are.  Phase boundaries are integers, so they scale too,
and the quarter-phase and midpoint tests compare ``4x`` and ``2x`` against
the scaled phase length (or, the same on integers, ``x`` against
``length // 4``).  Every placement decision is one integer comparison,
however large ``L`` is.  The transcript keeps the numerators and ``L``
too, and builds no ``Fraction`` for its JSON form.  Its ``schedule`` and
``lengths`` give the times as ``Fraction``s, built on first read.

Numbers cross the file and transcript edges as whole columns
(:mod:`schedlab.fileio`): a generated instance's times, in sixteenths, are
written as 16 remainder classes and read back as plain decimals over
``10**4``.  The generator draws from one bound ``getrandbits``, and the
runner records its pools once per phase.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from operator import add, itemgetter, le, not_
from typing import NamedTuple

from .core import ContractViolation, Instance, Schedule, require_valid, time_grid
from .fileio import _quotients_out
from .oracle import volume_lower_bound


class Phase(NamedTuple):
    index: int
    start: int
    end: int
    length: int


def phase_bounds(kappa: int, i: int) -> tuple[int, int, int]:
    """Boundaries ``(a_i, b_i, l_i)`` of phase ``i`` for deadline ``2^kappa - 1``."""
    if not 1 <= i <= kappa:
        raise ContractViolation(f"phase index {i} outside [1, {kappa}]")
    length = 1 << (kappa - i)
    start = (1 << kappa) - 2 * length
    return start, start + length, length


def phase_split(kappa: int) -> list[Phase]:
    if kappa < 1:
        raise ContractViolation("need kappa >= 1")
    return [Phase(i, *phase_bounds(kappa, i)) for i in range(1, kappa + 1)]


def classify(p, length) -> str:
    """Short iff the length fits in a quarter of the phase (inclusive).

    The test is the same on times scaled by any common factor.
    """
    return "short" if 4 * p <= length else "long"


@dataclass
class PhaseReport:
    index: int
    start: int
    end: int
    length: int
    released_short: int = 0
    released_long: int = 0
    closed_at_start: int = 0
    opened: int = 0
    m_short: int = 0
    m_long: int = 0

    def to_jsonable(self) -> dict:
        return {
            "i": self.index, "a": self.start, "b": self.end,
            "l": self.length, "released_short": self.released_short,
            "released_long": self.released_long,
            "closed": self.closed_at_start, "opened": self.opened,
            "m_short": self.m_short, "m_long": self.m_long,
        }


@dataclass
class EqualDeadlineTranscript:
    """A run's placements and audit.  Times are integer numerators over the
    common denominator ``scale``: ``placements`` holds ``(job id, machine,
    start * scale)`` in start then machine order, and ``sizes`` each job's
    ``p * scale``."""

    kappa: int
    d: int
    lb: int
    scale: int
    placements: list[tuple[int, int, int]]
    sizes: dict[int, int]
    misses: list[int]
    job_class: dict[int, str]
    phases: list[PhaseReport]
    peak_concurrent: int
    machines_used: int
    half_busy_ok: bool

    @cached_property
    def schedule(self) -> Schedule:
        """The placements with ``Fraction`` starts."""
        return Schedule([(j, m, Fraction(s, self.scale))
                         for j, m, s in self.placements], self.misses)

    @cached_property
    def lengths(self) -> dict[int, Fraction]:
        """Each job's length as a ``Fraction``."""
        return {j: Fraction(p, self.scale) for j, p in self.sizes.items()}

    def bound_rows(self) -> list[dict]:
        """Per-phase pool maxima against the volume-based machine budget."""
        rows = []
        for rep in self.phases:
            rows.append({
                "phase": rep.index,
                "m_short": rep.m_short,
                "short_budget": 8 * self.lb + 1,
                "m_long": rep.m_long,
                "long_budget": 8 * self.lb,
                "ok": (rep.m_short <= 8 * self.lb + 1
                       and rep.m_long <= 8 * self.lb),
            })
        return rows

    @property
    def ok(self) -> bool:
        return (not self.misses
                and self.half_busy_ok
                and self.peak_concurrent <= 16 * self.lb + 1
                and all(row["ok"] for row in self.bound_rows()))

    def to_jsonable(self) -> dict:
        """The transcript as JSON values; the schedule's start and end
        columns are written by :func:`~schedlab.fileio._quotients_out`."""
        ids, machines, starts = zip(*self.placements) if self.placements else ((),) * 3
        ends = list(map(add, starts, map(self.sizes.__getitem__, ids)))
        return {
            "kappa": self.kappa, "d": self.d, "lb": self.lb,
            "peak_concurrent": self.peak_concurrent,
            "machines_used": self.machines_used,
            "half_busy_ok": self.half_busy_ok,
            "misses": list(self.misses),
            "ok": self.ok,
            "phases": [rep.to_jsonable() for rep in self.phases],
            "bounds": self.bound_rows(),
            "schedule": [
                {"id": j, "machine": m, "start": start, "end": end, "class": cls}
                for j, m, start, end, cls in zip(
                    ids, machines, _quotients_out(starts, self.scale),
                    _quotients_out(ends, self.scale),
                    map(self.job_class.__getitem__, ids))
            ],
        }


class _Runner:
    """Open machines and the short pool in id order; the rest are long.

    Times are ints over the instance's common denominator ``L``: a job's
    length and floor, each machine's booked end, and the start, end and
    length of the :class:`Phase` passed to each call.  Pools change only
    when a machine opens or at a phase start, and machines close only at a
    phase start, so within a phase the pools only grow: a phase's maxima,
    and its share of the peak, are its pools at its end.
    """

    def __init__(self):
        self.busy: dict[int, int] = {}  # open machine id -> booked until
        self.short: list[int] = []      # ids of the short pool, ascending
        self.closed: list[int] = []     # closed ids, ascending
        self.next_fresh = 0
        self.assignments: list[tuple[int, int, int]] = []
        self.peak = 0
        self.half_busy_ok = True

    def record_pools(self, report: PhaseReport) -> None:
        """Record the pools at the end of the phase of ``report``."""
        report.m_short = len(self.short)
        report.m_long = len(self.busy) - len(self.short)
        self.peak = max(self.peak, len(self.busy))

    def acquire(self, job_ids: list[int], sizes: list[int],
                starts: list[int]) -> list[int]:
        """Open a machine for each job in turn, from its start for its
        length: the lowest closed ids first, then fresh ones.  Returns the
        machine ids."""
        count = len(job_ids)
        reused = self.closed[:count]
        del self.closed[:count]
        fresh = range(self.next_fresh, self.next_fresh + count - len(reused))
        self.next_fresh = fresh.stop
        mids = reused + list(fresh)
        self.busy.update(zip(mids, map(add, starts, sizes)))
        self.assignments += zip(job_ids, mids, starts)
        return mids

    def start_phase(self, phase: Phase) -> int:
        """Close idle machines and re-pool the rest; returns how many closed.

        A running machine joins the long pool when at least a quarter phase
        of its booked work remains, the short pool otherwise.
        """
        gone = [mid for mid, until in self.busy.items() if until <= phase.start]
        for mid in gone:
            del self.busy[mid]
        self.closed += gone
        self.closed.sort()
        self.short = sorted(mid for mid, until in self.busy.items()
                            if 4 * (until - phase.start) < phase.length)
        return len(gone)

    def place_short(self, job_id: int, p: int, phase: Phase, floor: int) -> bool:
        """Stack onto the lowest-id short machine that still finishes in time.

        ``floor`` is the job's own earliest start: the phase start for
        postponed work, the release time for final-phase work.  When nothing
        fits, a machine is opened; at that moment every other short machine
        must already be booked past the phase midpoint, the packing fact
        that keeps the pool near the volume bound.  Returns whether a
        machine was opened.
        """
        end = phase.end
        busy = self.busy
        for mid in self.short:
            start = busy[mid]
            if start < floor:
                start = floor
            if start + p <= end:
                busy[mid] = start + p
                self.assignments.append((job_id, mid, start))
                return False
        midpoint2 = 2 * end - phase.length
        if any(2 * busy[mid] < midpoint2 for mid in self.short):
            self.half_busy_ok = False
        if floor + p > end:
            raise ContractViolation(f"job {job_id} cannot finish by the end "
                                    f"of phase {phase.index} even alone")
        insort(self.short, self.acquire([job_id], [p], [floor])[0])
        return True


_CLASSES = ("long", "short")


def run_equal_deadline(instance: Instance) -> EqualDeadlineTranscript:
    """Run the phase scheduler and audit its machine usage.

    Returns a transcript with the full placement, per-phase pool maxima, the
    volume lower bound on any schedule's machine count, and the peak number
    of concurrently open machines.  On a valid instance every job completes
    by the common deadline; ``misses`` stays empty.

    A phase's releases are one slice of the release-sorted columns, each
    job short when ``p <= length // 4`` (:func:`classify`).  Before the
    final phase no short job is placed at release, so the phase's long
    jobs open their machines in one :meth:`_Runner.acquire`, in release
    order; the final phase places its jobs one by one.
    """
    require_valid(instance)
    if instance.model != "equal-deadline":
        raise ContractViolation("needs an equal-deadline instance")
    if not instance.jobs:
        return EqualDeadlineTranscript(
            kappa=0, d=0, lb=0, scale=1, placements=[], sizes={}, misses=[],
            job_class={}, phases=[], peak_concurrent=0, machines_used=0,
            half_busy_ok=True)
    jobs = time_grid(instance.jobs)
    ids, rel, size, scale = jobs.ids, jobs.r, jobs.p, jobs.scale
    d = jobs.d[0] // scale
    lb = volume_lower_bound(jobs, d)
    kappa = d.bit_length()
    phases = phase_split(kappa)
    reports = [PhaseReport(ph.index, ph.start, ph.end, ph.length) for ph in phases]
    scaled = [Phase(ph.index, ph.start * scale, ph.end * scale, ph.length * scale)
              for ph in phases]
    runner = _Runner()
    job_class: dict[int, str] = {}

    pos = 0
    postponed: list[int] = []
    for ph, report in zip(scaled, reports):
        if ph.index > 1:
            report.closed_at_start = runner.start_phase(ph)
            # longest first, ties by id
            postponed.sort(key=ids.__getitem__)
            postponed.sort(key=size.__getitem__, reverse=True)
            for i in postponed:
                report.opened += runner.place_short(ids[i], size[i], ph, ph.start)
        stop = bisect_left(rel, ph.end, pos)
        released = range(pos, stop)
        short = list(map(le, size[pos:stop], repeat(ph.length >> 2)))
        job_class.update(zip(ids[pos:stop], map(_CLASSES.__getitem__, short)))
        report.released_short = short.count(True)
        report.released_long = len(short) - report.released_short
        if ph.index < kappa:
            postponed = list(compress(released, short))
            longs = list(compress(released, map(not_, short)))
            runner.acquire(*([col[i] for i in longs] for col in (ids, size, rel)))
            report.opened += len(longs)
        else:
            for i, is_short in zip(released, short):
                if is_short:
                    report.opened += runner.place_short(ids[i], size[i], ph, rel[i])
                else:
                    runner.acquire([ids[i]], [size[i]], [rel[i]])
                    report.opened += 1
        pos = stop
        runner.record_pools(report)

    end = d * scale
    sizes = dict(zip(ids, size))
    runner.assignments.sort(key=itemgetter(2, 1))
    return EqualDeadlineTranscript(
        kappa=kappa, d=d, lb=lb, scale=scale, placements=runner.assignments,
        sizes=sizes, misses=sorted(j for j, m, s in runner.assignments
                                   if s + sizes[j] > end),
        job_class=job_class, phases=reports, peak_concurrent=runner.peak,
        machines_used=runner.next_fresh, half_busy_ok=runner.half_busy_ok)
