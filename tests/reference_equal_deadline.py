"""The ``Fraction`` row code that the equal-deadline pipeline ran before its
integer time grid.

Each function works on ``Job`` rows in exact ``Fraction`` arithmetic, one
comparison at a time.  They are the references the grid code is compared
with: the generator by the ``repr`` of its rows, the runner by its transcript
bytes and field types, the validator by its violation lists.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from schedlab.core import (
    MODELS,
    ContractViolation,
    Instance,
    Job,
    Violation,
    _is_integral,
)
from schedlab.equal_deadline import (
    EqualDeadlineTranscript,
    Phase,
    PhaseReport,
    phase_split,
)


# ---------------------------------------------------------------------------
# generator

def _dyadic(rng: random.Random, lo: Fraction, hi: Fraction,
            max_denom_bits: int = 4) -> Fraction:
    """Uniform-ish dyadic rational in (lo, hi]."""
    bits = rng.randint(0, max_denom_bits)
    scale = 1 << bits
    lo_n = int(lo * scale) + 1
    hi_n = int(hi * scale)
    if hi_n < lo_n:
        return Fraction(hi)
    return Fraction(rng.randint(lo_n, hi_n), scale)


def reference_equal_deadline_instance(kappa: int, jobs: int,
                                      seed: int = 0) -> Instance:
    """Random dyadic releases and sizes against the deadline 2^kappa - 1."""
    if kappa < 1 or jobs < 0:
        raise ContractViolation("need kappa >= 1 and jobs >= 0")
    rng = random.Random(seed)
    d = (1 << kappa) - 1
    out = []
    for i in range(jobs):
        r = _dyadic(rng, Fraction(0), Fraction(d), 3) - Fraction(1, 8)
        if r < 0:
            r = Fraction(0)
        p = _dyadic(rng, Fraction(0), d - r)
        if r.denominator == 1:
            r = int(r)
        out.append(Job(i, r, d, p=p))
    return Instance.of("equal-deadline", out)


# ---------------------------------------------------------------------------
# validator

def reference_validate_instance(instance: Instance) -> list[Violation]:
    """Check all model invariants; returns an empty list when valid."""
    v: list[Violation] = []
    if instance.model not in MODELS:
        v.append(Violation(None, "BadModel", f"unknown model {instance.model!r}"))
        return v

    seen: set[int] = set()
    prev_key = None
    for j in instance.jobs:
        if j.id < 0:
            v.append(Violation(j.id, "BadId", "ids must be non-negative"))
        if j.id in seen:
            v.append(Violation(j.id, "DuplicateId", "job id reused"))
        seen.add(j.id)
        key = (j.r, j.id)
        if prev_key is not None and key < prev_key:
            v.append(Violation(j.id, "UnsortedJobs",
                               "jobs must be sorted by (release, id)"))
        prev_key = key
        if j.r < 0:
            v.append(Violation(j.id, "NegativeRelease", f"r={j.r}"))
        if j.p <= 0:
            v.append(Violation(j.id, "NonPositiveLength", f"p={j.p}"))
        if j.w < 0:
            v.append(Violation(j.id, "NegativeWeight", f"w={j.w}"))
        if j.r + j.p > j.d:
            v.append(Violation(j.id, "WindowTooSmall",
                               f"r+p={j.r + j.p} exceeds d={j.d}"))

    if instance.model in ("unit-min", "throughput"):
        for j in instance.jobs:
            if j.p != 1:
                v.append(Violation(j.id, "NonUnitLength", f"p={j.p}"))
            if not (_is_integral(j.r) and _is_integral(j.d)):
                v.append(Violation(j.id, "NonIntegerTime",
                                   f"r={j.r}, d={j.d} must be integers"))

    if instance.model == "unit-min" and instance.jobs and instance.horizon is not None:
        max_d = max(j.d for j in instance.jobs)
        if instance.horizon != max_d:
            v.append(Violation(None, "HorizonMismatch",
                               f"horizon={instance.horizon}, max deadline={max_d}"))

    if instance.model == "equal-deadline" and instance.jobs:
        d0 = instance.jobs[0].d
        if any(j.d != d0 for j in instance.jobs):
            v.append(Violation(None, "UnequalDeadlines",
                               "all deadlines must coincide"))
        if not _is_integral(d0) or int(d0) < 1 or (int(d0) + 1) & int(d0) != 0:
            v.append(Violation(None, "BadCommonDeadline",
                               f"deadline {d0} is not of the form 2**k - 1"))

    if instance.model == "throughput":
        if instance.k is None or instance.k < 1:
            v.append(Violation(None, "BadMachineCount", f"k={instance.k}"))

    return v


# ---------------------------------------------------------------------------
# runner

def _volume_lower_bound(jobs, d) -> int:
    """The suffix-sum volume bound in ``Fraction`` arithmetic."""
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


def _classify(p, length) -> str:
    return "short" if 4 * Fraction(p) <= length else "long"


@dataclass
class _Machine:
    id: int
    busy_until: Fraction


class _Runner:
    """Open machines and the short pool in id order; the rest are long."""

    def __init__(self):
        self.open: dict[int, _Machine] = {}
        self.short: list[_Machine] = []
        self.closed: set[int] = set()
        self.next_fresh = 0
        self.assignments: list[tuple[int, int, Fraction]] = []
        self.peak = 0
        self.half_busy_ok = True

    def record_pools(self, report: PhaseReport) -> None:
        report.m_short = max(report.m_short, len(self.short))
        report.m_long = max(report.m_long, len(self.open) - len(self.short))

    def acquire(self, pool: str, job: Job, start: Fraction) -> None:
        if self.closed:
            mid = min(self.closed)
            self.closed.remove(mid)
        else:
            mid = self.next_fresh
            self.next_fresh += 1
        machine = _Machine(mid, start + Fraction(job.p))
        self.open[mid] = machine
        if pool == "short":
            insort(self.short, machine, key=lambda m: m.id)
        self.assignments.append((job.id, mid, start))
        self.peak = max(self.peak, len(self.open))

    def start_phase(self, phase: Phase) -> int:
        gone = [mid for mid, m in self.open.items() if m.busy_until <= phase.start]
        for mid in gone:
            del self.open[mid]
        self.closed.update(gone)
        quarter = Fraction(phase.length, 4)
        self.short = [m for _, m in sorted(self.open.items())
                      if m.busy_until - phase.start < quarter]
        return len(gone)

    def place_short(self, job: Job, phase: Phase, earliest) -> bool:
        p = Fraction(job.p)
        floor = Fraction(earliest)
        for machine in self.short:
            start = max(machine.busy_until, floor)
            if start + p <= phase.end:
                machine.busy_until = start + p
                self.assignments.append((job.id, machine.id, start))
                return False
        midpoint = phase.end - Fraction(phase.length, 2)
        if any(machine.busy_until < midpoint for machine in self.short):
            self.half_busy_ok = False
        if floor + p > phase.end:
            raise ContractViolation(
                f"job {job.id} cannot finish by {phase.end} even alone")
        self.acquire("short", job, floor)
        return True


def reference_run_equal_deadline(instance: Instance) -> EqualDeadlineTranscript:
    """The phase scheduler on ``Fraction`` times.  The caller validates."""
    if not instance.jobs:
        return EqualDeadlineTranscript(
            kappa=0, d=0, lb=0, scale=1, placements=[], sizes={}, misses=[],
            job_class={}, phases=[], peak_concurrent=0, machines_used=0,
            half_busy_ok=True)
    d = int(instance.common_deadline)
    lb = _volume_lower_bound(instance.jobs, d)
    kappa = d.bit_length()
    phases = phase_split(kappa)
    runner = _Runner()
    reports = [PhaseReport(ph.index, ph.start, ph.end, ph.length) for ph in phases]
    job_class: dict[int, str] = {}
    lengths = {job.id: Fraction(job.p) for job in instance.jobs}

    jobs = list(instance.jobs)
    pos = 0
    postponed: list[Job] = []
    for ph, report in zip(phases, reports):
        if ph.index > 1:
            report.closed_at_start = runner.start_phase(ph)
            carried = sorted(postponed, key=lambda j: (-Fraction(j.p), j.id))
            postponed = []
            for job in carried:
                report.opened += runner.place_short(job, ph, ph.start)
        runner.record_pools(report)
        while pos < len(jobs) and Fraction(jobs[pos].r) < ph.end:
            job = jobs[pos]
            pos += 1
            cls = _classify(job.p, ph.length)
            job_class[job.id] = cls
            if cls == "long":
                report.released_long += 1
                runner.acquire("long", job, Fraction(job.r))
                report.opened += 1
            elif ph.index < kappa:
                report.released_short += 1
                postponed.append(job)
            else:
                report.released_short += 1
                report.opened += runner.place_short(job, ph, job.r)
            runner.record_pools(report)

    assignments = sorted(runner.assignments, key=lambda a: (a[2], a[1]))
    misses = sorted(j for j, m, s in runner.assignments if s + lengths[j] > d)
    # the transcript holds times as numerators over one common denominator
    scale = lcm(*(Fraction(x).denominator
                  for x in [*lengths.values(), *(s for _, _, s in assignments)]))
    return EqualDeadlineTranscript(
        kappa=kappa, d=d, lb=lb, scale=scale,
        placements=[(j, m, int(s * scale)) for j, m, s in assignments],
        sizes={j: int(p * scale) for j, p in lengths.items()}, misses=misses,
        job_class=job_class, phases=reports, peak_concurrent=runner.peak,
        machines_used=runner.next_fresh, half_busy_ok=runner.half_busy_ok)
