"""Online machine minimization for unit jobs.

The online algorithm watches jobs arrive, tracks the offline optimum
``OFF(t)`` of everything released so far, and at each step rents
``m(t) = ceil(alpha * OFF(t))`` machines, filling them earliest deadline
first.  At ``alpha = e`` this never misses a deadline; the witness is a
fractional schedule (one density per job) whose three checkable properties
live in :func:`check_certificate`.

Euler's constant is carried as a 60-digit rational so every ceiling and
comparison involving it is exact integer arithmetic; a guard trips if a
product ever lands within 1e-12 of an integer, which no representable
workload can reach.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import ContractViolation, Instance, Job, Schedule
from .oracle import EdfQueue, EdfTrace, IncrementalOff, _by_release


def _euler_fraction(digits: int = 60) -> Fraction:
    with localcontext() as ctx:
        ctx.prec = digits
        return Fraction(Decimal(1).exp())


#: Euler's number as an exact rational, correct to 60 significant digits.
EULER = _euler_fraction()

_E_NUM = EULER.numerator
_E_DEN = EULER.denominator


def _ratio_out(x: Fraction) -> str:
    """A scaling factor as transcripts write it: ``"e"`` for EULER."""
    return "e" if x == EULER else str(x)


def resolve_alpha(alpha) -> Fraction:
    """Normalize a machine-scaling factor to an exact rational.

    Accepts the string ``"e"`` (Euler's number), exact rationals, ints, and
    finite floats (converted exactly from their binary value); strings
    otherwise go through ``Fraction``.  The value must not be negative.
    """
    if isinstance(alpha, str) and alpha.strip().lower() == "e":
        return EULER
    if isinstance(alpha, (str, Fraction, int, float)):
        try:
            value = Fraction(alpha)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        else:
            if value >= 0:
                return value
    raise ContractViolation(f"expected 'e' or a nonnegative number, got {alpha!r}")


def ceil_times(alpha: Fraction, x: int, *, knife_guard: bool = False) -> int:
    """``ceil(alpha * x)`` in exact integer arithmetic.

    With ``knife_guard`` the call refuses to round a product lying within
    1e-12 of an integer; that can only happen when ``alpha`` approximates an
    irrational constant and the approximation error could flip the ceiling.
    """
    if x == 0:
        return 0
    num = alpha.numerator * x
    den = alpha.denominator
    q, rem = divmod(num, den)
    if knife_guard and min(rem, den - rem) * 10**12 < den:
        raise ContractViolation(
            f"alpha*{x} sits within 1e-12 of an integer; refusing to round")
    return q + 1 if rem else q


@dataclass
class OnlineTranscript:
    """Everything one online run produced, step by step."""

    alpha: Fraction
    released: list[list[int]]
    off: list[int]
    m: list[int]
    trace: EdfTrace
    schedule: Schedule

    @property
    def cost(self) -> int:
        return max(self.m, default=0)

    @property
    def off_final(self) -> int:
        return self.off[-1] if self.off else 0

    @property
    def ratio(self) -> float:
        return self.cost / self.off_final if self.off_final else 0.0

    def to_jsonable(self) -> dict:
        return {
            "alpha": _ratio_out(self.alpha),
            "cost": self.cost,
            "off_final": self.off_final,
            "misses": sorted(self.schedule.misses),
            "steps": [
                {"t": t, "released": self.released[t], "off": self.off[t],
                 "m": self.m[t], "scheduled": self.trace.chosen[t]}
                for t in range(len(self.m))
            ],
        }


class OnlineState:
    """Step-driven state machine for the scaled-EDF online algorithm.

    ``step(t, released)`` must be called for consecutive integer steps.  Each
    call registers the new jobs, refreshes the offline optimum, opens
    ``ceil(alpha * OFF(t))`` machines, and fills them earliest deadline
    first.  Jobs whose deadline expires while pending are recorded as missed
    and the run continues, so undersized ``alpha`` values can be studied.
    """

    def __init__(self, alpha, deadline_values: Iterable[int]):
        self.alpha = resolve_alpha(alpha)
        self._guard = self.alpha == EULER
        self._off_engine = IncrementalOff(deadline_values)
        self._edf = EdfQueue()
        self.t = 0
        self.released: list[list[int]] = []
        self.off: list[int] = []
        self.m: list[int] = []

    def step(self, t: int, released: Sequence[Job]) -> tuple[int, list[int]]:
        if t != self.t:
            raise ContractViolation(f"expected step {self.t}, got {t}")
        for j in released:
            if j.p != 1:
                raise ContractViolation(f"job {j.id} is not a unit job")
        self.t += 1
        off = self._off_engine.add(released, t)
        m = ceil_times(self.alpha, off, knife_guard=self._guard)
        self.released.append([j.id for j in released])
        slot = self._edf.step(t, released, m)
        self.off.append(off)
        self.m.append(m)
        return m, slot

    def finish(self) -> OnlineTranscript:
        """Drain never-scheduled jobs into the miss list and wrap up."""
        trace, schedule = self._edf.finish()
        return OnlineTranscript(
            alpha=self.alpha, released=self.released, off=self.off,
            m=self.m, trace=trace, schedule=schedule)


def run_alpha_edf(instance: Instance, alpha="e") -> OnlineTranscript:
    """Drive the online algorithm over a full unit-job instance.

    The caller is responsible for instance validity (see
    ``core.require_valid``); this loop does not re-validate so that very
    large generated instances run at full speed.
    """
    if instance.model != "unit-min":
        raise ContractViolation(f"expected a unit-min instance, got {instance.model}")
    jobs = instance.jobs
    horizon = instance.horizon or (int(max(j.d for j in jobs)) if jobs else 0)
    releases = _by_release(jobs)
    state = OnlineState(alpha, {j.d for j in jobs})
    for t in range(horizon):
        state.step(t, releases.get(t, ()))
    return state.finish()


# ---------------------------------------------------------------------------
# Fractional certificate

@dataclass(frozen=True)
class FractionalCertificate:
    """Fractional witness that a scaled profile fits all jobs due by ``dstar``.

    Job ``j`` carries density ``1 / (dstar - x)`` on the interval
    ``[r_j, dstar - (dstar - r_j)/e]`` and zero elsewhere.  The density
    integrates to exactly one over the support, total density at any instant
    stays below ``e`` times the offline optimum, and the integer schedule
    keeps ahead of the accumulated fractional mass.
    """

    dstar: int
    jobs: tuple[Job, ...]
    excluded: tuple[int, ...] = ()

    def support_end(self, job: Job) -> float:
        return self.dstar - (self.dstar - job.r) / math.e

    def density(self, job: Job, x: float) -> float:
        if job.r <= x <= self.support_end(job):
            return 1.0 / (self.dstar - x)
        return 0.0

    def completion_integral(self, job: Job) -> float:
        span = self.dstar - job.r
        return math.log(span / (span / math.e))


def build_certificate(jobs: Sequence[Job], dstar: int) -> FractionalCertificate:
    """Collect the jobs due by ``dstar`` and attach their densities."""
    members = []
    excluded = []
    for j in jobs:
        if j.d > dstar:
            continue
        if j.r >= dstar:
            excluded.append(j.id)
        else:
            members.append(j)
    if excluded:
        warnings.warn(
            f"{len(excluded)} job(s) released at or after dstar={dstar} excluded",
            stacklevel=2)
    members.sort(key=lambda j: (j.r, j.id))
    return FractionalCertificate(dstar=dstar, jobs=tuple(members),
                                 excluded=tuple(excluded))


def _support_hi_index(r: int, dstar: int, g: int) -> int:
    """Largest grid index k with k/g inside job's support, decided exactly.

    The support ends where ``e * (dstar - x)`` meets ``dstar - r``; the float
    estimate is corrected with exact rational comparisons against the stored
    Euler constant.
    """
    target = (dstar - r) * g * _E_DEN
    k = int(math.floor(g * (dstar - (dstar - r) / math.e)))
    k = min(k, dstar * g - 1)
    while _E_NUM * (dstar * g - (k + 1)) >= target:
        k += 1
    while k >= 0 and _E_NUM * (dstar * g - k) < target:
        k -= 1
    return k


@dataclass
class CertificateReport:
    """Outcome of the three certificate checks plus the route-agreement check."""

    dstar: int
    grid_per_unit: int
    n_jobs: int
    completion_worst: float = 0.0
    agreement_worst: float = 0.0
    packing_profile_failures: list[tuple[float, float, int]] = field(default_factory=list)
    packing_scaled_off_excess: float = float("-inf")
    dominance_failures: list[tuple[int, int, float]] = field(default_factory=list)
    tolerance: float = 1e-9

    @property
    def completion_ok(self) -> bool:
        return self.completion_worst <= self.tolerance

    @property
    def agreement_ok(self) -> bool:
        return self.agreement_worst <= self.tolerance

    @property
    def packing_profile_ok(self) -> bool:
        return not self.packing_profile_failures

    @property
    def packing_scaled_off_ok(self) -> bool:
        return self.packing_scaled_off_excess <= self.tolerance

    @property
    def dominance_ok(self) -> bool:
        return not self.dominance_failures

    @property
    def ok(self) -> bool:
        return (self.completion_ok and self.agreement_ok
                and self.packing_profile_ok and self.packing_scaled_off_ok
                and self.dominance_ok)

    def to_jsonable(self) -> dict:
        return {
            "dstar": self.dstar,
            "grid_per_unit": self.grid_per_unit,
            "jobs": self.n_jobs,
            "ok": self.ok,
            "completion": {"ok": self.completion_ok, "worst_error": self.completion_worst},
            "route_agreement": {"ok": self.agreement_ok, "worst_error": self.agreement_worst},
            "packing_vs_profile": {
                "ok": self.packing_profile_ok,
                "failures": [
                    {"t": t, "density": v, "machines": m}
                    for t, v, m in self.packing_profile_failures[:20]
                ],
            },
            "packing_vs_scaled_off": {
                "ok": self.packing_scaled_off_ok,
                "worst_excess": self.packing_scaled_off_excess,
            },
            "dominance": {
                "ok": self.dominance_ok,
                "failures": [
                    {"t": t, "scheduled": lhs, "mass": rhs}
                    for t, lhs, rhs in self.dominance_failures[:20]
                ],
            },
        }


def check_certificate(cert: FractionalCertificate, transcript: OnlineTranscript,
                      grid_per_unit: int = 1000) -> CertificateReport:
    """Numerically audit one certificate against an online run.

    Checks, at `grid_per_unit` points per unit of time:

    * completion: every member's density integrates to 1 (closed form);
    * packing: total density, computed both by direct summation and by the
      interval-counting closed form (the two must agree), never exceeds the
      run's machine count, nor ``e`` times the offline optimum;
    * dominance: at every integer t, the number of certificate jobs already
      scheduled is at least the total fractional mass accrued by t.
    """
    g = grid_per_unit
    if g < 2:
        raise ContractViolation("need at least 2 grid points per unit")
    dstar = cert.dstar
    tol = 1e-9
    report = CertificateReport(dstar=dstar, grid_per_unit=g, n_jobs=len(cert.jobs))
    steps = len(transcript.m)

    def off_at(t: int) -> int:
        if not transcript.off:
            return 0
        return transcript.off[min(t, steps - 1)]

    def m_at(t: int) -> int:
        if not transcript.m:
            return 0
        return transcript.m[min(t, steps - 1)]

    worst = 0.0
    for j in cert.jobs:
        worst = max(worst, abs(cert.completion_integral(j) - 1.0))
    report.completion_worst = worst

    total = dstar * g
    tgrid = np.arange(total, dtype=np.float64) / g
    inv = 1.0 / (dstar - tgrid)
    acc = np.zeros(total)
    klos = np.empty(len(cert.jobs), dtype=np.int64)
    khis = np.empty(len(cert.jobs), dtype=np.int64)
    for idx, j in enumerate(cert.jobs):
        klo = int(j.r) * g
        khi = _support_hi_index(int(j.r), dstar, g)
        klos[idx] = klo
        khis[idx] = khi
        acc[klo:khi + 1] += inv[klo:khi + 1]
    klos.sort()
    khis.sort()
    kk = np.arange(total, dtype=np.int64)
    counts = (np.searchsorted(klos, kk, side="right")
              - np.searchsorted(khis, kk, side="left"))
    closed = counts * inv
    report.agreement_worst = float(np.abs(acc - closed).max(initial=0.0))

    floor_idx = kk // g
    m_arr = np.array([m_at(t) for t in range(dstar)], dtype=np.float64)[floor_idx]
    off_arr = np.array([off_at(t) for t in range(dstar)], dtype=np.float64)[floor_idx]
    bad = np.nonzero(closed > m_arr + tol)[0]
    for k in bad[:100]:
        report.packing_profile_failures.append(
            (float(tgrid[k]), float(closed[k]), int(m_arr[k])))
    report.packing_scaled_off_excess = float((closed - math.e * off_arr).max(initial=float("-inf")))

    star_ids = {j.id for j in cert.jobs}
    scheduled_running = 0
    lhs_by_t = [0]
    for t in range(dstar):
        if t < len(transcript.trace.chosen):
            scheduled_running += sum(1 for jid in transcript.trace.chosen[t]
                                     if jid in star_ids)
        lhs_by_t.append(scheduled_running)
    for t in range(dstar + 1):
        mass = 0.0
        for j in cert.jobs:
            if t <= j.r:
                continue
            end = cert.support_end(j)
            if t >= end:
                mass += cert.completion_integral(j)
            else:
                mass += math.log((dstar - j.r) / (dstar - t))
        if lhs_by_t[t] < mass - tol:
            report.dominance_failures.append((t, lhs_by_t[t], mass))
    return report
