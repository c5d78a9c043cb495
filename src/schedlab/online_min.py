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
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (INT64_MAX, ContractViolation, Instance, Job, Schedule, UnitJobs,
                   allocating, require_valid, unit_columns)
from .oracle import EdfQueue, EdfTrace, IncrementalOff, distinct_deadlines, release_blocks


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


def _float_or_inf(x: int) -> float:
    """A nonnegative count as a float, ``inf`` past float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def ratio_of_counts(cost: int, off: int) -> float:
    """``cost / off`` as a float (0.0 when ``off`` is 0), ``inf`` past float
    range: a huge ``alpha`` rents machine counts no float holds."""
    if not off:
        return 0.0
    try:
        return cost / off
    except OverflowError:
        return math.inf


def json_ratio(ratio: float) -> float | None:
    """A ratio as JSON outputs write it: ``None`` (``null``) when it is not
    finite, for which JSON has no number."""
    return ratio if math.isfinite(ratio) else None


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


def ceil_times(alpha: Fraction, x: int) -> int:
    """``ceil(alpha * x)`` in exact integer arithmetic.

    At ``alpha == EULER`` the call refuses to round a product lying within
    1e-12 of an integer: EULER stands in for an irrational constant, and its
    approximation error could flip the ceiling.  Other rationals are exact.
    """
    if x == 0:
        return 0
    num = alpha.numerator * x
    den = alpha.denominator
    q, rem = divmod(num, den)
    # ``alpha == EULER``, compared part by part to stay cheap per step.
    is_euler = den == _E_DEN and alpha.numerator == _E_NUM
    if is_euler and min(rem, den - rem) * 10**12 < den:
        raise ContractViolation(
            f"alpha*{x} sits within 1e-12 of an integer; refusing to round")
    return q + 1 if rem else q


def ceil_times_series(alpha: Fraction, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ceil_times` of every int64 ``x`` at once, exact, unguarded.

    Returns the ceilings and a mask of the ``x`` whose product the knife
    guard refuses to round; the caller decides which of them it reaches.
    """
    num, den = alpha.numerator, alpha.denominator
    if max(num * int(xs.max(initial=0)), den) <= INT64_MAX:
        product = xs * num
    else:
        product = xs.astype(object) * num  # Python ints: exact at any size
    q = product // den
    rem = product - q * den
    values = (q + (rem != 0)).astype(np.int64)
    if den == _E_DEN and num == _E_NUM:
        knife = (xs != 0) & (np.minimum(rem, den - rem) * 10**12 < den)
    else:
        knife = np.zeros(len(xs), dtype=bool)
    return values, knife


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
        return ratio_of_counts(self.cost, self.off_final)

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
        self._off_engine = IncrementalOff(deadline_values)
        self._edf = EdfQueue()
        self.t = 0
        self.released: list[list[int]] = []
        self.off: list[int] = []
        self.m: list[int] = []

    def step(self, t: int, released: UnitJobs) -> tuple[int, list[int]]:
        if t != self.t:
            raise ContractViolation(f"expected step {self.t}, got {t}")
        self.t += 1
        off = self._off_engine.add(released, t)
        m = ceil_times(self.alpha, off)
        self.released.append(released.id_list())
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

    An invalid instance is refused (``core.require_valid``); a generated
    or read one was checked when it was built, so this costs nothing.
    """
    if instance.model != "unit-min":
        raise ContractViolation(f"expected a unit-min instance, got {instance.model}")
    jobs = unit_columns(require_valid(instance).jobs)
    horizon = instance.horizon or int(jobs.d.max(initial=0))
    state = OnlineState(alpha, distinct_deadlines(jobs.d))
    for t, released in enumerate(release_blocks(jobs, horizon)):
        state.step(t, released)
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
    keeps ahead of the accumulated fractional mass.  Where a support ends is
    decided exactly, against the rational ``EULER``, by one floor division
    (``_support_end``): :func:`check_certificate` sweeps dominance over
    those exact ends and samples packing on a grid.  ``jobs`` is one column
    block, sorted by ``(release, id)``.
    """

    dstar: int
    jobs: UnitJobs


def build_certificate(jobs: Sequence[Job], dstar: int) -> FractionalCertificate:
    """Collect the jobs due by ``dstar``, sorted by ``(release, id)``.

    Refuses ``dstar < 1`` and any member released at or after ``dstar``: its
    window ``[r, d)`` is empty, so it has no support to spread over.
    """
    if dstar < 1:
        raise ContractViolation(f"dstar must be at least 1, got {dstar}")
    jobs = unit_columns(jobs)
    due = jobs[jobs.d <= dstar]
    members = due[np.lexsort((due.ids, due.r))]
    if len(members) and members.r[-1] >= dstar:
        j = members[-1]
        raise ContractViolation(
            f"job {j.id} has release {j.r} >= deadline {j.d}: empty window")
    return FractionalCertificate(dstar=dstar, jobs=members)


def _support_end(r: int, dstar: int, g: int) -> int:
    """The last grid point ``k/g`` of the support ``[r, dstar - (dstar - r)/e]``:
    the largest ``k`` with ``e * (dstar*g - k) >= (dstar - r) * g``, decided
    exactly against the rational ``EULER``."""
    return dstar * g + (r - dstar) * g * _E_DEN // _E_NUM


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


def _padded(series: list[int], length: int) -> np.ndarray:
    """``series[t]`` for ``t < length``; past its end the last value holds
    (zeros for an empty series).  A count past float range reads as ``inf``."""
    head = [_float_or_inf(x) for x in series[:length]]
    out = np.full(length, _float_or_inf(series[-1]) if series else 0.0)
    out[:len(head)] = head
    return out


#: Grid points per tile of the packing pass: 512 KiB per float64 array, so a
#: tile's densities, direct sum and closed form fit in a 4 MiB L2 together.
_TILE_POINTS = 65536


def check_certificate(cert: FractionalCertificate, transcript: OnlineTranscript,
                      grid_per_unit: int = 1000) -> CertificateReport:
    """Numerically audit one certificate against an online run.

    The grid has ``g = grid_per_unit`` points per unit on ``[0, dstar)``.
    Each distinct release's support is found once: ``[r*g, hi)``, with
    ``hi - 1`` its exact end (``_support_end``).

    * completion: every member's density integrates to 1 (closed form);
    * packing: total density, by direct summation and as the open-support
      count times ``1/(dstar - x)`` (the two must agree), never exceeds
      the run's machine count, nor ``e`` times the offline optimum.

    The packing pass runs over tiles of whole grid rows, a row being the
    ``g`` points of one step, about ``_TILE_POINTS`` points per tile, so no
    array spans the grid.  A tile takes each support it meets, clipped to
    the tile: one add of the density slice per job into the direct sum
    (every add at a point adds the same value, so each point's sum is the
    same however the supports are cut), and its ends in a tile-local
    difference array of open supports.  The worst agreement error and
    ``e·OFF`` excess are running maxima, and the first 100 profile
    failures are kept in grid order.

    Dominance needs no grid: at every integer t, the certificate jobs
    already scheduled are at least the fractional mass accrued by t.  A
    sweep over the distinct releases decides it; a release is finished once
    t passes its exact support end (the same rule on a grid of one point
    per unit), and only the still-active releases add a log term.
    """
    g = grid_per_unit
    if g < 2:
        raise ContractViolation("need at least 2 grid points per unit")
    dstar = cert.dstar
    with allocating(dstar * g, "grid points", "a float64 array"):
        np.empty(dstar * g)  # refuse a grid numpy cannot hold as one float64 array
    report = CertificateReport(dstar=dstar, grid_per_unit=g, n_jobs=len(cert.jobs))
    releases, per_release = np.unique(cert.jobs.r, return_counts=True)
    report.completion_worst = max((abs(math.log(span / (span / math.e)) - 1.0)
                                   for span in (dstar - releases).tolist()), default=0.0)

    # Both support ends rise with the release, so the supports that meet a
    # tile [a, b) are a window [first, last) of them.
    spans = [(r * g, _support_end(r, dstar, g) + 1, count)
             for r, count in zip(releases.tolist(), per_release.tolist())]
    m = _padded(transcript.m, dstar)[:, None]
    e_off = math.e * _padded(transcript.off, dstar)[:, None]
    failures = report.packing_profile_failures
    rows = max(1, _TILE_POINTS // g)
    first = last = 0
    for s in range(0, dstar, rows):
        a, b = s * g, min(s + rows, dstar) * g
        while first < len(spans) and spans[first][1] <= a:
            first += 1
        while last < len(spans) and spans[last][0] < b:
            last += 1
        inv = 1.0 / (dstar - np.arange(a, b, dtype=np.float64) / g)
        acc = np.zeros_like(inv)
        opened = np.zeros(b - a + 1, dtype=np.int64)
        for lo, hi, count in spans[first:last]:
            lo, hi = max(lo, a) - a, min(hi, b) - a
            into, step = acc[lo:hi], inv[lo:hi]
            for _ in range(count):  # repeated adds: route agreement measures them
                into += step
            opened[lo] += count
            opened[hi] -= count
        closed = np.cumsum(opened[:-1]) * inv
        report.agreement_worst = max(report.agreement_worst,
                                     float(np.abs(acc - closed).max()))
        table = closed.reshape(-1, g)
        if len(failures) < 100:
            m_tile = m[s:s + rows]
            over = np.flatnonzero(table > m_tile + report.tolerance)
            for k in over[:100 - len(failures)].tolist():
                failures.append(((a + k) / g, float(closed[k]), int(m_tile[k // g, 0])))
        report.packing_scaled_off_excess = max(report.packing_scaled_off_excess,
                                               float((table - e_off[s:s + rows]).max()))

    # Support ends rise with the release, so the started (r < t) and the
    # finished (end < t) releases are prefixes: [lo, hi) is the active window.
    ends = [_support_end(r, dstar, 1) for r in releases.tolist()]
    log_span = np.log(dstar - releases.astype(np.float64))
    star_ids = set(cert.jobs.ids.tolist())
    chosen = transcript.trace.chosen
    scheduled = finished = lo = hi = 0
    for t in range(dstar + 1):
        if 0 < t <= len(chosen):
            scheduled += sum(1 for jid in chosen[t - 1] if jid in star_ids)
        while hi < len(releases) and releases[hi] < t:
            hi += 1
        while lo < hi and ends[lo] < t:
            finished += int(per_release[lo])
            lo += 1
        mass = float(finished)
        if lo < hi:
            mass += float((per_release[lo:hi]
                           * (log_span[lo:hi] - math.log(dstar - t))).sum())
        if scheduled < mass - report.tolerance:
            report.dominance_failures.append((t, scheduled, mass))
    return report
