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
from itertools import chain
from dataclasses import dataclass, field
from decimal import Context, Decimal
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (INT64_MAX, ContractViolation, Instance, Job, Schedule, UnitJobs,
                   allocating, exact_int, require_valid, unit_columns)
from .oracle import EdfQueue, EdfTrace, IncrementalOff, distinct_deadlines, release_blocks


#: Euler's number as an exact rational, correct to 60 significant digits.
EULER = Fraction(Decimal(1).exp(Context(prec=60)))

_E_NUM, _E_DEN = EULER.numerator, EULER.denominator


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
    num, den = alpha.numerator * x, alpha.denominator
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
        # OFF rarely moves; while it holds, so does m
        m = self.m[-1] if self.off and self.off[-1] == off else ceil_times(self.alpha, off)
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

    Refuses a ``dstar`` below 1 or not an integer (``core.exact_int``), and
    any member released at or after it: its empty window has no support.
    """
    if (dstar := exact_int(dstar, "dstar")) < 1:
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
    out = np.full(length, _float_or_inf(series[-1]) if series else 0.0)
    out[:min(len(series), length)] = [_float_or_inf(x) for x in series[:length]]
    return out


#: Grid points per chunk of the point screen: the fastest of 8,192 to 65,536 (ROADMAP.md).
_TILE_POINTS = 32768

#: A piece's top binades, where points take the exact rounding: the fastest (ROADMAP.md).
_EXACT_BINADES = 3


def _binade_bound(n: np.ndarray, v_lo: np.ndarray, v_hi: np.ndarray, at=slice(None),
                  v: np.ndarray | None = None) -> np.ndarray:
    """A bound on ``|s_n - fl(n*v)|`` (:func:`check_certificate`) on pieces of level ``n``
    whose values lie in ``[v_lo, v_hi]``, every add rounding by half a unit; or, at points
    ``v`` of the pieces ``at``, with their exact rounding in the top ``_EXACT_BINADES``."""
    (f, p), wide = np.frexp(v_lo), v_hi * (1 + (n + 1) * 2.0**-52)  # v' >= v*(1+2^-53)^n
    top = np.frexp(n * wide)[1] - p  # n*v' < 2^(p+top): the sums lie in binades < p+top
    rows, cut = [], 0 if v is None else _EXACT_BINADES
    for k in range(int(top.max(initial=0))):  # binade E = p+top-1-k; u_E/2 is `half` units
        half = np.int64(1) << np.maximum(top - 1 - k, 0)  # of 2^(p-53), as every term
        fill = np.floor(2.0**53 * half / np.maximum(np.ldexp(f, 53) - half, 0.5)) + 1
        rows.append((np.minimum(fill, n - np.floor(np.ldexp(half, p) / wide)) * (k < top), half))
    # the crossings and the product, then the top binades' exact rounding at each point
    bound = (1.5 * np.ldexp(1.0, top) - 1 + sum(c * h for c, h in rows[cut:]))[at]
    m = None if v is None else np.ldexp(v, 53 - p[at]).astype(np.int64)  # exact: v >= v_lo
    for count, half in rows[:cut]:  # m's distance to the multiples of u_E, 2*half units
        low = m & (2 * half[at] - 1)
        bound += np.minimum(low, 2 * half[at] - low) * count[at]
    return np.ldexp(bound * (1 + 2.0**-40), p[at] - 53)  # covers the bound's own rounding


def _worst_error(x: np.ndarray, n: np.ndarray, dstar: int, g: int) -> float:
    """The largest ``|s_n - fl(n*v)|`` over grid points ``x``, ``n`` falling."""
    v, acc, fall = 1.0 / (dstar - x / g), np.zeros(len(x)), n - np.append(n[1:], 0)
    for last in np.flatnonzero(fall).tolist():  # acc[:last + 1] adds fall[last] more
        into, step = acc[:last + 1], v[:last + 1]
        for _ in range(int(fall[last])):
            into += step
    return float(np.abs(acc - n * v).max(initial=0.0))


def check_certificate(cert: FractionalCertificate, transcript: OnlineTranscript,
                      grid_per_unit: int = 1000) -> CertificateReport:
    """Numerically audit one certificate against an online run.

    * completion: every member's density integrates to 1 (closed form);
    * packing: total density, by direct summation and as the open-support
      count times ``1/(dstar - x)`` (the two must agree), never exceeds
      the run's machine count, nor ``e`` times the offline optimum.

    The grid has ``g = grid_per_unit`` points per unit on ``[0, dstar)``,
    an integer (``core.exact_int``) of at least 2.  The exact support ends
    (``_support_end``) and the rows (one step's ``g`` points) cut it into
    pieces of one open-support count ``N``.  On a piece ``fl(N*v)``, ``v =
    1/(dstar - x)``, rises with ``x``: a row peaks at a piece's last point,
    the ``e*OFF`` excess reads the peaks, and only a failing row is
    expanded, to list the first 100 profile failures.

    A point's direct sum ``s_N`` adds ``v`` ``N`` times, so its error
    depends on ``(N, v)`` alone.  The adds stay only for
    ``route_agreement``, which the benchmark's digests pin, until an exact
    checker with no grid replaces them.  The pieces' last points seed the
    largest error; a bound then screens the pieces, and the kept ones'
    points in chunks of ``_TILE_POINTS``, and only a point it cannot rule
    out gets the adds.  Bound (after Higham, §4.2), for ``v = M*2^(P-53)``,
    ``2^52 <= M < 2^53``: an add whose input (a multiple of ``u_E =
    2^(E-52)``) and exact sum lie in the binade ``[2^E, 2^(E+1))`` rounds by
    exactly ``δ_E = dist(v, u_E*Z)``, at ``E = P-1+b`` ``2^(P-53)*min(M mod
    2^b, 2^b - M mod 2^b)``, and adds ``v - u_E/2`` or more to ``s``: ``E``
    holds at most ``floor(2^E/(v - u_E/2)) + 1`` of them (``N`` if ``v <=
    u_E/2``) and, as ``s_k <= k*v'``, ``v' = v*(1+2^-53)^N``, at most ``N -
    floor(2^E/v')``.  At most one add crosses into each binade, by at most
    ``u_E/2``, and with ``2^Q > N*v' >= 2^(Q-1)`` the product rounds by at
    most ``2^(Q-54)``: the error is at most that plus ``count_E*δ_E +
    u_E/2`` over the binades.  The first count falls with ``v`` and the
    second rises, so taken at a piece's first and last point they hold on
    all of it.  Pieces take every ``δ_E`` as ``u_E/2``, points the exact
    ``δ_E`` in their piece's top ``_EXACT_BINADES`` binades.

    Dominance needs no grid: at every integer t, the certificate jobs run
    (one mask over the run's slots) are at least the mass accrued by t: the
    releases whose exact support end (the same rule at ``g = 1``) t passed,
    plus a log term for each still active one.  Prefix sums screen every t,
    with a bound on their rounding; a t they cannot pass gets the per-step
    sum, which is also the mass a failure reports.
    """
    if (g := exact_int(grid_per_unit, "grid_per_unit")) < 2:
        raise ContractViolation("need at least 2 grid points per unit")
    dstar = cert.dstar
    with allocating(dstar * g, "grid points", "a float64 array"):
        np.empty(dstar * g)  # refuse a grid numpy cannot hold as one float64 array
    report = CertificateReport(dstar=dstar, grid_per_unit=g, n_jobs=len(cert.jobs))
    tol = report.tolerance
    releases, per_release = np.unique(cert.jobs.r, return_counts=True)
    report.completion_worst = max((abs(math.log(span / (span / math.e)) - 1.0)
                                   for span in (dstar - releases).tolist()), default=0.0)

    stops = np.array([_support_end(r, dstar, g) + 1 for r in releases.tolist()], np.int64)
    start, stop = (bounds := np.union1d(np.arange(dstar + 1) * g, stops))[:-1], bounds[1:]
    done = np.append(0, np.cumsum(per_release))
    level = (done[np.searchsorted(releases * g, start, "right")]
             - done[np.searchsorted(stops, start, "right")])  # prefixes: ends rise with r
    v_first, v_last = 1.0 / (dstar - start / g), 1.0 / (dstar - (stop - 1) / g)
    peak = np.maximum.reduceat(level * v_last, np.searchsorted(start, np.arange(dstar) * g))
    m, e_off = _padded(transcript.m, dstar), math.e * _padded(transcript.off, dstar)
    report.packing_scaled_off_excess = float((peak - e_off).max())
    failures = report.packing_profile_failures
    for row in np.flatnonzero(peak > m + tol)[:100].tolist():
        x = np.arange(row * g, (row + 1) * g)
        dense = level[np.searchsorted(start, x, "right") - 1] * (1.0 / (dstar - x / g))
        failures += [((row * g + k) / g, float(dense[k]), int(m[row]))
                     for k in np.flatnonzero(dense > m[row] + tol)[:100 - len(failures)].tolist()]

    order = np.argsort(-level, kind="stable")[:np.count_nonzero(level)]  # N falls
    worst = _worst_error(stop[order] - 1, level[order], dstar, g)
    kept = order[_binade_bound(level[order], v_first[order], v_last[order]) >= worst]
    ends = np.cumsum((stop - start)[kept])  # the kept points, laid end to end
    for c0 in range(0, ends[-1] if len(ends) else 0, _TILE_POINTS):
        a, b = np.searchsorted(ends, [c0, c0 + _TILE_POINTS], "right") + [0, 1]  # pieces met
        sizes = np.diff(np.minimum(ends[a:b], c0 + _TILE_POINTS), prepend=c0)
        met, at = kept[a:b], np.repeat(np.arange(len(sizes)), sizes)
        x = np.arange(c0, c0 + len(at)) + (stop[met] - ends[a:b])[at]
        v = 1.0 / (dstar - x / g)
        near = worst <= _binade_bound(level[met], v_first[met], v_last[met], at, v)
        worst = max(worst, _worst_error(x[near], level[met][at[near]], dstar, g))
    report.agreement_worst = worst

    chosen = transcript.trace.chosen[:dstar]
    ran = np.cumsum(np.isin(np.fromiter(chain.from_iterable(chosen), np.int64), cert.jobs.ids))
    scheduled = np.append(0, ran)[np.cumsum([0, *map(len, chosen), *[0] * (dstar - len(chosen))])]
    # Support ends rise with the release, so the started (r < t) and the
    # finished (end < t) releases are prefixes: [lo, hi) is the active window.
    t = np.arange(dstar + 1)
    lo, hi = np.searchsorted((stops - 1) // g, t), np.searchsorted(releases, t)
    log_span = np.log(dstar - releases.astype(np.float64))
    lead = np.append(0.0, np.cumsum(per_release * log_span))
    log_now = np.log(np.maximum(dstar - t, 1))  # no release is active at dstar
    active = done[hi] - done[lo]
    screen = done[lo] + (lead[hi] - lead[lo] - active * log_now)
    # each sum rounds by at most (terms + 4) units in the last place of its size
    bound = (4 * (len(releases) + 4) * np.finfo(np.float64).eps
             * (done[lo] + lead[hi] + active * log_now))
    for step in np.flatnonzero(scheduled < screen - tol + bound).tolist():
        a, b = lo[step], hi[step]
        mass = float(done[a]) + (float((per_release[a:b] * (
            log_span[a:b] - math.log(dstar - step))).sum()) if a < b else 0)
        if int(scheduled[step]) < mass - tol:
            report.dominance_failures.append((step, int(scheduled[step]), mass))
    return report
