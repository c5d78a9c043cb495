"""Adversarial release stream that forces machine-hungry online behavior.

With parameters ``(n, N)`` the adversary releases ``floor(N / (n - t))``
unit jobs at each step ``t``, all due at ``n``, and stops releasing once the
online machine count reaches ``rho`` times the offline optimum.  Driving any
online player through :func:`play_game` records the full exchange;
:func:`aggregate_game` plays the same game purely with counters so that
horizons in the millions stay cheap.

For a common deadline the offline cost is ``max over s of
ceil(released[s..t] / (n - s))``: the single deadline column of the oracle's
``IncrementalOff`` engine.  :func:`aggregate_game` and
:func:`scaling_bound_report` drive that column's hull directly on release
counts, so every ``OFF(t)`` is exact in amortized constant time per step.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol, Sequence

import numpy as np

from .core import ContractViolation, Job, MachineProfile, Schedule
from .online_min import EULER, OnlineState, _ratio_out, ceil_times, resolve_alpha
from .oracle import IncrementalOff, _DeadlineHull, edf_simulate


class OnlinePlayer(Protocol):
    def step(self, t: int, released: Sequence[Job]) -> tuple[int, list[int]]: ...


def alpha_edf_player(alpha, n: int) -> OnlineState:
    """A scaled-EDF player sized for an ``(n, N)`` adversary game."""
    return OnlineState(alpha, [n])


def resolve_rho(rho) -> Fraction | None:
    """Stop-rule threshold; ``None``/"none"/"inf" disables stopping."""
    if rho is None:
        return None
    if isinstance(rho, str) and rho.strip().lower() in ("none", "inf", "off"):
        return None
    return resolve_alpha(rho)


def resolve_stream(n: int, N: int | None = None) -> int:
    """Check the stream parameters ``n >= 1``, ``N >= 0``; return ``N``,
    which defaults to ``n * n``."""
    if n < 1:
        raise ContractViolation(f"need n >= 1, got n={n}")
    if N is None:
        return n * n
    if N < 0:
        raise ContractViolation(f"need N >= 0, got N={N}")
    return N


@dataclass
class AdversaryState:
    """Release source with the ratio-triggered stop rule."""

    n: int
    N: int
    rho: Fraction | None = None
    stopped_at: int | None = None
    next_id: int = 0

    def release(self, t: int) -> list[Job]:
        if self.stopped_at is not None or t >= self.n:
            return []
        count = self.N // (self.n - t)
        jobs = [Job(self.next_id + i, t, self.n) for i in range(count)]
        self.next_id += count
        return jobs

    def observe(self, t: int, online: int, off: int) -> None:
        """Stop once the online/offline ratio reaches ``rho`` (well-defined only for off > 0)."""
        if self.rho is None or self.stopped_at is not None or off == 0:
            return
        if online * self.rho.denominator >= self.rho.numerator * off:
            self.stopped_at = t


def adversary_step(state: AdversaryState, t: int,
                   observed_online: int | None, observed_off: int | None) -> list[Job]:
    """One protocol round: record last step's counts, then release for ``t``."""
    if t >= state.n:
        raise ContractViolation(f"step {t} past horizon {state.n}")
    if observed_online is not None and observed_off is not None:
        state.observe(t - 1, observed_online, observed_off)
    return state.release(t)


@dataclass
class GameTranscript:
    n: int
    N: int
    rho: Fraction | None
    steps: list[dict] = field(default_factory=list)
    stopped_at: int | None = None
    released_total: int = 0
    scheduled_total: int = 0
    cost: int = 0
    off_final: int = 0

    @property
    def missed(self) -> bool:
        return self.scheduled_total < self.released_total

    @property
    def ratio(self) -> float:
        return self.cost / self.off_final if self.off_final else 0.0

    def to_jsonable(self) -> dict:
        return {
            "n": self.n, "N": self.N,
            "rho": None if self.rho is None else _ratio_out(self.rho),
            "outcome": ("stopped" if self.stopped_at is not None else "ran-to-end"),
            "stopped_at": self.stopped_at,
            "released": self.released_total,
            "scheduled": self.scheduled_total,
            "missed": self.missed,
            "cost": self.cost,
            "off_final": self.off_final,
            "ratio": self.ratio,
            "steps": self.steps,
        }


def play_game(player: OnlinePlayer, n: int, N: int | None = None,
              rho="e") -> GameTranscript:
    """Run the full adversary protocol against an online player.

    Per step: the adversary releases, the player reports a machine count and
    schedules jobs, the adversary observes the count.  The offline optimum is
    tracked by an independent oracle; the player's moves are audited (no
    overbooking, no unknown or repeated jobs) and violations raise.
    """
    N = resolve_stream(n, N)
    state = AdversaryState(n=n, N=N, rho=resolve_rho(rho))
    off_engine = IncrementalOff([n])
    transcript = GameTranscript(n=n, N=N, rho=state.rho)
    outstanding: set[int] = set()
    for t in range(n):
        released = state.release(t)
        transcript.released_total += len(released)
        off = off_engine.add(released, t)
        online, chosen = player.step(t, released)
        if online < 0:
            raise ContractViolation(f"negative machine count at step {t}")
        if len(chosen) > online:
            raise ContractViolation(
                f"step {t}: scheduled {len(chosen)} jobs on {online} machines")
        outstanding.update(j.id for j in released)
        for job_id in chosen:
            if job_id not in outstanding:
                raise ContractViolation(
                    f"step {t}: job {job_id} not pending (unknown, early, or repeated)")
            outstanding.remove(job_id)
        transcript.scheduled_total += len(chosen)
        state.observe(t, online, off)
        transcript.steps.append({
            "t": t, "released": len(released), "off": off, "online": online})
        transcript.cost = max(transcript.cost, online)
    transcript.stopped_at = state.stopped_at
    transcript.off_final = off_engine.value
    return transcript


@dataclass
class AggregateGame:
    """Counter-level play of the adversary against scaled EDF."""

    n: int
    N: int
    alpha: Fraction
    rho: Fraction | None
    a: np.ndarray
    off: np.ndarray
    online: np.ndarray
    backlog: np.ndarray
    stopped_at: int | None

    @property
    def released_total(self) -> int:
        return int(self.a.sum())

    @property
    def processed_total(self) -> int:
        return self.released_total - int(self.backlog[-1])

    @property
    def missed(self) -> bool:
        return bool(self.backlog[-1] > 0)

    @property
    def cost(self) -> int:
        return int(self.online.max(initial=0))

    @property
    def off_final(self) -> int:
        return int(self.off[-1]) if len(self.off) else 0

    @property
    def ratio(self) -> float:
        return self.cost / self.off_final if self.off_final else 0.0

    def forcing_stop(self) -> int | None:
        """First step ``tau`` after which stopping releases forces a miss.

        Once releases stop after ``tau``, ``OFF`` and the machine count
        freeze at ``online[tau]``, so the remaining ``n - 1 - tau`` steps
        clear at most ``(n - 1 - tau) * online[tau]`` jobs.  A miss is forced
        exactly when ``backlog[tau]`` exceeds that, by the difference;
        ``tau = n - 1`` is :attr:`missed`.  ``None`` when no stop forces a
        miss.  The products are Python ints, so they cannot wrap.
        """
        n = self.n
        for tau, (backlog, online) in enumerate(
                zip(self.backlog.tolist(), self.online.tolist())):
            if backlog > (n - 1 - tau) * online:
                return tau
        return None

    def summary(self) -> dict:
        return {
            "n": self.n, "N": self.N,
            "alpha": _ratio_out(self.alpha),
            "rho": None if self.rho is None else _ratio_out(self.rho),
            "stopped_at": self.stopped_at,
            "released": self.released_total,
            "processed": self.processed_total,
            "backlog_final": int(self.backlog[-1]) if len(self.backlog) else 0,
            "missed": self.missed,
            "cost": self.cost,
            "off_final": self.off_final,
            "ratio": self.ratio,
        }


def aggregate_game(alpha, n: int, N: int | None = None, rho=None) -> AggregateGame:
    """Play the adversary against scaled EDF using counters only.

    All jobs share deadline ``n`` and EDF is release-order there, so one
    backlog integer captures the whole pending set.  A deadline is missed
    exactly when backlog remains after step ``n - 1``.

    ``rho=None`` (default) disables the stop rule: note that the ceiling in
    ``m(t) = ceil(alpha * OFF(t))`` makes the online/offline ratio exceed
    even ``rho > alpha`` while ``OFF`` is small, so a meaningful full-horizon
    run must not stop.

    The per-step series are int64 arrays, so a game whose full-stream
    release total or peak machine count ``ceil(alpha * N)`` exceeds
    ``2**63 - 1`` is refused up front rather than left to wrap.
    """
    N = resolve_stream(n, N)
    alpha = resolve_alpha(alpha)
    rho_f = resolve_rho(rho)
    guard = alpha == EULER
    limit = np.iinfo(np.int64).max
    # N * n bounds the release total and spares the exact sum when it fits;
    # OFF(t) <= N, so ceil(alpha * N) bounds every machine count.
    if N * n > limit and actual_released(n, N) > limit:
        raise ContractViolation(
            f"n={n}, N={N} releases {actual_released(n, N)} jobs, "
            f"more than an int64 holds ({limit})")
    if ceil_times(alpha, N) > limit:
        raise ContractViolation(
            f"alpha={alpha}, N={N} may rent {ceil_times(alpha, N)} machines, "
            f"more than an int64 holds ({limit})")
    a_out, off_out, online_out, backlog_out = (array("q") for _ in range(4))
    hull = _DeadlineHull(n)
    A = 0
    backlog = 0
    stopped_at: int | None = None
    for t in range(n):
        if stopped_at is None:
            a = N // (n - t)
            hull.add(t, A)
            A += a
        else:
            a = 0
        off = hull.query_ceil(A) if A else 0
        online = ceil_times(alpha, off, knife_guard=guard)
        backlog = max(0, backlog + a - online)
        if (stopped_at is None and rho_f is not None and off > 0
                and online * rho_f.denominator >= rho_f.numerator * off):
            stopped_at = t
        a_out.append(a)
        off_out.append(off)
        online_out.append(online)
        backlog_out.append(backlog)
    a_arr, off_arr, online_arr, backlog_arr = (
        np.frombuffer(v, dtype=np.int64)
        for v in (a_out, off_out, online_out, backlog_out))
    return AggregateGame(n=n, N=N, alpha=alpha, rho=rho_f, a=a_arr,
                         off=off_arr, online=online_arr, backlog=backlog_arr,
                         stopped_at=stopped_at)


@dataclass
class CountingBounds:
    """Closed-form release/processing totals for the (n, N) stream."""

    n: int
    N: int
    alpha: float
    released_lower: float
    processed_upper: float

    @property
    def deficit(self) -> float:
        return self.released_lower - self.processed_upper


def counting_bounds(n: int, N: int | None = None, alpha=2.5) -> CountingBounds:
    """Lower-bound releases and upper-bound ``alpha``-scaled processing.

    Releases total at least ``N ln n - (n - 1)``.  A player renting
    ``ceil(alpha * OFF(t))`` machines at step ``t`` processes at most

        (alpha/e) N (ln(n - 1) + 1) + alpha N + (alpha + 1)(n - 1) + 1

    jobs by the deadline, whether or not the adversary stops.  Before the
    final step ``OFF(t) <= ceil(N / (e (n - t - 1)))``: with ``x = n - s``
    and ``c = n - t - 1`` the releases in ``[s, t]`` sum to at most
    ``N ln(x / c)``, and ``ln(x / c) / x <= 1 / (e c)``.  Each such step
    thus rents at most ``alpha N / (e c) + alpha + 1`` machines, and the
    harmonic sum over ``c = 1..n-1`` is at most ``ln(n - 1) + 1``.  The
    final step adds ``ceil(alpha N)``, since ``OFF(n - 1) = N``.  Once the
    first quantity exceeds the second, some release must miss.
    """
    N = resolve_stream(n, N)
    a = float(resolve_alpha(alpha))
    released_lower = N * math.log(n) - (n - 1)
    harmonic = math.log(n - 1) + 1.0 if n > 1 else 0.0
    processed_upper = ((a / math.e) * N * harmonic + a * N
                       + (a + 1.0) * (n - 1) + 1.0)
    return CountingBounds(n=n, N=N, alpha=a,
                          released_lower=released_lower,
                          processed_upper=processed_upper)


def crossover_n(alpha=2.5) -> int | None:
    """Smallest n at which (with N = n*n) the counting bounds force a miss.

    Returns ``None`` when ``alpha >= e``: the processing bound then grows at
    least as fast as the releases and no crossover exists.  Below ``e`` a
    crossover always exists; if it lies beyond ``n = 2**500`` this raises
    ``OverflowError`` instead.  The deficit is evaluated in floats, so far
    out (``crossover_n(2.5)`` is about 3.1e18) the answer is the float
    crossover, not the exact one.
    """
    exact = resolve_alpha(alpha)
    if exact >= EULER:
        return None
    a = float(exact)

    def deficit(n: int) -> float:
        return counting_bounds(n, n * n, a).deficit

    hi = 4
    while deficit(hi) <= 0:
        # Further out, n * n no longer converts to a float in counting_bounds.
        if hi >= 2**500:
            raise OverflowError(
                f"no counting crossover for alpha={alpha} up to n = 2**500")
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if deficit(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def actual_released(n: int, N: int | None = None) -> int:
    """Exact total the full-horizon adversary stream releases."""
    N = resolve_stream(n, N)
    return sum(N // (n - t) for t in range(n))


@dataclass
class WitnessResult:
    m: int
    schedule: Schedule
    feasible: bool
    jobs_total: int


def offline_witness(n: int, N: int, tstar: int) -> WitnessResult:
    """Schedule everything released by ``tstar`` on ``ceil(N / (e (n - tstar)))`` machines.

    EDF under that constant machine count; with every deadline at ``n`` this
    runs jobs in release order, which is optimal for a common deadline, so
    ``feasible`` reports whether the scaled machine count really suffices at
    these parameters.
    """
    N = resolve_stream(n, N)
    if not (0 <= tstar < n):
        raise ContractViolation(f"tstar must lie in [0, {n - 1}]")
    num = N * EULER.denominator
    den = EULER.numerator * (n - tstar)
    m = -(-num // den)
    source = AdversaryState(n=n, N=N)
    jobs = [j for t in range(tstar + 1) for j in source.release(t)]
    _, schedule = edf_simulate(jobs, MachineProfile.constant(m, n))
    return WitnessResult(m=m, schedule=schedule, feasible=not schedule.misses,
                         jobs_total=len(jobs))


@dataclass
class EnvelopeRow:
    tstar: int
    off: int
    bound: int

    @property
    def holds(self) -> bool:
        return self.off <= self.bound


def scaling_bound_report(n: int, N: int | None = None,
                         t_max: int | None = None) -> list[EnvelopeRow]:
    """Compare exact OFF(t*) against ``ceil(N / (e (n - t*)))`` for each t*.

    The bound is the machine count :func:`offline_witness` rents; this report
    maps out where it really covers the optimum and where integrality
    effects push the optimum past it.
    """
    N = resolve_stream(n, N)
    if t_max is None:
        t_max = n - 1
    hull = _DeadlineHull(n)
    released = 0
    rows = []
    for tstar in range(min(t_max, n - 1) + 1):
        hull.add(tstar, released)
        released += N // (n - tstar)
        bound = -(-(N * EULER.denominator) // (EULER.numerator * (n - tstar)))
        rows.append(EnvelopeRow(tstar=tstar, off=hull.query_ceil(released),
                                bound=bound))
    return rows
