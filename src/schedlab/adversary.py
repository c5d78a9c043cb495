"""Adversarial release stream that forces machine-hungry online behavior.

With parameters ``(n, N)`` the adversary releases ``floor(N / (n - t))``
unit jobs at each step ``t``, all due at ``n``, and stops releasing once the
online machine count reaches ``rho`` times the offline optimum.  Driving any
online player through :func:`play_game` records the full exchange;
:func:`aggregate_game` plays the same game purely with counters so that
horizons in the millions stay cheap.

:class:`AdversaryState` alone knows the stream and the stop rule.  For a
common deadline the offline cost is ``max over s of
ceil(released[s..t] / (n - s))``.  The stream never decreases, so over
``s`` that ratio rises and then falls, and its peak is found for every
``t`` at once by one ``searchsorted`` (:func:`_off_series`).
:func:`play_game`, :func:`aggregate_game` and :func:`scaling_bound_report`
read every ``OFF(t)`` from that one closed form, exactly; the oracle's hull
engine stays the one for general instances.

Jobs travel as int64 columns (:class:`~schedlab.core.UnitJobs`): a step's
release is one block of consecutive ids and the full stream is filled by
``np.repeat``, so no ``Job`` row is built.  :func:`aggregate_game` takes
the ``OFF`` series of the full stream, then the ceilings, the stop and the
backlog over the whole series with numpy, exactly.  A stream whose exact
release total (:func:`actual_released`) exceeds int64 is refused up front
rather than left to wrap, and one with more steps or jobs than numpy holds
by :func:`~schedlab.core.allocating` around its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol

import numpy as np

from .core import (INT64_MAX, ContractViolation, MachineProfile, Schedule,
                   UnitJobs, allocating, arange_exact)
from .online_min import (EULER, OnlineState, _ratio_out, ceil_times,
                         ceil_times_series, json_ratio, ratio_of_counts,
                         resolve_alpha)
from .oracle import edf_simulate


class OnlinePlayer(Protocol):
    def step(self, t: int, released: UnitJobs) -> tuple[int, list[int]]: ...


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


def require_int64_stream(n: int, N: int) -> None:
    """Refuse a stream whose release total, and so its largest job id and
    its release sums, do not fit an int64.  ``N * n`` bounds the total and
    spares the exact sum when it fits; otherwise :func:`actual_released`
    gives it."""
    if N * n > INT64_MAX:
        total = actual_released(n, N)
        if total > INT64_MAX:
            raise ContractViolation(
                f"n={n}, N={N} releases {total} jobs, "
                f"more than an int64 holds ({INT64_MAX})")


def stream_jobs(n: int, N: int, last: int | None = None) -> UnitJobs:
    """The stream's jobs released at steps ``0..last`` (default: every
    step) as columns: ids count up in release order, all due at ``n``."""
    require_int64_stream(n, N)
    counts = AdversaryState(n=n, N=N).counts(last)
    with allocating(int(counts.sum()), "jobs"):
        r = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        ids, d = np.arange(len(r)), np.full(len(r), n)
    return UnitJobs(ids, r, d)


#: Steps whose counts :func:`actual_released` holds as Python ints at once.
_SUM_CHUNK = 1 << 14


@dataclass
class AdversaryState:
    """Release source with the ratio-triggered stop rule."""

    n: int
    N: int
    rho: Fraction | None = None
    stopped_at: int | None = None
    next_id: int = 0

    def count(self, t: int) -> int:
        """``floor(N / (n - t))``, or 0 once stopped or past the horizon."""
        if self.stopped_at is not None or t >= self.n:
            return 0
        return self.N // (self.n - t)

    def counts(self, last: int | None = None) -> np.ndarray:
        """:meth:`count` of the full stream's steps ``0..last`` (default:
        every step): int64 when ``N`` and ``n`` fit one, Python ints
        otherwise.  Steps numpy will not hold are refused by
        :func:`allocating`."""
        stop = 0 if last is None else max(self.n - 1 - last, 0)
        wide = max(self.N, self.n) > INT64_MAX
        with allocating(self.n - stop, "steps",
                        "Python ints" if wide else "int64 columns"):
            return self.N // arange_exact(self.n, stop, -1,
                                          object if wide else np.int64)

    def release(self, t: int) -> UnitJobs:
        """Step ``t``'s jobs as one column block, ids continuing the stream."""
        count = self.count(t)
        first = self.next_id
        if first + count - 1 > INT64_MAX:
            raise ContractViolation(
                f"step {t} releases job ids up to {first + count - 1}, "
                f"more than an int64 holds ({INT64_MAX})")
        with allocating(count, "jobs"):
            ids = first + np.arange(count, dtype=np.int64)
            r, d = np.full(count, t), np.full(count, self.n)
        self.next_id += count
        return UnitJobs(ids, r, d)

    def observe(self, t: int, online: int, off: int) -> None:
        """Stop once the online/offline ratio reaches ``rho`` (well-defined only for off > 0)."""
        if self.rho is None or self.stopped_at is not None or off == 0:
            return
        if online * self.rho.denominator >= self.rho.numerator * off:
            self.stopped_at = t


def _off_series(n: int, a: np.ndarray) -> np.ndarray:
    """``OFF(t)`` for every step ``t`` of a nondecreasing count series due at
    ``n``: ``a[t]`` jobs are released at step ``t``, for ``t < len(a) <= n``.

    With ``P_s`` the count released before step ``s`` and ``X_t = P_{t+1}``,
    ``OFF(t) = max over s <= t of ceil((X_t - P_s) / (n - s))``.  The ratio
    grows from ``s`` to ``s + 1`` exactly when ``X_t >= B_s = P_s + a_s (n - s)``,
    and ``B_{s+1} - B_s = (a_{s+1} - a_s)(n - s - 1) >= 0``.  So the ratio
    rises and then falls in ``s``, and its peak over ``s <= t`` lies at
    ``s* = min(#{s : B_s <= X_t}, t)``: one ``searchsorted`` for every ``t``.

    ``B``'s last entry is its largest and bounds every ``X`` and ``P``, so the
    series is int64 when that entry and the widths ``n - s`` fit one, and
    Python ints otherwise.  A series that decreases, is negative or runs
    past ``n`` is refused.
    """
    a = np.asarray(a)
    if not len(a):
        return np.zeros(0, dtype=np.int64)
    if len(a) > n or a[0] < 0 or (a[1:] < a[:-1]).any():
        raise ContractViolation(
            f"OFF series needs at most n={n} nonnegative, nondecreasing counts")
    last = int(a[-1])
    # total + last * (n - len(a)) is B's last entry; n * last bounds it.
    wide = n > INT64_MAX or (
        n * last > INT64_MAX
        and sum(a.tolist()) + last * (n - len(a)) > INT64_MAX)
    dtype = object if wide else np.int64
    a = a.astype(dtype)
    X = np.cumsum(a)
    P = X - a
    w = n - np.arange(len(a)).astype(dtype)
    s = np.minimum(np.searchsorted(P + a * w, X, side="right"),
                   np.arange(len(a)))
    return -((P[s] - X) // w[s])


def _envelope(n: int, N: int, tstar: int) -> int:
    """``ceil(N / (e (n - tstar)))`` in exact integer arithmetic."""
    return -(-(N * EULER.denominator) // (EULER.numerator * (n - tstar)))


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
        return ratio_of_counts(self.cost, self.off_final)

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
            "ratio": json_ratio(self.ratio),
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
    require_int64_stream(n, N)
    state = AdversaryState(n=n, N=N, rho=resolve_rho(rho))
    transcript = GameTranscript(n=n, N=N, rho=state.rho)
    pending: set[int] = set()  # ids released and not yet run
    # The full stream's OFF holds up to the stop; after it nothing is
    # released, so OFF stays at its value there.
    with allocating(n, "steps"):
        full_off = _off_series(n, state.counts()).tolist()
    off = 0
    for t in range(n):
        if state.stopped_at is None:
            off = full_off[t]
        released = state.release(t)
        transcript.released_total += len(released)
        online, chosen = player.step(t, released)
        if online < 0:
            raise ContractViolation(f"negative machine count at step {t}")
        if len(chosen) > online:
            raise ContractViolation(
                f"step {t}: scheduled {len(chosen)} jobs on {online} machines")
        for _, ids in released.by_deadline():  # the block's ids, with no copy
            pending.update(ids)
        before, known = len(pending), pending.issuperset(chosen)
        if known:
            pending.difference_update(chosen)
        if len(pending) + len(chosen) != before:
            seen = set()
            for job_id in chosen:  # refuse the first unknown, early, run or repeated id
                if job_id in seen or not known and job_id not in pending:
                    raise ContractViolation(f"step {t}: job {job_id} not pending "
                                            "(unknown, early, or repeated)")
                seen.add(job_id)
        transcript.scheduled_total += len(chosen)
        state.observe(t, online, off)
        transcript.steps.append({
            "t": t, "released": len(released), "off": off, "online": online})
        transcript.cost = max(transcript.cost, online)
        transcript.off_final = off
    transcript.stopped_at = state.stopped_at
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
        return ratio_of_counts(self.cost, self.off_final)

    def forcing_stop(self) -> int | None:
        """First step ``tau`` after which stopping releases forces a miss.

        Once releases stop after ``tau``, ``OFF`` and the machine count
        freeze at ``online[tau]``, so the remaining ``n - 1 - tau`` steps
        clear at most ``(n - 1 - tau) * online[tau]`` jobs.  A miss is forced
        exactly when ``backlog[tau]`` exceeds that, by the difference;
        ``tau = n - 1`` is :attr:`missed`.  ``None`` when no stop forces a
        miss.  The test runs as ``(backlog - 1) // online >= n - 1 - tau``
        where ``online >= 1`` and as ``backlog > 0`` where ``online == 0``,
        so no product is formed and int64 cannot wrap.
        """
        remaining = self.n - 1 - np.arange(len(self.backlog))
        forced = np.where(
            self.online >= 1,
            (self.backlog - 1) // np.maximum(self.online, 1) >= remaining,
            self.backlog > 0)
        hits = np.flatnonzero(forced)
        return int(hits[0]) if len(hits) else None

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
            "ratio": json_ratio(self.ratio),
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
    rho = resolve_rho(rho)
    require_int64_stream(n, N)
    # OFF(t) <= N, so ceil(alpha * N) bounds every machine count.
    if alpha * N > INT64_MAX:
        raise ContractViolation(
            f"alpha={alpha}, N={N} may rent {math.ceil(alpha * N)} machines, "
            f"more than an int64 holds ({INT64_MAX})")
    with allocating(n, "steps"):
        a = AdversaryState(n=n, N=N).counts()
        off = _off_series(n, a)
        online, knife = ceil_times_series(alpha, off)
        # The full stream's series hold up to the stop; after it nothing is
        # released, so OFF and the machine count freeze.
        stopped_at = None
        if rho is not None:
            reached = (off > 0) & (online.astype(object) * rho.denominator
                                   >= off.astype(object) * rho.numerator)
            hits = np.flatnonzero(reached)
            if len(hits):
                stopped_at = int(hits[0])
        played = n if stopped_at is None else stopped_at + 1
        unsafe = np.flatnonzero(knife[:played])
        if len(unsafe):
            ceil_times(alpha, int(off[unsafe[0]]))  # raises the knife guard's error
        if stopped_at is not None:
            a[played:] = 0
            off[played:] = off[stopped_at]
            online[played:] = online[stopped_at]
        # backlog[t] = max(0, backlog[t-1] + a[t] - online[t]) is the prefix
        # sum of a - online less its running minimum (floored at 0).  The
        # sums are Python ints unless every one of them provably fits int64.
        net = a - online
        if n * int(online.max(initial=0)) > INT64_MAX - int(a.sum()):
            net = net.astype(object)
        level = np.cumsum(net)
        backlog = (level - np.minimum(np.minimum.accumulate(level), 0)
                   ).astype(np.int64)
    return AggregateGame(n=n, N=N, alpha=alpha, rho=rho, a=a, off=off,
                         online=online, backlog=backlog, stopped_at=stopped_at)


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
    """Exact total the full-horizon adversary stream releases.

    Every step's width ``n - t`` is built first, under :func:`allocating`,
    so a stream of more steps than numpy holds is refused at once; the
    counts ``N // (n - t)`` are then summed as Python ints by the chunk."""
    N = resolve_stream(n, N)
    with allocating(n, "steps"):
        widths = arange_exact(n, 0, -1)
    dtype = np.int64 if N <= INT64_MAX else object
    return sum(int((N // widths[lo:lo + _SUM_CHUNK].astype(dtype)).sum(dtype=object))
               for lo in range(0, n, _SUM_CHUNK))


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
    m = _envelope(n, N, tstar)
    jobs = stream_jobs(n, N, tstar)
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
    with allocating(t_max + 1, "steps"):
        counts = AdversaryState(n=n, N=N).counts(t_max)
        return [EnvelopeRow(tstar=t, off=off, bound=_envelope(n, N, t))
                for t, off in enumerate(_off_series(n, counts).tolist())]
