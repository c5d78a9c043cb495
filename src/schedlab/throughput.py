"""Throughput maximization via online vertex-weighted bipartite matching.

A throughput instance (unit jobs, ``k`` machines, weights) becomes a
bipartite graph: one offline vertex per job carrying its weight, and ``k``
online vertices per active step, adjacent to every job whose window covers
the step.  Schedules and matchings are then two views of the same object,
and any online matching algorithm becomes an online scheduler.

The randomized matcher draws one uniform ``x`` per job at reveal time and
greedily matches each arriving vertex to the unmatched neighbor maximizing
``w * (1 - exp(x - 1))``.  One numpy kernel runs this greedy over a
(jobs x runs) table of scores, which it consumes: a single seeded column for
:func:`perturbed_greedy`, each weight's exact rank for
:func:`greedy_baseline`, and one seeded column per trial for the Monte Carlo ratio estimate.  Every
run's draws are read from one byte string of Mersenne Twister words, bit for
bit the values ``random.Random(seed).random()`` returns.

Columns never interact, so the estimate cuts its seeds into contiguous
parts, one per usable core as long as each part keeps ``_MIN_PART_CELLS``
score cells (widest neighborhood x runs), the break-even of a second thread
on a 2-core host.  The calling thread draws every table (the draws hold the
GIL) and runs part 0; a plain thread runs each other part through the same
kernel, whose numpy calls release the GIL.  The totals are bit for bit those
of one kernel call.  Below the cutoff, and for single matchings, no thread
starts.
"""

from __future__ import annotations

import math
import os
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .core import (ContractViolation, Instance, MachineProfile, Schedule, _num_out,
                   allocating, require_valid)
from .oracle import active_steps, edf_simulate, offline_throughput_opt


@dataclass(frozen=True)
class MatchingInstance:
    """Bipartite view of a throughput instance.

    ``steps`` lists the active steps in increasing order; each contributes
    ``k`` online vertices ``(t, 0) .. (t, k-1)`` with identical
    neighborhoods.  Offline vertices are job ids, revealed at their release.
    """

    k: int
    steps: tuple[int, ...]
    job_ids: tuple[int, ...]
    weights: dict[int, Fraction]
    reveal: dict[int, int]
    windows: dict[int, tuple[int, int]]
    neighbors: dict[int, tuple[int, ...]]

    def online_vertices(self) -> list[tuple[int, int]]:
        return [(t, i) for t in self.steps for i in range(self.k)]

    def is_edge(self, u: int, v: tuple[int, int]) -> bool:
        t, i = v
        if not 0 <= i < self.k or u not in self.windows:
            return False
        r, d = self.windows[u]
        return r <= t and t + 1 <= d

    def _window_steps(self, u: int) -> list[int]:
        """The active steps inside job ``u``'s window ``[r, d)``."""
        r, d = self.windows[u]
        return list(self.steps[bisect_left(self.steps, r):bisect_left(self.steps, d)])

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "steps": list(self.steps),
            "offline": [
                {"id": u, "w": _num_out(self.weights[u]),
                 "reveal": self.reveal[u],
                 "steps": self._window_steps(u)}
                for u in self.job_ids
            ],
        }


@dataclass
class Matching:
    pairs: list[tuple[int, tuple[int, int]]]
    weight: Fraction

    def __len__(self) -> int:
        return len(self.pairs)


def reduce_to_matching(instance: Instance) -> MatchingInstance:
    """Build the bipartite graph; online vertices ordered (step, machine)."""
    require_valid(instance)
    if instance.model != "throughput":
        raise ContractViolation("needs a throughput instance")
    jobs = instance.jobs
    steps, neighbors = active_steps(jobs)
    return MatchingInstance(
        k=instance.k,
        steps=steps,
        job_ids=tuple(j.id for j in jobs),
        weights={j.id: Fraction(j.w) for j in jobs},
        reveal={j.id: int(j.r) for j in jobs},
        windows={j.id: (int(j.r), int(j.d)) for j in jobs},
        neighbors=neighbors,
    )


def check_matching(mi: MatchingInstance, matching: Matching) -> None:
    """Raise unless every pair is an edge and both sides are used at most once."""
    seen_u: set[int] = set()
    seen_v: set[tuple[int, int]] = set()
    total = Fraction(0)
    for u, v in matching.pairs:
        if not mi.is_edge(u, v):
            raise ContractViolation(f"pair ({u}, {v}) is not an edge")
        if u in seen_u:
            raise ContractViolation(f"offline vertex {u} matched twice")
        if v in seen_v:
            raise ContractViolation(f"online vertex {v} matched twice")
        seen_u.add(u)
        seen_v.add(v)
        total += mi.weights[u]
    if total != matching.weight:
        raise ContractViolation(
            f"stored weight {matching.weight} != recomputed {total}")


def matching_to_schedule(mi: MatchingInstance, matching: Matching) -> Schedule:
    """A matched pair (job, (t, i)) becomes job running on machine i at t."""
    check_matching(mi, matching)
    assignments = sorted(((u, i, t) for u, (t, i) in matching.pairs),
                         key=lambda a: (a[2], a[1]))
    done = {u for u, _ in matching.pairs}
    return Schedule(assignments=assignments,
                    misses=sorted(u for u in mi.job_ids if u not in done))


def schedule_to_matching(mi: MatchingInstance, schedule: Schedule) -> Matching:
    pairs = sorted(((job, (start, machine))
                    for job, machine, start in schedule.assignments),
                   key=lambda p: (p[1], p[0]))
    weight = sum((mi.weights[u] for u, _ in pairs), Fraction(0))
    matching = Matching(pairs=pairs, weight=weight)
    check_matching(mi, matching)
    return matching


def _float_weights(mi: MatchingInstance) -> np.ndarray:
    return np.array([float(mi.weights[u]) for u in mi.job_ids])


#: Seeds whose draws are read from one byte string: 2 KiB per job, and few
#: enough numpy calls per seed that small instances gain too.
_DRAW_CHUNK = 256


def _perturbed_scores(w: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Scores ``w * (1 - exp(x - 1))`` as a (jobs x seeds) table.

    Column ``c`` holds the ``x`` that ``random.Random(seeds[c]).random()``
    returns, drawn once per job in reveal order.  ``random()`` combines two
    32-bit Mersenne Twister words ``a, b`` into ``((a >> 5) * 2^26 + (b >> 6))
    * 2^-53``, and ``getrandbits(64 * n)`` yields the same ``2n`` words, the
    first one least significant.  So each chunk of seeds is read from one
    byte string, and every ``x`` is bit-identical to the loop's.
    """
    n = len(w)
    table = np.empty((n, len(seeds)))
    for start in range(0, len(seeds), _DRAW_CHUNK):
        chunk = seeds[start:start + _DRAW_CHUNK]
        raw = b"".join(random.Random(s).getrandbits(64 * n).to_bytes(8 * n, "little")
                       for s in chunk)
        words = np.frombuffer(raw, dtype="<u4").reshape(len(chunk), n, 2)
        # in place, to keep chunk-sized temporaries few
        score = (words[..., 0] >> 5) * 67108864.0
        score += words[..., 1] >> 6
        score *= 1.0 / 9007199254740992.0  # x, exact in float64
        score -= 1.0
        np.exp(score, out=score)
        np.subtract(1.0, score, out=score)
        score *= w
        table[:, start:start + len(chunk)] = score.T
    return table


class _Part(NamedTuple):
    """One block of runs for the kernel: its (jobs x runs) score table,
    which the kernel consumes, its runs' totals, and every other array the
    kernel writes."""

    scores: np.ndarray
    totals: np.ndarray
    gathered: np.ndarray    # a step's neighbor rows, neighbors x runs
    block: np.ndarray       # the same transposed, runs x neighbors
    every: np.ndarray       # 0 .. runs - 1
    first: np.ndarray       # each run's first cell in the block
    picks: np.ndarray       # machines x runs: each pick's column in the block,
    marks: np.ndarray       # its cell in the block, then in the table,
    best: np.ndarray        # its score,
    jobs: np.ndarray        # its row in the table,
    matched: np.ndarray     # whether it matched a job,
    gain: np.ndarray        # and that job's weight


def _part(table: np.ndarray, totals: np.ndarray, width: int, k: int) -> _Part:
    """The arrays for a kernel run over ``table``, built in the calling
    thread, so that a worker thread running the kernel on them allocates no
    array of its own."""
    runs = table.shape[1]
    per_pick = (min(k, width), runs)
    return _Part(table, totals, np.empty(width * runs), np.empty(width * runs),
                 np.arange(runs), np.empty(runs, dtype=np.intp),
                 *(np.empty(per_pick, dtype=dtype) for dtype in
                   (np.intp, np.intp, np.float64, np.intp, bool, np.float64)))


def _step_rows(mi: MatchingInstance) -> list[np.ndarray]:
    """Each active step's neighbors as row indices into ``mi.job_ids``."""
    index = {u: j for j, u in enumerate(mi.job_ids)}
    return [np.array([index[u] for u in mi.neighbors[t]], dtype=np.intp)
            for t in mi.steps]


def _greedy(mi: MatchingInstance, step_rows: list[np.ndarray], w: np.ndarray,
            part: _Part) -> list[tuple[int, tuple[int, int]]]:
    """The greedy matcher, run once per column of ``part.scores``.

    Online vertices arrive in (step, machine) order; each takes, in every
    run, the unmatched neighbor of highest score, the lowest id on ties.
    Scores must be nonnegative.  The C-contiguous table is consumed: a
    matched cell becomes -1.  Each step copies its neighbor rows into one
    buffer and transposes them into another (runs x neighbors), so that
    every pick is an argmax along contiguous rows; a pick marks its cell of
    that block, and the step's picks mark the table together once the step
    is done.  Each run's matched weight is summed from ``w`` in pick order
    into ``part.totals``; returns the pairs run 0 matched.  Every array it
    writes is one of ``part``'s.
    """
    (scores, totals, gathered_buf, block_buf, every, first, picks_buf, marks_buf,
     best_buf, jobs_buf, matched_buf, gain_buf) = part
    runs = len(every)
    cell_of = scores.reshape(-1)
    pairs = []
    for t, rows in zip(mi.steps, step_rows):
        size = len(rows) * runs
        # "clip" writes straight into ``out`` ("raise" stages a copy); every
        # index is in range
        gathered = np.take(scores, rows, axis=0, mode="clip",
                           out=gathered_buf[:size].reshape(len(rows), runs))
        flat = block_buf[:size]
        block = flat.reshape(runs, len(rows))
        np.copyto(block, gathered.T)
        np.multiply(every, len(rows), out=first)
        machines = min(mi.k, len(rows))  # a machine past the rows finds none
        picks, marks = picks_buf[:machines], marks_buf[:machines]
        best, jobs = best_buf[:machines], jobs_buf[:machines]
        matched, gain = matched_buf[:machines], gain_buf[:machines]
        for i in range(machines):
            block.argmax(axis=1, out=picks[i])
            np.add(first, picks[i], out=marks[i])
            np.take(flat, marks[i], mode="clip", out=best[i])
            flat[marks[i]] = -1.0
        np.take(rows, picks, mode="clip", out=jobs)
        np.multiply(jobs, runs, out=marks)
        marks += every
        cell_of[marks] = -1.0
        # a run with no unmatched neighbor left re-marks a -1 cell, adds 0
        np.greater_equal(best, 0.0, out=matched)
        np.take(w, jobs, mode="clip", out=gain)
        for i in range(machines):
            np.add(totals, gain[i], out=totals, where=matched[i])
            if runs and matched[i, 0]:
                pairs.append((mi.job_ids[jobs[i, 0]], (t, i)))
    return pairs


def _matching(mi: MatchingInstance, scores: np.ndarray) -> Matching:
    """One kernel run on a one-column copy of ``scores``; the exact weight
    is summed from the pairs."""
    step_rows = _step_rows(mi)
    part = _part(scores[:, np.newaxis].copy(), np.zeros(1),
                 max(map(len, mi.neighbors.values()), default=0), mi.k)
    pairs = _greedy(mi, step_rows, scores, part)
    weight = sum((mi.weights[u] for u, _ in pairs), Fraction(0))
    return Matching(pairs=pairs, weight=weight)


def perturbed_greedy(mi: MatchingInstance, seed: int) -> Matching:
    """Randomized matcher: per-job uniform perturbation, then greedy by score.

    Ties break toward the lowest job id; equal-weight jobs therefore resolve
    toward the smaller perturbation, since the score is strictly decreasing
    in x.  The same seed always yields the same matching.  Scores stay
    float64: the rule is defined on the float draw, ``w * (1 - exp(x - 1))``
    rounded as the batched estimate computes it.
    """
    return _matching(mi, _perturbed_scores(_float_weights(mi), [seed])[:, 0])


def greedy_baseline(mi: MatchingInstance) -> Matching:
    """Deterministic comparator: always take the heaviest unmatched neighbor.

    Each job scores the dense rank of its exact weight among the distinct
    weights, so no two weights that differ tie in float64.
    """
    rank = {w: r for r, w in enumerate(sorted(set(mi.weights.values())))}
    return _matching(mi, np.array([float(rank[mi.weights[u]]) for u in mi.job_ids]))


def _usable_cores() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Fewest score cells (widest neighborhood x runs) that a part of the
#: batched matcher gets.  On a 2-core x86-64 host two threaded parts of the
#: kernel broke even with one at about 49k cells a part (0.67x at 33k,
#: 1.29x at 65k, 1.63x at 131k), as the GIL hand-offs of the per-step numpy
#: calls stop outweighing the second core.
_MIN_PART_CELLS = 2**16


def batched_greedy_weights(mi: MatchingInstance,
                           seeds: Sequence[int]) -> np.ndarray:
    """Matched weight of :func:`perturbed_greedy` for every seed at once.

    One score column per seed, run through the same kernel as the single
    matcher, so each column equals that seed's run exactly.  Columns are
    independent, so the seeds are cut into ``P`` contiguous parts, at most
    one per usable core and each of at least ``_MIN_PART_CELLS`` cells
    (widest neighborhood x runs).  This thread draws every part's table and
    allocates every array the kernel writes, runs part 0 itself and each
    other part in a thread of its own, joins them all and re-raises the
    first error a part raised.  The totals come back in seed order.
    """
    w = _float_weights(mi)
    width = max(map(len, mi.neighbors.values()), default=0)
    count = max(1, min(_usable_cores(), len(seeds),
                       width * len(seeds) // _MIN_PART_CELLS))
    totals = np.zeros(len(seeds))
    cuts = [len(seeds) * p // count for p in range(count + 1)]
    tables = [_perturbed_scores(w, seeds[a:b]) for a, b in zip(cuts, cuts[1:])]
    # after the draw: step rows allocated before the tables and freed with
    # them let the benchmark process's peak RSS creep up by 2 MiB
    step_rows = _step_rows(mi)
    parts = [_part(table, totals[a:b], width, mi.k)
             for table, a, b in zip(tables, cuts, cuts[1:])]
    errors: list[BaseException] = []

    def run(part: _Part) -> None:
        try:
            _greedy(mi, step_rows, w, part)
        except BaseException as exc:  # re-raised below, in the calling thread
            errors.append(exc)

    threads = []
    try:
        for part in parts[1:]:
            thread = threading.Thread(target=run, args=(part,))
            thread.start()
            threads.append(thread)
        _greedy(mi, step_rows, w, parts[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return totals


def edf_throughput_unweighted(instance: Instance) -> Schedule:
    """Earliest-deadline-first for equal weights; exact on such instances.

    Each step runs the up-to-k pending jobs with the nearest deadlines.
    Weighted instances are refused: with unequal weights this rule has no
    optimality property and the randomized matcher should be used instead.
    """
    require_valid(instance)
    if instance.model != "throughput":
        raise ContractViolation("needs a throughput instance")
    if len({Fraction(j.w) for j in instance.jobs}) > 1:
        raise ContractViolation("weights differ; use the matching algorithms")
    horizon = max((int(j.d) for j in instance.jobs), default=0)
    _, schedule = edf_simulate(instance.jobs,
                               MachineProfile.constant(instance.k, horizon))
    schedule.misses.sort()
    return schedule


@dataclass
class RatioEstimate:
    trials: int
    seed: int
    mean_alg: float
    stderr: float
    opt: float
    ratio: float

    def to_jsonable(self) -> dict:
        return {"trials": self.trials, "seed": self.seed,
                "mean_alg": self.mean_alg, "stderr": self.stderr,
                "opt": self.opt, "ratio": self.ratio}


def trial_seeds(seed: int, trials: int) -> list[int]:
    base = random.Random(seed)
    return [base.getrandbits(63) for _ in range(trials)]


def estimate_ratio(instance: Instance, trials: int = 2000,
                   seed: int = 0) -> RatioEstimate:
    """Monte Carlo mean of :func:`perturbed_greedy`'s weight over the exact
    offline optimum.

    Trials use seeds derived deterministically from ``seed``, so the whole
    estimate is reproducible.  A score table (jobs x trials, plus a row of
    totals) that numpy will not allocate is refused before any seed is drawn.
    """
    if trials < 1:
        raise ContractViolation("need trials >= 1")
    mi = reduce_to_matching(instance)
    with allocating(trials, f"trials of {len(mi.job_ids)} jobs",
                    "a float64 score table"):
        np.empty((len(mi.job_ids) + 1, trials))
    totals = batched_greedy_weights(mi, trial_seeds(seed, trials))
    opt_weight, _ = offline_throughput_opt(instance)
    opt = float(opt_weight)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    ratio = mean / opt if opt else 1.0
    return RatioEstimate(trials=trials, seed=seed, mean_alg=mean,
                         stderr=stderr, opt=opt, ratio=ratio)
