"""Throughput maximization via online vertex-weighted bipartite matching.

A throughput instance (unit jobs, ``k`` machines, weights) becomes a
bipartite graph: one offline vertex per job carrying its weight, and ``k``
online vertices per active step, adjacent to every job whose window covers
the step: one contiguous run of the sorted active steps, so the graph is
convex (Glover, 1967) and is held as each job's run (``active_steps``).
Schedules and matchings are then two views of the same object, and any
online matching algorithm becomes an online scheduler.

The randomized matcher draws one uniform ``x`` per job at reveal time and
greedily matches each arriving vertex to the unmatched neighbor maximizing
``w * (1 - exp(x - 1))``.  One numpy kernel runs this greedy over a
(runs x jobs) table of scores, which it consumes: a single seeded row for
:func:`perturbed_greedy`, each weight's exact rank for
:func:`greedy_baseline`, and one seeded row per trial for the Monte Carlo
ratio estimate.  The neighborhood changes only where some run starts or
ends, so the kernel walks the active steps once per segment between those
cuts, not once per step.  Every run's draws are read from one byte string
of Mersenne Twister words, bit for bit the values
``random.Random(seed).random()`` returns.

Runs never interact, so the estimate cuts its seeds into contiguous parts,
one per usable core as long as each part keeps ``_MIN_PART_CELLS`` score
cells (widest neighborhood x runs), the break-even of a second thread on a
2-core host.  The calling thread draws every table (the draws hold the GIL)
and runs part 0; a pool thread runs each other part through the same
kernel, whose numpy calls release the GIL.  The totals are bit for bit those
of one kernel call.  Below the cutoff, and for single matchings, no thread
starts.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (ContractViolation, Instance, Schedule, _quotients_out, allocating,
                   require_valid, time_grid, unit_columns)
from .oracle import EdfQueue, active_steps, offline_throughput_opt


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """Bipartite view of a throughput instance, as columns.

    ``steps`` lists the active steps in increasing order; each contributes
    ``k`` online vertices ``(t, 0) .. (t, k-1)`` with identical
    neighborhoods.  Offline vertex ``j``, in instance order, is job
    ``job_ids[j]`` of weight ``w[j] / scale``, adjacent to, and revealed at
    the first of, ``steps[lo[j]:hi[j]]`` (:func:`active_steps`).
    """

    k: int
    steps: np.ndarray
    job_ids: tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    w: tuple[int, ...]
    scale: int

    @property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Each active step's job ids, ascending, built on each read."""
        out = {}
        for start, length, rows in _segments(self):
            ids = tuple(self.job_ids[j] for j in rows.tolist())
            out.update((t, ids) for t in range(start, start + length))
        return out

    def online_vertices(self) -> list[tuple[int, int]]:
        return [(t, i) for t in self.steps.tolist() for i in range(self.k)]

    def is_edge(self, u: int, v: tuple[int, int]) -> bool:
        return _edge_rows(self, [(u, v)])[0] >= 0

    def to_jsonable(self) -> dict:
        steps = self.steps.tolist()
        return {
            "k": self.k,
            "steps": steps,
            "offline": [
                {"id": u, "w": w, "reveal": steps[a], "steps": steps[a:b]}
                for u, w, a, b in zip(self.job_ids, _quotients_out(self.w, self.scale),
                                      self.lo.tolist(), self.hi.tolist())
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
    if instance.model != "throughput":
        raise ContractViolation("needs a throughput instance")
    jobs = time_grid(require_valid(instance).jobs)
    steps, lo, hi = active_steps(jobs)
    return MatchingInstance(k=instance.k, steps=steps, job_ids=tuple(jobs.ids),
                            lo=lo, hi=hi, w=tuple(jobs.w), scale=jobs.scale)


def _edge_rows(mi: MatchingInstance, pairs) -> list[int]:
    """Each pair ``(u, (t, i))``'s job row if it is an edge, else -1: ``u``
    is found by bisection, and ``t`` must lie in its window ``[r, d)``."""
    order = np.argsort(mi.job_ids).tolist()
    ids = [mi.job_ids[j] for j in order]
    steps, lo, hi = mi.steps.tolist(), mi.lo.tolist(), mi.hi.tolist()
    rows = []
    for u, (t, i) in pairs:
        at = bisect_left(ids, u)
        j = order[at] if at < len(ids) and ids[at] == u else -1
        edge = j >= 0 and 0 <= i < mi.k and steps[lo[j]] <= t <= steps[hi[j] - 1]
        rows.append(j if edge else -1)
    return rows


def _checked_weight(mi: MatchingInstance, pairs) -> Fraction:
    """The exact weight of ``pairs``; raises unless every pair is an edge
    and both sides are used at most once."""
    seen_u: set[int] = set()
    seen_v: set[tuple[int, int]] = set()
    total = 0
    for (u, v), j in zip(pairs, _edge_rows(mi, pairs)):
        if j < 0:
            raise ContractViolation(f"pair ({u}, {v}) is not an edge")
        if u in seen_u:
            raise ContractViolation(f"offline vertex {u} matched twice")
        if v in seen_v:
            raise ContractViolation(f"online vertex {v} matched twice")
        seen_u.add(u)
        seen_v.add(v)
        total += mi.w[j]
    return Fraction(total, mi.scale)


def check_matching(mi: MatchingInstance, matching: Matching) -> None:
    """Raise unless every pair is an edge and both sides are used at most once."""
    total = _checked_weight(mi, matching.pairs)
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
    """The matching of a schedule's assignments; raises, naming the pair,
    unless it is one."""
    pairs = sorted(((job, (start, machine))
                    for job, machine, start in schedule.assignments),
                   key=lambda p: (p[1], p[0]))
    return Matching(pairs=pairs, weight=_checked_weight(mi, pairs))


def _float_weights(mi: MatchingInstance) -> np.ndarray:
    """Each job's weight rounded to float64 (int division rounds exactly)."""
    return np.array([w / mi.scale for w in mi.w])


#: Seeds whose draws are read from one byte string: 2 KiB per job, and few
#: enough numpy calls per seed that small instances gain too.
_DRAW_CHUNK = 256


def _perturbed_scores(w: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Scores ``w * (1 - exp(x - 1))`` as a C-contiguous (seeds x jobs) table.

    Row ``c`` holds the ``x`` that ``random.Random(seeds[c]).random()``
    returns, drawn once per job in reveal order.  ``random()`` combines two
    32-bit Mersenne Twister words ``a, b`` into ``((a >> 5) * 2^26 + (b >> 6))
    * 2^-53``, and ``getrandbits(64 * n)`` yields the same ``2n`` words, the
    first one least significant.  So each chunk of seeds is read from one
    byte string, and every ``x`` is bit-identical to the loop's.
    """
    n = len(w)
    table = np.empty((len(seeds), n))
    for start in range(0, len(seeds), _DRAW_CHUNK):
        chunk = seeds[start:start + _DRAW_CHUNK]
        raw = b"".join(random.Random(s).getrandbits(64 * n).to_bytes(8 * n, "little")
                       for s in chunk)
        words = np.frombuffer(raw, dtype="<u4").reshape(len(chunk), n, 2)
        # in place in the chunk's rows of the table
        score = table[start:start + len(chunk)]
        np.multiply(words[..., 0] >> 5, 67108864.0, out=score)
        score += words[..., 1] >> 6
        score *= 1.0 / 9007199254740992.0  # x, exact in float64
        score -= 1.0
        np.exp(score, out=score)
        np.subtract(1.0, score, out=score)
        score *= w
    return table


def _segments(mi: MatchingInstance) -> list[tuple[int, int, np.ndarray]]:
    """The active steps cut at every distinct run end ``lo``, ``hi``: each
    segment's first step, its length and its neighbors as rows of
    ``mi.job_ids``, ascending by id, which is the kernel's lowest-id
    tie-break.  Every step of a segment has the same neighbors, and its
    steps are consecutive (a gap in the active steps ends every run before
    it).  Every row, taken in id order, is repeated once per segment of its
    run and stably sorted by segment; there are at most ``2 * jobs``."""
    cuts = np.unique(np.r_[mi.lo, mi.hi])
    by_id = np.argsort(mi.job_ids)
    lo, hi = np.searchsorted(cuts, mi.lo[by_id]), np.searchsorted(cuts, mi.hi[by_id])
    sizes = hi - lo
    at = np.arange(sizes.sum()) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
    rows = np.repeat(by_id, sizes)[np.argsort(at, kind="stable")]
    count = max(len(cuts) - 1, 0)
    split = np.split(rows, np.cumsum(np.bincount(at, minlength=count)))[:-1]
    return list(zip(mi.steps[cuts[:-1]].tolist(), np.diff(cuts).tolist(), split))


def _width(mi: MatchingInstance) -> int:
    """The most neighbors any active step has, from the runs' ends."""
    ends = len(mi.steps) + 1
    cover = np.bincount(mi.lo, minlength=ends) - np.bincount(mi.hi, minlength=ends)
    return int(cover.cumsum().max(initial=0))


def _greedy(mi: MatchingInstance, segments: list[tuple[int, int, np.ndarray]],
            w: np.ndarray, scores: np.ndarray,
            totals: np.ndarray) -> list[tuple[int, tuple[int, int]]]:
    """The greedy matcher, run once per row of ``scores`` (runs x jobs).

    Online vertices arrive in (step, machine) order; each takes, in every
    run, the unmatched neighbor of highest score, the lowest id on ties.
    Scores must be nonnegative.  The C-contiguous table is consumed: a
    matched cell becomes -1.  A segment of ``L`` steps offers its one
    neighborhood to ``k * L`` vertices, so it gathers its neighbor columns
    into one block (runs x neighbors) and makes ``min(k * L, neighbors)``
    picks there, pick ``i`` at step ``i // k`` on machine ``i % k`` (later
    ones find no neighbor left), each an argmax along contiguous rows that
    marks its cell of the block; the segment's picks mark the table
    together once it is done.  Each run's matched weight is summed from
    ``w`` in pick order into ``totals``; returns the pairs run 0 matched,
    each job as its row.  The scratch arrays are allocated once.
    """
    runs, n = scores.shape
    k = mi.k
    picks_most = max((min(k * length, len(rows)) for _, length, rows in segments),
                     default=0)
    block_buf = np.empty(runs * max((len(rows) for *_, rows in segments), default=0))
    every = np.arange(runs)
    run_cell = every * n                       # each run's first cell in the table
    first = np.empty(runs, dtype=np.intp)      # and in the block
    per_pick = (picks_most, runs)
    picks, marks, jobs = (np.empty(per_pick, dtype=np.intp) for _ in range(3))
    best, gain = np.empty(per_pick), np.empty(per_pick)
    matched = np.empty(per_pick, dtype=bool)
    cell_of = scores.reshape(-1)
    pairs = []
    for start, length, rows in segments:
        flat = block_buf[:len(rows) * runs]
        # "clip" writes straight into ``out`` ("raise" stages a copy); every
        # index is in range
        block = np.take(scores, rows, axis=1, mode="clip",
                        out=flat.reshape(runs, len(rows)))
        np.multiply(every, len(rows), out=first)
        count = min(k * length, len(rows))
        for i in range(count):
            block.argmax(axis=1, out=picks[i])
            np.add(first, picks[i], out=marks[i])
            np.take(flat, marks[i], mode="clip", out=best[i])
            flat[marks[i]] = -1.0
        np.take(rows, picks[:count], mode="clip", out=jobs[:count])
        np.add(jobs[:count], run_cell, out=marks[:count])
        cell_of[marks[:count]] = -1.0
        # a run with no unmatched neighbor left re-marks a -1 cell, adds 0
        np.greater_equal(best[:count], 0.0, out=matched[:count])
        np.take(w, jobs[:count], mode="clip", out=gain[:count])
        for i in range(count):
            np.add(totals, gain[i], out=totals, where=matched[i])
            if runs and matched[i, 0]:
                pairs.append((int(jobs[i, 0]), (start + i // k, i % k)))
    return pairs


def _matching(mi: MatchingInstance, scores: np.ndarray) -> Matching:
    """One kernel run on a one-row copy of ``scores``; the exact weight is
    summed from the matched rows' numerators."""
    rows = _greedy(mi, _segments(mi), scores, scores[np.newaxis].copy(), np.zeros(1))
    return Matching(pairs=[(mi.job_ids[j], v) for j, v in rows],
                    weight=Fraction(sum(mi.w[j] for j, _ in rows), mi.scale))


def perturbed_greedy(mi: MatchingInstance, seed: int) -> Matching:
    """Randomized matcher: per-job uniform perturbation, then greedy by score.

    Ties break toward the lowest job id; equal-weight jobs therefore resolve
    toward the smaller perturbation, since the score is strictly decreasing
    in x.  The same seed always yields the same matching.  Scores stay
    float64: the rule is defined on the float draw, ``w * (1 - exp(x - 1))``
    rounded as the batched estimate computes it.
    """
    return _matching(mi, _perturbed_scores(_float_weights(mi), [seed])[0])


def greedy_baseline(mi: MatchingInstance) -> Matching:
    """Deterministic comparator: always take the heaviest unmatched neighbor.

    Each job scores the dense rank of its exact weight among the distinct
    weights, so no two weights that differ tie in float64; over one scale,
    the weight numerators rank as the weights do.
    """
    rank = {w: r for r, w in enumerate(sorted(set(mi.w)))}
    return _matching(mi, np.array([float(rank[w]) for w in mi.w]))


def _usable_cores() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Fewest score cells (widest neighborhood x runs) that a part of the
#: batched matcher gets.  On a 2-core x86-64 host two threaded parts of the
#: kernel broke even with one at about 49k cells a part (0.67x at 33k,
#: 1.29x at 65k, 1.63x at 131k), as the GIL hand-offs of the per-segment
#: numpy calls stop outweighing the second core.
_MIN_PART_CELLS = 2**16


def batched_greedy_weights(mi: MatchingInstance,
                           seeds: Sequence[int]) -> np.ndarray:
    """Matched weight of :func:`perturbed_greedy` for every seed at once.

    One score row per seed, run through the same kernel as the single
    matcher, so each row equals that seed's run exactly.  Runs are
    independent, so the seeds are cut into ``P`` contiguous parts, at most
    one per usable core and each of at least ``_MIN_PART_CELLS`` cells
    (widest neighborhood x runs).  This thread draws every part's table,
    runs part 0 itself and each other part in a pool thread, and re-raises
    the first error a part raised once every part is done.  The totals come
    back in seed order.
    """
    w = _float_weights(mi)
    count = max(1, min(_usable_cores(), len(seeds),
                       _width(mi) * len(seeds) // _MIN_PART_CELLS))
    totals = np.zeros(len(seeds))
    cuts = [len(seeds) * p // count for p in range(count + 1)]
    tables = [_perturbed_scores(w, seeds[a:b]) for a, b in zip(cuts, cuts[1:])]
    # after the draw: segment rows allocated before the tables and freed
    # with them let the benchmark process's peak RSS creep up by 2 MiB
    segments = _segments(mi)
    parts = [(table, totals[a:b]) for table, a, b in zip(tables, cuts, cuts[1:])]
    with ThreadPoolExecutor(max(1, count - 1)) as pool:
        others = [pool.submit(_greedy, mi, segments, w, *part) for part in parts[1:]]
        _greedy(mi, segments, w, *parts[0])
        for other in others:
            other.result()
    return totals


def edf_throughput_unweighted(instance: Instance) -> Schedule:
    """Earliest-deadline-first for equal weights; exact on such instances.

    Each step runs the up-to-k pending jobs with the nearest deadlines: one
    :class:`~schedlab.oracle.EdfQueue` with quota ``k``, stepped only at the
    steps that release a job or find one pending, so an idle stretch costs
    nothing.  Weighted instances are refused: with unequal weights this rule
    has no optimality property and the randomized matcher should be used
    instead.
    """
    if instance.model != "throughput":
        raise ContractViolation("needs a throughput instance")
    jobs = time_grid(require_valid(instance).jobs)
    if len(set(jobs.w)) > 1:
        raise ContractViolation("weights differ; use the matching algorithms")
    jobs = unit_columns(jobs)
    releases = jobs.r.tolist()
    edf, assignments = EdfQueue(), []
    at = t = 0
    while at < len(releases) or edf.pending:
        if not edf.pending:
            t = releases[at]
        end = bisect_right(releases, t, at)
        slot = edf.step(t, jobs[at:end], instance.k)
        assignments += ((job, machine, t) for machine, job in enumerate(slot))
        at, t = end, t + 1
    return Schedule(assignments=assignments, misses=sorted(edf.finish()[1].misses))


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
    estimate is reproducible.  A score table (trials x jobs, plus a column
    of totals) that numpy will not allocate is refused before any seed is
    drawn.
    """
    if trials < 1:
        raise ContractViolation("need trials >= 1")
    mi = reduce_to_matching(instance)
    with allocating(trials, f"trials of {len(mi.job_ids)} jobs",
                    "a float64 score table"):
        np.empty((trials, len(mi.job_ids) + 1))
    totals = batched_greedy_weights(mi, trial_seeds(seed, trials))
    opt_weight, _ = offline_throughput_opt(instance)
    opt = float(opt_weight)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    ratio = mean / opt if opt else 1.0
    return RatioEstimate(trials=trials, seed=seed, mean_alg=mean,
                         stderr=stderr, opt=opt, ratio=ratio)
