"""Throughput-to-matching reduction and the randomized matching players."""
import hashlib
import heapq
import json
import math
import os
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference_matching import reference_active_steps, reference_reduce_to_matching
from schedlab.core import ContractViolation, Instance, Job, Schedule
from schedlab.fileio import dump_json
from schedlab.generators import throughput_instance, upper_triangular_instance
from schedlab.oracle import offline_throughput_opt
from schedlab import throughput
from schedlab.throughput import (
    _DRAW_CHUNK,
    Matching,
    _float_weights,
    _greedy,
    _perturbed_scores,
    _segments,
    _width,
    batched_greedy_weights,
    check_matching,
    edf_throughput_unweighted,
    estimate_ratio,
    greedy_baseline,
    matching_to_schedule,
    perturbed_greedy,
    reduce_to_matching,
    schedule_to_matching,
    trial_seeds,
)


def tp(*jobs, k=1):
    return Instance.of(
        "throughput",
        [Job(i, r, d, w=w) for i, (r, d, w) in enumerate(jobs)], k=k)


def window_steps(mi, row):
    """The active steps of job row ``row``'s run."""
    return mi.steps[mi.lo[row]:mi.hi[row]].tolist()


class TestReduction:
    def test_one_job_two_machines(self):
        mi = reduce_to_matching(tp((0, 2, 7), k=2))
        assert mi.k == 2
        assert mi.online_vertices() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(mi.is_edge(0, v) for v in mi.online_vertices())
        assert Fraction(mi.w[0], mi.scale) == 7

    def test_completion_convention_trims_last_step(self):
        mi = reduce_to_matching(tp((0, 1, 1)))
        assert mi.online_vertices() == [(0, 0)]
        assert (mi.steps.tolist(), mi.lo.tolist(), mi.hi.tolist()) == ([0], [0], [1])

    def test_weights_carried_over(self):
        inst = throughput_instance(10, 5, k=2, seed=7)
        mi = reduce_to_matching(inst)
        assert [(u, Fraction(w, mi.scale)) for u, w in zip(mi.job_ids, mi.w)] == [
            (j.id, j.w) for j in inst.jobs]

    def test_reveal_is_first_neighbor_step(self):
        for seed in range(10):
            inst = throughput_instance(14, 6, k=2, seed=seed)
            mi = reduce_to_matching(inst)
            for row, j in enumerate(inst.jobs):
                assert window_steps(mi, row) == list(range(j.r, j.d))

    def test_same_step_vertices_share_neighborhood(self):
        mi = reduce_to_matching(throughput_instance(12, 5, k=3, seed=1))
        for t in mi.steps.tolist():
            hood = {u for u in mi.job_ids if mi.is_edge(u, (t, 0))}
            for i in range(1, mi.k):
                assert {u for u in mi.job_ids if mi.is_edge(u, (t, i))} == hood

    def test_empty_steps_skipped(self):
        mi = reduce_to_matching(tp((0, 1, 1), (4, 6, 1)))
        assert mi.steps.tolist() == [0, 4, 5]
        assert (mi.lo.tolist(), mi.hi.tolist()) == ([0, 1], [1, 3])

    def test_window_past_memory_refused_at_once(self):
        # the [0, 2**62) window: the dict form walked it step by step
        inst = tp((0, 2**62, 1))
        for call in (reduce_to_matching, offline_throughput_opt):
            with pytest.raises(ContractViolation, match=f"^{2**62} steps do not "
                               "fit in memory as int64 columns$"):
                call(inst)
        # EDF steps only where a job is released or pending
        sched = edf_throughput_unweighted(inst)
        assert (sched.assignments, sched.misses) == ([(0, 0, 0)], [])


weights = st.one_of(st.integers(0, 9), st.fractions(0, 5, max_denominator=7))


@st.composite
def matching_instances(draw):
    """Throughput instances: generated, upper-triangular, or ``Instance.of``
    rows with int or ``Fraction`` weights, ids shuffled and windows apart."""
    kind = draw(st.sampled_from(["generated", "triangular", "rows"]))
    if kind == "generated":
        return throughput_instance(draw(st.integers(0, 30)), draw(st.integers(1, 12)),
                                   k=draw(st.integers(1, 4)), seed=draw(st.integers(0, 99)),
                                   unweighted=draw(st.booleans()))
    if kind == "triangular":
        return upper_triangular_instance(draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    spec = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6), weights),
                         max_size=16))
    ids = draw(st.permutations(range(len(spec))))
    return Instance.of("throughput", [Job(u, r, r + span, w=w)
                                      for u, (r, span, w) in zip(ids, spec)],
                       k=draw(st.integers(1, 3)))


@given(matching_instances())
def test_columns_equal_the_dict_reduction(inst):
    mi = reduce_to_matching(inst)
    ref = reference_reduce_to_matching(inst)
    steps, neighbors = reference_active_steps(inst.jobs)
    assert (mi.k, mi.job_ids) == (ref.k, ref.job_ids)
    assert mi.steps.dtype == mi.lo.dtype == mi.hi.dtype == np.int64
    assert tuple(mi.steps.tolist()) == ref.steps == steps
    assert mi.neighbors == ref.neighbors == neighbors
    segments = _segments(mi)
    assert len(segments) <= min(len(steps), 2 * len(mi.job_ids))
    assert [(t, [mi.job_ids[j] for j in rows.tolist()])
            for start, length, rows in segments
            for t in range(start, start + length)] == [
        (t, list(neighbors[t])) for t in steps]
    # a segment ends only where some run starts or ends
    assert all(not np.array_equal(a[2], b[2]) for a, b in zip(segments, segments[1:]))
    assert _width(mi) == max(map(len, neighbors.values()), default=0)
    assert [Fraction(w, mi.scale) for w in mi.w] == [ref.weights[u] for u in ref.job_ids]
    assert dump_json(mi.to_jsonable()) == dump_json(ref.to_jsonable())


class TestSolutionMapping:
    def test_pair_becomes_assignment(self):
        mi = reduce_to_matching(tp((0, 8, 3), k=3))
        matching = Matching(pairs=[(0, (5, 2))], weight=Fraction(3))
        sched = matching_to_schedule(mi, matching)
        assert sched.assignments == [(0, 2, 5)]
        assert sched.misses == []

    def test_empty_matching(self):
        mi = reduce_to_matching(tp((0, 2, 4)))
        sched = matching_to_schedule(mi, Matching(pairs=[], weight=Fraction(0)))
        assert sched.assignments == []
        assert sched.misses == [0]

    def test_round_trip_identity_on_corpus(self):
        for seed in range(200):
            inst = throughput_instance(1 + seed % 15, 2 + seed % 6,
                                       k=1 + seed % 3, seed=seed)
            mi = reduce_to_matching(inst)
            _, opt_sched = offline_throughput_opt(inst)
            matching = schedule_to_matching(mi, opt_sched)
            check_matching(mi, matching)
            back = matching_to_schedule(mi, matching)
            assert sorted(back.assignments) == sorted(opt_sched.assignments)
            by_id = inst.jobs_by_id()
            assert matching.weight == sum(by_id[a[0]].w
                                          for a in opt_sched.assignments)

    def test_invalid_edge_rejected(self):
        mi = reduce_to_matching(tp((0, 1, 1)))
        bad = Matching(pairs=[(0, (3, 0))], weight=Fraction(1))
        with pytest.raises(ContractViolation):
            check_matching(mi, bad)

    @pytest.mark.parametrize("pairs, message", [
        ([(0, (0, 1))], r"^pair \(0, \(0, 1\)\) is not an edge$"),
        ([(0, (0, -1))], r"^pair \(0, \(0, -1\)\) is not an edge$"),
        ([(0, (0, 0)), (0, (1, 0))], "^offline vertex 0 matched twice$"),
        ([(0, (0, 0))], "^stored weight 2 != recomputed 1$"),
    ])
    def test_each_rule_refuses(self, pairs, message):
        mi = reduce_to_matching(tp((0, 2, 1), (0, 2, 1)))
        with pytest.raises(ContractViolation, match=message):
            check_matching(mi, Matching(pairs=pairs, weight=Fraction(2)))

    def test_unknown_job_named(self):
        mi = reduce_to_matching(tp((0, 2, 1), (0, 2, 1)))
        schedule = Schedule(assignments=[(0, 0, 0), (9, 0, 1)])
        with pytest.raises(ContractViolation, match=r"^pair \(9, \(1, 0\)\) is not an edge$"):
            schedule_to_matching(mi, schedule)

    def test_reused_vertex_rejected(self):
        mi = reduce_to_matching(tp((0, 2, 1), (0, 2, 1)))
        bad = Matching(pairs=[(0, (0, 0)), (1, (0, 0))], weight=Fraction(2))
        with pytest.raises(ContractViolation):
            check_matching(mi, bad)


class TestPerturbedGreedy:
    def test_single_edge_matched(self):
        mi = reduce_to_matching(tp((0, 1, 5)))
        m = perturbed_greedy(mi, seed=0)
        assert m.pairs == [(0, (0, 0))]
        assert m.weight == 5

    def test_equal_weights_prefer_smaller_draw(self):
        import random as stdrandom

        mi = reduce_to_matching(tp((0, 1, 3), (0, 1, 3)))
        for seed in range(20):
            rng = stdrandom.Random(seed)
            draws = [rng.random(), rng.random()]
            m = perturbed_greedy(mi, seed=seed)
            (winner, _), = m.pairs
            assert winner == draws.index(min(draws))

    def test_deterministic_given_seed(self):
        mi = reduce_to_matching(throughput_instance(20, 8, k=2, seed=3))
        assert perturbed_greedy(mi, seed=42).pairs == \
            perturbed_greedy(mi, seed=42).pairs

    def test_outputs_are_legal_matchings(self):
        for seed in range(30):
            inst = throughput_instance(16, 6, k=2, seed=seed)
            mi = reduce_to_matching(inst)
            check_matching(mi, perturbed_greedy(mi, seed=seed))

    def test_batched_replay_matches_sequential(self):
        inst = throughput_instance(18, 7, k=2, seed=9)
        mi = reduce_to_matching(inst)
        seeds = trial_seeds(5, 64)
        batched = batched_greedy_weights(mi, seeds)
        sequential = [float(perturbed_greedy(mi, s).weight) for s in seeds]
        assert np.array_equal(batched, np.array(sequential))

    def test_machine_permutation_leaves_weight_unchanged(self):
        inst = throughput_instance(15, 5, k=3, seed=11)
        mi = reduce_to_matching(inst)
        for seed in (0, 7, 123):
            m = perturbed_greedy(mi, seed=seed)
            permuted = [(u, (t, (i + 1) % mi.k)) for u, (t, i) in m.pairs]
            check_matching(mi, Matching(pairs=permuted, weight=m.weight))


class TestGreedyBaseline:
    def test_single_edge(self):
        mi = reduce_to_matching(tp((0, 1, 5)))
        assert greedy_baseline(mi).weight == 5

    def test_takes_heavier_neighbor(self):
        mi = reduce_to_matching(tp((0, 1, 10), (0, 1, 1)))
        m = greedy_baseline(mi)
        assert m.pairs == [(0, (0, 0))]

    @pytest.mark.parametrize("heavy_first", [False, True])
    @pytest.mark.parametrize("light, heavy", [(1, 1 + Fraction(1, 10**20)),
                                              (2**53, 2**53 + 1)])
    def test_weights_equal_as_floats_rank_exactly(self, light, heavy, heavy_first):
        weights = [heavy, light] if heavy_first else [light, heavy]
        mi = reduce_to_matching(tp(*[(0, 1, w) for w in weights]))
        m = greedy_baseline(mi)
        assert m.pairs == [(weights.index(heavy), (0, 0))]
        assert m.weight == heavy

    def test_equal_weights_take_the_lowest_id(self):
        mi = reduce_to_matching(tp((0, 1, Fraction(1, 3)), (0, 1, Fraction(1, 3)),
                                   (0, 2, Fraction(1, 4))))
        assert greedy_baseline(mi).pairs == [(0, (0, 0)), (2, (1, 0))]

    def test_two_step_trap(self):
        delta = Fraction(1, 10)
        inst = tp((0, 1, 1), (0, 2, 1 + delta))
        mi = reduce_to_matching(inst)
        greedy_weight = greedy_baseline(mi).weight
        opt_weight, _ = offline_throughput_opt(inst)
        assert greedy_weight == 1 + delta
        assert opt_weight == 2 + delta


class TestEdfThroughput:
    def test_one_slot_two_jobs(self):
        inst = tp((0, 1, 1), (0, 1, 1))
        sched = edf_throughput_unweighted(inst)
        assert len(sched.assignments) == 1
        opt, _ = offline_throughput_opt(inst)
        assert len(sched.assignments) == opt

    def test_staggered_pair_both_fit(self):
        sched = edf_throughput_unweighted(tp((0, 1, 1), (0, 2, 1)))
        assert len(sched.assignments) == 2

    def test_weighted_instance_refused(self):
        with pytest.raises(ContractViolation):
            edf_throughput_unweighted(tp((0, 1, 1), (0, 1, 2)))

    def test_matches_opt_on_corpus(self):
        for seed in range(60):
            inst = throughput_instance(1 + seed % 18, 2 + seed % 7,
                                       k=1 + seed % 3, seed=seed,
                                       unweighted=True)
            sched = edf_throughput_unweighted(inst)
            opt, _ = offline_throughput_opt(inst)
            assert len(sched.assignments) == opt


def reference_edf_throughput(instance):
    """The heap loop edf_throughput_unweighted ran before it used EdfQueue."""
    horizon = max((int(j.d) for j in instance.jobs), default=0)
    by_release = {}
    for job in instance.jobs:
        by_release.setdefault(int(job.r), []).append(job)
    pending = []
    assignments = []
    scheduled = set()
    for t in range(horizon):
        for job in by_release.get(t, ()):
            heapq.heappush(pending, (int(job.d), job.id))
        while pending and pending[0][0] < t + 1:
            heapq.heappop(pending)
        for i in range(instance.k):
            if not pending:
                break
            d, job_id = heapq.heappop(pending)
            assignments.append((job_id, i, t))
            scheduled.add(job_id)
    misses = sorted(j.id for j in instance.jobs if j.id not in scheduled)
    return assignments, misses


@given(st.one_of(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)), max_size=30),
                 # sparse releases: idle stretches between busy ones
                 st.lists(st.tuples(st.integers(0, 300), st.integers(1, 100)),
                          max_size=8)),
       st.integers(1, 3), st.booleans())
def test_edf_throughput_matches_reference_loop(pairs, k, shuffle):
    jobs = [Job(i, r, r + span, w=1) for i, (r, span) in enumerate(pairs)]
    if shuffle:
        jobs.reverse()
    inst = Instance.of("throughput", jobs, k=k)
    sched = edf_throughput_unweighted(inst)
    assert (sched.assignments, sched.misses) == reference_edf_throughput(inst)


def test_edf_throughput_digest():
    # Recorded before EDF kept deadline buckets over column blocks.
    h = hashlib.sha256()
    for seed in range(5):
        sched = edf_throughput_unweighted(
            throughput_instance(400, 100, 4, seed=seed, unweighted=True))
        h.update(json.dumps([sched.assignments, sched.misses]).encode())
    assert h.hexdigest() == (
        "b29a2888deab71c7c5e51d9d35b6fd284ccc27eaf1fef6f8f6a27f977854fcdd")


LONG_WINDOW_CALLS = {
    "greedy_baseline": lambda inst: greedy_baseline(reduce_to_matching(inst)).pairs,
    "perturbed_greedy": lambda inst: perturbed_greedy(reduce_to_matching(inst), 5).pairs,
    "batched_greedy_weights": lambda inst: batched_greedy_weights(
        reduce_to_matching(inst), trial_seeds(0, 2000)).tolist(),
    "edf_throughput_unweighted": lambda inst: edf_throughput_unweighted(inst).assignments,
}


@pytest.mark.parametrize("name", sorted(LONG_WINDOW_CALLS))
def test_long_window_costs_no_step_walk(name, watchdog):
    # one job, one match, a million active steps: the matcher walks its
    # one segment and EDF its one busy step
    inst = tp((0, 10**6, 1))
    start = time.perf_counter()
    result = LONG_WINDOW_CALLS[name](inst)
    assert time.perf_counter() - start < 1.0
    expected = {"batched_greedy_weights": [1.0] * 2000,
                "edf_throughput_unweighted": [(0, 0, 0)]}
    assert result == expected.get(name, [(0, (0, 0))])


class TestEstimateRatio:
    def test_single_job_ratio_one(self):
        est = estimate_ratio(tp((0, 1, 5)), trials=50, seed=1)
        assert est.ratio == 1.0
        assert est.stderr == 0.0

    def test_reproducible(self):
        inst = throughput_instance(12, 5, k=2, seed=4)
        a = estimate_ratio(inst, trials=100, seed=9)
        b = estimate_ratio(inst, trials=100, seed=9)
        assert (a.mean_alg, a.stderr, a.ratio) == (b.mean_alg, b.stderr, b.ratio)

    def test_triangular_single_machine_floor(self):
        est = estimate_ratio(upper_triangular_instance(1, 6),
                             trials=2000, seed=0)
        assert est.ratio >= 1 - 1 / math.e - 0.02

    def test_triangular_four_machines_floor(self):
        est = estimate_ratio(upper_triangular_instance(4, 6),
                             trials=2000, seed=0)
        assert est.ratio >= 1 - 1 / math.e - 0.02

    def test_zero_trials_rejected(self):
        with pytest.raises(ContractViolation):
            estimate_ratio(tp((0, 1, 1)), trials=0)


def reference_scores(ref, seed):
    """Perturbed scores w*(1-exp(x-1)) as the sequential matcher drew them,
    on the dict form ``ref``."""
    rng = random.Random(seed)
    x = np.array([rng.random() for _ in ref.job_ids])
    w = np.array([float(ref.weights[u]) for u in ref.job_ids])
    return dict(zip(ref.job_ids, (w * (1.0 - np.exp(x - 1.0))).tolist()))


@pytest.mark.parametrize("jobs", [0, 1, 7, 400])
def test_draws_equal_reference_loop_bit_for_bit(jobs):
    inst = throughput_instance(jobs, 9, k=2, seed=jobs)
    mi, ref = reduce_to_matching(inst), reference_reduce_to_matching(inst)
    # two full draw chunks, then a third that holds the edge seeds
    seeds = trial_seeds(1, 2 * _DRAW_CHUNK) + [0, 1, -5, 2**63 - 1, 2**64 + 5,
                                               2**200]
    table = _perturbed_scores(_float_weights(mi), seeds)
    assert table.shape == (len(seeds), jobs)
    assert table.flags.c_contiguous
    for row, seed in zip(table, seeds):
        expected = np.array(list(reference_scores(ref, seed).values()))
        assert row.tobytes() == expected.tobytes()


def reference_greedy_pairs(ref, score_of):
    """The Python greedy loop the matcher ran before its numpy kernel, on
    the dict form ``ref``."""
    available = set(ref.job_ids)
    pairs = []
    for t in ref.steps:
        for i in range(ref.k):
            best = None
            for u in ref.neighbors[t]:
                if u in available and (best is None or score_of[u] > score_of[best]):
                    best = u
            if best is not None:
                available.remove(best)
                pairs.append((best, (t, i)))
    return pairs


WEIGHTS = [0, 1, 3, Fraction(1, 3), Fraction(2, 3), Fraction(5, 7),
           Fraction(7, 2), Fraction(22, 9)]


@given(st.one_of(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4),
                                    st.sampled_from(WEIGHTS)), max_size=24),
                 # few jobs on long windows: segments of many steps
                 st.lists(st.tuples(st.integers(0, 200), st.integers(1, 200),
                                    st.sampled_from(WEIGHTS)), max_size=5)),
       st.integers(1, 4), st.integers(-2**72, 2**72), st.booleans())
def test_one_matcher_equals_reference_loop(spec, k, seed, weightless):
    if weightless:
        spec = [(r, span, 0) for r, span, _ in spec]
    inst = tp(*[(r, r + span, w) for r, span, w in spec], k=k)
    mi, ref = reduce_to_matching(inst), reference_reduce_to_matching(inst)
    seeds = [seed, seed ^ 1, 7]
    totals = batched_greedy_weights(mi, seeds)
    for s, total in zip(seeds, totals.tolist()):
        pairs = reference_greedy_pairs(ref, reference_scores(ref, s))
        assert perturbed_greedy(mi, s).pairs == pairs
        # the batched rows add float weights in pick order
        expected = 0.0
        for u, _ in pairs:
            expected += float(ref.weights[u])
        assert total == expected
    baseline = reference_greedy_pairs(
        ref, {u: float(w) for u, w in ref.weights.items()})
    assert greedy_baseline(mi).pairs == baseline
    # every score tied: each pick takes the lowest unmatched id
    _, rows = whole_table_run(mi, seeds, all_ties)
    assert [(mi.job_ids[j], v) for j, v in rows] == reference_greedy_pairs(
        ref, dict.fromkeys(ref.job_ids, 1.0))


def matcher_corpus():
    corpus = [throughput_instance(4 + 7 * s, 2 + s % 9, k=1 + s % 4, seed=s)
              for s in range(16)]
    corpus.append(upper_triangular_instance(3, 5))
    corpus.append(tp(*[(s % 3, s % 3 + 1 + s % 4, Fraction(s % 5, 3 + s % 4))
                       for s in range(24)], k=2))
    return corpus


def matcher_digests(corpus):
    """sha256 of each matcher output, over the whole corpus."""
    parts = {"pairs": [], "totals": [], "estimate": [], "matching_instance": [],
             "opt": []}
    for inst in corpus:
        mi = reduce_to_matching(inst)
        runs = [perturbed_greedy(mi, s) for s in (0, 1, 2**62 + 5)]
        runs.append(greedy_baseline(mi))
        parts["pairs"].append([[m.pairs, str(m.weight)] for m in runs])
        parts["totals"].append(
            batched_greedy_weights(mi, trial_seeds(3, 50)).tobytes().hex())
        parts["estimate"].append(
            estimate_ratio(inst, trials=50, seed=3).to_jsonable())
        parts["matching_instance"].append(mi.to_jsonable())
        weight, schedule = offline_throughput_opt(inst)
        parts["opt"].append([str(weight), schedule.assignments, schedule.misses])
    return {name: hashlib.sha256(json.dumps(value).encode()).hexdigest()
            for name, value in parts.items()}


# Recorded from the two-loop matcher (a Python greedy for single runs, the
# numpy argmax for batches) that the one kernel replaced; "opt" from the
# OPT's solve on weight numerators, whose witnesses depend on the costs the
# solver sees, not only on the optimum.
MATCHER_DIGESTS = {
    "pairs": "2573c89e5b12ba7ce0e2ef66fbb3297de6cba954523d371be571a67f3f06a13c",
    "totals": "ba9b2650c27b71370a8f02b9842e30498b70ac1bd48f9d2aa3b485af6f90f7f0",
    "estimate": "f411901b5986978b3b4d96bcf568a674076b7ef84ed334f36bc8b5c503b123fb",
    "matching_instance":
        "23a9c146e8b86f56df6c0bdfa5441d6e518ea3b8219cc2bda7bb9105de4e000e",
    "opt": "b3007219d909d8b98563328b396e7bcf5da21a3307a2e6f5b3d1601784708564",
}


def test_matcher_outputs_match_pinned_digests():
    assert matcher_digests(matcher_corpus()) == MATCHER_DIGESTS


# sha256 of batched_greedy_weights(reduce_to_matching(throughput_instance(
# 400, 100, 4, seed=s)), trial_seeds(s, 2000)).tobytes(): the benchmark's
# size, whose 2000 trials span several draw chunks.  Recorded from the
# row-major kernel with one rng.random() call per job and trial.
WORKLOAD_TOTALS_DIGESTS = {
    0: "d52cee08eda36efae65b9bea0fa17664313e1501e68963e802fe86a206234d12",
    1: "626039f369333de0453fcae0eca5205cb42d3a78d0521920b856109b1249fe2c",
    2: "49630c981f51c98e715d8ff41ecc8dd9b353f801e847c9924d5f6fcff0ff823a",
}


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("seed", sorted(WORKLOAD_TOTALS_DIGESTS))
def test_workload_size_totals_match_pinned_digests(seed, cpus, monkeypatch):
    # about 300k cells: one part on one CPU, one part per CPU past that
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    mi = reduce_to_matching(throughput_instance(400, 100, 4, seed=seed))
    totals = batched_greedy_weights(mi, trial_seeds(seed, 2000))
    assert hashlib.sha256(totals.tobytes()).hexdigest() == \
        WORKLOAD_TOTALS_DIGESTS[seed]


def cpus(count):
    """A stand-in for ``os.sched_getaffinity`` that reports ``count`` CPUs."""
    return lambda pid: set(range(count))


def whole_table_run(mi, seeds, fill):
    """One ``_greedy`` call over the whole (seeds x jobs) table, in this
    thread: each run's total and the pairs of run 0."""
    w = _float_weights(mi)
    totals = np.zeros(len(seeds))
    return totals, _greedy(mi, _segments(mi), w, fill(w, seeds), totals)


def all_ties(w, seeds):
    """A score table in which every score ties."""
    return np.ones((len(seeds), len(w)))


class TestSplitMatcher:
    """The batched matcher cut into parts, one thread each, against one
    kernel call over the whole table."""

    @given(st.one_of(
               st.builds(throughput_instance, st.integers(0, 30), st.integers(1, 9),
                         k=st.integers(1, 4), seed=st.integers(0, 2**16)),
               st.builds(upper_triangular_instance, st.integers(1, 4),
                         st.integers(1, 6))),
           st.integers(1, 3), st.integers(0, 41), st.sampled_from([1, 16, 100]),
           st.booleans(), st.integers(0, 2**64))
    @example(upper_triangular_instance(2, 5), 3, 41, 16, True, 0)
    @example(upper_triangular_instance(3, 4), 2, 7, 1, False, 5)
    def test_split_equals_one_kernel_call(self, inst, cores, runs, min_cells,
                                          tie, seed):
        mi = reduce_to_matching(inst)
        seeds = trial_seeds(seed, runs)
        fill = all_ties if tie else _perturbed_scores
        totals, pairs = whole_table_run(mi, seeds, fill)
        width = _width(mi)
        count = max(1, min(cores, runs, width * runs // min_cells))
        starts = [runs * p // count for p in range(count)]
        calls = {}

        def recording(mi, segments, w, scores, totals):
            # a part's totals are a view of the result: its offset is its start
            offset = (totals.ctypes.data - totals.base.ctypes.data) // totals.itemsize
            calls[offset] = _greedy(mi, segments, w, scores, totals)
            return calls[offset]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", cpus(cores))
            patch.setattr(throughput, "_MIN_PART_CELLS", min_cells)
            patch.setattr(throughput, "_perturbed_scores", fill)
            patch.setattr(throughput, "_greedy", recording)
            split = batched_greedy_weights(mi, seeds)
        assert split.tobytes() == totals.tobytes()
        assert sorted(calls) == starts
        assert calls[0] == pairs
        for start in starts[1:]:
            assert calls[start] == whole_table_run(mi, seeds[start:], fill)[1]

    def test_more_parts_than_cores_under_fast_switching(self, monkeypatch):
        # three parts on two cores, the interpreter switching threads every
        # microsecond: every run's total still comes out as one call makes it
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        monkeypatch.setattr(throughput, "_MIN_PART_CELLS", 1)
        mi = reduce_to_matching(throughput_instance(60, 12, k=3, seed=8))
        seeds = trial_seeds(2, 301)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = batched_greedy_weights(mi, seeds)
        finally:
            sys.setswitchinterval(interval)
        totals, _ = whole_table_run(mi, seeds, _perturbed_scores)
        assert split.tobytes() == totals.tobytes()

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        monkeypatch.setattr(throughput, "_MIN_PART_CELLS", 1)
        mi = reduce_to_matching(throughput_instance(12, 5, k=2, seed=4))
        before = threading.active_count()
        batched_greedy_weights(mi, trial_seeds(1, 30))
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_part_error_reaches_the_caller(self, monkeypatch, failing):
        monkeypatch.setattr(os, "sched_getaffinity", cpus(2))
        monkeypatch.setattr(throughput, "_MIN_PART_CELLS", 1)
        mi = reduce_to_matching(throughput_instance(12, 5, k=2, seed=4))
        seen = []

        def failing_part(mi, segments, w, scores, totals):
            part_index = int(totals.ctypes.data != totals.base.ctypes.data)
            seen.append(part_index)
            if part_index == failing:
                raise ZeroDivisionError(f"part {part_index}")
            return _greedy(mi, segments, w, scores, totals)

        monkeypatch.setattr(throughput, "_greedy", failing_part)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=f"part {failing}"):
            batched_greedy_weights(mi, trial_seeds(1, 30))
        assert sorted(seen) == [0, 1]
        assert threading.active_count() == before

    def test_small_tables_start_no_thread(self, monkeypatch):
        """Below the cutoff the matcher runs in the calling thread: the
        benchmark checker's 64-trial replay, and every instance of the
        matching-ratio acceptance test (at most 24 neighbors x 2000 trials)."""
        class NoThread:
            def __init__(self, *args, **kwargs):
                raise AssertionError("started a thread")

        monkeypatch.setattr(os, "sched_getaffinity", cpus(3))
        monkeypatch.setattr(threading, "Thread", NoThread)
        replay = reduce_to_matching(throughput_instance(400, 100, 4, seed=0))
        batched_greedy_weights(replay, trial_seeds(0, 64))
        widest = reduce_to_matching(throughput_instance(30, 10, k=4, seed=7))
        assert _width(widest) * 2000 < 2**16
        batched_greedy_weights(widest, trial_seeds(0, 2000))
