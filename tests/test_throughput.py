"""Throughput-to-matching reduction and the randomized matching players."""
import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schedlab.core import ContractViolation, Instance, Job
from schedlab.generators import throughput_instance, upper_triangular_instance
from schedlab.oracle import offline_throughput_opt
from schedlab.throughput import (
    Matching,
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


class TestReduction:
    def test_one_job_two_machines(self):
        mi = reduce_to_matching(tp((0, 2, 7), k=2))
        assert mi.k == 2
        assert mi.online_vertices() == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(mi.is_edge(0, v) for v in mi.online_vertices())
        assert mi.weights[0] == 7

    def test_completion_convention_trims_last_step(self):
        mi = reduce_to_matching(tp((0, 1, 1)))
        assert mi.online_vertices() == [(0, 0)]
        assert mi.neighbors == {0: (0,)}

    def test_weights_carried_over(self):
        inst = throughput_instance(10, 5, k=2, seed=7)
        mi = reduce_to_matching(inst)
        for j in inst.jobs:
            assert mi.weights[j.id] == j.w

    def test_reveal_is_first_neighbor_step(self):
        for seed in range(10):
            inst = throughput_instance(14, 6, k=2, seed=seed)
            mi = reduce_to_matching(inst)
            for j in inst.jobs:
                with_j = [t for t in mi.steps if j.id in mi.neighbors[t]]
                assert mi.reveal[j.id] == min(with_j) == j.r

    def test_same_step_vertices_share_neighborhood(self):
        mi = reduce_to_matching(throughput_instance(12, 5, k=3, seed=1))
        for t in mi.steps:
            hood = {u for u in mi.job_ids if mi.is_edge(u, (t, 0))}
            for i in range(1, mi.k):
                assert {u for u in mi.job_ids if mi.is_edge(u, (t, i))} == hood

    def test_empty_steps_skipped(self):
        mi = reduce_to_matching(tp((0, 1, 1), (4, 6, 1)))
        assert mi.steps == (0, 4, 5)


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
            assert sum(mi.weights[u] for u, _ in permuted) == m.weight


class TestGreedyBaseline:
    def test_single_edge(self):
        mi = reduce_to_matching(tp((0, 1, 5)))
        assert greedy_baseline(mi).weight == 5

    def test_takes_heavier_neighbor(self):
        mi = reduce_to_matching(tp((0, 1, 10), (0, 1, 1)))
        m = greedy_baseline(mi)
        assert m.pairs == [(0, (0, 0))]

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


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)), max_size=30),
       st.integers(1, 3), st.booleans())
def test_edf_throughput_matches_reference_loop(pairs, k, shuffle):
    jobs = [Job(i, r, r + span, w=1) for i, (r, span) in enumerate(pairs)]
    if shuffle:
        jobs.reverse()
    inst = Instance.of("throughput", jobs, k=k)
    sched = edf_throughput_unweighted(inst)
    assert (sched.assignments, sched.misses) == reference_edf_throughput(inst)


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

    def test_custom_algorithm_path(self):
        inst = tp((0, 1, 10), (0, 1, 1))
        est = estimate_ratio(inst, algorithm=lambda mi, s: greedy_baseline(mi),
                             trials=3, seed=0)
        assert est.mean_alg == 10.0
        assert est.ratio == 1.0
