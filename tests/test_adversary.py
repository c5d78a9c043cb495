"""Adversarial release stream, interactive game, and counting analysis."""
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schedlab.adversary import (
    _SUM_CHUNK,
    AdversaryState,
    _off_series,
    actual_released,
    aggregate_game,
    alpha_edf_player,
    counting_bounds,
    crossover_n,
    offline_witness,
    play_game,
    resolve_rho,
    resolve_stream,
    scaling_bound_report,
)
from schedlab.core import ContractViolation, Schedule, UnitJobs
from schedlab.fileio import write_instance
from schedlab.generators import adversary_instance
from schedlab.online_min import EULER
from schedlab.oracle import off_prefix_series, off_unit

from reference_hull import DeadlineHull


class TestAdversaryState:
    def test_release_counts(self):
        state = AdversaryState(n=4, N=16, rho=EULER)
        assert [len(state.release(t)) for t in range(4)] == [4, 5, 8, 16]

    def test_stop_rule_fires_on_scaled_count(self):
        state = AdversaryState(n=4, N=16, rho=EULER)
        state.release(0)
        state.observe(0, 3, 1)
        assert state.stopped_at == 0
        assert len(state.release(1)) == 0

    def test_below_threshold_keeps_releasing(self):
        state = AdversaryState(n=4, N=16, rho=EULER)
        state.release(0)
        state.observe(0, 2, 1)
        assert state.stopped_at is None
        assert len(state.release(1)) == 5

    def test_zero_off_never_stops(self):
        state = AdversaryState(n=4, N=16, rho=EULER)
        state.observe(0, 5, 0)
        assert state.stopped_at is None

    def test_count_is_the_stream(self):
        state = AdversaryState(n=10, N=3)
        # floor(3 / (10 - t)) is 0 until 10 - t <= 3.
        assert [state.count(t) for t in range(12)] == [0] * 7 + [1, 1, 3, 0, 0]
        assert [len(state.release(t)) for t in range(10)] == [0] * 7 + [1, 1, 3]
        assert state.next_id == 5

    def test_count_after_stop_is_zero(self):
        state = AdversaryState(n=4, N=16, rho=Fraction(2))
        state.observe(1, 6, 3)
        assert state.stopped_at == 1
        assert [state.count(t) for t in range(4)] == [0, 0, 0, 0]

    def test_released_jobs_are_unit_and_due_at_n(self):
        state = AdversaryState(n=4, N=16)
        jobs = [*state.release(0), *state.release(1)]
        assert [j.id for j in jobs] == list(range(9))
        assert all(j.d == 4 and j.p == 1 for j in jobs)
        assert [j.r for j in jobs] == [0] * 4 + [1] * 5

    def test_release_is_one_column_block(self):
        state = AdversaryState(n=4, N=16)
        state.release(0)
        block = state.release(1)
        assert isinstance(block, UnitJobs)
        assert block.ids.tolist() == list(range(4, 9))
        assert set(block.r.tolist()) == {1} and set(block.d.tolist()) == {4}

    def test_ids_beyond_int64_refused(self):
        state = AdversaryState(n=4, N=16, next_id=2**63 - 4)
        assert state.release(0).ids.tolist()[-1] == 2**63 - 1
        with pytest.raises(ContractViolation, match="more than an int64"):
            state.release(1)

    def test_stream_beyond_int64_refused(self):
        # floor(N / 2) + N = 1.5e19 jobs: more ids than an int64 holds.
        for call in (adversary_instance,
                     lambda n, N: play_game(alpha_edf_player("e", n), n, N)):
            with pytest.raises(ContractViolation,
                               match="15000000000000000000 jobs"):
                call(2, 10**19)

    def test_resolve_rho_forms(self):
        assert resolve_rho(None) is None
        assert resolve_rho("none") is None
        assert resolve_rho("off") is None
        assert resolve_rho("e") == EULER
        assert resolve_rho(3) == 3


class TestPlayGame:
    def test_e_player_stopped_immediately(self):
        tr = play_game(alpha_edf_player("e", 4), 4, 16)
        assert tr.stopped_at == 0
        assert tr.cost == 3
        assert tr.off_final == 1
        assert tr.ratio == 3.0
        assert not tr.missed

    def test_alpha_one_runs_to_end_and_misses(self):
        tr = play_game(alpha_edf_player(1, 4), 4, 16)
        assert tr.stopped_at is None
        assert tr.released_total == 33
        assert tr.scheduled_total == 25
        assert tr.missed

    def test_stop_fires_at_zero_for_every_n(self):
        for n in (2, 5, 17, 40):
            tr = play_game(alpha_edf_player("e", n), n)
            assert tr.stopped_at == 0

    def test_full_stream_off_series_matches_oracle(self):
        tr = play_game(alpha_edf_player("e", 4), 4, 16, rho=None)
        inst = adversary_instance(4, 16)
        assert [s["off"] for s in tr.steps] == [
            off_unit([j for j in inst.jobs if j.r <= t]) for t in range(4)]
        assert [s["off"] for s in tr.steps] == [1, 3, 5, 16]

    def test_e_player_never_misses_full_stream(self):
        for n in (3, 10, 37):
            tr = play_game(alpha_edf_player("e", n), n, rho=None)
            assert not tr.missed
            assert tr.ratio <= math.e + 1 / tr.off_final + 1e-12

    def test_overbooking_player_audited(self):
        class Cheat:
            def step(self, t, released):
                return 1, [j.id for j in released]

        with pytest.raises(ContractViolation):
            play_game(Cheat(), 4, 16)

    @pytest.mark.parametrize("moves, job", [
        ([[0, 999, 5]], "step 0: job 999"),  # unknown; 5 is released at step 1
        ([[1, 4, 999]], "step 0: job 4"),  # released at step 1
        ([[0], [4, 0, 4]], "step 1: job 0"),  # already run at step 0
        ([[2, 3, 2, 999]], "step 0: job 2"),  # repeated within one step
        ([[2, 3, 3, 2]], "step 0: job 3"),  # repeated, every id pending
        ([[0, 2**64, 999]], f"step 0: job {2**64}"),  # past int64
        ([[0.5, 999]], "step 0: job 0.5"),  # not an id, though int64 truncates it to 0
    ], ids=["unknown", "early", "run", "repeated", "only-repeated", "2**64", "fractional"])
    def test_audit_names_the_first_job_not_pending(self, moves, job):
        class Scripted:
            def step(self, t, released):
                return 10, moves[t]

        with pytest.raises(ContractViolation) as refused:
            play_game(Scripted(), 4, 16, rho=None)
        assert str(refused.value) == f"{job} not pending (unknown, early, or repeated)"

    def test_transcript_json(self):
        tr = play_game(alpha_edf_player("e", 4), 4, 16)
        doc = tr.to_jsonable()
        assert doc["rho"] == "e"
        assert doc["outcome"] == "stopped"
        assert doc["stopped_at"] == 0


class TestAggregateGame:
    def test_off_series_small(self):
        g = aggregate_game("e", 4, 16)
        assert list(g.off) == [1, 3, 5, 16]

    @given(st.integers(1, 40), st.integers(1, 2000))
    def test_off_matches_job_level_engine(self, n, N):
        series = off_prefix_series(adversary_instance(n, N).jobs)
        assert list(aggregate_game("e", n, N).off) == [series[t] for t in range(n)]

    def test_int64_overflow_refused(self):
        # 20749510070558481011 jobs, past 2**63 - 1 = 9223372036854775807.
        assert actual_released(100, 4 * 10**18) == 20749510070558481011
        with pytest.raises(ContractViolation, match="20749510070558481011"):
            aggregate_game(2, 100, 4 * 10**18)
        # One step releases N = 5e18 jobs, which fits; 2N machines do not.
        with pytest.raises(ContractViolation, match="10000000000000000000"):
            aggregate_game(2, 1, 5 * 10**18)
        assert aggregate_game(2, 100, 4 * 10**17).released_total == (
            actual_released(100, 4 * 10**17))

    def test_agrees_with_interactive_game(self):
        for n in (4, 31, 100, 200):
            for alpha in (1, 2, "e"):
                agg = aggregate_game(alpha, n)
                tr = play_game(alpha_edf_player(alpha, n), n, rho=None)
                assert [s["online"] for s in tr.steps] == list(agg.online)
                assert [s["off"] for s in tr.steps] == list(agg.off)
                assert tr.released_total == agg.released_total
                assert tr.scheduled_total == agg.processed_total
                assert tr.missed == agg.missed
                assert tr.cost == agg.cost

    def test_agrees_with_stop_rule(self):
        for alpha in (1, 2, "e"):
            agg = aggregate_game(alpha, 50, rho="e")
            tr = play_game(alpha_edf_player(alpha, 50), 50, rho="e")
            assert tr.stopped_at == agg.stopped_at
            assert tr.released_total == agg.released_total

    def test_e_scale_thousand_no_miss(self):
        g = aggregate_game("e", 1000)
        assert not g.missed
        assert g.cost == 2718282
        assert g.released_total == g.processed_total == 7485017

    def test_alpha_one_hundred_misses(self):
        g = aggregate_game(1, 100)
        assert g.missed
        assert g.released_total == 51834
        assert g.processed_total == 26480

    def test_alpha_two_thousand_misses(self):
        g = aggregate_game(2, 1000)
        assert g.missed
        assert g.processed_total == 6981578

    def test_forcing_stop_small(self):
        # alpha=1, n=4, N=16: releases 4, 5, 8, 16 and OFF = online = 1, 3,
        # 5, 16 give backlog 3, 5, 8, 8.  Stopping after t=2 leaves 8 jobs
        # for one step on 5 machines; no earlier stop leaves too many.
        g = aggregate_game(1, 4, 16)
        assert list(g.backlog) == [3, 5, 8, 8]
        assert g.forcing_stop() == 2
        assert aggregate_game("e", 1000).forcing_stop() is None

    def test_empty_steps_release_nothing(self):
        # N < n - t for t < 7: those steps release nothing and OFF stays 0.
        g = aggregate_game(1, 10, 3)
        assert list(g.a) == [0] * 7 + [1, 1, 3]
        assert list(g.off) == [0] * 7 + [1, 1, 3]
        tr = play_game(alpha_edf_player(1, 10), 10, 3, rho=None)
        assert [s["off"] for s in tr.steps] == list(g.off)

    def test_stop_takes_effect_at_the_next_step(self):
        g = aggregate_game(2, 6, 36, rho=2)
        assert g.stopped_at == 0
        assert list(g.a) == [6, 0, 0, 0, 0, 0]

    def test_int64_precheck_is_exact_at_e(self):
        # e * 403978495031 lies about 1.2e-13 above an integer, where the
        # game refuses to round; the overflow check must not round it.  The
        # game stops at t = 0 and never rents for OFF = N.
        g = aggregate_game("e", 2, 403978495031, rho="e")
        assert g.stopped_at == 0
        with pytest.raises(ContractViolation, match="within 1e-12"):
            aggregate_game("e", 1, 403978495031)

    def test_summary_fields(self):
        s = aggregate_game(2, 100).summary()
        for key in ("alpha", "n", "N", "missed", "cost", "off_final", "ratio"):
            assert key in s

    def test_backlog_beyond_int64_sums_matches_loop(self):
        # 100 steps renting up to 8e17 machines each sum past 2**63 - 1, so
        # the backlog's prefix sums run in Python ints.
        for alpha, N in ((2, 4 * 10**17), ("e", 10**12), (1, 3)):
            g = aggregate_game(alpha, 100, N)
            assert g.backlog.tolist() == reference_backlog(g)
            assert g.forcing_stop() == reference_forcing_stop(g)


def reference_off_series(n, counts):
    """The hull loop _off_series ran before its closed form: one deadline-n
    hull row per releasing step, queried at the running release count."""
    hull = DeadlineHull(n)
    released = 0
    out = []
    for t, a in enumerate(counts):
        if a:
            hull.add(t, released)
            released += a
        out.append(hull.query_ceil(released) if released else 0)
    return out


@st.composite
def nondecreasing_streams(draw):
    """``(n, counts)``: a prefix of the paper's stream, with ``N`` from 0 to
    past ``n^3`` and past int64 (Python-int counts), or any sorted series."""
    n = draw(st.integers(1, 400))
    last = draw(st.one_of(st.just(n - 1), st.integers(-1, n - 1)))
    if draw(st.booleans()):
        N = draw(st.one_of(st.integers(0, n), st.integers(0, 2 * n ** 3),
                           st.integers(2**62, 2**80)))
        return n, AdversaryState(n=n, N=N).counts(last)
    counts = sorted(draw(st.lists(st.integers(0, 10**6), max_size=last + 1)))
    return n, np.array(counts, dtype=np.int64)


class TestOffSeries:
    @settings(max_examples=300)
    @given(nondecreasing_streams())
    @example((1, np.array([0])))
    @example((3, np.array([0, 0, 0])))
    @example((100, AdversaryState(n=100, N=10**30).counts()))
    @example((150, AdversaryState(n=150, N=2**70 + 3).counts()))
    def test_matches_reference_hull_loop(self, stream):
        n, counts = stream
        off = _off_series(n, counts)
        counts = counts.tolist()
        assert off.tolist() == reference_off_series(n, counts)
        # Python ints exactly when the largest sum formed, the last
        # P_s + a_s (n - s), does not fit an int64.
        wide = bool(counts) and sum(counts) + counts[-1] * (n - len(counts)) > 2**63 - 1
        assert off.dtype == (object if wide else np.int64)

    @pytest.mark.parametrize("N", [None, 0, 1, 5, 2**64 + 3])
    def test_widths_past_int64(self, N):
        n = 2**64
        N = resolve_stream(n, N)
        counts = AdversaryState(n=n, N=N).counts(5)
        off = _off_series(n, counts)
        assert off.tolist() == reference_off_series(n, counts.tolist())
        assert [(row.tstar, row.off) for row in scaling_bound_report(n, N, 5)] \
            == list(enumerate(off.tolist()))

    @pytest.mark.parametrize("n, counts", [
        (5, [1, 3, 2]), (3, [0, 0, 0, 0]), (4, [-1, 0]),
        (3, np.array([2**70, 2**69], dtype=object))])
    def test_refuses_what_is_not_a_stream(self, n, counts):
        with pytest.raises(ContractViolation, match="nondecreasing"):
            _off_series(n, np.asarray(counts))

    def test_stream_consumers_agree_with_job_level_engine(self):
        # Both consumers read the closed form, so the cross-check is the
        # oracle's IncrementalOff over the jobs themselves.
        n, N = 100, 10**3
        jobs = adversary_instance(n, N).jobs
        series = off_prefix_series(jobs)
        assert [r.off for r in scaling_bound_report(n, N)] == [
            series[t] for t in range(n)]

        class Renter:
            """Rents t^2 machines at step t and runs nothing: the ratio
            to OFF first reaches rho = 300 in mid-stream."""
            def step(self, t, released):
                return t * t, []

        tr = play_game(Renter(), n, N, rho=300)
        assert tr.stopped_at == 39
        released = off_prefix_series([job for job in jobs if job.r <= 39])
        assert [s["off"] for s in tr.steps] == [
            released[min(t, 39)] for t in range(n)]


def reference_backlog(g):
    """The per-step backlog loop aggregate_game ran before its prefix sums."""
    out, level = [], 0
    for a, online in zip(g.a.tolist(), g.online.tolist()):
        level = max(0, level + a - online)
        out.append(level)
    return out


def reference_forcing_stop(g):
    """The loop forcing_stop ran before it was vectorized: Python products."""
    for tau, (backlog, online) in enumerate(
            zip(g.backlog.tolist(), g.online.tolist())):
        if backlog > (g.n - 1 - tau) * online:
            return tau
    return None


def reference_released(n, N):
    """The stream's total as the per-step loop over ``count(t)`` gave it."""
    state = AdversaryState(n=n, N=N)
    return sum(state.count(t) for t in range(n))


class TestActualReleased:
    @settings(max_examples=300)
    @given(st.integers(1, 300),
           st.one_of(st.integers(0, 10**6), st.integers(0, 2**64),
                     st.integers(2**63 - 10**4, 2**63 + 10**4)))
    @example(2 * _SUM_CHUNK + 3, 10**12)
    @example(2 * _SUM_CHUNK + 3, 2**63 + 7)
    @example(1, 2**63 - 1)
    def test_matches_per_step_loop(self, n, N):
        assert actual_released(n, N) == reference_released(n, N)

    def test_wide_total_holds_no_python_int_per_step(self):
        # N past int64: the counts are Python ints, summed by the chunk,
        # so the peak stays below two int64 columns of n
        n = 400_000
        total = reference_released(n, 10**19)
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolation, match=f"releases {total} jobs"):
                aggregate_game("e", n, 10**19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * n

    @pytest.mark.parametrize("call", [
        lambda n, N: aggregate_game("e", n, N),
        lambda n, N: play_game(alpha_edf_player("e", 4), n, N),
        lambda n, N: scaling_bound_report(n, N),
        actual_released,
        adversary_instance,
    ])
    @pytest.mark.parametrize("n, N", [(2**62, None), (2**62, 1), (2**63 - 1, 0)])
    def test_steps_numpy_will_not_hold_are_refused(self, call, n, N):
        # numpy refuses 2**62 steps before allocating any; near 2**63
        # np.arange alone would return an empty array instead
        with pytest.raises(ContractViolation,
                           match=f"^{n} steps do not fit in memory as "):
            call(n, N)

    def test_wide_counts_are_refused_as_python_ints(self):
        with pytest.raises(ContractViolation, match=f"^{2**62} steps do not "
                           "fit in memory as Python ints$"):
            AdversaryState(n=2**62, N=2**70).counts()


class TestCountingBounds:
    def test_released_lower_closed_form(self):
        cb = counting_bounds(4, 16)
        assert cb.released_lower == pytest.approx(16 * math.log(4) - 3,
                                                  abs=1e-9)
        assert cb.released_lower == pytest.approx(19.18070977791825, abs=1e-9)

    def test_processed_upper_frozen(self):
        # (alpha/e) N (ln(n-1) + 1) + alpha N + (alpha+1)(n-1) + 1 at
        # n=4, N=16, alpha=2.5:
        #   2.5/e = 0.9196986029286058, times 16 = 14.715177646857693
        #   ln 3 + 1 = 2.0986122886681097
        #   14.715177646857693 * 2.0986122886681097 = 30.88145263963
        #   30.88145263963 + 2.5*16 + 3.5*3 + 1 = 30.88145263963 + 51.5
        cb = counting_bounds(4, 16, 2.5)
        assert cb.processed_upper == pytest.approx(82.38145263963, abs=1e-9)

    def test_processed_upper_bounds_the_game(self):
        for alpha in (1, 1.5, 2, 2.5, 2.7, "e"):
            for n in (1, 2, 4, 31, 100, 1000):
                for rho in (None, "e"):
                    g = aggregate_game(alpha, n, rho=rho)
                    cb = counting_bounds(n, g.N, alpha)
                    assert g.processed_total <= cb.processed_upper, (alpha, n)

    def test_actual_release_exceeds_lower_bound(self):
        assert actual_released(4, 16) == 33
        for n in (4, 10, 100, 1000):
            assert actual_released(n) >= counting_bounds(n).released_lower

    def test_crossover_values(self):
        # With N = n*n the deficit is
        #   n^2 (ln n - (alpha/e)(ln(n-1) + 1) - alpha) - (alpha+2)(n-1) - 1,
        # whose sign turns where ln n ~ (alpha + alpha/e) / (1 - alpha/e).
        # alpha = 2: ln n ~ 2.735759 / 0.264241 = 10.3533, n ~ 31359; exactly
        #   n = 31371: released 10189395373.94 - processed 10189401026.31 < 0
        #   n = 31372: released 10190076363.83 - processed 10190073723.38 > 0
        # alpha = 1:
        #   n = 12: 144 ln 12 - 11 = 346.827 < 52.975 * (ln 11 + 1) + 167
        #           = 347.002
        #   n = 13: 169 ln 13 - 12 = 421.476 > 62.172 * (ln 12 + 1) + 194
        #           = 410.662
        # alpha = 2.5: ln n ~ 3.419699 / 0.080301 = 42.5858, n ~ 3.12e18.
        assert crossover_n(2) == 31372
        assert crossover_n(1) == 13
        assert 3.1e18 < crossover_n(2.5) < 3.2e18
        assert crossover_n("e") is None

    def test_crossover_beyond_search_range_raises(self):
        # alpha = 2.7: ln n ~ 3.693 / 0.00675 = 547, n ~ 10^237 > 2^500.
        with pytest.raises(OverflowError):
            crossover_n(2.7)

    def test_deficit_positive_past_crossover(self):
        for alpha in (2, 2.5):
            n = crossover_n(alpha)
            assert counting_bounds(n, alpha=alpha).deficit > 0
            assert counting_bounds(n - 1, alpha=alpha).deficit <= 0


class TestOfflineWitness:
    def test_tiny_feasible(self):
        w = offline_witness(4, 16, 0)
        assert w.m == 2
        assert w.feasible
        assert w.jobs_total == 4

    def test_tiny_infeasible(self):
        w = offline_witness(4, 16, 1)
        assert w.m == 2
        assert not w.feasible
        assert w.jobs_total == 9

    def test_midrange_feasible(self):
        w = offline_witness(100, 10**4, 50)
        assert w.m == 74
        assert w.feasible
        assert w.jobs_total == 7058

    def test_schedule_respects_machine_budget(self):
        w = offline_witness(20, 400, 10)
        per_slot = {}
        for jid, machine, start in w.schedule.assignments:
            per_slot.setdefault(start, []).append(machine)
        assert all(len(ms) <= w.m for ms in per_slot.values())

    def test_bad_tstar_rejected(self):
        with pytest.raises(ContractViolation):
            offline_witness(4, 16, 4)


def reference_offline_witness(n, N, tstar):
    """The FIFO backlog loop offline_witness ran before it used EDF."""
    m = -(-(N * EULER.denominator) // (EULER.numerator * (n - tstar)))
    schedule = Schedule()
    backlog = []
    next_id = 0
    total = 0
    for t in range(n):
        if t <= tstar:
            count = N // (n - t)
            backlog.extend(range(next_id, next_id + count))
            next_id += count
            total += count
        quota = min(m, len(backlog))
        for machine in range(quota):
            schedule.assignments.append((backlog[machine], machine, t))
        del backlog[:quota]
    schedule.misses = backlog
    return m, schedule.assignments, schedule.misses, not backlog, total


@st.composite
def witness_params(draw):
    n = draw(st.integers(1, 40))
    return n, draw(st.integers(0, 3 * n * n)), draw(st.integers(0, n - 1))


@given(witness_params())
def test_offline_witness_matches_reference_loop(params):
    w = offline_witness(*params)
    assert (w.m, w.schedule.assignments, w.schedule.misses, w.feasible,
            w.jobs_total) == reference_offline_witness(*params)


class TestResolveStream:
    def test_default_and_explicit(self):
        assert resolve_stream(7) == 49
        assert resolve_stream(7, 0) == 0
        assert resolve_stream(1, 5) == 5

    def test_numpy_integers_read_as_ints(self):
        n = np.int64(2**32)
        assert resolve_stream(n) == 2**64
        assert type(resolve_stream(np.int64(3), np.uint8(7))) is int

    @pytest.mark.parametrize("call", [
        lambda n, N: play_game(alpha_edf_player("e", 4), n, N),
        lambda n, N: aggregate_game("e", n, N),
        lambda n, N: counting_bounds(n, N),
        actual_released,
        scaling_bound_report,
        adversary_instance,
        lambda n, N: offline_witness(n, N, 0),
    ])
    @pytest.mark.parametrize("n, N, message", [
        (0, None, "need n >= 1"), (-3, 9, "need n >= 1"),
        (4, -1, "need N >= 0"),
        # each was truncated, read as 1, or ended in numpy's TypeError
        (150.5, None, "n must be an integer, got 150.5"),
        (150.0, None, "n must be an integer, got 150.0"),
        (True, None, "n must be an integer, got True"),
        ("5", 9, "n must be an integer, got '5'"),
        (4, 2.5, "N must be an integer, got 2.5"),
        (4, True, "N must be an integer, got True")])
    def test_every_stream_entry_point_rejects(self, call, n, N, message):
        with pytest.raises(ContractViolation, match=message):
            call(n, N)

    def test_player_for_a_non_integer_deadline_refused(self):
        # built a player for deadline 20
        with pytest.raises(ContractViolation, match="deadline must be an integer"):
            alpha_edf_player("e", 20.5)


def quadratic_envelope_off(n, N, t_max):
    """The O(n^2) scan the report used before its hull: every window [s, n)."""
    A = [0]
    for t in range(n):
        A.append(A[-1] + N // (n - t))
    return [max(-(-(A[tstar + 1] - A[s]) // (n - s)) for s in range(tstar + 1))
            for tstar in range(min(t_max, n - 1) + 1)]


class TestScalingBoundReport:
    @given(st.integers(1, 60), st.integers(0, 10**6), st.integers(-1, 70))
    def test_off_column_matches_quadratic_scan(self, n, N, t_max):
        rows = scaling_bound_report(n, N, t_max)
        assert [r.off for r in rows] == quadratic_envelope_off(n, N, t_max)
        assert [r.tstar for r in rows] == list(range(min(t_max, n - 1) + 1))

    def test_frozen_window(self):
        rows = scaling_bound_report(100, 10**4, t_max=60)
        frozen = {54: (79, 80), 55: (82, 82), 56: (84, 84), 57: (86, 86),
                  58: (89, 88), 59: (91, 90), 60: (94, 92)}
        for tstar, (off, bound) in frozen.items():
            row = rows[tstar]
            assert (row.off, row.bound) == (off, bound)
            assert row.holds == (off <= bound)

    def test_clean_prefix(self):
        rows = scaling_bound_report(100, 10**4, t_max=57)
        assert all(r.holds for r in rows)

    def test_off_column_is_true_optimum(self):
        inst = adversary_instance(12)
        rows = scaling_bound_report(12)
        assert [r.off for r in rows] == [
            off_unit([j for j in inst.jobs if j.r <= t]) for t in range(12)]


# One stream, pinned: sha256 digests of every stream consumer's output on a
# fixed corpus, recorded from the release before the stream had one source.
# N in {0, 1, 5} with n > 5 includes steps with N < n - t that release nothing.
STREAM_RHOS = (None, "e", 2)


def stream_Ns(n):
    return (0, 1, 5, n, n * n, 3 * n * n + 7)


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes)
                 else json.dumps(chunk, sort_keys=True).encode())
    return h.hexdigest()


AGGREGATE_DIGESTS = {
    "e": "4a07e0b18481db333838b1cbd314249d9bf4c7eab6849dc2647229c2fcf28feb",
    1: "6df395e500aca8556f102f71e87d1d00ae71a1f43bd5e9db3d35c4e27b154cfc",
    2: "71934f5b0910e44715678a526a0b43c37f9ea315dd1ab7ca82fff6c2d8b02354",
    Fraction(5, 2):
        "efea3fd5a80b2fdb80905bd303d16a2d38e1fc365a586e50f7b79973f8c06c6b",
    Fraction(1, 2):
        "bc1a39bafbe25f2baddaa39b9ce3e5f75b69b41efa6f2857db01ac5db84312b0",
}

PLAY_DIGESTS = {
    "e": "dd831ed1aa8541757d825380f9742fddf3694c4dd26d0e16e5a3764e83cc3541",
    1: "dc8e23997afcfcb4bc384f57acad5d08fac14b7e599a4f41ba4fa3a9fb085c83",
    2: "a5f5d5012994ad55c2f335047b37ae90f944c89622970f5de5828ce5d3642417",
    Fraction(1, 2):
        "f92bad34e0fb577f3bc7a8071ca786028047f236a375401cb2e3a88c7a3d15d2",
}


@pytest.mark.parametrize("alpha", list(AGGREGATE_DIGESTS), ids=str)
def test_aggregate_game_digest(alpha):
    def chunks():
        for n in (1, 2, 3, 7, 31, 100, 400):
            for N in stream_Ns(n):
                for rho in STREAM_RHOS:
                    g = aggregate_game(alpha, n, N, rho)
                    yield [g.summary(), g.stopped_at]
                    for series in (g.a, g.off, g.online, g.backlog):
                        yield series.tobytes()
    assert _sha(chunks()) == AGGREGATE_DIGESTS[alpha]


@pytest.mark.parametrize("alpha", list(PLAY_DIGESTS), ids=str)
def test_play_game_digest(alpha):
    def chunks():
        for n in (1, 2, 5, 17, 60):
            for N in (0, 3, n, n * n):
                for rho in STREAM_RHOS:
                    player = alpha_edf_player(alpha, n)
                    yield play_game(player, n, N, rho).to_jsonable()
    assert _sha(chunks()) == PLAY_DIGESTS[alpha]


def test_scaling_bound_report_digest():
    rows = ([[r.tstar, r.off, r.bound] for r in scaling_bound_report(n, N)]
            for n in (1, 2, 3, 7, 31, 100, 400) for N in stream_Ns(n))
    assert _sha(rows) == (
        "ba020269a01a3783fd0f4cbe57f28a6a3957bebdd8bf5e6105e336cfc939c179")


def test_offline_witness_digest():
    def chunks():
        for n in (1, 2, 3, 7, 31):
            for N in stream_Ns(n):
                for tstar in sorted({0, n // 2, n - 1}):
                    w = offline_witness(n, N, tstar)
                    yield [w.m, w.schedule.assignments, w.schedule.misses,
                           w.feasible, w.jobs_total]
    assert _sha(chunks()) == (
        "19467b61660ace7ce84b5fca3ea4f092516da0c369b4a0fa4e649c080e6c40dc")


def test_forcing_stop_matches_loop_on_aggregate_corpus():
    for alpha in AGGREGATE_DIGESTS:
        for n in (1, 2, 3, 7, 31, 100, 400):
            for N in stream_Ns(n):
                for rho in STREAM_RHOS:
                    g = aggregate_game(alpha, n, N, rho)
                    assert g.forcing_stop() == reference_forcing_stop(g)


def test_offline_witness_digest_large():
    # Recorded before the witness ran on column blocks and deadline buckets.
    def chunks():
        for n in (50, 150, 400):
            for N in (n, n * n):
                for tstar in (0, n // 3, n // 2, n - 1):
                    w = offline_witness(n, N, tstar)
                    yield [w.m, w.schedule.assignments, w.schedule.misses,
                           w.feasible, w.jobs_total]
    assert _sha(chunks()) == (
        "cfb1cbb06291821e84d903c66edd0fde9368d43085621391d0f0159462e52b43")


def test_adversary_instance_digest():
    texts = (write_instance(adversary_instance(n, N)).encode()
             for n in (1, 2, 3, 7, 31) for N in stream_Ns(n))
    assert _sha(texts) == (
        "4f3a4c66b870967a1c8c09f8e365e4f9424492640cfbac4fd57b9ee1809e8268")
