"""Model types, validation rules, cost accounting, and JSON round-trips."""
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_equal_deadline import reference_validate_instance
from schedlab.core import (
    MODELS,
    ContractViolation,
    Instance,
    Job,
    MachineProfile,
    ParseError,
    Schedule,
    UnitJobs,
    ValidationError,
    _num_in,
    _num_out,
    audit_schedule,
    feasible_slot,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    require_valid,
    schedule_cost,
    time_grid,
    unit_columns,
    validate_instance,
    write_instance,
)
from schedlab.generators import KINDS, adversary_instance, generate


def rules(instance):
    return [v.rule for v in validate_instance(instance)]


def sample(kind, seed):
    """One small instance of each generator kind, varied by seed."""
    if kind == "adversary":
        return generate(kind, n=3 + seed % 9)
    if kind == "random-unit":
        return generate(kind, seed=seed, jobs=1 + seed % 12, horizon=8)
    if kind == "equal-deadline":
        return generate(kind, seed=seed, kappa=2 + seed % 3, jobs=1 + seed % 10)
    if kind == "throughput":
        return generate(kind, seed=seed, jobs=1 + seed % 12, horizon=6,
                        k=1 + seed % 3)
    return generate(kind, k=1 + seed % 4, levels=1 + seed % 5)


class TestUnitJobs:
    def test_rows_are_built_once_and_only_when_read(self):
        jobs = UnitJobs([4, 2, 9], [0, 1, 1], [3, 3, 2])
        assert len(jobs) == 3 and jobs._rows is None
        head = jobs[:2]
        assert isinstance(head, UnitJobs) and head.ids.tolist() == [4, 2]
        assert jobs._rows is None
        assert jobs[1] == Job(2, 1, 3)
        assert jobs.rows is jobs.rows
        assert list(jobs) == [Job(4, 0, 3), Job(2, 1, 3), Job(9, 1, 2)]

    def test_equals_the_tuple_of_the_same_jobs(self):
        jobs = UnitJobs([0, 1], [0, 0], [2, 2])
        rows = (Job(0, 0, 2), Job(1, 0, 2))
        assert jobs == rows and rows == jobs and jobs == list(rows)
        assert jobs != rows[:1] and jobs != UnitJobs([0, 1], [0, 0], [2, 3])
        assert hash(jobs) == hash(rows)

    def test_column_instance_equals_tuple_instance(self):
        inst = adversary_instance(5)
        assert isinstance(inst.jobs, UnitJobs)
        rows = Instance.of("unit-min", list(inst.jobs))
        assert inst == rows and rows == inst
        assert read_instance(write_instance(inst)) == inst

    def test_groups_by_deadline_in_id_order(self):
        jobs = UnitJobs([4, 2, 9, 1], [1, 1, 1, 1], [5, 3, 5, 5])
        assert jobs.by_deadline() == [(3, [2]), (5, [1, 4, 9])]
        assert UnitJobs([], [], []).by_deadline() == []

    def test_conversion_keeps_order_and_refuses_other_jobs(self):
        jobs = unit_columns([Job(3, 1, 4), Job(1, 0, 2, w=5)])
        assert (jobs.ids.tolist(), jobs.r.tolist(), jobs.d.tolist()) == (
            [3, 1], [1, 0], [4, 2])
        assert unit_columns(jobs) is jobs
        with pytest.raises(ContractViolation, match="job 7 is not a unit job"):
            unit_columns([Job(0, 0, 4), Job(7, 0, 4, p=2)])
        with pytest.raises(ContractViolation, match="non-integer window"):
            unit_columns([Job(0, Fraction(1, 2), 4)])
        with pytest.raises(ContractViolation, match="int64"):
            unit_columns([Job(2**63, 0, 4)])


_times = st.one_of(st.integers(-3, 12),
                   st.fractions(-2, 12, max_denominator=12),
                   st.sampled_from([Fraction(7), Fraction(1, 3), Fraction(22, 7)]))


@st.composite
def broken_instances(draw):
    """Instances of every model, valid or not: duplicate and negative ids,
    unsorted rows, negative or empty windows, non-unit or non-positive
    lengths, negative weights, stray deadlines, bad horizons and ``k``, and
    unit columns with the same faults."""
    model = draw(st.sampled_from(MODELS + ("nonsense",)))
    horizon = draw(st.one_of(st.none(), st.integers(0, 12)))
    k = draw(st.one_of(st.none(), st.integers(-1, 3)))
    if draw(st.integers(0, 3)) == 0:
        rows = draw(st.lists(st.tuples(st.integers(-2, 9), st.integers(-3, 12),
                                       st.integers(-3, 12)), max_size=8))
        jobs = UnitJobs(*zip(*rows)) if rows else UnitJobs([], [], [])
        return Instance(model, jobs, k=k, horizon=horizon)
    d = draw(_times)
    rows = draw(st.lists(st.builds(
        Job, id=st.integers(-2, 9), r=_times,
        d=st.one_of(st.just(d), _times),
        p=st.one_of(st.just(1), _times),
        w=st.one_of(st.just(1), st.integers(-2, 4),
                    st.fractions(-1, 4, max_denominator=6))), max_size=8))
    if draw(st.booleans()):
        rows.sort(key=lambda j: (j.r, j.id))
    return Instance(model, tuple(rows), k=k, horizon=horizon)


class TestTimeGrid:
    def test_integer_columns_come_back_as_they_are(self):
        col = (3, 0, 7)
        scale, (out,) = time_grid(col)
        assert scale == 1 and out is col

    def test_common_denominator_of_all_columns(self):
        scale, cols = time_grid([Fraction(1, 3), 2], [Fraction(22, 7)], [7])
        assert scale == 21
        assert cols == [[7, 42], [66], [147]]

    def test_integral_fractions_keep_the_grid_at_one(self):
        assert time_grid([Fraction(7), 3], [Fraction(4, 2)]) == (1, [[7, 3], [2]])


class TestValidation:
    def test_window_too_small(self):
        inst = Instance.of("unit-min", [Job(0, 3, 3)], horizon=3)
        assert "WindowTooSmall" in rules(inst)

    def test_non_positive_length(self):
        inst = Instance.of("equal-deadline", [Job(0, 0, 3, p=0)])
        assert "NonPositiveLength" in rules(inst)

    def test_two_unit_jobs_ok(self):
        inst = Instance.of("unit-min", [Job(0, 0, 2), Job(1, 1, 3)], horizon=3)
        assert validate_instance(inst) == []

    def test_duplicate_id(self):
        inst = Instance.of("unit-min", [Job(7, 0, 2), Job(7, 0, 2)], horizon=2)
        assert "DuplicateId" in rules(inst)

    def test_unsorted_jobs(self):
        inst = Instance(model="unit-min",
                        jobs=(Job(0, 1, 3), Job(1, 0, 2)),
                        k=None, horizon=3)
        assert "UnsortedJobs" in rules(inst)

    def test_negative_release(self):
        inst = Instance.of("unit-min", [Job(0, -1, 2)], horizon=2)
        assert "NegativeRelease" in rules(inst)

    def test_negative_weight(self):
        inst = Instance.of("throughput", [Job(0, 0, 1, w=-2)], k=1)
        assert "NegativeWeight" in rules(inst)

    def test_non_unit_length_in_unit_model(self):
        inst = Instance.of("unit-min", [Job(0, 0, 4, p=2)], horizon=4)
        assert "NonUnitLength" in rules(inst)

    def test_non_integer_time_in_unit_model(self):
        inst = Instance.of("unit-min", [Job(0, Fraction(1, 2), 2)], horizon=2)
        assert "NonIntegerTime" in rules(inst)

    def test_horizon_mismatch(self):
        inst = Instance.of("unit-min", [Job(0, 0, 2)], horizon=5)
        assert "HorizonMismatch" in rules(inst)

    def test_unequal_deadlines(self):
        inst = Instance.of(
            "equal-deadline", [Job(0, 0, 3), Job(1, 0, 7)])
        assert "UnequalDeadlines" in rules(inst)

    def test_common_deadline_must_be_power_of_two_minus_one(self):
        good = Instance.of("equal-deadline", [Job(0, 0, 7, p=2)])
        assert validate_instance(good) == []
        bad = Instance.of("equal-deadline", [Job(0, 0, 6, p=2)])
        assert "BadCommonDeadline" in rules(bad)

    def test_throughput_needs_machine_count(self):
        inst = Instance.of("throughput", [Job(0, 0, 1)])
        assert "BadMachineCount" in rules(inst)

    def test_bad_model(self):
        inst = Instance.of("unit-min", [Job(0, 0, 1)], horizon=1)
        inst = Instance(model="nonsense", jobs=inst.jobs, k=None, horizon=None)
        assert rules(inst) == ["BadModel"]

    @settings(max_examples=200)
    @given(broken_instances())
    @example(Instance("equal-deadline", (Job(0, 0, Fraction(7), p=1),
                                         Job(1, Fraction(1, 3), 7, p=Fraction(20, 3)),
                                         Job(2, Fraction(1, 3), 7, p=Fraction(22, 7)))))
    @example(Instance("unit-min", UnitJobs([2, 2, 0], [3, -1, 0], [3, 0, 9]),
                      horizon=4))
    def test_matches_row_reference(self, inst):
        assert validate_instance(inst) == reference_validate_instance(inst)

    def test_require_valid_raises_with_rule_names(self):
        inst = Instance.of("unit-min", [Job(0, 3, 3)], horizon=3)
        with pytest.raises(ValidationError) as err:
            require_valid(inst)
        assert "WindowTooSmall" in str(err.value)


class TestFeasibleSlot:
    def test_first_slot(self):
        assert feasible_slot(Job(0, 0, 1), 0)

    def test_completion_convention_excludes_deadline_slot(self):
        assert not feasible_slot(Job(0, 0, 1), 1)

    def test_interior_slot(self):
        assert feasible_slot(Job(0, 2, 5), 4)

    def test_non_unit_job_rejected(self):
        with pytest.raises(ContractViolation):
            feasible_slot(Job(0, 0, 4, p=2), 0)

    @given(st.integers(0, 20), st.integers(1, 20), st.integers(-5, 30))
    def test_true_set_is_window_interval(self, r, span, t):
        job = Job(0, r, r + span)
        assert feasible_slot(job, t) == (r <= t <= r + span - 1)


class TestSchedule:
    def test_slots_build_the_same_triples_on_first_read(self):
        slots = [[4, 1], [], [0]]
        lazy = Schedule.from_slots(slots, [3])
        eager = Schedule([(4, 0, 0), (1, 1, 0), (0, 0, 2)], [3])
        assert lazy == eager and eager == lazy
        assert lazy.assignments == eager.assignments
        assert repr(lazy) == repr(eager)
        assert lazy != Schedule.from_slots([[1, 4], [], [0]], [3])
        lazy.assignments = []
        assert lazy == Schedule([], [3])


class TestScheduleCost:
    def test_empty(self):
        assert schedule_cost(Schedule([], [])) == 0

    def test_three_parallel_unit_jobs(self):
        sched = Schedule([(0, 0, 0), (1, 1, 0), (2, 2, 0)], [])
        assert schedule_cost(sched) == 3

    def test_sequential_reuse_counts_once(self):
        sched = Schedule([(0, 0, 0), (1, 0, 1)], [])
        assert schedule_cost(sched) == 1

    def test_reopened_machine_ids_do_not_inflate_cost(self):
        jobs = {0: Job(0, 0, 10, p=2), 1: Job(1, 4, 10, p=2)}
        sched = Schedule([(0, 3, 0), (1, 3, 6)], [])
        assert schedule_cost(sched, jobs) == 1

    def test_overlap_on_one_machine_rejected(self):
        jobs = {0: Job(0, 0, 4, p=2), 1: Job(1, 0, 4, p=2)}
        sched = Schedule([(0, 0, 0), (1, 0, 1)], [])
        with pytest.raises(ContractViolation):
            schedule_cost(sched, jobs)


class TestMachineProfile:
    def test_constant(self):
        prof = MachineProfile.constant(2, 3)
        assert [prof.at(t) for t in range(4)] == [2, 2, 2, 0]

    def test_absent_steps_are_zero(self):
        prof = MachineProfile.from_series([1, 4])
        assert prof.at(7) == 0

    def test_capacity_between(self):
        prof = MachineProfile.from_series([1, 2, 3])
        assert prof.capacity_between(0, 3) == 6
        assert prof.capacity_between(1, 2) == 2


class TestAuditSchedule:
    def test_clean_schedule_passes(self):
        inst = Instance.of("unit-min", [Job(0, 0, 2), Job(1, 0, 2)], horizon=2)
        sched = Schedule([(0, 0, 0), (1, 0, 1)], [])
        assert audit_schedule(sched, inst) == []

    def test_start_before_release_flagged(self):
        inst = Instance.of("unit-min", [Job(0, 1, 3)], horizon=3)
        sched = Schedule([(0, 0, 0)], [])
        assert audit_schedule(sched, inst)

    def test_finish_after_deadline_flagged(self):
        inst = Instance.of("unit-min", [Job(0, 0, 2)], horizon=2)
        sched = Schedule([(0, 0, 2)], [])
        assert audit_schedule(sched, inst)


class TestJson:
    def test_one_job_round_trip(self):
        inst = Instance.of("unit-min", [Job(0, 0, 2)], horizon=2)
        assert read_instance(write_instance(inst)) == inst

    def test_missing_model_is_parse_error(self):
        with pytest.raises(ParseError):
            read_instance('{"jobs": []}')

    def test_missing_job_field_names_the_job(self):
        doc = {"model": "unit-min", "horizon": 1,
               "jobs": [{"id": 0, "d": 1}]}
        with pytest.raises(ParseError) as err:
            instance_from_dict(doc)
        assert "jobs[0]" in str(err.value)

    def test_duplicate_id_is_validation_error(self):
        doc = {"model": "unit-min", "horizon": 2,
               "jobs": [{"id": 3, "r": 0, "d": 2}, {"id": 3, "r": 0, "d": 2}]}
        with pytest.raises(ValidationError):
            instance_from_dict(doc)

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            read_instance("{not json")

    def test_rationals_encode_as_exact_decimal_strings(self):
        inst = Instance.of(
            "equal-deadline", [Job(0, Fraction(1, 2), 3, p=Fraction(5, 4))])
        doc = instance_to_dict(inst)
        assert doc["jobs"][0]["r"] == "0.5"
        assert doc["jobs"][0]["p"] == "1.25"
        assert read_instance(write_instance(inst)) == inst

    def test_non_decimal_rationals_encode_as_fraction_strings(self):
        text = json.dumps({"model": "equal-deadline", "jobs": [
            {"id": 0, "r": 0, "d": 7, "p": "1/3"},
            {"id": 1, "r": "2/7", "d": 7, "p": "2.5"}]})
        inst = read_instance(text)
        assert inst.jobs[0].p == Fraction(1, 3)
        doc = instance_to_dict(inst)
        assert doc["jobs"][0]["p"] == "1/3"
        assert doc["jobs"][1]["r"] == "2/7"
        assert doc["jobs"][1]["p"] == "2.5"
        assert read_instance(write_instance(inst)) == inst
        assert write_instance(read_instance(write_instance(inst))) == write_instance(inst)

    def test_ints_are_written_as_they_are(self):
        big = 10**30 + 1
        assert _num_out(big) is big
        assert _num_out(True) == 1 and type(_num_out(True)) is int
        assert _num_out(Fraction(6, 2)) == 3 and type(_num_out(Fraction(6, 2))) is int

    @given(st.fractions())
    def test_number_encoding_round_trips(self, value):
        out = _num_out(value)
        assert _num_in(out, "x") == value
        den = value.denominator
        while den % 2 == 0:
            den //= 2
        while den % 5 == 0:
            den //= 5
        if value.denominator == 1:
            assert out == int(value)
        elif den == 1:
            assert re.fullmatch(r"-?(0|[1-9][0-9]*)\.[0-9]*[1-9]", out)
        else:
            assert out == f"{value.numerator}/{value.denominator}"

    def test_unsorted_document_is_normalized(self):
        doc = {"model": "unit-min", "horizon": 3,
               "jobs": [{"id": 1, "r": 1, "d": 3}, {"id": 0, "r": 0, "d": 2}]}
        inst = instance_from_dict(doc)
        assert [j.id for j in inst.jobs] == [0, 1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_generated_instances_validate(self, kind):
        for seed in range(5):
            inst = sample(kind, seed)
            assert validate_instance(inst) == reference_validate_instance(inst) == []

    def test_thousand_instance_round_trip(self):
        count = 0
        for seed in range(200):
            for kind in KINDS:
                inst = sample(kind, seed)
                assert read_instance(write_instance(inst)) == inst
                count += 1
        assert count == 1000
