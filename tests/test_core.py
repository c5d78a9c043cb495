"""Model types, validation rules, cost accounting, and JSON round-trips."""
import dataclasses
import enum
import hashlib
import json
import random
import re
import sys
from collections import OrderedDict
from fractions import Fraction
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_equal_deadline import reference_validate_instance
from reference_instance import reference_instance_from_dict
from schedlab.core import (
    INT64_MAX,
    MODELS,
    ContractViolation,
    GridJobs,
    Instance,
    Job,
    MachineProfile,
    ParseError,
    Schedule,
    UnitJobs,
    ValidationError,
    _decimal_column,
    _decimal_parts,
    _num_in,
    _num_out,
    _quotient_out,
    _quotients_out,
    audit_schedule,
    dump_json,
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
from schedlab.generators import (KINDS, _draws, adversary_instance, equal_deadline_instance,
                                 generate, random_unit_instance, throughput_instance)


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
    def test_rows_are_built_when_asked(self):
        jobs = UnitJobs([4, 2, 9], [0, 1, 1], [3, 3, 2])
        head = jobs[:2]
        assert isinstance(head, UnitJobs) and head.ids.tolist() == [4, 2]
        picked = jobs[np.array([2, 0])]
        assert isinstance(picked, UnitJobs) and picked.ids.tolist() == [9, 4]
        assert jobs[jobs.d == 3].ids.tolist() == [4, 2]
        assert jobs[1] == Job(2, 1, 3) and jobs[-1] == Job(9, 1, 2)
        assert type(jobs[0].id) is int
        assert list(jobs) == [Job(4, 0, 3), Job(2, 1, 3), Job(9, 1, 2)]
        with pytest.raises(IndexError):
            jobs[3]

    def test_equal_when_the_columns_are(self):
        jobs = UnitJobs([0, 1], [0, 0], [2, 2])
        assert jobs == UnitJobs(np.arange(2), [0, 0], [2, 2])
        assert jobs != UnitJobs([0, 1], [0, 0], [2, 3])
        assert jobs != tuple(jobs)

    def test_column_instance_writes_as_rows_do(self):
        inst = adversary_instance(5)
        assert isinstance(inst.jobs, UnitJobs)
        rows = Instance.of("unit-min", list(inst.jobs))
        assert write_instance(rows) == write_instance(inst)
        assert read_instance(write_instance(rows)) == inst

    @pytest.mark.parametrize("inst", [
        adversary_instance(1), adversary_instance(7),
        random_unit_instance(40, 9, 2), random_unit_instance(0, 3, 0),
        Instance("unit-min", UnitJobs([5, 2], [0, 1], [3, 3]), k=2, horizon=3),
        Instance("unit-min", UnitJobs([], [], [])),
    ], ids=repr)
    def test_column_rows_are_the_json_module_bytes(self, inst):
        assert write_instance(inst) == json.dumps(
            instance_to_dict(inst), indent=1, sort_keys=True) + "\n"

    def test_values_past_int64_are_refused(self):
        with pytest.raises(ContractViolation, match="must fit an int64"):
            UnitJobs([0], [2**63], [2**63 + 1])
        # numpy reads ints on both sides of 2**63 as one float column
        with pytest.raises(ContractViolation, match="must fit an int64"):
            UnitJobs([0, 1], [0, 2**63], [1, 2**63 + 1])
        with pytest.raises(ContractViolation, match="must fit an int64"):
            UnitJobs([0], np.array([2**63], dtype=np.uint64), [1])

    @pytest.mark.parametrize("columns, message", [
        (([0, 1], [0.9, 1.5], [1.2, 2.7]), "job column r holds 0.9, not"),
        (([0], ["1"], [3]), "job column r holds '1', not"),
        (([0], [0], [Fraction(3)]), r"job column d holds Fraction\(3, 1\), not"),
        (([True], [0], [3]), "job column ids holds True, not"),
        (([0], np.array([0.5]), [3]), "job column r holds 0.5, not"),
        # numpy reads a list mixing bools with ints as an int64 column
        (([0, 1], [True, 2], [5, 5]), "job column r holds True, not"),
        (([0, 1], [0, 2], [5, False]), "job column d holds False, not"),
    ])
    def test_values_that_are_not_integers_are_refused(self, columns, message):
        with pytest.raises(ContractViolation, match=message):
            UnitJobs(*columns)

    def test_empty_and_int64_columns_pass_as_they_are(self):
        assert len(UnitJobs([], [], [])) == 0
        ids = np.arange(3)
        assert UnitJobs(ids, ids, ids + 1).ids is ids
        assert UnitJobs(np.arange(2, dtype=np.int32), range(2),
                        [1, 2]).ids.dtype == np.int64

    def test_groups_by_deadline_in_id_order(self):
        jobs = UnitJobs([4, 2, 9, 1], [1, 1, 1, 1], [5, 3, 5, 5])
        assert jobs.by_deadline() == ((3, (2,)), (5, (1, 4, 9)))
        assert UnitJobs([], [], []).by_deadline() == ()

    def test_returned_ids_cannot_change_the_block(self):
        # Ids and groups are converted once per block, so a change to what
        # one caller got would reach every engine that reads the block after.
        jobs = random_unit_instance(5, 4, 1).jobs
        ids, groups = jobs.id_list(), jobs.by_deadline()
        ids.append(99)
        assert jobs.id_list() == jobs.ids.tolist() == ids[:-1]
        with pytest.raises(AttributeError):
            groups[0][1].append(99)
        with pytest.raises(TypeError):
            groups[0] = (0, ())
        assert jobs.by_deadline() == groups
        assert sorted(i for _, run in groups for i in run) == sorted(ids[:-1])

    @given(st.data())
    def test_groups_match_sorted_groupby(self, data):
        # One deadline with ids in or out of order, from 0 to 600 jobs (an
        # adversary block holds about 840 at n = 150), and mixed deadlines.
        ids = data.draw(st.lists(st.integers(0, 10**6), unique=True,
                                 max_size=600), "ids")
        if data.draw(st.booleans(), "sorted"):
            ids.sort()
        pool = data.draw(st.lists(st.integers(1, 10**6), min_size=1,
                                  max_size=3), "deadlines")
        d = [data.draw(st.sampled_from(pool)) for _ in ids]
        jobs = UnitJobs(ids, [0] * len(ids), d)
        expected = tuple((deadline, tuple(i for _, i in run)) for deadline, run
                         in groupby(sorted(zip(d, ids)), key=lambda pair: pair[0]))
        assert jobs.by_deadline() == expected
        assert jobs.id_list() == ids

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
        with pytest.raises(ContractViolation, match="must be ints or Fractions"):
            unit_columns([Job(0, 0.5, 4)])

    def test_grid_columns_narrow_whole_and_name_a_fault(self):
        # over scale 4 the windows are whole and job 3 weighs 1/4
        jobs = unit_columns(GridJobs([3, 1], [4, 0], [16, 8], [4, 4], 4, [1, 6]))
        assert (jobs.ids.tolist(), jobs.r.tolist(), jobs.d.tolist()) == (
            [3, 1], [1, 0], [4, 2])
        with pytest.raises(ContractViolation, match=r"job 7 is not a unit job: p=1/2"):
            unit_columns(GridJobs([0, 7], [0, 0], [8, 8], [2, 1], 2))
        with pytest.raises(ContractViolation,
                           match=r"job 5 has a non-integer window \[1/2, 2\)"):
            unit_columns(GridJobs([5], [1], [4], [2], 2))
        with pytest.raises(ContractViolation, match="int64"):
            unit_columns(GridJobs([0], [2**63], [2**63 + 1], [1]))


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
        grid = time_grid([Job(4, 3, 7, p=2, w=5), Job(1, 0, 7)])
        assert (grid.ids, grid.r, grid.d, grid.p, grid.scale) == (
            (4, 1), (3, 0), (7, 7), (2, 1), 1)
        assert time_grid(grid) is grid

    def test_common_denominator_of_all_columns(self):
        grid = time_grid([Job(0, Fraction(1, 3), 7, p=Fraction(22, 7)),
                          Job(1, 2, 7, p=1)])
        assert grid.scale == 21
        assert (grid.r, grid.d, grid.p) == ((7, 42), (147, 147), (66, 21))

    def test_integral_fractions_keep_the_grid_at_one(self):
        grid = time_grid([Job(0, Fraction(7), 9, p=Fraction(4, 2)), Job(1, 3, 9)])
        assert (grid.r, grid.p, grid.scale) == ((7, 3), (2, 1), 1)

    def test_rows_are_rebuilt_with_their_values(self):
        rows = (Job(0, Fraction(1, 3), 7, p=Fraction(22, 7)), Job(1, 2, 7, p=1))
        grid = time_grid(rows)
        assert tuple(grid) == rows and grid[1] == rows[1]
        assert repr(grid[0]) == (
            "Job(id=0, r=Fraction(1, 3), d=7, p=Fraction(22, 7), w=1)")
        assert grid[1:] == time_grid(rows[1:])
        assert grid[1:].scale == 21

    def test_equality_is_by_value_over_any_scale(self):
        coarse = GridJobs([0], [1], [14], [3], 2)
        assert coarse == GridJobs([0], [5], [70], [15], 10)
        assert coarse != GridJobs([0], [1], [14], [4], 2)
        assert coarse != GridJobs([1], [1], [14], [3], 2)

    def test_malformed_columns_are_refused(self):
        with pytest.raises(ContractViolation, match="differ in length"):
            GridJobs([0, 1], [0], [7], [1])
        with pytest.raises(ContractViolation, match="differ in length"):
            GridJobs([0], [0], [7], [1], 1, [1, 1])
        with pytest.raises(ContractViolation, match="time scale"):
            GridJobs([0], [0], [7], [1], 0)

    def test_weights_are_kept_over_the_scale(self):
        rows = (Job(0, Fraction(1, 2), 3, w=Fraction(5, 3)), Job(1, 1, 3, w=4))
        grid = time_grid(rows)
        assert (grid.w, grid.scale) == ((10, 24), 6)
        assert tuple(grid) == rows and grid[0].w == Fraction(5, 3)
        assert type(grid[1].w) is int and grid[1:] == time_grid(rows[1:])
        assert grid != time_grid((rows[0], rows[1]._replace(w=3)))
        assert GridJobs([0], [0], [7], [2], 2).w == (2,)
        assert GridJobs([0], [0], [7], [2], 2)[0].w == 1


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
    # int64's edge, where r + p would wrap, and values past it
    @example(Instance("equal-deadline", GridJobs(
        [0, 5, 2**63 - 1], [0, 1, 2**63 - 2], [2**63 - 1] * 3,
        [2**63 - 1, 2**63 - 1, 1])))
    @example(Instance("throughput", GridJobs(
        [2**64, 2**63 - 1, 3], [2**63 - 1, 2**63 - 1, 2**64], [2**64, 2**63 - 1, 2**64 + 1],
        [1, 1, 2], 1, [2**64, -1, 0]), k=2**64))
    @example(Instance("unit-min", GridJobs([0], [2**64], [3 * 2**64], [2**64], 2**64),
                      horizon=2))
    def test_matches_row_reference(self, inst):
        assert validate_instance(inst) == reference_validate_instance(inst)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)), max_size=12),
           st.lists(st.tuples(st.sampled_from(["negative", "duplicate", "swap",
                                               "short", "early"]),
                              st.integers(0, 11), st.integers(0, 11)), max_size=3),
           st.sampled_from(["unit-min", "throughput", "equal-deadline"]))
    def test_unit_columns_name_the_faults_rows_name(self, spans, faults, model):
        # a valid sorted block, then planted faults; the column checks must
        # hand every fault to the row loop, whose list the rows give too
        rows = [[jid, r, r + span] for jid, (r, span) in
                enumerate(sorted(spans, key=lambda rs: rs[0]))]
        for fault, i, j in faults if rows else ():
            i, j = i % len(rows), j % len(rows)
            if fault == "negative":
                rows[i][0] = -1 - rows[i][0]
            elif fault == "duplicate":
                rows[i][0] = rows[j][0]
            elif fault == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif fault == "short":
                rows[i][2] = rows[i][1] - j % 2
            else:
                rows[i][1] = -1
        horizon = max((d for _, _, d in rows), default=None)
        columns = UnitJobs(*zip(*rows)) if rows else UnitJobs([], [], [])
        got = validate_instance(Instance(model, columns, horizon=horizon))
        want = validate_instance(Instance(model, tuple(Job(*row) for row in rows),
                                          horizon=horizon))
        assert got == want

    def test_require_valid_raises_with_rule_names(self):
        inst = Instance.of("unit-min", [Job(0, 3, 3)], horizon=3)
        with pytest.raises(ValidationError) as err:
            require_valid(inst)
        assert "WindowTooSmall" in str(err.value)

    @pytest.mark.parametrize("inst, message", [
        (Instance("nonsense", ()), "BadModel[instance]: unknown model 'nonsense'"),
        (Instance("unit-min", UnitJobs([-1], [0], [1]), horizon=1),
         "BadId[job -1]: ids must be non-negative"),
        (Instance.of("unit-min", [Job(7, 0, 2), Job(7, 0, 2)], horizon=2),
         "DuplicateId[job 7]: job id reused"),
        (Instance("unit-min", (Job(0, 1, 3), Job(1, 0, 2)), horizon=3),
         "UnsortedJobs[job 1]: jobs must be sorted by (release, id)"),
        (Instance.of("unit-min", [Job(0, -1, 2)], horizon=2),
         "NegativeRelease[job 0]: r=-1"),
        (Instance("equal-deadline", GridJobs([0], [0], [6], [0], 2)),
         "NonPositiveLength[job 0]: p=0"),
        (Instance.of("throughput", [Job(0, 0, 1, w=Fraction(-1, 2))], k=1),
         "NegativeWeight[job 0]: w=-1/2"),
        (Instance("unit-min", UnitJobs([0], [3], [3]), horizon=3),
         "WindowTooSmall[job 0]: r+p=4 exceeds d=3"),
        (Instance.of("unit-min", [Job(0, 0, 4, p=2)], horizon=4),
         "NonUnitLength[job 0]: p=2"),
        (Instance("throughput", GridJobs([0], [1], [4], [2], 2), k=1),
         "NonIntegerTime[job 0]: r=1/2, d=2 must be integers"),
        (Instance.of("unit-min", [Job(0, 0, 2)], horizon=5),
         "HorizonMismatch[instance]: horizon=5, max deadline=2"),
        (Instance.of("equal-deadline", [Job(0, 0, 3), Job(1, 0, 7)]),
         "UnequalDeadlines[instance]: all deadlines must coincide"),
        (Instance.of("equal-deadline", [Job(0, 0, Fraction(13, 2), p=2)]),
         "BadCommonDeadline[instance]: deadline 13/2 is not of the form 2**k - 1"),
        (Instance.of("throughput", [Job(0, 0, 1)]), "BadMachineCount[instance]: k=None"),
    ], ids=lambda x: x.split("[")[0] if isinstance(x, str) else "")
    def test_each_rule_has_one_message(self, inst, message):
        with pytest.raises(ValidationError) as err:
            require_valid(inst)
        assert str(err.value) == f"invalid instance: {message}"


def _frozen_jobs():
    """Job columns of every origin: generated, read, sliced and narrowed."""
    unit = random_unit_instance(6, 4, seed=1)
    grid = throughput_instance(6, 4, k=2, seed=1)
    phased = equal_deadline_instance(3, 4, seed=1)
    return {
        "generated-unit": unit.jobs,
        "read-unit": read_instance(write_instance(unit)).jobs,
        "unit-slice": unit.jobs[1:],
        "unit-index-array": unit.jobs[np.array([2, 0])],
        "narrowed-grid": unit_columns(grid.jobs),
        "generated-grid": grid.jobs,
        "read-grid": read_instance(write_instance(grid)).jobs,
        "read-equal-deadline": read_instance(write_instance(phased)).jobs,
        "grid-slice": grid.jobs[1:],
    }


class TestCheckedInstances:
    @pytest.fixture
    def validations(self, monkeypatch):
        """The instances ``core.validate_instance`` is called on."""
        seen = []

        def counted(instance):
            seen.append(instance)
            return validate_instance(instance)

        monkeypatch.setattr("schedlab.core.validate_instance", counted)
        return seen

    @pytest.mark.parametrize("origin", list(_frozen_jobs()))
    def test_columns_can_be_neither_written_nor_rebound(self, origin):
        jobs = _frozen_jobs()[origin]
        unit = isinstance(jobs, UnitJobs)
        names = ("ids", "r", "d") if unit else ("ids", "r", "d", "p", "w")
        for name in names:
            column = getattr(jobs, name)
            with pytest.raises(ValueError if unit else TypeError):
                column[0] = column[0]
            with pytest.raises(AttributeError, match="read-only"):
                setattr(jobs, name, column)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(jobs, name)
            assert getattr(jobs, name) is column
        if not unit:
            with pytest.raises(AttributeError, match="read-only"):
                jobs.scale = 2

    def test_unit_columns_freeze_the_arrays_they_are_given(self):
        ids, r, d = np.arange(3), np.zeros(3, dtype=np.int64), np.full(3, 2)
        jobs = UnitJobs(ids, r, d)
        assert jobs.ids is ids and jobs.r is r and jobs.d is d
        assert not (ids.flags.writeable or r.flags.writeable or d.flags.writeable)
        # a slice of frozen columns shares their memory
        assert np.shares_memory(jobs[1:].ids, ids)

    def test_views_of_writeable_memory_are_copied(self):
        base = np.arange(6)
        jobs = UnitJobs(base[:3], base[:3], base[1:4])
        base[0] = 5
        assert jobs.ids.tolist() == [0, 1, 2] and base.flags.writeable

    def test_equal_deadline_pipeline_validates_twice(self, validations):
        from schedlab.equal_deadline import run_equal_deadline
        inst = read_instance(write_instance(equal_deadline_instance(4, 12, seed=3)))
        run_equal_deadline(inst)
        assert len(validations) == 2

    @pytest.mark.parametrize("instance", [
        equal_deadline_instance(4, 12, seed=3), random_unit_instance(12, 6, seed=3),
        throughput_instance(12, 6, k=2, seed=3)], ids=["equal-deadline", "unit", "throughput"])
    def test_reader_converts_each_grid_column_once(self, instance, monkeypatch):
        # The reader's (r, id) order check and the validation share one
        # conversion of the five columns.
        from schedlab import core
        converted = []

        def counted(values, wide=False):
            converted.append(len(values))
            return exact_column(values, wide)

        exact_column = core._exact_column
        monkeypatch.setattr(core, "_exact_column", counted)
        read_instance(write_instance(instance))
        assert converted == [len(instance.jobs)] * 5

    def test_grid_arrays_are_read_only(self):
        jobs = read_instance(write_instance(equal_deadline_instance(4, 12, seed=3))).jobs
        for column in jobs.arrays():
            with pytest.raises(ValueError):
                column[0] = column[0]
        assert jobs.arrays() is jobs.arrays()

    def test_throughput_pipeline_validates_twice(self, validations):
        from schedlab.oracle import offline_throughput_opt
        from schedlab.throughput import estimate_ratio, reduce_to_matching
        inst = read_instance(write_instance(throughput_instance(12, 6, k=2, seed=3)))
        reduce_to_matching(inst)
        estimate_ratio(inst, trials=4, seed=3)
        offline_throughput_opt(inst)
        assert len(validations) == 2

    def test_a_new_instance_starts_unchecked(self, validations):
        checked = random_unit_instance(5, 4, seed=2)
        assert require_valid(checked) is checked and len(validations) == 1
        with pytest.raises(ValidationError, match=r"^invalid instance: BadModel"):
            require_valid(Instance("nonsense", checked.jobs))
        with pytest.raises(ValidationError, match="HorizonMismatch"):
            require_valid(dataclasses.replace(checked, horizon=checked.horizon + 1))
        again = Instance(checked.model, checked.jobs, checked.k, checked.horizon)
        assert again == checked and repr(again) == repr(checked)
        require_valid(again)
        assert len(validations) == 4

    def test_only_unchangeable_jobs_keep_the_pass(self, validations):
        rows = [Job(0, 0, 2), Job(1, 1, 2)]
        as_list = Instance("unit-min", rows, horizon=2)
        as_tuple = Instance("unit-min", tuple(rows), horizon=2)
        for inst in (as_list, as_list, as_tuple, as_tuple):
            require_valid(inst)
        assert validations == [as_list, as_list, as_tuple]

    def test_a_failed_check_is_not_kept(self, validations):
        inst = Instance("unit-min", UnitJobs([0], [3], [3]), horizon=3)
        for _ in range(2):
            with pytest.raises(ValidationError):
                require_valid(inst)
        assert len(validations) == 2


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
        prof = MachineProfile(dict(enumerate([1, 4])))
        assert prof.at(7) == 0

    def test_capacity_between(self):
        prof = MachineProfile(dict(enumerate([1, 2, 3])))
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
        assert read_instance(write_instance(inst)) == Instance(
            "unit-min", UnitJobs([0], [0], [2]), horizon=2)

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
        assert instance_to_dict(Instance(inst.model, time_grid(inst.jobs))) == doc
        assert read_instance(write_instance(inst)) == Instance(
            "equal-deadline", GridJobs([0], [50], [300], [125], 100))

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


#: sha256 of ``write_instance(random_unit_instance(jobs, horizon, seed))`` by
#: ``(jobs, horizon, seed)``, recorded from the row generator.
RANDOM_UNIT_DIGESTS = {
    (0, 1, 0): "2f31d318beecd0f093b1e136dbb8de9405ba2bcd14c164770eab561a08a2025f",
    (0, 1, 3): "2f31d318beecd0f093b1e136dbb8de9405ba2bcd14c164770eab561a08a2025f",
    (0, 7, 0): "ee68deb9fcc1a0e4e18234a9221fefa69c1096ddb0a87bff5700fa5a08b4d5e2",
    (0, 7, 3): "ee68deb9fcc1a0e4e18234a9221fefa69c1096ddb0a87bff5700fa5a08b4d5e2",
    (0, 500, 0): "f072d8d38ac915b1f8da4845695f978019bf94730bb37cbb4c67a74a8a37692d",
    (0, 500, 3): "f072d8d38ac915b1f8da4845695f978019bf94730bb37cbb4c67a74a8a37692d",
    (1, 1, 0): "89b2e50a4d227280626e860900bba72391f6c5e8a84535216db7a7792f3c145e",
    (1, 1, 3): "89b2e50a4d227280626e860900bba72391f6c5e8a84535216db7a7792f3c145e",
    (1, 7, 0): "70d3d8d7686e44afdbc5f09643cf36a85f8264184d9888372acf3509e60b1770",
    (1, 7, 3): "43a6a8d3b64339f35ad40912b30e53210336efb762142584119ab8d59084cd1d",
    (1, 500, 0): "6a04010e5b750cdf7439a2012261ff9ed0f59e73081ea6354e2db38513c4f726",
    (1, 500, 3): "ea3232dcc22e2213c5c97e180d0f6521beec74bbab728ef84e3e787dd1201b1f",
    (30, 1, 0): "4a4f4ed3cb0b045623e1c9ec7b9396ef4337fc1d26aa4d13973d84031c53e825",
    (30, 1, 3): "4a4f4ed3cb0b045623e1c9ec7b9396ef4337fc1d26aa4d13973d84031c53e825",
    (30, 7, 0): "e09767c8e616906860a15d7e1f9ac15baa6bcb1b9e04d907cc5a19586f23321b",
    (30, 7, 3): "ba58d682495acc9584b51e960e2d089fd6c80ed998753686f8e1ff61186f1805",
    (30, 500, 0): "725ff3d0528497d3d929d36f204f4e44e42e53de423ccf003e56ea51391ce960",
    (30, 500, 3): "5930af4bf2baf601bed556e72cf9c618216a5275bdbf2e44634f1d20d4af2fdb",
    (2000, 1, 0): "1cab8b5a3d26a4f2a9e1a79f5a4f5d0698389397ef07d0d8881fad01347be5cc",
    (2000, 1, 3): "1cab8b5a3d26a4f2a9e1a79f5a4f5d0698389397ef07d0d8881fad01347be5cc",
    (2000, 7, 0): "1bcbab4ca1191e55f8cb8140ec9c13d82eea59adf683e998a0559f75e7a7ee33",
    (2000, 7, 3): "5140196d0856447b6c73c251e43d0d3acf3eea945a38f4047ce25bde6de1d179",
    (2000, 500, 0): "be64e64407b80eea47f9a3de6dd1689ad2119f1dd404381167ba43a8be663457",
    (2000, 500, 3): "432b88d8353ab31d15607970df106abdbed1464359fd7741e1ca48448e238e8b",
}


@pytest.mark.parametrize("jobs, horizon, seed", sorted(RANDOM_UNIT_DIGESTS))
def test_random_unit_instance_bytes_are_pinned(jobs, horizon, seed):
    text = write_instance(random_unit_instance(jobs, horizon, seed))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == RANDOM_UNIT_DIGESTS[jobs, horizon, seed]


_odd_times = [-2, "1/2", 2.5, 3.0, "7/1", True, "x"]


@st.composite
def unit_min_documents(draw):
    """unit-min documents, valid or not: unsorted jobs, duplicate or negative
    ids, lengths other than 1, fractional, float or negative times, bad
    horizons, ids and times past int64, and weights other than 1."""
    jobs = []
    for i in range(draw(st.integers(0, 6))):
        r = draw(st.integers(0, 8))
        entry = {"id": i, "r": r, "d": r + draw(st.integers(1, 4))}
        fault = draw(st.sampled_from(
            [None] * 4 + ["id", "r", "d", "p", "w", "past"]))
        if fault == "id":
            entry["id"] = draw(st.sampled_from([0, -1, 2**63, 2**64 + 3]))
        elif fault in ("r", "d"):
            entry[fault] = draw(st.sampled_from(_odd_times))
        elif fault == "p":
            entry["p"] = draw(st.sampled_from([1, 2, 0, "1/2", "1", 1.0]))
        elif fault == "w":
            entry["w"] = draw(st.sampled_from([1, 0, 5, "3/2", 2.5, -1]))
        elif fault == "past":
            entry["r"] += 2**63
            entry["d"] += 2**63
        jobs.append(entry)
    doc = {"model": "unit-min", "jobs": draw(st.permutations(jobs))}
    ends = [j["d"] for j in jobs if type(j["d"]) is int]
    last = max(ends, default=0)
    horizon = draw(st.sampled_from([last] * 3 + [last + 1, None, 0, "5"]))
    if horizon is not None:
        doc["horizon"] = horizon
    k = draw(st.sampled_from([None] * 3 + [2, "2"]))
    if k is not None:
        doc["k"] = k
    return doc


def _read(reader, doc):
    try:
        return reader(doc)
    except (ParseError, ValidationError, ContractViolation) as exc:
        return type(exc), str(exc)


class TestColumnReader:
    """The column reader against the row reader it replaced."""

    @settings(max_examples=300)
    @given(unit_min_documents())
    @example({"model": "unit-min", "horizon": 2**63 + 1,
              "jobs": [{"id": 0, "r": 2**63, "d": 2**63 + 1, "w": 3}]})
    def test_matches_row_reference(self, doc):
        expected = _read(reference_instance_from_dict, doc)
        got = _read(instance_from_dict, doc)
        if not isinstance(expected, Instance):
            assert got == expected
            return
        rows = [(j.id, j.r, j.d) for j in expected.jobs]
        if max(map(max, rows), default=0) > INT64_MAX:
            # refused at read, as the run refused it before
            assert got == (ContractViolation,
                           f"job ids and times must fit an int64 ({INT64_MAX})")
            return
        assert isinstance(got.jobs, UnitJobs)
        assert (got.model, got.k, got.horizon) == (
            expected.model, expected.k, expected.horizon)
        assert list(zip(got.jobs.ids.tolist(), got.jobs.r.tolist(),
                        got.jobs.d.tolist())) == rows

    def test_weights_are_not_kept(self):
        doc = {"model": "unit-min", "horizon": 2,
               "jobs": [{"id": 0, "r": 0, "d": 2, "w": 5}]}
        assert reference_instance_from_dict(doc).jobs[0].w == 5
        assert instance_to_dict(instance_from_dict(doc))["jobs"][0]["w"] == 1


def _time_text(value: Fraction, form: str):
    """``value`` as a file may hold it: a JSON int, a plain decimal, a
    ``p/q`` string, an exponent string or a float; a value that is not
    integral is written as a decimal, and one with no exact decimal as
    ``p/q``."""
    den = value.denominator
    if form == "int" and den == 1:
        return int(value)
    places = next((k for k in range(6) if (value * 10**k).denominator == 1), None)
    if form in ("int", "decimal") and places is not None:
        text = f"{abs(value * 10**places).numerator:0{places + 1}d}"
        sign = "-" if value < 0 else ""
        return sign + (f"{text[:-places]}.{text[-places:]}" if places else text)
    if form == "exponent" and places is not None:
        return f"{(value * 10**places).numerator}e-{places}"
    if form == "float":
        return float(value)
    return f"{value.numerator}/{den}"


_forms = st.sampled_from(["int", "decimal"] * 3 + ["fraction", "exponent", "float"])
_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1, 8), Fraction(-2), Fraction(1, 3)]),
    st.builds(Fraction, st.integers(-4, 60), st.sampled_from([1, 2, 4, 5, 8, 3])))


@st.composite
def equal_deadline_documents(draw):
    """equal-deadline documents, valid or not: unsorted jobs, duplicate or
    negative ids, lengths at or below 0, windows too short, unequal or bad
    deadlines, times as ints, decimals, ``p/q``, exponents, floats or bools,
    and weights other than 1."""
    d = (1 << draw(st.integers(1, 4))) - 1
    # most documents hold only ints and plain decimals, the grid reader's own
    forms = draw(st.sampled_from([st.sampled_from(["int", "decimal"])] * 3
                                 + [_forms]))
    jobs = []
    for i in range(draw(st.integers(0, 6))):
        r = draw(st.fractions(0, d - Fraction(1, 8), max_denominator=8))
        p = draw(st.fractions(Fraction(1, 8), d - r, max_denominator=8))
        entry = {"id": i, "r": _time_text(r, draw(forms)), "d": d,
                 "p": _time_text(p, draw(forms))}
        fault = draw(st.sampled_from(
            [None] * 12 + ["id", "w", "bool", "missing"] + ["r", "d", "p"] * 2))
        if fault == "id":
            entry["id"] = draw(st.sampled_from([0, -1, 2**70, True, "3"]))
        elif fault in ("r", "d", "p"):
            entry[fault] = _time_text(draw(_values), draw(forms))
        elif fault == "w":
            entry["w"] = draw(st.sampled_from([1, 0, 5, "1", 1.0, True, -1]))
        elif fault == "bool":
            entry[draw(st.sampled_from(["r", "d", "p"]))] = draw(st.booleans())
        elif fault == "missing":
            del entry[draw(st.sampled_from(["r", "p"]))]
        jobs.append(entry)
    doc = {"model": "equal-deadline", "jobs": draw(st.permutations(jobs))}
    for key in ("k", "horizon"):
        value = draw(st.sampled_from([None] * 8 + [2, "2"]))
        if value is not None:
            doc[key] = value
    return doc


class TestGridReader:
    """The grid reader against the row reader, which stays the reference."""

    @settings(max_examples=400)
    @given(equal_deadline_documents())
    @example({"model": "equal-deadline", "jobs": [
        {"id": 1, "r": "0.5", "d": 7, "p": "2.25"},
        {"id": 0, "r": 3, "d": "7.0", "p": 4}]})
    @example({"model": "equal-deadline", "jobs": [
        {"id": 0, "r": "-0.125", "d": 7, "p": "0"},
        {"id": 0, "r": "6.5", "d": 6, "p": "1.5", "w": 1}]})
    @example({"model": "equal-deadline", "jobs": [
        {"id": 0, "r": "1" + "0" * 5000, "d": 7, "p": 1}]})
    @example({"model": "equal-deadline", "jobs": [
        {"id": 0, "r": "0.5", "d": 7, "p": "0", "w": -1}]})
    def test_matches_row_reference(self, doc):
        expected = _read(reference_instance_from_dict, doc)
        got = _read(instance_from_dict, doc)
        if not isinstance(expected, Instance):
            assert got == expected
            return
        assert isinstance(got.jobs, GridJobs)
        assert (got.model, got.k, got.horizon) == (
            expected.model, expected.k, expected.horizon)
        assert [(j.id, j.r, j.d, j.p) for j in got.jobs] == [
            (j.id, j.r, j.d, j.p) for j in expected.jobs]

    def test_plain_decimals_skip_the_row_reader(self, monkeypatch):
        doc = {"model": "equal-deadline", "jobs": [
            {"id": 1, "r": "0.5", "d": 7, "p": "2.25"},
            {"id": 0, "r": 3, "d": "7.0", "p": 4, "w": 1}]}
        monkeypatch.setattr("schedlab.core._job_rows", None)
        inst = instance_from_dict(doc)
        assert (inst.jobs.ids, inst.jobs.r, inst.jobs.scale) == ((1, 0), (50, 300), 100)

    @pytest.mark.parametrize("make", [
        lambda: random_unit_instance(2000, 500, seed=0),
        lambda: equal_deadline_instance(9, 1000, seed=0),
        lambda: throughput_instance(400, 100, k=4, seed=0)],
        ids=["random-unit", "equal-deadline", "throughput"])
    def test_generated_files_skip_the_row_reader(self, monkeypatch, make):
        text = write_instance(make())
        monkeypatch.setattr("schedlab.core._job_rows", None)
        assert write_instance(read_instance(text)) == text


@st.composite
def throughput_documents(draw):
    """throughput documents, valid or not: unsorted jobs, duplicate or
    negative ids, times as ints, plain decimals or floats, some not
    integral or past their window, lengths other than 1, weights as ints,
    plain decimals, ``p/q``, floats or bools, negative or absent, and
    ``k`` missing or malformed."""
    jobs = []
    for i in range(draw(st.integers(0, 6))):
        r = Fraction(draw(st.integers(-1, 8)), draw(st.sampled_from([1, 1, 1, 2])))
        d = r + draw(st.sampled_from([1, 1, 2, 3, 0, Fraction(1, 2)]))
        forms = st.sampled_from(["int", "decimal", "float"])
        entry = {"id": draw(st.sampled_from([i] * 4 + [0, -1])),
                 "r": _time_text(r, draw(forms)), "d": _time_text(d, draw(forms))}
        w = draw(st.sampled_from([None, 1, 0, 7, -2, "2.5", "0.0", "-0.5", "7/3",
                                  "-1/2", 1.5, 4.0, -0.25, True, False]))
        if w is not None:
            entry["w"] = w
        p = draw(st.sampled_from([None] * 6 + [1, 2, "1.0", "0.5", 1.0, 0.5]))
        if p is not None:
            entry["p"] = p
        jobs.append(entry)
    doc = {"model": "throughput", "jobs": draw(st.permutations(jobs))}
    k = draw(st.sampled_from([2] * 4 + [None, 1, 0, -1, "2", 2.0, True]))
    if k is not None:
        doc["k"] = k
    return doc


class TestThroughputReader:
    """Throughput files read by the column reader against the row reader."""

    @settings(max_examples=400)
    @given(throughput_documents())
    @example({"model": "throughput", "k": 2, "jobs": [
        {"id": 1, "r": "1.5", "d": 3, "w": "7/3"},
        {"id": 0, "r": 1.0, "d": "2.0", "w": 2.5}]})
    @example({"model": "throughput", "k": 1, "jobs": [
        {"id": 0, "r": 0, "d": 1, "w": "-0.5"}, {"id": 2, "r": 0, "d": 1, "w": True}]})
    # each digit run fits Python's int/str limit, the two joined do not
    @example({"model": "throughput", "k": 1, "jobs": [
        {"id": 0, "r": 0, "d": 2, "w": "1" * 4000 + "." + "1" * 4000}]})
    def test_matches_row_reference(self, doc):
        expected = _read(reference_instance_from_dict, doc)
        got = _read(instance_from_dict, doc)
        if not isinstance(expected, Instance):
            assert got == expected
            return
        assert isinstance(got.jobs, GridJobs)
        assert (got.model, got.k, got.horizon) == (
            expected.model, expected.k, expected.horizon)
        assert [tuple(j) for j in got.jobs] == [tuple(j) for j in expected.jobs]
        # a GridJobs row's p is a Fraction; validation pins it to 1
        assert all(j.p == 1 and type(j.p) is Fraction for j in got.jobs)
        assert [(type(j.id), type(j.r), type(j.d), type(j.w)) for j in got.jobs] == [
            (type(j.id), type(j.r), type(j.d), type(j.w)) for j in expected.jobs]


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message it raises."""
    try:
        return call(*args)
    except Exception as exc:  # every outcome is compared, errors included
        return type(exc), str(exc)


class _Flag(enum.IntEnum):
    ON = 1


_json_keys = st.one_of(st.text(max_size=4),
                       st.sampled_from(["%", "%s", "a%%d", "id", "\n", "é"]))
_scalar_values = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**63 - 2, 2**70) | st.integers(-2**70, -2**63 + 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(), st.sampled_from(['a"b\\c', "\t\x00\x1f", "é😀", " "]))


@st.composite
def _row_lists(draw, values):
    """Lists of flat objects: one key set, or rows whose key sets, key
    types or value types differ."""
    keys = draw(st.lists(_json_keys, max_size=4, unique=True))
    kinds = [draw(st.sampled_from([st.integers(), st.text(), _scalar_values]))
             for _ in keys]
    rows = [{key: draw(kind) for key, kind in zip(keys, kinds)}
            for _ in range(draw(st.integers(0, 5)))]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["drop", "add", "nest", "key", "type"]))
        if fault == "drop" and keys:
            del row[keys[0]]
        elif fault == "add":
            row[draw(_json_keys)] = draw(values)
        elif fault == "nest" and keys:
            row[keys[0]] = draw(values)
        elif fault == "key":
            row[7] = 1
        elif fault == "type" and keys:
            row[keys[0]] = draw(st.sampled_from(
                [_Flag.ON, OrderedDict(a=1), (1, 2), Fraction(1, 2)]))
    return rows


def _json_containers(inner):
    # a named function: hypothesis reads its source to check that it recurses
    return st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_json_keys, inner, max_size=4), _row_lists(inner))


_json_values = st.recursive(_scalar_values, _json_containers, max_leaves=25)


_PAST_DIGIT_LIMIT = (f"^a number has more than {sys.get_int_max_str_digits()} "
                     f"digits, Python's limit for writing an int as text$")


class TestDumpJson:
    """dump_json against the json module call it replaces."""

    @settings(max_examples=400)
    @given(_json_values)
    @example({"b": [1, 2**64, -3], "a": [], "c": {}, "%": [True, 1, 0.5]})
    @example([{"id": 1, "x": "s"}, {"id": 2, "x": None}])
    @example([{"a": 1}, {"b": 1}])
    @example({1: "int key", "s": 2})
    @example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    @example([_Flag.ON, OrderedDict(b=1, a=2), Fraction(1, 3)])
    def test_same_bytes_or_error_as_json_module(self, value):
        expected = _outcome(
            lambda v: json.dumps(v, indent=1, sort_keys=True), value)
        assert _outcome(dump_json, value) == expected

    @pytest.mark.parametrize("job_id", [_Flag.ON, np.int64(2)], ids=repr)
    def test_instance_ids_that_are_not_plain_ints(self, job_id):
        inst = Instance.of("throughput", [Job(job_id, 0, 1)], k=1)
        assert _outcome(write_instance, inst) == _outcome(
            lambda i: json.dumps(instance_to_dict(i), indent=1, sort_keys=True)
            + "\n", inst)

    def test_cycle_is_refused_as_json_module_refuses_it(self):
        loop = [1]
        loop.append({"again": loop})
        assert _outcome(dump_json, loop) == (ValueError, "Circular reference detected")

    def test_int_past_the_digit_limit_is_refused(self):
        # json.dumps raises a plain ValueError here
        with pytest.raises(ContractViolation, match=_PAST_DIGIT_LIMIT):
            dump_json({"d": [1, 10**5000]})

    @pytest.mark.parametrize("job", [Job(0, 0, 2**20000 - 1, p=3),
                                     Job(0, 0, 7, p=Fraction(1, 2**20000))],
                             ids=["int", "decimal"])
    def test_write_refuses_a_number_past_the_digit_limit(self, job):
        rows = (job,)
        for jobs in (rows, time_grid(rows)):
            with pytest.raises(ContractViolation, match=_PAST_DIGIT_LIMIT):
                write_instance(Instance("equal-deadline", jobs))

    def test_indent_one_only_in_dump_json(self):
        """Every indented JSON writer goes through dump_json."""
        import inspect

        import schedlab
        hits = [(path.name, line.strip())
                for path in sorted(Path(schedlab.__file__).parent.glob("*.py"))
                for line in path.read_text().splitlines() if "indent=1" in line]
        body = inspect.getsource(dump_json)
        assert hits and all(name == "core.py" and line in body
                            for name, line in hits)
        assert ("core.py", "return json.dumps(obj, indent=1, sort_keys=True)") in hits


def _fraction_in(text):
    """``_num_in``'s answer from ``Fraction(str)``, as it was computed."""
    try:
        f = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"x: bad numeric string {text!r}") from None
    return int(f) if f.denominator == 1 else f


@st.composite
def _numeric_texts(draw):
    """Strings near the numbers files hold: signs, whitespace, leading
    zeros, decimals, exponents, ``p/q`` with zero denominators, ``_``
    separators, non-ASCII digits and stray characters.  Exponents stay
    below 100, as ``Fraction`` builds ``10**exponent``."""
    digits = st.text("0123456789", max_size=6) | st.text("0123456789_٣²", max_size=4)
    space = st.sampled_from(["", "", " ", "\t", "\n"])
    parts = [draw(space), draw(st.sampled_from(["", "", "-", "+", "--"])),
             draw(digits)]
    shape = draw(st.sampled_from(["int", "decimal", "ratio"]))
    if shape == "decimal":
        parts += [".", draw(digits)]
    elif shape == "ratio":
        parts += ["/", draw(digits | st.just("0"))]
    if draw(st.booleans()):
        parts += [draw(st.sampled_from("eE")), draw(st.sampled_from(["", "-", "+"])),
                  draw(st.text("0123456789", min_size=1, max_size=2))]
    parts.append(draw(space))
    text = "".join(parts)
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("x.-/e _"))) + text[at:]
    return text


class TestNumIn:
    @settings(max_examples=500)
    @given(_numeric_texts())
    @example("-0.50")
    @example("007.25")
    @example("1.")
    @example(".5")
    @example("-0")
    @example("3/6")
    @example("1" * 5000)
    @example("0." + "1" * 4000 + "5")
    @example("1" * 4000 + "." + "1" * 4000)
    def test_same_value_type_or_message_as_fraction(self, text):
        got = _outcome(_num_in, text, "x")
        want = _outcome(_fraction_in, text)
        assert got == want and type(got) is type(want)


@given(st.integers(0, 2**32), st.lists(st.integers(1, 2**70) | st.integers(1, 9),
                                       min_size=1, max_size=8))
@example(0, [1, 2, 3, 4, 5, 2**70])
def test_draws_are_randrange_on_this_interpreter(seed, bounds):
    """The generators' one draw helper gives ``randrange``'s values and
    leaves the generator where ``randrange`` leaves it."""
    rng, want = random.Random(seed), random.Random(seed)
    below = _draws(rng)
    assert [below(n) for n in bounds] == [want.randrange(n) for n in bounds]
    assert rng.getstate() == want.getstate()


#: int/str digit limit the codec tests approach; 4300, CPython's default,
#: when the interpreter runs without one.
_LIMIT = sys.get_int_max_str_digits() or 4300

_scales = st.one_of(
    st.sampled_from([1, 16, 10**4, 3, 12]),
    st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)),
    st.sampled_from([2**61 - 1, 10**9 + 7, 2**127 - 1]))


@st.composite
def _numerators(draw):
    """Numerators of every sign: mostly small, some with about as many
    digits as Python writes."""
    if draw(st.integers(0, 5)):
        return draw(st.integers(-10**6, 10**6))
    digits = draw(st.integers(_LIMIT - 130, _LIMIT + 2))
    return draw(st.sampled_from([1, -1])) * (
        draw(st.integers(1, 9)) * 10**digits + draw(st.integers(-10**4, 10**4)))


def _quotients_by_value(nums, scale):
    return [_quotient_out(num, scale) for num in nums]


class TestNumberCodec:
    """The column codec of numbers against the one-value rules it batches."""

    @settings(max_examples=300)
    @given(st.lists(_numerators(), max_size=12), _scales)
    @example([0, -1, 1, -16, 17, -17, 31, 10**30 + 1], 16)
    @example([-5, 5, 10, -7, 2**40 + 1], 12)
    @example([10**(_LIMIT - 5) + 1], 16)
    def test_same_texts_or_refusal_as_quotient_out(self, nums, scale):
        got = _outcome(_quotients_out, nums, scale)
        want = _outcome(_quotients_by_value, nums, scale)
        assert got == want
        if isinstance(want, list):
            assert list(map(type, got)) == list(map(type, want))

    @pytest.mark.parametrize("scale", [16, 10**4, 3, 12, 2**7 * 5**3, 2**61 - 1])
    def test_refusal_starts_where_quotient_out_refuses(self, scale):
        """Around the digit limit, value by value and as one column."""
        nums = [sign * (10**digits + 1) for digits in range(_LIMIT - 25, _LIMIT + 2)
                for sign in (1, -1)]
        for num in nums:
            assert _outcome(_quotients_out, [num], scale) == _outcome(
                _quotients_by_value, [num], scale)
        assert _outcome(_quotients_out, [1, *nums], scale) == _outcome(
            _quotients_by_value, [1, *nums], scale)

    def test_columns_written_as_files_write_them(self):
        assert _quotients_out([0, 8, -8, 24, -24, 32, 1, -40], 16) == [
            0, "0.5", "-0.5", "1.5", "-1.5", 2, "0.0625", "-2.5"]
        assert _quotients_out([1, -1, 7, -7, 9], 3) == ["1/3", "-1/3", "7/3", "-7/3", 3]


def _column_by_parts(values):
    """A column as ``_decimal_parts`` reads it, value by value."""
    try:
        parts = [(x, 0) if type(x) is int else _decimal_parts(x) for x in values]
    except ValueError:
        return None
    if None in parts:
        return None
    places = max(k for _, k in parts)
    return [num * 10 ** (places - k) for num, k in parts], places


_COLUMN_TEXTS = ["1.", ".5", "+1", "1_0", " 1", "-0", "-0.50", "007.25", "--1",
                 "-.5", "1.2.3", "١٢.٥", "-٣", "²", "1" * 5000, "0." + "1" * 5000,
                 "1" * 4000 + "." + "1" * 4000]


def _joined_digits(values):
    """The most digits one value's whole part and tail, padded to the
    column's longest tail, join to."""
    wholes, _, tails = zip(*(str(x).removeprefix("-").partition(".") for x in values))
    return max(map(len, wholes)) + max(map(len, tails))


class TestDecimalColumn:
    """The column reader against ``_decimal_parts``, value by value."""

    @pytest.mark.parametrize("text", _COLUMN_TEXTS, ids=lambda t: repr(t[:12]))
    def test_each_form_reads_as_decimal_parts(self, text):
        # where joined digits pass the limit, the row reader reads the file
        for column in ([text], [text, 2, "0.25"], ["-1.5", 7, text]):
            if _joined_digits(column) > sys.get_int_max_str_digits():
                assert _decimal_column(column) is None
            else:
                assert _decimal_column(column) == _column_by_parts(column)

    @settings(max_examples=300)
    @given(st.lists(_numeric_texts() | st.integers(-10**6, 10**6), min_size=1,
                    max_size=6))
    def test_columns_read_as_decimal_parts(self, values):
        assert _decimal_column(values) == _column_by_parts(values)
