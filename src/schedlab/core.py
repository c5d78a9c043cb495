"""Shared job-scheduling domain types and serialization.

All scheduling models in this package move jobs ``(id, r, d, p, w)`` around:
a job is released at time ``r``, must complete by deadline ``d``, needs ``p``
units of processing, and pays weight ``w`` if completed.  Unit-job models keep
all times integral; the equal-deadline model allows exact rationals
(``fractions.Fraction``), which serialize as exact strings.

Time convention: a unit job placed in slot ``t`` occupies ``[t, t+1)`` and
therefore needs ``t + 1 <= d``.  Every module in this package uses this
completion-based convention; there is no "inclusive deadline slot" anywhere.

Every instance file, whatever its model, is read on one path
(:func:`instance_from_dict`): one column reader into :class:`GridJobs`,
``Job`` rows only for the number forms it declines, one validation of the
columns, and then the model's own form: :class:`UnitJobs` for unit-min,
``GridJobs`` for the other two.  Inside the library ``Job`` rows are
built only for callers outside it and to name a fault.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import gcd, inf, isfinite, lcm
from operator import add, itemgetter
from typing import ClassVar, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

MODELS = ("unit-min", "equal-deadline", "throughput")


class ContractViolation(Exception):
    """An operation was invoked outside its stated preconditions."""


class ParseError(ValueError):
    """Raised when an instance file is structurally malformed."""


class ValidationError(ValueError):
    """Raised when a parsed instance violates model invariants."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:8])
        extra = "" if len(violations) <= 8 else f" (+{len(violations) - 8} more)"
        super().__init__(f"invalid instance: {lines}{extra}")


class Job(NamedTuple):
    """A single job. ``p`` defaults to unit length, ``w`` to unit weight."""

    id: int
    r: Rational
    d: Rational
    p: Rational = 1
    w: Rational = 1


INT64_MAX = int(np.iinfo(np.int64).max)


@contextmanager
def allocating(count: int, what: str, storage: str = "int64 columns"):
    """Refuse, as a :class:`ContractViolation`, arrays of ``count`` ``what``
    that numpy will not allocate: it raises ``ValueError`` for a size past
    the address space and ``MemoryError`` for one the host cannot hold.
    ``storage`` names the arrays in the message.  The one place these two
    become a usage error; any ``ValueError`` inside the block reads as this
    refusal, so keep the block to array work."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ContractViolation(
            f"{count} {what} do not fit in memory as {storage}") from exc


def arange_exact(start: int, stop: int, step: int = 1,
                 dtype=np.int64) -> np.ndarray:
    """``np.arange(start, stop, step)`` for a ``step`` of 1 or -1, sized
    exactly: ``np.arange`` sizes its result in float64 and returns an empty
    array for some sizes near ``2**63``, which ``np.empty`` refuses."""
    np.empty(max((stop - start) * step, 0), dtype)
    return np.arange(start, stop, step, dtype=dtype)


def _int64_column(values, name: str) -> np.ndarray:
    """``values`` as an int64 column, refusing, by the column ``name``, any
    value that is not an integer (a float, ``Fraction``, string or bool)
    and integers past int64.  An int64 array is returned as it is."""
    column = np.asarray(values)
    is_array = isinstance(values, np.ndarray)
    # numpy reads a list that mixes bools with ints as an int column
    if column.dtype.kind == "i" and (is_array or bool not in set(map(type, values))):
        return column.astype(np.int64, copy=False)
    # numpy makes a float column of ints on both sides of 2**63, and would
    # wrap a uint64 one: read such values as Python ints
    items = column.tolist() if is_array else values
    bad = next((x for x in items if type(x) is not int), None)
    if bad is not None:
        raise ContractViolation(
            f"job column {name} holds {bad!r}, not an integer")
    try:
        return np.asarray(items, dtype=np.int64)
    except OverflowError:
        raise ContractViolation(
            f"job ids and times must fit an int64 ({INT64_MAX})") from None


class _Columns:
    """Jobs as columns, one per entry of ``ids``; ``__init__`` sets each attribute once."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self.ids)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class UnitJobs(_Columns, Sequence[Job]):
    """Unit jobs of unit weight as int64 columns ``ids``, ``r`` and ``d``,
    the one form of a unit-min instance inside the library.

    The columns are read-only: an int64 array handed in is frozen in place
    (``writeable=False``, no copy) for its caller too, unless it views
    memory that stays writeable, which is copied.  An instance's columns
    are sorted by ``(r, id)``; a block handed to one step keeps the order
    its caller gave.  A slice or an index array gives columns; an integer
    index and iteration build a ``Job`` row per job for outside callers.
    """

    __slots__ = ("ids", "r", "d", "_id_list", "_groups")

    def __init__(self, ids, r, d):
        columns = (_int64_column(ids, "ids"), _int64_column(r, "r"), _int64_column(d, "d"))
        if len(set(map(len, columns))) > 1:
            raise ContractViolation("job columns differ in length")
        for name, column in zip(self.__slots__, columns):
            if column.base is not None and getattr(column.base, "flags", column.flags).writeable:
                column = column.copy()  # a view of memory still writeable elsewhere
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_id_list", None)
        object.__setattr__(self, "_groups", None)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return Job(int(self.ids[index]), int(self.r[index]), int(self.d[index]))
        return UnitJobs(self.ids[index], self.r[index], self.d[index])

    def __iter__(self):
        return map(Job, self.ids.tolist(), self.r.tolist(), self.d.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnitJobs):
            return NotImplemented
        return (np.array_equal(self.ids, other.ids)
                and np.array_equal(self.r, other.r)
                and np.array_equal(self.d, other.d))

    def __repr__(self) -> str:
        return f"UnitJobs({len(self)} jobs)"

    def id_list(self) -> list[int]:
        """``ids`` as a new Python list, in block order: a copy of the one
        conversion kept per block, so no caller can change what others read."""
        if self._id_list is None:
            object.__setattr__(self, "_id_list", tuple(self.ids.tolist()))
        return list(self._id_list)

    def by_deadline(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(deadline, ids)`` for each distinct deadline, both ascending.

        Computed once per block, as tuples, so no caller can change it: the
        ``OFF`` engine counts these groups and the EDF queue files them, at
        the same step.  A block due at one deadline, as every block of the
        adversary stream is, is sorted only if its ids are out of order.
        """
        if self._groups is None:
            ids = self.id_list()
            if ids and (self.d == self.d[0]).all():
                groups = {int(self.d[0]): ids if (self.ids[1:] >= self.ids[:-1]).all()
                          else sorted(ids)}
            else:
                groups, d = {}, self.d.tolist()
                for i in np.lexsort((self.ids, self.d)).tolist():
                    groups.setdefault(d[i], []).append(ids[i])
            object.__setattr__(self, "_groups",
                               tuple((e, tuple(run)) for e, run in groups.items()))
        return self._groups


def unit_columns(jobs: Iterable[Job]) -> UnitJobs:
    """The one narrowing of :class:`GridJobs`, or of ``Job`` rows by their
    :func:`time_grid`, to unit columns, order kept.

    Refuses jobs that are not unit length, windows that are not integral
    and values beyond int64.  Weights are dropped: every engine that runs
    on columns ignores them.  Grid columns are checked whole; rows are
    built only to name a fault.
    """
    if isinstance(jobs, UnitJobs):
        return jobs
    grid = time_grid(jobs)
    scale = grid.scale
    unit = grid.p.count(scale) == len(grid) and (
        scale == 1 or not any(x % scale for x in chain(grid.r, grid.d)))
    for j in () if unit else grid:
        if j.p != 1:
            raise ContractViolation(f"job {j.id} is not a unit job: p={j.p}")
        if not (_is_integral(j.r) and _is_integral(j.d)):
            raise ContractViolation(f"job {j.id} has a non-integer window [{j.r}, {j.d})")
    return UnitJobs(grid.ids, *([x // scale for x in col] if scale > 1 else col
                                for col in (grid.r, grid.d)))


def _ratio(num: int, den: int) -> Rational:
    """``num / den`` (``den > 0``): an ``int`` when integral, else a
    ``Fraction``."""
    whole, rest = divmod(num, den)
    return Fraction(num, den) if rest else whole


class GridJobs(_Columns, Sequence[Job]):
    """Jobs as tuples of Python ints: ``ids``, and the ``r``, ``d``, ``p``
    and ``w`` numerators over one ``scale`` ``L``, so job ``i`` has release
    ``r[i] / L``; ``w`` defaults to unit weights.  Every instance file is
    read into this form, and it is the form of an equal-deadline instance
    inside the library; sums and comparisons of numerators are those of the
    values, exact at any ``L``.  No attribute can be rebound.

    A slice gives columns; an integer index and iteration build a ``Job``
    row per job asked for, for callers outside the library, with ``r``,
    ``d`` and ``w`` an ``int`` when integral and ``p`` a ``Fraction``.
    """

    __slots__ = ("ids", "r", "d", "p", "w", "scale", "_arrays")

    def __init__(self, ids, r, d, p, scale: int = 1, w=None):
        ids, r, d, p = tuple(ids), tuple(r), tuple(d), tuple(p)
        w = (scale,) * len(ids) if w is None else tuple(w)
        if not len(ids) == len(r) == len(d) == len(p) == len(w):
            raise ContractViolation("job columns differ in length")
        if type(scale) is not int or scale < 1:
            raise ContractViolation(f"the time scale must be an int >= 1, got {scale!r}")
        for name, value in zip(self.__slots__, (ids, r, d, p, w, scale, None)):
            object.__setattr__(self, name, value)

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(ids, r, d, p, w)`` as read-only :func:`_exact_column` arrays,
        object arrays past an int64 scale; converted once, for the reader's
        order check and the validation both."""
        if self._arrays is None:
            arrays = tuple(_exact_column(col, self.scale > INT64_MAX)
                           for col in (self.ids, self.r, self.d, self.p, self.w))
            for column in arrays:
                column.flags.writeable = False
            object.__setattr__(self, "_arrays", arrays)
        return self._arrays

    def __getitem__(self, index):
        if isinstance(index, slice):
            return GridJobs(self.ids[index], self.r[index], self.d[index],
                            self.p[index], self.scale, self.w[index])
        scale = self.scale
        return Job(self.ids[index], _ratio(self.r[index], scale),
                   _ratio(self.d[index], scale), Fraction(self.p[index], scale),
                   _ratio(self.w[index], scale))

    def __iter__(self):
        scale = repeat(self.scale)
        return map(Job, self.ids, map(_ratio, self.r, scale),
                   map(_ratio, self.d, scale), map(Fraction, self.p, scale),
                   map(_ratio, self.w, scale))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridJobs):
            return NotImplemented
        # x / L == y / M exactly when x * M == y * L
        return self.ids == other.ids and all(
            [x * other.scale for x in a] == [y * self.scale for y in b]
            for a, b in ((self.r, other.r), (self.d, other.d), (self.p, other.p),
                         (self.w, other.w)))

    def __repr__(self) -> str:
        return f"GridJobs({len(self)} jobs over {self.scale})"


def time_grid(jobs: Iterable[Job]) -> GridJobs:
    """The one conversion of ``Job`` rows into :class:`GridJobs`, order and
    weights kept.

    ``scale`` is the lcm of every ``r``, ``d``, ``p`` and ``w``
    denominator, and stays 1 when every value is an int.  The values are
    ints or other rationals (``Fraction``).
    """
    if isinstance(jobs, GridJobs):
        return jobs
    rows = tuple(jobs)
    ids, *columns = zip(*rows) if rows else ((),) * 5
    whole = [set(map(type, col)) <= {int} for col in columns]
    try:
        dens = {x.denominator for col, ints in zip(columns, whole) if not ints
                for x in col}
    except AttributeError as exc:
        raise ContractViolation(f"job values must be ints or Fractions: {exc}") from None
    scale = lcm(*dens)
    factor = {q: scale // q for q in dens}
    r, d, p, w = [[x * scale for x in col] if ints
                  else [x.numerator * factor[x.denominator] for x in col]
                  for col, ints in zip(columns, whole)]
    return GridJobs(ids, r, d, p, scale, w)


class Violation(NamedTuple):
    job_id: int | None
    rule: str
    detail: str

    def __str__(self) -> str:
        where = "instance" if self.job_id is None else f"job {self.job_id}"
        return f"{self.rule}[{where}]: {self.detail}"


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance.

    ``jobs`` are kept sorted by (release, id); use :meth:`of` to build an
    instance from unordered ``Job`` rows.  Generated and read instances
    hold columns instead: :class:`UnitJobs` for unit-min, :class:`GridJobs`
    for the other models.  ``k`` is the machine count for the throughput
    model.  ``horizon`` is the maximum deadline of a unit-job instance,
    carried so files round-trip byte for byte.

    A new instance starts unchecked, however it is built.
    :func:`require_valid` records a pass on an instance whose jobs cannot
    change (:class:`UnitJobs`, :class:`GridJobs`, a tuple of ``Job`` rows)
    and then returns at once; ``==`` and ``repr`` ignore the record.
    """

    model: str
    jobs: Sequence[Job]
    k: int | None = None
    horizon: int | None = None

    _checked: ClassVar[bool] = False

    @classmethod
    def of(cls, model: str, jobs: Iterable[Job], k: int | None = None,
           horizon: int | None = None) -> "Instance":
        ordered = tuple(sorted(jobs, key=lambda j: (j.r, j.id)))
        if horizon is None and model == "unit-min" and ordered:
            horizon = int(max(j.d for j in ordered))
        return cls(model=model, jobs=ordered, k=k, horizon=horizon)

    @property
    def common_deadline(self) -> Rational:
        if not self.jobs:
            raise ContractViolation("empty instance has no common deadline")
        return self.jobs[0].d

    def jobs_by_id(self) -> dict[int, Job]:
        return {j.id: j for j in self.jobs}


class Schedule:
    """Assignments are ``(job_id, machine_id, start)`` triples.

    ``misses`` lists jobs that were not completed by their deadline.  For
    minimization models every job appears either in ``assignments`` or in
    ``misses``; for the throughput model a job appears at most once.
    """

    __slots__ = ("_assignments", "_slots", "misses")

    def __init__(self, assignments: list[tuple[int, int, Rational]] | None = None,
                 misses: list[int] | None = None):
        self.assignments = [] if assignments is None else assignments
        self.misses = [] if misses is None else misses

    @classmethod
    def from_slots(cls, slots: list[list[int]], misses: list[int]) -> "Schedule":
        """Unit jobs ``slots[t]`` on machines ``0, 1, ...`` at each step ``t``.

        The triples, in step then machine order, are built from ``slots`` on
        first read, so a run whose assignments nobody reads never builds one
        tuple per job.  ``slots`` must not change before that read.
        """
        schedule = cls(misses=misses)
        schedule._assignments = None
        schedule._slots = slots
        return schedule

    @property
    def assignments(self) -> list[tuple[int, int, Rational]]:
        if self._assignments is None:
            self._assignments = [(job_id, machine, t)
                                 for t, slot in enumerate(self._slots)
                                 for machine, job_id in enumerate(slot)]
            self._slots = None
        return self._assignments

    @assignments.setter
    def assignments(self, value: list[tuple[int, int, Rational]]) -> None:
        self._assignments = value
        self._slots = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (self.assignments == other.assignments
                and self.misses == other.misses)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Schedule(assignments={self.assignments!r}, misses={self.misses!r})"


@dataclass
class MachineProfile:
    """Time-varying machine counts: ``counts[t]`` machines during ``[t, t+1)``.

    Steps absent from ``counts`` provide zero machines.
    """

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def constant(cls, m: int, horizon: int) -> "MachineProfile":
        return cls({t: m for t in range(horizon)})

    def at(self, t: int) -> int:
        return self.counts.get(t, 0)

    def capacity_between(self, lo: int, hi: int) -> int:
        """Total machine-slots over integer steps in ``[lo, hi)``."""
        return sum(m for t, m in self.counts.items() if lo <= t < hi)


def feasible_slot(job: Job, t: int) -> bool:
    """Whether unit job ``job`` may occupy slot ``[t, t+1)``."""
    if job.p != 1:
        raise ContractViolation(f"feasible_slot needs a unit job, got p={job.p}")
    return job.r <= t and t + 1 <= job.d


def _is_integral(x: Rational) -> bool:
    return isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1)


def _row_violations(jobs: Iterable[Job]) -> list[Violation]:
    """The per-job faults of :func:`validate_instance`, row by row, each by
    an exact comparison of the rows' values."""
    v: list[Violation] = []
    seen: set[int] = set()
    prev_key = None
    for jid, r, d, p, w in jobs:
        if jid < 0:
            v.append(Violation(jid, "BadId", "ids must be non-negative"))
        if jid in seen:
            v.append(Violation(jid, "DuplicateId", "job id reused"))
        seen.add(jid)
        key = (r, jid)
        if prev_key is not None and key < prev_key:
            v.append(Violation(jid, "UnsortedJobs",
                               "jobs must be sorted by (release, id)"))
        prev_key = key
        if r < 0:
            v.append(Violation(jid, "NegativeRelease", f"r={r}"))
        if p <= 0:
            v.append(Violation(jid, "NonPositiveLength", f"p={p}"))
        if w < 0:
            v.append(Violation(jid, "NegativeWeight", f"w={w}"))
        if r + p > d:
            v.append(Violation(jid, "WindowTooSmall", f"r+p={r + p} exceeds d={d}"))
    return v


def _exact_column(values, wide: bool = False) -> np.ndarray:
    """``values`` as int64 when numpy reads them as integers that fit (an
    int64 array as it is) and not ``wide``, else as an object array of the
    values."""
    column = np.asarray(values, object if wide else None)
    if column.dtype.kind in "ib":
        return column.astype(np.int64, copy=False)
    return column if column.dtype == object else np.array(values, dtype=object)


def _release_ordered(ids: np.ndarray, r: np.ndarray) -> bool:
    """Whether the rows of exact columns are sorted by ``(r, id)``."""
    later, tied = r[1:] > r[:-1], r[1:] == r[:-1]
    return bool((later | (tied & (ids[1:] >= ids[:-1]))).all())


def validate_instance(instance: Instance) -> list[Violation]:
    """Check all model invariants; returns an empty list when valid.

    Every form of jobs is checked by the same whole-column passes over
    ``(ids, r, d, p, w)``: unit columns as they are, with ``p = w = 1``,
    and any other jobs as their :func:`time_grid` numerators, by
    :func:`_exact_column` (object arrays past an int64 scale).  The row
    loops run only to name what a failed check found.
    """
    v: list[Violation] = []
    if instance.model not in MODELS:
        v.append(Violation(None, "BadModel", f"unknown model {instance.model!r}"))
        return v

    jobs = instance.jobs
    if isinstance(jobs, UnitJobs):
        ids, r, d, p, w, scale = jobs.ids, jobs.r, jobs.d, 1, 1, 1
    else:
        grid = time_grid(jobs)
        scale = grid.scale
        ids, r, d, p, w = grid.arrays()
    # the rules of _row_violations; d - r is formed once 0 <= r < d holds,
    # so no int64 pass wraps, and the sort for distinct ids comes last
    if not ((ids >= 0).all() and (r >= 0).all() and (r < d).all() and np.all(p > 0)
            and np.all(w >= 0) and np.all(p <= d - r) and _release_ordered(ids, r)
            and ((ordered := np.sort(ids))[1:] != ordered[:-1]).all()):
        v += _row_violations(jobs)
    if instance.model in ("unit-min", "throughput") and not (
            np.all(p == scale)
            and (scale == 1 or not ((r % scale).any() or (d % scale).any()))):
        for j in jobs:
            if j.p != 1:
                v.append(Violation(j.id, "NonUnitLength", f"p={j.p}"))
            if not (_is_integral(j.r) and _is_integral(j.d)):
                v.append(Violation(j.id, "NonIntegerTime",
                                   f"r={j.r}, d={j.d} must be integers"))

    if instance.model == "unit-min" and len(ids) and instance.horizon is not None:
        max_d = _ratio(int(d.max()), scale)
        if instance.horizon != max_d:
            v.append(Violation(None, "HorizonMismatch",
                               f"horizon={instance.horizon}, max deadline={max_d}"))

    if instance.model == "equal-deadline" and len(ids):
        if not (d == d[0]).all():
            v.append(Violation(None, "UnequalDeadlines",
                               "all deadlines must coincide"))
        d0, rest = divmod(int(d[0]), scale)
        if rest or d0 < 1 or (d0 + 1) & d0 != 0:
            v.append(Violation(None, "BadCommonDeadline",
                               f"deadline {_ratio(int(d[0]), scale)} is not of "
                               f"the form 2**k - 1"))

    if instance.model == "throughput" and (instance.k is None or instance.k < 1):
        v.append(Violation(None, "BadMachineCount", f"k={instance.k}"))

    return v


def require_valid(instance: Instance) -> Instance:
    """``instance`` itself when it is valid, else a :class:`ValidationError`
    naming every fault; a pass is kept on an instance whose jobs cannot
    change, which is then not checked again."""
    if instance._checked:
        return instance
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    if type(instance.jobs) in (UnitJobs, GridJobs) or (
            type(instance.jobs) is tuple and all(type(j) is Job for j in instance.jobs)):
        object.__setattr__(instance, "_checked", True)
    return instance


def schedule_cost(schedule: Schedule, jobs: Mapping[int, Job] | None = None) -> int:
    """Maximum number of machines busy at any one instant.

    ``jobs`` supplies processing times; when omitted all assignments are
    treated as unit length.  Overlapping assignments on one machine are a
    contract violation.
    """
    events: list[tuple[Rational, int]] = []
    by_machine: dict[int, list[tuple[Rational, Rational]]] = {}
    for job_id, machine, start in schedule.assignments:
        p = jobs[job_id].p if jobs is not None else 1
        end = start + p
        by_machine.setdefault(machine, []).append((start, end))
        events.append((start, 1))
        events.append((end, -1))
    for machine, ivals in by_machine.items():
        ivals.sort()
        for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
            if s2 < e1:
                raise ContractViolation(
                    f"machine {machine} assignments overlap at {s2}")
    # ends sort before starts at the same instant, so touching intervals
    # do not double-count
    events.sort(key=lambda ev: (ev[0], ev[1]))
    cur = peak = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    return peak


def audit_schedule(schedule: Schedule, instance: Instance) -> list[str]:
    """Independent checks every produced schedule must satisfy.

    Returns human-readable problem descriptions (empty when clean): window
    violations, per-machine overlaps, duplicated jobs, and miss-list
    consistency for the minimization models.
    """
    problems: list[str] = []
    by_id = instance.jobs_by_id()
    assigned: set[int] = set()
    for job_id, machine, start in schedule.assignments:
        job = by_id.get(job_id)
        if job is None:
            problems.append(f"assignment for unknown job {job_id}")
            continue
        if job_id in assigned:
            problems.append(f"job {job_id} assigned more than once")
        assigned.add(job_id)
        if start < job.r:
            problems.append(f"job {job_id} starts at {start} before release {job.r}")
        if start + job.p > job.d:
            problems.append(f"job {job_id} ends at {start + job.p} after deadline {job.d}")
    try:
        schedule_cost(schedule, by_id)
    except ContractViolation as exc:
        problems.append(str(exc))
    missed = set(schedule.misses)
    if assigned & missed:
        problems.append(f"jobs both scheduled and missed: {sorted(assigned & missed)}")
    if instance.model in ("unit-min", "equal-deadline"):
        untracked = {j.id for j in instance.jobs} - assigned - missed
        if untracked:
            problems.append(f"jobs neither scheduled nor missed: {sorted(untracked)}")
    return problems


# ---------------------------------------------------------------------------
# JSON serialization.  Non-integral rationals travel as decimal strings, or
# as "p/q" strings when no finite decimal exists, so files stay exact;
# floats are never written.  Every file and transcript is ``json.dumps``
# indented by one space with sorted keys.  CPython writes indented JSON in
# its pure-Python encoder, so :func:`dump_json` writes the same bytes from
# joins of C-level maps, and leaves what it cannot prove identical to
# ``json.dumps``.

class _Unproven(Exception):
    """A value :func:`dump_json` leaves to ``json.dumps``."""


def _float_json(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


#: ``json.dumps``' text of each scalar type; subclasses are not keys.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_json,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_scalars(values: Sequence) -> Iterable[str] | None:
    """The JSON text of each value, or ``None`` unless every value is a
    scalar of one of the ``_SCALAR_JSON`` types."""
    kinds = set(map(type, values))
    if not kinds <= _SCALAR_JSON.keys():
        return None
    if len(kinds) == 1:
        return map(_SCALAR_JSON[kinds.pop()], values)
    return [_SCALAR_JSON[type(x)](x) for x in values]


def _json_object(fields: Iterable[tuple[str, str]], depth: int) -> str:
    """An object of ``(key, value text)`` pairs, in the order given, whose
    opening line is indented by ``depth``."""
    inner = "\n" + " " * (depth + 1)
    body = ("," + inner).join(f"{encode_basestring_ascii(key)}: {text}"
                              for key, text in fields)
    return f"{{{inner}{body}\n{' ' * depth}}}" if body else "{}"


def _json_array(items: Iterable[str], depth: int) -> str:
    inner = "\n" + " " * (depth + 1)
    body = ("," + inner).join(items)
    return f"[{inner}{body}\n{' ' * depth}]" if body else "[]"


def _json_rows(keys: Sequence[str], columns: Sequence[Iterable[str]],
               depth: int) -> Iterable[str]:
    """Objects of the sorted ``keys``, one per row of the value texts in
    ``columns``, each filled into one template at ``depth``."""
    template = _json_object([(key.replace("%", "%%"), "%s") for key in keys],
                            depth)
    return map(template.__mod__, zip(*columns))


def _json_items(values: Sequence, depth: int) -> Iterable[str]:
    """The texts of a list's items at ``depth``: scalars by one map, flat
    objects that share one key set by one template, anything else one by
    one."""
    texts = _json_scalars(values)
    if texts is not None:
        return texts
    if set(map(type, values)) == {dict} and set(map(type, values[0])) == {str}:
        keys = sorted(values[0])
        if set(map(len, values)) == {len(keys)}:
            try:
                columns = [_json_scalars(list(map(itemgetter(key), values)))
                           for key in keys]
            except KeyError:
                columns = [None]
            if None not in columns:
                return _json_rows(keys, columns, depth)
    return [_json(x, depth) for x in values]


def _json(obj, depth: int) -> str:
    """``obj`` as :func:`dump_json` writes it on a line indented by
    ``depth``; raises :class:`_Unproven` for what it leaves to the caller."""
    kind = type(obj)
    if kind in _SCALAR_JSON:
        return _SCALAR_JSON[kind](obj)
    if kind is dict and set(map(type, obj)) <= {str}:
        return _json_object([(key, _json(obj[key], depth + 1))
                             for key in sorted(obj)], depth)
    if kind is list or kind is tuple:
        return _json_array(_json_items(obj, depth + 1), depth)
    raise _Unproven


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True)``, byte for byte.

    Written from exact ``dict``s with ``str`` keys, ``list``s, ``tuple``s
    and scalars of exactly ``str``, ``int``, ``float``, ``bool`` and
    ``None``: a list of scalars is one join, and a list of flat objects
    that share one key set fills one row template.  Any other object
    anywhere in ``obj`` (another key type, a subclass, a value JSON cannot
    hold) or a reference cycle sends all of ``obj`` to ``json.dumps``, which
    writes it or raises as it always does.  An int past Python's digit
    limit in an object it writes itself is refused as a
    :class:`ContractViolation` (:func:`_past_digit_limit`).
    """
    try:
        return _json(obj, 0)
    except (_Unproven, RecursionError):
        return json.dumps(obj, indent=1, sort_keys=True)
    except ValueError:
        # of the exact scalar types only an int's text can raise
        raise _past_digit_limit() from None


def _past_digit_limit() -> ContractViolation:
    """The refusal of an int too long to write: Python converts ints of at
    most ``sys.get_int_max_str_digits()`` digits to text."""
    return ContractViolation(
        f"a number has more than {sys.get_int_max_str_digits()} digits, "
        f"Python's limit for writing an int as text")


def _quotient_out(num: int, den: int):
    """``num / den`` (``den > 0``) as the files write it: an ``int`` when
    integral, else the shortest exact decimal string, else ``"p/q"`` in
    lowest terms."""
    g = gcd(num, den)
    if g == den:
        return num // den
    num //= g
    den //= g
    # A finite decimal needs as many digits as the larger power of 2 or 5
    # in the denominator; the bit length bounds both.
    digits = den.bit_length()
    scaled, rest = divmod(num * 10 ** digits, den)
    try:
        if rest:
            return f"{num}/{den}"
        text = str(abs(scaled)).rjust(digits + 1, "0")
    except ValueError:
        raise _past_digit_limit() from None
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-digits]}.{text[-digits:].rstrip('0')}"


def _num_out(x: Rational):
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return _quotient_out(f.numerator, f.denominator)


def _decimal_parts(text: str) -> tuple[int, int] | None:
    """``(num, places)`` with ``Fraction(text) == num / 10**places`` for
    ``text`` of the form ``[-]digits[.digits]``; ``None`` for any other
    string.  The two digit runs convert apart, as ``Fraction`` converts
    them, so their length limits are the same."""
    sign, body = (-1, text[1:]) if text[:1] == "-" else (1, text)
    whole, dot, decimals = body.partition(".")
    if not (whole.isdecimal() and (not dot or decimals.isdecimal())):
        return None
    places = len(decimals)
    num = int(whole) * 10 ** places + (int(decimals) if decimals else 0)
    return sign * num, places


def _check_exponent(text: str) -> None:
    """Raise ``ValueError`` for an exponent in ``text`` larger in size than
    ``sys.get_int_max_str_digits()``: the value would have more digits than
    Python reads or writes.  Any other text is left to ``Fraction``."""
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if e and limit:
        try:
            size = abs(int(exponent))
        except ValueError:
            return
        if size > limit:
            raise ValueError(f"exponent {size} is past {limit}")


def _num_in(value, where: str) -> Rational:
    """A file's number: a JSON int as it is, a finite float or a string as
    the exact rational ``Fraction`` reads from it, an ``int`` when
    integral.  Plain decimal strings (:func:`_decimal_parts`) are read
    apart and every other string by ``Fraction(str)``, with the same values
    and refusals, except that an exponent past Python's digit-string limit
    is refused before ``Fraction`` builds ``10**exponent``."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            parts = _decimal_parts(value)
            if parts is not None:
                return _ratio(parts[0], 10 ** parts[1])
            _check_exponent(value)
            f = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: bad numeric string {value!r}") from None
    elif isinstance(value, float):
        if not isfinite(value):
            raise ParseError(f"{where}: expected a finite number, got {value!r}")
        f = Fraction(str(value))
    else:
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    return int(f) if f.denominator == 1 else f


def _quotients_out(nums: Sequence[int], scale: int) -> list:
    """Each ``num / scale`` as :func:`_quotient_out` writes it.

    A column of non-negative numerators is written by remainder class: one
    ``divmod`` per value, and one tail per distinct remainder ``r``, which
    ``_quotient_out(r, scale)`` writes.  ``num / scale`` is
    ``q + r / scale``, and ``r / scale`` in lowest terms has the
    denominator of the whole, so when every tail is a decimal
    (``"0.0625"``) each value is ``q``'s digits and the tail's
    (``".0625"``).  Any other column (a ``"p/q"`` tail, a negative
    numerator, which ``divmod`` floors, or a text that could reach
    Python's int/str digit limit) is written once per distinct numerator
    by ``_quotient_out`` itself, refusals included."""
    limit = sys.get_int_max_str_digits()
    # _quotient_out scales num by at most 10**scale.bit_length(), and num
    # has at most 0.31 digits a bit, plus one
    if nums and min(nums) >= 0 and (not limit or max(nums).bit_length() * 31 // 100
                                    + scale.bit_length() + 2 <= limit):
        qrs = list(map(divmod, nums, repeat(scale)))
        tails = {r: _quotient_out(r, scale) for r in set(map(itemgetter(1), qrs)) if r}
        if not any("/" in tail for tail in tails.values()):
            cut = {r: tail[1:] for r, tail in tails.items()}
            return [f"{q}{cut[r]}" if r else q for q, r in qrs]
    texts = {num: _quotient_out(num, scale) for num in set(nums)}
    return list(map(texts.__getitem__, nums))


def _job_columns(jobs: Sequence[Job]) -> dict[str, Sequence]:
    """The jobs' fields as a file holds them, one column per key, in key
    order: unit columns as they are, and the numerators of any other jobs'
    :func:`time_grid` over its scale."""
    if isinstance(jobs, UnitJobs):
        ones = [1] * len(jobs)
        return {"d": jobs.d.tolist(), "id": jobs.ids.tolist(), "p": ones,
                "r": jobs.r.tolist(), "w": ones}
    grid = time_grid(jobs)
    d, p, r, w = (_quotients_out(col, grid.scale) for col in (grid.d, grid.p, grid.r, grid.w))
    return {"d": d, "id": grid.ids, "p": p, "r": r, "w": w}


def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {"model": instance.model}
    if instance.k is not None:
        doc["k"] = instance.k
    if instance.horizon is not None:
        doc["horizon"] = instance.horizon
    columns = _job_columns(instance.jobs)
    doc["jobs"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return doc


def write_instance(instance: Instance) -> str:
    """The instance file, ``dump_json(instance_to_dict(instance))`` and a
    newline, for a valid instance.  The job rows fill one template straight
    from the job columns, with no object per job; the header's ``model``,
    ``k`` and ``horizon`` are scalars, written one text each."""
    require_valid(instance)
    header = {"model": instance.model, "k": instance.k,
              "horizon": instance.horizon}
    header = {key: value for key, value in header.items() if value is not None}
    columns = _job_columns(instance.jobs)
    try:
        texts = [_json_scalars(column)
                 for column in (list(header.values()), *columns.values())]
        if None in texts:
            # a value that is no plain JSON scalar leaves the file to dump_json
            return dump_json(instance_to_dict(instance)) + "\n"
        fields = dict(zip(header, texts[0]))
        fields["jobs"] = _json_array(_json_rows(list(columns), texts[1:], 2), 1)
        return _json_object(sorted(fields.items()), 0) + "\n"
    except ValueError:
        # of the exact scalar types only an int's text can raise
        raise _past_digit_limit() from None


def _decimal_column(values: list) -> tuple[list[int], int] | None:
    """A column of JSON ints and plain decimal strings
    (:func:`_decimal_parts`) as ``(nums, places)``, value ``i`` being
    ``nums[i] / 10**places``; ``None`` for a column holding any other value.

    Each value's text splits at its first ``.``: every whole part must be
    digits after at most one ``-``, and every distinct fractional tail is
    checked, and padded to ``places`` digits, once.  A value is then one
    ``int`` of its whole part and padded tail, sign included.  Those digits
    pass Python's int/str limit whenever either run does; where they pass
    it the column is ``None`` too, and the row reader (:func:`_job_rows`)
    reads the file by ``_decimal_parts``, with the same values and refusals."""
    kinds = set(map(type, values))
    if kinds <= {int}:
        return values, 0
    if kinds - {int, str}:
        return None
    try:
        wholes, dots, tails = zip(*map(str.partition, map(str, values), repeat(".")))
        if not all(map(str.isdecimal, map(str.removeprefix, wholes, repeat("-")))):
            return None
        distinct = set(tails)
        # a dot needs digits after it
        if (dots.count(".") != len(tails) - tails.count("")
                or not all(tail.isdecimal() for tail in distinct if tail)):
            return None
        places = max(map(len, distinct))
        padded = {tail: tail.ljust(places, "0") for tail in distinct}
        return list(map(int, map(add, wholes, map(padded.__getitem__, tails)))), places
    except ValueError:
        return None


def _jobs_in(raw_jobs: list) -> GridJobs | None:
    """Columns of job objects whose ``id`` is a JSON int and whose ``r``,
    ``d``, ``p`` and ``w`` (``p`` and ``w`` 1 when absent) are JSON ints or
    plain decimal strings, over the power of ten the longest decimal needs,
    sorted by ``(r, id)`` as the row reader sorts; ``None`` for any other
    list, which :func:`_job_rows` parses."""
    if set(map(type, raw_jobs)) - {dict}:
        return None
    try:
        ids, *values = [list(map(itemgetter(key), raw_jobs))
                        for key in ("id", "r", "d")]
    except KeyError:
        return None
    if set(map(type, ids)) - {int}:
        return None
    values += [list(map(dict.get, raw_jobs, repeat(key), repeat(1))) for key in ("p", "w")]
    columns = list(map(_decimal_column, values))
    if None in columns:
        return None
    places = max(k for _, k in columns)
    r, d, p, w = [list(map((10 ** (places - k)).__mul__, nums)) if k < places
                  else nums for nums, k in columns]
    jobs = GridJobs(ids, r, d, p, 10 ** places, w)
    exact_ids, exact_r = jobs.arrays()[:2]
    if not _release_ordered(exact_ids, exact_r):
        order = np.lexsort((exact_ids, exact_r)).tolist()
        jobs = GridJobs(*([col[i] for i in order] for col in (ids, r, d, p)), 10 ** places,
                        [w[i] for i in order])
    return jobs


def _job_rows(raw_jobs: list) -> list[Job]:
    jobs = []
    for idx, entry in enumerate(raw_jobs):
        if not isinstance(entry, dict):
            raise ParseError(f"jobs[{idx}]: expected an object")
        where = f"jobs[{idx}]"
        for req in ("id", "r", "d"):
            if req not in entry:
                raise ParseError(f'{where}: missing field "{req}"')
        job_id = entry["id"]
        if not isinstance(job_id, int) or isinstance(job_id, bool):
            raise ParseError(f"{where}: id must be an integer")
        jobs.append(Job(
            id=job_id,
            r=_num_in(entry["r"], f"{where}.r"),
            d=_num_in(entry["d"], f"{where}.d"),
            p=_num_in(entry.get("p", 1), f"{where}.p"),
            w=_num_in(entry.get("w", 1), f"{where}.w"),
        ))
    return jobs


def instance_from_dict(doc: dict) -> Instance:
    """Parse and validate an instance document of any model.

    The jobs are read as :class:`GridJobs` columns: by :func:`_jobs_in`
    when every value is a JSON int or plain decimal, else from ``Job`` rows
    (:func:`_job_rows`), which parse the other number forms and name the
    field at fault.  The grid is validated once, and the instance returned
    is checked: a unit-min one as :class:`UnitJobs` (:func:`unit_columns`),
    which must fit int64, an equal-deadline one as ``GridJobs`` of unit
    weight; only a throughput one, whose engines read them, keeps weights."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if "model" not in doc:
        raise ParseError('missing field "model"')
    model = doc["model"]
    if not isinstance(model, str):
        raise ParseError('"model" must be a string')
    raw_jobs = doc.get("jobs")
    if not isinstance(raw_jobs, list):
        raise ParseError('missing or bad field "jobs"')
    jobs = _jobs_in(raw_jobs)
    if jobs is None:
        rows = _job_rows(raw_jobs)
        rows.sort(key=lambda j: (j.r, j.id))
        jobs = time_grid(rows)
    k, horizon = doc.get("k"), doc.get("horizon")
    for key, value in (("k", k), ("horizon", horizon)):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise ParseError(f'"{key}" must be an integer')
    instance = require_valid(Instance(model, jobs, k, horizon))
    if model == "throughput":
        return instance
    narrowed = Instance(model, unit_columns(jobs) if model == "unit-min" else
                        GridJobs(jobs.ids, jobs.r, jobs.d, jobs.p, jobs.scale), k, horizon)
    # the checked jobs, less their weights: the pass holds for them too
    object.__setattr__(narrowed, "_checked", True)
    return narrowed


def read_instance(text: str) -> Instance:
    """Parse and validate an instance file (:func:`instance_from_dict`).
    Text that is not JSON, or nests too deeply for the parser, is a
    :class:`ParseError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("bad JSON: arrays or objects nested too deeply") from None
    except ValueError:
        # json.loads reads every int, and refuses one past the digit limit
        raise ParseError(
            f"bad JSON: a number has more than {sys.get_int_max_str_digits()} "
            f"digits, Python's limit for reading an int from text") from None
    return instance_from_dict(doc)
