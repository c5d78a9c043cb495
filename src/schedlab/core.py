"""Shared job-scheduling domain types and their validation.

All scheduling models in this package move jobs ``(id, r, d, p, w)`` around:
a job is released at time ``r``, must complete by deadline ``d``, needs ``p``
units of processing, and pays weight ``w`` if completed.  Unit-job models keep
all times integral; the equal-deadline model allows exact rationals
(``fractions.Fraction``), which serialize as exact strings.

Time convention: a unit job placed in slot ``t`` occupies ``[t, t+1)`` and
therefore needs ``t + 1 <= d``.  Every module in this package uses this
completion-based convention; there is no "inclusive deadline slot" anywhere.

Every instance file is read into :class:`GridJobs` columns and validated
once as columns (:mod:`schedlab.fileio` holds the file edges).  Inside the
library ``Job`` rows are built only for callers outside it and to name a
fault.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import lcm, log10
from operator import index
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


def exact_int(value, name: str) -> int:
    """``value`` as a Python int: an ``int`` or a numpy integer, through
    ``operator.index``.  A bool, float, ``Fraction`` or string is refused,
    by ``name``, rather than truncated or read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise ContractViolation(f"{name} must be an integer, got {value!r}")


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
        the same step.  A block in ``(d, id)`` order, as every block of the
        adversary stream is, is not sorted, and its ids are one tuple.
        """
        if self._groups is None:
            order, heads, deadlines = _deadline_runs(self.ids, self.d)
            ids = tuple(self.ids.tolist())  # reordered below as the same int objects
            grouped = ids if order is None else tuple(map(ids.__getitem__, order.tolist()))
            heads = heads.tolist()  # a run over the whole tuple is that tuple
            object.__setattr__(self, "_groups", tuple(zip(deadlines.tolist(), map(
                grouped.__getitem__, map(slice, heads, heads[1:] + [len(ids)])))))
            object.__setattr__(self, "_id_list", ids)  # the ints the groups hold
        return self._groups


def _in_order(*keys) -> bool:
    """Whether equal-length columns are in ``np.lexsort(keys)`` order:
    sorted by the last key, ties by the one before it, and so on."""
    ok = keys[0][1:] >= keys[0][:-1]
    for key in keys[1:]:
        ok = (key[1:] > key[:-1]) | ((key[1:] == key[:-1]) & ok)
    return bool(ok.all())


def _deadline_runs(ids, d, r=None):
    """The one grouping rule of unit jobs: the indices that put them in
    ``(r, d, id)`` order (``r`` sorted, or absent), ``None`` when they are
    in it, and the first position and the deadline of each run of one
    ``(r, d)`` in that order, from which a caller cuts the groups it needs."""
    keys, cut = (ids, d) if r is None else (ids, d, r), d[1:] != d[:-1]
    mixed = r is not None or cut.any()  # else one deadline: ids alone decide
    order = None if _in_order(*keys if mixed else keys[::2]) else np.lexsort(keys)
    if order is not None:
        d = d[order]
        cut = d[1:] != d[:-1]  # a sorted r stays as it is
    if r is not None:
        cut |= r[1:] != r[:-1]
    heads = np.flatnonzero(np.append(len(d) > 0, cut))
    return order, heads, d[heads]


def unit_columns(jobs: Iterable[Job]) -> UnitJobs:
    """The one narrowing of :class:`GridJobs`, or of ``Job`` rows by their
    :func:`time_grid`, to unit columns, order kept.

    Refuses jobs that are not unit length, windows that are not integral
    and values beyond int64.  Weights are dropped: every engine that runs
    on columns ignores them.  Grid columns are checked whole, as the
    grid's :meth:`~GridJobs.arrays`; rows are built only to name a fault.
    """
    if isinstance(jobs, UnitJobs):
        return jobs
    grid = time_grid(jobs)
    scale = grid.scale
    ids, r, d, p, _ = grid.arrays()
    for j in () if _unit_grid(r, d, p, scale) else grid:
        if j.p != 1:
            raise ContractViolation(f"job {j.id} is not a unit job: p={_shown(j.p)}")
        if not (_is_integral(j.r) and _is_integral(j.d)):
            raise ContractViolation(
                f"job {j.id} has a non-integer window [{_shown(j.r)}, {_shown(j.d)})")
    # numpy reads bools as ints: ids holding one go on as they are, to be refused
    return UnitJobs(grid.ids if bool in set(map(type, grid.ids)) else ids, r // scale, d // scale)


def _unit_grid(r, d, p, scale) -> bool:
    """Whether grid columns over ``scale`` hold unit jobs in integral windows."""
    return np.all(p == scale) and (scale == 1 or not ((r % scale).any() or (d % scale).any()))


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
            self._keep(tuple(_exact_column(col, self.scale > INT64_MAX)
                             for col in (self.ids, self.r, self.d, self.p, self.w)))
        return self._arrays

    def _keep(self, arrays: tuple[np.ndarray, ...]) -> GridJobs:
        for column in arrays:
            column.flags.writeable = False
        object.__setattr__(self, "_arrays", arrays)
        return self

    def _in_release_order(self) -> GridJobs:
        """These jobs sorted by ``(r, id)``, ties in order, with their
        :meth:`arrays` taken in the same order rather than converted again."""
        arrays = self.arrays()
        if _in_order(*arrays[:2]):
            return self
        index = (order := np.lexsort(arrays[:2])).tolist()
        ids, r, d, p, w = (list(map(column.__getitem__, index))
                           for column in (self.ids, self.r, self.d, self.p, self.w))
        return GridJobs(ids, r, d, p, self.scale, w)._keep(tuple(a[order] for a in arrays))

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
    weights kept, by :func:`_lcm_grid`."""
    if isinstance(jobs, GridJobs):
        return jobs
    rows = tuple(jobs)
    return _lcm_grid(*zip(*rows) if rows else ((),) * 5)


def _lcm_grid(ids, *columns) -> GridJobs:
    """``ids`` and ``r``, ``d``, ``p``, ``w`` columns of ints or ``Fraction``s
    as :class:`GridJobs` over the lcm of their denominators, 1 for ints."""
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


def _shown(x: Rational) -> str:
    """A number as violation texts write it; one past Python's int/str
    digit limit by the digit counts of its numerator and denominator."""
    try:
        return str(x)
    except ValueError:
        top, bottom = [(k := int(n.bit_length() * log10(2))) + (n >= 10**k)
                       for n in map(abs, Fraction(x).as_integer_ratio())]
        return f"{'-' * (x < 0)}<{top} digits over {bottom}>"


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
            v.append(Violation(jid, "NegativeRelease", f"r={_shown(r)}"))
        if p <= 0:
            v.append(Violation(jid, "NonPositiveLength", f"p={_shown(p)}"))
        if w < 0:
            v.append(Violation(jid, "NegativeWeight", f"w={_shown(w)}"))
        if r + p > d:
            v.append(Violation(jid, "WindowTooSmall",
                               f"r+p={_shown(r + p)} exceeds d={_shown(d)}"))
    return v


def _exact_column(values, wide: bool = False) -> np.ndarray:
    """``values`` as int64 when numpy reads them as integers that fit (an
    int64 array as it is) and not ``wide``, else as an object array of the
    values."""
    column = np.asarray(values, object if wide else None)
    if column.dtype.kind in "ib":
        return column.astype(np.int64, copy=False)
    return column if column.dtype == object else np.array(values, dtype=object)


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
            and np.all(w >= 0) and np.all(p <= d - r) and _in_order(ids, r)
            and ((ordered := np.sort(ids))[1:] != ordered[:-1]).all()):
        v += _row_violations(jobs)
    if instance.model in ("unit-min", "throughput") and not _unit_grid(r, d, p, scale):
        for j in jobs:
            if j.p != 1:
                v.append(Violation(j.id, "NonUnitLength", f"p={_shown(j.p)}"))
            if not (_is_integral(j.r) and _is_integral(j.d)):
                v.append(Violation(j.id, "NonIntegerTime",
                                   f"r={_shown(j.r)}, d={_shown(j.d)} must be integers"))

    if instance.model == "unit-min" and len(ids) and instance.horizon is not None:
        max_d = _ratio(int(d.max()), scale)
        if instance.horizon != max_d:
            v.append(Violation(None, "HorizonMismatch",
                               f"horizon={_shown(instance.horizon)}, "
                               f"max deadline={_shown(max_d)}"))

    if instance.model == "equal-deadline" and len(ids):
        if not (d == d[0]).all():
            v.append(Violation(None, "UnequalDeadlines",
                               "all deadlines must coincide"))
        d0, rest = divmod(int(d[0]), scale)
        if rest or d0 < 1 or (d0 + 1) & d0 != 0:
            v.append(Violation(None, "BadCommonDeadline",
                               f"deadline {_shown(_ratio(int(d[0]), scale))} is not of "
                               f"the form 2**k - 1"))

    if instance.model == "throughput" and (instance.k is None or instance.k < 1):
        v.append(Violation(None, "BadMachineCount", f"k={_shown(instance.k)}"))

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


# perfbench traces these two by their names here: the objects fileio defines.
from .fileio import read_instance, write_instance  # noqa: E402,F401
