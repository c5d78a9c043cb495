"""Shared job-scheduling domain types and serialization.

All scheduling models in this package move jobs ``(id, r, d, p, w)`` around:
a job is released at time ``r``, must complete by deadline ``d``, needs ``p``
units of processing, and pays weight ``w`` if completed.  Unit-job models keep
all times integral; the equal-deadline model allows exact rationals
(``fractions.Fraction``), which serialize as exact strings.

Time convention: a unit job placed in slot ``t`` occupies ``[t, t+1)`` and
therefore needs ``t + 1 <= d``.  Every module in this package uses this
completion-based convention; there is no "inclusive deadline slot" anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Union

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
    instance from unordered jobs.  ``k`` is the machine count for the
    throughput model.  ``horizon`` is the maximum deadline of a unit-job
    instance and is carried explicitly so files round-trip byte for byte.
    """

    model: str
    jobs: tuple[Job, ...]
    k: int | None = None
    horizon: int | None = None

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


@dataclass
class Schedule:
    """Assignments are ``(job_id, machine_id, start)`` triples.

    ``misses`` lists jobs that were not completed by their deadline.  For
    minimization models every job appears either in ``assignments`` or in
    ``misses``; for the throughput model a job appears at most once.
    """

    assignments: list[tuple[int, int, Rational]] = field(default_factory=list)
    misses: list[int] = field(default_factory=list)


@dataclass
class MachineProfile:
    """Time-varying machine counts: ``counts[t]`` machines during ``[t, t+1)``.

    Steps absent from ``counts`` provide zero machines.
    """

    counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def constant(cls, m: int, horizon: int) -> "MachineProfile":
        return cls({t: m for t in range(horizon)})

    @classmethod
    def from_series(cls, series: Iterable[int]) -> "MachineProfile":
        return cls({t: m for t, m in enumerate(series)})

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


def validate_instance(instance: Instance) -> list[Violation]:
    """Check all model invariants; returns an empty list when valid."""
    v: list[Violation] = []
    if instance.model not in MODELS:
        v.append(Violation(None, "BadModel", f"unknown model {instance.model!r}"))
        return v

    seen: set[int] = set()
    prev_key = None
    for j in instance.jobs:
        if j.id < 0:
            v.append(Violation(j.id, "BadId", "ids must be non-negative"))
        if j.id in seen:
            v.append(Violation(j.id, "DuplicateId", "job id reused"))
        seen.add(j.id)
        key = (j.r, j.id)
        if prev_key is not None and key < prev_key:
            v.append(Violation(j.id, "UnsortedJobs",
                               "jobs must be sorted by (release, id)"))
        prev_key = key
        if j.r < 0:
            v.append(Violation(j.id, "NegativeRelease", f"r={j.r}"))
        if j.p <= 0:
            v.append(Violation(j.id, "NonPositiveLength", f"p={j.p}"))
        if j.w < 0:
            v.append(Violation(j.id, "NegativeWeight", f"w={j.w}"))
        if j.r + j.p > j.d:
            v.append(Violation(j.id, "WindowTooSmall",
                               f"r+p={j.r + j.p} exceeds d={j.d}"))

    if instance.model in ("unit-min", "throughput"):
        for j in instance.jobs:
            if j.p != 1:
                v.append(Violation(j.id, "NonUnitLength", f"p={j.p}"))
            if not (_is_integral(j.r) and _is_integral(j.d)):
                v.append(Violation(j.id, "NonIntegerTime",
                                   f"r={j.r}, d={j.d} must be integers"))

    if instance.model == "unit-min" and instance.jobs and instance.horizon is not None:
        max_d = max(j.d for j in instance.jobs)
        if instance.horizon != max_d:
            v.append(Violation(None, "HorizonMismatch",
                               f"horizon={instance.horizon}, max deadline={max_d}"))

    if instance.model == "equal-deadline" and instance.jobs:
        d0 = instance.jobs[0].d
        if any(j.d != d0 for j in instance.jobs):
            v.append(Violation(None, "UnequalDeadlines",
                               "all deadlines must coincide"))
        if not _is_integral(d0) or int(d0) < 1 or (int(d0) + 1) & int(d0) != 0:
            v.append(Violation(None, "BadCommonDeadline",
                               f"deadline {d0} is not of the form 2**k - 1"))

    if instance.model == "throughput":
        if instance.k is None or instance.k < 1:
            v.append(Violation(None, "BadMachineCount", f"k={instance.k}"))

    return v


def require_valid(instance: Instance) -> Instance:
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)
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
# floats are never written.

def _num_out(x: Rational):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    # A finite decimal needs as many digits as the larger power of 2 or 5
    # in the denominator; the bit length bounds both.
    digits = f.denominator.bit_length()
    scaled, rest = divmod(f.numerator * 10 ** digits, f.denominator)
    if rest:
        return str(f)
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:].rstrip('0')}"


def _num_in(value, where: str) -> Rational:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            f = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: bad numeric string {value!r}") from None
    elif isinstance(value, float):
        f = Fraction(str(value))
    else:
        raise ParseError(f"{where}: expected a number, got {type(value).__name__}")
    return int(f) if f.denominator == 1 else f


def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {"model": instance.model}
    if instance.k is not None:
        doc["k"] = instance.k
    if instance.horizon is not None:
        doc["horizon"] = instance.horizon
    doc["jobs"] = [
        {"id": j.id, "r": _num_out(j.r), "d": _num_out(j.d),
         "p": _num_out(j.p), "w": _num_out(j.w)}
        for j in instance.jobs
    ]
    return doc


def write_instance(instance: Instance) -> str:
    require_valid(instance)
    return json.dumps(instance_to_dict(instance), indent=1, sort_keys=True) + "\n"


def instance_from_dict(doc: dict) -> Instance:
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
    k = doc.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise ParseError('"k" must be an integer')
    horizon = doc.get("horizon")
    if horizon is not None and (not isinstance(horizon, int) or isinstance(horizon, bool)):
        raise ParseError('"horizon" must be an integer')
    jobs.sort(key=lambda j: (j.r, j.id))
    instance = Instance(model=model, jobs=tuple(jobs), k=k, horizon=horizon)
    require_valid(instance)
    return instance


def read_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON at line {exc.lineno}: {exc.msg}") from None
    return instance_from_dict(doc)
