"""The row reader that ``core.instance_from_dict`` was before a unit-min file
came back as int64 columns.

Every job becomes a ``Job`` row, weight included, whatever the model; the
rows are sorted by ``(release, id)`` and validated by the row validator.
The tests compare the column reader with it on documents of each model.
"""

from __future__ import annotations

from reference_equal_deadline import reference_validate_instance
from schedlab.core import Instance, Job, ParseError, ValidationError, _num_in


def reference_instance_from_dict(doc: dict) -> Instance:
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
    violations = reference_validate_instance(instance)
    if violations:
        raise ValidationError(violations)
    return instance
