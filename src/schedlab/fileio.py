"""The file edges of every model: the number codec, the JSON writer and
the instance reader and writer.

Non-integral rationals travel as decimal strings, or as ``"p/q"`` strings
when no finite decimal exists; floats are never written.  Every file and
transcript is ``json.dumps`` indented by one space with sorted keys, which
CPython writes in its pure-Python encoder, so :func:`dump_json` writes the
same bytes from joins of C-level maps.  Every instance file is read by one
column reader (:func:`_jobs_in`) and validated once as columns.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import gcd, inf, isfinite
from operator import add, itemgetter
from typing import Iterable, Sequence

from .core import (ContractViolation, GridJobs, Instance, Job, ParseError, Rational,
                   UnitJobs, _lcm_grid, _ratio, require_valid, time_grid, unit_columns)


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


def _num_in(value, where: str) -> Rational:
    """A file's number: a JSON int as it is, a finite float or a string as
    the exact rational ``Fraction`` reads from it, an ``int`` when
    integral.  An exponent larger in size than Python's int/str digit
    limit is refused before ``Fraction`` builds ``10**exponent``: the value
    would have more digits than Python reads or writes.  ``Fraction``
    refuses any text whose exponent ``int`` refuses."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        try:
            if e and limit and abs(int(exponent)) > limit:
                raise ValueError
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
    (``[-]digits[.digits]``) as ``(nums, places)``, value ``i`` being
    ``nums[i] / 10**places``; ``None`` for a column holding any other value.

    Each value's text splits at its first ``.``: every whole part must be
    digits after at most one ``-``, and every distinct fractional tail is
    checked, and padded to ``places`` digits, once.  A value is then one
    ``int`` of its whole part and padded tail, sign included.  Where those
    digits pass Python's int/str limit the column is ``None`` too, and
    :func:`_num_in` reads it: ``Fraction`` converts the two runs apart."""
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


def _rational_column(values: list, name: str) -> tuple[list[Rational], ParseError | None]:
    """Column ``name`` by :func:`_num_in` up to the first value it refuses,
    and that refusal (``None`` if none)."""
    read = []
    for at, value in enumerate(values):
        try:
            read.append(_num_in(value, f"jobs[{at}].{name}"))
        except ParseError as refusal:
            return read, refusal
    return read, None


def _entry_fault(entry) -> str | None:
    """A job entry's first fault before its numbers, or ``None``."""
    if not isinstance(entry, dict):
        return "expected an object"
    for key in ("id", "r", "d"):
        if key not in entry:
            return f'missing field "{key}"'
    if not isinstance(entry["id"], int) or isinstance(entry["id"], bool):
        return "id must be an integer"
    return None


def _jobs_in(raw_jobs: list) -> GridJobs:
    """The one reader of a file's jobs: :class:`GridJobs` sorted by
    ``(r, id)``, ties in file order.  ``r``, ``d``, ``p`` and ``w`` (``p``
    and ``w`` 1 when absent) are read as columns, by :func:`_decimal_column`
    or else :func:`_rational_column`, over the power of ten the longest
    decimal needs when ``_decimal_column`` reads all four, else over
    :func:`~schedlab.core.time_grid`'s lcm.  The fault refused is the first
    by row, then by check (:func:`_entry_fault`, then the columns in
    order): each check reads only the rows before the faults found so far."""
    count, fault = len(raw_jobs), None
    try:
        # entries are checked one by one only where the columns cannot be taken whole
        if set(map(type, raw_jobs)) - {dict}:
            raise KeyError
        ids, *values = [list(map(itemgetter(key), raw_jobs)) for key in ("id", "r", "d")]
        if set(map(type, ids)) - {int}:
            raise KeyError
    except KeyError:
        count, why = next(((at, why) for at, why in enumerate(map(_entry_fault, raw_jobs))
                           if why), (count, None))
        fault = why and ParseError(f"jobs[{count}]: {why}")
        ids, *values = [list(map(itemgetter(key), raw_jobs[:count])) for key in ("id", "r", "d")]
    values += [list(map(dict.get, raw_jobs[:count], repeat(key), repeat(1))) for key in ("p", "w")]
    columns = []
    for name, column in zip("rdpw", values):
        del column[count:]
        parts = _decimal_column(column)
        if parts is None:
            rationals, refusal = _rational_column(column, name)
            if refusal is not None:
                count, fault = len(rationals), refusal
            parts = rationals, None
        columns.append(parts)
    if fault is not None:
        raise fault
    if any(places is None for _, places in columns):
        return _lcm_grid(ids, *(nums if places is None else list(map(
            _ratio, nums, repeat(10 ** places))) for nums, places in columns))._in_release_order()
    top = max(places for _, places in columns)
    r, d, p, w = (nums if places == top else list(map((10 ** (top - places)).__mul__, nums))
                  for nums, places in columns)
    return GridJobs(ids, r, d, p, 10 ** top, w)._in_release_order()


def instance_from_dict(doc: dict) -> Instance:
    """Parse and validate an instance document of any model: its jobs'
    :class:`GridJobs` (:func:`_jobs_in`) are validated once, and returned
    checked as :class:`UnitJobs` (:func:`unit_columns`, int64) for
    unit-min, as ``GridJobs`` of unit weight for equal-deadline, and with
    their weights, which its engines read, for throughput."""
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
