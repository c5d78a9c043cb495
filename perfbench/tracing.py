"""Spans recorded from outside the library, and the self time they imply.

A traced run wraps public callables of ``schedlab`` at its module boundaries
(see ``install``) and opens explicit spans around the benchmark's own steps.
Each call becomes one ``Span``: a name, start and end on one clock, the index
of the span that was open when it started, and the op it belongs to.  A span's
self time is its duration minus the time its direct children cover; calls are
sequential in one thread, so children never overlap.

Nothing here imports ``schedlab``: the wrappers resolve their targets by module
and attribute name when they are installed, and a target that no longer exists
is reported as missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The module a span belongs to: its name up to the first dot."""
        return self.name.split(".", 1)[0]


class Tracer:
    """Keeps spans in memory; ``span`` and ``wrap`` feed the same list."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.active = True      # wrappers record spans only while True

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = Span(name, self.clock(), 0.0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException:
            rec.error = True
            raise
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: every span is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def self_time_by_op(spans: list[Span]) -> dict[int, dict[str, float]]:
    """``{op: {span name: summed self time}}`` over all spans of each op."""
    out: dict[int, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        per_op = out.setdefault(s.op, {})
        per_op[s.name] = per_op.get(s.name, 0.0) + own
    return out


def layer_counts(spans: list[Span]) -> tuple[dict[str, int], dict[str, int]]:
    """Calls and errors per layer over all spans."""
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    for s in spans:
        calls[s.layer] = calls.get(s.layer, 0) + 1
        errors[s.layer] = errors.get(s.layer, 0) + int(s.error)
    return calls, errors


def _resolve(target: str):
    """``"pkg.module:Name.attr"`` -> (owner object, attribute name, value)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(tracer: Tracer, targets: dict[str, list[str]],
            package: str) -> tuple[list, list[str]]:
    """Wrap every target callable; return (undo list, missing targets).

    A module-level function is replaced wherever a module of ``package``
    holds that same object, so re-exports and ``from .x import f`` call sites
    see the wrapper too.  A method is replaced on its class.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for name, names in targets.items():
        for target in names:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            wrapper = tracer.wrap(name, original)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(mod, key)
                           for mod_name, mod in list(sys.modules.items())
                           if mod_name == package or mod_name.startswith(package + ".")
                           for key, val in vars(mod).items() if val is original]
            for holder, key in holders:
                undo.append((holder, key, original))
                setattr(holder, key, wrapper)
    return undo, missing


def uninstall(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
