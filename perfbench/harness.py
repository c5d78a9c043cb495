"""Op accounting and metric reduction, free of any ``schedlab`` import.

``run_op`` times one op, checks its output outside the timed region and
reports whether it failed; ``Tally`` counts attempts and failures.  The rest
turns samples, spans and computed counts into the metrics a run prints.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

from tracing import Span, layer_counts, self_time_by_op

#: Percentiles considered for the tail of a timing, lowest first.
PERCENTILE_LADDER = (50, 75, 90, 95, 99, 99.9)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    seconds: list[float] = field(default_factory=list)   # successful ops only
    problems: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(tally: Tally, workload, seed: int, trace, expected_digest: str | None,
           digest, clock=time.perf_counter):
    """Run, time and check one op; return (output or None, op seconds).

    An op fails when it raises, when its checker reports a problem, or when
    ``expected_digest`` is given and the output's digest differs.  Failed ops
    are counted in ``tally`` and their time is not kept as a sample.
    """
    tally.attempted += 1
    gc.collect()  # each op starts from a settled heap, as a fresh command does
    start = clock()
    try:
        out = workload.op(seed, trace)
    except Exception:
        elapsed = clock() - start
        tally.failed += 1
        tally.problems.append(f"op seed {seed} raised:\n{traceback.format_exc()}")
        return None, elapsed
    elapsed = clock() - start
    problems = list(workload.check(out))
    if expected_digest is not None and digest(out.text) != expected_digest:
        problems.append(f"output digest {digest(out.text)} != reference {expected_digest}")
    if problems:
        tally.failed += 1
        tally.problems += [f"op seed {seed}: {p}" for p in problems]
        return None, elapsed
    tally.seconds.append(elapsed)
    return out, elapsed


def _rank(p: float, n: int) -> int:
    """Nearest-rank position of percentile ``p`` among ``n`` samples, exactly."""
    return max(math.ceil(Fraction(str(p)) * n / 100), 1)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def nearest_rank(values: list[float], p: float) -> float:
    return sorted(values)[_rank(p, len(values)) - 1]


def timing_summary(seconds: list[float]) -> str:
    """Median, sample count and the highest percentile the samples support."""
    n = len(seconds)
    if not n:
        return "op_s: no successful ops"
    line = f"op_s: p50 {statistics.median(seconds):.6f} s over {n} samples"
    p = tail_percentile(n)
    if p is None:
        return line + "; no percentile above p50 has 10 samples beyond it"
    return line + f"; p{p:g} {nearest_rank(seconds, p):.6f} s (highest with >=10 beyond)"


def layer_metrics(spans: list[Span], counts_by_op: dict[int, dict],
                  span_names: list[str], count_names: list[str],
                  layers: list[str]) -> dict[str, float]:
    """Per-layer metrics of a traced run, each a median over traced ops.

    ``<span>_s`` is the span's self time in one op; counts come from the
    op's inputs and outputs; ``<layer>.calls`` are spans per op and
    ``<layer>.errors`` are spans that raised, summed over the run.  A span
    or count that never occurred reads 0.
    """
    ops = sorted(counts_by_op)
    own = self_time_by_op(spans)
    out: dict[str, float] = {}
    for name in span_names:
        out[f"{name}_s"] = median([own.get(op, {}).get(name, 0.0) for op in ops])
    for name in count_names:
        out[name] = median([counts_by_op[op].get(name, 0) for op in ops])
    per_op_calls: dict[int, dict[str, int]] = {}
    for op in ops:
        per_op_calls[op], _ = layer_counts([s for s in spans if s.op == op])
    _, errors = layer_counts(spans)
    for layer in layers:
        out[f"{layer}.calls"] = median([per_op_calls[op].get(layer, 0) for op in ops])
        out[f"{layer}.errors"] = errors.get(layer, 0)
    return out


def median(values: list[float]) -> float:
    """Median, or 0 for no values."""
    return statistics.median(values) if values else 0.0
