"""Deterministic instance generators for every model in the library.

Each generator is a pure function of its parameters and seed, so emitted
files are byte-identical across runs, and returns a checked instance
(:func:`~schedlab.core.require_valid`).  Randomized kinds draw from one
`random.Random(seed)`, through :func:`_draws`; structured kinds (adversary
stream, upper-triangular matching family) take no randomness at all.
"""

from __future__ import annotations

import random

import numpy as np

from .adversary import resolve_stream, stream_jobs
from .core import ContractViolation, GridJobs, Instance, UnitJobs, require_valid


def _draws(rng: random.Random):
    """``rng.randrange`` with one bound ``getrandbits``: ``below(n)`` for
    ``n >= 1`` runs the rejection loop ``randrange(n)`` runs, on
    ``n.bit_length()``-bit words, so it reads the same words, returns the
    same value and leaves ``rng`` in the same state.  ``randint(a, b)`` is
    ``a + below(b + 1 - a)``."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def adversary_instance(n: int, N: int | None = None) -> Instance:
    """The full release stream floor(N/(n-t)) at each t, all due at n.

    The jobs are :class:`~schedlab.core.UnitJobs` columns, filled without
    building a ``Job`` row; a stream whose release total exceeds int64 is
    refused.
    """
    jobs = stream_jobs(n, resolve_stream(n, N))
    return require_valid(Instance("unit-min", jobs, horizon=n if len(jobs) else None))


def random_unit_instance(jobs: int, horizon: int, seed: int = 0) -> Instance:
    """Job ``i`` draws ``r`` in ``[0, horizon)``, then ``d`` in ``(r, horizon]``;
    a stable sort on ``r`` orders the columns by ``(r, id)``."""
    if jobs < 0 or horizon < 1:
        raise ContractViolation("need jobs >= 0 and horizon >= 1")
    below = _draws(random.Random(seed))
    rs, ds = [], []
    for _ in range(jobs):
        r = below(horizon)
        rs.append(r)
        ds.append(r + 1 + below(horizon - r))
    drawn = UnitJobs(range(jobs), rs, ds)
    return require_valid(Instance("unit-min", drawn[np.argsort(drawn.r, kind="stable")],
                                  horizon=max(ds, default=horizon)))


def equal_deadline_instance(kappa: int, jobs: int, seed: int = 0) -> Instance:
    """Random dyadic releases and sizes against the deadline 2^kappa - 1.

    A release is a multiple of ``2^-b`` in ``(0, d]`` (``b`` drawn from 0-3)
    less 1/8, so at least 0; a size is a multiple of ``2^-b`` in
    ``(0, d - r]`` (``b`` from 0-4), or all of ``d - r`` when no multiple
    fits.  The jobs are :class:`~schedlab.core.GridJobs` columns in
    sixteenths, drawn as integers and sorted on the release, with no
    ``Fraction`` and no ``Job`` row built.
    """
    if kappa < 1 or jobs < 0:
        raise ContractViolation("need kappa >= 1 and jobs >= 0")
    below = _draws(random.Random(seed))
    d = (1 << kappa) - 1
    drawn = []
    for i in range(jobs):
        bits = below(4)
        r8 = ((1 + below(d << bits)) << (3 - bits)) - 1
        room8 = 8 * d - r8
        bits = below(5)
        hi = (room8 << bits) >> 3
        p16 = (1 + below(hi)) << (4 - bits) if hi else 2 * room8
        drawn.append((r8, i, p16))
    drawn.sort()
    r8s, ids, sizes = zip(*drawn) if drawn else ((),) * 3
    return require_valid(Instance("equal-deadline", GridJobs(
        ids, [2 * r8 for r8 in r8s], [16 * d] * jobs, sizes, 16)))


def throughput_instance(jobs: int, horizon: int, k: int = 1, w_max: int = 10,
                        seed: int = 0, unweighted: bool = False) -> Instance:
    """Job ``i`` draws ``r`` in ``[0, horizon)``, then ``d`` in ``(r, horizon]``
    and, unless ``unweighted``, ``w`` in ``[1, w_max]``.  The jobs are
    :class:`~schedlab.core.GridJobs` columns sorted by ``(r, id)``, with no
    ``Job`` row built."""
    if jobs < 0 or horizon < 1 or k < 1 or w_max < 1:
        raise ContractViolation("bad throughput generator parameters")
    below = _draws(random.Random(seed))
    drawn = []
    for i in range(jobs):
        r = below(horizon)
        d = r + 1 + below(horizon - r)
        drawn.append((r, i, d, 1 if unweighted else 1 + below(w_max)))
    drawn.sort()
    rs, ids, ds, ws = zip(*drawn) if drawn else ((),) * 4
    return require_valid(Instance("throughput", GridJobs(ids, rs, ds, [1] * jobs, w=ws), k=k))


def upper_triangular_instance(k: int, levels: int) -> Instance:
    """Hard family for online matching: job windows nest like a triangle.

    Level ``l`` holds ``k`` unit jobs with window [0, l+1), so early steps
    can burn the flexible jobs that later steps will need.  The offline
    optimum schedules level ``l`` at step ``l`` and completes everything.
    """
    if k < 1 or levels < 1:
        raise ContractViolation("need k >= 1 and levels >= 1")
    ids = range(k * levels)
    return require_valid(Instance("throughput", GridJobs(
        ids, [0] * len(ids), [u // k + 1 for u in ids], [1] * len(ids)), k=k))


KINDS = ("adversary", "random-unit", "equal-deadline", "throughput",
         "upper-triangular")


def generate(kind: str, seed: int = 0, **params) -> Instance:
    """Dispatch by kind name; unknown kinds or bad parameters raise."""
    try:
        if kind == "adversary":
            return adversary_instance(params["n"], params.get("N"))
        if kind == "random-unit":
            return random_unit_instance(params["jobs"], params["horizon"], seed)
        if kind == "equal-deadline":
            return equal_deadline_instance(params["kappa"], params["jobs"], seed)
        if kind == "throughput":
            return throughput_instance(
                params["jobs"], params["horizon"], params.get("k", 1),
                params.get("w_max", 10), seed, params.get("unweighted", False))
        if kind == "upper-triangular":
            return upper_triangular_instance(params["k"], params["levels"])
    except KeyError as missing:
        raise ContractViolation(f"{kind} needs parameter {missing}") from None
    raise ContractViolation(f"unknown generator kind {kind!r}")
