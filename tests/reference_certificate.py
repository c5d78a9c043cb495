"""The grid checker that ``check_certificate`` kept before its per-release pass.

Each support's end comes from ``_support_hi_index``, the float estimate
with exact corrections that ``online_min._support_end``'s one floor
division replaced.

It builds every grid point's time, index, step, machine count and ``OFF``
as arrays of ``dstar * g`` entries, adds each job's density slice into the
direct sum, and counts the open supports with two ``searchsorted`` calls.
``check_certificate`` must produce the same report bytes: the two are
compared on ``json.dumps(report.to_jsonable(), sort_keys=True)``.
"""
import math

import numpy as np

from schedlab.core import ContractViolation
from schedlab.online_min import _E_DEN, _E_NUM, CertificateReport, _padded


def _support_hi_index(r: int, dstar: int, g: int) -> int:
    """Largest grid index k with k/g inside job's support, decided exactly.

    The support ends where ``e * (dstar - x)`` meets ``dstar - r``; the float
    estimate is corrected with exact rational comparisons against the stored
    Euler constant.
    """
    target = (dstar - r) * g * _E_DEN
    k = int(math.floor(g * (dstar - (dstar - r) / math.e)))
    k = min(k, dstar * g - 1)
    while _E_NUM * (dstar * g - (k + 1)) >= target:
        k += 1
    while k >= 0 and _E_NUM * (dstar * g - k) < target:
        k -= 1
    return k


def reference_grid(cert, g):
    """Every grid point's density ``1/(dstar - x)``, direct sum and
    open-support count, as arrays of ``dstar * g`` entries."""
    dstar = cert.dstar
    total = dstar * g
    tgrid = np.arange(total, dtype=np.float64) / g
    inv = 1.0 / (dstar - tgrid)
    acc = np.zeros(total)
    klos = np.empty(len(cert.jobs), dtype=np.int64)
    khis = np.empty(len(cert.jobs), dtype=np.int64)
    for idx, j in enumerate(cert.jobs):
        klo = int(j.r) * g
        khi = _support_hi_index(int(j.r), dstar, g)
        klos[idx] = klo
        khis[idx] = khi
        acc[klo:khi + 1] += inv[klo:khi + 1]
    klos.sort()
    khis.sort()
    kk = np.arange(total, dtype=np.int64)
    counts = (np.searchsorted(klos, kk, side="right")
              - np.searchsorted(khis, kk, side="left"))
    return inv, acc, counts


def reference_check_certificate(cert, transcript, grid_per_unit=1000):
    g = grid_per_unit
    if g < 2:
        raise ContractViolation("need at least 2 grid points per unit")
    dstar = cert.dstar
    report = CertificateReport(dstar=dstar, grid_per_unit=g, n_jobs=len(cert.jobs))
    tol = report.tolerance

    worst = 0.0
    for j in cert.jobs:
        span = dstar - j.r
        worst = max(worst, abs(math.log(span / (span / math.e)) - 1.0))
    report.completion_worst = worst

    inv, acc, counts = reference_grid(cert, g)
    tgrid = np.arange(dstar * g, dtype=np.float64) / g
    closed = counts * inv
    report.agreement_worst = float(np.abs(acc - closed).max(initial=0.0))

    floor_idx = np.arange(dstar * g, dtype=np.int64) // g
    m_arr = _padded(transcript.m, dstar)[floor_idx]
    off_arr = _padded(transcript.off, dstar)[floor_idx]
    bad = np.nonzero(closed > m_arr + tol)[0]
    for k in bad[:100]:
        report.packing_profile_failures.append(
            (float(tgrid[k]), float(closed[k]), int(m_arr[k])))
    report.packing_scaled_off_excess = float((closed - math.e * off_arr).max(initial=float("-inf")))

    releases, per_release = np.unique(
        np.array([j.r for j in cert.jobs], dtype=np.int64), return_counts=True)
    ends = [_support_hi_index(int(r), dstar, 1) for r in releases]
    log_span = np.log(dstar - releases.astype(np.float64))
    star_ids = {j.id for j in cert.jobs}
    chosen = transcript.trace.chosen
    scheduled = finished = lo = hi = 0
    for t in range(dstar + 1):
        if 0 < t <= len(chosen):
            scheduled += sum(1 for jid in chosen[t - 1] if jid in star_ids)
        while hi < len(releases) and releases[hi] < t:
            hi += 1
        while lo < hi and ends[lo] < t:
            finished += int(per_release[lo])
            lo += 1
        mass = float(finished)
        if lo < hi:
            mass += float((per_release[lo:hi]
                           * (log_span[lo:hi] - math.log(dstar - t))).sum())
        if scheduled < mass - tol:
            report.dominance_failures.append((t, scheduled, mass))
    return report
