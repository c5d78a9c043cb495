"""The dict form of the throughput-to-matching reduction, as it was before
the matching graph became per-job step intervals over job columns.

``reference_active_steps`` walks every (job, step) pair into a dict of
ascending ids per step, and ``reference_reduce_to_matching`` keeps weights,
reveal steps, windows and neighbors in dicts keyed by job id or step.  The
tests compare the column form with it on generated and hand-built
instances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

from schedlab.core import ContractViolation, Instance, Job, _num_out, require_valid


def reference_active_steps(jobs: Iterable[Job]
                           ) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """Steps some unit job can run in, each with the ids that can run there.

    A job with integer window ``[r, d)`` can run in steps ``r .. d-1``.  One
    pass over the windows; each step's ids come out ascending.
    """
    cover: dict[int, list[int]] = {}
    for j in sorted(jobs, key=attrgetter("id")):
        for t in range(int(j.r), int(j.d)):
            cover.setdefault(t, []).append(j.id)
    steps = tuple(sorted(cover))
    return steps, {t: tuple(cover[t]) for t in steps}


@dataclass(frozen=True)
class ReferenceMatchingInstance:
    """Bipartite view of a throughput instance, in dicts keyed by job id
    (weights, reveal steps, windows) and by step (neighbors)."""

    k: int
    steps: tuple[int, ...]
    job_ids: tuple[int, ...]
    weights: dict[int, Fraction]
    reveal: dict[int, int]
    windows: dict[int, tuple[int, int]]
    neighbors: dict[int, tuple[int, ...]]

    def _window_steps(self, u: int) -> list[int]:
        """The active steps inside job ``u``'s window ``[r, d)``."""
        r, d = self.windows[u]
        return list(self.steps[bisect_left(self.steps, r):bisect_left(self.steps, d)])

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "steps": list(self.steps),
            "offline": [
                {"id": u, "w": _num_out(self.weights[u]),
                 "reveal": self.reveal[u],
                 "steps": self._window_steps(u)}
                for u in self.job_ids
            ],
        }


def reference_reduce_to_matching(instance: Instance) -> ReferenceMatchingInstance:
    require_valid(instance)
    if instance.model != "throughput":
        raise ContractViolation("needs a throughput instance")
    jobs = tuple(instance.jobs)
    steps, neighbors = reference_active_steps(jobs)
    return ReferenceMatchingInstance(
        k=instance.k,
        steps=steps,
        job_ids=tuple(j.id for j in jobs),
        weights={j.id: Fraction(j.w) for j in jobs},
        reveal={j.id: int(j.r) for j in jobs},
        windows={j.id: (int(j.r), int(j.d)) for j in jobs},
        neighbors=neighbors,
    )
