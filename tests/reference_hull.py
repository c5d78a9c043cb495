"""The per-column hull that ``IncrementalOff`` once kept, as its reference.

One :class:`DeadlineHull` per deadline column, driven one Python call per
column per step: an engine independent of the backlog engine it checks,
and the hull loop behind ``reference_off_series`` in ``test_adversary.py``.
"""


class DeadlineHull:
    """Exact ``max over rows s of ceil((x - P_s) / (e - s))`` for deadline ``e``.

    Row ``s`` is a line in ``x``, the count of released jobs due by ``e``;
    ``P_s`` is that count before step ``s``.  Rows arrive in increasing slope
    and queries at nondecreasing ``x`` (the monotone convex-hull case), so a
    pointer walks forward; the lines behind it can never lead again and are
    dropped once they fill half the list.  All comparisons cross-multiply
    Python ints.
    """

    __slots__ = ("e", "lines", "ptr")

    def __init__(self, e: int):
        self.e = e
        self.lines: list[tuple[int, int]] = []  # (e - s, P_s)
        self.ptr = 0

    def add(self, s: int, P: int) -> None:
        w = self.e - s
        lines = self.lines
        while len(lines) >= 2:
            w1, p1 = lines[-2]
            w2, p2 = lines[-1]
            # The last line never leads if the new one overtakes lines[-2]
            # no later than it does: compare the two crossing points.
            if (P * w1 - p1 * w) * (w1 - w2) > (p2 * w1 - p1 * w2) * (w1 - w):
                break
            lines.pop()
        lines.append((w, P))
        if self.ptr >= len(lines):
            self.ptr = len(lines) - 1

    def query_ceil(self, x: int) -> int:
        """``ceil`` of the hull maximum at count ``x``."""
        lines = self.lines
        i = self.ptr
        last = len(lines) - 1
        w, p = lines[i]
        while i < last:
            w2, p2 = lines[i + 1]
            if (x - p2) * w < (x - p) * w2:
                break
            i += 1
            w, p = w2, p2
        if 2 * i > last:
            del lines[:i]
            i = 0
        self.ptr = i
        return -((p - x) // w)


class ReferenceOff:
    """``IncrementalOff`` as it ran on per-column hulls: one
    :class:`DeadlineHull` per deadline, each added to and queried in turn
    on the columns a step touches.  Takes ``(deadline, count)`` pairs."""

    def __init__(self, deadline_values):
        self.deadlines = sorted(set(deadline_values))
        self.hulls = [DeadlineHull(e) for e in self.deadlines]
        self.counts = [0] * len(self.deadlines)
        self.value = 0

    def add(self, due: dict[int, int], t: int) -> int:
        """Register ``due[d]`` jobs due at ``d`` released at step ``t``."""
        if not due:
            return self.value
        first = min(due)
        added = 0
        for col, e in enumerate(self.deadlines):
            if e < first:
                continue
            added += due.get(e, 0)
            hull = self.hulls[col]
            hull.add(t, self.counts[col])
            self.counts[col] += added
            self.value = max(self.value, hull.query_ceil(self.counts[col]))
        return self.value
