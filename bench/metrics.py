"""Pure metric code: percentiles, self time and phases from spans.

A span here is a sequence ``(key, start, end, parent)``: ``parent`` is the
index of the enclosing span in the same list, or -1, and a parent always
comes before its children.  ``layer`` maps a span key to its layer name.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

TAIL_MARGIN = 10   # samples that must lie beyond the tail percentile
PHASE_ROOTS = ("crfsolve", "syzygy")


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``, or None when there are ten
    samples or fewer.  With n samples the value is the (n-10)-th smallest
    and the percentile is 100 (n - 10) / n.
    """
    n = len(values)
    if n <= TAIL_MARGIN:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_MARGIN - 1], 100.0 * (n - TAIL_MARGIN) / n, n


def speed_corrected(times, refs, nominal):
    """Each ``times[i]`` scaled by ``nominal`` over the mean of the reference
    times ``refs[i]`` and ``refs[i + 1]`` taken just before and just after
    it: the time it would have taken at the nominal machine speed."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference time before and after each")
    return [t * nominal * 2 / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _children(spans):
    kids = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            kids[span[3]].append(i)
    return kids


def self_times(spans, layer):
    """Self time per layer: each span's duration minus the part of its
    interval that its child spans cover, summed over the layer's spans."""
    kids = _children(spans)
    out = defaultdict(float)
    for i, (key, start, end, _) in enumerate(spans):
        covered = union_length(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in kids.get(i, ())
            if spans[c][1] < end and spans[c][2] > start)
        out[layer[key]] += (end - start) - covered
    return dict(out)


def function_totals(spans):
    """Per span key: (calls, seconds), where seconds counts only the
    outermost span of each recursion so nothing is counted twice."""
    calls = defaultdict(int)
    seconds = defaultdict(float)
    for i, (key, start, end, parent) in enumerate(spans):
        calls[key] += 1
        p = parent
        while p >= 0 and spans[p][0] != key:
            p = spans[p][3]
        if p < 0:
            seconds[key] += end - start
    return {key: (calls[key], seconds[key]) for key in calls}


def _inside(spans, layer, name):
    """inside[i]: span i has a strict ancestor in layer ``name``."""
    inside = []
    for key, _, _, parent in spans:
        inside.append(parent >= 0 and (inside[parent]
                                       or layer[spans[parent][0]] == name))
    return inside


def phases(spans, layer):
    """Assemble, eliminate and verify time inside each top-level call of a
    ``crfsolve`` or ``syzygy`` function, split by span order.

    assemble: from the start of the call to the first ``linalg`` span (the
    whole call when it runs no ``linalg`` span); eliminate: time covered by
    ``linalg`` spans; verify: time covered by ``polycalc`` spans that start
    after the last ``linalg`` span ends.
    """
    root = []
    for i, (key, _, _, parent) in enumerate(spans):
        if parent >= 0 and root[parent] >= 0:
            root.append(root[parent])
        else:
            root.append(i if layer[key] in PHASE_ROOTS else -1)
    in_linalg = _inside(spans, layer, "linalg")
    in_poly = _inside(spans, layer, "polycalc")
    linalg = defaultdict(list)
    poly = defaultdict(list)
    for i, (key, start, end, _) in enumerate(spans):
        r = root[i]
        if r < 0 or r == i:
            continue
        if layer[key] == "linalg" and not in_linalg[i]:
            linalg[r].append((start, end))
        elif layer[key] == "polycalc" and not in_poly[i]:
            poly[r].append((start, end))
    out = {"assemble": 0.0, "eliminate": 0.0, "verify": 0.0}
    for i, (_, start, end, _) in enumerate(spans):
        if root[i] != i:
            continue
        elim = linalg.get(i)
        if not elim:
            out["assemble"] += end - start
            continue
        first = min(s for s, _ in elim)
        last = max(e for _, e in elim)
        out["assemble"] += first - start
        out["eliminate"] += union_length(elim)
        out["verify"] += union_length(
            (s, min(e, end)) for s, e in poly.get(i, ()) if s >= last)
    return out
