"""Exact maximum-weight bipartite matching over integer edge weights.

Goods sit on the left, abstract slots on the right.  The matching value is
built up one good at a time: when a good joins an optimal matching of the
goods before it, the optimum grows by exactly the best alternating path
that starts at the new good, found by one label-correcting relaxation from
that good alone (see `max_weight_matching_value`).  The weights are ints,
never floats, so every comparison is exact.  `OXS` oracles pass the
adjacency they build once, with weights `scale` times their rational edge
weights (see `valuations.OXS`), and turn the int back into a value there.
"""

from __future__ import annotations

from typing import Sequence

Adjacency = Sequence[Sequence[tuple[int, int]]]  # per left node: (right node, weight)


def max_weight_matching_value(num_right: int, adjacency: Adjacency) -> int:
    """Value of a maximum-weight (not necessarily perfect) matching.

    `adjacency[left]` lists the (right node, weight) pairs of left node
    `left`, with right nodes in range(num_right), each at most once, and
    non-negative int weights; zero-weight edges are allowed but never
    improve the value.  The caller validates the edges and collapses
    parallel ones to their heaviest copy.

    Left nodes join one at a time.  Let M be an optimal matching of the
    nodes before x, and M' one of those nodes plus x.  The symmetric
    difference of M and M' splits into alternating paths and cycles.  A
    component C without x is, on either side, a swap that keeps a matching
    of the same nodes, so neither w(M ∩ C) < w(M' ∩ C) (else M Δ C beats M)
    nor the reverse (else M' Δ C beats M'): the two sides weigh the same.
    x is unmatched in M, so its component, if any, is a path that starts at
    x with an edge of M' and alternates; it ends at a right node free in M,
    or at a left node whose M edge is dropped.  Hence w(M') - w(M) is the
    gain of the best alternating path from x, and applying any such path to
    M gives a matching, so no path gains more.  The relaxation labels each
    right node r with the best gain of a path from x whose last edge enters
    r; a cycle through matched edges cannot gain, since M is optimal, so
    the labels settle and their predecessors form a tree.  The path ends
    best at a free r, with gain label(r), or at a taken r, with its matched
    edge dropped: label(r) minus that edge's weight.
    """
    owner: list[int | None] = [None] * num_right  # right -> matched left node
    held = [0] * num_right                       # right -> weight of its matched edge
    total = 0
    for x, row in enumerate(adjacency):
        gain: list[int | None] = [None] * num_right
        # via[r] = (left node of the last edge into r, the right node it leaves, edge weight)
        via: list[tuple[int, int | None, int] | None] = [None] * num_right
        queue = []
        for right, weight in row:
            gain[right] = weight
            via[right] = (x, None, weight)
            queue.append(right)
        for right in queue:  # the list grows while it is read: a FIFO queue
            left = owner[right]
            if left is None:
                continue
            # Move `left` off `right` to another of its edges; its own edge
            # gives back gain[right] exactly, so it never relabels `right`.
            base = gain[right] - held[right]  # type: ignore[operator]
            for nxt, weight in adjacency[left]:
                candidate = base + weight
                label = gain[nxt]
                if label is None or label < candidate:
                    gain[nxt] = candidate
                    via[nxt] = (left, right, weight)
                    queue.append(nxt)
        best, end = 0, None
        for right in queue:  # a free right node holds weight 0
            ending = gain[right] - held[right]  # type: ignore[operator]
            if ending > best:
                best, end = ending, right
        if end is None:
            continue
        total += best
        while end is not None:
            left, prev, weight = via[end]  # type: ignore[misc]
            owner[end], held[end] = left, weight
            end = prev
    return total
