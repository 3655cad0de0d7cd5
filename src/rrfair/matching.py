"""Exact maximum-weight bipartite matching over integer edge weights.

Goods sit on the left, abstract slots on the right.  The matching value is
computed by successive augmenting paths: each iteration finds the most
profitable alternating path with a Bellman-Ford sweep over the residual
graph and stops once no path has positive gain.  Because a best matching of
cardinality c+1 never gains more per edge than one of cardinality c, the
first non-positive path certifies optimality.  The weights are ints, never
floats, so every comparison is exact.  `OXS` oracles pass the adjacency
they build once, with weights `scale` times their rational edge weights
(see `valuations.OXS`), and turn the int back into a value there.
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
    """
    num_left = len(adjacency)
    match_left: list[int | None] = [None] * num_left   # left -> right
    match_right: list[int | None] = [None] * num_right  # right -> left
    total = 0

    while True:
        gain, path = _best_augmenting_path(adjacency, match_left, match_right, num_right)
        if gain is None or gain <= 0:
            return total
        total += gain
        for left, right in path:
            match_left[left] = right
            match_right[right] = left


def _best_augmenting_path(
    adjacency: Adjacency,
    match_left: list[int | None],
    match_right: list[int | None],
    num_right: int,
) -> tuple[int | None, list[tuple[int, int]]]:
    """Maximum-gain alternating path from a free left node to a free right node.

    Bellman-Ford over right nodes: dist[r] is the best gain of an alternating
    path ending with an unmatched edge into r.  Starting from optimal
    matchings the residual graph has no positive cycle, so the sweep settles.
    """
    num_left = len(adjacency)
    dist: list[int | None] = [None] * num_right
    # via[r] = (left node of the final edge into r, right node that left was matched to before)
    via: list[tuple[int, int | None] | None] = [None] * num_right

    for left in range(num_left):
        if match_left[left] is None:
            for right, weight in adjacency[left]:
                if dist[right] is None or dist[right] < weight:
                    dist[right] = weight
                    via[right] = (left, None)

    for _ in range(num_right):
        changed = False
        for right in range(num_right):
            if dist[right] is None:
                continue
            left = match_right[right]
            if left is None:
                continue
            # Drop the matched edge (left, right), pick up another edge of `left`.
            base = dist[right] - _weight_of(adjacency, left, right)
            for nxt, weight in adjacency[left]:
                if nxt == right:
                    continue
                candidate = base + weight
                if dist[nxt] is None or dist[nxt] < candidate:
                    dist[nxt] = candidate
                    via[nxt] = (left, right)
                    changed = True
        if not changed:
            break

    end: int | None = None
    for right in range(num_right):
        if match_right[right] is None and dist[right] is not None:
            if end is None or dist[end] < dist[right]:  # type: ignore[index]
                end = right
    if end is None:
        return None, []

    # Walk the predecessor chain collecting (left, right) re-pairings.
    flips: list[tuple[int, int]] = []
    current: int | None = end
    while current is not None:
        step = via[current]
        assert step is not None
        left, prev = step
        flips.append((left, current))
        current = prev
    return dist[end], flips


def _weight_of(adjacency: Adjacency, left: int, right: int) -> int:
    for node, weight in adjacency[left]:
        if node == right:
            return weight
    raise AssertionError(f"matched edge ({left}, {right}) missing from adjacency")
