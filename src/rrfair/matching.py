"""Exact maximum-weight bipartite matching over integer or rational edge weights.

Goods sit on the left, abstract slots on the right.  The matching value is
computed by successive augmenting paths: each iteration finds the most
profitable alternating path with a Bellman-Ford sweep over the residual
graph and stops once no path has positive gain.  Because a best matching of
cardinality c+1 never gains more per edge than one of cardinality c, the
first non-positive path certifies optimality.  The arithmetic is that of
the weights given: `int` or `fractions.Fraction`, never floats, so
epsilon-separated weights compare exactly.  `OXS` oracles pass integer
copies of their edges (see `valuations.OXS`), which run fastest.
"""

from __future__ import annotations

from fractions import Fraction

Weight = int | Fraction
Edge = tuple[int, int, Weight]  # (left node, right node, weight >= 0)


def max_weight_matching_value(num_left: int, num_right: int, edges: list[Edge]) -> Weight:
    """Value of a maximum-weight (not necessarily perfect) matching.

    Parallel edges are collapsed to their heaviest copy.  Edges must have
    non-negative weights and endpoints in range; zero-weight edges are
    allowed but never improve the value.
    """
    best: dict[tuple[int, int], Weight] = {}
    for left, right, weight in edges:
        if not 0 <= left < num_left or not 0 <= right < num_right:
            raise ValueError(f"edge ({left}, {right}) out of range")
        if weight < 0:
            raise ValueError(f"edge ({left}, {right}) has negative weight {weight}")
        key = (left, right)
        if key not in best or best[key] < weight:
            best[key] = weight

    adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(num_left)]
    for (left, right), weight in best.items():
        adjacency[left].append((right, weight))

    match_left: list[int | None] = [None] * num_left   # left -> right
    match_right: list[int | None] = [None] * num_right  # right -> left
    total: Weight = 0

    while True:
        gain, path = _best_augmenting_path(adjacency, match_left, match_right, num_right)
        if gain is None or gain <= 0:
            return total
        total += gain
        for left, right in path:
            match_left[left] = right
            match_right[right] = left


def _best_augmenting_path(
    adjacency: list[list[tuple[int, Weight]]],
    match_left: list[int | None],
    match_right: list[int | None],
    num_right: int,
) -> tuple[Weight | None, list[tuple[int, int]]]:
    """Maximum-gain alternating path from a free left node to a free right node.

    Bellman-Ford over right nodes: dist[r] is the best gain of an alternating
    path ending with an unmatched edge into r.  Starting from optimal
    matchings the residual graph has no positive cycle, so the sweep settles.
    """
    num_left = len(adjacency)
    dist: list[Weight | None] = [None] * num_right
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


def _weight_of(adjacency: list[list[tuple[int, Weight]]], left: int, right: int) -> Weight:
    for node, weight in adjacency[left]:
        if node == right:
            return weight
    raise AssertionError(f"matched edge ({left}, {right}) missing from adjacency")
