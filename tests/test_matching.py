"""Maximum-weight bipartite matching against edge-subset enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import brute_force_matching_value
from rrfair.matching import max_weight_matching_value


def edges_of(adjacency) -> list[tuple[int, int, Fraction]]:
    return [(left, right, Fraction(weight))
            for left, row in enumerate(adjacency) for right, weight in row]


def assert_value_in_every_row_order(num_right: int, adjacency, expected: int) -> None:
    for rows in itertools.permutations(adjacency):
        assert max_weight_matching_value(num_right, rows) == expected


def test_best_path_ends_by_dropping_a_matched_good():
    # Goods 0 and 1 hold slots 0 and 1 (3 + 1).  Good 2 takes slot 0, good 0
    # moves to slot 1, and good 1 is dropped: 4 + 3.
    adjacency = [((0, 3), (1, 3)), ((1, 1),), ((0, 4),)]
    assert brute_force_matching_value(edges_of(adjacency)) == 7
    assert_value_in_every_row_order(2, adjacency, 7)


def test_three_edge_alternating_path():
    # Good 0 holds slot 0 (3); good 1 takes it and good 0 moves to the free
    # slot 1: 4 + 2, more than either direct choice.
    adjacency = [((0, 3), (1, 2)), ((0, 4),)]
    assert brute_force_matching_value(edges_of(adjacency)) == 6
    assert_value_in_every_row_order(2, adjacency, 6)


def test_longer_path_through_every_slot():
    # Goods 0-3 hold slots 0-3; good 4 takes slot 0 and shifts each of them
    # one slot to the right, the last onto the free slot 4.
    adjacency = [((k, 1), (k + 1, 1)) for k in range(4)] + [((0, 3),)]
    assert brute_force_matching_value(edges_of(adjacency)) == 7
    assert_value_in_every_row_order(5, adjacency, 7)


def test_zero_weights_and_empty_graphs():
    assert max_weight_matching_value(0, []) == 0
    assert max_weight_matching_value(3, [(), ()]) == 0
    assert_value_in_every_row_order(2, [((0, 0), (1, 0)), ((0, 0),), ((1, 0),)], 0)


@st.composite
def bipartite_graphs(draw):
    num_right = draw(st.integers(min_value=1, max_value=5))
    weights = st.integers(min_value=0, max_value=3)  # zeros and ties are common
    adjacency = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        rights = draw(st.lists(st.integers(min_value=0, max_value=num_right - 1),
                               max_size=4, unique=True))
        adjacency.append(tuple((right, draw(weights)) for right in rights))
    return num_right, adjacency, draw(st.permutations(range(len(adjacency))))


@seed(20231016)
@settings(max_examples=400, deadline=None)
@given(graph=bipartite_graphs())
def test_matching_value_equals_edge_enumeration(graph):
    num_right, adjacency, order = graph
    expected = brute_force_matching_value(edges_of(adjacency))
    assert max_weight_matching_value(num_right, adjacency) == expected
    shuffled = [adjacency[k] for k in order]
    assert max_weight_matching_value(num_right, shuffled) == expected
