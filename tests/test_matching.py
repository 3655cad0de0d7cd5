"""Maximum-weight bipartite matching, and the two-agent state flow, against enumeration."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import brute_force_matching_value
from rrfair.flow import DeadlineFlow
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


# ---------------------------------------------------------------------------
# the two-agent search state's flow


def meets_the_caps(gained: set, line: list[int], turns: int) -> bool:
    """At most `turns` goods, and at most ⌈j/2⌉ of the first j goods of `line`."""
    held = 0
    for j, g in enumerate(line, 1):
        held += g in gained
        if held > (j + 1) // 2:
            return False
    return len(gained) <= turns


def brute_force_state_value(num_right: int, adjacency, order, avail: int, bundle: int,
                            turns: int) -> Fraction:
    """The best matching of the bundle plus capped available goods, by enumeration."""
    line = [g for g in order if avail >> g & 1]
    held = [g for g in range(len(adjacency)) if bundle >> g & 1]
    best = Fraction(0)
    for size in range(len(line) + 1):
        for gained in itertools.combinations(line, size):
            if meets_the_caps(set(gained), line, turns):
                goods = held + list(gained)
                best = max(best, brute_force_matching_value(edges_of([
                    adjacency[g] if g in goods else () for g in range(len(adjacency))])))
    return best


@st.composite
def flow_states(draw):
    m = draw(st.integers(min_value=1, max_value=7))
    num_right = draw(st.integers(min_value=1, max_value=4))
    weights = st.integers(min_value=0, max_value=4)
    adjacency = [tuple((right, draw(weights)) for right in draw(st.lists(
        st.integers(min_value=0, max_value=num_right - 1), max_size=2, unique=True)))
        for _ in range(m)]
    order = draw(st.permutations(range(m)))
    avail = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    bundle = draw(st.integers(min_value=0, max_value=(1 << m) - 1)) & ~avail
    # Her picks to go are ⌈M/2⌉ at her turn; fewer and more exercise the top cap.
    turns = draw(st.integers(min_value=0, max_value=(avail.bit_count() + 1) // 2 + 1))
    return num_right, adjacency, order, avail, bundle, turns


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(state=flow_states())
def test_flow_state_value_equals_the_best_capped_subset(state):
    num_right, adjacency, order, avail, bundle, turns = state
    flow = DeadlineFlow(num_right, adjacency, order)
    assert flow.value(avail, bundle, turns, 10**9) == brute_force_state_value(*state)


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(graph=bipartite_graphs())
def test_flow_with_every_good_free_is_the_matching_value(graph):
    # Every good in the bundle: no chain, no caps, a plain maximum-weight matching.
    num_right, adjacency, order = graph
    flow = DeadlineFlow(num_right, adjacency, order)
    everything = (1 << len(adjacency)) - 1
    assert flow.value(0, everything, 0, 10**9) == max_weight_matching_value(
        num_right, adjacency)


def test_flow_counts_the_goods_it_relaxes_and_stops_past_its_limit():
    # Slots 0 and 1; σ = 0, 1, 2.  The caps allow good 0 and one more; good 1 has no
    # edge.  Good 2 takes slot 0 (3), then good 0 the free slot 1 (1).
    adjacency = [((0, 2), (1, 1)), (), ((0, 3),)]
    flow = DeadlineFlow(2, adjacency, (0, 1, 2))
    assert flow.value(0b111, 0, 2, 10**9) == 4
    work = flow.work
    assert work > 0
    refused = DeadlineFlow(2, adjacency, (0, 1, 2))
    assert refused.value(0b111, 0, 2, work - 1) is None
    assert refused.work == work
    admitted = DeadlineFlow(2, adjacency, (0, 1, 2))
    assert admitted.value(0b111, 0, 2, work) == 4
