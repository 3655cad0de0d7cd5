"""The one work budget: each exhaustive operation refuses just past its boundary.

An estimated operation is refused before any work; a best-response search
is refused when storing one more state would pass the budget.
"""

from __future__ import annotations

import math
from typing import Callable

import pytest

from rrfair import valuations
from rrfair.equilibria import (
    NoApplicableBoundError,
    applicable_bound_rule,
    best_response,
    profile_space_scan,
)
from rrfair.instances import GeneratorSpec, generate
from rrfair.mechanism import Ranking
from rrfair.valuations import (
    WORK_BUDGET,
    Additive,
    Instance,
    SizeGuardError,
    Table,
    Valuation,
    is_additive,
    is_cancelable,
    is_monotone,
    is_subadditive,
    is_submodular,
)


class Tangled(Valuation):
    """Worth 1 on {g1}, 2 on all goods and 0 elsewhere, for any m without a table.

    Every class check fails on it, so each check's failing path, witness and
    all, runs just inside its boundary.
    """

    def __init__(self, m: int) -> None:
        super().__init__(m, 1)

    def _value_mask(self, mask: int) -> int:
        return 2 if mask == (1 << self.m) - 1 else int(mask == 1)

    def _key(self) -> tuple:
        return (self.m,)


def class_check(check: Callable) -> Callable:
    def build(m: int):
        v = Tangled(m)
        return (v,), lambda: check(v)
    return build


def bound_rule(m: int):
    inst = Instance(n=1, m=m, valuations=(Tangled(m),))

    def run() -> None:
        with pytest.raises(NoApplicableBoundError):
            applicable_bound_rule(inst)
    return inst.valuations, run


def exhaustive_scan(m: int):
    inst = Instance(n=2, m=m, valuations=(Additive(range(m)),) * 2)
    return inst.valuations, lambda: next(profile_space_scan(inst))


def two_agent_search(m: int):
    inst = Instance(n=2, m=m, valuations=(Additive(range(m)),) * 2)
    return inst.valuations, lambda: best_response(inst, 0, {1: Ranking(tuple(range(m)))})


def table(m: int):
    return (), lambda: Table(m, [0] * (1 << m))


def generation(m: int):
    return (), lambda: generate(GeneratorSpec("submodular_table", 1, m, seed=0))


# (operation named in the message, its last admitted m, its first refused
# m, its builder, its estimate in steps at the first refused m)
GUARDS = [
    ("a table on", 19, 20, table, 20 * 2**20),
    ("is_monotone on", 19, 20, class_check(is_monotone), 20 * 2**20),
    ("is_additive on", 19, 20, class_check(is_additive), 20 * 2**20),
    ("is_submodular on", 15, 16, class_check(is_submodular), 16 * 16 * 2**16),
    ("is_subadditive on", 12, 13, class_check(is_subadditive), 4**13 // 2),
    ("is_cancelable on", 15, 16, class_check(is_cancelable), 16 * 16 * 2**16),
    ("class certification for the bound rule on", 12, 13, bound_rule, 4**13 // 2),
    ("an exhaustive scan of 2 agents and", 6, 7, exhaustive_scan, math.factorial(7) ** 2 * 7),
    ("generating a submodular_table on", 17, 18, generation, 3 * 18 * 2**18),
]


@pytest.mark.parametrize("what, last, past, build, estimate", GUARDS,
                         ids=[g[0] for g in GUARDS])
def test_each_guard_refuses_past_its_boundary_before_any_work(what, last, past, build, estimate):
    oracles, run = build(past)
    with pytest.raises(SizeGuardError) as refused:
        run()
    assert str(refused.value) == (
        f"size guard: {what} {past} goods needs an estimated {estimate:,} steps, "
        f"over the budget of {WORK_BUDGET:,}"
    )
    for v in oracles:
        assert v._cache == {0: 0}  # no value_mask miss: nothing was tabulated or searched

    _, run = build(last)
    run()


def test_best_response_refuses_once_its_stored_states_pass_the_budget(monkeypatch):
    # The 2 x 16 search stores 64 states of 16 children each: a budget of
    # 64 * 16 steps admits it, and one step less refuses the 64th state.
    _, run = two_agent_search(16)
    monkeypatch.setattr(valuations, "WORK_BUDGET", 64 * 16 - 1)
    with pytest.raises(SizeGuardError) as refused:
        run()
    assert str(refused.value) == (
        "size guard: best_response for agent 1 of 2 on 16 goods stored 63 states "
        "(1,008 steps) and needs another, over the budget of 1,023"
    )
    monkeypatch.setattr(valuations, "WORK_BUDGET", 64 * 16)
    run()
