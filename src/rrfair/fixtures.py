"""The four benchmark fixtures and the rows `reproduce` checks them by.

Each fixture is an exact construction whose equilibrium and fairness
numbers are known in closed form; its parameters are rationals with
validated strict inequalities.  Each is one `FIXTURES` entry: its builder,
whose signature holds the parameter defaults, and beside it the rows that
`reproduce` prints, each closed form next to the measured value.  The
rows import the modules they measure with when they run, so building a
fixture compiles only this module, `valuations` and `matching` (and
`checks`, which `Instance` runs on the tables of `no-pne`).
`build_fixture` is the one way in by name.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from .valuations import OXS, Additive, Instance, Table, as_fraction

if TYPE_CHECKING:
    from .fairness import Factor

    Row = tuple[str, Factor, Factor]  # (quantity, closed form, measured value)


class ConstraintError(ValueError):
    """A fixture parameter violates its strict-inequality constraints."""


def _require(condition: bool, inequality: str) -> None:
    if not condition:
        raise ConstraintError(f"parameter constraint violated: requires {inequality}")


def no_pne_instance() -> Instance:
    """Two agents, four goods, explicit tables; no profile is a near-exact equilibrium.

    Every singleton is worth 2, every set of three or four goods is worth 4,
    and the six pairs split 3/4 so that one agent always lands on a
    3-valued pair while a 4-valued pair was reachable.  Both tables are
    submodular.  The best factor any profile attains is 3/4.
    """
    pair_values_1 = {(0, 1): 3, (0, 2): 3, (0, 3): 4, (1, 2): 4, (1, 3): 3, (2, 3): 3}
    pair_values_2 = {(0, 1): 4, (0, 2): 4, (0, 3): 3, (1, 2): 3, (1, 3): 4, (2, 3): 4}

    def table(pairs: dict[tuple[int, int], int]) -> Table:
        values: list[int] = []
        for mask in range(16):
            members = [g for g in range(4) if mask >> g & 1]
            if len(members) == 0:
                values.append(0)
            elif len(members) == 1:
                values.append(2)
            elif len(members) == 2:
                values.append(pairs[members[0], members[1]])
            else:
                values.append(4)
        return Table(4, values)

    return Instance(
        n=2,
        m=4,
        valuations=(table(pair_values_1), table(pair_values_2)),
        description="two agents, four goods; every profile leaves one agent at 3 vs 4",
    )


def _no_pne_rows(inst: Instance, params: dict[str, Fraction]) -> list[Row]:
    from . import equilibria

    best = max(rec.pne_factor for rec in equilibria.profile_space_scan(inst))
    count = math.factorial(inst.m) ** inst.n
    return [(f"max pne_factor over {count} profiles", Fraction(3, 4), best)]


def bluff_tightness_instance(
    eps1: Fraction | int | str = Fraction(1, 100),
    eps2: Fraction | int | str = Fraction(2, 100),
    eps3: Fraction | int | str = Fraction(3, 100),
) -> Instance:
    """Additive agent vs OXS agent on five goods; the bluff factor 1/2 is tight.

    Requires 1 > eps3 > eps2 > eps1 > 0.  Under the bluff profile agent 2
    keeps value 1 while a deviation reaches 2 - eps1 - eps2, so the bluff
    equilibrium factor approaches 1/2 as the epsilons shrink.
    """
    e1, e2, e3 = as_fraction(eps1), as_fraction(eps2), as_fraction(eps3)
    _require(0 < e1, "eps1 > 0")
    _require(e1 < e2, "eps2 > eps1")
    _require(e2 < e3, "eps3 > eps2")
    _require(e3 < 1, "1 > eps3")
    agent1 = Additive([2, 1, 1 - e1, 1 - e2, 1 - e3])
    agent2 = OXS(
        5,
        [
            (0, "slot-a", 2),
            (1, "slot-b", 1),
            (2, "slot-c", 1 - e1),
            (3, "slot-b", 1 - e2),
            (4, "slot-b", 1 - e3),
        ],
    )
    return Instance(
        n=2,
        m=5,
        valuations=(agent1, agent2),
        description=(
            "additive agent 1 with weights (2, 1, 1-eps1, 1-eps2, 1-eps3) -- the fourth "
            "weight is deliberately 1-eps2 -- vs an OXS agent whose goods 2/4/5 compete "
            "for one slot"
        ),
    )


def _bluff_tightness_rows(inst: Instance, params: dict[str, Fraction]) -> list[Row]:
    from . import equilibria, profiles

    e1, e2, e3 = params["eps1"], params["eps2"], params["eps3"]
    evaluation = equilibria.evaluate_profile(inst, profiles.bluff_profile(inst))
    assert evaluation.equilibrium is not None
    return [
        ("agent 2 best-response value", 2 - e1 - e2,
         evaluation.equilibrium.per_agent[1].best_response_value),
        ("pne_factor", 1 / (2 - e1 - e2), evaluation.equilibrium.pne_factor),
        ("agent 2 -> 1 ef1 ratio", 1 / (2 - e1 - e3),
         evaluation.fairness.pair_ratios[1, 0]),
        ("ef1_factor", 1 / (2 - e1 - e3), evaluation.fairness.ef1_factor),
    ]


def additive_tightness_instance(
    delta: Fraction | int | str = Fraction(1, 1000),
    beta: Fraction | int | str = Fraction(1, 2),
) -> Instance:
    """Two additive agents on five goods; the a/(2-a) envy bound is tight.

    Requires 0 < delta < 1/2 and beta > 1/6 + delta.
    """
    d, b = as_fraction(delta), as_fraction(beta)
    _require(0 < d, "delta > 0")
    _require(d < Fraction(1, 2), "1/2 > delta")
    _require(b > Fraction(1, 6) + d, "beta > 1/6 + delta")
    half = Fraction(1, 2)
    agent1 = Additive([6, 3 + d, 3, half + d, half])
    agent2 = Additive([6 * b, 3 * b + d, 3 * b, half + d, half])
    return Instance(
        n=2,
        m=5,
        valuations=(agent1, agent2),
        description="two additive agents whose second agent scales the top goods by beta",
    )


def _additive_tightness_rows(inst: Instance, params: dict[str, Fraction]) -> list[Row]:
    from . import equilibria, mechanism, profiles

    d, b = params["delta"], params["beta"]
    profile = mechanism.Profile((profiles.truthful_profile(inst).rankings[0],
                                 mechanism.Ranking((4, 3, 0, 1, 2))))
    evaluation = equilibria.evaluate_profile(inst, profile)
    assert evaluation.equilibrium is not None
    alpha = (1 + d) / (3 * b + Fraction(1, 2) + 2 * d)
    ratio = (1 + d) / (6 * b + d)
    bound = alpha / (2 - alpha)
    return [
        ("pne_factor", alpha, evaluation.equilibrium.pne_factor),
        ("agent 2 -> 1 ef1 ratio", ratio, evaluation.fairness.pair_ratios[1, 0]),
        ("bound alpha/(2-alpha)", bound,
         equilibria.applicable_bound_rule(inst)(evaluation.equilibrium.pne_factor)),
        ("ratio >= bound", Fraction(1), Fraction(int(ratio >= bound))),
        ("ratio < bound + 1/100", Fraction(1),
         Fraction(int(evaluation.fairness.pair_ratios[1, 0] < bound + Fraction(1, 100)))),
    ]


def oxs_lower_bound_instance(
    eps1: Fraction | int | str = Fraction(6, 1000),
    eps2: Fraction | int | str = Fraction(5, 1000),
    eps3: Fraction | int | str = Fraction(4, 1000),
    eps4: Fraction | int | str = Fraction(3, 1000),
    eps5: Fraction | int | str = Fraction(2, 1000),
    eps6: Fraction | int | str = Fraction(1, 1000),
    beta: Fraction | int | str = Fraction(3, 5),
) -> Instance:
    """Three additive agents plus one OXS agent on nine goods.

    Requires 1 > eps1 > eps2 > ... > eps6 > 0 and beta > (1 + eps4)/2.
    An equilibrium profile leaves the OXS agent at factor a while her envy
    toward agent 1 stays near a/2, showing the a/2 fairness level is not
    reachable for submodular agents in general.
    """
    e = [as_fraction(x) for x in (eps1, eps2, eps3, eps4, eps5, eps6)]
    _require(e[5] > 0, "eps6 > 0")
    for idx in range(5):
        _require(e[idx] > e[idx + 1], f"eps{idx + 1} > eps{idx + 2}")
    _require(e[0] < 1, "1 > eps1")
    b = as_fraction(beta)
    _require(b > (1 + e[3]) / 2, "beta > (1 + eps4)/2")
    e1, e2, e3, e4, e5, e6 = e
    agent1 = Additive([5, e5, e6, 1, 2, e1, e2, e3, e4])
    agent2 = Additive([e5, 5, e6, 1, e1, e2, 2, e3, e4])
    agent3 = Additive([e5, e6, 5, e1, e2, 2, e3, e4, 1])
    agent4 = OXS(
        9,
        [
            (0, "s0", 5 * b),
            (1, "s1", 4 * b),
            (2, "s2", 3 * b),
            (3, "s3", 2 * b),
            (4, "s4", 2 * b - e4),
            (5, "s3", 1),
            (6, "s4", 1 - e3),
            (7, "s5", e1),
            (8, "s6", e2),
        ],
    )
    return Instance(
        n=4,
        m=9,
        valuations=(agent1, agent2, agent3, agent4),
        description="three additive agents and an OXS agent whose heavy slots overlap goods 4/6 and 5/7",
    )


def _oxs_lower_bound_rows(inst: Instance, params: dict[str, Fraction]) -> list[Row]:
    from . import equilibria, mechanism, profiles

    e1, e4, b = params["eps1"], params["eps4"], params["beta"]
    agent4 = mechanism.Ranking((2, 5, 7, 0, 1, 3, 4, 6, 8))
    profile = mechanism.Profile(profiles.truthful_profile(inst).rankings[:3] + (agent4,))
    evaluation = equilibria.evaluate_profile(inst, profile)
    assert evaluation.equilibrium is not None
    alpha = (1 + e1) / (2 * b + e1)
    ratio = (1 + e1) / (4 * b - e4)
    return [
        ("agent 4 best-response value", 2 * b + e1,
         evaluation.equilibrium.per_agent[3].best_response_value),
        ("pne_factor", alpha, evaluation.equilibrium.pne_factor),
        ("agent 4 -> 1 ef1 ratio", ratio, evaluation.fairness.pair_ratios[3, 0]),
        ("bound alpha/3", alpha / 3,
         equilibria.applicable_bound_rule(inst)(evaluation.equilibrium.pne_factor)),
        ("ratio >= alpha/3", Fraction(1), Fraction(int(ratio >= alpha / 3))),
        ("ratio < alpha/2 + 1/100", Fraction(1),
         Fraction(int(evaluation.fairness.pair_ratios[3, 0] < alpha / 2 + Fraction(1, 100)))),
    ]


class Fixture(NamedTuple):
    """A builder, whose signature holds the defaults, and its `rows(inst, all parameters)`."""

    build: Callable[..., Instance]
    rows: Callable[[Instance, dict[str, Fraction]], list[Row]]

    @property
    def parameters(self) -> dict[str, Fraction]:
        """Each of the builder's parameters, in signature order, at its default."""
        code = self.build.__code__
        names = code.co_varnames[:code.co_argcount]  # the positional parameters come first
        return dict(zip(names, map(Fraction, self.build.__defaults__ or ()), strict=True))


FIXTURES: dict[str, Fixture] = {
    "no-pne": Fixture(no_pne_instance, _no_pne_rows),
    "bluff-tightness": Fixture(bluff_tightness_instance, _bluff_tightness_rows),
    "additive-tightness": Fixture(additive_tightness_instance, _additive_tightness_rows),
    "oxs-lower-bound": Fixture(oxs_lower_bound_instance, _oxs_lower_bound_rows),
}


def build_fixture(name: str, **params: Fraction | int | str) -> Instance:
    """Build a named fixture over its defaults, validating parameter names and constraints."""
    fixture = FIXTURES.get(name)
    if fixture is None:
        raise ValueError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    unknown = set(params) - set(fixture.parameters)
    if unknown:
        raise ConstraintError(f"fixture {name!r} takes parameters {tuple(fixture.parameters)}, "
                              f"not {sorted(unknown)}")
    return fixture.build(**params)
