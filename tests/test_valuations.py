"""Valuation oracles and exhaustive class-membership checks."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_matching_value,
    random_monotone_table_values,
    reference_as_fraction,
    reference_is_additive,
    reference_is_cancelable,
    reference_is_monotone,
    reference_is_subadditive,
    reference_is_submodular,
    reference_table,
    submodular_by_extension_bound,
    value_table,
)
from rrfair import checks, valuations
from rrfair.equilibria import applicable_bound_rule
from rrfair.instances import (
    FIXTURES,
    GeneratorSpec,
    build_fixture,
    bluff_tightness_instance,
    generate,
    no_pne_instance,
    oxs_lower_bound_instance,
)
from rrfair.checks import (
    CLASS_CHECKS,
    ClassCheck,
    _pairwise_violators,
    is_additive,
    is_cancelable,
    is_monotone,
    is_subadditive,
    is_submodular,
)
from rrfair.valuations import (
    OXS,
    Additive,
    BudgetAdditive,
    Instance,
    SizeGuardError,
    Table,
    UnitDemand,
    Valuation,
    as_fraction,
)

F = Fraction


class Signed(Valuation):
    """A bare value table that may hold negative values, outside every oracle class."""

    def __init__(self, m: int, values: list[int]) -> None:
        super().__init__(m, 1)
        self.values = tuple(values)

    def _value_mask(self, mask: int) -> int:
        return self.values[mask]

    def _key(self) -> tuple:
        return self.m, self.values


def cancelable_samples(seed: int, m: int, count: int):
    """Small certified-cancelable valuations of the three closed-form classes."""
    out = []
    for k in range(count):
        for cls in ("additive", "budget_additive", "unit_demand"):
            spec = GeneratorSpec(valuation_class=cls, n=1, m=m, seed=seed + k)
            out.append(generate(spec).valuations[0])
    return out


# ---------------------------------------------------------------------------
# value / marginal


def test_value_on_empty_set_is_zero_for_every_class():
    e = F(1, 100)
    samples = [
        Additive([1, 2, 3]),
        BudgetAdditive([3, 2], cap=4),
        UnitDemand([2, 5]),
        OXS(3, [(0, "s", 2), (1, "s", 1 - e)]),
        Table(2, [0, 1, 1, 2]),
    ]
    for v in samples:
        assert v.value(frozenset()) == 0


def test_oxs_value_matches_known_matchings():
    inst = bluff_tightness_instance()  # eps = 1/100, 2/100, 3/100
    v2 = inst.valuations[1]
    assert v2.value({0, 1}) == 3
    assert v2.value({0, 3, 4}) == 3 - F(2, 100)
    assert v2.value({1, 3}) == 1  # both goods compete for the same slot
    assert v2.value({2}) == 1 - F(1, 100)


def test_oxs_value_on_lower_bound_fixture():
    v4 = oxs_lower_bound_instance().valuations[3]
    assert v4.value({5, 7}) == 1 + F(6, 1000)  # disjoint slots: 1 + eps1
    assert v4.value({0}) == 3  # 5 * beta with beta = 3/5
    assert v4.value({3, 5}) == F(6, 5)  # shared slot keeps only 2*beta


def test_table_values_match_fixture_cases():
    inst = no_pne_instance()
    v1, v2 = inst.valuations
    assert v1.value({1, 2}) == 4
    assert v2.value({2, 3}) == 4
    assert v1.value({0, 1, 2}) == 4
    assert v1.value({0}) == 2


def test_marginals():
    inst = no_pne_instance()
    v1 = inst.valuations[0]
    assert v1.value({0, 1}) - v1.value({0}) == 1  # v({g1,g2}) - v({g1}) = 3 - 2
    assert v1.value({0, 2} | {0}) - v1.value({0, 2}) == 0  # already owned
    additive = Additive([5, 7, 11])
    for bundle in [set(), {0}, {0, 2}]:
        assert additive.value(bundle | {1}) - additive.value(bundle) == 7


def test_equality_is_per_class_and_equal_oracles_hash_equal():
    assert Additive([1, 2]) != UnitDemand([1, 2])
    assert UnitDemand([1, 2]) != Additive([1, 2])
    assert Additive([1, 2]) != Additive([2, 1])
    assert BudgetAdditive([1, 2], 2) != BudgetAdditive([1, 2], 3)
    assert OXS(3, [(0, "a", 1)]) != OXS(2, [(0, "a", 1)])
    assert Table(1, [0, 1]) != Table(1, [0, 2])
    for make in (
        lambda: Additive([1, "1/2"]),
        lambda: BudgetAdditive([1, 2], "3/2"),
        lambda: UnitDemand([F(2, 4), 1]),
        lambda: OXS(3, [(0, "a", 1), (2, "b", "1/3")]),
        lambda: Table(2, [0, 1, 2, 2]),
    ):
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


def test_out_of_range_goods_are_rejected():
    v = Additive([1, 2])
    with pytest.raises(ValueError):
        v.value({0, 5})
    with pytest.raises(ValueError):
        v.value({-1})


def test_floats_are_rejected_everywhere():
    with pytest.raises(TypeError):
        Additive([1.5, 2])
    with pytest.raises(TypeError):
        BudgetAdditive([1, 2], cap=0.5)
    with pytest.raises(TypeError):
        OXS(2, [(0, "s", 0.25)])


def test_as_fraction_returns_a_fraction_unchanged():
    x = F(3, 7)
    assert as_fraction(x) is x
    assert as_fraction("3/7") == as_fraction(F(6, 14)) == x


@st.composite
def rational_strings(draw):
    """Strings of the grammar (signs, leading zeros, p/q, p/0, decimals, ~4,300 digits) and not."""
    def digits(min_size: int = 1) -> str:
        zeros = draw(st.text("0", max_size=3))
        body = draw(st.text("0123456789", min_size=min_size, max_size=6)
                    | st.integers(4295, 4305).map(lambda k: "9" * k))
        return zeros + body

    sign = draw(st.sampled_from(["", "+", "-"]))
    form = draw(st.sampled_from(["integer", "p/q", "p/0", "decimal", "malformed"]))
    if form == "integer":
        return sign + digits()
    if form == "p/q":
        return f"{sign}{digits()}/{digits()}"
    if form == "p/0":
        return f"{sign}{digits()}/{draw(st.text('0', min_size=1, max_size=3))}"
    if form == "decimal":
        return f"{sign}{digits(0)}.{digits()}"
    return sign + draw(st.sampled_from(
        ["", "1e5", " 1", "1 ", "1_0", "\u0662", "1/", "/2", "1.", ".", "0x10", "+1", "1/2/3",
         "1.5/2", "1/2.5", "inf", "nan", "1e99999999"]))


def outcome(read, text: str) -> tuple:
    """What `read(text)` gives: the value, or the refusal's type and message."""
    try:
        value = read(text)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


@seed(20230131)
@settings(max_examples=400, deadline=None)
@given(text=rational_strings())
def test_as_fraction_reads_a_string_as_fraction_does(text):
    assert outcome(as_fraction, text) == outcome(reference_as_fraction, text)


# Table entries by the table's form: all unsigned digit strings (leading zeros,
# and 577/578 digits on either side of the plain-integer read), all ints (on
# either side of 2^1920), or a mix of every form a document or a caller spells.
_DIGITS = st.builds(str.__add__, st.text("0", max_size=3),
                    st.text("0123456789", min_size=1, max_size=5))
TABLE_ENTRIES = {
    "digits": _DIGITS | st.sampled_from(["9" * 577, "1" + "0" * 576, "9" * 578]),
    "ints": st.integers(0, 10**6) | st.sampled_from([2**1920 - 1, 2**1920, 10**600]),
    "mixed": _DIGITS | st.integers(0, 99) | st.builds(F, st.integers(0, 12), st.integers(1, 12))
             | st.sampled_from(["+3", "-0", "+007", "3/4", "06/08", "0.5", ".25", "2.50"]),
}
TABLE_ZEROS = {"digits": ["0", "000"], "ints": [0],
               "mixed": ["0", "-0", "+0", 0, F(0), "0/5", ".0"]}
# Entries every table refuses, planted at entry k >= 1; entry 0 is refused when not 0.
REFUSED_ENTRIES = ["\u0662", "\u00b2", "9" * 4301, True, 1.5, None, -1, "-3", "1/0", ""]


@st.composite
def table_entries(draw):
    """(m, entries, form) of a normalized table of non-negative entries of one form."""
    m = draw(st.integers(1, 3))
    form = draw(st.sampled_from(sorted(TABLE_ENTRIES)))
    rest = draw(st.lists(TABLE_ENTRIES[form], min_size=(1 << m) - 1, max_size=(1 << m) - 1))
    return m, [draw(st.sampled_from(TABLE_ZEROS[form])), *rest], form


def read_table(read, *args) -> tuple:
    """(values, scale, ints) and the types of each, or the refusal's type and message."""
    try:
        values, scale, ints = read(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return values, scale, ints, {type(x) for x in values}, {type(x) for x in ints}


def library_table(m: int, entries: list) -> tuple:
    table = Table(m, entries)
    return table.values, table.scale, table._ints


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(case=table_entries())
def test_table_reads_its_entries_as_the_fraction_reference_does(case):
    m, entries, _ = case
    got = read_table(library_table, m, entries)
    assert got == read_table(reference_table, entries)
    assert got[3:] == ({F}, {int})


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(case=table_entries(), bad=st.sampled_from(REFUSED_ENTRIES), data=st.data())
def test_table_refuses_an_entry_as_the_fraction_reference_does(case, bad, data):
    m, entries, _ = case
    k = data.draw(st.integers(1, (1 << m) - 1))
    planted = [*entries[:k], bad, *entries[k + 1:]]
    got = read_table(library_table, m, planted)
    assert got == read_table(reference_table, planted)
    assert got[1].startswith(f"values[{k}]: ")
    unnormalized = [data.draw(st.sampled_from(["1", 1, "1/2"])), *entries[1:]]
    got = read_table(library_table, m, unnormalized)
    assert got == read_table(reference_table, unnormalized) == (
        ValueError, "table is not normalized, value on the empty set must be 0")


def test_plain_integer_tables_skip_the_per_entry_reader(monkeypatch):
    read = []
    amount = valuations._amount
    monkeypatch.setattr(valuations, "_amount", lambda x: read.append(x) or amount(x))
    mixed = Table(2, [0, "1", F(2), 3])
    assert Table(2, ["0", "1", "02", "3"]) == Table(2, [0, 1, 2, 3]) == mixed
    assert read == [0, "1", F(2), 3]  # only the mixed table is read entry by entry


def test_a_plain_integer_table_builds_its_fractions_when_first_read():
    table = Table(2, ["0", "1", "02", "3"])
    assert table.value_mask(3) == 3 and table._values is None
    assert table.values == (0, 1, 2, 3) and table.values is table.values


def test_repr_prints_m_and_each_field_as_a_document_writes_it():
    assert repr(Additive([2, F(1, 2)])) == "Additive(m=2, weights=['2', '1/2'])"
    assert repr(UnitDemand([0])) == "UnitDemand(m=1, weights=['0'])"
    assert repr(BudgetAdditive([1, 2], cap="3/2")) == (
        "BudgetAdditive(m=2, weights=['1', '2'], cap='3/2')")
    assert repr(OXS(3, [(0, "s", 1), (2, 7, F(1, 3))])) == (
        "OXS(m=3, edges=[[0, 's', '1'], [2, 7, '1/3']])")
    assert repr(Table(1, [0, 1])) == "Table(m=1, values=['0', '1'])"


def test_oracles_are_equal_exactly_when_class_m_and_fields_are():
    assert Additive([1, "1/2"]) == Additive(["1", F(1, 2)])
    assert hash(Additive([1, "1/2"])) == hash(Additive(["1", F(1, 2)]))
    assert Additive([1, 2]) != UnitDemand([1, 2])
    assert BudgetAdditive([1, 2], 3) != BudgetAdditive([1, 2], 2)
    assert OXS(2, [(0, "s", 1)]) != OXS(3, [(0, "s", 1)])
    assert Table(1, [0, 1]) != Table(1, [0, 2])


# ---------------------------------------------------------------------------
# monotonicity / additivity


def test_is_monotone_examples():
    assert is_monotone(no_pne_instance().valuations[0])
    assert is_monotone(Additive([0, 3, F(1, 2)]))
    dropping = Table(2, [0, 2, 0, 1])  # v({g0}) = 2 > 1 = v({g0,g1})
    assert not is_monotone(dropping)


def test_instances_reject_non_monotone_tables():
    with pytest.raises(ValueError, match="not monotone"):
        Instance(n=1, m=2, valuations=(Table(2, [0, 2, 0, 1]),))


@pytest.mark.parametrize("m", range(1, 9))
def test_is_monotone_finds_a_lone_decrease_at_each_good(m):
    # Across m = 1..8 every shape of slice is hit: strided at low bits, blocks at
    # high bits, and one block at m = 1.
    rng = random.Random(m)
    for g in range(m):
        bit = 1 << g
        # v(T) = 8|T - g| + 4[g in T] + r(T), r in [0, 3] and r(empty) = 0, as every
        # oracle's value_mask assumes: every marginal is positive...
        values = [8 * (t & ~bit).bit_count() + 4 * (t >> g & 1) + (t and rng.randint(0, 3))
                  for t in range(1 << m)]
        rising = Signed(m, values)
        s = rng.choice([t for t in range(1 << m) if not t & bit])
        values[s | bit] = values[s] - 1  # ...but v(S + g) - v(S), now -1, and no other
        falling = Signed(m, values)
        assert is_monotone(rising) and reference_is_monotone(rising)
        assert not is_monotone(falling) and not reference_is_monotone(falling)
    for _ in range(5):
        table = Table(m, random_monotone_table_values(rng, m))
        assert is_monotone(table) and reference_is_monotone(table)
        anything = Signed(m, [t and rng.randint(-1, 3) for t in range(1 << m)])
        assert bool(is_monotone(anything)) == reference_is_monotone(anything)


def test_is_additive():
    assert is_additive(Additive([1, 2, 3]))
    assert not is_additive(UnitDemand([1, 2]))
    assert not is_additive(BudgetAdditive([3, 2], cap=4))


def test_size_guards_raise():
    v = Additive([1] * 17)
    with pytest.raises(SizeGuardError):
        is_cancelable(v)
    with pytest.raises(SizeGuardError):
        is_subadditive(v)
    with pytest.raises(SizeGuardError):
        Table(21, [0] * (1 << 21))


# ---------------------------------------------------------------------------
# submodularity


def test_is_submodular_examples():
    assert is_submodular(no_pne_instance().valuations[0])
    assert is_submodular(Additive([2, 0, F(7, 3)]))
    superadditive = Table(2, [0, 1, 1, 3])
    check = is_submodular(superadditive)
    assert not check
    assert check.witness == (frozenset(), frozenset({0}), 1)


def test_submodular_witness_is_lexicographically_first():
    # Two independent violations; the reported one must have the smallest
    # (S mask, T mask, g) triple.
    values = [F(0), F(1), F(1), F(3), F(1), F(3), F(2), F(4)]
    check = is_submodular(Table(3, values))
    assert not check
    witnesses = []
    for s_mask in range(8):
        for t_mask in range(8):
            if s_mask & t_mask != s_mask:
                continue
            for g in range(3):
                if t_mask >> g & 1:
                    continue
                bit = 1 << g
                if values[s_mask | bit] - values[s_mask] < values[t_mask | bit] - values[t_mask]:
                    witnesses.append((s_mask, t_mask, g))
    expected = min(witnesses)
    s, t, g = check.witness
    as_masks = (sum(1 << x for x in s), sum(1 << x for x in t), g)
    assert as_masks == expected


def test_submodular_check_agrees_with_extension_bound_characterization():
    rng = random.Random(7)
    for m in (2, 3, 4, 5):
        for _ in range(40 if m < 5 else 12):
            table = Table(m, random_monotone_table_values(rng, m))
            assert bool(is_submodular(table)) == submodular_by_extension_bound(table)


def test_oxs_is_submodular_on_generated_graphs():
    for seed in range(12):
        spec = GeneratorSpec(valuation_class="oxs", n=1, m=5, seed=seed)
        assert is_submodular(generate(spec).valuations[0])


def test_oxs_value_equals_brute_force_enumeration():
    rng = random.Random(99)
    for _ in range(25):
        m = rng.randint(2, 5)
        slots = rng.randint(1, 4)
        edges = [
            (rng.randrange(m), rng.randrange(slots), F(rng.randint(0, 9)))
            for _ in range(rng.randint(1, 8))
        ]
        v = OXS(m, edges)
        for mask in range(1 << m):
            members = {g for g in range(m) if mask >> g & 1}
            subset_edges = [e for e in edges if e[0] in members]
            assert v.value(members) == brute_force_matching_value(subset_edges)


def test_oxs_value_equals_brute_force_with_distinct_prime_denominators():
    # Every positive weight has its own prime denominator, so the integer
    # edge copy is scaled by their product, its worst case.  A parallel edge
    # (same good and slot) and zero weights exercise the collapsing of edges
    # to their heaviest copy.
    primes = [p for p in range(2, 200) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    rng = random.Random(17)

    def over(p: int) -> Fraction:  # a weight in (0, 3) whose denominator is p
        return F(p * rng.randint(0, 2) + rng.randint(1, p - 1), p)

    for k in range(10):
        m = rng.randint(2, 5)
        slots = rng.randint(1, 3)
        edges = [(rng.randrange(m), rng.randrange(slots), over(p))
                 for p in primes[4 * k:4 * k + 3]]
        edges.append((edges[0][0], edges[0][1], over(primes[4 * k + 3])))
        edges += [(rng.randrange(m), rng.randrange(slots), F(0)) for _ in range(2)]
        v = OXS(m, edges)
        assert v.scale == math.prod(primes[4 * k:4 * k + 4])
        for mask in range(1 << m):
            members = {g for g in range(m) if mask >> g & 1}
            subset_edges = [e for e in edges if e[0] in members]
            assert v.value(members) == brute_force_matching_value(subset_edges)


# ---------------------------------------------------------------------------
# cancelability


def test_is_cancelable_examples():
    assert is_cancelable(Additive([4, 1, 1]))
    assert is_cancelable(BudgetAdditive([3, 2], cap=4))
    check = is_cancelable(no_pne_instance().valuations[0])
    assert not check
    assert check.witness == (frozenset({0}), frozenset({1}), 3)


def test_cancelable_closed_forms_on_generated_samples():
    for v in cancelable_samples(seed=100, m=5, count=4):
        assert is_cancelable(v), v
        assert is_subadditive(v), v


def test_additive_is_in_every_class():
    for seed in range(6):
        v = generate(GeneratorSpec(valuation_class="additive", n=1, m=5, seed=seed)).valuations[0]
        assert is_submodular(v)
        assert is_cancelable(v)
        assert is_subadditive(v)


def test_cancelable_implies_set_extension_property():
    # For certified-cancelable oracles, a strict comparison after adding any
    # disjoint set R must already hold without R.
    rng = random.Random(5)
    for v in cancelable_samples(seed=11, m=5, count=2):
        full = (1 << v.m) - 1
        vals = value_table(v)
        for _ in range(300):
            s_mask = rng.randrange(1 << v.m)
            t_mask = rng.randrange(1 << v.m)
            free = full ^ (s_mask | t_mask)
            r_mask = rng.randrange(1 << v.m) & free
            if vals[s_mask | r_mask] > vals[t_mask | r_mask]:
                assert vals[s_mask] > vals[t_mask]


def test_cancelable_singleton_domination_extends_to_sets():
    # For equal-size X and Y, if the sorted singleton values of X dominate
    # those of Y entrywise, then v(X) >= v(Y).
    for v in cancelable_samples(seed=21, m=5, count=2):
        goods = range(v.m)
        for k in (1, 2, 3):
            for x in itertools.combinations(goods, k):
                xs = sorted((v.value({g}) for g in x), reverse=True)
                for y in itertools.combinations(goods, k):
                    ys = sorted((v.value({g}) for g in y), reverse=True)
                    if all(a >= b for a, b in zip(xs, ys)):
                        assert v.value(x) >= v.value(y)


# ---------------------------------------------------------------------------
# subadditivity


def test_is_subadditive_examples():
    assert is_subadditive(UnitDemand([3, 1, 4]))
    assert is_subadditive(no_pne_instance().valuations[0])  # monotone submodular
    assert not is_subadditive(Table(2, [0, 1, 1, 3]))
    # Submodular but negative: v({g1} | {g1}) = -1 > v({g1}) + v({g1}) = -2.
    assert is_submodular(Signed(1, [0, -1])) and not is_subadditive(Signed(1, [0, -1]))


def test_monotone_submodular_tables_are_subadditive():
    rng = random.Random(3)
    for _ in range(30):
        table = Table(4, random_monotone_table_values(rng, 4))
        if is_submodular(table):
            assert is_subadditive(table)


# ---------------------------------------------------------------------------
# normalization property


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
    cap=st.integers(min_value=0, max_value=60),
)
def test_closed_forms_are_normalized_and_monotone(weights, cap):
    for v in (Additive(weights), BudgetAdditive(weights, cap), UnitDemand(weights)):
        assert v.value(frozenset()) == 0
        assert is_monotone(v)


# ---------------------------------------------------------------------------
# integer value tables against the Fraction reference checks


def assert_checks_match_reference(v):
    assert bool(is_monotone(v)) == reference_is_monotone(v)
    assert bool(is_additive(v)) == reference_is_additive(v)
    assert is_submodular(v) == reference_is_submodular(v)
    assert is_cancelable(v) == reference_is_cancelable(v)
    assert bool(is_subadditive(v)) == reference_is_subadditive(v)


# Small numerators over mixed denominators: the scaled tables differ from the
# Fraction ones, and ties between values are common.
rationals = st.builds(F, st.integers(min_value=0, max_value=12), st.integers(min_value=2, max_value=12))


@st.composite
def rational_valuations(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    kind = draw(st.sampled_from(
        ["additive", "budget_additive", "unit_demand", "oxs", "table", "monotone_table"]))
    weights = draw(st.lists(rationals, min_size=m, max_size=m))
    if kind == "additive":
        return Additive(weights)
    if kind == "budget_additive":
        return BudgetAdditive(weights, draw(rationals))
    if kind == "unit_demand":
        return UnitDemand(weights)
    if kind == "oxs":
        slots = draw(st.integers(min_value=1, max_value=3))
        edge = st.tuples(
            st.integers(min_value=0, max_value=m - 1),
            st.integers(min_value=0, max_value=slots - 1),
            rationals,
        )
        return OXS(m, draw(st.lists(edge, min_size=1, max_size=2 * m)))
    values = [F(0)] + draw(st.lists(rationals, min_size=(1 << m) - 1, max_size=(1 << m) - 1))
    if kind == "monotone_table":
        for mask in range(1, 1 << m):
            values[mask] = max([values[mask]] + [values[mask ^ (1 << g)] for g in range(m)
                                                 if mask >> g & 1])
    return Table(m, values)


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(v=rational_valuations())
def test_class_checks_match_fraction_reference_on_rational_oracles(v):
    assert_checks_match_reference(v)


@seed(20230131)
@settings(max_examples=200, deadline=None)
@given(v=rational_valuations())
def test_declared_subadditivity_holds_on_rational_oracles(v):
    assert v.subadditive_by_construction == (not isinstance(v, Table))
    if v.subadditive_by_construction:
        assert is_subadditive(v)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_class_checks_match_fraction_reference_on_fixture_agents(name):
    for v in build_fixture(name).valuations:
        assert_checks_match_reference(v)


def test_class_checks_match_fraction_reference_with_distinct_prime_denominators():
    # Worst case for the common denominator: the 63 non-empty subsets of 6
    # goods get the first 63 primes as denominators, so the table is scaled
    # by their product (a 123-digit integer).  v(S) = |S| + k/p with
    # 0 < k < p keeps the table monotone.
    primes = [p for p in range(2, 320) if all(p % d for d in range(2, int(p ** 0.5) + 1))][:63]
    rng = random.Random(6)
    values = [F(0)] + [
        bin(mask).count("1") + F(rng.randint(1, p - 1), p)
        for mask, p in zip(range(1, 64), primes)
    ]
    assert len({x.denominator for x in values}) == 64
    table = Table(6, values)
    assert is_monotone(table)
    assert_checks_match_reference(table)


@st.composite
def tie_heavy_tables(draw):
    """Bare value tables on m <= 6 goods, which no oracle class constrains.

    Entries in {0, 1, 2}, as drawn or closed upward to be monotone, make ties
    decide cancelability; wider entries are rarely monotone; signed entries
    break the non-negativity that the subadditivity shortcut needs.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["ties", "monotone_ties", "wide", "signed"]))
    lo, hi = {"wide": (0, 9), "signed": (-2, 2)}.get(kind, (0, 2))
    values = [0] + draw(st.lists(st.integers(min_value=lo, max_value=hi),
                                 min_size=(1 << m) - 1, max_size=(1 << m) - 1))
    if kind == "monotone_ties":
        for mask in range(1, 1 << m):
            values[mask] = max([values[mask]] + [values[mask ^ (1 << g)] for g in range(m)
                                                 if mask >> g & 1])
    return Signed(m, values) if kind == "signed" else Table(m, values)


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(v=tie_heavy_tables())
def test_fast_verdicts_and_witnesses_match_reference_on_tied_and_signed_tables(v):
    assert is_submodular(v) == reference_is_submodular(v)
    assert is_cancelable(v) == reference_is_cancelable(v)
    assert bool(is_subadditive(v)) == reference_is_subadditive(v)


@st.composite
def perturbed_tables(draw):
    """A generated coverage or additive table on m <= 6 goods with one entry raised or lowered.

    The first violation then sits around the changed set, more often above
    the empty set than in a random table.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    cls = draw(st.sampled_from(["submodular_table", "additive"]))
    v = generate(GeneratorSpec(cls, 1, m, draw(st.integers(min_value=0, max_value=999)))).valuations[0]
    values = [v.value_mask(mask) for mask in range(1 << m)]
    values[draw(st.integers(min_value=1, max_value=(1 << m) - 1))] += draw(st.sampled_from([-2, -1, 1, 2]))
    return Signed(m, values)


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(v=perturbed_tables())
def test_verdicts_and_witnesses_match_reference_where_the_first_violation_is_deep(v):
    assert is_submodular(v) == reference_is_submodular(v)
    assert is_cancelable(v) == reference_is_cancelable(v)
    assert bool(is_subadditive(v)) == reference_is_subadditive(v)


@pytest.mark.parametrize("m", [13, 14, 15])
def test_failing_checks_on_13_to_15_goods_name_violations(m):
    """A coverage table with one entry raised fails both checks; each witness is checked directly."""
    v = generate(GeneratorSpec("submodular_table", 1, m, 0)).valuations[0]
    values = [v.value_mask(mask) for mask in range(1 << m)]
    values[(1 << m) - 1 - 0b101] += 1  # the set of every good but 0 and 2
    w = Signed(m, values)

    def value(bundle, g=None):
        return w.value_mask(sum(1 << h for h in bundle) | (0 if g is None else 1 << g))

    submodular = is_submodular(w)
    assert not submodular
    s, t, g = submodular.witness
    assert s <= t and g not in t
    assert value(s, g) - value(s) < value(t, g) - value(t)

    cancelable = is_cancelable(w)
    assert not cancelable
    s, t, g = cancelable.witness
    assert g not in s | t
    assert value(s) <= value(t) and value(s, g) > value(t, g)


class CountedReads(list):
    """A value table that counts its reads by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _no_witness_search(*args):
    raise AssertionError("a check that holds searched for a witness")


def nine_good_oracles() -> dict[str, Valuation]:
    """Fresh oracles on 9 goods, which no class check has tabulated yet."""
    *additive, oxs = build_fixture("oxs-lower-bound").valuations  # the OXS agent is not cancelable
    table = generate(GeneratorSpec("submodular_table", 1, 9, 0)).valuations[0]
    return {**{f"additive{i}": v for i, v in enumerate(additive)}, "oxs": oxs, "table": table}


def nine_good_holding_checks():
    """(oracle name, check) pairs on 9 goods where the check holds."""
    checks = {"oxs": (is_submodular, is_subadditive), "table": (is_submodular, is_subadditive)}
    return [pytest.param(name, check, id=f"{name}-{check.__name__}") for name in nine_good_oracles()
            for check in checks.get(name, (is_submodular, is_cancelable, is_subadditive))]


@pytest.mark.parametrize("name, check", nine_good_holding_checks())
def test_a_check_that_holds_reads_m2_2m_values_and_searches_no_witness(monkeypatch, name, check):
    v = nine_good_oracles()[name]
    tables: list[CountedReads] = []
    integer_table = checks._integer_table

    def counted(oracle, name):
        tables.append(CountedReads(integer_table(oracle, name)))
        return tables[-1]

    violators: list[set[int]] = []

    def pairwise(vals, m):
        violators.append(_pairwise_violators(vals, m))
        return violators[-1]

    monkeypatch.setattr(checks, "_integer_table", counted)
    # Submodularity and subadditivity decide by the pairwise test alone, and
    # the failing paths (cancelability's suffix minima and bisection, naming
    # a witness) raise.
    monkeypatch.setattr(checks, "_pairwise_violators", pairwise)
    for failing_path_only in ("accumulate", "bisect_left", "mask_to_bundle"):
        monkeypatch.setattr(checks, failing_path_only, _no_witness_search)
    assert check(v) == ClassCheck(True)
    assert len(tables) == 1 and tables[0].reads <= v.m ** 2 << v.m
    assert violators == ([] if check is is_cancelable else [set()])


@pytest.mark.parametrize("name", sorted(nine_good_oracles()))
def test_the_checks_on_one_oracle_tabulate_it_once_and_share_one_pairwise_pass(monkeypatch, name):
    alone = {check: check(nine_good_oracles()[name]) for check in CLASS_CHECKS.values()}
    v = nine_good_oracles()[name]
    charged: list[tuple[str, ...]] = []
    passes: list[int] = []
    reads = Counter()
    check_subset_work, pairwise = checks.check_subset_work, _pairwise_violators

    def charge(m, what, *checks):
        charged.append(checks)
        check_subset_work(m, what, *checks)

    def counted_pass(vals, m):
        passes.append(m)
        return pairwise(vals, m)

    def value_mask(oracle, mask, original=Valuation.value_mask):
        reads[mask] += 1
        return original(oracle, mask)

    monkeypatch.setattr(checks, "check_subset_work", charge)
    monkeypatch.setattr(checks, "_pairwise_violators", counted_pass)
    monkeypatch.setattr(Valuation, "value_mask", value_mask)
    for check in CLASS_CHECKS.values():  # verdicts and witnesses as on a fresh oracle each
        assert check(v) == alone[check]
    assert charged == [(check.__name__,) for check in CLASS_CHECKS.values()]  # each its own
    assert max(reads.values(), default=1) == 1  # a table was tabulated when its instance was built
    assert len(passes) == 1


def test_the_bound_rule_on_oxs_lower_bound_tabulates_each_agent_once(monkeypatch):
    inst = build_fixture("oxs-lower-bound")
    tables: list[int] = []
    passes: list[int] = []
    integer_table, pairwise = checks._integer_table, _pairwise_violators

    def counted_table(oracle, name):
        table = integer_table(oracle, name)
        tables.append(id(table))
        return table

    def counted_pass(vals, m):
        passes.append(m)
        return pairwise(vals, m)

    monkeypatch.setattr(checks, "_integer_table", counted_table)
    monkeypatch.setattr(checks, "_pairwise_violators", counted_pass)
    assert applicable_bound_rule(inst).name == "alpha/3 [submodular agents]"
    assert (len(tables), len(set(tables)), len(passes)) == (11, 4, 4)  # one table per agent


# ---------------------------------------------------------------------------
# value_mask: the int scale * v against independent Fraction closed forms

PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@st.composite
def oracles_with_closed_forms(draw):
    """An oracle of any class and its value as a Fraction closed form.

    Every rational gets its own prime denominator, so `scale` is the product
    of the primes of the non-zero ones; zeros are common.  OXS edges include
    zero weights and a parallel copy of an earlier edge, lighter or heavier.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    primes = iter(PRIMES)

    def rational() -> Fraction:
        p = next(primes)
        return F(draw(st.integers(min_value=0, max_value=3 * p - 1) | st.just(0)), p)

    kind = draw(st.sampled_from(["additive", "budget_additive", "unit_demand", "oxs", "table"]))
    if kind == "table":
        values = [F(0)] + [rational() for _ in range((1 << m) - 1)]
        v, closed = Table(m, values), lambda members: values[sum(1 << g for g in members)]
    elif kind == "oxs":
        slots = draw(st.integers(min_value=1, max_value=3))
        edges = [(draw(st.integers(min_value=0, max_value=m - 1)),
                  draw(st.integers(min_value=0, max_value=slots - 1)), rational())
                 for _ in range(draw(st.integers(min_value=1, max_value=2 * m)))]
        good, slot, _ = edges[draw(st.integers(min_value=0, max_value=len(edges) - 1))]
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), (good, slot, rational()))
        v = OXS(m, edges)

        def closed(members):
            return brute_force_matching_value([e for e in edges if e[0] in members])
    else:
        weights = [rational() for _ in range(m)]
        if kind == "additive":
            v = Additive(weights)

            def closed(members):
                return sum((weights[g] for g in members), F(0))
        elif kind == "budget_additive":
            cap = rational()
            v = BudgetAdditive(weights, cap)

            def closed(members):
                return min(cap, sum((weights[g] for g in members), F(0)))
        else:
            v = UnitDemand(weights)

            def closed(members):
                return max((weights[g] for g in members), default=F(0))
    return v, closed


@seed(20230131)
@settings(max_examples=300, deadline=None)
@given(case=oracles_with_closed_forms())
def test_value_mask_is_scale_times_the_closed_form(case):
    v, closed = case
    for mask in range(1 << v.m):
        members = {g for g in range(v.m) if mask >> g & 1}
        expected = closed(members)
        scaled = v.value_mask(mask)
        assert type(scaled) is int
        assert scaled == v.scale * expected
        value = v.value(members)
        assert type(value) is Fraction and value == expected
