"""Set-function valuation oracles over goods, with exact rational values.

Goods are the integers 0..m-1; bundles are sets of goods.  Five oracle
families are provided (additive, budget-additive, unit-demand, OXS via
bipartite matching, and explicit tables), each declaring its document name
`kind` and its defining `fields`, together with exhaustive class-membership
checks: monotonicity, additivity, submodularity, cancelability, and
subadditivity.  `as_fraction` reads every rational in the document grammar.

The constructors and `Instance` alone judge what an instance may hold; a
refusal of one entry names it (`weights[2]: ...`), and a document adds the agent.

Each oracle fixes a positive integer `scale` at construction, the least
common denominator of its weights, cap, edge weights or table entries.
`value_mask(mask)`, the one cached primitive, is the int `scale * v(S)`;
`value` builds an exact `Fraction` from it, and scaled ints are made from
Fractions in this module only.  Scaling by a positive constant keeps
every comparison, tie and ratio, so the integer paths (class checks, OXS
matching, the reporting strategies, the best-response search) give the
results of the rational values.  The class checks tabulate an oracle
once and share one pairwise pass on it.  Work over subsets is refused
first when its estimate exceeds the one `WORK_BUDGET`.
"""

from __future__ import annotations

import re
import sys
from abc import ABC, abstractmethod
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import le
from typing import TYPE_CHECKING, Any, NamedTuple

from .matching import max_weight_matching_value

if TYPE_CHECKING:
    from .flow import DeadlineFlow

Bundle = frozenset[int]

WORK_BUDGET = 10**7  # steps; the one size guard of every exhaustive operation


class SizeGuardError(ValueError):
    """An operation's work exceeds `WORK_BUDGET`; it returns no partial result.

    An estimated operation is refused before any of it is done, a
    best-response search once the states it stores would pass the budget
    (or up front, when it would recurse past half the recursion limit).
    The CLI also refuses with it a report rational past `int_digit_limit`.
    """


def check_work(work: int, what: str) -> None:
    """Refuse `what` before it starts when its estimated steps exceed `WORK_BUDGET`."""
    if work > WORK_BUDGET:
        bits = work.bit_length()  # str() refuses ints of over 4300 digits
        steps = f"{work:,}" if bits <= 64 else f"2^{bits - 1:,} or more"
        raise SizeGuardError(f"size guard: {what} needs an estimated {steps} steps, "
                             f"over the budget of {WORK_BUDGET:,}")


# Estimated steps of each exhaustive class check on m goods.  Submodularity
# and cancelability decide and name their witness in one pass of about
# m²·2^m; a subadditivity check that its submodular shortcut cannot decide
# tests every pair of subsets.
CHECK_WORK: dict[str, Callable[[int], int]] = {
    "is_monotone": lambda m: m << m,
    "is_additive": lambda m: m << m,
    "is_submodular": lambda m: m * m << m,
    "is_subadditive": lambda m: 4**m // 2,
    "is_cancelable": lambda m: m * m << m,
}


def check_subset_work(m: int, what: str, *checks: str) -> None:
    """Refuse `what` on m goods, which tabulates and then runs `checks`, cheapest first.

    Storage per good (m) and tabulation (m·2^m) go first, so 4^m is only
    computed for an m they admit.
    """
    what = f"{what} on {m} goods"
    check_work(m, what)
    check_work(m << m, what)
    check_work(max((CHECK_WORK[check](m) for check in checks), default=0), what)


# The rational forms a string may spell: an integer, p/q, or a plain decimal, in ASCII
# digits.  Exponents are refused: "1e99999999" would make `Fraction` build a 10^99999999.
_RATIONAL = re.compile(r"[+-]?(?:(?P<p>[0-9]+)(?:/(?P<q>[0-9]+))?|[0-9]*\.[0-9]+)")


def int_digit_limit() -> int:
    """The most decimal digits of an int that `str` writes and `int` reads; 0 for no limit.

    A document holds no longer int: `dumps` cannot write one, nor `loads`
    read one.  CPython before 3.10.7 has no limit to read; 4,300, the
    default since, stands in for it there.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    return 4300 if get is None else get()


def _check_digits(x: int, what: str) -> None:
    """Refuse `x`, named `what`, when it has more digits than a document can hold."""
    # A limit is 0 (none) or at least 640 digits, and 2^1920 < 10^640: a shorter int fits any.
    if x.bit_length() > 1920:
        limit = int_digit_limit()
        if limit and abs(x) >= 10**limit:
            raise ValueError(f"{what} has more than {limit:,} digits, "
                             f"more than a document can hold")


def as_fraction(x: int | str | Fraction) -> Fraction:
    """An exact Fraction from an int, a Fraction or a string of the `_RATIONAL` forms.

    Its numerator and denominator are refused beyond `int_digit_limit` digits.
    """
    if isinstance(x, (bool, float)):  # refused to keep every value exact
        raise TypeError(f"only exact rationals are accepted, got {x!r}")
    if not isinstance(x, (int, str, Fraction)):
        raise TypeError(f"expected a rational string, got {type(x).__name__}")
    if not isinstance(x, str):
        value = x if isinstance(x, Fraction) else Fraction(x)
    elif (match := _RATIONAL.fullmatch(x)) is None:
        raise ValueError(f"malformed rational {x!r} (expected an integer, p/q or a plain decimal)")
    else:
        p, q = match.group("p", "q")
        try:  # an integer or p/q from the match's own digits; `Fraction` reads a decimal
            value = (Fraction(x) if p is None
                     else Fraction(-int(p) if x[0] == "-" else int(p), int(q) if q else 1))
        except (ValueError, ZeroDivisionError) as exc:  # p/0, or more digits than int() reads
            raise ValueError(f"malformed rational {x!r} ({exc})") from None
    _check_digits(value.numerator, "numerator")
    _check_digits(value.denominator, "denominator")
    return value


def _amount(x: int | str | Fraction) -> Fraction:
    """A non-negative exact rational: a weight, a cap or a table value."""
    value = as_fraction(x)
    if value.numerator < 0:
        raise ValueError(f"negative value {value}")
    return value


def _at(where: str, read: Callable[[Any], Any], raw: Any) -> Any:
    """`read(raw)`, a refusal prefixed by `where`, the field or entry read."""
    try:
        return read(raw)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _listed(raw: Any, field: str) -> tuple:
    """The entries of the list `field`; a string or a mapping is no such list."""
    if isinstance(raw, (str, bytes, Mapping)) or not isinstance(raw, Iterable):
        raise TypeError(f"{field}: expected a list, got {type(raw).__name__}")
    return tuple(raw)


def _entries(raw: Any, field: str, read: Callable[[Any], Any]) -> tuple:
    """`read` of each entry of the list `field`, a refusal naming `field[k]`."""
    return tuple(_at(f"{field}[{k}]", read, x) for k, x in enumerate(_listed(raw, field)))


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def document_form(x: object) -> object:
    """A field as an instance document writes it: a Fraction as "p/q", a tuple as a list."""
    if isinstance(x, tuple):
        return [document_form(y) for y in x]
    return str(x) if isinstance(x, Fraction) else x


def bundle_to_mask(bundle: Iterable[int], m: int) -> int:
    mask = 0
    for g in bundle:
        if not 0 <= g < m:
            raise ValueError(f"good {g} out of range [0, {m})")
        mask |= 1 << g
    return mask


def mask_to_bundle(mask: int) -> Bundle:
    return frozenset(_iter_bits(mask))


def _iter_bits(mask: int):
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def _lcd(values: Iterable[Fraction]) -> int:
    """Least common denominator of exact rationals (1 when there are none)."""
    return lcm(*{x.denominator for x in values})


def _scaled(x: Fraction, scale: int) -> int:
    """`scale * x` as an int; `scale` is a multiple of x's denominator."""
    return x.numerator * (scale // x.denominator)


class Valuation(ABC):
    """Immutable, normalized (v(empty) = 0), non-decreasing value oracle.

    m, checked first, is an int of at least 1 within the per-good budget.
    `scale` is a positive integer with `scale * v(S)` integral for every S,
    set after m by a subclass that reads its entries then.  Subclasses
    implement `_value_mask`, that int for one bitmask, on the integer copies
    their constructors make; `value_mask` memoizes it, so repeated queries
    during searches and exhaustive checks are cheap.
    `subadditive_by_construction` states, per class, that v(S | T) <=
    v(S) + v(T) holds for every oracle of the class; searches rely on it.
    `deadline_bound_exact` states that a two-agent search values every
    state exactly without expanding it: by its bound, or for `OXS` by
    `deadline_flow` (see `equilibria.best_response`).

    Each oracle class declares `kind`, its document and report name, and
    `fields`, the attributes besides m that define an oracle, in document
    order; equality, hashing, `repr` and the instance codec read them.
    """

    kind: str
    fields: tuple[str, ...] = ()
    subadditive_by_construction = False
    deadline_bound_exact = False

    def __init__(self, m: int, scale: int = 1) -> None:
        if not _is_int(m):
            raise TypeError(f"m must be an integer, got {type(m).__name__}")
        if m < 1:
            raise ValueError("a valuation needs at least one good")
        check_work(m, f"an oracle on {m} goods")
        self.m = m
        self.scale = scale
        self._cache: dict[int, int] = {0: 0}
        self._table: tuple[int, ...] | None = None  # the class checks' memos
        self._violators: frozenset[int] | None = None

    def value(self, bundle: Iterable[int]) -> Fraction:
        """v(bundle); exact and deterministic."""
        return Fraction(self.value_mask(bundle_to_mask(bundle, self.m)), self.scale)

    def value_mask(self, mask: int) -> int:
        """`scale * v(S)` for the bundle S with bitmask `mask`, an int."""
        cached = self._cache.get(mask)
        if cached is None:
            cached = self._cache[mask] = self._value_mask(mask)
        return cached

    @abstractmethod
    def _value_mask(self, mask: int) -> int:
        ...

    def _key(self) -> tuple:
        """What defines the oracle; equality and hashing compare it."""
        return (self.m, *(getattr(self, name) for name in self.fields))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:
        fields = "".join(f", {name}={document_form(getattr(self, name))!r}" for name in self.fields)
        return f"{type(self).__name__}(m={self.m}{fields})"


class _Weighted(Valuation):
    """Non-negative weights, then a budget's cap, in one constructor; `_ints` scales the weights."""

    subadditive_by_construction = deadline_bound_exact = True
    fields = ("weights",)

    def __init__(self, weights: Sequence[int | str | Fraction]) -> None:
        self._weigh(weights)

    def _weigh(self, weights: Sequence[int | str | Fraction], *cap: int | str | Fraction) -> None:
        self.weights = _entries(weights, "weights", _amount)
        caps = tuple(_at("cap", _amount, x) for x in cap)
        if caps:
            (self.cap,) = caps
        super().__init__(len(self.weights), _lcd(self.weights + caps))
        self._ints = tuple(_scaled(w, self.scale) for w in self.weights)


class Additive(_Weighted):
    """v(S) = sum of per-good weights."""

    kind = "additive"

    def _value_mask(self, mask: int) -> int:
        return sum(self._ints[g] for g in _iter_bits(mask))


class BudgetAdditive(_Weighted):
    """v(S) = min(cap, sum of weights)."""

    kind, fields = "budget_additive", ("weights", "cap")

    def __init__(self, weights: Sequence[int | str | Fraction], cap: int | str | Fraction) -> None:
        self._weigh(weights, cap)
        self._cap = _scaled(self.cap, self.scale)

    def _value_mask(self, mask: int) -> int:
        return min(self._cap, sum(self._ints[g] for g in _iter_bits(mask)))


class UnitDemand(_Weighted):
    """v(S) = best single good in S (0 on the empty set)."""

    kind = "unit_demand"

    def _value_mask(self, mask: int) -> int:
        return max((self._ints[g] for g in _iter_bits(mask)), default=0)


class OXS(Valuation):
    """v(S) = maximum-weight matching of S's goods to abstract slots.

    Edges are (good, slot label, weight) triples, in any iterable: the good
    an int in [0, m), the label any str or int (not a bool), the weight a
    non-negative rational.  OXS functions are monotone submodular.  The
    matching runs on an adjacency built once: per good, (slot index,
    weight times `scale`) pairs, parallel edges collapsed to the heaviest;
    every good without an edge shares one empty row.
    """

    kind, fields = "oxs", ("edges",)
    subadditive_by_construction = deadline_bound_exact = True

    def __init__(
        self,
        m: int,
        edges: Iterable[tuple[int, int | str, int | str | Fraction]],
    ) -> None:
        super().__init__(m)

        def edge(raw: Any) -> tuple[int, int | str, Fraction]:
            if not isinstance(raw, (tuple, list)) or len(raw) != 3:
                raise TypeError("expected [good, slot, weight]")
            good, label, weight = raw
            if not _is_int(good):
                raise TypeError("good must be an integer index")
            if not 0 <= good < m:
                raise ValueError(f"good {good} out of range [0, {m})")
            if not isinstance(label, (int, str)) or isinstance(label, bool):
                raise TypeError("slot label must be int or string")
            if isinstance(label, int):
                _check_digits(label, "slot label")
            return good, label, _amount(weight)

        self.edges = _entries(edges, "edges", edge)
        labels: dict[int | str, int] = {}
        for _, label, _ in self.edges:
            labels.setdefault(label, len(labels))
        self._slots = len(labels)
        self.scale = _lcd(w for _, _, w in self.edges)
        heaviest: dict[tuple[int, int], int] = {}  # by (good, slot)
        for good, label, w in self.edges:
            key, x = (good, labels[label]), _scaled(w, self.scale)
            if heaviest.get(key, -1) < x:
                heaviest[key] = x
        rows: dict[int, list[tuple[int, int]]] = {}
        for (good, slot), x in heaviest.items():
            rows.setdefault(good, []).append((slot, x))
        self._adjacency: list[tuple[tuple[int, int], ...]] = [()] * m  # one shared empty row
        for good, row in rows.items():
            self._adjacency[good] = tuple(row)

    def deadline_flow(self, order: Sequence[int]) -> DeadlineFlow:
        """Exact two-agent search state values, against another agent who picks in `order`."""
        from .flow import DeadlineFlow  # only a two-agent search compiles it

        return DeadlineFlow(self._slots, self._adjacency, order)

    def _value_mask(self, mask: int) -> int:
        adjacency = self._adjacency
        rows = [adjacency[g] for g in _iter_bits(mask) if adjacency[g]]
        return max_weight_matching_value(self._slots, rows) if rows else 0


class Table(Valuation):
    """Explicit dense oracle: one value per subset, indexed by bitmask.

    Bit g of the index corresponds to good g.  The table must be normalized
    (entry 0 is 0) with non-negative values; monotonicity is not required of
    a bare table (so `is_monotone` can report on it) but is enforced
    eagerly wherever tables are put to use: `Instance` construction, and so
    document loading, rejects non-monotone tables.
    """

    kind, fields = "table", ("values",)

    def __init__(self, m: int, values: Sequence[int | str | Fraction]) -> None:
        super().__init__(m)
        check_subset_work(m, "a table")
        values = _listed(values, "values")
        if len(values) != 1 << m:
            raise ValueError(f"table needs {1 << m} entries for m = {m}, got {len(values)}")
        kinds = set(map(type, values))
        text = "".join(values) if kinds == {str} else ""
        if (kinds == {int} and min(values) >= 0 and max(values).bit_length() <= 1920 or
                text.isascii() and text.isdigit() and all(values) and max(map(len, values)) <= 577):
            self._ints = tuple(map(int, values))  # plain integers: scale 1, none past the digit limit
            self._values: tuple[Fraction, ...] | None = None  # built on first read
        else:
            self._values = _entries(values, "values", _amount)
            self.scale = _lcd(self._values)
            self._ints = tuple(_scaled(x, self.scale) for x in self._values)
        if self._ints[0]:
            raise ValueError("table is not normalized, value on the empty set must be 0")

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as exact rationals; a plain-integer table builds them when first read."""
        if self._values is None:
            self._values = tuple(map(Fraction, self._ints))
        return self._values

    def _value_mask(self, mask: int) -> int:
        return self._ints[mask]


class Frozen:
    """An immutable value whose fields are its `__slots__`, the constructor's parameters in order.

    A subclass's `__init__` validates its arguments and then sets each field
    once with `object.__setattr__`; assigning or deleting one later is
    refused.  Equality (same type, equal fields), hashing, `repr` and
    pickling read the fields, as `Valuation`'s read its `fields`.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key()


class Instance(Frozen):
    """A fair-division instance: n agents, m goods, one valuation per agent.

    n, m (ints of at least 1) and the description are checked before
    `valuations`, any iterable of oracles, is read into a tuple.  Tables are
    checked for monotonicity here; the closed forms are monotone by construction.
    """

    __slots__ = ("n", "m", "valuations", "description")

    def __init__(self, n: int, m: int, valuations: Iterable[Valuation],
                 description: str = "") -> None:
        if not (_is_int(n) and _is_int(m)):
            raise TypeError("'n' and 'm' must be integers")
        if n < 1 or m < 1:
            raise ValueError("need at least one agent and one good")
        if not isinstance(description, str):
            raise TypeError("'description' must be a string")
        valuations = _listed(valuations, "valuations")
        if len(valuations) != n:
            raise ValueError(f"expected {n} valuations, got {len(valuations)}")
        for i, v in enumerate(valuations):
            if not isinstance(v, Valuation):
                raise TypeError(f"agent {i} valuation must be a Valuation, got {type(v).__name__}")
            if v.m != m:
                raise ValueError(f"agent {i} valuation covers {v.m} goods, instance has {m}")
            if isinstance(v, Table) and not is_monotone(v):  # certify-tables traces this call
                raise ValueError(f"agent {i} table is not monotone")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "valuations", valuations)
        object.__setattr__(self, "description", description)


class ClassCheck(NamedTuple):
    """Outcome of an exhaustive class-membership check; true when the class holds.

    When submodularity or cancelability fails, `witness` is the first
    violating (S, T, g) triple in (S bitmask, T bitmask, g) order, for
    reproducible reporting; the other checks name no witness.
    """

    holds: bool
    witness: tuple[Bundle, Bundle, int] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _integer_table(v: Valuation, check: str) -> tuple[int, ...]:
    """All 2^m values `scale * v(S)`, indexed by bitmask, tabulated once per oracle.

    Every test the class checks make (comparisons, differences, two-term sums)
    is invariant under scaling by a positive constant, so the checks give the
    verdicts and witnesses of the Fraction table, exactly, on plain ints.
    The work of `check` on v's m goods is refused first, under its name, on
    every call, tabulated or not.
    """
    check_subset_work(v.m, check, check)
    if v._table is None:  # through value_mask, even for a table: perfbench counts its calls
        v._table = tuple(map(v.value_mask, range(1 << v.m)))
    return v._table


def is_monotone(v: Valuation) -> ClassCheck:
    """Exhaustive: every single-good marginal is non-negative, compared in aligned slices."""
    vals = _integer_table(v, "is_monotone")
    size = 1 << v.m
    for g in range(v.m):
        step, span = 1 << g, 2 << g
        if step * span < size:  # fewer offsets than blocks: every span-th set from r, r + step
            pairs = ((vals[r::span], vals[r + step::span]) for r in range(step))
        else:
            pairs = ((vals[b:b + step], vals[b + step:b + span]) for b in range(0, size, span))
        if not all(all(map(le, lower, upper)) for lower, upper in pairs):
            return ClassCheck(False)
    return ClassCheck(True)


def is_additive(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S) equals the sum of singleton values over S."""
    vals = _integer_table(v, "is_additive")
    for mask in range(1, 1 << v.m):
        bit = mask & -mask
        if vals[mask] != vals[bit] + vals[mask ^ bit]:
            return ClassCheck(False)
    return ClassCheck(True)


def _pairwise_violators(vals: Sequence[int], m: int) -> set[int]:
    """The goods of every pair g < h with v(S+g) - v(S) < v(S+g+h) - v(S+h) for some S outside both.

    v is submodular exactly when the set is empty: v(g|S) >= v(g|T) for S
    subset of T follows by adding T's extra goods to S one at a time.  A
    violation (S, T, g) fails one of those one-good steps, and that step is
    a failing pair (g, h), so only goods in the set carry violations.  The
    test takes m²·2^m steps.
    """
    found: set[int] = set()
    for g in range(m):
        bit = 1 << g
        for h in range(g + 1, m):
            other = 1 << h
            both = bit | other
            if any(vals[s | bit] - vals[s] < vals[s | both] - vals[s | other]
                   for s in range(1 << m) if not s & both):
                found.update((g, h))
    return found


def _violators(v: Valuation, vals: Sequence[int]) -> frozenset[int]:
    """`_pairwise_violators` of v's table `vals`: one pass per oracle, shared by the checks."""
    if v._violators is None:
        v._violators = frozenset(_pairwise_violators(vals, v.m))
    return v._violators


def is_submodular(v: Valuation) -> ClassCheck:
    """Exhaustive diminishing-returns check: v(g|S) >= v(g|T) for S subset of T, g outside T.

    Decided by `_violators`.  For each of its goods g, the gains
    d(S) = v(S+g) - v(S) get their superset maximum U(S), the largest d(T)
    over the supersets T of S without g; S starts a violation for g exactly
    when d(S) < U(S).  The least such S over every g is the witness's S, and
    its T and g are the first in (T mask, g) order.  About m²·2^m steps.
    """
    vals = _integer_table(v, "is_submodular")
    m, size = v.m, 1 << v.m
    first = size
    for g in _violators(v, vals):
        bit = 1 << g
        gain = [vals[s | bit] - vals[s] for s in range(size)]  # 0 on the sets holding g
        top = gain[:]
        for h in range(m):
            step = 1 << h
            if h != g:  # top[s] = max(top[s], top[s | step]) for every s without h
                for low in range(0, size, 2 * step):
                    high = low + step
                    top[low:high] = map(max, top[low:high], top[high:high + step])
        first = next((s for s in range(first) if not s & bit and gain[s] < top[s]), first)
    if first == size:
        return ClassCheck(True)
    gain = [vals[first | 1 << g] - vals[first] for g in range(m)]
    t_mask, g = next((t, g) for t in range(first, size) if t & first == first
                     for g in range(m) if not t >> g & 1 and gain[g] < vals[t | 1 << g] - vals[t])
    return ClassCheck(False, (mask_to_bundle(first), mask_to_bundle(t_mask), g))


def is_cancelable(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S+g) > v(T+g) implies v(S) > v(T), for all S, T and outside g.

    For each g the sets without g are sorted by (v(T), -v(T+g)).  g carries
    no violation exactly when v(T+g) never decreases along that order: then
    v(S) < v(T) gives v(S+g) <= v(T+g) and sets of equal value have equal
    v(S+g).  Otherwise S violates for g exactly when v(S+g) exceeds the least
    v(T+g) over the sets from v(S)'s first place in the order onward.  The
    least such S over every g is the witness's S, and its T and g are the
    first in (T mask, g) order.  About m²·2^m steps.
    """
    vals = _integer_table(v, "is_cancelable")
    m, size = v.m, 1 << v.m
    first = size
    for g in range(m):
        bit = 1 << g
        order = sorted((vals[t], -vals[t | bit]) for t in range(size) if not t & bit)
        if not any(a[1] < b[1] for a, b in zip(order, order[1:])):
            continue
        keys = [key for key, _ in order]
        low = list(accumulate((-neg for _, neg in reversed(order)), min))[::-1]
        first = next((s for s in range(first) if not s & bit
                      and vals[s | bit] > low[bisect_left(keys, vals[s])]), first)
    if first == size:
        return ClassCheck(True)
    vs = vals[first]
    t_mask, g = next((t, g) for t in range(size) if vs <= vals[t]
                     for g in range(m) if not (first | t) >> g & 1
                     and vals[first | 1 << g] > vals[t | 1 << g])
    return ClassCheck(False, (mask_to_bundle(first), mask_to_bundle(t_mask), g))


def is_subadditive(v: Valuation) -> ClassCheck:
    """Exhaustive: v(S | T) <= v(S) + v(T) over all subset pairs.

    A non-negative submodular v is subadditive, because
    v(S | T) <= v(S) + v(T) - v(S & T) <= v(S) + v(T); so the check holds
    when no value is negative and `_violators` finds none.
    Otherwise every pair is tested; the condition is symmetric in S and T,
    so each unordered pair once (T from S upward).
    """
    vals = _integer_table(v, "is_subadditive")
    if min(vals) >= 0 and not _violators(v, vals):
        return ClassCheck(True)
    for s_mask in range(1 << v.m):
        vs = vals[s_mask]
        for t_mask in range(s_mask, 1 << v.m):
            if vals[s_mask | t_mask] > vs + vals[t_mask]:
                return ClassCheck(False)
    return ClassCheck(True)


# The class checks `certify` reports, by printed name, in order.  Each returns
# a `ClassCheck`; a failing `is_submodular` or `is_cancelable` names a witness.
CLASS_CHECKS = {
    "monotone": is_monotone,
    "additive": is_additive,
    "submodular": is_submodular,
    "cancelable": is_cancelable,
    "subadditive": is_subadditive,
}
