"""Round-robin allocation of indivisible goods under strategic agents.

Exact-rational tooling for the round-robin picking mechanism: valuation
oracles with class certification, bluff/truthful/greedy reporting
strategies, exact best responses and equilibrium factors, and envy-freeness
scoring, plus benchmark fixtures, random generators, and a CLI.

The namespace is lazy (PEP 562): `import rrfair` compiles no submodule.
The first use of a name, say `rrfair.load`, imports its home module in
`_EXPORTS` and binds the name here; a submodule's own name imports it too.
`instances` and `valuations` resolve the names that moved out of them the
same way, through `_lazy`.  Loading a closed-form document compiles
`instances`, `valuations` and `matching` alone; a table adds `checks`, a
fixture build `fixtures` and `checks`, and `generate` `generators`.
`import rrfair.cli` imports them all.
"""

from __future__ import annotations

import sys

TYPE_CHECKING = False  # so that `import rrfair` imports no `typing`
if TYPE_CHECKING:
    from typing import Any, Callable

__version__ = "0.1.0"

# Every submodule, with the names it exports to this namespace; each name is listed once.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "equilibria": ("BestResponse", "BoundRule", "EquilibriumReport", "NoApplicableBoundError",
                   "ProfileEvaluation", "ScanRecord", "applicable_bound_rule", "best_response",
                   "evaluate_profile", "pne_factor", "profile_space_scan"),
    "fairness": ("UNBOUNDED", "FairnessReport", "ef1_factor", "ef_factor"),
    "instances": ("SchemaError", "load", "save"),
    "fixtures": ("FIXTURES", "ConstraintError", "additive_tightness_instance",
                 "bluff_tightness_instance", "build_fixture", "no_pne_instance",
                 "oxs_lower_bound_instance"),
    "generators": ("GeneratorSpec", "generate"),
    "mechanism": ("Allocation", "Profile", "Ranking", "round_robin"),
    "profiles": ("bluff_order", "bluff_profile", "deviation_renaming", "greedy_response",
                 "truthful_profile", "truthful_ranking"),
    "valuations": ("OXS", "Additive", "BudgetAdditive", "Bundle", "Instance", "SizeGuardError",
                   "Table", "UnitDemand", "Valuation"),
    "checks": ("ClassCheck", "is_additive", "is_cancelable", "is_monotone", "is_subadditive",
               "is_submodular"),
    "matching": (),
    "flow": (),
    "scan_json": (),
    "cli": (),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def _lazy(namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
          ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The PEP 562 `__getattr__` and `__dir__` of the module whose globals are `namespace`.

    `exports` maps each submodule of this package to the names it lends the
    module.  The first use of a name imports its home and binds the name in
    `namespace`, so a later use is a plain global; a name that is its own
    home resolves to that submodule.
    """
    homes = {name: home for home, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        __import__(f"{__name__}.{home}")
        module = sys.modules[f"{__name__}.{home}"]
        value = namespace[name] = module if home == name else getattr(module, name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__


# Each submodule resolves by its own name too.
__getattr__, __dir__ = _lazy(globals(), {home: (*names, home) for home, names in _EXPORTS.items()})
