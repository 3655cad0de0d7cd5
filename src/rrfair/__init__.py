"""Round-robin allocation of indivisible goods under strategic agents.

Exact-rational tooling for the round-robin picking mechanism: valuation
oracles with class certification, bluff/truthful/greedy reporting
strategies, exact best responses and equilibrium factors, and envy-freeness
scoring, plus benchmark fixtures, random generators, and a CLI.

The namespace is lazy (PEP 562): `import rrfair` compiles no submodule.
The first use of a name, say `rrfair.load`, imports its home module in
`_EXPORTS` and binds the name here; a submodule's own name imports it too.
Loading a document or building a fixture compiles `instances`,
`valuations` and `matching` alone; `import rrfair.cli` imports them all.
"""

import sys

__version__ = "0.1.0"

# Every submodule, with the names it exports to this namespace; each name is listed once.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "equilibria": ("BestResponse", "BoundRule", "EquilibriumReport", "NoApplicableBoundError",
                   "ProfileEvaluation", "ScanRecord", "applicable_bound_rule", "best_response",
                   "evaluate_profile", "pne_factor", "profile_space_scan"),
    "fairness": ("UNBOUNDED", "FairnessReport", "ef1_factor", "ef_factor"),
    "instances": ("FIXTURES", "ConstraintError", "GeneratorSpec", "SchemaError",
                  "additive_tightness_instance", "bluff_tightness_instance", "build_fixture",
                  "generate", "load", "no_pne_instance", "oxs_lower_bound_instance", "save"),
    "mechanism": ("Allocation", "Profile", "Ranking", "round_robin"),
    "profiles": ("bluff_order", "bluff_profile", "deviation_renaming", "greedy_response",
                 "truthful_profile", "truthful_ranking"),
    "valuations": ("OXS", "Additive", "BudgetAdditive", "Bundle", "ClassCheck", "Instance",
                   "SizeGuardError", "Table", "UnitDemand", "Valuation", "is_additive",
                   "is_cancelable", "is_monotone", "is_subadditive", "is_submodular"),
    "matching": (),
    "scan_json": (),
    "cli": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    home = _HOME.get(name, name)  # an exported name's module, or a submodule by its own name
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
