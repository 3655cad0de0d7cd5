"""The command-line surface: subcommands, exit codes, and JSON output."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import runpy
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rrfair import checks, cli, equilibria, valuations
from rrfair.cli import (
    fmt_frac,
    json_frac,
    main,
    print_best_response_report,
    print_certify_report,
    print_reproduce_report,
    print_run_report,
)
from rrfair.equilibria import NoApplicableBoundError, applicable_bound_rule, profile_space_scan
from rrfair.fairness import UNBOUNDED
from rrfair.instances import (
    FIXTURES,
    GENERATOR_CLASSES,
    GeneratorSpec,
    additive_tightness_instance,
    bluff_tightness_instance,
    build_fixture,
    generate,
    no_pne_instance,
    save,
)
from rrfair.scan_json import SCAN_JSON
from rrfair.valuations import Additive, Instance, SizeGuardError, Table

F = Fraction
REPO = Path(__file__).resolve().parents[1]


@pytest.fixture()
def thm4_path(tmp_path):
    path = tmp_path / "bluff-tightness.json"
    save(bluff_tightness_instance(), path)
    return str(path)


@pytest.fixture()
def no_pne_path(tmp_path):
    path = tmp_path / "no-pne.json"
    save(no_pne_instance(), path)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# start-up


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # Importing `dataclasses` also imports `inspect`, `ast`, `dis` and `tokenize`, and
    # each dataclass execs its generated methods: about 15 ms of every command's start.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, rrfair.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# The names `rrfair` exports, by home module; the namespace test fails on a dropped or moved name.
EXPORTS = {
    "equilibria": {"BestResponse", "BoundRule", "EquilibriumReport", "NoApplicableBoundError",
                   "ProfileEvaluation", "ScanRecord", "applicable_bound_rule", "best_response",
                   "evaluate_profile", "pne_factor", "profile_space_scan"},
    "fairness": {"UNBOUNDED", "FairnessReport", "ef1_factor", "ef_factor"},
    "instances": {"SchemaError", "load", "save"},
    "fixtures": {"FIXTURES", "ConstraintError", "additive_tightness_instance",
                 "bluff_tightness_instance", "build_fixture", "no_pne_instance",
                 "oxs_lower_bound_instance"},
    "generators": {"GeneratorSpec", "generate"},
    "mechanism": {"Allocation", "Profile", "Ranking", "round_robin"},
    "profiles": {"bluff_order", "bluff_profile", "deviation_renaming", "greedy_response",
                 "truthful_profile", "truthful_ranking"},
    "valuations": {"OXS", "Additive", "BudgetAdditive", "Bundle", "Instance", "SizeGuardError",
                   "Table", "UnitDemand", "Valuation"},
    "checks": {"ClassCheck", "is_additive", "is_cancelable", "is_monotone", "is_subadditive",
               "is_submodular"},
}

# The public names that moved out of `instances` and `valuations`, by their new home;
# each still resolves on its old module.
MOVED = {
    "instances": {
        "fixtures": {"FIXTURES", "ConstraintError", "Fixture", "additive_tightness_instance",
                     "bluff_tightness_instance", "build_fixture", "no_pne_instance",
                     "oxs_lower_bound_instance"},
        "generators": {"GENERATOR_CLASSES", "GeneratorSpec", "generate"},
    },
    "valuations": {
        "checks": {"CLASS_CHECKS", "ClassCheck", "is_additive", "is_cancelable", "is_monotone",
                   "is_subadditive", "is_submodular"},
    },
}

SUBMODULES = sorted(path.stem for path in (REPO / "src" / "rrfair").glob("*.py")
                    if path.stem != "__init__")

COLD_START = """
import sys

def loaded():
    return sorted(name[len("rrfair."):] for name in sys.modules if name.startswith("rrfair."))

report = {}
import rrfair
report["import"] = loaded()
if sys.argv[1] == "load":
    rrfair.load(sys.argv[2])
elif sys.argv[1] == "fixtures":  # as the benchmark builds them
    for name in rrfair.instances.FIXTURES:
        rrfair.instances.build_fixture(name)
elif sys.argv[1] == "generate":
    rrfair.instances.generate(rrfair.instances.GeneratorSpec("oxs", 2, 4, 0))
else:
    import json
    exports, moved, submodules = map(json.loads, sys.argv[2:5])
    report["all"] = sorted(rrfair.__all__)
    report["dir"] = sorted(set(rrfair.__all__) - set(dir(rrfair)))
    report["homes"] = {name: getattr(rrfair, name) is getattr(sys.modules["rrfair." + home], name)
                       for home, names in exports.items() for name in names}
    report["moved"] = {f"{old}.{name}": getattr(sys.modules["rrfair." + old], name)
                       is getattr(sys.modules["rrfair." + home], name)
                       for old, homes in moved.items() for home, names in homes.items()
                       for name in names}
    report["moved_dir"] = sorted(f"{old}.{name}" for old, homes in moved.items()
                                 for names in homes.values() for name in names
                                 if name not in dir(sys.modules["rrfair." + old]))
    try:
        rrfair.no_such_name
    except AttributeError as exc:
        report["unknown"] = str(exc)
    try:
        rrfair.instances.no_such_name
    except AttributeError as exc:
        report["unknown_here"] = str(exc)
    namespace = {}
    exec("from rrfair import *", namespace)
    report["star"] = sorted(set(namespace) - {"__builtins__"})
    report["submodules"] = {name: getattr(rrfair, name) is sys.modules["rrfair." + name]
                            for name in submodules}
report["json"] = "json" in sys.modules
report["loaded"] = loaded()
report["stdlib"] = sorted({"dataclasses", "inspect", "pathlib", "random"} & set(sys.modules))
import json
print(json.dumps(report))
"""


def cold_start(*args: str) -> dict:
    """What a fresh `-S` interpreter reports running `COLD_START` with `args`."""
    result = subprocess.run([sys.executable, "-S", "-c", COLD_START, *args],
                            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("kinds, modules", [
    (("additive", "budget_additive", "unit_demand", "oxs"), ["instances", "matching", "valuations"]),
    (("submodular_table",), ["checks", "instances", "matching", "valuations"]),  # `Instance`'s check
], ids=["closed-forms", "table"])
def test_loading_a_document_compiles_only_the_codec_and_the_oracles(tmp_path, kinds, modules):
    path = tmp_path / "doc.json"
    save(Instance(len(kinds), 3, [generate(GeneratorSpec(kind, 1, 3, 0)).valuations[0]
                                  for kind in kinds]), path)
    report = cold_start("load", str(path))
    assert report["import"] == []  # `import rrfair` loads no submodule
    assert report["loaded"] == modules
    assert report["stdlib"] == []


def test_building_the_fixtures_compiles_no_generator_and_no_json():
    report = cold_start("fixtures")
    assert report["import"] == []
    assert report["json"] is False  # `load` is the codec's one reader of JSON
    assert report["loaded"] == ["checks", "fixtures", "instances", "matching", "valuations"]
    assert report["stdlib"] == []


def test_generating_compiles_the_generators_and_no_json():
    report = cold_start("generate")
    assert report["import"] == []
    assert report["json"] is False
    assert report["loaded"] == ["generators", "instances", "matching", "valuations"]
    assert report["stdlib"] == ["random"]  # `generate` alone draws


def test_the_namespace_resolves_each_name_in_its_home_module():
    homes = {home: sorted(names) for home, names in EXPORTS.items()}
    moved = {old: {home: sorted(names) for home, names in homes_.items()}
             for old, homes_ in MOVED.items()}
    report = cold_start("names", json.dumps(homes), json.dumps(moved), json.dumps(SUBMODULES))
    assert report["import"] == []
    assert report["all"] == sorted(set().union(*EXPORTS.values()))  # today's set of names
    assert report["dir"] == []  # `dir(rrfair)` lists every `__all__` name
    assert all(report["homes"].values()), report["homes"]
    assert all(report["moved"].values()), report["moved"]
    assert report["moved_dir"] == []  # `dir()` of the old home lists each moved name
    assert report["unknown"] == "module 'rrfair' has no attribute 'no_such_name'"
    assert report["unknown_here"] == "module 'rrfair.instances' has no attribute 'no_such_name'"
    assert report["star"] == report["all"]
    assert set(SUBMODULES) >= {"cli", "flow", "checks", "fixtures", "generators"}
    assert all(report["submodules"].values()), report["submodules"]
    assert report["loaded"] == SUBMODULES  # `cli` imports every module
    assert report["stdlib"] == []


TRACER_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import TARGETS, Tracer

Tracer().install()
homes = json.loads(sys.argv[2])
report = {}
for short, names in TARGETS.items():
    module = sys.modules["rrfair." + short]
    for name in names:
        home = sys.modules["rrfair." + homes.get(f"{short}.{name}", short)]
        wrapped = getattr(module, name)
        report[f"{short}.{name}"] = wrapped is getattr(home, name) and wrapped.__name__ == "traced"
print(json.dumps(report))
"""


def test_the_benchmark_tracer_wraps_each_target_in_its_home_module():
    # The tracer reads its targets on `rrfair.<module>`; a moved name must still resolve there,
    # and wrapping it there must wrap it in the module that defines it.
    homes = {f"{old}.{name}": home for old, homes_ in MOVED.items()
             for home, names in homes_.items() for name in names}
    result = subprocess.run(
        [sys.executable, "-S", "-c", TRACER_INSTALL, str(REPO / "perfbench"), json.dumps(homes)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr  # no `LookupError`: every target resolved
    report = json.loads(result.stdout)
    assert "instances.build_fixture" in report and "valuations.is_monotone" in report
    assert all(report.values()), report


# ---------------------------------------------------------------------------
# one report document per command


@pytest.fixture()
def fixture_paths(tmp_path):
    paths = {name: str(tmp_path / f"{name}.json") for name in FIXTURES}
    for name, path in paths.items():
        save(build_fixture(name), path)
    return paths


def print_scan_report(doc):
    """The reference text renderer of a `scan --json` document."""
    for entry in doc["records"]:
        profile = " | ".join("".join(map(str, order)) if len(order) <= 10 else str(list(order))
                             for order in entry["profile"])
        pne, ef1, verdict = entry["pne_factor"], entry["ef1_factor"], entry["bound_ok"]
        tail = (f"  pne {fmt_frac(pne)}  ef1 {fmt_frac(ef1)}"
                + ("" if verdict is None else f"  bound {'ok' if verdict else 'VIOLATED'}"))
        print(f"profile {profile}{tail}")
    summary = doc["summary"]
    print(f"{summary['profiles']} profiles, pne_factor in "
          f"[{fmt_frac(summary['min_pne_factor'])}, {fmt_frac(summary['max_pne_factor'])}], "
          f"min ef1_factor {fmt_frac(summary['min_ef1_factor'])}, "
          + (f"bound violations {summary['violations']} ({summary['bound_rule']})"
             if summary["bound_rule"] is not None else "no certified bound"))
    if "refused" in summary:
        print(f"refused after {summary['profiles']} profiles: {summary['refused']}")


def assert_text_renders_json(capsys, render, *argv):
    text_code, text = run_cli(capsys, *argv)
    json_code, out = run_cli(capsys, *argv, "--json")
    assert text_code == json_code == 0
    render(json.loads(out))
    assert capsys.readouterr().out == text


def test_text_output_is_rendered_from_the_json_document(capsys, fixture_paths):
    for name, path in fixture_paths.items():
        assert_text_renders_json(capsys, print_reproduce_report, "reproduce", name)
        assert_text_renders_json(capsys, print_certify_report, "certify", path)
        assert_text_renders_json(capsys, print_scan_report, "scan", path, "--samples", "5")
        for profile in ("bluff", "truthful"):
            assert_text_renders_json(capsys, print_run_report, "run", path, "--profile", profile)
            for agent in range(1, build_fixture(name).n + 1):
                assert_text_renders_json(capsys, print_best_response_report, "best-response",
                                         path, "--agent", str(agent), "--profile", profile)
    assert_text_renders_json(capsys, print_scan_report, "scan", fixture_paths["no-pne"],
                             "--exhaustive")


def test_json_carries_what_the_text_prints(capsys, fixture_paths):
    path = fixture_paths["additive-tightness"]  # 5 goods for 2 agents: a partial last round
    _, out = run_cli(capsys, "run", path, "--profile", "bluff", "--json")
    doc = json.loads(out)
    assert doc["allocation"] == [[0, 2, 4], [1, 3]]
    assert [v["frac"] for v in doc["bundle_values"]] == ["19/2", "1001/500"]
    _, out = run_cli(capsys, "best-response", path, "--agent", "1", "--json")
    # Her picks g1, g3, g5 and then the rest: the ranking names real goods only.
    assert json.loads(out)["best_response"]["ranking"] == [0, 2, 4, 1, 3]


# ---------------------------------------------------------------------------
# run


@pytest.mark.parametrize("command", ["run", "best-response --agent 1", "scan --samples 3"])
@pytest.mark.parametrize("as_json", [False, True])
def test_rationals_beyond_float_range_print_without_decimals(tmp_path, command, as_json):
    path = tmp_path / "huge.json"
    huge = F(10**400, 3)  # neither it nor 10^400 fits a float
    save(Instance(2, 2, (Additive([huge, 1]), Additive([10**400, 1]))), path)
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", *command.split(), str(path),
         *(["--json"] if as_json else [])],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert "1" + "0" * 400 in result.stdout
    if command != "scan --samples 3":  # agent 1's bundle and best response are worth `huge`
        assert str(huge) in result.stdout
        assert f"{huge} (~" not in result.stdout
    if as_json:
        assert '"dec": null' in result.stdout
        json.loads(result.stdout)


# Two rationals that a document holds, each under the int-string limit; their
# sum or ratio is not, so reporting it would need more digits than `str` writes.
EPS1, EPS2 = F(1, 10**4000 + 1), F(1, 10**3999 + 3)


@pytest.mark.parametrize("command", ["run", "best-response --agent 1", "scan --exhaustive",
                                     "reproduce"])
def test_a_rational_past_the_digit_limit_exits_3_without_traceback(capsys, tmp_path, command):
    if command == "reproduce":
        argv = ["reproduce", "bluff-tightness", "--param", f"eps1={EPS1}", "--param",
                f"eps2={EPS2}"]
    else:
        path = tmp_path / "digits.json"
        save(Instance(2, 3, (Additive([1, EPS1, EPS2]), Additive([EPS1, EPS2, 1]))), path)
        name, *flags = command.split()
        argv = [name, str(path), *flags]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "error: size guard: a reported rational has a numerator or denominator of more than "
        "4,300 digits\n")


DIGIT_LIMIT = "size guard: a reported rational has a numerator or denominator of more than 4,300 digits"
BUDGET_84 = ("size guard: best_response for agent 1 of 3 on 7 goods stored 12 states (84 steps) "
             "and needs another, over the budget of 84")
BUDGET_42 = ("size guard: best_response for agent 1 of 3 on 7 goods stored 6 states (42 steps) "
             "and needs another, over the budget of 42")


@pytest.mark.parametrize("refusal, budget, profiles, message", [
    ("digits", None, 5, DIGIT_LIMIT),            # the 6th record's pne_factor
    ("budget", 84, 2, BUDGET_84),                # a search of the 3rd profile
    ("budget", 42, 0, BUDGET_42),                # the first profile's first search
], ids=["digit-limit", "budget", "budget-before-any-record"])
def test_a_refused_scan_closes_its_document(capsys, monkeypatch, tmp_path, refusal, budget,
                                            profiles, message):
    path = str(tmp_path / "refused.json")
    if refusal == "digits":
        save(Instance(2, 3, (Additive([1, EPS1, EPS2]), Additive([EPS1, EPS2, 1]))), path)
        flags = ["--exhaustive"]
    else:
        save(generate(GeneratorSpec("additive", 3, 7, 0)), path)
        flags = ["--samples", "20"]
    _, unrefused = run_cli(capsys, "scan", path, *flags, "--json")
    if budget is not None:
        monkeypatch.setattr(valuations, "WORK_BUDGET", budget)

    assert main(["scan", path, *flags, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    doc = json.loads(captured.out)
    assert captured.out == json.dumps(doc, indent=2) + "\n"
    assert doc["summary"]["profiles"] == len(doc["records"]) == profiles
    assert doc["summary"]["refused"] == message
    if refusal == "budget":
        # The records so far are those of the unrefused scan, but for `bound_ok`: the
        # patched budget refuses certifying the bound rule too.
        def scored(records):
            return [(r["profile"], r["pne_factor"], r["ef1_factor"]) for r in records]
        assert scored(doc["records"]) == scored(json.loads(unrefused)["records"][:profiles])
        assert doc["summary"]["bound_rule"] is None

    assert main(["scan", path, *flags]) == 3
    text = capsys.readouterr().out
    print_scan_report(doc)
    assert capsys.readouterr().out == text
    assert text.splitlines()[-1] == f"refused after {profiles} profiles: {message}"


def test_run_bluff_profile(capsys, thm4_path):
    code, out = run_cli(capsys, "run", thm4_path, "--profile", "bluff")
    assert code == 0
    assert "pne_factor = 100/197" in out
    assert "{g1, g3, g5}" in out
    assert "{g2, g4}" in out
    assert "ef1_factor = 25/49" in out


def test_run_json_contains_exact_rationals(capsys, thm4_path):
    code, out = run_cli(capsys, "run", thm4_path, "--profile", "bluff", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"]["pne_factor"]["frac"] == "100/197"
    assert doc["fairness"]["ef1_factor"]["frac"] == "25/49"
    assert doc["fairness"]["pair_ratios"]["2->1"]["frac"] == "25/49"
    assert doc["allocation"] == [[0, 2, 4], [1, 3]]
    assert doc["bound"]["verdict"] == "holds"


def test_run_profile_file(capsys, tmp_path, no_pne_path):
    profile = tmp_path / "profile.txt"
    profile.write_text("0 1 2 3\n3 2 1 0\n", encoding="utf-8")
    code, out = run_cli(capsys, "run", no_pne_path, "--profile", str(profile))
    assert code == 0
    # one of the two agents is capped at ratio 3/4 on this instance
    assert "ratio 3/4" in out


def test_run_rejects_bad_inputs(capsys, tmp_path, no_pne_path):
    code, _ = run_cli(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 2

    bad_profile = tmp_path / "profile.txt"
    bad_profile.write_text("0 1 2 3\n", encoding="utf-8")
    code, _ = run_cli(capsys, "run", no_pne_path, "--profile", str(bad_profile))
    assert code == 2

    # Goods are ASCII digits only, although int() takes these forms too.
    for good in ("٠", "+1", "1_0", "-0"):
        bad_profile.write_text(f"0 1 2 3\n{good} 1 2 3\n", encoding="utf-8")
        assert main(["run", no_pne_path, "--profile", str(bad_profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: profile {str(bad_profile)!r}, line 2: malformed good {good!r}\n")

    bad_profile.write_text("0 1 2 3\n0 1 2\n", encoding="utf-8")
    assert main(["run", no_pne_path, "--profile", str(bad_profile)]) == 2
    assert capsys.readouterr().err == (
        f"error: profile {str(bad_profile)!r}, line 2: expected 4 goods\n")

    not_json = tmp_path / "broken.json"
    not_json.write_text("{", encoding="utf-8")
    code, _ = run_cli(capsys, "run", str(not_json))
    assert code == 2


def test_run_reports_an_instance_that_fits_no_bound_rule(capsys, tmp_path):
    # v(S) = |S|² is cancelable, but neither subadditive nor submodular.
    squares = Table(3, [mask.bit_count() ** 2 for mask in range(8)])
    path = tmp_path / "squares.json"
    save(Instance(n=2, m=3, valuations=(squares, squares)), path)
    verdict = ("not applicable: instance fits no certified class "
               "(additive / submodular / subadditive cancelable)")
    code, out = run_cli(capsys, "run", str(path), "--json")
    assert code == 0
    assert json.loads(out)["bound"] == {"rule": None, "value": None, "verdict": verdict}
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out.splitlines()[-1] == f"bound: {verdict}"


def test_run_names_the_bound_rule_it_could_not_check_without_an_equilibrium(
        capsys, monkeypatch, tmp_path):
    def refused(*args, **kwargs):
        raise SizeGuardError("size guard: refused")

    monkeypatch.setattr(equilibria, "best_response", refused)
    path = tmp_path / "additive.json"
    save(additive_tightness_instance(), path)
    code, out = run_cli(capsys, "run", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equilibrium"] == {"skipped": "size guard: refused"}
    assert doc["bound"] == {"rule": "alpha/(2-alpha) [two additive agents]", "value": None,
                            "verdict": "skipped: no equilibrium report"}
    code, out = run_cli(capsys, "run", str(path))
    assert code == 0
    assert out.splitlines()[-1] == (
        "bound: alpha/(2-alpha) [two additive agents]: skipped: no equilibrium report")


@pytest.mark.parametrize("where", ["document", "profile"])
def test_non_utf8_input_exits_2_with_a_message(capsys, tmp_path, no_pne_path, where):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00bad")
    argv = ["run", str(bad)] if where == "document" else ["run", no_pne_path, "--profile", str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "'utf-8' codec can't decode" in captured.err


def _agent_of_class(cls: object) -> str:
    return json.dumps({"n": 1, "m": 1, "agents": [{"class": cls, "weights": ["1"]}]})


@pytest.mark.parametrize("text, error", [
    ("[" * 100_000 + "]" * 100_000, "not valid JSON: "),  # deeper than the JSON decoder recurses
    ('{"n": ' + "1" * 5000 + "}", "not valid JSON: "),    # longer than the int-string limit
    (_agent_of_class(["additive"]), "agents[0]: unknown class ['additive']\n"),
    (_agent_of_class({}), "agents[0]: unknown class {}\n"),
    ('{"n": -1, "m": 1, "agents": []}', "need at least one agent and one good\n"),
    ('{"n": 1, "m": -2, "agents": [{"class": "additive", "weights": []}]}',
     "need at least one agent and one good\n"),
    ('{"n": 1, "m": -2, "agents": [{"class": "table", "values": ["0"]}]}',
     "need at least one agent and one good\n"),
    ("[]", "document must be a JSON object\n"),
    ('{"n": 1, "m": 1, "agents": [1]}', "agents[0]: must be an object\n"),
], ids=["deep", "long-int", "class-list", "class-object", "negative-n", "negative-m",
        "negative-m-table", "document-not-an-object", "agent-not-an-object"])
@pytest.mark.parametrize("command", ["run", "certify"])
def test_documents_that_cannot_load_exit_2(capsys, tmp_path, command, text, error):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load instance {str(path)!r}: {error}")
    assert "set_int_max_str_digits" not in captured.err


@pytest.mark.parametrize("raw", ["1e99999999", "1_000", "\u0663"])  # exponent, underscore, ٣
@pytest.mark.parametrize("where", ["document", "param", "library"])
def test_rationals_outside_the_plain_forms_exit_2(capsys, tmp_path, where, raw):
    message = f"malformed rational {raw!r} (expected an integer, p/q or a plain decimal)"
    if where == "library":  # the constructor names the entry; a document adds the agent
        with pytest.raises(ValueError) as refused:
            Additive([raw])
        assert str(refused.value) == f"weights[0]: {message}"
        return
    if where == "document":
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "agents": [
            {"class": "additive", "weights": [raw]}]}), encoding="utf-8")
        argv, message = ["run", str(path)], f"agents[0].weights[0]: {message}"
    else:
        argv, message = ["reproduce", "bluff-tightness", "--param", f"eps1={raw}"], f"--param eps1: {message}"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# id: (m, agent document, exit code, error); a load error follows "cannot load instance"
_AGENT_ERRORS = {
    "short-weights": (3, {"class": "additive", "weights": ["1", "2"]}, 2,
                      "agent 0 valuation covers 2 goods, instance has 3"),
    "weights-not-a-list": (3, {"class": "unit_demand", "weights": "1 2 3"}, 2,
                           "agents[0].weights: expected a list, got str"),
    "missing-cap": (3, {"class": "budget_additive", "weights": ["1", "2", "3"]}, 2,
                    "agents[0]: missing fields ['cap']"),
    "edges-not-a-list": (3, {"class": "oxs", "edges": {"0": "s"}}, 2,
                         "agents[0].edges: expected a list, got dict"),
    "edge-not-a-triple": (3, {"class": "oxs", "edges": [[0, "s", "1"], [1, "s"]]}, 2,
                          "agents[0].edges[1]: expected [good, slot, weight]"),
    "string-good": (3, {"class": "oxs", "edges": [["0", "s", "1"]]}, 2,
                    "agents[0].edges[0]: good must be an integer index"),
    "boolean-good": (3, {"class": "oxs", "edges": [[True, "s", "1"]]}, 2,
                     "agents[0].edges[0]: good must be an integer index"),
    "list-label": (3, {"class": "oxs", "edges": [[0, ["s"], "1"]]}, 2,
                   "agents[0].edges[0]: slot label must be int or string"),
    "good-out-of-range": (3, {"class": "oxs", "edges": [[3, "s", "1"]]}, 2,
                          "agents[0].edges[0]: good 3 out of range [0, 3)"),
    "short-values": (2, {"class": "table", "values": ["0", "1", "1"]}, 2,
                     "agents[0]: table needs 4 entries for m = 2, got 3"),
    "table-40": (40, {"class": "table", "values": ["0"]}, 3,
                 "size guard: agents[0]: a table on 40 goods needs an estimated "
                 "43,980,465,111,040 steps, over the budget of 10,000,000"),
    "unknown-class": (3, {"class": "xos", "edges": []}, 2, "agents[0]: unknown class 'xos'"),
    "extra-field": (3, {"class": "additive", "weights": ["1", "2", "3"], "cap": "1"}, 2,
                    "agents[0]: unknown fields ['cap']"),
}


@pytest.mark.parametrize("m, agent, code, error", _AGENT_ERRORS.values(), ids=_AGENT_ERRORS)
def test_each_malformed_agent_field_exits_with_its_message(capsys, tmp_path, m, agent, code, error):
    path = tmp_path / "agent.json"
    path.write_text(json.dumps({"n": 1, "m": m, "agents": [agent]}), encoding="utf-8")
    assert main(["run", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    where = "" if code == 3 else f"cannot load instance {str(path)!r}: "
    assert captured.err == f"error: {where}{error}\n"


def test_run_single_agent_instance(capsys, tmp_path):
    from rrfair.valuations import Additive, Instance

    solo = Instance(n=1, m=3, valuations=(Additive([3, 1, 2]),))
    path = tmp_path / "solo.json"
    save(solo, path)
    code, out = run_cli(capsys, "run", str(path), "--profile", "truthful")
    assert code == 0
    assert "pne_factor = 1" in out
    assert "ef1_factor = unbounded" in out


def test_run_guard_policy_exit(capsys, monkeypatch, tmp_path):
    from rrfair.valuations import Additive, Instance

    monkeypatch.setattr(valuations, "WORK_BUDGET", 100)  # the first search stores 43 states
    big = Instance(n=3, m=15, valuations=(Additive([1] * 15),) * 3)
    path = tmp_path / "big.json"
    save(big, path)
    code, out = run_cli(capsys, "run", str(path), "--profile", "truthful")
    assert code == 0
    assert "skipped" in out
    code, _ = run_cli(capsys, "run", str(path), "--profile", "truthful",
                      "--require-equilibrium")
    assert code == 3


def test_run_charges_the_value_search_alone_against_the_budget(capsys, tmp_path):
    # On 2 x 400 additive goods both value searches expand no state, and the
    # ranking reconstruction, which only `best-response` runs, stays in the
    # budget; on 2 x 490 the reconstruction passes it.
    def additive_document(m):
        path = str(tmp_path / f"additive-{m}.json")
        assert main(["generate", "--class", "additive", "--agents", "2", "--goods", str(m),
                     "--seed", "0", "-o", path]) == 0
        capsys.readouterr()
        return path

    path = additive_document(400)
    code, out = run_cli(capsys, "run", path, "--profile", "truthful", "--json",
                        "--require-equilibrium")
    assert code == 0
    equilibrium = json.loads(out)["equilibrium"]
    assert equilibrium["pne_factor"]["frac"] == "1077/1220"
    for agent, value in zip((1, 2), ("1217", "1220")):
        code, out = run_cli(capsys, "best-response", path, "--agent", str(agent), "--json")
        assert code == 0
        response = json.loads(out)["best_response"]
        assert response["value"]["frac"] == value
        assert response["value"] == equilibrium["per_agent"][agent - 1]["best_response_value"]
        assert response["explored_states"] == 0

    assert main(["best-response", additive_document(490), "--agent", "1"]) == 3
    assert capsys.readouterr().err == (
        "error: size guard: best_response for agent 1 of 2 on 490 goods stored 20,408 states "
        "(9,999,920 steps) and needs another, over the budget of 10,000,000\n")


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_all_fixtures_pass(capsys):
    for fixture in ("no-pne", "bluff-tightness", "additive-tightness", "oxs-lower-bound"):
        code, out = run_cli(capsys, "reproduce", fixture)
        assert code == 0, (fixture, out)
        assert "PASS" in out


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_reproduce_json_bytes_match_the_benchmark_digests(fixture):
    # The benchmark pins the sha256 of each fixture's `reproduce --json`
    # stdout; the file is only read here, never re-recorded.
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", "reproduce", fixture, "--json"],
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == expected[f"fixtures/{fixture}"]


def test_reproduce_reports_expected_numbers(capsys):
    code, out = run_cli(capsys, "reproduce", "no-pne")
    assert "max pne_factor over 576 profiles: expected 3/4 (~0.75), got 3/4 (~0.75) [ok]" in out

    code, out = run_cli(capsys, "reproduce", "additive-tightness", "--json")
    doc = json.loads(out)
    rows = {row["quantity"]: row for row in doc["rows"]}
    assert rows["pne_factor"]["expected"]["frac"] == "1/2"
    assert rows["agent 2 -> 1 ef1 ratio"]["actual"]["frac"] == "1001/3001"
    assert doc["pass"] is True


def test_reproduce_with_parameter_overrides(capsys):
    code, out = run_cli(
        capsys, "reproduce", "bluff-tightness",
        "--param", "eps1=1/1000", "--param", "eps2=2/1000", "--param", "eps3=3/1000",
    )
    assert code == 0
    assert "expected 1000/1997 (~0.500751), got 1000/1997 (~0.500751)" in out


MISMATCHES = {
    "additive-tightness": (
        ("--param", "delta=49/100", "--param", "beta=1"),
        "reproduce additive-tightness with beta=1, delta=49/100\n"
        "  pne_factor: expected 149/448 (~0.332589), got 149/448 (~0.332589) [ok]\n"
        "  agent 2 -> 1 ef1 ratio: expected 149/649 (~0.229584), got 149/649 (~0.229584) [ok]\n"
        "  bound alpha/(2-alpha): expected 149/747 (~0.199465), got 149/747 (~0.199465) [ok]\n"
        "  ratio >= bound: expected 1, got 1 [ok]\n"
        "  ratio < bound + 1/100: expected 1, got 0 [MISMATCH]\n"
        "FAIL\n",
        "first mismatch: ratio < bound + 1/100: expected 1, got 0\n",
        "425c47bddb78c13eb1321084fd635ae9ff0137deabda93808aa591723ff8660f",
    ),
    "oxs-lower-bound": (
        ("--param", "beta=51/100", "--param", "eps1=4/100", "--param", "eps2=3/100",
         "--param", "eps3=2/100", "--param", "eps4=1/100"),
        "reproduce oxs-lower-bound with beta=51/100, eps1=1/25, eps2=3/100, eps3=1/50, "
        "eps4=1/100\n"
        "  agent 4 best-response value: expected 53/50 (~1.06), got 53/50 (~1.06) [ok]\n"
        "  pne_factor: expected 52/53 (~0.981132), got 52/53 (~0.981132) [ok]\n"
        "  agent 4 -> 1 ef1 ratio: expected 104/203 (~0.512315), got 104/203 (~0.512315) [ok]\n"
        "  bound alpha/3: expected 52/159 (~0.327044), got 52/159 (~0.327044) [ok]\n"
        "  ratio >= alpha/3: expected 1, got 1 [ok]\n"
        "  ratio < alpha/2 + 1/100: expected 1, got 0 [MISMATCH]\n"
        "FAIL\n",
        "first mismatch: ratio < alpha/2 + 1/100: expected 1, got 0\n",
        "4edac8846dadcc557ad81ac54dee3898b4c78b91148aec17f47598477718c78f",
    ),
}


@pytest.mark.parametrize("fixture", sorted(MISMATCHES))
def test_reproduce_mismatch_exits_1_naming_the_first_failing_row(capsys, fixture):
    # Parameters that satisfy the constraints but leave the envy ratio over
    # the bound + 1/100 window: every closed form still matches, the last row does not.
    params, text, stderr, json_sha256 = MISMATCHES[fixture]
    assert main(["reproduce", fixture, *params]) == cli.EXIT_MISMATCH
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (text, stderr)

    assert main(["reproduce", fixture, *params, "--json"]) == cli.EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert hashlib.sha256(captured.out.encode()).hexdigest() == json_sha256
    doc = json.loads(captured.out)
    assert doc["pass"] is False
    assert [row["match"] for row in doc["rows"]] == [True] * (len(doc["rows"]) - 1) + [False]
    assert (doc["rows"][-1]["expected"]["frac"], doc["rows"][-1]["actual"]["frac"]) == ("1", "0")


@pytest.mark.parametrize("command", ["reproduce", "generate --fixture"])
def test_a_repeated_parameter_exits_2_naming_it(capsys, command):
    # Keeping the last value would blame `eps2 > eps1` on a silently overridden eps1.
    argv = [*command.split(), "bluff-tightness", "--param", "eps1=1/100", "--param", " eps1=1/50"]
    assert main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: --param eps1 given twice\n")


@pytest.mark.parametrize("argv, error", [
    ("reproduce bluff-tightness --param eps1", "--param expects NAME=VALUE, got 'eps1'"),
    ("generate --class additive --param eps1=1", "--param only applies to --fixture"),
], ids=["without-equals", "with-class"])
def test_a_misplaced_or_malformed_parameter_exits_2_with_its_message(capsys, argv, error):
    assert main(argv.split()) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_reproduce_rejects_bad_parameters(capsys):
    code, _ = run_cli(capsys, "reproduce", "bluff-tightness", "--param", "eps1=0.5")
    assert code == 2
    code, _ = run_cli(capsys, "reproduce", "bluff-tightness", "--param", "beta=1/2")
    assert code == 2
    # constraint violations surface as input errors, naming the inequality
    code, _ = run_cli(capsys, "reproduce", "additive-tightness", "--param", "beta=1/6")
    assert code == 2


@pytest.mark.parametrize("command", ["reproduce", "generate --fixture"])
@pytest.mark.parametrize("fixture, param", [
    ("additive-tightness", "beta=1/6"),
    ("oxs-lower-bound", "eps1=2"),
])
def test_fixture_constraint_violations_exit_2_without_traceback(command, fixture, param):
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", *command.split(), fixture, "--param", param],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: parameter constraint violated: requires ")
    assert "Traceback" not in result.stderr


FIXTURE_PARAMETERS = [(fixture, name, default)
                      for fixture, entry in FIXTURES.items()
                      for name, default in entry.parameters.items()]


@pytest.mark.parametrize("fixture, name, default", FIXTURE_PARAMETERS,
                         ids=[f"{fixture}-{name}" for fixture, name, _ in FIXTURE_PARAMETERS])
def test_each_fixture_parameter_at_its_default_reproduces_the_default_run(
        capsys, fixture, name, default):
    _, plain = run_cli(capsys, "reproduce", fixture, "--json")
    code, out = run_cli(capsys, "reproduce", fixture, "--param", f"{name}={default}", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("parameters") == {name: str(default)}
    assert json.dumps(doc, indent=2) == json.dumps(
        {k: v for k, v in json.loads(plain).items() if k != "parameters"}, indent=2)


def test_fixture_parameters_are_the_flat_builder_arguments(capsys):
    assert {fixture: tuple(entry.parameters) for fixture, entry in FIXTURES.items()} == {
        "no-pne": (),
        "bluff-tightness": ("eps1", "eps2", "eps3"),
        "additive-tightness": ("delta", "beta"),
        "oxs-lower-bound": ("eps1", "eps2", "eps3", "eps4", "eps5", "eps6", "beta"),
    }
    assert main(["reproduce", "oxs-lower-bound", "--param", "eps=1/100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: fixture 'oxs-lower-bound' takes parameters "
        "('eps1', 'eps2', 'eps3', 'eps4', 'eps5', 'eps6', 'beta'), not ['eps']\n")


# ---------------------------------------------------------------------------
# scan


def test_scan_exhaustive_summary(capsys, no_pne_path):
    code, out = run_cli(capsys, "scan", no_pne_path, "--exhaustive")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 577  # one per profile plus the summary
    assert "576 profiles" in lines[-1]
    assert "3/4" in lines[-1]
    assert "violations 0" in lines[-1]


def test_scan_sampled_deterministic(capsys, no_pne_path):
    code, first = run_cli(capsys, "scan", no_pne_path, "--samples", "25", "--seed", "7")
    assert code == 0
    _, second = run_cli(capsys, "scan", no_pne_path, "--samples", "25", "--seed", "7")
    assert first == second
    _, different = run_cli(capsys, "scan", no_pne_path, "--samples", "25", "--seed", "8")
    assert first != different


def test_scan_rejects_the_removed_threads_option(no_pne_path):
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", "scan", no_pne_path, "--samples", "3",
         "--threads", "4"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: rrfair")
    assert "unrecognized arguments: --threads 4" in result.stderr
    assert "Traceback" not in result.stderr


def test_scan_argument_validation(capsys, no_pne_path):
    code, _ = run_cli(capsys, "scan", no_pne_path)
    assert code == 2
    code, _ = run_cli(capsys, "scan", no_pne_path, "--exhaustive", "--samples", "5")
    assert code == 2
    for samples in ("0", "-3"):
        assert main(["scan", no_pne_path, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("argv, message", [
    ((), "scan needs --exhaustive or --samples N"),
    (("--exhaustive", "--samples", "5"), "choose one of --exhaustive / --samples"),
    (("--samples", "0"), "--samples must be at least 1, got 0"),
], ids=["neither", "both", "zero"])
def test_scan_checks_its_flags_before_reading_the_document(capsys, monkeypatch, argv, message):
    def unreachable(path):
        raise AssertionError("the document was read")

    monkeypatch.setattr(cli, "load", unreachable)
    assert main(["scan", "never-read.json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_scan_exhaustive_guard(capsys, tmp_path):
    from rrfair.valuations import Additive, Instance

    big = Instance(n=2, m=8, valuations=(Additive([1] * 8),) * 2)
    path = tmp_path / "big.json"
    save(big, path)
    code, _ = run_cli(capsys, "scan", str(path), "--exhaustive")
    assert code == 3


def test_scan_guard_refuses_before_the_bound_rule_is_certified(capsys, monkeypatch, tmp_path):
    def unreachable(inst):
        raise AssertionError("applicable_bound_rule ran before the scan guard")

    monkeypatch.setattr(cli, "applicable_bound_rule", unreachable)
    path = tmp_path / "big.json"
    save(generate(GeneratorSpec("additive", 2, 10, seed=0)), path)
    assert main(["scan", str(path), "--exhaustive"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: size guard: an exhaustive scan of 2 agents and 10 goods needs an estimated "
        "131,681,894,400,000 steps, over the budget of 10,000,000\n")


def reference_scan_document(inst, samples, scan_seed):
    """The `scan --json` document with its records collected in a list first."""
    try:
        rule = applicable_bound_rule(inst)
    except (NoApplicableBoundError, SizeGuardError):
        rule = None
    records, pnes, ef1s = [], [], []
    for record in profile_space_scan(inst, samples=samples, seed=scan_seed):
        pne, ef1 = record.pne_factor, record.fairness.ef1_factor
        pnes.append(pne)
        ef1s.append(ef1)
        records.append({
            "profile": [list(order) for order in record.orders],
            "pne_factor": json_frac(pne),
            "ef1_factor": json_frac(ef1),
            "bound_ok": None if rule is None else ef1 >= rule(pne),
        })
    summary = {
        "profiles": len(records),
        "min_pne_factor": json_frac(min(pnes)),
        "max_pne_factor": json_frac(max(pnes)),
        "min_ef1_factor": json_frac(min(ef1s)),
        "bound_rule": None if rule is None else rule.name,
        "violations": None if rule is None else sum(r["bound_ok"] is False for r in records),
    }
    return {"records": records, "summary": summary}


def streamed_scan_output(inst, samples, scan_seed, *flags):
    """The stdout of `scan` on `inst`, which writes it record by record."""
    mode = ["--exhaustive"] if samples is None else ["--samples", str(samples)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        save(inst, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["scan", str(path), *mode, "--seed", str(scan_seed), *flags])
    assert code == 0
    return out.getvalue()


def assert_streamed_json_is_the_dumped_document(inst, samples, scan_seed):
    out = streamed_scan_output(inst, samples, scan_seed, "--json")
    assert out == json.dumps(reference_scan_document(inst, samples, scan_seed), indent=2) + "\n"
    return out


def superadditive_table(m):
    """|S|^2: monotone but not subadditive, so no bound rule applies from m = 2 on."""
    return Table(m, [bin(mask).count("1") ** 2 for mask in range(1 << m)])


@st.composite
def streamed_scan_cases(draw):
    n = draw(st.sampled_from((2, 3)))
    m = draw(st.integers(min_value=1, max_value=5))
    valuations = []
    for _ in range(n):
        kind = draw(st.sampled_from(GENERATOR_CLASSES + ("superadditive_table",)))
        if kind == "superadditive_table":
            valuations.append(superadditive_table(m))
        else:
            spec = GeneratorSpec(kind, 1, m, draw(st.integers(min_value=0, max_value=10**6)),
                                 weight_range=(0, 3))
            valuations.append(generate(spec).valuations[0])
    inst = Instance(n=n, m=m, valuations=tuple(valuations))
    exhaustive = math.factorial(m) ** n <= 576 and draw(st.booleans())
    samples = None if exhaustive else draw(st.integers(min_value=1, max_value=30))
    return inst, samples, draw(st.integers(min_value=0, max_value=1000))


@seed(20230131)
@settings(max_examples=40, deadline=None)
@given(case=streamed_scan_cases())
def test_streamed_scan_json_equals_the_dumped_document(case):
    assert_streamed_json_is_the_dumped_document(*case)


@seed(20230131)
@settings(max_examples=40, deadline=None)
@given(case=streamed_scan_cases())
def test_streamed_scan_text_renders_the_dumped_document(case):
    rendered = io.StringIO()
    with contextlib.redirect_stdout(rendered):
        print_scan_report(reference_scan_document(*case))
    assert streamed_scan_output(*case) == rendered.getvalue()


@pytest.mark.parametrize("inst, samples, shows", [
    # exhaustive, with a partial last round: 3 goods for 2 agents
    (Instance(n=2, m=3, valuations=(Additive([3, 1, 2]), Additive([1, 2, 2]))), None,
     '"bound_ok": true'),
    # sampled
    (no_pne_instance(), 25, '"bound_ok": true'),
    # no bound rule applies
    (Instance(n=2, m=3, valuations=(superadditive_table(3),) * 2), None, '"bound_ok": null'),
    # one agent: every ef1 ratio is unbounded
    (Instance(n=1, m=3, valuations=(Additive([3, 1, 2]),)), None,
     '"frac": "unbounded",\n        "dec": null'),
])
def test_streamed_scan_json_covers_each_record_form(inst, samples, shows):
    assert shows in assert_streamed_json_is_the_dumped_document(inst, samples, 0)


def test_scan_json_writer_matches_json_dumps_beyond_what_scans_produce():
    # No certified bound has been seen violated, so scans never print `false`.
    def entry(order, pne, ef1, bound_ok):
        return {"profile": [order, order[::-1]], "pne_factor": json_frac(pne),
                "ef1_factor": json_frac(ef1), "bound_ok": bound_ok}

    summary = {"profiles": 3, "min_pne_factor": json_frac(F(1, 3)), "bound_rule": None}
    records = [entry((0, 1), F(1, 3), F(1, 7), False), entry((1, 0), F(1), UNBOUNDED, True),
               entry(tuple(range(12)), F(2, 3), F(1, 7), None)]
    out = "".join(
        SCAN_JSON.record(k, [SCAN_JSON.order(order) for order in e["profile"]],
                         SCAN_JSON.tail(e["pne_factor"], e["ef1_factor"], e["bound_ok"]))
        for k, e in enumerate(records)) + SCAN_JSON.end(summary)
    assert out == json.dumps({"records": records, "summary": summary}, indent=2) + "\n"


def test_scan_json_writes_each_record_before_pulling_the_next(monkeypatch, no_pne_path):
    out = io.StringIO()
    written_at_pull = []
    scan = cli.profile_space_scan

    def noting_scan(*args, **kwargs):
        for record in scan(*args, **kwargs):
            written_at_pull.append(len(out.getvalue()))
            yield record

    monkeypatch.setattr(cli, "profile_space_scan", noting_scan)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["scan", no_pne_path, "--samples", "12", "--json"]) == 0
    records = out.getvalue().split('"summary"')[0]
    ends = [i + len("\n    }") for i in range(len(records)) if records.startswith("\n    }", i)]
    assert len(ends) == len(written_at_pull) == 12
    assert written_at_pull[0] == 0  # the first record is pulled before anything is written
    for k in range(11):
        assert written_at_pull[k + 1] >= ends[k]  # record k is out before k + 1 is pulled


# ---------------------------------------------------------------------------
# certify


def test_certify_no_pne_fixture(capsys, no_pne_path):
    code, out = run_cli(capsys, "certify", no_pne_path)
    assert code == 0
    assert out.count("submodular: yes") == 2
    assert out.count("cancelable: no") == 2
    assert "witness S={g1} T={g2} g=g4" in out


def test_certify_additive_fixture_passes_everything(capsys, tmp_path):
    from rrfair.instances import additive_tightness_instance

    path = tmp_path / "additive.json"
    save(additive_tightness_instance(), path)
    code, out = run_cli(capsys, "certify", str(path))
    assert code == 0
    for check in ("monotone", "additive", "submodular", "cancelable", "subadditive"):
        assert out.count(f"\n  {check}: yes") == 2


def test_certify_json_and_guard_skips(capsys, tmp_path):
    from rrfair.valuations import Additive, Instance

    wide = Instance(n=1, m=21, valuations=(Additive([1] * 21),))
    path = tmp_path / "wide.json"
    save(wide, path)
    code, out = run_cli(capsys, "certify", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    agent = doc["agents"][0]
    # every exhaustive check is guarded out at this size, reported per check
    for check in ("monotone", "additive", "submodular", "cancelable", "subadditive"):
        assert agent[check]["holds"] is None
        assert agent[check]["skipped"].startswith("size guard: ")
    code, out = run_cli(capsys, "certify", str(path))
    assert code == 0
    assert out.splitlines() == ["agent 1 (additive):"] + [
        f"  {check}: skipped ({agent[check]['skipped']})" for check in agent
        if check not in ("agent", "class")]


def test_certify_checks_each_table_for_monotonicity_once(capsys, monkeypatch, tmp_path):
    # Loading proves a table monotone, since `Instance` refuses one that is
    # not, and certify reports that verdict instead of scanning it again.
    checked = []
    is_monotone = checks.is_monotone

    def counted(v):
        checked.append(type(v).__name__)
        return is_monotone(v)

    monkeypatch.setattr(checks, "is_monotone", counted)
    monkeypatch.setitem(checks.CLASS_CHECKS, "monotone", counted)
    tables = generate(GeneratorSpec("submodular_table", 2, 4, 5)).valuations
    path = tmp_path / "mixed.json"
    save(Instance(n=3, m=4, valuations=(tables[0], Additive([1, 2, 3, 4]), tables[1])), path)
    checked.clear()
    code, out = run_cli(capsys, "certify", str(path), "--json")
    assert code == 0
    assert sorted(checked) == ["Additive", "Table", "Table"]  # the tables' at load
    for agent in json.loads(out)["agents"]:
        assert agent["monotone"] == {"holds": True, "witness": None}


def test_certify_of_tables_runs_the_calls_the_benchmark_traces(capsys, monkeypatch, tmp_path):
    # perfbench's certify-tables workload expects `valuations.is_monotone` and
    # `Valuation.value_mask` to record calls.  certify takes a table's
    # monotonicity from its load, so `Instance` is the one caller of the check,
    # and the class checks tabulate each table through `value_mask`.
    callers, masks = [], []
    is_monotone, value_mask = checks.is_monotone, valuations.Valuation.value_mask

    def from_caller(v):
        callers.append(type(sys._getframe(1).f_locals.get("self")).__name__)
        return is_monotone(v)

    def counted(oracle, mask):
        masks.append(mask)
        return value_mask(oracle, mask)

    monkeypatch.setattr(checks, "is_monotone", from_caller)
    monkeypatch.setitem(checks.CLASS_CHECKS, "monotone", from_caller)
    monkeypatch.setattr(valuations.Valuation, "value_mask", counted)
    path = tmp_path / "tables.json"
    save(generate(GeneratorSpec("submodular_table", 2, 6, 0)), path)
    callers.clear()
    masks.clear()
    code, out = run_cli(capsys, "certify", str(path), "--json")
    assert code == 0
    assert callers == ["Instance", "Instance"]  # once per agent, at load
    assert sorted(set(masks)) == list(range(1 << 6))
    assert [agent["monotone"]["holds"] for agent in json.loads(out)["agents"]] == [True, True]


@pytest.mark.parametrize("m, agent", [
    (10**15, {"class": "table", "values": ["0"]}),
    (10**15, {"class": "oxs", "edges": []}),
    (21, {"class": "table", "values": ["0"]}),  # well-formed but for its values' length
], ids=["absurd-table", "absurd-oxs", "table-21"])
def test_oversized_documents_exit_3_at_load_without_traceback(tmp_path, m, agent):
    # The guards refuse before anything of size m or 2^m is built, so the
    # load stays small under a 2 GB address-space cap.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1, "m": m, "agents": [agent]}), encoding="utf-8")

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", "certify", str(path)],
        capture_output=True,
        text=True,
        check=False,
        preexec_fn=cap_memory,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: size guard: ")
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# generate


def test_generate_random_document(capsys, tmp_path):
    out_path = tmp_path / "gen.json"
    code, _ = run_cli(capsys, "generate", "--class", "oxs", "--agents", "2",
                      "--goods", "5", "--seed", "11", "-o", str(out_path))
    assert code == 0
    from rrfair.instances import load

    inst = load(out_path)
    assert (inst.n, inst.m) == (2, 5)


def test_generate_beyond_12_goods_writes_a_scannable_document(capsys, tmp_path):
    out_path = str(tmp_path / "deep.json")
    code, _ = run_cli(capsys, "generate", "--class", "oxs", "--agents", "2",
                      "--goods", "14", "-o", out_path)
    assert code == 0
    code, out = run_cli(capsys, "scan", out_path, "--samples", "2")
    assert code == 0
    assert out.splitlines()[-1].startswith("2 profiles, ")


def test_generate_fixture_document(capsys):
    code, out = run_cli(capsys, "generate", "--fixture", "additive-tightness")
    assert code == 0
    doc = json.loads(out)
    assert doc["agents"][0]["weights"][0] == "6"


def test_generate_to_an_unwritable_path_exits_2_without_traceback(tmp_path):
    target = str(tmp_path / "missing" / "x.json")
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", "generate", "--class", "oxs", "-o", target],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {target!r}: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv, message", [
    (("--class", "additive", "--agents", "10000000", "--goods", "2"),
     "generating 2 goods for 10000000 agents needs an estimated 20,000,000 steps"),
    (("--class", "submodular_table", "--agents", "2", "--goods", "17"),
     "generating a submodular_table on 17 goods for 2 agents needs an estimated "
     "13,369,344 steps"),
], ids=["per-good-storage", "submodular-table"])
def test_generate_guards_the_agent_count_before_any_oracle_is_built(
        capsys, monkeypatch, argv, message):
    def unreachable(*args):
        raise AssertionError("an oracle was built")

    monkeypatch.setattr("rrfair.generators._generate_valuation", unreachable)
    assert main(["generate", *argv]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: size guard: {message}, "
                            f"over the budget of {valuations.WORK_BUDGET:,}\n")


def test_generate_argument_validation(capsys):
    code, _ = run_cli(capsys, "generate")
    assert code == 2
    code, _ = run_cli(capsys, "generate", "--class", "oxs", "--fixture", "no-pne")
    assert code == 2
    code, _ = run_cli(capsys, "generate", "--class", "oxs", "--weights", "9")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("generate", "--class", "additive", "--agents", "\u0662"),  # ٢
    ("generate", "--class", "additive", "--goods", "1_0"),
    ("generate", "--class", "additive", "--seed", "+1"),
    ("scan", "x.json", "--samples", " 3"),
    ("scan", "x.json", "--samples", "3", "--seed", "1 "),
    ("best-response", "x.json", "--agent", "\uff11"),  # fullwidth 1
], ids=["agents", "goods", "generate-seed", "samples", "scan-seed", "agent"])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: invalid integer value: {argv[-1]!r}" in captured.err


@pytest.mark.parametrize("weights", ["0:1_0", "\u0660:8", "+0:8", "0: 8"])
def test_weights_take_ascii_digits_only(capsys, weights):
    assert main(["generate", "--class", "additive", "--weights", weights]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --weights expects integers, got {weights!r}\n"


# ---------------------------------------------------------------------------
# best-response


def test_best_response_command(capsys, thm4_path):
    code, out = run_cli(capsys, "best-response", thm4_path, "--agent", "2",
                        "--profile", "bluff")
    assert code == 0
    assert "best response: 197/100" in out
    assert "{g3, g4}" in out
    assert "ratio current/best: 100/197" in out


def test_best_response_json(capsys, thm4_path):
    code, out = run_cli(capsys, "best-response", thm4_path, "--agent", "2",
                        "--profile", "bluff", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["best_response"]["value"]["frac"] == "197/100"
    assert doc["best_response"]["bundle"] == [2, 3]
    assert doc["ratio"]["frac"] == "100/197"


def test_best_response_agent_validation(capsys, thm4_path):
    code, _ = run_cli(capsys, "best-response", thm4_path, "--agent", "5")
    assert code == 2


def test_best_response_too_deep_to_recurse_exits_3(capsys, tmp_path):
    path = tmp_path / "deep.json"
    save(Instance(n=1, m=1000, valuations=(Additive([1] * 1000),)), path)
    assert main(["best-response", str(path), "--agent", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: size guard: best_response for agent 1 of 1 on 1000 goods recurses 1,000 turns "
        "deep, over the 500 the recursion limit allows\n")


def test_best_response_size_guard_exits_3_without_traceback(tmp_path):
    from rrfair.valuations import Additive, Instance

    big = Instance(n=2, m=16, valuations=(Additive(list(range(16))),) * 2)
    path = tmp_path / "big.json"
    save(big, path)
    # The search stores 4,107 states; a budget of 1,000 steps admits 62 of them.
    patched = ("import sys; from rrfair import cli, valuations; "
               "valuations.WORK_BUDGET = 1000; sys.exit(cli.main())")
    result = subprocess.run(
        [sys.executable, "-c", patched, "best-response", str(path), "--agent", "1"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == (
        "error: size guard: best_response for agent 1 of 2 on 16 goods stored 62 states "
        "(992 steps) and needs another, over the budget of 1,000\n")


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "rrfair.cli", "reproduce", "bluff-tightness"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "PASS" in result.stdout
