"""Lazy loading: the package namespace, and the modules each subcommand loads.

A request is one fresh process, so every module it imports is paid for on
every call.  These tests pin which layers a subcommand loads and that the
names the command line resolves on first use can still be replaced on
`maxclass.cli`, which is how a tracer wraps each layer call.  The benchmark
tracer, `perfbench/tracer.py`, runs here too, so a trim of the package that
breaks a name it wraps fails in these tests and not only in the benchmark.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import maxclass
from maxclass import cli

# Prints the maxclass modules loaded after one cli.main call in a fresh
# process, and whether `dataclasses` (which pulls in `inspect`) was loaded.
# Exported names that nothing in the package calls yet: the first-constituent
# census and the check where the family, the type-1 projection and the
# search meet (ROADMAP items 1 and 9) are to call them.
AWAITING_CALLERS = {"bridge_check", "first_length_coverage", "project_type1"}

FOOTPRINT = """
import json, sys
from maxclass import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "maxclass")
print(json.dumps({"exit": code, "loaded": loaded,
                  "dataclasses": "dataclasses" in sys.modules}), file=sys.stderr)
"""

REQUESTS = {
    "classify": ["classify", "--p", "7", "--n", "4", "--k-max", "40"],
    "verify": ["verify", "--betas", "1,1,1,1,1,1", "--p", "3", "--n", "2"],
    "search": ["search", "--p", "3", "--n", "2", "--depth", "10"],
    "construct": ["construct", "--p", "3", "--c", "2", "--n", "2", "--m", "1"],
}


# the package's modules, less __init__.py, whose names are strings
SOURCES = sorted(path for path in Path(maxclass.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
PERFBENCH = Path(__file__).parent.parent / "perfbench"
BUILD = REQUESTS["construct"]


def named(paths):
    """Every name and attribute the files refer to."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def run_footprint(argv):
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, *argv],
                          capture_output=True, text=True, timeout=60)
    result = json.loads(proc.stderr.splitlines()[-1])
    assert result["exit"] == cli.EXIT_OK
    return result


def footprint(argv):
    return set(run_footprint(argv)["loaded"])


class TestFootprint:
    def test_classify_loads_only_polycheck(self):
        assert footprint(REQUESTS["classify"]) == {
            "maxclass", "maxclass.arith", "maxclass.cli", "maxclass.polycheck"}

    def test_verify_skips_construction_and_search(self):
        loaded = footprint(REQUESTS["verify"])
        assert "maxclass.sequences" in loaded
        assert not loaded & {"maxclass.exceptional", "maxclass.divided_powers",
                             "maxclass.search"}

    def test_search_skips_construction(self):
        loaded = footprint(REQUESTS["search"])
        assert "maxclass.search" in loaded
        assert not loaded & {"maxclass.exceptional", "maxclass.divided_powers"}

    def test_construct_loads_the_operator_layers(self):
        assert {"maxclass.exceptional", "maxclass.divided_powers",
                "maxclass.sequences"} <= footprint(REQUESTS["construct"])

    @pytest.mark.parametrize("command", sorted(REQUESTS))
    def test_no_subcommand_loads_dataclasses(self, command):
        assert run_footprint(REQUESTS[command])["dataclasses"] is False

    def test_bare_package_import_loads_no_submodule(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, maxclass; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'maxclass'))"],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "['maxclass']"


class TestPatchedNames:
    @pytest.mark.parametrize("name, command", [
        ("construct", "construct"), ("constituents", "construct"),
        ("constituents", "verify"), ("jacobi_verify", "verify"),
        ("classify_admissible_k", "classify"),
        ("search_sequences", "search"),
    ])
    def test_cli_calls_the_bound_name(self, monkeypatch, capsys, name, command):
        real = getattr(cli, name)
        calls = []

        def fake(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, fake)
        assert cli.main(REQUESTS[command]) == cli.EXIT_OK
        capsys.readouterr()
        assert calls

    def test_unknown_cli_name_is_attribute_error(self):
        with pytest.raises(AttributeError):
            cli.no_such_name

    def test_value_error_is_usage_error(self, monkeypatch, capsys):
        def fake(*args):
            raise ValueError("bad")

        monkeypatch.setattr(cli, "classify_admissible_k", fake)
        assert cli.main(REQUESTS["classify"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: bad\n"

    def test_other_errors_propagate(self, monkeypatch):
        def fake(*args, **kwargs):
            raise RecursionError("deep")

        monkeypatch.setattr(cli, "search_sequences", fake)
        with pytest.raises(RecursionError, match="deep"):
            cli.main(REQUESTS["search"])

    # A report needs depth 19 > q = 9, so its last window, degrees 19 to 21,
    # has no operator part; the build cut at depth 5 keeps degrees 5 to 7.
    @pytest.mark.parametrize("argv, has_ops", [(BUILD + ["--report"], False),
                                               (BUILD + ["--depth", "5"], True)],
                             ids=["report", "depth-cut"])
    def test_benchmark_tracer_matches_the_command_line(self, capsys, tmp_path, argv,
                                                        has_ops):
        trace_file = tmp_path / "trace.json"
        traced = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"),
                                 str(trace_file), *argv],
                                capture_output=True, text=True, timeout=120)
        assert traced.returncode == cli.main(argv) == cli.EXIT_OK, traced.stderr
        assert traced.stdout == capsys.readouterr().out
        trace = json.loads(trace_file.read_text())
        assert trace["exit"] == 0
        assert {"divided_powers.Endo.compose", "divided_powers.Endo.apply"} <= set(trace["timers"])
        builds = [attrs for name, _, _, _, attrs in trace["spans"]
                  if name == "exceptional.construct"]
        assert builds and all((attrs["op_entries"] > 0) == has_ops for attrs in builds)

    def test_construction_error_from_a_fresh_process(self):
        # exceptional is first imported inside the handler, after main has
        # entered its try block
        script = (
            "import sys\n"
            "from maxclass import cli\n"
            "def fail(params, depth=None):\n"
            "    from maxclass.exceptional import ConstructionError\n"
            "    raise ConstructionError('tampered')\n"
            "cli.construct = fail\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script,
                               *REQUESTS["construct"]],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == cli.EXIT_CHECK_FAILED
        assert proc.stdout == ""
        assert proc.stderr == "construction failed: tampered\n"


class TestNamespace:
    @pytest.mark.parametrize("name", [n for n in maxclass.__all__
                                      if n != "__version__"])
    def test_name_is_its_home_modules_object(self, name):
        home = importlib.import_module(f"maxclass.{maxclass._HOME[name]}")
        obj = getattr(maxclass, name)
        assert obj is getattr(home, name)
        assert obj.__module__ == home.__name__

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from maxclass import *", namespace)
        assert set(maxclass.__all__) <= set(namespace)
        assert namespace["construct"] is maxclass.construct

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            maxclass.no_such_name

    def test_submodules_import_by_name(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from maxclass import cli, exceptional\n"
             "print(cli.__name__, exceptional.__name__)"],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.split() == ["maxclass.cli", "maxclass.exceptional"]

    def test_every_export_has_a_caller(self):
        # a name only tests call belongs in tests/, not in the package
        assert set(maxclass._HOME) - named(SOURCES) == AWAITING_CALLERS

    def test_every_public_method_has_a_caller(self):
        # a method only tests call belongs in a tests-side subclass; the
        # benchmark's callers count, since it times package methods
        used = named(SOURCES + sorted(PERFBENCH.glob("*.py")))
        uncalled = [f"{cls.name}.{node.name}" for path in SOURCES
                    for cls in ast.walk(ast.parse(path.read_text()))
                    if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and node.name not in used]
        assert uncalled == []
