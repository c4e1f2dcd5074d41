"""Public-API surface tests: everything advertised resolves and works.

A downstream user's first contact is ``from repro import ...``; these
tests pin the advertised names, their importability, and the promise that
every ``__all__`` entry of every subpackage actually exists.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.dag",
    "repro.dagman",
    "repro.theory",
    "repro.core",
    "repro.sim",
    "repro.stats",
    "repro.workloads",
    "repro.analysis",
    "repro.obs",
]

#: Every package with a lazy-export table (``_lazy_exports``).
LAZY_PACKAGES = PACKAGES + [
    "repro.live",
    "repro.perf",
    "repro.robust",
    "repro.serve",
]

#: Exports that share their name with the submodule defining them.
CLASHES = {
    "repro.analysis": {"eligibility_curves", "league"},
    "repro.core": {"decompose"},
    "repro.workloads": {"airsn", "inspiral", "montage", "sdss"},
}


class TestAllEntriesResolve:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_all(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__") and module.__all__
        for entry in module.__all__:
            assert hasattr(module, entry), f"{name}.{entry} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_is_sorted_unique(self, name):
        module = importlib.import_module(name)
        entries = list(module.__all__)
        assert len(entries) == len(set(entries))


class TestTopLevelWorkflow:
    """The README quickstart, executed literally."""

    def test_quickstart_snippet(self):
        from repro import DagBuilder, fifo_schedule, prio_schedule

        b = DagBuilder()
        b.add_dependency("a", "b")
        b.add_dependency("c", "d")
        b.add_dependency("c", "e")
        dag = b.build()
        result = prio_schedule(dag)
        assert [dag.label(u) for u in result.schedule] == list("cabde")
        assert result.priority_of("c") == 5
        assert fifo_schedule(dag) == [
            dag.id_of(x) for x in "acbde"
        ]

    def test_workload_one_liner(self):
        dag = repro.airsn(width=10)
        assert dag.n == 21 + 30 + 2

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestDocstrings:
    """Every public callable carries a docstring (deliverable e)."""

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_objects_documented(self, name):
        module = importlib.import_module(name)
        undocumented = []
        for entry in module.__all__:
            obj = getattr(module, entry)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(f"{name}.{entry}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_module_docstrings(self):
        import pkgutil

        missing = []
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            missing.extend(
                f"{pkg_name}.{m.name}"
                for m in pkgutil.iter_modules(getattr(pkg, "__path__", []))
                if not (
                    importlib.import_module(f"{pkg_name}.{m.name}").__doc__
                    or ""
                ).strip()
            )
        assert not missing, f"modules without docstrings: {missing}"


def lazy_table(package: str) -> dict[str, str]:
    """``{name: absolute defining module}``: the literal table passed to
    ``_lazy_exports`` in *package*'s ``__init__``."""
    path = Path(importlib.import_module(package).__file__)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_lazy_exports"
        ):
            table = ast.literal_eval(node.args[2])
            return {
                name: importlib.util.resolve_name(module, package)
                for module, names in table.items()
                for name in names
            }
    raise AssertionError(f"{package} has no _lazy_exports table")


def fresh_python(code: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyExports:
    """The PEP 562 re-exports are the eager imports they replaced."""

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_table_is_the_all_list(self, name):
        module = importlib.import_module(name)
        assert set(lazy_table(name)) == set(module.__all__) - {"__version__"}

    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_export_is_its_defining_module_attribute(self, name):
        package = importlib.import_module(name)
        for export, module_name in lazy_table(name).items():
            value = getattr(package, export)
            assert value is getattr(importlib.import_module(module_name), export)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert value.__module__ == module_name, export

    def test_dir_covers_all_before_any_read(self):
        missing = json.loads(fresh_python(
            "import importlib, json\n"
            f"packages = {LAZY_PACKAGES!r}\n"
            "modules = [importlib.import_module(p) for p in packages]\n"
            "print(json.dumps({m.__name__: sorted(set(m.__all__) - set(dir(m)))"
            " for m in modules}))\n"
        ))
        assert missing == {name: [] for name in LAZY_PACKAGES}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            getattr(importlib.import_module("repro.core"), "nope")
        assert not hasattr(repro, "nope")

    def test_clashes_are_the_known_ones(self):
        found = {}
        for name in LAZY_PACKAGES:
            package = importlib.import_module(name)
            submodules = {m.name for m in pkgutil.iter_modules(package.__path__)}
            clash = set(package.__all__) & submodules
            if clash:
                found[name] = clash
        assert found == CLASHES

    def test_clashing_name_stays_the_function_after_its_submodule(self):
        kinds = json.loads(fresh_python(
            "import importlib, inspect, json\n"
            f"clashes = {sorted((p, n) for p, ns in CLASHES.items() for n in ns)!r}\n"
            "kinds = {}\n"
            "for package, name in clashes:\n"
            "    importlib.import_module(f'{package}.{name}')\n"
            "    value = getattr(importlib.import_module(package), name)\n"
            "    kinds[f'{package}.{name}'] = inspect.isfunction(value)\n"
            "print(json.dumps(kinds))\n"
        ))
        assert kinds == {
            f"{p}.{n}": True for p, names in CLASHES.items() for n in names
        }
