"""Tests for report formatting helpers and small shared utilities."""

import ast
import re
from pathlib import Path

import pytest

from repro.experiments.common import format_table
from repro.simcore.errors import (
    AdmissionError,
    AnalysisError,
    ConfigurationError,
    ReproError,
    SchedulingError,
    SimulationError,
)


class TestFormatTable:
    def test_columns_aligned(self):
        rows = [
            {"name": "a", "value": 1},
            {"name": "longer", "value": 12345},
        ]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All data lines equal width.
        assert len(set(len(l) for l in lines[2:])) <= 2

    def test_floats_fixed_precision(self):
        out = format_table([{"x": 1.23456}])
        assert "1.235" in out

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="T")

    def test_missing_cell_blank(self):
        out = format_table([{"a": 1, "b": 2}, {"a": 3}])
        assert out.count("\n") == 3


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (SimulationError, SchedulingError, ConfigurationError, AnalysisError):
            assert issubclass(exc, ReproError)

    def test_admission_error_level(self):
        err = AdmissionError("nope", level="guest")
        assert err.level == "guest"
        assert isinstance(err, ReproError)

    def test_admission_error_default_level(self):
        assert AdmissionError("nope").level == "host"


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_exports_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.experiments
        import repro.placement
        import repro.report
        import repro.workloads

    def test_every_module_is_reachable(self):
        # Every module under src/repro must be in the static import
        # closure of the CLI or of a repro module that tools/ or
        # perfbench/ imports.  Package __init__ files only re-export.
        import repro
        from repro.runner.cache import _import_closure, _module_path

        package_root = Path(repro.__file__).parent
        repo_root = Path(__file__).resolve().parents[1]
        roots = {"repro.__main__"}
        scripts = sorted(repo_root.glob("tools/*.py"))
        scripts += sorted(repo_root.glob("perfbench/*.py"))
        for script in scripts:
            for node in ast.walk(ast.parse(script.read_text())):
                if isinstance(node, ast.Import):
                    roots.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    roots.add(node.module)
                    roots.update(
                        f"{node.module}.{alias.name}" for alias in node.names
                    )
        reached = set()
        for root in sorted(roots):
            if _module_path(str(package_root), "repro", root) is None:
                continue  # outside repro, or a name rather than a module
            closure = _import_closure(str(package_root), "repro", root)
            assert closure is not None, f"unresolvable imports under {root}"
            reached.update(closure)
        modules = {
            ".".join(("repro",) + path.relative_to(package_root).with_suffix("").parts)
            for path in package_root.rglob("*.py")
            if path.name != "__init__.py"
        }
        unreachable = sorted(modules - reached)
        assert not unreachable, "no run reaches: " + ", ".join(unreachable)

    def test_every_function_is_named_outside_tests(self):
        # Every function, method and class under src/repro must be named
        # by code outside tests/: src/repro itself (package __init__
        # files only re-export), tools/, perfbench/, benchmarks/ or
        # examples/.  A name is an identifier, an attribute, an imported
        # name, or a string constant that spells an identifier or a
        # dotted reference ("repro.pkg.module:function").  Docstrings do
        # not name anything; dunder methods are exempt.  A classmethod or
        # staticmethod is named only as ``Class.name``, ``self.name`` or
        # ``cls.name``: another class's method of the same name does not
        # keep it alive.
        import repro

        package_root = Path(repro.__file__).parent
        repo_root = Path(__file__).resolve().parents[1]
        sources = [
            path
            for path in sorted(package_root.rglob("*.py"))
            if path.name != "__init__.py"
        ]
        naming = list(sources)
        for directory in ("tools", "perfbench", "benchmarks", "examples"):
            naming += sorted((repo_root / directory).rglob("*.py"))
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        named = set()
        qualified = set()  # (owner, attribute) of every ``owner.attribute``
        for path in naming:
            tree = ast.parse(path.read_text())
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, scopes)
                and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                    if isinstance(node.value, ast.Name):
                        qualified.add((node.value.id, node.attr))
                elif isinstance(node, ast.alias):
                    named.update(node.name.split("."))
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings
                ):
                    parts = re.split(r"[.:]", node.value)
                    if all(part.isidentifier() for part in parts):
                        named.update(parts)
        bound = {"classmethod", "staticmethod"}
        unnamed = []
        for path in sources:
            tree = ast.parse(path.read_text())
            owners = {
                id(member): node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)
                for member in node.body
                if isinstance(member, scopes[2:])
                and any(
                    isinstance(d, ast.Name) and d.id in bound
                    for d in member.decorator_list
                )
            }
            for node in ast.walk(tree):
                if not isinstance(node, scopes[1:]):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                owner = owners.get(id(node))
                if owner is None:
                    found = node.name in named
                else:
                    found = any(
                        (who, node.name) in qualified for who in (owner, "self", "cls")
                    )
                if not found:
                    relative = path.relative_to(package_root)
                    unnamed.append(f"{relative}:{node.lineno} {node.name}")
        assert not unnamed, "named only by tests: " + ", ".join(unnamed)

    def test_every_import_is_read(self):
        # Every name a module under src/repro imports must be read by
        # that module.  Package __init__ files only re-export, and
        # ``from __future__`` imports are directives, not names.
        import repro

        package_root = Path(repro.__file__).parent
        unread = []
        for path in sorted(package_root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        imported[name] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            relative = path.relative_to(package_root)
            unread += [
                f"{relative}:{line} {name}"
                for name, line in sorted(imported.items())
                if name not in read
            ]
        assert not unread, "imported but never read: " + ", ".join(unread)

    def test_only_the_engine_touches_its_queue(self):
        # Per-layer work counts (events armed and cancelled) are taken by
        # wrapping Engine.at and Engine.cancel; a module that reached the
        # queue directly would arm or cancel timers those counts miss.
        import repro

        package_root = Path(repro.__file__).parent
        engine = package_root / "simcore" / "engine.py"
        offenders = []
        for path in sorted(package_root.rglob("*.py")):
            if path == engine:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "_queue":
                    relative = path.relative_to(package_root)
                    offenders.append(f"{relative}:{node.lineno}")
        assert not offenders, "event queue reached around Engine: " + ", ".join(
            offenders
        )
