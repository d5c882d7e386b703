"""Every source file parses as the oldest Python that pyproject.toml
supports, whichever interpreter runs the tests, and the package imports
nothing outside the standard library, uses none of the library names
added after that version, and imports its own modules only downwards."""

import ast
import builtins
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from support import cold_start

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
PACKAGE = sorted(ROOT.glob("src/vigil/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("bench/**/*.py"), *ROOT.glob("tests/*.py")])


def test_oldest_version_is_the_declared_one():
    declared = f'requires-python = ">={OLDEST[0]}.{OLDEST[1]}"'
    assert declared in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_newer_syntax_is_rejected():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_no_runtime_dependencies():
    assert "\ndependencies = []\n" in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    """The runtime stays stdlib-only: no third-party module, numpy included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, f"line {node.lineno}: {name}"


NEWER = {
    "tomllib": None,  # the whole module
    "typing": {"Self", "Never", "assert_never", "LiteralString", "Required", "NotRequired",
               "reveal_type", "dataclass_transform", "TypeVarTuple", "Unpack", "override",
               "TypeAliasType"},
    "enum": {"StrEnum", "ReprEnum", "EnumCheck", "FlagBoundary", "verify", "member",
             "nonmember", "global_enum"},
    "datetime": {"UTC"},
    "contextlib": {"chdir"},
    "hashlib": {"file_digest"},
    "itertools": {"batched"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
}
"""Standard-library names that Python 3.11 or later added: a module with
all of its names (None), or the names added to an older module."""


def newer_names(source: str) -> list[str]:
    """Uses in ``source`` of the names in :data:`NEWER`: imports of them,
    attributes of a module imported under any name, and the new builtins."""
    tree = ast.parse(source)
    modules = {"builtins": "builtins"}  # local name -> module it is bound to
    found = []

    def newer(module, name=None) -> bool:
        added = NEWER.get(module, set())
        return added is None or name in added

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if newer(alias.name):
                    found.append(alias.name)
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if newer(node.module, alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if module is not None and newer(module, node.attr):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER["builtins"]:
            found.append(node.id)
    return found


@pytest.mark.parametrize("source, name", [
    ("import tomllib", "tomllib"),
    ("from typing import Self", "typing.Self"),
    ("import typing\nx: typing.Never", "typing.Never"),
    ("import typing as t\nt.assert_never(1)", "typing.assert_never"),
    ("from enum import StrEnum", "enum.StrEnum"),
    ("import datetime\ndatetime.UTC", "datetime.UTC"),
    ("from contextlib import chdir", "contextlib.chdir"),
    ("import hashlib\nhashlib.file_digest", "hashlib.file_digest"),
    ("import itertools\nitertools.batched([], 2)", "itertools.batched"),
    ("raise ExceptionGroup('e', [])", "ExceptionGroup"),
])
def test_newer_names_are_found(source, name):
    assert newer_names(source) == [name]


def test_older_names_pass():
    source = "import typing, itertools, enum\nfrom typing import Hashable\n" \
             "typing.Iterator\nitertools.chain\nenum.Enum\nraise ValueError('e')"
    assert newer_names(source) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_uses_no_newer_library_names(path):
    assert newer_names(path.read_text(encoding="utf-8")) == []


LAYERS = {"sequences": 0, "systems": 1, "bisim": 2, "detector": 3,
          "families": 4, "monitor": 4, "speclang": 4, "cli": 5, "__init__": 6}
"""The package's modules, lowest first: a module may import at run time
only from a lower layer."""


def runtime_relative_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each relative import in ``source``, at any depth,
    but for those under ``if TYPE_CHECKING:``."""
    tree = ast.parse(source)
    exempt = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.If) and isinstance(node.test, ast.Name)
              and node.test.id == "TYPE_CHECKING"
              for stmt in node.body for inner in ast.walk(stmt)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in exempt:
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            found += [(node.lineno, module.split(".")[0]) for module in modules]
    return sorted(found)


def test_relative_imports_are_found_but_for_type_checking():
    source = "from typing import TYPE_CHECKING\nfrom . import cli\nif TYPE_CHECKING:\n" \
             "    from .detector import X\ndef f():\n    from .monitor import Y\n"
    assert runtime_relative_imports(source) == [(2, "cli"), (6, "monitor")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_point_down_the_layers(path):
    """So the one unfold, in ``systems``, stays below every module that
    uses it, and no import cycle comes back."""
    for line, module in runtime_relative_imports(path.read_text(encoding="utf-8")):
        assert LAYERS[module] < LAYERS[path.stem], f"line {line}: {path.stem} imports {module}"


SLOW_AT_START = {"copy", "dataclasses", "inspect", "typing", "tempfile", "shutil"}
"""Standard-library modules that would cost each start of ``vigil`` some
milliseconds (``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis``
and ``tokenize``; ``shutil``, which argparse's help formatter imports for
the terminal width, pulls in ``fnmatch``, ``bz2`` and ``lzma``) and that its
start does not need."""


def module_level_stdlib_imports(paths) -> set[str]:
    """The standard-library modules imported by the module bodies of
    ``paths``, but not those imported inside a function."""
    found = set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module)
    return found


@pytest.mark.parametrize("entry", ["cli", "package"])
def test_a_cold_start_loads_no_slow_module(tmp_path, entry):
    """Neither ``from vigil import *``, which starts every library module,
    nor ``vigil check``, ``vigil monitor --trace FILE`` and ``vigil monitor
    --lasso`` load a module of :data:`SLOW_AT_START` that a child importing
    only the other standard-library modules vigil imports does not load
    too: a later Python's own imports are not blamed on vigil."""
    (tmp_path / "spec.vgl").write_text("alphabet a b;\nviolation (a | b)* b a;\n", encoding="utf-8")
    (tmp_path / "trace.txt").write_text("a b b\na\n", encoding="utf-8")
    if entry == "cli":
        spec, trace = str(tmp_path / "spec.vgl"), str(tmp_path / "trace.txt")
        code = f"from vigil.cli import main\nprint(main(['check', {spec!r}]), " \
               f"main(['monitor', {spec!r}, '--trace', {trace!r}]), " \
               f"main(['monitor', {spec!r}, '--lasso', 'a ; a b']))"
        sources = PACKAGE
    else:
        code = "from vigil import *"
        sources = [path for path in PACKAGE if path.stem != "cli"]
    output, loaded = cold_start(code)
    if entry == "cli":
        assert "detector states: 2" in output and '"prefix_len": 4' in output
        assert output.endswith("0 1 1")
    else:
        assert {f"vigil.{path.stem}" for path in sources if path.stem != "__init__"} <= loaded
    stdlib = sorted(module_level_stdlib_imports(sources) - SLOW_AT_START)
    assert "re" in stdlib and ("argparse" in stdlib) == (entry == "cli")
    _, baseline = cold_start("\n".join(f"import {name}" for name in stdlib))
    assert "vigil" in loaded and sorted(SLOW_AT_START & loaded - baseline) == []


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    """Under the repository's pytest settings, which turn warnings into
    errors, hypothesis's failure report must not end the session in an
    INTERNALERROR: the report imports libcst, which uses a deprecated
    ``mypy_extensions`` name."""
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("hypothesis imports libcst only when it is installed")
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    report = done.stdout + done.stderr
    assert done.returncode == 1 and "INTERNALERROR" not in report, report[-600:]
    assert "1 failed" in done.stdout


def loaded_vigil_modules(tmp_path, *argv: str) -> set[str]:
    """The ``vigil.*`` modules that a cold ``vigil ARGV`` (or ``import
    vigil``, given no ARGV) has loaded when it ends."""
    (tmp_path / "spec.vgl").write_text("alphabet a b;\nviolation (a | b)* b a;\n", encoding="utf-8")
    (tmp_path / "trace.txt").write_text("a b b\na\n", encoding="utf-8")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = f"from vigil.cli import main\nmain({argv!r})" if argv else "import vigil"
    _, loaded = cold_start(code)
    return {module for module in loaded if module.startswith("vigil.")}


def test_importing_the_package_loads_none_of_its_modules(tmp_path):
    assert loaded_vigil_modules(tmp_path) == set()


@pytest.mark.parametrize("argv, unused", [
    (["monitor", "{tmp}/spec.vgl", "--trace", "{tmp}/trace.txt"], {"detector", "bisim", "families"}),
    (["monitor", "{tmp}/spec.vgl", "--lasso", "a ; a b"], {"detector", "bisim", "families"}),
    (["check", "{tmp}/spec.vgl"], {"families"}),
    (["words", "{tmp}/spec.vgl", "--depth", "3"], {"detector", "bisim", "families"}),
    (["equiv", "{tmp}/spec.vgl", "{tmp}/spec.vgl"], {"detector", "families"}),
], ids=["monitor-trace", "monitor-lasso", "check", "words", "equiv"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, unused):
    loaded = loaded_vigil_modules(tmp_path, *argv)
    assert {"vigil.cli", "vigil.speclang"} <= loaded
    assert sorted(loaded & {f"vigil.{name}" for name in unused}) == []


def private_vigil_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each ``_``-prefixed name, dunders aside, that
    ``source`` imports from another ``vigil`` module or reads as an
    attribute of a name bound by a relative import (a module, or an object
    from one), at any depth of attribute access."""
    def private(name: str) -> bool:
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                found += [(node.lineno, alias.name)] if private(alias.name) else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append((node.lineno, node.attr))
    return sorted(found)


def test_private_vigil_names_are_found():
    source = "from .monitor import OK, _run_lasso\nfrom . import speclang\n" \
             "import os\nspeclang._pattern_dfa(1)\nOK.__class__\nos._exit\n" \
             "def f():\n    from .detector import _violation_words\n" \
             "    return speclang.SpecGraph._expand, live._row\n"
    assert private_vigil_names(source) == [
        (1, "_run_lasso"), (4, "_pattern_dfa"), (8, "_violation_words"), (9, "_expand")]


def test_cli_uses_only_public_library_names():
    """``vigil.cli`` composes the library through its public names, so a
    private name can change without the command line knowing."""
    assert private_vigil_names((ROOT / "src/vigil/cli.py").read_text(encoding="utf-8")) == []


CROSS_REFERENCE = re.compile(r":(?:func|class|meth|data|exc):`~?([\w.]+)`")


def unresolved_cross_references(path) -> list[str]:
    """The ``:func:``, ``:class:``, ``:meth:``, ``:data:`` and ``:exc:``
    targets in ``path`` that name nothing: ``vigil.m.x...`` is looked up in
    module ``vigil.m``, any other target in the class whose body it is in,
    if any, then in the file's own module, then in builtins, attribute by
    attribute."""
    source = path.read_text(encoding="utf-8")
    own = importlib.import_module("vigil" if path.stem == "__init__" else f"vigil.{path.stem}")
    classes = [(node.lineno, node.end_lineno, getattr(own, node.name))
               for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]
    absent, missing = object(), []
    for match in CROSS_REFERENCE.finditer(source):
        parts = match.group(1).split(".")
        line = source.count("\n", 0, match.start()) + 1
        if parts[0] == "vigil":
            scopes, parts = [importlib.import_module(".".join(parts[:2]))], parts[2:]
        else:
            scopes = [c for first, last, c in classes if first <= line <= last] + [own, builtins]
        for scope in scopes:
            found = scope
            for part in parts:
                found = getattr(found, part, absent)
            if found is not absent:
                break
        else:
            missing.append(match.group(1))
    return missing


def test_unresolved_cross_references_are_found(tmp_path):
    path = tmp_path / "systems.py"
    path.write_text('"""See :func:`reachable`, :class:`ValueError`, :meth:`TSystem.step`,\n'
                    ':func:`~vigil.bisim._minimal_rows`, :data:`FAULT`, :exc:`Missing`,\n'
                    ':meth:`TSystem.nope` and :func:`~vigil.detector.nope`."""\n\n\n'
                    'class TSystem:\n    """Its :meth:`step`, not :meth:`out`."""\n\n\n'
                    '"""No :meth:`step` here."""\n', encoding="utf-8")
    assert unresolved_cross_references(path) == [
        "Missing", "TSystem.nope", "vigil.detector.nope", "out", "step"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_cross_references_resolve(path):
    """So a docstring names no function that a change has deleted or moved."""
    assert unresolved_cross_references(path) == []
