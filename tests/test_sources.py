"""Every source file parses as the oldest Python that pyproject.toml
supports, whichever interpreter runs the tests, and the package imports
nothing outside the standard library, uses none of the library names
added after that version, and imports its own modules only downwards."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
