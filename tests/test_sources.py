"""Every source file parses as the oldest Python that pyproject.toml
supports, whichever interpreter runs the tests, and the package imports
nothing outside the standard library."""

import ast
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
