"""Every source file parses as the oldest Python that pyproject.toml
supports, whichever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(
    [*ROOT.glob("src/vigil/*.py"), *ROOT.glob("bench/**/*.py"), *ROOT.glob("tests/*.py")]
)


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
