"""Every Python file parses with the grammar of the oldest supported Python."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
