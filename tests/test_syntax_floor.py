"""The package parses as the oldest Python that pyproject.toml declares.

Tests run on one interpreter, which may be newer than the declared
minimum, so syntax of a later version would otherwise go unnoticed.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "rcsopt").glob("*.py"))


def declared_minimum() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_at_the_declared_minimum(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=declared_minimum())


def test_newer_syntax_is_rejected():
    # The check has teeth: an ``except*`` clause is Python 3.11 syntax.
    src = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(src)
    with pytest.raises(SyntaxError):
        ast.parse(src, feature_version=(3, 10))
