"""Every third-party module the tests import is declared in pyproject.toml.

``pip install .[test]`` must give all that the tier-1 suite imports, or the
suite fails at collection.  The imports are read with ``ast``, nested ones
included, so a module imported inside a test function counts too.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_DIRS = (ROOT / "tests", ROOT / "perfbench" / "tests")
# Modules that the tests import from the repo itself.
LOCAL = {"rcsopt"} | {p.stem for d in (*TEST_DIRS, ROOT / "perfbench")
                      for p in d.glob("*.py")}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def declared() -> set[str]:
    """Distribution names of ``dependencies`` and the ``test`` extra."""
    text = (ROOT / "pyproject.toml").read_text()
    names = set()
    for key in ("dependencies", "test"):
        items = re.search(rf"^{key}\s*=\s*\[([^\]]*)\]", text, re.M).group(1)
        names.update(re.match(r"[A-Za-z0-9_.-]+", s).group().lower()
                     for s in re.findall(r'"([^"]+)"', items))
    return names


def test_test_imports_are_declared():
    used = set().union(*(imported_modules(p) for d in TEST_DIRS
                         for p in d.glob("*.py")))
    third_party = used - set(sys.stdlib_module_names) - LOCAL
    assert {"numpy", "pytest"} <= third_party
    assert {m for m in third_party if m.lower() not in declared()} == set()
