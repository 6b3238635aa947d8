"""The README's API list names exactly what ``rcsopt`` exports."""

import re
import types
from pathlib import Path

import rcsopt

README = Path(__file__).resolve().parents[1] / "README.md"


def api_names() -> set[str]:
    """Backticked names in the bullet list of the README's ``## API``."""
    text = README.read_text()
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets))


def test_readme_api_lists_the_public_exports():
    exports = {name for name, val in vars(rcsopt).items()
               if not name.startswith("_")
               and not isinstance(val, types.ModuleType)}
    listed = api_names()
    assert listed == exports, (f"exported, not in README: "
                               f"{sorted(exports - listed)}; in README, not "
                               f"exported: {sorted(listed - exports)}")
