"""README.md names library objects in backticks as ``hpdg.<dotted name>``;
every such name must exist, so a rename or a removal cannot leave it stale."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_backticked_hpdg_name_in_readme_resolves():
    names = sorted(set(re.findall(r"`(hpdg(?:\.\w+)+)", README.read_text())))
    assert "hpdg.smallest_eigenpair" in names  # the pattern still finds the names
    assert [name for name in names if not _resolves(name)] == []
