"""The package's public surface: every exported name resolves, once, and
has a use outside the tests."""
import ast
import re
from pathlib import Path

import sinemodel

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_are_attributes_and_unique():
    missing = [name for name in sinemodel.__all__ if not hasattr(sinemodel, name)]
    assert missing == []
    assert len(set(sinemodel.__all__)) == len(sinemodel.__all__)


def _loaded_names(paths) -> set:
    """The names the code of these files reads, bare or as an attribute (so
    neither a definition nor a docstring or comment counts)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_outside_the_tests():
    # a use is code in src/ other than __init__, or the name in perfbench's
    # code or the README; __version__ is the package version, read by tools
    used = _loaded_names(p for p in (ROOT / "src" / "sinemodel").glob("*.py")
                         if p.name != "__init__.py")
    text = "\n".join([(ROOT / "README.md").read_text()]
                     + [p.read_text() for p in (ROOT / "perfbench").glob("*.py")
                        if not p.name.startswith("test_")])
    unused = [name for name in sinemodel.__all__ if name != "__version__"
              and name not in used and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
