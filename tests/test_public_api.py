"""The package's public surface: every exported name resolves, once, and
has a use outside the tests; and no module imports a name it never reads."""
import ast
import importlib.util
import re
import sys
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


def _unread_imports(path: Path) -> set:
    """The names the module at path binds by import but never reads as a bare
    name (a string in its __all__ counts as a read)."""
    tree = ast.parse(path.read_text())
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return bound - read


def _traced_rebinds() -> set:
    """(module file name, attribute) of every call site perfbench's tracer
    rebinds: a module keeps such a name bound even where it does not read it."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans   # its dataclasses look their module up
    spec.loader.exec_module(spans)
    return {(Path(module.__file__).name, attr) for module, attr, _, _ in spans.targets()}


def test_no_module_imports_a_name_it_never_reads():
    rebound = _traced_rebinds()
    unread = sorted((path.name, name) for path in (ROOT / "src" / "sinemodel").glob("*.py")
                    for name in _unread_imports(path) if (path.name, name) not in rebound)
    assert unread == []
    # the one name kept for the tracer today
    assert _unread_imports(ROOT / "src" / "sinemodel" / "eaqhm.py") == {"synthesize_tracks"}
