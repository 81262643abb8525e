"""Module structure: every import of the package sits at module level and is used.

A function-level import usually hides an import cycle; keeping them out means
a cycle shows up as an ImportError at load time instead of being deferred.
No linter is a dependency, so an ``ast`` walk also keeps out imports that
outlive the code that used them, private module-level names that outlive
their last caller, a second BFS frontier loop beside ``graph._layers``, and a
construction that reaches for the solver's search.
"""
import ast
from collections import Counter
from pathlib import Path

import pclab

# (module, function) pairs whose deferred import is accepted; an entry must
# name the cycle it defers.  None is needed.
ALLOWED: set[tuple[str, str]] = set()

MODULES = sorted(Path(pclab.__file__).parent.glob("*.py"))


def function_level_imports():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((path.stem, func.name, node.lineno))
    return found


def test_no_function_level_imports():
    offending = [f for f in function_level_imports() if f[:2] not in ALLOWED]
    assert offending == []


def unused_imports():
    """(module, name) for each imported name its module never mentions.

    ``__init__`` is skipped: its imports are the package's public API.
    """
    found = []
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [(path.stem, name) for name in sorted(imported - used)]
    return found


def test_no_unused_imports():
    assert unused_imports() == []


def _mentions(node) -> list[str]:
    """Names a node's subtree reads: loads, attribute names and imported names."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found += [a.name for a in sub.names]
    return found


def unreferenced_private_names():
    """(module, name) for each module-level ``_private`` name the package never uses.

    A use inside the name's own definition, such as a recursive call, does not
    count.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    mentions = Counter(name for tree in trees.values() for name in _mentions(tree))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(_mentions(node))
            found += [(module, name) for name in defined
                      if name.startswith("_") and not name.startswith("__")
                      and mentions[name] == own[name]]
    return found


def test_every_private_name_is_used():
    assert unreferenced_private_names() == []


def frontier_loops():
    """The module of each ``while frontier:`` loop in the package."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [path.stem for node in ast.walk(tree)
                  if isinstance(node, ast.While) and isinstance(node.test, ast.Name)
                  and node.test.id == "frontier"]
    return found


def test_one_bfs_frontier_loop():
    # graph._layers is the one BFS; a second loop is a second implementation
    assert frontier_loops() == ["graph"]


def solver_imports(module: str) -> set[str]:
    """The names ``module`` imports from ``.solver``."""
    path = Path(pclab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("solver", "pclab.solver")
            for a in node.names}


def test_constructions_never_search():
    # a construction colors literally; only the upper bound's certificate is
    # borrowed from the solver, so none can fall back on a search
    assert solver_imports("constructions") == {"pc_upper_bound"}
