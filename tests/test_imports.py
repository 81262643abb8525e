"""Module structure: every import of the package sits at module level and is used.

A function-level import usually hides an import cycle; keeping them out means
a cycle shows up as an ImportError at load time instead of being deferred.
No linter is a dependency, so an ``ast`` walk also keeps out imports that
outlive the code that used them, private module-level names that outlive
their last caller, a second BFS frontier loop beside ``graph._layers``, a
second complement coloring that fills color 2 beside ``_color_sides``, a
construction that reaches for the solver's search, a census that tests a
theorem's hypothesis itself instead of asking the construction, a
complement dispatcher that names a theorem's construction instead of
trying ``THEOREMS``, a census that solves outside ``census._solved`` or
checks an order outside ``census._require_order``, an enumerator that no
longer labels through the one name the benchmark hooks, and an enumerator
that walks or relabels each child again.
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


def default_two_fills():
    """(module, function) of each assignment that gives every edge of a graph color 2.

    Both spellings count: ``dict.fromkeys(h.edges, 2)`` and
    ``{e: 2 for e in h.edges}``.  The function is the top-level one around it.
    """
    def over_edges(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "edges"

    def two(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == 2

    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in tree.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                fromkeys = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "fromkeys" and len(node.args) == 2
                            and over_edges(node.args[0]) and two(node.args[1]))
                comprehension = (isinstance(node, ast.DictComp) and two(node.value)
                                 and any(over_edges(gen.iter) for gen in node.generators))
                if fromkeys or comprehension:
                    found.append((path.stem, func.name))
    return found


def test_one_side_rule():
    # constructions._color_sides is the one rule that colors a complement 2
    # outside chosen pairs of vertex sets; a second fill is a second copy of it
    assert default_two_fills() == [("constructions", "_color_sides")]


def solver_imports(module: str) -> set[str]:
    """The names ``module`` imports from ``.solver``."""
    path = Path(pclab.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("solver", "pclab.solver")
            for a in node.names}


def test_constructions_never_search():
    # a construction colors literally and imports nothing from the solver, so
    # none can fall back on a search
    assert solver_imports("constructions") == set()


def test_census_selects_by_the_theorems_table():
    # each hypothesis is written once, as its construction's PreconditionError;
    # a census that imports a construction or diameter can grow a second copy
    path = Path(pclab.__file__).parent / "census.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not {name for name in imported
                if name.startswith("color_complement_") or name == "diameter"}


def test_dispatcher_reaches_theorems_through_the_table():
    # auto_pc2_complement tries each THEOREMS construction in table order and
    # keeps code only for the shapes no theorem names; naming a construction
    # would let it test that theorem's hypothesis a second time
    path = Path(pclab.__file__).parent / "constructions.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    dispatcher = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "auto_pc2_complement")
    assert [name for name in _mentions(dispatcher) if name.startswith("color_complement_")] == []


def census_sites(wanted: str) -> list[str]:
    """The top-level definition of census.py around each mention of ``wanted``.

    The import of the name is not a mention.
    """
    path = Path(pclab.__file__).parent / "census.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return [getattr(node, "name", type(node).__name__) for node in tree.body
            if not isinstance(node, (ast.Import, ast.ImportFrom))
            for name in _mentions(node) if name == wanted]


def test_census_solves_in_one_place():
    # census._solved calls exact_pc once per class and builds the one table
    # every census check reads; it is also the call the benchmark's timer
    # wraps.  A second site could solve a class twice.
    assert census_sites("exact_pc") == ["_solved"]


def test_census_has_one_size_rule():
    # census._require_order is the one order check and its ceiling is the
    # enumerator's; a second range would be a second size rule to keep in step
    assert census_sites("UnsupportedSizeError") == ["_require_order"]
    assert set(census_sites("MAX_ENUMERATION_N")) == {"_require_order"}


def generators_graph_imports() -> set[str]:
    """The names generators.py imports from ``.graph`` under their own name."""
    path = Path(pclab.__file__).parent / "generators.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {a.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "graph" and node.level == 1
            for a in node.names if a.asname is None}


def test_enumerator_labels_through_imported_name():
    # the benchmark times labeling by patching generators._min_placement; a
    # rename or an inlined labeling would read 0 there without an error
    path = Path(pclab.__file__).parent / "generators.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = generators_graph_imports()
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_level")
    called = {node.func.id for node in ast.walk(build)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_min_placement" in imported & called


def test_enumerator_tests_cut_vertices_once_per_parent():
    # the enumerator reads each child's cut vertices from its parent's pieces
    # and decodes each class from its code; importing the per-graph cut-vertex
    # walk or the relabeling would bring back one BFS or one relabel per child
    assert not generators_graph_imports() & {"_is_cut_vertex", "canonical_graph"}
