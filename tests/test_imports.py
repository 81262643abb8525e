"""Module structure: every import of the package sits at module level.

A function-level import usually hides an import cycle; keeping them out means
a cycle shows up as an ImportError at load time instead of being deferred.
"""
import ast
from pathlib import Path

import pclab

# graph.canonical_form encodes its result with graph6, and graph6 builds on
# graph's Graph type; the deferred import stays until canonical labeling
# stops going through graph6 text.
ALLOWED = {("graph", "canonical_form")}


def function_level_imports():
    found = []
    for path in sorted(Path(pclab.__file__).parent.glob("*.py")):
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

