"""The package's modules import one another in one direction only."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import critfact

PACKAGE = Path(critfact.__file__).parent
MODULES = {path.stem: path for path in PACKAGE.glob("*.py")}


def _sibling_imports(path):
    """The package modules that ``path`` imports, at module level or
    inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # "from .x import y" imports x; "from . import x" imports x
            names = [f"critfact.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        parts = [name.split(".") for name in names]
        found.update(p[1] for p in parts if p[0] == "critfact" and len(p) > 1 and p[1] in MODULES)
    return found


def test_module_imports_form_no_cycle():
    graph = {name: _sibling_imports(path) for name, path in MODULES.items()}
    assert "words" in graph["squarefree"]
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as err:
        raise AssertionError(f"import cycle: {' -> '.join(err.args[1])}") from None
    assert order.index("squarefree") < order.index("periods") < order.index("verify")
