"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import appraisal_explainer

PACKAGE = Path(appraisal_explainer.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them.
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert modules
    unused = {
        path.name: names
        for path in modules
        if (names := _unused_imports(ast.parse(path.read_text("utf-8"))))
    }
    assert unused == {}
