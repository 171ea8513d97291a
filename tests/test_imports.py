"""Imports and exceptions of the package: each one used, re-exported or raised for a reason."""

import ast
from pathlib import Path

import appraisal_explainer
from appraisal_explainer import errors

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


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and isinstance(getattr(errors, exc.id, None), type):
                    raised.add(getattr(errors, exc.id))
    classes = [value for value in vars(errors).values() if isinstance(value, type)]
    assert [cls.__name__ for cls in classes if not any(issubclass(r, cls) for r in raised)] == []


def test_every_reexported_name_is_imported_outside_the_tests():
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in root.rglob("*.py"):
        top = path.relative_to(root).parts[0]
        if top == "tests" or top.startswith(".") or path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "appraisal_explainer":
                imported.update(alias.name for alias in node.names)
    assert sorted(set(appraisal_explainer.__all__) - imported) == []
