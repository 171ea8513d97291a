"""Imports, exceptions, cache slots and top-level definitions of the package: each one used,
re-exported, raised, pre-set or referenced."""

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


def _preset_slots(tree: ast.Module) -> set[str]:
    """The names a class's ``__init__`` pre-sets with ``fields["<name>"] = None``."""
    inits = [
        node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    return {
        node.targets[0].slice.value
        for init in inits
        for node in ast.walk(init)
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Subscript)
        and isinstance(node.targets[0].value, ast.Name) and node.targets[0].value.id == "fields"
        and isinstance(node.targets[0].slice, ast.Constant)
        and isinstance(node.value, ast.Constant) and node.value.value is None
    }


def _late_attributes(tree: ast.Module) -> list[str]:
    """The names set with ``object.__setattr__(obj, "<name>", value)``."""
    return [
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "object"
        and len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
    ]


def test_every_cache_slot_is_preset_in_its_class_init():
    # A name an instance gains after ``__init__`` would cost it a private
    # dict of about 400 bytes: every record of a class shares one table of
    # keys only while each sets the same keys in the same order. A
    # ``cached_property`` adds its name late, so the package uses none.
    sources = [path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert not any("cached_property" in source for source in sources)
    trees = list(map(ast.parse, sources))
    preset = set().union(*map(_preset_slots, trees))
    late = [name for tree in trees for name in _late_attributes(tree)]
    assert {"_parts", "_situational", "_splits"} <= set(late)
    assert [name for name in late if name not in preset] == []
    # ``Immutable`` leaves a name that starts with ``_`` out of a record's fields.
    assert sorted(name for name in preset if not name.startswith("_")) == []


def _names_read(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_every_top_level_function_and_class_is_referenced_outside_its_definition():
    # Code no command reaches is wired in or deleted; a name the tests alone
    # read does not count.
    statements = [
        statement
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text("utf-8")).body
    ]
    defined = [
        statement for statement in statements
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert defined
    read = [(statement, _names_read(statement)) for statement in statements]
    unreferenced = [
        node.name for node in defined
        if not any(node.name in names for statement, names in read if statement is not node)
    ]
    assert unreferenced == []
