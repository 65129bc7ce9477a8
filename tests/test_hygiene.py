"""Static checks of the package and test source, with the standard library's ``ast`` alone."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "candlegate"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
TEST_MODULES = {
    ".".join(("tests", *path.relative_to(TESTS).with_suffix("").parts)): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(TESTS.rglob("*.py"))
}


def _read_names(node: ast.AST) -> set[str]:
    """The names a node reads: loaded names, attributes, and names imported from a module."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def _defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}) + sorted(TEST_MODULES))
def test_every_import_is_used(module):
    tree = (MODULES | TEST_MODULES)[module]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = [
        alias.asname or alias.name.split(".")[0]
        for statement in tree.body
        if isinstance(statement, (ast.Import, ast.ImportFrom)) and getattr(statement, "module", "") != "__future__"
        for alias in statement.names
    ]
    assert [name for name in imported if name not in loaded] == []


def test_every_private_top_level_name_is_referenced():
    """A private name defined at a module's top level is read somewhere outside its own definition."""
    statements = [statement for tree in MODULES.values() for statement in tree.body]
    reads = [_read_names(statement) for statement in statements]
    readers = Counter(name for names in reads for name in names)
    unreferenced = [
        name
        for statement, names in zip(statements, reads)
        for name in _defined_names(statement)
        if name.startswith("_") and not name.startswith("__") and readers[name] == (name in names)
    ]
    assert unreferenced == []


# The forecaster protocol fixes this signature; a forecaster may ignore some of its arguments.
PROTOCOL_SIGNATURES = {("forecasts", ("self", "series", "origins", "lookback", "horizon"))}


def test_every_parameter_is_read():
    """Every parameter of every function and lambda in the package is read in its body."""
    unread = []
    for module, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if a]
            name = getattr(node, "name", "<lambda>")
            if (name, tuple(params)) in PROTOCOL_SIGNATURES:
                continue
            body = ast.Module(node.body if isinstance(node.body, list) else [ast.Expr(node.body)], [])
            read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{module}.{name}({param})" for param in params if param not in read]
    assert unread == []


# The private names one package module imports from another.  Each decision stays behind one
# module, so a new name here is a deliberate edit.
PRIVATE_IMPORTS = {
    "forecaster": {"_data_record", "_read_csv", "_read_data", "_timestamps"},
    "evaluation": {"_NUMBER", "_has_kind"},
    "cli": {"_NUMBER", "_has_kind"},
}


def test_modules_import_only_the_listed_private_names_of_each_other():
    imported = {}
    for module, tree in MODULES.items():
        names = {alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level
                 for alias in n.names if alias.name.startswith("_")}
        if names:
            imported[module] = names
    assert imported == PRIVATE_IMPORTS


# Every module the package imports, its own modules aside.  A fresh interpreter's
# `import candlegate` is most of `bench/run.py`'s `setup_s` on `backtest_10k`, so a new
# import, even one inside a function, is a deliberate edit of this set.
IMPORTS = {
    "__future__", "argparse", "array", "collections.abc", "contextlib", "csv", "dataclasses", "datetime", "enum",
    "functools", "io", "itertools", "json", "numpy", "pathlib", "re", "statistics", "sys", "typing",
}


def test_the_package_imports_only_the_listed_modules():
    imported = set()
    for tree in MODULES.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                imported.update(alias.name for alias in n.names)
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                imported.add(n.module)
    assert imported == IMPORTS
