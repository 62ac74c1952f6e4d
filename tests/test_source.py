"""Source hygiene checks that need no third-party linter."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "litnet"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in ``source``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_check_flags_only_unread_names():
    source = "import os\nimport numpy as np\nfrom typing import Callable, Iterable\nnp.ones(Callable)\n"
    assert unused_imports(source) == ["Iterable", "os"]


# __init__.py imports to re-export, so its names are read by importers.
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def traced_names(name: str) -> tuple:
    """The tuple ``name`` in ``perfbench/layers.py``, read without importing it."""
    tree = ast.parse((TESTS.parent / "perfbench" / "layers.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))


def test_every_op_the_benchmark_traces_is_defined():
    # perfbench wraps these functions by name; a deleted or renamed one
    # fails here and not inside a traced run
    for names, module in (("TENSOR_OPS", "litnet.tensor"), ("BLOCKS", "litnet.blocks")):
        ops = traced_names(names)
        found = importlib.import_module(module)
        assert ops and [op for op in ops if not callable(getattr(found, op, None))] == [], names


def name_reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as values in ``tree``, outside the subtree ``skip``."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in skipped}


def test_every_public_tensor_function_is_called_or_traced():
    # a function of litnet.tensor that no other code in the package reads and
    # the benchmark does not wrap is dead; the tensor() factory is the one
    # kept for users of the package alone
    tree = ast.parse((PACKAGE / "tensor.py").read_text())
    elsewhere = set().union(*(name_reads(ast.parse(p.read_text()))
                              for p in SOURCES if p.name != "tensor.py"))
    kept = elsewhere | set(traced_names("TENSOR_OPS")) | {"tensor"}
    dead = [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and not f.name.startswith("_") and f.name not in kept | name_reads(tree, skip=f)]
    assert dead == []


def benchmark_names() -> set[str]:
    """Identifiers, attribute names and strings in the benchmark's sources."""
    names = set()
    for path in (TESTS.parent / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """``name_reads`` plus the attribute names read, such as ``cost_report``
    in ``analyzer.cost_report``."""
    skipped = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return name_reads(tree, skip) | {n.attr for n in ast.walk(tree)
                                     if isinstance(n, ast.Attribute)
                                     and isinstance(n.ctx, ast.Load) and id(n) not in skipped}


def test_every_public_definition_is_read_exported_or_benchmarked():
    # a public module-level function or class of the package that no other
    # code in it reads, that litnet/__init__.py does not export and that the
    # benchmark does not name is dead
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    trees = {path: ast.parse(path.read_text()) for path in SOURCES}
    read_in = {path: reads(tree) for path, tree in trees.items()}
    kept = exported | benchmark_names()
    dead = []
    for path, tree in trees.items():
        elsewhere = set().union(*(names for other, names in read_in.items() if other != path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_") \
                    and node.name not in kept | elsewhere | reads(tree, skip=node):
                dead.append(f"{path.name}: {node.name}")
    assert dead == []
