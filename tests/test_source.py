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


def test_every_op_the_benchmark_traces_is_defined():
    # perfbench wraps these tensor ops by name; read its list without
    # importing it, so that a deleted op fails here and not inside a traced run
    tree = ast.parse((TESTS.parent / "perfbench" / "layers.py").read_text())
    ops = next(ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "TENSOR_OPS" for t in node.targets))
    tensor_module = importlib.import_module("litnet.tensor")
    assert ops and [op for op in ops if not callable(getattr(tensor_module, op, None))] == []
