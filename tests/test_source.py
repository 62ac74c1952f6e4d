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


# The comment above each definition that only the benchmark still uses;
# removing the benchmark's use (ROADMAP item 1) deletes exactly these.
BENCHMARK_ONLY = "# Unused by the model; kept because perfbench"


def marked_benchmark_only(tree: ast.Module, source: str) -> list[ast.AST]:
    """Top-level functions and classes of ``tree``, parsed from ``source``,
    whose first line, the first decorator's if any, follows a
    ``BENCHMARK_ONLY`` comment."""
    lines = ["", *source.splitlines()]  # lines[i] is line i, lines[0] none
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and lines[min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1]
            .startswith(BENCHMARK_ONLY)]


def benchmark_only_faults(sources: dict[str, str], benchmark: set[str]) -> list[str]:
    """What is wrong with the marked definitions of ``sources``, module name
    to text: one that package code outside its own body reads, or one that
    ``benchmark``, the names in the benchmark's sources, no longer holds."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    faults = []
    for name, text in sources.items():
        for node in marked_benchmark_only(trees[name], text):
            readers = [other for other, tree in trees.items()
                       if node.name in reads(tree, skip=node if other == name else None)]
            if readers:
                faults.append(f"{name}: {node.name} is read in {', '.join(readers)}")
            if node.name not in benchmark:
                faults.append(f"{name}: {node.name} is not named by the benchmark")
    return faults


def test_benchmark_only_check_flags_a_read_and_an_unnamed_definition():
    mark = BENCHMARK_ONLY + " wraps it by name.\n"
    sources = {
        "a.py": (f"{mark}def kept():\n    return kept\n"
                 f"{mark}@cache\ndef read():\n    pass\n"
                 f"{mark}def unnamed():\n    pass\n"
                 "def plain():\n    return read()\n"),
        "b.py": "def user(m):\n    return m.read\n",
    }
    marked = marked_benchmark_only(ast.parse(sources["a.py"]), sources["a.py"])
    assert [n.name for n in marked] == ["kept", "read", "unnamed"]
    assert benchmark_only_faults(sources, {"kept", "read"}) == [
        "a.py: read is read in a.py, b.py", "a.py: unnamed is not named by the benchmark"]


def test_definitions_kept_for_the_benchmark_alone_are_used_by_it_alone():
    sources = {p.name: p.read_text() for p in SOURCES}
    marked = sorted(n.name for text in sources.values()
                    for n in marked_benchmark_only(ast.parse(text), text))
    assert marked == ["gather_last", "relative_index_map", "softmax"]
    assert benchmark_only_faults(sources, benchmark_names()) == []


# The dead softmax path keeps numpy's reductions until it is deleted.
AXIS_REDUCTIONS_ALLOWED = {"_row_sums", "_lead_sums", "softmax", "_softmax_rows"}


def axis_reductions(source: str) -> list[str]:
    """Top-level functions of ``source`` that call ``sum`` or ``mean`` with
    an axis, as a method (``a.sum(0)``, ``a.mean(axis=1)``) or a numpy
    function (``np.sum(a, 0)``, ``np.mean(a, axis=1)``)."""
    found = []
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("sum", "mean")):
                continue
            method = not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np")
            if any(k.arg == "axis" for k in node.keywords) or len(node.args) > (0 if method else 1):
                found.append(func.name)
    return found


def test_axis_reduction_check_flags_every_form():
    source = ("def a(x):\n    return x.sum(axis=0)\n"
              "def b(x):\n    return np.mean(x, 1)\n"
              "def c(x):\n    return x.mean(-1) + np.sum(x, axis=(0, 1))\n"
              "def d(x):\n    return x.sum() + np.mean(x) + sum(x, 0)\n")
    assert axis_reductions(source) == ["a", "b", "c", "c"]


def test_tensor_reduces_along_axes_only_through_matrix_vector_products():
    # numpy reduces a float32 array along a short axis several times slower
    # than one BLAS matrix-vector product with a vector of ones does
    found = axis_reductions((PACKAGE / "tensor.py").read_text())
    assert sorted(set(found) - AXIS_REDUCTIONS_ALLOWED) == []


def dataclass_fields(source: str) -> list[str]:
    """``Class.field`` for each field of every dataclass in ``source``; a
    ``ClassVar`` annotation is a class attribute, not a field."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or not any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list):
            continue
        found += [f"{cls.name}.{node.target.id}" for node in cls.body
                  if isinstance(node, ast.AnnAssign) and "ClassVar" not in ast.unparse(node.annotation)]
    return found


def attribute_reads(sources: list[str]) -> set[str]:
    """Attribute names read, not assigned, in ``sources``."""
    return {n.attr for source in sources for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(defining: list[str], reading: list[str]) -> list[str]:
    """Dataclass fields of the ``defining`` sources that no ``reading``
    source reads as an attribute."""
    read = attribute_reads(reading)
    return [f for source in defining for f in dataclass_fields(source) if f.split(".")[1] not in read]


def test_dataclass_field_check_flags_only_unread_fields():
    source = ("@dataclass\nclass A:\n    x: int\n    y: int\n    k: ClassVar[int] = 2\n"
              "@dataclass(frozen=True)\nclass B:\n    z: int = 0\n"
              "class C:\n    w: int\n"
              "def f(a):\n    a.y = 1\n    return a.x\n")
    assert dataclass_fields(source) == ["A.x", "A.y", "B.z"]
    assert unread_fields([source], [source]) == ["A.y", "B.z"]


def test_every_dataclass_field_is_read():
    # a field that no code in the package, its tests or the benchmark reads
    # is state that is built and carried for nothing
    reading = [*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *(TESTS.parent / "perfbench").rglob("*.py")]
    assert unread_fields([p.read_text() for p in SOURCES], [p.read_text() for p in reading]) == []


def public_methods(source: str) -> list[str]:
    """``Class.method`` for each public method or property of every class in
    ``source``; dunder and underscore-prefixed methods are not public."""
    return [f"{cls.name}.{node.name}" for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def unread_methods(defining: list[str], reading: list[str]) -> list[str]:
    """Public methods of the ``defining`` sources that no ``reading`` source
    reads as an attribute."""
    read = attribute_reads(reading)
    return [m for source in defining for m in public_methods(source) if m.split(".")[1] not in read]


def test_method_check_flags_only_unread_methods():
    source = ("class A:\n    def __init__(self):\n        self.n = self.used()\n"
              "    def used(self):\n        return 1\n    def unused(self):\n        pass\n"
              "    def _private(self):\n        pass\n"
              "    @property\n    def shown(self):\n        return 2\n"
              "    @classmethod\n    def make(cls):\n        return cls()\n"
              "def f(a):\n    a.unused = 3\n    return a.shown, A.make\n")
    assert public_methods(source) == ["A.used", "A.unused", "A.shown", "A.make"]
    assert unread_methods([source], [source]) == ["A.unused"]


def test_every_public_method_is_read():
    # a method or property that no code in the package or the benchmark reads
    # is kept alive by its tests alone; reads in tests do not count
    reading = [*PACKAGE.glob("*.py"), *(TESTS.parent / "perfbench").glob("*.py")]
    assert unread_methods([p.read_text() for p in SOURCES], [p.read_text() for p in reading]) == []


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function in ``source``
    that its body never reads; ``x += y`` reads x. Dunder protocol methods,
    such as ``__exit__``, are exempt: their protocol fixes the parameters."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or func.name.startswith("__") and func.name.endswith("__"):
            continue
        a = func.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        body = ast.Module(body=func.body, type_ignores=[])
        read = name_reads(body) | {n.target.id for n in ast.walk(body)
                                   if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        found += [f"{func.name}.{p}" for p in params if p not in read]
    return found


def test_unread_parameter_check_flags_only_unread_parameters():
    source = ("def f(a, b, *c, d=1, **e):\n    a += 1\n    return lambda: d\n"
              "class C:\n    def __exit__(self, *exc):\n        pass\n"
              "    def g(self, x):\n        x.y = 1\n        self[0] = 2\n"
              "def h(p, q=None):\n    return p\n")
    assert unread_parameters(source) == ["f.b", "f.c", "f.e", "h.q"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter its function never reads is an option that does nothing
    assert unread_parameters(path.read_text()) == []


def dtype_checks(source: str) -> dict[str, list[str]]:
    """For each public module-level function of ``source`` with two or more
    Tensor-annotated parameters, the ones among them that no ``_one_dtype``
    call in its body passes by name, as ``p=p``."""
    found = {}
    for func in ast.parse(source).body:
        if not isinstance(func, ast.FunctionDef) or func.name.startswith("_"):
            continue
        a = func.args
        tensors = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs) if p.annotation
                   and "Tensor" in {n.id for n in ast.walk(p.annotation) if isinstance(n, ast.Name)}]
        if len(tensors) < 2:
            continue
        passed = {kw.arg for call in ast.walk(func) if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "_one_dtype" for kw in call.keywords
                  if getattr(kw.value, "id", None) == kw.arg}
        found[func.name] = [p for p in tensors if p not in passed]
    return found


def test_dtype_check_flags_each_operand_not_passed_by_name():
    source = ("def f(a: Tensor, b: Tensor | None = None):\n    _one_dtype('f', a=a, b=b)\n"
              "def g(a: Tensor, b: Tensor, n: int):\n    _one_dtype('g', a=a, b=a)\n"
              "def h(a: Tensor, b: np.ndarray):\n    pass\n"
              "def _k(a: Tensor, b: Tensor):\n    pass\n"
              "def m(a: Tensor, *, b: Tensor):\n    if b is not None:\n        _one_dtype('m', a=a)\n")
    assert dtype_checks(source) == {"f": [], "g": ["b"], "m": ["b"]}


def test_every_op_of_several_tensors_refuses_mixed_dtypes_through_one_helper():
    # the model runs in one dtype; an op that left an operand out of
    # _one_dtype would widen or narrow it instead of refusing the mix
    checks = dtype_checks((PACKAGE / "tensor.py").read_text())
    assert sorted(checks) == ["add", "attention", "batch_norm", "conv2d", "deform_sample",
                              "layer_norm", "matmul", "residual_mlp"]
    assert {op: missing for op, missing in checks.items() if missing} == {}


# numpy.random's seedable constructors; any other function of the module
# draws from or reseeds numpy's legacy global generator.
RNG_CONSTRUCTORS = {"Generator", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
                    "SeedSequence", "default_rng"}


def unseeded_rngs(source: str) -> list[str]:
    """``line: call`` for each call into ``numpy.random`` in ``source`` that
    is not a constructor given an explicit seed: a constructor called with
    no argument or a literal None, or any other function of the module.
    Calls through ``np.random``, ``numpy.random``, an alias of the module or
    a name imported from it all count."""
    tree = ast.parse(source)
    modules, names = {"np.random", "numpy.random"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name == "numpy.random" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            modules |= {a.asname or a.name for a in node.names if a.name == "random"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            names |= {a.asname or a.name: a.name for a in node.names}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        called = ast.unparse(node.func)
        module, _, attr = called.rpartition(".")
        function = attr if module in modules else names.get(called)
        if function is None:
            continue
        seed = node.args[0] if node.args else node.keywords[0].value if node.keywords else None
        if function not in RNG_CONSTRUCTORS or seed is None \
                or isinstance(seed, ast.Constant) and seed.value is None:
            found.append((node.lineno, node.col_offset, f"{node.lineno}: {called}"))
    return [text for *_, text in sorted(found)]


def test_unseeded_rng_check_flags_every_form():
    source = ("import numpy as np\nimport numpy.random as npr\nfrom numpy.random import default_rng as rng_of\n"
              "a = np.random.default_rng(3)\n"
              "b = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, 2])))\n"
              "c = np.random.default_rng()\n"
              "d = rng_of(None) if a.normal() else rng_of(seed=4)\n"
              "np.random.seed(0)\n"
              "e = np.random.normal(size=3) + npr.rand(2)\n"
              "f = npr.PCG64(seed=None)\n")
    assert unseeded_rngs(source) == ["6: np.random.default_rng", "7: rng_of", "8: np.random.seed",
                                     "9: np.random.normal", "9: npr.rand", "10: npr.PCG64"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_generator_in_the_package_is_seeded(path):
    # a model built on worker threads is reproducible only if every draw
    # comes from a generator seeded by the caller, none from numpy's global one
    assert unseeded_rngs(path.read_text()) == []
