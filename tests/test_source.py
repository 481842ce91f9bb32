"""Checks on the library source itself."""

import ast
import importlib
import inspect
import pathlib
import re
import textwrap

import boxlab
from boxlab import reps


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check in the library must raise instead
    found = []
    for path in sorted(pathlib.Path(boxlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


ROOT = pathlib.Path(__file__).parents[1]


def _wrapped_names():
    """The dotted ``module.attr`` strings of benchmarks/tracing.WRAPPED."""
    path = ROOT / "benchmarks" / "tracing.py"
    wrapped = next(ast.literal_eval(node.value)
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "WRAPPED")
    return [f"{module}.{attr}" for module, attrs in wrapped.items()
            for attr in attrs]


def _trees(*dirs):
    return [ast.parse(path.read_text(), str(path)) for d in dirs
            for path in sorted((ROOT / d).rglob("*.py"))]


def test_traced_benchmark_names_resolve():
    # a traced benchmark run wraps these by name; a renamed function would
    # only be listed as missing and its per-layer metric would vanish
    names = _wrapped_names()
    assert "graphs.cayley_graph" in names
    for name in names:
        module, _, attr = name.partition(".")
        obj = importlib.import_module(f"boxlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"boxlab.{name} is not a callable"


def test_irrep_oracle_is_independent_of_the_inventory():
    # the regular-representation oracle checks the irrep inventory, so it
    # may not reach for the inventory's own machinery
    tree = ast.parse(textwrap.dedent(inspect.getsource(reps.brute_force_irreps)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    used = names & {"Irrep", "CharacterTable", "_inventory", "matrices",
                     "characters"}
    assert not used, f"brute_force_irreps uses {sorted(used)}"


def _definitions(tree):
    """(name, line, is a method) of each top-level function and class, and
    of each non-dunder method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", sub.name)):
                    yield sub.name, sub.lineno, True


def test_every_library_definition_is_read_outside_the_tests():
    # a definition that only tests read is dead code with a test attached.
    # criterion_feasibility is acceptance criterion 10: test_acceptance runs
    # it, while the feasibility command calls min_feasible_level directly.
    # A function or class is read by a name or an attribute loaded in code,
    # or by a part of a traced name.  A method or property is read only as
    # a loaded attribute, a getattr or hasattr string, or a traced part: a
    # bare local of the same name is not its read.  Words in docstrings and
    # comments, a def line and an assignment are never reads
    exempt = {"criterion_feasibility"}
    attrs = {part for name in _wrapped_names() for part in name.split(".")}
    names = set()
    for tree in _trees("src", "benchmarks"):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) in ("getattr", "hasattr")
                    and len(node.args) > 1
                    and isinstance(node.args[1], ast.Constant)):
                attrs.add(node.args[1].value)
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unread = []
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        for name, lineno, method in _definitions(ast.parse(path.read_text())):
            read = attrs if method else attrs | names
            if name not in exempt | read:
                unread.append(f"{path.name}:{lineno} {name}")
    assert not unread, f"definitions only tests read: {unread}"


def test_every_dataclass_field_is_read():
    # a field that no attribute access reads is stored for nobody; a
    # keyword at construction is a write, not a read
    read = {node.attr for tree in _trees("src", "benchmarks", "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or not any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                continue
            unread += [f"{path.name}:{sub.lineno} {node.name}.{sub.target.id}"
                       for sub in node.body if isinstance(sub, ast.AnnAssign)
                       and sub.target.id not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_library_imports_no_private_numpy_or_scipy_module():
    # a private module (any dotted part starting with "_") is not numpy's or
    # scipy's API and may move or vanish in any release
    found = []
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("numpy", "scipy")
                      and any(part.startswith("_")
                              for part in name.split("."))]
    assert not found, f"private numpy or scipy imports: {found}"


def test_library_reads_no_environment_variables():
    # a library setting comes in as an argument: an environment variable
    # read inside boxlab would switch behaviour that no caller can see
    found = []
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("environ", "environb", "getenv", "getenvb")]
    assert not found, f"environment reads in the library: {found}"


# scipy.sparse functions that build a matrix or array
SPARSE_BUILDERS = re.compile(
    r"(bsr|coo|csc|csr|dia|dok|lil)_(matrix|array)|(diags|eye|identity|"
    r"random)(_array)?|spdiags|kron|kronsum|bmat|block_diag|block_array|"
    r"hstack|vstack|rand")


def _sparse_constructions(tree):
    """The calls in a module that build a scipy sparse matrix: a builder
    read from a ``scipy.sparse`` alias, or imported from it by name."""
    aliases, builders = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "scipy.sparse"}
            aliases |= {f"{alias.asname or alias.name}.sparse"
                        for alias in node.names if alias.name == "scipy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "sparse"}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.sparse":
            builders |= {alias.asname or alias.name for alias in node.names
                         if SPARSE_BUILDERS.fullmatch(alias.name)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in builders:
            yield node
        elif (isinstance(func, ast.Attribute)
              and SPARSE_BUILDERS.fullmatch(func.attr)
              and ast.unparse(func.value) in aliases):
            yield node


def test_sparse_matrices_are_built_only_by_graph():
    # Graph caches one CSR on its own arrays; a second constructor elsewhere
    # would rebuild the adjacency, with int32 copies of its index arrays, on
    # every call
    found, inside = [], 0
    for path in sorted((ROOT / "src" / "boxlab").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "graphs.py":
            graph = next(node for node in tree.body
                         if isinstance(node, ast.ClassDef)
                         and node.name == "Graph")
            allowed = {id(node) for node in ast.walk(graph)}
        for call in _sparse_constructions(tree):
            if id(call) in allowed:
                inside += 1
            else:
                found.append(f"{path.name}:{call.lineno}")
    assert not found, f"scipy sparse matrices built outside Graph: {found}"
    assert inside == 1      # the check sees Graph's own construction


# numpy entry points that run on numpy's own BLAS or LAPACK
NUMPY_BLAS = {"dot", "matmul", "vdot", "inner", "tensordot"}


def test_reps_calls_no_numpy_blas_or_lapack():
    # the oracle's eigh runs on scipy's OpenBLAS; a product or solve on
    # numpy's, which bundles its own, would start a second thread pool that
    # contends with scipy's for the cores
    path = ROOT / "src" / "boxlab" / "reps.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append(f"reps.py:{node.lineno} @")
        elif isinstance(node, ast.Attribute) and (
                node.attr == "dot"          # ndarray.dot too
                or ast.unparse(node.value) == "np"
                and node.attr in NUMPY_BLAS | {"linalg"}):
            found.append(f"reps.py:{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{name}" for name in names]
            found += [f"reps.py:{node.lineno} import {name}" for name in names
                      if name.startswith("numpy.linalg")
                      or name in {f"numpy.{f}" for f in NUMPY_BLAS}]
    assert not found, f"numpy BLAS or LAPACK calls in reps.py: {found}"
