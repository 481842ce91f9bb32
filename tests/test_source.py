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


def test_traced_benchmark_names_resolve():
    # a traced benchmark run wraps these by name; a renamed function would
    # only be listed as missing and its per-layer metric would vanish
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    wrapped = next(ast.literal_eval(node.value)
                   for node in ast.parse(path.read_text()).body
                   if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "WRAPPED")
    names = [f"{module}.{attr}" for module, attrs in wrapped.items()
             for attr in attrs]
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
    """(name, line) of each top-level function and class, and of each
    non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", sub.name)):
                    yield sub.name, sub.lineno


def test_every_library_definition_is_read_outside_the_tests():
    # a definition that only tests read is dead code with a test attached.
    # criterion_feasibility is acceptance criterion 10: test_acceptance runs
    # it, while the feasibility command calls min_feasible_level directly
    exempt = {"criterion_feasibility"}
    root = pathlib.Path(__file__).parents[1]
    # a name on a def or class line is defined there, not read: two methods
    # of one name would otherwise count as each other's readers
    lines = [line for path in sorted((root / "src").rglob("*.py"))
             + sorted((root / "benchmarks").rglob("*.py"))
             for line in path.read_text().splitlines()
             if not re.match(r"\s*(def|class)\s", line)]
    unread = []
    for path in sorted((root / "src" / "boxlab").glob("*.py")):
        for name, lineno in _definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{name}\b")
            if name not in exempt and not any(word.search(line)
                                              for line in lines):
                unread.append(f"{path.name}:{lineno} {name}")
    assert not unread, f"definitions only tests read: {unread}"
