"""Checks on the library source itself."""

import ast
import pathlib

import boxlab


def test_library_has_no_assert_statements():
    # python -O strips asserts, so a check in the library must raise instead
    found = []
    for path in sorted(pathlib.Path(boxlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
