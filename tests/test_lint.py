"""Source-level rules for the library package."""
import ast
from pathlib import Path

import hjbsl

SRC = Path(hjbsl.__file__).resolve().parent


def test_no_assert_statements_in_library():
    # python -O strips assert; invariants must raise a typed HJBError
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/hjbsl: {found}"
