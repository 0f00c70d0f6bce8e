import ast
from pathlib import Path

import evalkit


def test_no_assert_statements():
    # Invariants raise real errors: ``python -O`` strips assert statements.
    sources = sorted(Path(evalkit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
