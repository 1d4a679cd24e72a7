import ast
from pathlib import Path

import gf2hyper


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements; self-checks must raise explicitly
    package = Path(gf2hyper.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
