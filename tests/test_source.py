"""Static rules on the package source: invariants that survive ``python -O``
and zero runtime dependencies."""

import ast
import sys
from pathlib import Path

import revtour

PACKAGE = Path(revtour.__file__).parent


def violations(source: str) -> list[str]:
    """Each ``assert`` statement, and each import that is neither relative
    nor of a standard-library module, as "line: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append(f"{node.lineno}: assert, which python -O strips")
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [
            f"{node.lineno}: import of {name}, not in the standard library"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_no_assert_and_only_stdlib_imports():
    planted = "import os.path\nfrom . import core\nimport numpy\nfrom yaml import load\nassert 1\n"
    assert violations(planted) == [
        "3: import of numpy, not in the standard library",
        "4: import of yaml, not in the standard library",
        "5: assert, which python -O strips",
    ]
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 7
    assert {m.name: violations(m.read_text()) for m in modules} == {m.name: [] for m in modules}
