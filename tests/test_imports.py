"""Every top-level import of a qeuler module is read in that module."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "qeuler").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no expression of the module reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover():
    assert unused_imports("from math import gcd, lcm\nimport os.path\n\nprint(lcm(2, 3))\n") == ["gcd", "os"]
