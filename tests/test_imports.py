"""Design rule: no module imports a private name from another package module.

A single-underscore name is private to the module that defines it; code
another module needs is published under a public name.  Dunder names such
as ``__version__`` are public.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "specsource"


def private_imports(source: str) -> list[str]:
    """Private names that ``from ... import`` takes from within the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "specsource":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_rule_flags_private_and_allows_dunder():
    source = (
        "from . import __version__\n"
        "from .stats import _hidden, public\n"
        "from specsource.gibbs import _other\n"
        "from numpy import _private_elsewhere\n"
    )
    assert private_imports(source) == [".stats._hidden", "specsource.gibbs._other"]


def test_no_private_imports_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = [
        f"{path.name}: {name}"
        for path in modules
        for name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
