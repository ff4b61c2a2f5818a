"""Design rules on imports.

A single-underscore name is private to the module that defines it; code
another module needs is published under a public name.  Dunder names such
as ``__version__`` are public.

The package uses numpy and scipy through their public API only: no private
module or name of either, whether imported or reached as an attribute.
Their private gufuncs skip the failure checks the public wrappers make.
Only tests and the benchmark need scipy; the command line runs without it.
"""

import ast
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "specsource"
LIBRARIES = ("numpy", "scipy")


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """Private names that ``from ... import`` takes from within the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "specsource":
            continue
        for alias in node.names:
            if is_private(alias.name):
                found.append(f"{'.' * node.level}{node.module or ''}.{alias.name}")
    return found


def private_library_uses(source: str) -> list[str]:
    """Private numpy or scipy modules and names that ``source`` imports or reaches."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(f"{node.module}.{alias.name}", alias.asname or alias.name) for alias in node.names]
        else:
            continue
        for path, name in pairs:
            if path.split(".")[0] in LIBRARIES:
                bound.add(name)
                if any(is_private(part) for part in path.split(".")):
                    found.append(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return sorted(found)


def package_offenders(rule) -> list[str]:
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    return [
        f"{path.name}: {name}" for path in modules for name in rule(path.read_text(encoding="utf-8"))
    ]


def test_rule_flags_private_and_allows_dunder():
    source = (
        "from . import __version__\n"
        "from .stats import _hidden, public\n"
        "from specsource.gibbs import _other\n"
        "from numpy import _private_elsewhere\n"
    )
    assert private_imports(source) == [".stats._hidden", "specsource.gibbs._other"]


def test_no_private_imports_across_modules():
    assert package_offenders(private_imports) == []


def test_library_rule_flags_private_modules_and_allows_dunder():
    source = (
        "import numpy as np\n"
        "import numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg as gufuncs, inv\n"
        "from scipy.linalg._flapack import dpotrf\n"
        "from scipy import linalg as sl\n"
        "from .stats import _hidden\n"
        "x = np.linalg._umath_linalg.cholesky_lo(a) + inv(a)\n"
        "y = sl._private(a) + np.__version__ + self._chol + _hidden._x\n"
    )
    assert private_library_uses(source) == [
        "np.linalg._umath_linalg",
        "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg",
        "scipy.linalg._flapack.dpotrf",
        "sl._private",
    ]


def test_no_private_numpy_or_scipy_use():
    assert package_offenders(private_library_uses) == []


def test_cli_import_leaves_scipy_out():
    probe = "import sys, specsource.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.stdout.strip() == "[]"
