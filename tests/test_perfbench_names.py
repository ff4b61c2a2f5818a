"""The package names the benchmark harness in ``perfbench/`` reaches.

The harness is read as source, never imported or edited: its tracer
replaces module attributes named in ``tracing.WRAPPED``, and its layer and
workload modules call ``specsource`` through module aliases and
``from specsource... import``.  Removing or renaming any of those names
breaks a benchmark run, so each must resolve in the package.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def wrapped_names(tree: ast.Module) -> list[tuple[str, str]]:
    """The (module, attribute) keys of the module-level ``WRAPPED`` dict literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/tracing.py defines no WRAPPED dict")


def package_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, attribute) for each ``alias.attr`` of an ``import specsource.x as alias``
    and each name of a ``from specsource.x import ...``."""
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("specsource.") and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("specsource"):
            found.extend((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((aliases[node.value.id], node.attr))
    return sorted(set(found))


def missing(pairs) -> list[str]:
    return [
        f"{module}.{attr}"
        for module, attr in pairs
        if not hasattr(importlib.import_module(module), attr)
    ]


def test_reader_finds_aliased_and_imported_names():
    tree = ast.parse(
        "import specsource.stats as st\n"
        "from specsource.gibbs import DrawSet\n"
        "import numpy as np\n"
        "x = st.compound_logpdf(np.zeros(2)) + st.LOG_2PI\n"
    )
    assert package_names(tree) == [
        ("specsource.gibbs", "DrawSet"),
        ("specsource.stats", "LOG_2PI"),
        ("specsource.stats", "compound_logpdf"),
    ]


def test_every_wrapped_name_resolves():
    pairs = wrapped_names(parse("tracing.py"))
    assert pairs
    assert missing(pairs) == []


def test_every_stats_name_the_layers_call_exists():
    pairs = package_names(parse("layers.py"))
    assert ("specsource.stats", "compound_logpdf") in pairs
    assert missing(pairs) == []


def test_every_name_the_workloads_call_exists():
    pairs = package_names(parse("workloads.py"))
    assert ("specsource.evaluate", "log_numerator") in pairs
    assert missing(pairs) == []
