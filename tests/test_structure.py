"""Guards on the package's module structure.

The modules under ``src/spikelab`` are parsed with ``ast``: ``model`` is the
base every other module builds on and imports none of them, ``ingest`` builds
on ``model`` alone, ``simulate`` does not reach up into ``pricing``, and no
import runs inside a function (a lazy import is how an import cycle gets
hidden), and no module imports a ``_``-prefixed name from a sibling (a
private name shared across modules belongs in one of them, behind a public
function).  ``cli`` keeps exposing the ingest names it re-exports.  The layers that
``benchmarks/spans.py`` wraps for a traced benchmark run (``--trace 1``) must
exist where it looks them up, so a cleanup that moves or renames one fails
here and not only under ``python -m pytest benchmarks``.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from spikelab import cli

ROOT = Path(__file__).resolve().parents[1]
MODULES = {
    path.stem: ast.parse(path.read_text(), str(path))
    for path in sorted((ROOT / "src" / "spikelab").glob("*.py"))
}


def sibling_imports(tree: ast.Module) -> set:
    """Package modules imported by a module, relative or absolute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 0:  # absolute: only spikelab.* is a sibling
                if module[0] != "spikelab":
                    continue
                module = module[1:]
            if module and module[0]:
                names.add(module[0])
            else:  # from . import x, from spikelab import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "spikelab":
                    names.add(parts[1] if len(parts) > 1 else "__init__")
    return names


def test_model_imports_no_sibling():
    assert sibling_imports(MODULES["model"]) == set()


def test_ingest_builds_on_model_only():
    assert sibling_imports(MODULES["ingest"]) == {"model"}


@pytest.mark.parametrize("name", ["load_spot_csv", "IngestRules", "IngestReport", "IngestError"])
def test_cli_exposes_ingest_names(name):
    # benchmarks/spans.py wraps cli.load_spot_csv, and callers import these from cli
    assert name in cli.__all__ and name in vars(cli)


def test_simulate_does_not_import_pricing():
    assert "pricing" not in sibling_imports(MODULES["simulate"])


def test_sibling_imports_are_seen():
    assert sibling_imports(MODULES["pricing"]) == {"model", "simulate"}
    assert sibling_imports(ast.parse("from spikelab import cli\nimport spikelab.detect")) == {
        "cli",
        "detect",
    }


def private_sibling_names(tree: ast.Module) -> list:
    """``_``-prefixed names a module imports from package modules."""
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "spikelab")
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_sibling_imports(name):
    assert private_sibling_names(MODULES[name]) == []


def test_private_sibling_imports_are_seen():
    tree = ast.parse("from __future__ import annotations\nfrom .simulate import make_rng, _states\nfrom spikelab.model import _ein")
    assert private_sibling_names(tree) == ["_states", "_ein"]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_function_level_imports(name):
    lazy = [
        f"{name}.py:{inner.lineno}"
        for node in ast.walk(MODULES[name])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert lazy == []


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans.LAYERS
        if attr not in owner.__dict__
    ]
    assert missing == []
