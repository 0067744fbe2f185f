"""Guards on the package's module structure.

The modules under ``src/spikelab`` are parsed with ``ast``: ``model`` is the
base every other module builds on and imports none of them, ``ingest`` builds
on ``model`` alone, ``simulate`` does not reach up into ``pricing``, and no
import runs inside a function (a lazy import is how an import cycle gets
hidden), and no module imports a ``_``-prefixed name from a sibling (a
private name shared across modules belongs in one of them, behind a public
function).  ``cli`` keeps exposing the ingest names it re-exports.  No
module imports ``scipy.signal`` or ``scipy.stats``, which would double the
modules and memory that ``import spikelab`` costs; a child process checks the
import itself.  The layers that ``benchmarks/spans.py`` wraps for a traced
benchmark run (``--trace 1``) must exist where it looks them up, so a cleanup
that moves or renames one fails here and not only under ``python -m pytest
benchmarks``.
"""

import ast
import importlib.util
import os
import subprocess
import sys
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


# scipy modules the package may not import: each loads hundreds of modules
HEAVY_SCIPY = ("scipy.signal", "scipy.stats")


def is_heavy_scipy(module: str) -> bool:
    return any(module == heavy or module.startswith(heavy + ".") for heavy in HEAVY_SCIPY)


def heavy_scipy_imports(tree: ast.Module) -> list:
    """``scipy.signal`` / ``scipy.stats`` imports of a module, in any import form."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if is_heavy_scipy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if is_heavy_scipy(node.module):
                found.append(node.module)
            else:
                names = (f"{node.module}.{alias.name}" for alias in node.names)
                found += [name for name in names if is_heavy_scipy(name)]
    return found


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_scipy_signal_or_stats_import(name):
    assert heavy_scipy_imports(MODULES[name]) == []


def test_scipy_signal_and_stats_imports_are_seen():
    tree = ast.parse(
        "import scipy.signal\nfrom scipy.stats import norm\nfrom scipy import signal, special\n"
        "from scipy.special import exp1\nimport scipy.statsmodels"
    )
    assert heavy_scipy_imports(tree) == ["scipy.signal", "scipy.stats", "scipy.signal"]


def test_importing_the_package_loads_no_scipy_signal_or_stats():
    # a child process: pytest itself has loaded scipy.stats here
    code = "import sys, spikelab; print(sorted(m for m in sys.modules if m.startswith(%r)))" % (HEAVY_SCIPY,)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path}
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
