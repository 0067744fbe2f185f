"""Guards on the package's module structure.

The modules under ``src/spikelab`` are parsed with ``ast``: ``model`` is the
base every other module builds on and imports none of them, ``ingest`` builds
on ``model`` alone, ``estimate`` on ``detect`` and ``model`` alone (it reads
a path's true jumps as an array, not through the simulator), ``simulate``
does not reach up into ``pricing``, and no
import runs inside a function (a lazy import is how an import cycle gets
hidden), and no module imports a ``_``-prefixed name from a sibling (a
private name shared across modules belongs in one of them, behind a public
function).  The package makes at most four ``isinstance`` calls, so a new
type-dispatch chain fails here.  No module reads the process environment
(``os.environ``, ``os.getenv``): a setting read there is one that no flag or
argument shows.  ``cli`` keeps exposing the ingest names it re-exports.  No
module imports ``scipy.signal`` or ``scipy.stats``, which would double the
modules and memory that ``import spikelab`` costs; a child process checks the
import itself.  The layers that ``benchmarks/spans.py`` wraps for a traced
benchmark run (``--trace 1``) must exist where it looks them up, so a cleanup
that moves or renames one fails here and not only under ``python -m pytest
benchmarks``.  In ``cli`` only ``_json`` writes JSON and only ``dispatch``
prints, so no subcommand prints a record past the strict writer.  Every
name in a module's ``__all__`` is defined in it, so a deleted name cannot
stay exported.  The normal 95% quantile 1.96 is written once, in
``model.ci95``, so every normal interval follows one rule.  The config key
table and the key list of the ``config`` module docstring name the same
keys, so a key is added in the table and its documentation cannot drift
from it.  Every public function or method defined in ``src`` is referenced by
name outside its own definition and ``__all__``, in ``src``, in
``benchmarks`` or in ``tests/test_acceptance.py``, so no public API lives only
for the other tests; ``UNREFERENCED`` names each exception and its reason.
Every parameter with a default on such a function is passed, by position or
keyword, by some call in those same places, so no option or branch lives only
for the other tests; ``UNPASSED`` names each exception and its reason.
The README's library sketch runs, so the docs cannot name a removed function.
"""

import ast
import collections
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spikelab import cli, config

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


def test_estimate_builds_on_detect_and_model_only():
    assert sibling_imports(MODULES["estimate"]) == {"detect", "model"}


def test_an_estimate_import_of_simulate_is_seen():
    # the guard above fails on an estimate module that imports from the simulator again
    tree = ast.parse(ast.unparse(MODULES["estimate"]) + "\nfrom .simulate import make_rng")
    assert sibling_imports(tree) == {"detect", "model", "simulate"}


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


def unresolved_exports(module) -> list:
    """Names in a module's ``__all__`` that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if name not in vars(module)]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its __all__ breaks `from spikelab.<module> import *`
    module = importlib.import_module("spikelab" if name == "__init__" else f"spikelab.{name}")
    assert unresolved_exports(module) == []


def test_unresolved_exports_are_seen():
    module = types.ModuleType("stub")
    module.__all__ = ["kept", "gone"]
    module.kept = None
    assert unresolved_exports(module) == ["gone"]


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


def interval_quantiles(tree: ast.Module) -> int:
    """Literals 1.96 (the normal 95% quantile) in a module's code; docstrings and comments do not count."""
    return sum(isinstance(node, ast.Constant) and node.value == 1.96 for node in ast.walk(tree))


def test_the_normal_quantile_is_written_in_model_only():
    # model.ci95 is the one interval rule; a second 1.96 is a second rule
    assert {name: n for name, tree in MODULES.items() if (n := interval_quantiles(tree))} == {"model": 1}


def test_interval_quantiles_are_seen():
    tree = ast.parse('"""Interval: centre -/+ 1.96 stderr."""\nhalf = 1.96 * se  # 1.96\nz = 1.959964\nlo = c - 1.960 * se')
    assert interval_quantiles(tree) == 2


def isinstance_calls(tree: ast.Module) -> int:
    """Calls of the builtin ``isinstance`` in a module."""
    return sum(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        for node in ast.walk(tree)
    )


def test_isinstance_calls_stay_at_four():
    # three in simulate._continuous_rows and one in cli._two_factor; a new dispatch chain fails here
    assert sum(isinstance_calls(tree) for tree in MODULES.values()) <= 4


def test_isinstance_calls_are_seen():
    assert isinstance_calls(ast.parse("if isinstance(x, int) or isinstance(y, (A, B)):\n    obj.isinstance(z)")) == 2


ENVIRONMENT_READS = ("environ", "environb", "getenv", "getenvb")


def environment_reads(tree: ast.Module) -> list:
    """The ``os`` names through which a module reads the environment, as attributes or imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [alias.name for alias in node.names if alias.name in ENVIRONMENT_READS]
    return sorted(found)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_environment_reads(name):
    assert environment_reads(MODULES[name]) == []


def test_environment_reads_are_seen():
    tree = ast.parse("import os\nos.environ.get('A')\nn = os.getenv('B')\nfrom os import environ, path\nobj.environment")
    assert environment_reads(tree) == ["environ", "environ", "getenv"]


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


def callers(tree: ast.Module, is_callee) -> set:
    """Names of the functions of a module whose bodies make a call that ``is_callee`` accepts."""
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and is_callee(node.func)
    }


def is_json_write(func: ast.expr) -> bool:
    is_json = getattr(getattr(func, "value", None), "id", None) == "json"
    return isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps") and is_json


def is_print(func: ast.expr) -> bool:
    return isinstance(func, ast.Name) and func.id == "print"


def test_cli_writes_json_in_one_function_and_prints_in_one():
    # _json is strict (allow_nan=False); a second writer or printer could let NaN or a stray line out
    assert callers(MODULES["cli"], is_json_write) == {"_json"}
    assert callers(MODULES["cli"], is_print) == {"dispatch"}


def test_json_writers_and_printers_are_seen():
    tree = ast.parse(
        "def a():\n    json.dumps(x)\ndef b(h):\n    json.dump(x, h)\n    print(x)\n"
        "def c():\n    obj.json.dumps(x)\n    pprint(x)\n    self.print(x)"
    )
    assert callers(tree, is_json_write) == {"a", "b"}
    assert callers(tree, is_print) == {"b"}


def documented_keys(docstring: str) -> set:
    """The keys in the key column of a docstring's indented key list (the text before a run of spaces)."""
    lines = docstring.split("Keys:", 1)[1].splitlines()
    columns = (re.split(r"\s{2,}", line.strip())[0] for line in lines if line.startswith("    "))
    return {key.strip() for column in columns for key in column.split(",") if key.strip()}


def test_config_docstring_lists_the_key_table():
    assert documented_keys(config.__doc__) == set(config._KEYS)


def test_documented_keys_are_seen():
    docstring = "Text.  Keys:\n\n    lambda, beta        rates; lambda:beta pairs\n    grid.n,\n    grid.horizon   steps\n"
    assert documented_keys(docstring) == {"lambda", "beta", "grid.n", "grid.horizon"}
    # a key dropped from the docstring breaks the guard's equality
    dropped = config.__doc__.replace("    cont.curve_level\n", "")
    assert set(config._KEYS) - documented_keys(dropped) == {"cont.curve_level"}


# public functions that nothing in src, benchmarks or the acceptance suite references, each with its reason
UNREFERENCED = {
    "detect.regime": "ROADMAP items 9 and 17 decide whether the regime test stays",
}
# where a reference keeps a public function: the package, the benchmark and the acceptance criteria
REFERENCING = [
    *MODULES.values(),
    *(ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "benchmarks").glob("*.py"))),
    ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()),
]


def public_functions(modules: dict) -> dict:
    """Each module-level function and method whose name has no leading ``_``, by ``module.qualname``."""
    found = {}
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scope, defs = f"{name}.{node.name}.", node.body
            else:
                scope, defs = f"{name}.", [node]
            found.update({scope + d.name: d for d in defs if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")})
    return found


def references(node: ast.AST) -> list:
    """Names a tree refers to: a name, an attribute or a string (as a ``getattr`` key), outside ``__all__``."""
    exported = {
        id(item)
        for assign in ast.walk(node)
        if isinstance(assign, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in assign.targets)
        for item in ast.walk(assign.value)
    }
    found = []
    for item in ast.walk(node):
        if isinstance(item, ast.Name):
            found.append(item.id)
        elif isinstance(item, ast.Attribute):
            found.append(item.attr)
        elif isinstance(item, ast.Constant) and isinstance(item.value, str) and id(item) not in exported:
            found.append(item.value)
    return found


def unreferenced_functions(modules: dict, referencing: list) -> set:
    """Public functions of ``modules`` that ``referencing`` names nowhere but in their own definitions."""
    counts = collections.Counter(name for tree in referencing for name in references(tree))
    return {
        qualname
        for qualname, func in public_functions(modules).items()
        if counts[func.name] <= references(func).count(func.name)
    }


def test_every_public_function_is_referenced():
    assert unreferenced_functions(MODULES, REFERENCING) == set(UNREFERENCED)


def test_unreferenced_functions_are_seen():
    module = ast.parse(
        "__all__ = ['exported', 'looked_up']\n"
        "def exported(): pass\n"
        "def recursive(k): return recursive(k - 1)\n"
        "def looked_up(): pass\n"
        "def _private(): pass\n"
        "class Law:\n"
        "    def called(self): pass\n"
        "    def unused(self): pass\n"
        "from .other import exported\n"
    )
    caller = ast.parse("getattr(obj, 'looked_up')\nlaw.called()\n_private()")
    assert unreferenced_functions({"stub": module}, [module, caller]) == {"stub.exported", "stub.recursive", "stub.Law.unused"}


# defaulted parameters that no call in src, benchmarks or the acceptance suite passes, each with its reason
UNPASSED: dict = {}


def defaulted_parameters(func: ast.FunctionDef) -> dict:
    """Each parameter of ``func`` with a default, by name: its position, or None when keyword-only."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {arg.arg: k for k, arg in enumerate(positional) if k >= first}
    found.update({arg.arg: None for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None})
    return found


def passes(call: ast.Call, name: str, position, bound: int) -> bool:
    """Whether ``call`` passes parameter ``name`` at ``position``; ``bound`` positions are filled before the call's own."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return True  # *args or **kwargs may fill any parameter
    if any(kw.arg == name for kw in call.keywords):
        return True
    return position is not None and bound + len(call.args) > position


def unpassed_parameters(modules: dict, referencing: list) -> set:
    """``module.qualname: parameter`` for each defaulted parameter of a public function that no call passes.

    A call is matched to a function by its name, called as a name or an
    attribute; a method's call fills ``self`` (or ``cls``) before its own
    arguments, unless the method is a ``staticmethod``.
    """
    calls = collections.defaultdict(list)
    for tree in referencing:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls[getattr(node.func, "id", None) or getattr(node.func, "attr", None)].append(node)
    found = set()
    for qualname, func in public_functions(modules).items():
        static = any(getattr(decorator, "id", None) == "staticmethod" for decorator in func.decorator_list)
        bound = int(qualname.count(".") == 2 and not static)
        for name, position in defaulted_parameters(func).items():
            if not any(passes(call, name, position, bound) for call in calls[func.name]):
                found.add(f"{qualname}: {name}")
    return found


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters(MODULES, REFERENCING) == set(UNPASSED)


def test_unpassed_parameters_are_seen():
    module = ast.parse(
        "def walk(grid, paths=1, antithetic=False, *, chunk=None, spikes=None): pass\n"
        "def spread(a=0, b=0): pass\n"
        "def _private(flag=False): pass\n"
        "class Law:\n"
        "    def moment(self, m=1, kind='signed'): pass\n"
        "    @staticmethod\n"
        "    def build(size=1.0, kind='mix'): pass\n"
    )
    caller = ast.parse(
        "walk(grid, 4, spikes=s)\n"
        "spread(*pair)\n"
        "law.moment(2)\n"
        "Law.build(2.0)\n"
        "describe(law, kind='absolute', chunk=8)\n"
    )
    assert unpassed_parameters({"stub": module}, [module, caller]) == {
        "stub.walk: antithetic",
        "stub.walk: chunk",
        "stub.Law.moment: kind",
        "stub.Law.build: kind",
    }


def readme_sketch() -> str:
    """The code block of the README's "Library sketch" section."""
    section = (ROOT / "README.md").read_text().split("## Library sketch", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_sketch_runs():
    exec(compile(readme_sketch(), "README.md (Library sketch)", "exec"), {})
