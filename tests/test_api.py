import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import folomin

MODULES = sorted(info.name for info in pkgutil.iter_modules(folomin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"folomin.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"folomin.{name}.__all__ lists undefined names {missing}"
    # a stale __all__ entry breaks the star import
    exec(f"from folomin.{name} import *", {})


def test_package_reexports_are_public_in_their_modules():
    reexports = {
        attr: obj
        for attr, obj in vars(folomin).items()
        if not attr.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert reexports
    for attr, obj in reexports.items():
        namespace = {}
        exec(f"from {obj.__module__} import *", namespace)
        assert namespace.get(attr) is obj, f"{attr} is not exported by {obj.__module__}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_take_no_keyword_catchall(name):
    # a ``**kwargs`` parameter would accept a misspelled option silently
    module = importlib.import_module(f"folomin.{name}")
    loose = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if not callable(obj):
            continue
        params = inspect.signature(obj).parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            loose.append(attr)
    assert not loose, f"folomin.{name} exports callables taking **kwargs: {loose}"


def _package_imports(name: str) -> set[str]:
    """Modules of the package that module ``name`` imports."""
    tree = ast.parse((Path(folomin.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from .x import y`` or ``from . import x``
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found.update(f"folomin.{n}" for n in names)
    return {n.split(".")[1] for n in found if n.startswith("folomin.")} & set(MODULES)


def test_every_module_is_reachable_from_the_package_or_the_entry_point():
    # a module nothing imports is dead code that only its own tests exercise
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    roots = {"__init__"} | {
        target.split(":")[0].split(".")[1] for target in pyproject["project"]["scripts"].values()
    }
    reached, frontier = set(), set(roots)
    while frontier:
        name = frontier.pop()
        reached.add(name)
        frontier |= _package_imports(name) - reached
    assert set(MODULES) <= reached, f"modules nothing imports: {sorted(set(MODULES) - reached)}"


def test_inference_reads_no_data():
    # every standard error is read off a fit's sandwich stack, so the
    # inference module needs fits, not the risk kernels or the data
    assert _package_imports("inference") <= {"erm", "exceptions"}
    names = _referenced_names(Path(folomin.__file__).parent / "inference.py")
    assert not {"_cells", "_risk_cells", "_row_cells"} & names


def _referenced_names(path: Path, skip: str | None = None) -> set[str]:
    """Names that the code of ``path`` reads, as a ``Name`` or an
    ``Attribute``, outside the top-level ``def skip``."""
    tree = ast.parse(path.read_text())
    nodes = [n for n in tree.body if not (isinstance(n, ast.FunctionDef) and n.name == skip)]
    found = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_function_has_a_caller():
    # a public function that only its own tests call is dead code; the
    # callers are the package, the benchmark, the demos and the acceptance gate
    root = Path(__file__).parents[1]
    src = Path(folomin.__file__).parent
    callers = [*(root / "perfbench").glob("*.py"), *(root / "demos").glob("*.py")]
    callers.append(root / "tests" / "test_acceptance.py")
    outside = set().union(*(_referenced_names(path) for path in callers))
    uncalled = []
    for name in MODULES:
        module = importlib.import_module(f"folomin.{name}")
        for attr in getattr(module, "__all__", ()):
            if not inspect.isfunction(getattr(module, attr)) or attr in outside:
                continue
            if not any(attr in _referenced_names(path, skip=attr) for path in src.glob("*.py")):
                uncalled.append(f"{name}.{attr}")
    assert not uncalled, f"public functions that nothing outside the tests calls: {uncalled}"


def _passed_parameters(paths, name: str, params) -> set[str]:
    """Parameters, of those in ``params``, that some call of function
    ``name`` in ``paths`` passes by keyword or by position; a ``*`` or
    ``**`` argument counts as passing every parameter it could fill."""
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    passed = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if name != (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)):
                continue
            for k, arg in enumerate(node.args):
                stop = None if isinstance(arg, ast.Starred) else k + 1
                passed.update(positional[k:stop])
            for kw in node.keywords:
                passed.update([p.name for p in params] if kw.arg is None else [kw.arg])
    return passed


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # a default that no caller overrides is a setting with one value in
    # use, a constant; the callers are those of the test above, and the
    # package itself
    root = Path(__file__).parents[1]
    callers = [*Path(folomin.__file__).parent.glob("*.py")]
    callers += [*(root / "perfbench").glob("*.py"), *(root / "demos").glob("*.py")]
    callers.append(root / "tests" / "test_acceptance.py")
    unset = []
    for name in MODULES:
        module = importlib.import_module(f"folomin.{name}")
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            passed = _passed_parameters(callers, attr, params)
            unset += [
                f"{name}.{attr}({p.name})"
                for p in params
                if p.default is not p.empty and p.name not in passed
            ]
    assert not unset, f"defaulted public parameters that no caller passes: {unset}"


def _public_functions(name: str):
    """The ``def`` nodes of module ``name``'s ``__all__`` functions and of
    the methods of its ``__all__`` classes, with their qualified names."""
    module = importlib.import_module(f"folomin.{name}")
    public = set(getattr(module, "__all__", ()))
    tree = ast.parse((Path(folomin.__file__).parent / f"{name}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and node.name in public:
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize("name", MODULES)
def test_public_parameters_are_read(name):
    # a parameter the body never reads is a setting that does nothing
    unread = []
    for qualname, node in _public_functions(name):
        args = node.args
        declared = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        declared += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unread += [f"{qualname}({arg})" for arg in declared if arg not in used]
    assert not unread, f"folomin.{name} declares parameters its body never reads: {unread}"


def test_import_loads_no_scipy():
    # folomin runs on numpy alone; importing scipy would add about 0.17 s
    # and 30 MB to every process that imports folomin, the CLI included
    src = Path(folomin.__file__).resolve().parents[1]
    code = (
        "import sys, folomin, folomin.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"
