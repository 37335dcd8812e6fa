import importlib
import inspect
import pkgutil
import types

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
