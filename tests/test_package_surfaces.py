"""The lazy package surfaces (:mod:`repro._exports`).

``repro``, ``repro.core``, ``repro.net``, ``repro.sched``,
``repro.obs`` and ``repro.hwsim`` export their public names through a
PEP 562 ``__getattr__`` built from one table each, and
``repro.core.matching`` its netlist names.  A typo in a table would
otherwise show only when someone first used that name.
"""

import importlib
import sys
import types

import pytest

PACKAGES = (
    "repro", "repro.core", "repro.net", "repro.sched", "repro.obs",
    "repro.hwsim",
)


def _bound_by_a_submodule(package: str, name: str, value) -> bool:
    prefix = package + "."
    return any(
        vars(module).get(name) is value
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(prefix) and module is not None
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_resolves_to_what_its_submodule_defines(package):
    module = importlib.import_module(package)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        if name == "__version__":
            continue
        value = getattr(module, name)
        assert not isinstance(value, types.ModuleType), name
        assert _bound_by_a_submodule(package, name, value), name
        # The first access binds the name in the package itself.
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_name(package):
    module = importlib.import_module(package)
    listed = dir(module)
    assert listed == sorted(listed)
    assert set(module.__all__) <= set(listed)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"{package!r} has no attribute"):
        module.NoSuchExport
    assert not hasattr(module, "no_such_export")


def test_submodule_import_still_returns_the_submodule():
    from repro.core import engine

    assert engine is sys.modules["repro.core.engine"]
    from repro.obs import tracer

    assert tracer is sys.modules["repro.obs.tracer"]


def test_matching_loads_netlist_names_on_first_use():
    from repro.core import matching

    # The matcher registry stays eager: a circuit build reads it.
    assert "ALL_MATCHERS" in vars(matching)
    assert "DEFAULT_MATCHER" in vars(matching)
    netlist = importlib.import_module("repro.core.matching.netlist")
    namespace = {}
    exec("from repro.core.matching import *", namespace)
    for name in ("Netlist", "build_matcher_netlist", "netlist_search"):
        assert name in matching.__all__ and name in dir(matching), name
        value = getattr(matching, name)
        assert value is getattr(netlist, name)
        assert vars(matching)[name] is value
        assert namespace[name] is value
    with pytest.raises(AttributeError, match="has no attribute"):
        matching.NoSuchMatcher
