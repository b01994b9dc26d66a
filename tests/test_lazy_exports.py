"""Every lazily re-exported name resolves, and a stale table entry fails.

Each package that declares a ``_EXPORTS`` table (:mod:`repro._exports`)
must hand out, for every ``__all__`` name, the very object its submodule
binds, through attribute access and ``from pkg import *`` alike, list the
name in ``dir()``, and refuse an unknown name with an ``AttributeError``
that names the package.
"""

import importlib
import pathlib
import re

import pytest

import repro

_ROOT = pathlib.Path(repro.__file__).parent

#: Every package under ``repro``, by dotted name.
_PACKAGES = sorted(
    ".".join(("repro",) + init.parent.relative_to(_ROOT).parts)
    for init in _ROOT.rglob("__init__.py")
)

#: The packages whose ``__init__`` declares a lazy table.
_LAZY = [
    name for name in _PACKAGES
    if hasattr(importlib.import_module(name), "_EXPORTS")
]


def test_the_re_exporting_packages_resolve_lazily():
    assert {
        "repro",
        "repro.analog",
        "repro.arch",
        "repro.core",
        "repro.energy",
        "repro.experiments",
        "repro.nn",
    } <= set(_LAZY)


@pytest.fixture(params=_LAZY)
def package(request):
    return importlib.import_module(request.param)


def _owners(package):
    return [
        (name, f"{package.__name__}.{module}")
        for module, names in package._EXPORTS.items()
        for name in names
    ]


def test_every_table_name_is_in_all(package):
    assert {name for name, _ in _owners(package)} <= set(package.__all__)


def test_each_name_resolves_to_its_submodules_object(package):
    namespace = vars(package)
    for name, module in _owners(package):
        namespace.pop(name, None)  # resolve through __getattr__ again
        resolved = getattr(package, name)
        assert resolved is getattr(importlib.import_module(module), name)
        assert namespace[name] is resolved  # bound once resolved


def test_star_import_binds_every_name(package):
    bound = {}
    exec(f"from {package.__name__} import *", bound)
    for name in package.__all__:
        assert bound[name] is getattr(package, name)


def test_dir_lists_every_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_raises_naming_the_module(package):
    with pytest.raises(AttributeError, match=re.escape(repr(package.__name__))):
        package.no_such_name

