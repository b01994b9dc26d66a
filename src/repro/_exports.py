"""Package re-exports that import their submodule on first use.

A package ``__init__`` declares one table, each submodule with the names
it re-exports, and takes its module-level ``__getattr__`` and ``__dir__``
(PEP 562) and its ``__all__`` from :func:`lazy_exports`:

    _EXPORTS = {"config": ("ChipConfig", "paper_config")}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

``pkg.Name``, ``from pkg import Name`` and ``from pkg import *`` then
import only the submodule that defines ``Name``, the first time it is
asked for, so a run loads the modules it uses and no others.
"""

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s re-exports.

    ``table`` maps a submodule name, relative to ``package``, to the names
    the package re-exports from it.  A name resolves to the very object
    the submodule binds, and is then bound in the package's namespace, so
    later lookups do not reach ``__getattr__`` again.
    """
    owner: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, sorted(owner)
