"""Lazy package surfaces (PEP 562).

A package lists its public names by the submodule that defines them;
:func:`lazy_exports` turns that table into the package's ``__all__``,
``__getattr__`` and ``__dir__``, so ``import repro.net.buffer`` loads
``buffer`` and what it imports, not every sibling the package re-exports.
A name's submodule is imported on first access and the value is then
bound in the package, so later lookups never reach ``__getattr__``.
"""

from importlib import import_module
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule (relative to ``package``) to the names
    it exports through the package.
    """
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
