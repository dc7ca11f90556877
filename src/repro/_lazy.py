"""Lazy package namespaces (PEP 562).

Every ``repro`` package ``__init__`` is one table mapping each defining
module to the names the package re-exports from it::

    _EXPORTS = {
        "repro.sim.events": ("EventHandle", "Simulator"),
        "repro.sim.link": ("GBPS", "Link", "gbps"),
    }
    __all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

Importing the package imports none of those modules.  The first access
to a name (``pkg.Simulator``, ``from pkg import Simulator`` or
``from pkg import *``) imports its defining module and caches the value
in the package's globals, so later accesses are plain dict lookups.  A
run therefore compiles only the modules it executes.

Module-level ``__getattr__`` is consulted only for attribute access on
the module object: a function *inside* the package that reads a
re-exported name as a bare global must import it first.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_namespace(package: str, exports: Mapping[str, Iterable[str]]
                   ) -> Tuple[List[str], Callable[[str], object],
                              Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module's dotted name to the names it defines;
    ``__all__`` lists them in table order.
    """
    origin: Dict[str, str] = {name: module
                              for module, names in exports.items()
                              for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return list(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
