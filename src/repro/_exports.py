"""Import on use: package ``__init__`` files declare their exports.

Every package ``__init__`` in :mod:`repro` is its docstring plus one
table, and imports nothing itself::

    _EXPORTS = {
        "..errors": ("LoadGenError",),
        ".runner": ("LoadReport", "run_open_loop"),
        ".generators": None,
    }
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

A key is a module name relative to the package, written as in
``from .runner import LoadReport``; its value lists the names that
module provides, or is ``None`` to export the module itself under its
own name.  ``__getattr__`` (PEP 562) imports the module the first time a
name is asked for and caches the value in the package namespace, so the
next access is a plain attribute read.  ``__dir__`` lists the table too,
and ``__all__`` holds every name in table order, so star imports load
everything.  A process therefore pays only for the modules it uses:
``import repro`` loads this module and nothing else.

A module ``__getattr__`` serves attribute access (``repro.flow.max_flow``,
``from repro.flow import max_flow``) but not global-name lookups, so a
function defined in an ``__init__`` cannot use the package's lazy names
as globals; it imports what it needs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: Mapping[str, Optional[Sequence[str]]]
                 ) -> tuple[Callable[[str], Any], Callable[[], list], list]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``."""
    where: dict[str, tuple[str, Optional[str]]] = {}
    for module, names in table.items():
        if names is None:
            where[module.rpartition(".")[2]] = (module, None)
        else:
            where.update((name, (module, name)) for name in names)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module, package)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
