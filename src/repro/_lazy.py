"""Package re-exports resolved on first access (PEP 562).

A package that re-exports its submodules' public names would import every
submodule the moment any one of them is imported.  The packages that
gather a wide surface (``repro``, ``repro.exec``, ``repro.net``) instead
name what each submodule exports and import that submodule the first
time one of its names is read, so a serial curation never loads the
remote, pool, RPC or TCP modules it does not run.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """A package's ``__getattr__`` and ``__dir__`` over ``exports``.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule, relative to the package (``".base"``), to the names read
    from it.  The first read of a name imports its submodule and stores
    the value in ``namespace``, so later reads never reach
    ``__getattr__``.  Any other name raises :class:`AttributeError`.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
