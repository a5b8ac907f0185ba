"""Lazy package re-exports (PEP 562 module ``__getattr__``).

Stability analysis (paper Sec. IV) computes its curves with numpy;
synthesis (Sec. V) only reads each application's (alpha, beta) rows.  A
package that re-exports names from both sides lists the numpy-side ones
in a ``name -> submodule`` table, and they are imported on first access:
``import repro`` and every synthesis entry point stay numpy-free until a
caller actually asks for a stability curve.  Packages keep the real
imports under ``TYPE_CHECKING`` so static checkers still see the types.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` for a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    lazily exported name to the relative module defining it.  A resolved
    name is stored in ``namespace``, so later lookups bypass the hook.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
