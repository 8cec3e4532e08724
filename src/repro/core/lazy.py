"""Package exports that load their module on first access (PEP 562).

A campaign process imports :mod:`repro.core` whatever it runs, but most
processes never use the fleet, the knob scheduler or the triage reducer.
Packages name those exports with :func:`lazy_exports`, so they stay
importable from the package while their modules load only when used.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict


def lazy_exports(namespace: Dict[str, Any], exports: Dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` serving ``exports`` (name -> module path).

    The first access imports the module and stores the value in
    ``namespace`` (the package's ``globals()``), so later accesses are
    plain attribute lookups.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__
