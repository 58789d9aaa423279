"""Package namespaces whose exported names load on first access.

A package maps each export to its submodule in ``_LAZY``, lists the
exports in ``__all__`` and ends with ``lazy_package(__name__)``; then
``pkg.name`` and ``from pkg import name`` import that one submodule on
first use, and ``dir(pkg)`` lists every export before any has loaded.
"""

from __future__ import annotations

import importlib
import sys
import types


class LazyPackage(types.ModuleType):
    """Module type of a package with a ``_LAZY`` name table."""

    def __getattr__(self, name):
        module = self._LAZY.get(name)
        if module is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(
            importlib.import_module(f".{module}", self.__name__), name)
        setattr(self, name, value)
        return value

    def __dir__(self):
        return sorted(set(self.__dict__) | set(self.__all__))

    def __setattr__(self, name, value):
        # Loading a submodule binds it on its package.  Where it shares
        # its name with the function it exports (repro.circuit.transient)
        # the package keeps the function, as an eager import did.
        if isinstance(value, types.ModuleType) \
                and self._LAZY.get(name) == name \
                and value.__name__ == f"{self.__name__}.{name}":
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_package(name: str) -> None:
    """Resolve package ``name``'s ``_LAZY`` names on first access."""
    sys.modules[name].__class__ = LazyPackage
