"""Serve a package's public names on first use (PEP 562).

A ``discover`` process imports :mod:`repro.cli`, and through it every
package ``__init__`` on the way to the modules a default run calls;
an ``__init__`` that re-exported its whole package eagerly would load
the codec, the sketches, the process backend and the baselines into
every run.  Each package instead declares where its public names live
and binds one on the first attribute access, so ``from repro.discovery
import KReduce``, ``__all__`` and ``from repro.discovery import *``
work as before while importing the package loads nothing.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Dict, Sequence


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]) -> tuple:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each module (by full name) to the public names
    it defines.  A name imports its module on first access and is then
    bound in the package, so later lookups never reach ``__getattr__``.
    A public name that equals one of the package's submodule names
    must be bound eagerly instead: importing that submodule sets the
    package attribute to the module, and ``__getattr__`` is never
    asked again.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
