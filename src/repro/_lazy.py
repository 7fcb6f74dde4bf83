"""Package namespaces whose names import their submodule on first use.

Each package ``__init__`` states, in one table, which submodule provides
each public name; :func:`attach` serves the table through a PEP 562
module ``__getattr__`` and ``__dir__``.  ``from repro.core import
FederatedTrainer`` therefore loads the modules that class needs and no
others, and a run imports only what it uses (DESIGN §3).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, Sequence


def attach(
    namespace: Dict[str, Any],
    exports: Dict[str, Sequence[str]],
    submodules: Iterable[str] = (),
) -> None:
    """Serve ``exports`` and ``submodules`` lazily from a package namespace.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a
    relative module (``".server"``, ``"..comms.config"``) to the names it
    provides, and ``submodules`` names submodules exported as themselves.
    The first lookup of a name imports its module and caches the value in
    the namespace, so later lookups never reach ``__getattr__``.
    ``__all__`` becomes the names the package defines itself (an
    ``__all__`` set before the call) followed by every served name.
    """
    package = namespace["__name__"]
    source = {name: (module, True) for module, names in exports.items() for name in names}
    source.update((name, ("." + name, False)) for name in submodules)

    def __getattr__(name: str) -> Any:
        try:
            module, member = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if member:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(source))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    namespace["__all__"] = [*namespace.get("__all__", ()), *source]
