"""The execution-engine registry: the single authority on engine names.

Every layer that accepts an ``engine=`` string -- the simulator, the CLI,
the sweep runner, campaign specs -- resolves it here, so an
unknown name fails everywhere with the same message listing the engines.
The table is fixed: ``compiled``, ``object`` and ``sampled``.

Store keys embed the engine *name* (see ``docs/campaigns.md``), so names are
part of the persistence contract: renaming an engine invalidates its stored
results, and the names are stable.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from .base import ExecutionEngine
from .exact import CompiledEngine, ObjectEngine
from .sampled import SampledEngine

__all__ = ["get", "names", "validate"]

#: name -> engine class; this order is the listing order of ``names()``
#: (and so of the CLI help).
_REGISTRY: Dict[str, Type[ExecutionEngine]] = {
    engine_cls.name: engine_cls
    for engine_cls in (CompiledEngine, ObjectEngine, SampledEngine)
}


def names() -> Tuple[str, ...]:
    """The engine names, in listing order."""
    return tuple(_REGISTRY)


def validate(name: str) -> str:
    """Return ``name`` if registered; raise a listing ``ValueError`` otherwise."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {', '.join(_REGISTRY)}"
        )
    return name


def get(name: str) -> Type[ExecutionEngine]:
    """Resolve an engine name to its class (same error as :func:`validate`)."""
    validate(name)
    return _REGISTRY[name]
