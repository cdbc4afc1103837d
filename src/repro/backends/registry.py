"""Backend registry: one name -> one machine model.

Every execution model the repo can time a kernel on registers here by
name; the cross-cutting layers (experiment harness, sweep workers,
CLIs, fuzz modes) resolve backends exclusively through this table, so
adding a sixth model is one :func:`register` call — it inherits run
caching, claim-row sharding, observability tagging and differential
checking without touching any of those layers.

Backends are stateless (their comparator parameters are frozen
defaults), so :func:`get` hands out one shared instance per name;
:func:`create` builds a fresh one for tests that want isolation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from .base import Backend

_FACTORIES: Dict[str, Callable[[], Backend]] = {}
_INSTANCES: Dict[str, Backend] = {}


def register(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (last wins, by design:
    tests may shadow a backend with an instrumented double)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def backend_names() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_FACTORIES)


def create(name: str) -> Backend:
    """Build a fresh instance of the named backend."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None
    return factory()


def get(name: Union[str, Backend]) -> Backend:
    """The shared instance of the named backend.

    Accepts an already-resolved :class:`~repro.backends.base.Backend`
    unchanged, so call sites can take "name or instance" without
    branching.
    """
    if isinstance(name, Backend):
        return name
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = create(name)
    return instance
