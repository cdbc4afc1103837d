"""The registry builds nothing; each kernel is built once, on first use."""

import importlib
import inspect
import sys
import threading

import pytest

from repro import kernels
from repro.kernels import TABLE1_ORDER, all_specs

registry_mod = importlib.import_module("repro.kernels.registry")

#: The 14 kernel modules of Table 1.
MODULES = [
    module for module in vars(kernels).values()
    if inspect.ismodule(module) and hasattr(module, "build_kernel")
]


@pytest.fixture
def builds(monkeypatch):
    """A fresh registry whose kernel builds are spied on.

    Returns the list of kernel names, one entry per ``build_kernel``
    call.  The process's own registry and built kernels come back when
    the test ends.
    """
    calls = []
    for module in MODULES:
        def spy(*args, _build=module.build_kernel, _name=module.NAME,
                **kwargs):
            calls.append(_name)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "build_kernel", spy)
    monkeypatch.setattr(registry_mod, "_REGISTRY", None)
    monkeypatch.setattr(registry_mod, "_KERNELS", {})
    return calls


def test_every_table1_kernel_has_a_module():
    assert sorted(module.NAME for module in MODULES) == sorted(TABLE1_ORDER)


def test_registry_builds_nothing(builds):
    assert sorted(registry_mod.registry()) == sorted(TABLE1_ORDER)
    assert builds == []


def test_each_kernel_is_built_once_on_first_use(builds):
    first = {name: registry_mod.spec(name).kernel() for name in TABLE1_ORDER}
    assert sorted(builds) == sorted(TABLE1_ORDER)
    for name in TABLE1_ORDER:
        assert registry_mod.spec(name).kernel() is first[name]
        assert registry_mod.kernel(name) is first[name]
    assert sorted(builds) == sorted(TABLE1_ORDER)


def test_racing_threads_build_each_kernel_once(builds):
    """Threads of one process (``repro-serve --workers N``) asking for
    every kernel at once from a fresh registry get the same objects,
    each built once."""
    workers = 8
    barrier = threading.Barrier(workers)
    seen = {}

    def ask(tag):
        barrier.wait()
        seen[tag] = [registry_mod.spec(name).kernel()
                     for name in TABLE1_ORDER]

    threads = [threading.Thread(target=ask, args=(tag,))
               for tag in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(builds) == sorted(TABLE1_ORDER)
    for tag in range(1, workers):
        assert all(x is y for x, y in zip(seen[0], seen[tag]))


@pytest.mark.parametrize("s", all_specs(), ids=lambda s: s.name)
def test_spec_metadata_matches_the_built_kernel(s):
    kernel = s.kernel()
    assert (s.name, s.domain, s.description) == (
        kernel.name, kernel.domain, kernel.description
    )
