"""Benchmark registry — the paper's Table 1 suite with Table 2 ground truth.

Each entry bundles the kernel generator, its workload generator, its
independent per-record reference, and the attribute row the paper
reports, so the characterization experiments can print measured-vs-paper
side by side.

A spec is metadata only: :func:`registry` builds no kernel.  Each
module declares its ``NAME``, ``DOMAIN`` and ``DESCRIPTION``, and
:meth:`KernelSpec.kernel` builds a kernel the first time anything asks
for it, once per process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..isa import Domain, Kernel
from . import (
    anisotropic,
    blowfish,
    convert,
    dct,
    fft,
    fragment_reflection,
    fragment_simple,
    highpass,
    lu,
    md5,
    rijndael,
    vertex_reflection,
    vertex_simple,
    vertex_skinning,
)

Number = Union[int, float]


@dataclass(frozen=True)
class PaperAttributes:
    """One row of the paper's Table 2."""

    instructions: int
    ilp: float
    record_read: int
    record_write: int
    irregular: int
    constants: int
    indexed_constants: int
    loop_bound: Optional[str]  # None, "16", "10", "Variable"


#: Built kernels by name, filled by :meth:`KernelSpec.kernel`.
_KERNELS: Dict[str, Kernel] = {}

#: Guards the registry and every kernel build, so threads sharing a
#: process (``repro-serve --workers N``) never build a kernel twice.
_LOCK = threading.Lock()


@dataclass(frozen=True)
class KernelSpec:
    """A benchmark: builders, workload, reference and paper ground truth."""

    name: str
    domain: Domain
    description: str
    build: Callable[[], Kernel]
    workload: Callable[..., List[List[Number]]]
    reference: Callable[[Sequence[Number]], List[Number]]
    paper: PaperAttributes
    #: whether results are floating point (compare with tolerance)
    floating: bool = True
    #: the paper excludes anisotropic-filtering from performance results
    in_performance_suite: bool = True

    def kernel(self) -> Kernel:
        """The built kernel, constructed on first use, once per process."""
        kernel = _KERNELS.get(self.name)
        if kernel is None:
            with _LOCK:
                kernel = _KERNELS.get(self.name)
                if kernel is None:
                    kernel = _KERNELS[self.name] = self.build()
        return kernel


def _spec(module, paper: PaperAttributes, floating: bool = True,
          in_performance_suite: bool = True) -> KernelSpec:
    return KernelSpec(
        name=module.NAME,
        domain=module.DOMAIN,
        description=module.DESCRIPTION,
        build=module.build_kernel,
        workload=module.workload,
        reference=module.reference,
        paper=paper,
        floating=floating,
        in_performance_suite=in_performance_suite,
    )


def _build_registry() -> Dict[str, KernelSpec]:
    rows: List[Tuple[object, PaperAttributes, bool, bool]] = [
        (convert, PaperAttributes(15, 5.0, 3, 3, 0, 9, 0, None), True, True),
        (dct, PaperAttributes(1728, 6.0, 64, 64, 0, 10, 0, "16"), True, True),
        (highpass, PaperAttributes(17, 3.4, 9, 1, 0, 9, 0, None), True, True),
        (fft, PaperAttributes(10, 3.3, 6, 4, 0, 0, 0, None), True, True),
        (lu, PaperAttributes(2, 1.0, 2, 1, 0, 0, 0, None), True, True),
        (md5, PaperAttributes(680, 1.63, 10, 2, 0, 65, 0, None), False, True),
        (blowfish, PaperAttributes(364, 1.98, 1, 1, 0, 2, 256, "16"), False, True),
        (rijndael, PaperAttributes(650, 11.8, 2, 2, 0, 18, 1024, "10"), False, True),
        (vertex_simple,
         PaperAttributes(95, 4.3, 7, 6, 0, 32, 0, None), True, True),
        (fragment_simple,
         PaperAttributes(64, 2.96, 8, 4, 4, 16, 0, None), True, True),
        (vertex_reflection,
         PaperAttributes(94, 7.1, 9, 2, 0, 35, 0, None), True, True),
        (fragment_reflection,
         PaperAttributes(98, 6.2, 5, 3, 4, 7, 0, None), True, True),
        (vertex_skinning,
         PaperAttributes(112, 6.8, 16, 9, 0, 32, 288, "Variable"), True, True),
        (anisotropic,
         PaperAttributes(80, 2.1, 9, 1, 50, 6, 128, "Variable"), True, False),
    ]
    registry: Dict[str, KernelSpec] = {}
    for module, paper, floating, in_perf in rows:
        spec = _spec(module, paper, floating, in_perf)
        registry[spec.name] = spec
    return registry


_REGISTRY: Optional[Dict[str, KernelSpec]] = None


def registry() -> Dict[str, KernelSpec]:
    """The benchmark registry, created once; it builds no kernel."""
    global _REGISTRY
    if _REGISTRY is None:
        with _LOCK:
            if _REGISTRY is None:
                _REGISTRY = _build_registry()
    return _REGISTRY


def all_specs(performance_only: bool = False) -> List[KernelSpec]:
    """All benchmark specs (optionally only the performance suite)."""
    specs = list(registry().values())
    if performance_only:
        specs = [s for s in specs if s.in_performance_suite]
    return specs


def spec(name: str) -> KernelSpec:
    """Look up one benchmark spec by Table 1 name."""
    try:
        return registry()[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(registry())}"
        ) from None


def kernel(name: str) -> Kernel:
    """The named benchmark's kernel (see :meth:`KernelSpec.kernel`)."""
    return spec(name).kernel()


#: Names grouped by domain, in the paper's Table 1 order.
TABLE1_ORDER = (
    "convert", "dct", "highpassfilter",
    "fft", "lu",
    "md5", "rijndael", "blowfish",
    "vertex-simple", "fragment-simple", "vertex-reflection",
    "fragment-reflection", "vertex-skinning", "anisotropic-filter",
)
