"""``lu`` — dense LU decomposition row-update kernel.

The inner kernel of right-looking LU without pivoting: for a pivot
column k and target row i, every trailing element updates as
``a[i][j] -= m * a[k][j]`` with the row multiplier m loop-invariant
across the record stream.  Two instructions (multiply, subtract),
ILP 1, record 2/1, no named constants — Table 2's lu row.  The
multiplier is baked into the kernel instance as an immediate, the way a
stream compiler would specialize the inner loop per (i, k) pass.

:func:`lu_full` runs a complete decomposition through the kernel's math
and is validated against a straightforward reference (and, in the test
suite, against reconstructing A = L·U).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..isa import Domain, Kernel, KernelBuilder
from ..workloads.matrices import lu_matrix, lu_update_records

NAME = "lu"
DOMAIN = Domain.SCIENTIFIC
DESCRIPTION = "LU decomposition of a dense 1024x1024 matrix."

DEFAULT_MULTIPLIER = 0.37519


def build_kernel(multiplier: float = DEFAULT_MULTIPLIER) -> Kernel:
    """Construct the kernel's dataflow graph (see module docstring)."""
    b = KernelBuilder(
        NAME, DOMAIN, record_in=2, record_out=1,
        description=DESCRIPTION,
    )
    a_ij, a_kj = b.inputs()
    b.output(b.fsub(a_ij, b.fmul(b.imm(multiplier), a_kj)))
    return b.build()


def reference(record: Sequence[float], multiplier: float = DEFAULT_MULTIPLIER) -> List[float]:
    """Independent per-record reference implementation."""
    a_ij, a_kj = record[:2]
    return [a_ij - multiplier * a_kj]


def workload(count: int, seed: int = 19) -> List[List[float]]:
    """Row-update records from the first elimination passes of a matrix."""
    n = max(16, int(count ** 0.5) + 2)
    matrix = lu_matrix(n, seed)
    records: List[List[float]] = []
    k = 0
    while len(records) < count and k < n - 1:
        for i in range(k + 1, n):
            _, recs = lu_update_records(matrix, k, i)
            records.extend(recs)
            if len(records) >= count:
                break
        k += 1
    return records[:count]


def lu_full(matrix: Sequence[Sequence[float]]) -> Tuple[List[List[float]], List[List[float]]]:
    """In-place LU through the kernel math; returns (L, U)."""
    a = [list(row) for row in matrix]
    n = len(a)
    lower = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        for i in range(k + 1, n):
            m = a[i][k] / a[k][k]
            lower[i][k] = m
            for j in range(k + 1, n):
                a[i][j] = reference([a[i][j], a[k][j]], m)[0]
            a[i][k] = 0.0
    return lower, a
