"""Scientific-domain workloads: FFT inputs and LU matrices.

The paper uses a 1024-point complex FFT and LU decomposition of a dense
1024x1024 matrix.  The generators below expose both the raw problems and
the per-kernel record streams (radix-2 butterflies; rank-1 row updates)
that the data-parallel kernels consume.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import List, Sequence, Tuple

import numpy as np

from . import _draw


def _check_fft_size(n: int) -> None:
    if n & (n - 1):
        raise ValueError(f"FFT size must be a power of two, got {n}")


def fft_input(n: int = 1024, seed: int = 17) -> List[complex]:
    """A deterministic complex input signal of length ``n`` (power of 2).

    Element i is ``complex(uniform(-1, 1), uniform(-1, 1))``, real part
    drawn first.
    """
    _check_fft_size(n)
    parts = _draw.uniforms(random.Random(seed), -1.0, 1.0, 2 * n)
    return parts.view(np.complex128).tolist()


def butterfly_records(
    data: Sequence[complex], stage: int
) -> Tuple[List[List[float]], List[Tuple[int, int]]]:
    """Radix-2 DIT butterfly records for one FFT stage.

    Returns ``(records, index_pairs)``: each record is the paper's 6-word
    read set ``[a_re, a_im, b_re, b_im, w_re, w_im]``; ``index_pairs``
    gives the (top, bottom) element positions so a driver can write the
    4-word results back.  ``stage`` counts from 0 (butterfly span 1) to
    log2(n)-1, assuming the input is already in bit-reversed order.
    """
    n = len(data)
    span = 1 << stage
    # One twiddle per k, repeated in every block.
    twiddles = np.array(
        [cmath.exp(-2j * math.pi * k / (span * 2)) for k in range(span)],
        dtype=np.complex128,
    )
    blocks = len(range(0, n, span * 2))
    top = (np.arange(blocks)[:, None] * (span * 2) + np.arange(span)).ravel()
    bottom = top + span
    values = np.asarray(data, dtype=np.complex128)
    a, b, w = values[top], values[bottom], np.tile(twiddles, blocks)
    records = np.stack(
        (a.real, a.imag, b.real, b.imag, w.real, w.imag), axis=1
    ).tolist()
    return records, list(zip(top.tolist(), bottom.tolist()))


def bit_reverse_permute(data: Sequence[complex]) -> List[complex]:
    """Bit-reversal reorder (the FFT driver's input permutation)."""
    n = len(data)
    _check_fft_size(n)
    bits = n.bit_length() - 1
    out = [0j] * n
    for i, value in enumerate(data):
        j = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
        out[j] = value
    return out


def lu_matrix(n: int = 64, seed: int = 19) -> List[List[float]]:
    """A dense, well-conditioned (diagonally dominant) n x n matrix.

    The paper uses n=1024; tests default to smaller sizes for speed while
    the benchmark harness can request the full problem.
    """
    matrix = _draw.uniforms(random.Random(seed), -1.0, 1.0, n * n)
    matrix = matrix.reshape(n, n)
    matrix[np.diag_indices(n)] += n  # diagonal dominance: no pivoting needed
    return matrix.tolist()


def lu_update_records(
    matrix: Sequence[Sequence[float]], k: int, i: int
) -> Tuple[float, List[List[float]]]:
    """Row-update records for eliminating row ``i`` with pivot row ``k``.

    Returns ``(multiplier, records)`` where each record is the paper's
    2-word read set ``[a_ij, a_kj]`` for j > k; the kernel computes
    ``a_ij - m * a_kj``.  The multiplier is baked into the kernel instance
    (it is loop-invariant for the whole record stream).
    """
    m = matrix[i][k] / matrix[k][k]
    records = [
        [matrix[i][j], matrix[k][j]] for j in range(k + 1, len(matrix))
    ]
    return m, records
