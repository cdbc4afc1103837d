"""Bulk draws from a ``random.Random``, equal to its scalar methods.

CPython's ``Random`` is MT19937 (Matsumoto and Nishimura, ACM TOMACS
1998), and ``getrandbits(32 * m)`` returns its next ``m`` 32-bit outputs
in one call: output ``i`` sits in bits ``[32i, 32i + 32)``, so the
little-endian bytes read as ``<u4`` give them in order.  From those
words numpy computes exactly what the scalar methods of ``random.py``
return (the same source from CPython 3.9 to 3.13):

* ``random()`` = ``((w0 >> 5) * 2**26 + (w1 >> 6)) * 2**-53`` from two
  consecutive words; every step is exact in float64;
* ``uniform(a, b)`` = ``a + (b - a) * random()``;
* ``randrange(n)`` for ``n < 2**32``: with ``k = n.bit_length()``, each
  try takes one word, ``r = w >> (32 - k)``, accepted when ``r < n``.

Numpy does only ``+ - * /``, comparisons and shifts on these values, in
the scalar code's order, so every float is bit-identical; callers keep
transcendental math on Python floats.  Each helper leaves its
``Random`` where the scalar calls would have left it (an overdraw is
rewound with ``getstate``/``setstate``), so successive draws on one
generator compose.  Words are drawn at most :data:`CHUNK` at a time.
The scalar generators these replace are the reference in
``tests/kernels/test_workloads.py``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

import numpy as np

#: words per ``getrandbits`` call: bounds the transient big int and buffers
CHUNK = 2048

_RECIP_BPF = 1.0 / 9007199254740992.0  # 2**-53


def words(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` 32-bit outputs of ``rng``, as a uint32 array."""
    out = np.empty(n, dtype=np.uint32)
    for lo in range(0, n, CHUNK):
        m = min(CHUNK, n - lo)
        out[lo:lo + m] = np.frombuffer(
            rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4"
        )
    return out


def _skip(rng: random.Random, n: int) -> None:
    """Advance ``rng`` by ``n`` outputs."""
    for lo in range(0, n, CHUNK):
        rng.getrandbits(32 * min(CHUNK, n - lo))


def _random(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """``random()`` from the first and second word of each draw."""
    r = (first >> 5).astype(np.float64)
    r *= 67108864.0
    r += second >> 6
    r *= _RECIP_BPF
    return r


def doubles(w: np.ndarray) -> np.ndarray:
    """``random()`` read at every offset: entry i uses words i and i+1."""
    return _random(w[:-1], w[1:])


def _shift(n: int) -> int:
    if not 0 < n < 1 << 32:
        raise ValueError(
            f"randrange bound must be in [1, 2**32) for one word per try, "
            f"got {n}"
        )
    return 32 - n.bit_length()


def tries(w: np.ndarray, n: int) -> np.ndarray:
    """Each word's ``randrange(n)`` candidate; accepted where it is ``< n``."""
    return w >> _shift(n)


def randoms(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a float64 array."""
    w = words(rng, 2 * count)
    return _random(w[0::2], w[1::2])


def uniform(r: np.ndarray, a: float, b: float) -> np.ndarray:
    """``uniform(a, b)`` from the ``random()`` values ``r``."""
    return a + (b - a) * r


def uniforms(rng: random.Random, a: float, b: float, count: int) -> np.ndarray:
    """``[rng.uniform(a, b) for _ in range(count)]`` as a float64 array."""
    r = randoms(rng, count)
    r *= b - a
    r += a
    return r


def randbelow(rng: random.Random, n: int, count: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(count)]``, in the smallest
    unsigned dtype that holds ``n - 1``."""
    per_hit = 1 << (32 - _shift(n))  # 2**k words per n hits, on average
    out = np.empty(count, dtype=np.min_scalar_type(n - 1))
    got = 0
    while got < count:
        state = rng.getstate()
        want = count - got
        m = min(CHUNK, want * per_hit // n + want // 8 + 16)
        r = tries(words(rng, m), n)
        hits = np.flatnonzero(r < n)[:want]
        out[got:got + len(hits)] = r[hits]
        got += len(hits)
    if count and hits[-1] + 1 < len(r):
        rng.setstate(state)
        _skip(rng, int(hits[-1]) + 1)
    return out


def walk(
    rng: random.Random,
    count: int,
    est: int,
    scan: Callable[[np.ndarray, int], Tuple[list, int]],
) -> list:
    """``count`` records whose draw counts depend on drawn values.

    ``scan(w, want)`` reads up to ``want`` whole records from the front of
    the words ``w`` in one pass and returns ``(records, used)``: the
    records and the words they took.  It stops before a record that runs
    past the end of ``w``; the words left over start the next, longer
    read.  ``est`` (expected words per record) sizes each draw.
    """
    out: List = []
    tail = np.empty(0, dtype=np.uint32)
    while len(out) < count:
        state = rng.getstate()
        fresh = words(rng, min(CHUNK, (count - len(out)) * est))
        w = np.concatenate((tail, fresh))
        records, used = scan(w, count - len(out))
        out.extend(records)
        tail = w[used:]
    if len(tail):
        # The last record ends inside the last draw, whose start is the
        # saved state: replay the draw up to that record's end.
        rng.setstate(state)
        _skip(rng, len(fresh) - len(tail))
    return out
