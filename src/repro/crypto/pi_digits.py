"""Hexadecimal digits of pi, computed from scratch.

The Blowfish key schedule initializes its P-array and S-boxes from the
fractional hexadecimal digits of pi (18 + 4x256 = 1042 32-bit words =
8336 hex digits).  With no network access we compute them with the
Chudnovsky series,

    1/pi = 12 * sum_k (-1)^k (6k)! (13591409 + 545140134 k)
                 / ((3k)! (k!)^3 640320^(3k + 3/2)),

summed exactly by binary splitting in plain integer fixed-point
arithmetic.  Each term adds about 47 bits, so Blowfish's 33,344 bits
take some 700 terms.

Sanity anchor: the first 32 fractional bits of pi are 0x243F6A88, which
is Blowfish's published P[0]; the test suite asserts this.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import List, Tuple

#: 640320**3 / 24, the per-term growth of the series' denominator.
_C3_OVER_24 = 640320 ** 3 // 24

#: Bits each Chudnovsky term contributes: log2(640320**3 / 1728).
_BITS_PER_TERM = 47.11


def _split(a: int, b: int) -> Tuple[int, int, int]:
    """Binary splitting of terms [a, b): (P, Q, T) with T/Q their sum."""
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p_am, q_am, t_am = _split(a, m)
    p_mb, q_mb, t_mb = _split(m, b)
    return p_am * p_mb, q_am * q_mb, q_mb * t_am + p_am * t_mb


@lru_cache(maxsize=None)
def pi_fractional_hex(digits: int) -> str:
    """The first ``digits`` hex digits of pi's fractional part."""
    guard = 16
    bits = 4 * (digits + guard)
    one = 1 << bits
    _, q, t = _split(0, int(bits / _BITS_PER_TERM) + 2)
    # pi = 426880 * sqrt(10005) * Q / T
    pi = 426880 * isqrt(10005 * one * one) * q // t
    frac = pi - 3 * one
    if not 0 < frac < one:
        raise RuntimeError("pi computation out of range (precision bug)")
    text = format(frac >> (4 * guard), f"0{digits}x")
    return text.upper()


def pi_words(count: int) -> List[int]:
    """The first ``count`` 32-bit words of pi's fractional hex expansion.

    ``pi_words(1)[0] == 0x243F6A88`` (Blowfish's P[0]).
    """
    text = pi_fractional_hex(count * 8)
    return [int(text[8 * i : 8 * i + 8], 16) for i in range(count)]
