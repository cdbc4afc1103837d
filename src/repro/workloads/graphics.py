"""Real-time graphics workloads: vertex and fragment streams.

Record shapes follow Table 2:

* vertex-simple: 7 words in (position xyz, normal xyz, vertex shade)
* fragment-simple: 8 in (position xyz, normal xyz, texture uv)
* vertex-reflection: 9 in (position xyz, normal xyz, eye xyz)
* fragment-reflection: 5 in (reflection xyz, uv)
* vertex-skinning: 16 in (position xyz, normal xyz, 4 matrix indices,
  4 blend weights, bone count, pad) — the bone count is the
  data-dependent loop bound
* anisotropic-filter: 9 in (uv, du/dx, dv/dx, du/dy, dv/dy, tap count,
  lod, pad)
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import _draw

#: a layout entry: one unit vector, three ``uniform(-1, 1)`` draws per
#: try, tried again while their norm is at most 1e-3
_UNIT = None
#: word offsets of a vector's three draws
_XYZ = np.array([0, 2, 4])


def _vectors(d: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The ``uniform(-1, 1)`` triples drawn from each word of ``at``.

    ``d[i]`` is the ``random()`` read at word ``i``.
    """
    return _draw.uniform(d[at[..., None] + _XYZ], -1.0, 1.0)


def _norms(d: np.ndarray, tries: np.ndarray) -> np.ndarray:
    """The norm of the unit-vector try at each word of ``tries``.

    Python's ``sum`` adds the squares, as the scalar ``sum(c * c for c
    in v) ** 0.5`` does (its float algorithm differs between
    interpreters).
    """
    v = _vectors(d, tries)
    squares = (v * v).reshape(-1, 3).tolist()
    return np.array([sum(t) ** 0.5 for t in squares]).reshape(tries.shape)


def _unit_at(d: np.ndarray, p: int) -> Optional[Tuple[int, float]]:
    """The accepted try of the unit vector first tried at word ``p``.

    Returns its word and norm, or None when the tries run past the words.
    """
    while p + 6 <= len(d) + 1:
        norm = _norms(d, np.array(p))
        if norm > 1e-3:
            return p, float(norm)
        p += 6
    return None


def _records(
    count: int, seed: int, layout: Sequence[Optional[Tuple[float, float, int]]]
) -> List[List[float]]:
    """``count`` records drawn per ``layout`` from ``random.Random(seed)``.

    Each entry is ``(a, b, k)``, ``k`` draws of ``uniform(a, b)``, or
    :data:`_UNIT`, a unit vector.  Records whose unit vectors all take
    their first try are read in bulk; a record with a rejected try is
    read try by try, and the bulk read resumes after it.
    """
    sizes = [6 if seg is _UNIT else 2 * seg[2] for seg in layout]
    stride = sum(sizes)
    offsets = np.cumsum([0] + sizes[:-1])
    units = [i for i, seg in enumerate(layout) if seg is _UNIT]

    def one(d: np.ndarray, p: int):
        """The record at word ``p``, read try by try (None past the end)."""
        at, norms = [], []
        for seg, size in zip(layout, sizes):
            if seg is _UNIT:
                found = _unit_at(d, p)
                if found is None:
                    return None
                p, norm = found
                norms.append(norm)
            at.append(p)
            p += size
        if p > len(d) + 1:
            return None
        return np.array([at]), np.array([norms]), p

    def scan(w: np.ndarray, want: int):
        d = _draw.doubles(w)
        ats, norms = [], []
        p = got = 0
        while got < want:
            k = min(want - got, (len(w) - p) // stride)
            at = p + stride * np.arange(k)[:, None] + offsets
            norm = _norms(d, at[:, units])
            ok = (norm > 1e-3).all(axis=1)
            good = k if ok.all() else int(np.argmin(ok))
            ats.append(at[:good])
            norms.append(norm[:good])
            got += good
            p += good * stride
            if good == k:
                break
            found = one(d, p)
            if found is None:
                break
            ats.append(found[0])
            norms.append(found[1])
            got += 1
            p = found[2]
        at = np.concatenate(ats)
        norm = np.concatenate(norms)
        columns, unit = [], 0
        for i, seg in enumerate(layout):
            if seg is _UNIT:
                columns.append(_vectors(d, at[:, i]) / norm[:, unit, None])
                unit += 1
            else:
                a, b, k = seg
                columns.append(
                    _draw.uniform(d[at[:, i, None] + 2 * np.arange(k)], a, b)
                )
        return np.hstack(columns).tolist(), p

    return _draw.walk(random.Random(seed), count, stride, scan)


_POSITION = (-10.0, 10.0, 3)


def vertex_records(count: int, seed: int = 29) -> List[List[float]]:
    """Vertex records: position, normal, per-vertex shade (7 words)."""
    return _records(count, seed, (_POSITION, _UNIT, (0.0, 1.0, 1)))


def fragment_records(count: int, seed: int = 31) -> List[List[float]]:
    """Fragment records: position, normal, uv (8 words)."""
    return _records(count, seed, (_POSITION, _UNIT, (0.0, 1.0, 2)))


def reflection_vertex_records(count: int, seed: int = 37) -> List[List[float]]:
    """Reflective-surface vertex records (9 words)."""
    return _records(count, seed, (_POSITION, _UNIT, _UNIT))


def reflection_fragment_records(count: int, seed: int = 41) -> List[List[float]]:
    """Reflection fragment records: reflection vector + uv (5 words)."""
    return _records(count, seed, (_UNIT, (0.0, 1.0, 2)))


#: the skinning palette holds 24 matrices of 12 entries = 288 indexed
#: constants (Table 2)
SKINNING_PALETTE_MATRICES = 24
SKINNING_MAX_BONES = 4


def skinning_records(
    count: int, seed: int = 43, max_bones: int = SKINNING_MAX_BONES
) -> List[List[float]]:
    """Vertex-skinning records; bone counts vary per vertex (1..max).

    The distribution skews toward 2 bones (typical character meshes), so
    MIMD execution skips roughly half of the worst-case work — the
    paper's data-dependent-branching argument.

    Per record: position (3 ``uniform``), normal (a unit vector), the
    bone count (``choices`` over 1..max weighted 2:4:2:1), ``max_bones``
    palette indices (``randrange(24)``) and one ``uniform(0.1, 1.0)``
    blend weight per bone, sorted and normalized.  Records are chained
    in bulk assuming each normal takes its first try; a record whose
    normal does not is read try by try, and the chain resumes after it.
    """
    weights = [2, 4, 2, 1][:max_bones]
    if len(weights) != max_bones:
        raise ValueError("The number of weights does not match the population")
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    slots = np.arange(max_bones)

    def scan(w: np.ndarray, want: int):
        n = len(w)
        d = _draw.doubles(w)
        # choices: population[bisect(cum, random() * total, 0, hi)],
        # hi = max_bones - 1, read at every word
        x = d * total
        bones_at = np.ones(n - 1, dtype=np.int64)
        for c in cum[:-1]:
            bones_at += x >= c
        del x
        palette = SKINNING_PALETTE_MATRICES
        hit = _draw.tries(w, palette) < palette
        # next_hit[i]: the first accepted palette index at or after word i
        first_hit = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(hit, out=first_hit[1:])
        next_hit = np.append(np.flatnonzero(hit), n)[first_hit]
        del hit, first_hit

        def after_normal(q: np.ndarray, picks: Optional[list] = None):
            """Bone counts and ends of the records whose normal ends at
            word q; ``picks`` collects their index words."""
            bones = bones_at[np.minimum(q, n - 2)]
            j = q + 2
            for _ in range(max_bones):
                j = next_hit[np.minimum(j, n)]
                if picks is not None:
                    picks.append(j)
                j = j + 1
            j += 2 * bones
            return bones, np.where(q <= n - 2, j, n + 1)

        chain = after_normal(np.arange(12, n + 12))[1]
        starts, units, norms = [], [], []
        p = 0
        while len(starts) < want:
            first = len(starts)
            while len(starts) < want and p < n and chain[p] <= n:
                starts.append(p)
                p = int(chain[p])
            norm = _norms(d, np.array(starts[first:], dtype=np.int64) + 6)
            ok = norm > 1e-3
            good = len(ok) if ok.all() else int(np.argmin(ok))
            units.extend(s + 6 for s in starts[first:first + good])
            norms.extend(norm[:good].tolist())
            if good == len(ok):
                break
            # the record at starts[first + good] rejects a try
            p = starts[first + good]
            del starts[first + good:]
            found = _unit_at(d, p + 6)
            if found is None:
                break
            end = int(after_normal(np.array([found[0] + 6]))[1][0])
            if end > n:
                break
            starts.append(p)
            units.append(found[0])
            norms.append(found[1])
            p = end
        if not starts:
            return [], 0
        start, unit, norm = np.array(starts), np.array(units), np.array(norms)
        index_words: list = []
        bones, end = after_normal(unit + 6, index_words)
        picks = np.stack(index_words, axis=-1)
        # the blend weights: sorted, summed and divided as the scalar code
        # does, on Python floats
        raw = _draw.uniform(
            d[np.minimum((end - 2 * bones)[:, None] + 2 * slots, n - 2)],
            0.1, 1.0,
        ).tolist()
        zeros = [0.0] * max_bones
        records = np.hstack((
            _draw.uniform(d[start[:, None] + _XYZ], -10.0, 10.0),
            _vectors(d, unit) / norm[:, None],
            _draw.tries(w[picks], palette).astype(np.float64),
        )).tolist()
        for record, weights, k in zip(records, raw, bones.tolist()):
            weights = sorted(weights[:k])
            weight_sum = sum(weights)
            record += [r / weight_sum for r in weights]
            record += zeros[k:]
            record += [float(k), 0.0]
        return records, int(end[-1])

    # 6 + 6 + 2 words, ~5.3 for 4 indices, ~4.4 for 2.2 weights, + slack
    return _draw.walk(random.Random(seed), count, 26, scan)


ANISO_MAX_TAPS = 16


def anisotropic_records(
    count: int, seed: int = 47, max_taps: int = ANISO_MAX_TAPS
) -> List[List[float]]:
    """Anisotropic-filter records; tap counts vary with the footprint.

    Per record: uv (2 ``uniform(0, 1)``), du/dx, dv/dx, du/dy, dv/dy
    (4 ``uniform(-0.05, 0.05)``), then the lod (``uniform(0, 4)``).
    """
    r = _draw.randoms(random.Random(seed), 7 * count).reshape(count, 7)
    derivatives = _draw.uniform(r[:, 2:6], -0.05, 0.05)
    dx0, dx1, dy0, dy1 = derivatives.T.tolist()
    # the footprint's axis lengths; ``**`` stays on Python floats
    x_len, y_len = (
        np.array([(a ** 2 + b ** 2) ** 0.5 for a, b in zip(u, v)])
        for u, v in ((dx0, dx1), (dy0, dy1))
    )
    anisotropy = np.maximum(1e-6, x_len) / np.maximum(1e-6, y_len)
    doubled = (np.maximum(anisotropy, 1.0 / anisotropy) * 2).tolist()
    taps = np.maximum(1, np.minimum(max_taps, [round(t) for t in doubled]))
    records = np.hstack((
        _draw.uniform(r[:, 0:2], 0.0, 1.0),
        derivatives,
        taps.reshape(count, 1).astype(np.float64),
        _draw.uniform(r[:, 6:7], 0.0, 4.0),
    )).tolist()
    for record in records:
        record.append(0.0)
    return records
