"""Image-domain workloads (multimedia kernels).

Records follow Table 2: ``convert`` reads 3 words (R, G, B) per pixel;
``highpassfilter`` reads a 3x3 neighborhood (9 words); ``dct`` reads a
full 8x8 block (64 words).
"""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np

from . import _draw

#: (dy, dx) of a 3x3 neighborhood, row-major
_DY = np.repeat([-1, 0, 1], 3)
_DX = np.tile([-1, 0, 1], 3)


def rgb_pixels(count: int, seed: int = 7) -> List[List[float]]:
    """``count`` RGB pixel records (components in 0..255)."""
    rng = random.Random(seed)
    pixels = _draw.randbelow(rng, 256, 3 * count).reshape(count, 3)
    return pixels.astype(np.float64).tolist()


def _image(width: int, height: int, seed: int) -> np.ndarray:
    """A ``height`` x ``width`` float64 image, drawn row by row."""
    rng = random.Random(seed)
    # A smooth-ish field (sums of low-frequency terms plus noise) so the
    # filters and DCT see realistic spectra rather than white noise.
    fx = rng.uniform(0.05, 0.2)
    fy = rng.uniform(0.05, 0.2)
    # 128 + 80 sin(fx x) cos(fy y) + noise, in the scalar order; sin and
    # cos stay on Python floats, once per column and once per row.
    column = np.array([80.0 * math.sin(fx * x) for x in range(width)])
    row = np.array([math.cos(fy * y) for y in range(height)])
    noise = _draw.uniforms(rng, -16.0, 16.0, width * height)
    value = np.multiply.outer(row, column)
    value += 128.0
    value += noise.reshape(height, width)
    np.minimum(value, 255.0, out=value)
    return np.maximum(value, 0.0, out=value)


def neighborhood_records(count: int, seed: int = 11) -> List[List[float]]:
    """``count`` 3x3 neighborhoods (9 words each) from a synthetic image."""
    side = max(8, int(count ** 0.5) + 3)
    image = _image(side, side, seed)
    rng = random.Random(seed + 1)
    # x = randrange(1, side - 1), then y, per record
    xy = _draw.randbelow(rng, side - 2, 2 * count).reshape(count, 2)
    xy = xy.astype(np.int64) + 1
    cells = ((xy[:, 1:2] + _DY) * side + xy[:, 0:1] + _DX).tolist()
    # records share the image's float objects, as they always have
    values = image.ravel().tolist()
    return [[values[i] for i in cell] for cell in cells]


def image_blocks_8x8(count: int, seed: int = 13) -> List[List[float]]:
    """``count`` 8x8 image blocks (64 words each, row-major)."""
    image = _image(8 * count, 8, seed)
    blocks = image.reshape(8, count, 8).transpose(1, 0, 2)
    return blocks.reshape(count, 64).tolist()
