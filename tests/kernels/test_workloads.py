"""Workload generators: exactness, shapes, determinism, distributions.

The generators in :mod:`repro.workloads` draw their random streams in
bulk (:mod:`repro.workloads._draw`).  The scalar generators they replace
are kept below, verbatim, as the executable reference: every registry
kernel's record stream must equal it value for value and type for type,
and the bulk helpers must equal ``random.Random`` draw for draw,
including the generator state they leave behind.
"""

import cmath
import math
import random
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.kernels import all_specs, spec
from repro.workloads import _draw, matrices
from repro.workloads.matrices import lu_update_records
from repro.workloads.packets import PACKET_BYTES


# ---- the scalar reference (verbatim) ----------------------------------------

def packet_stream(count: int, seed: int = 23) -> List[bytes]:
    """``count`` random 1500-byte packets."""
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(PACKET_BYTES)) for _ in range(count)]


def _pad_to(data: bytes, multiple: int) -> bytes:
    if len(data) % multiple:
        data += b"\x00" * (multiple - len(data) % multiple)
    return data


def _words_be(data: bytes) -> List[int]:
    """Pack bytes into big-endian 64-bit words."""
    return [
        int.from_bytes(data[i : i + 8], "big") for i in range(0, len(data), 8)
    ]


def packet_block_records(
    packets: List[bytes], block_bytes: int, limit: int = 0
) -> List[List[int]]:
    """Chop packets into cipher blocks packed as 64-bit-word records.

    ``block_bytes`` is 8 for Blowfish (1-word records) and 16 for
    Rijndael (2-word records).  ``limit`` truncates the stream (0 = all).
    """
    if block_bytes % 8:
        raise ValueError("block size must be a whole number of 64-bit words")
    records: List[List[int]] = []
    for packet in packets:
        data = _pad_to(packet, block_bytes)
        for i in range(0, len(data), block_bytes):
            records.append(_words_be(data[i : i + block_bytes]))
            if limit and len(records) >= limit:
                return records
    return records


#: MD5's standard initial chaining state (A, B, C, D), packed two 32-bit
#: halves per record word: word = (first << 32) | second.
MD5_IV_WORDS = [
    (0x67452301 << 32) | 0xEFCDAB89,
    (0x98BADCFE << 32) | 0x10325476,
]


def md5_block_records(
    packets: List[bytes], limit: int = 0, iv: List[int] = None
) -> List[List[int]]:
    """512-bit MD5 message blocks with chaining state: 10-word records.

    Record layout: 8 words of message (each packing two little-endian
    32-bit message words, first in the high half) followed by 2 words of
    chaining state.  Each record is independent (the data-parallel
    formulation digests blocks from many packets concurrently, as in
    per-packet checksums).
    """
    state = iv or MD5_IV_WORDS
    records: List[List[int]] = []
    for packet in packets:
        data = _pad_to(packet, 64)
        for i in range(0, len(data), 64):
            chunk = data[i : i + 64]
            message_words = []
            for j in range(0, 64, 8):
                lo = int.from_bytes(chunk[j : j + 4], "little")
                hi = int.from_bytes(chunk[j + 4 : j + 8], "little")
                message_words.append((lo << 32) | hi)
            records.append(message_words + list(state))
            if limit and len(records) >= limit:
                return records
    return records


def rgb_pixels(count: int, seed: int = 7) -> List[List[float]]:
    """``count`` RGB pixel records (components in 0..255)."""
    rng = random.Random(seed)
    return [
        [float(rng.randrange(256)) for _ in range(3)] for _ in range(count)
    ]


def _image(width: int, height: int, seed: int) -> List[List[float]]:
    rng = random.Random(seed)
    # A smooth-ish field (sums of low-frequency terms plus noise) so the
    # filters and DCT see realistic spectra rather than white noise.
    import math

    image = []
    fx = rng.uniform(0.05, 0.2)
    fy = rng.uniform(0.05, 0.2)
    for y in range(height):
        row = []
        for x in range(width):
            value = (
                128.0
                + 80.0 * math.sin(fx * x) * math.cos(fy * y)
                + rng.uniform(-16.0, 16.0)
            )
            row.append(max(0.0, min(255.0, value)))
        image.append(row)
    return image


def neighborhood_records(count: int, seed: int = 11) -> List[List[float]]:
    """``count`` 3x3 neighborhoods (9 words each) from a synthetic image."""
    side = max(8, int(count ** 0.5) + 3)
    image = _image(side, side, seed)
    records = []
    rng = random.Random(seed + 1)
    for _ in range(count):
        x = rng.randrange(1, side - 1)
        y = rng.randrange(1, side - 1)
        records.append(
            [image[y + dy][x + dx] for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        )
    return records


def image_blocks_8x8(count: int, seed: int = 13) -> List[List[float]]:
    """``count`` 8x8 image blocks (64 words each, row-major)."""
    image = _image(8 * count, 8, seed)
    records = []
    for b in range(count):
        block = []
        for y in range(8):
            block.extend(image[y][8 * b : 8 * b + 8])
        records.append(block)
    return records


def fft_input(n: int = 1024, seed: int = 17) -> List[complex]:
    """A deterministic complex input signal of length ``n`` (power of 2)."""
    if n & (n - 1):
        raise ValueError(f"FFT size must be a power of two, got {n}")
    rng = random.Random(seed)
    return [
        complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        for _ in range(n)
    ]


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
    records: List[List[float]] = []
    pairs: List[Tuple[int, int]] = []
    for block in range(0, n, span * 2):
        for k in range(span):
            top = block + k
            bottom = top + span
            w = cmath.exp(-2j * math.pi * k / (span * 2))
            a, b = data[top], data[bottom]
            records.append([a.real, a.imag, b.real, b.imag, w.real, w.imag])
            pairs.append((top, bottom))
    return records, pairs


def bit_reverse_permute(data: Sequence[complex]) -> List[complex]:
    """Bit-reversal reorder (the FFT driver's input permutation)."""
    n = len(data)
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
    rng = random.Random(seed)
    matrix = [
        [rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)
    ]
    for i in range(n):
        matrix[i][i] += n  # diagonal dominance: no pivoting needed
    return matrix


def _unit(rng: random.Random) -> List[float]:
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        norm = sum(c * c for c in v) ** 0.5
        if norm > 1e-3:
            return [c / norm for c in v]


def vertex_records(count: int, seed: int = 29) -> List[List[float]]:
    """Vertex records: position, normal, per-vertex shade (7 words)."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        pos = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        normal = _unit(rng)
        shade = rng.uniform(0.0, 1.0)
        records.append(pos + normal + [shade])
    return records


def fragment_records(count: int, seed: int = 31) -> List[List[float]]:
    """Fragment records: position, normal, uv (8 words)."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        pos = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        normal = _unit(rng)
        uv = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        records.append(pos + normal + uv)
    return records


def reflection_vertex_records(count: int, seed: int = 37) -> List[List[float]]:
    """Reflective-surface vertex records (9 words)."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        pos = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        normal = _unit(rng)
        eye = _unit(rng)
        records.append(pos + normal + eye)
    return records


def reflection_fragment_records(count: int, seed: int = 41) -> List[List[float]]:
    """Reflection fragment records: reflection vector + uv (5 words)."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        refl = _unit(rng)
        uv = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        records.append(refl + uv)
    return records


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
    """
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        pos = [rng.uniform(-10.0, 10.0) for _ in range(3)]
        normal = _unit(rng)
        bones = rng.choices(
            range(1, max_bones + 1), weights=[2, 4, 2, 1][:max_bones]
        )[0]
        indices = [
            float(rng.randrange(SKINNING_PALETTE_MATRICES))
            for _ in range(max_bones)
        ]
        raw = sorted(rng.uniform(0.1, 1.0) for _ in range(bones))
        weights = [0.0] * max_bones
        total = sum(raw)
        for b in range(bones):
            weights[b] = raw[b] / total
        records.append(
            pos + normal + indices + weights + [float(bones), 0.0]
        )
    return records


ANISO_MAX_TAPS = 16


def anisotropic_records(
    count: int, seed: int = 47, max_taps: int = ANISO_MAX_TAPS
) -> List[List[float]]:
    """Anisotropic-filter records; tap counts vary with the footprint."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        uv = [rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)]
        dx = [rng.uniform(-0.05, 0.05) for _ in range(2)]
        dy = [rng.uniform(-0.05, 0.05) for _ in range(2)]
        anisotropy = max(
            1e-6,
            (dx[0] ** 2 + dx[1] ** 2) ** 0.5,
        ) / max(1e-6, (dy[0] ** 2 + dy[1] ** 2) ** 0.5)
        ratio = max(anisotropy, 1.0 / anisotropy)
        taps = max(1, min(max_taps, int(round(ratio * 2))))
        lod = rng.uniform(0.0, 4.0)
        records.append(uv + dx + dy + [float(taps), lod, 0.0])
    return records


# ---- each kernel's workload, over the reference ------------------------------


def _ref_md5(count, seed=23):
    packets = packet_stream(max(1, count // 24 + 1), seed)
    return md5_block_records(packets, limit=count)


def _ref_blowfish(count, seed=23):
    packets = packet_stream(max(1, count // 188 + 1), seed)
    return packet_block_records(packets, block_bytes=8, limit=count)


def _ref_rijndael(count, seed=23):
    packets = packet_stream(max(1, count // 94 + 1), seed)
    return packet_block_records(packets, block_bytes=16, limit=count)


def _ref_fft(count, seed=17):
    n = 1024
    data = bit_reverse_permute(fft_input(n, seed))
    records = []
    stage = 0
    while len(records) < count:
        stage_records, _ = butterfly_records(data, stage % 10)
        records.extend(stage_records)
        stage += 1
    return records[:count]


def _ref_lu(count, seed=19):
    n = max(16, int(count ** 0.5) + 2)
    matrix = lu_matrix(n, seed)
    records = []
    k = 0
    while len(records) < count and k < n - 1:
        for i in range(k + 1, n):
            _, recs = lu_update_records(matrix, k, i)
            records.extend(recs)
            if len(records) >= count:
                break
        k += 1
    return records[:count]


def _defaulted(fn, seed):
    def workload(count, seed=seed):
        return fn(count, seed)
    return workload


REFERENCE = {
    "convert": _defaulted(rgb_pixels, 7),
    "dct": _defaulted(image_blocks_8x8, 13),
    "highpassfilter": _defaulted(neighborhood_records, 11),
    "fft": _ref_fft,
    "lu": _ref_lu,
    "md5": _ref_md5,
    "blowfish": _ref_blowfish,
    "rijndael": _ref_rijndael,
    "vertex-simple": _defaulted(vertex_records, 29),
    "fragment-simple": _defaulted(fragment_records, 31),
    "vertex-reflection": _defaulted(reflection_vertex_records, 37),
    "fragment-reflection": _defaulted(reflection_fragment_records, 41),
    "vertex-skinning": _defaulted(skinning_records, 43),
    "anisotropic-filter": _defaulted(anisotropic_records, 47),
}


def _leaves(records):
    return [value for record in records for value in record]


def assert_identical(got, want):
    """Equal values of equal types, and zeros of equal sign."""
    assert got == want
    got_leaves, want_leaves = _leaves(got), _leaves(want)
    assert [type(v) for v in got_leaves] == [type(v) for v in want_leaves]
    assert [repr(v) for v in got_leaves if v == 0] == [
        repr(v) for v in want_leaves if v == 0
    ]


# Counts cross the packet boundaries (24 md5, 94 rijndael and 188
# blowfish records per packet) and the draw chunks.
COUNTS = [1, 2, 7, 23, 24, 25, 64, 93, 94, 95, 128, 187, 188, 189, 512,
          1000, 3000]
SEEDS = [None, 0, 1, 100, 123, 2**32 + 5]


class TestExactStreams:
    """Every kernel's stream equals the scalar reference exactly."""

    @pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"seed={s}")
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_stream_equals_reference(self, name, seed):
        workload = spec(name).workload
        reference = REFERENCE[name]
        for count in COUNTS:
            if seed is None:
                got, want = workload(count), reference(count)
            else:
                got, want = workload(count, seed), reference(count, seed)
            assert_identical(got, want)

    def test_every_registry_kernel_has_a_reference(self):
        assert sorted(s.name for s in all_specs()) == sorted(REFERENCE)

    def test_packets_equal_reference(self):
        for count in (0, 1, 3):
            assert workloads.packet_stream(count, 5) == packet_stream(count, 5)

    def test_block_records_of_odd_packets(self):
        packets = [b"", b"\x01" * 7, bytes(range(200))]
        for block in (8, 16):
            for limit in (0, 1, 5, 100):
                assert workloads.packet_block_records(
                    packets, block, limit
                ) == packet_block_records(packets, block, limit)
        for limit in (0, 1, 3, 100):
            assert workloads.md5_block_records(
                packets, limit
            ) == md5_block_records(packets, limit)

    def test_scientific_helpers_equal_reference(self):
        data = fft_input(64, 3)
        assert workloads.fft_input(64, 3) == data
        assert matrices.bit_reverse_permute(data) == bit_reverse_permute(
            data
        )
        for stage in range(6):
            assert workloads.butterfly_records(
                data, stage
            ) == butterfly_records(data, stage)
        for n in (0, 1, 5, 40):
            assert_identical(workloads.lu_matrix(n, 4), lu_matrix(n, 4))

    def test_empty_streams(self):
        for name in REFERENCE:
            assert spec(name).workload(0, 3) == REFERENCE[name](0, 3)


def _after(rng):
    """The value that shows where a generator's stream stands."""
    return rng.random()


BOUNDS = [1, 2, 3, 24, 255, 256, 257, 1000, 2**31, 2**31 + 1, 2**32 - 1]


class TestBulkDraws:
    """The bulk helpers equal ``random.Random`` and leave its state."""

    @pytest.mark.parametrize("n", BOUNDS)
    def test_randbelow_equals_randrange(self, n):
        for count in (0, 1, 5, 1000, 20000):
            rng, ref = random.Random(n + count), random.Random(n + count)
            got = _draw.randbelow(rng, n, count).tolist()
            assert got == [ref.randrange(n) for _ in range(count)]
            assert all(type(v) is int for v in got)
            assert _after(rng) == _after(ref)

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**32 + 1, 2**40])
    def test_randbelow_refuses_bounds_past_one_word(self, n):
        rng = random.Random(1)
        with pytest.raises(ValueError, match=r"\[1, 2\*\*32\)"):
            _draw.randbelow(rng, n, 3)
        assert _after(rng) == _after(random.Random(1))

    def test_randoms_equal_random(self):
        for count in (0, 1, 7, 5000):
            rng, ref = random.Random(count), random.Random(count)
            got = _draw.randoms(rng, count).tolist()
            assert got == [ref.random() for _ in range(count)]
            assert _after(rng) == _after(ref)

    @pytest.mark.parametrize(
        "a, b",
        [(-1.0, 1.0), (0.05, 0.2), (-16.0, 16.0), (0.1, 1.0), (-10.0, 10.0),
         (3, 7)],
    )
    def test_uniforms_equal_uniform(self, a, b):
        rng, ref = random.Random(9), random.Random(9)
        got = _draw.uniforms(rng, a, b, 3000).tolist()
        assert got == [ref.uniform(a, b) for _ in range(3000)]
        assert all(type(v) is float for v in got)
        assert _after(rng) == _after(ref)

    def test_draws_compose_on_one_generator(self):
        rng, ref = random.Random(77), random.Random(77)
        assert _draw.randbelow(rng, 24, 10).tolist() == [
            ref.randrange(24) for _ in range(10)
        ]
        assert _draw.uniforms(rng, -1.0, 1.0, 9).tolist() == [
            ref.uniform(-1.0, 1.0) for _ in range(9)
        ]
        assert _draw.words(rng, 3).tolist() == [
            ref.getrandbits(32) for _ in range(3)
        ]
        assert _draw.randbelow(rng, 1000, 5).tolist() == [
            ref.randrange(1000) for _ in range(5)
        ]
        assert _after(rng) == _after(ref)

    def test_walk_reads_variable_records_and_rewinds(self):
        """A toy record: a ``randrange(24)``, then a ``random()``."""

        def scan(w, want):
            index = _draw.tries(w, 24)
            d = _draw.doubles(w)
            out, p = [], 0
            for i in np.flatnonzero(index < 24).tolist():
                if len(out) == want:
                    break
                if i < p:
                    continue
                if i + 3 > len(w):
                    break
                out.append((int(index[i]), float(d[i + 1])))
                p = i + 3
            return out, p

        for count in (0, 1, 50, 3000):
            rng, ref = random.Random(count), random.Random(count)
            got = _draw.walk(rng, count, 3, scan)
            assert got == [
                (ref.randrange(24), ref.random()) for _ in range(count)
            ]
            assert _after(rng) == _after(ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2**32 - 1),
        count=st.integers(0, 400),
        seed=st.integers(0, 2**64),
    )
    def test_randbelow_property(self, n, count, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        assert _draw.randbelow(rng, n, count).tolist() == [
            ref.randrange(n) for _ in range(count)
        ]
        assert _after(rng) == _after(ref)


def _untemper(y):
    """Invert MT19937's output tempering."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t & 0xFFFFFFFF
    t = y
    for _ in range(3):
        t = y ^ (t >> 11)
    return t & 0xFFFFFFFF


#: one unit-vector try that ``_unit`` rejects: random() = 0.5 three
#: times, so uniform(-1, 1) gives the zero vector
ZERO_TRY = [0x80000000, 0] * 3


def _rejecting(*words_at):
    """A ``random.Random`` state whose stream holds ``ZERO_TRY`` blocks.

    Each entry of ``words_at`` is a word offset where a rejected try
    starts; everything else is the stream of ``Random(5)``.
    """
    base = random.Random(5)
    stream = [base.getrandbits(32) for _ in range(624)]
    for at in words_at:
        stream[at:at + 6] = ZERO_TRY
    rng = random.Random()
    rng.setstate((3, tuple(_untemper(w) for w in stream) + (0,), None))
    return rng.getstate()


class TestRejectedTries:
    """Unit vectors whose first tries are rejected (never seen in practice)."""

    CRAFTED_SEED = 271828

    @pytest.fixture()
    def crafted(self, monkeypatch):
        original = random.Random
        states = {}

        class Crafted(original):
            def __init__(self, seed=None):
                super().__init__(seed)
                if seed in states:
                    self.setstate(states[seed])

        monkeypatch.setattr(random, "Random", Crafted)
        return states

    def test_crafted_state_emits_the_words(self):
        rng = random.Random()
        rng.setstate(_rejecting(6))
        assert [rng.getrandbits(32) for _ in range(12)][6:] == ZERO_TRY
        # the reference _unit rejects the zero try: it takes 12 words
        rng.setstate(_rejecting(0))
        _unit(rng)
        skipped = random.Random()
        skipped.setstate(_rejecting(0))
        _draw.words(skipped, 12)
        assert _after(rng) == _after(skipped)

    @pytest.mark.parametrize(
        "name, rejected",
        [
            ("vertex-simple", (6,)),
            ("vertex-simple", (6, 12, 48)),
            ("fragment-simple", (6, 12)),
            ("vertex-reflection", (6,)),
            ("vertex-reflection", (12, 18)),
            ("fragment-reflection", (0,)),
            ("fragment-reflection", (0, 6, 22)),
            ("vertex-skinning", (6,)),
            ("vertex-skinning", (6, 12)),
        ],
    )
    def test_rejected_tries_match_reference(self, crafted, name, rejected):
        crafted[self.CRAFTED_SEED] = _rejecting(*rejected)
        for count in (1, 2, 5, 40):
            got = spec(name).workload(count, self.CRAFTED_SEED)
            want = REFERENCE[name](count, self.CRAFTED_SEED)
            assert_identical(got, want)


class TestShapes:
    @pytest.mark.parametrize("s", all_specs(), ids=lambda s: s.name)
    def test_records_match_kernel_record_size(self, s):
        kernel = s.kernel()
        for record in s.workload(5):
            assert len(record) == kernel.record_in

    def test_packets_are_1500_bytes(self):
        assert all(
            len(p) == PACKET_BYTES for p in workloads.packet_stream(3)
        )

    def test_block_records_pack_whole_packets(self):
        packets = workloads.packet_stream(1)
        blocks = workloads.packet_block_records(packets, block_bytes=8)
        assert len(blocks) == (PACKET_BYTES + 7) // 8
        assert all(len(b) == 1 for b in blocks)

    def test_md5_records_carry_state(self):
        records = workloads.md5_block_records(
            workloads.packet_stream(1), limit=3
        )
        assert all(len(r) == 10 for r in records)


class TestDeterminism:
    def test_same_seed_same_workload(self):
        assert workloads.rgb_pixels(10, seed=1) == workloads.rgb_pixels(
            10, seed=1
        )
        assert workloads.skinning_records(
            10, seed=2
        ) == workloads.skinning_records(10, seed=2)

    def test_different_seed_different_workload(self):
        assert workloads.rgb_pixels(10, seed=1) != workloads.rgb_pixels(
            10, seed=2
        )


class TestDistributions:
    def test_pixels_in_range(self):
        for record in workloads.rgb_pixels(50):
            assert all(0.0 <= c <= 255.0 for c in record)

    def test_image_blocks_have_64_words(self):
        assert all(len(b) == 64 for b in workloads.image_blocks_8x8(4))

    def test_skinning_bone_counts_vary(self):
        counts = {int(r[14]) for r in workloads.skinning_records(200)}
        assert counts == {1, 2, 3, 4}

    def test_skinning_weights_sum_to_one_over_live_bones(self):
        for record in workloads.skinning_records(20):
            bones = int(record[14])
            weights = record[10:14]
            assert sum(weights[:bones]) == pytest.approx(1.0)
            assert all(w == 0.0 for w in weights[bones:])

    def test_anisotropic_tap_counts_bounded(self):
        taps = [int(r[6]) for r in workloads.anisotropic_records(100)]
        assert min(taps) >= 1
        assert max(taps) <= 16
        assert len(set(taps)) > 2  # genuinely data-dependent
