"""Whole-problem validation of the scientific kernels.

The paper's scientific benchmarks are a 1024-point FFT and a dense LU
decomposition; here the *kernel math* (the exact expressions the
dataflow graphs compute) is driven through the full problems and checked
against numpy.
"""

import numpy as np
import pytest

from repro.kernels.fft import fft_full
from repro.kernels.lu import lu_full
from repro.workloads.matrices import (
    bit_reverse_permute,
    butterfly_records,
    fft_input,
    lu_matrix,
)


class TestFullFft:
    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_matches_numpy(self, n):
        signal = fft_input(n, seed=3)
        ours = np.array(fft_full(signal))
        theirs = np.fft.fft(np.array(signal))
        assert np.allclose(ours, theirs, rtol=1e-9, atol=1e-9)

    def test_stage_record_counts(self):
        data = bit_reverse_permute(fft_input(64))
        for stage in range(6):
            records, pairs = butterfly_records(data, stage)
            assert len(records) == 32  # n/2 butterflies per stage
            assert all(b - t == 1 << stage for t, b in pairs)

    def test_bit_reverse_is_an_involution(self):
        data = fft_input(32)
        assert bit_reverse_permute(bit_reverse_permute(data)) == data

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft_input(100)

    @pytest.mark.parametrize("n", [3, 6, 100])
    def test_permute_and_full_fft_reject_non_powers_of_two(self, n):
        signal = [complex(i, -i) for i in range(n)]
        message = f"FFT size must be a power of two, got {n}"
        with pytest.raises(ValueError, match=message):
            bit_reverse_permute(signal)
        with pytest.raises(ValueError, match=message):
            fft_full(signal)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_sizes_still_permute(self, n):
        data = [complex(i, 0) for i in range(n)]
        assert bit_reverse_permute(data) == data


class TestFullLu:
    @pytest.mark.parametrize("n", [4, 16, 48])
    def test_l_times_u_reconstructs_a(self, n):
        matrix = lu_matrix(n, seed=5)
        lower, upper = lu_full(matrix)
        reconstructed = np.array(lower) @ np.array(upper)
        assert np.allclose(reconstructed, np.array(matrix), rtol=1e-8)

    def test_matches_scipy_factorization(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        matrix = np.array(lu_matrix(24, seed=9))
        lower, upper = lu_full(matrix.tolist())
        # Diagonally dominant: scipy's pivoting should be the identity.
        p, l, u = scipy_linalg.lu(matrix)
        assert np.allclose(p, np.eye(24))
        assert np.allclose(np.array(lower), l, rtol=1e-8, atol=1e-8)
        assert np.allclose(np.array(upper), u, rtol=1e-8, atol=1e-8)

    def test_unit_lower_triangular(self):
        lower, upper = lu_full(lu_matrix(8))
        lower = np.array(lower)
        upper = np.array(upper)
        assert np.allclose(np.diag(lower), 1.0)
        assert np.allclose(lower, np.tril(lower))
        assert np.allclose(upper, np.triu(upper))
