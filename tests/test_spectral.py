import re

import numpy as np
import pytest
import scipy.fft

from unrolled_deblur import spectral
from unrolled_deblur.errors import (DimensionMismatch, ImaginaryResidue,
                                    KernelTooLarge)


def direct_circ_conv(a, b):
    """O(H*W*H*W) wrapped double sum, the convolution oracle."""
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            s = 0.0
            for p in range(h):
                for q in range(w):
                    s += a[p, q] * b[(i - p) % h, (j - q) % w]
            out[i, j] = s
    return out


def test_fft2_constant_plane():
    spec = spectral.fft2(np.ones((2, 2)))
    assert np.allclose(spec, [[4.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_fft2_impulse_is_flat():
    plane = np.zeros((4, 4))
    plane[0, 0] = 1.0
    assert np.allclose(spectral.fft2(plane), np.ones((4, 4)), atol=1e-14)


SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 7), (6, 1), (2, 9), (8, 2),
         (7, 7), (8, 8), (9, 6), (12, 5), (5, 16), (64, 36)]


@pytest.mark.parametrize("h, w", SIZES)
def test_fft2_real_input_matches_numpy(rng, h, w):
    p = rng.standard_normal((h, w))
    expect = np.fft.fft2(p)
    got = spectral.fft2(p)
    assert got.shape == (h, w) and got.dtype == np.complex128
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("h, w", SIZES)
def test_fft2_real_input_is_exactly_hermitian(rng, h, w):
    # Hermitian to rounding only: at some sizes with an even H (6, 12, 36,
    # ...) pocketfft's real transform misses the mirror by about eps*max|X|
    spec = spectral.fft2(rng.standard_normal((h, w)))
    mirror = np.conj(spec[(-np.arange(h)) % h][:, (-np.arange(w)) % w])
    eps = np.finfo(np.float64).eps
    assert np.abs(spec - mirror).max() <= 4 * eps * np.abs(spec).max()


def test_fft2_real_stack_equals_each_plane(rng):
    stack = rng.standard_normal((2, 3, 9, 6))
    spec = spectral.fft2(stack)
    assert spec.shape == stack.shape
    for idx in np.ndindex(2, 3):
        assert np.array_equal(spec[idx], spectral.fft2(stack[idx]))


def test_fft2_complex_input_is_numpys(rng):
    z = rng.standard_normal((3, 9, 6)) + 1j * rng.standard_normal((3, 9, 6))
    assert np.array_equal(spectral.fft2(z), scipy.fft.fft2(z))
    assert np.array_equal(spectral.fft2(z[0]), scipy.fft.fft2(z[0]))


def test_ifft2_flat_spectrum_is_impulse():
    plane = spectral.ifft2(np.ones((4, 4), dtype=complex))
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.allclose(plane, expect, atol=1e-14)


def test_ifft2_constant_spectrum():
    c = 0.7
    plane = spectral.ifft2(np.array([[4 * c, 0.0], [0.0, 0.0]], dtype=complex))
    assert np.allclose(plane, c, atol=1e-14)


def test_roundtrip_random(rng):
    p = rng.random((8, 8))
    assert np.abs(spectral.ifft2(spectral.fft2(p)) - p).max() < 1e-12


def test_roundtrip_rectangular(rng):
    p = rng.random((5, 9))
    assert np.abs(spectral.ifft2(spectral.fft2(p)) - p).max() < 1e-10


def test_parseval(rng):
    p = rng.random((12, 7))
    space = np.sum(p ** 2)
    freq = np.sum(np.abs(spectral.fft2(p)) ** 2) / p.size
    assert abs(space - freq) / space < 1e-8


def test_ifft2_rejects_asymmetric_spectrum(rng):
    spec = rng.random((4, 4)) + 1j * rng.random((4, 4))
    with pytest.raises(ImaginaryResidue):
        spectral.ifft2(spec)


def test_ifft2_checks_residue_per_plane(rng):
    # one plane carries 1e-4 of its energy in the imaginary part; pooled
    # with 99 planes of 1e4x the energy it falls below IMAG_ENERGY_TOL, so
    # only a per-plane check sees it
    planes = rng.standard_normal((100, 8, 8))
    planes[1:] *= 100.0
    spec = spectral.fft2(planes)
    spec[0] += spectral.fft2(1e-2 * planes[0]) * 1j
    out = np.fft.ifft2(spec)
    pooled = np.sum(out.imag ** 2) / np.sum(np.abs(out) ** 2)
    assert pooled < spectral.IMAG_ENERGY_TOL
    with pytest.raises(ImaginaryResidue):
        spectral.ifft2(spec)
    assert np.array_equal(spectral.ifft2(spec[1:]),
                          scipy.fft.ifft2(spec[1:]).real)


def test_ifft2_names_a_bad_middle_plane(rng):
    # only plane (1, 2) of a (3, 4) stack carries 1e-4 of its energy in
    # the imaginary part; the message reports that plane's energies
    planes = rng.standard_normal((3, 4, 8, 8))
    spec = spectral.fft2(planes)
    spec[1, 2] += spectral.fft2(1e-2 * planes[1, 2]) * 1j
    bad = scipy.fft.ifft2(spec[1, 2])
    imag = np.sum(bad.imag ** 2)
    message = "imaginary energy %.3e exceeds %g of total %.3e" % (
        imag, spectral.IMAG_ENERGY_TOL, np.sum(bad.real ** 2) + imag)
    with pytest.raises(ImaginaryResidue, match=re.escape(message)):
        spectral.ifft2(spec)
    spec[1, 2] = spectral.fft2(planes[1, 2])
    assert np.abs(spectral.ifft2(spec) - planes).max() < 1e-12


def test_ifft2_stack_equals_each_plane(rng):
    spec = spectral.fft2(rng.standard_normal((2, 3, 9, 6)))
    planes = spectral.ifft2(spec)
    assert planes.dtype == np.float64 and planes.flags.c_contiguous
    for idx in np.ndindex(2, 3):
        assert np.array_equal(planes[idx], spectral.ifft2(spec[idx]))


def test_stacked_embedding_matches_each_kernel(rng):
    stack = rng.standard_normal((2, 3, 5, 5))
    planes = spectral.embed_kernels(stack, 7, 6)
    assert planes.shape == (2, 3, 7, 6)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(planes[idx], spectral.embed_kernel(stack[idx], 7, 6))
    assert np.array_equal(spectral.wrap_window(planes, 5), stack)
    with pytest.raises(DimensionMismatch):
        spectral.embed_kernel(stack[0], 7, 6)  # user kernels stay 2-D


def test_embed_kernel_impulse():
    k = np.zeros((3, 3))
    k[1, 1] = 1.0
    plane = spectral.embed_kernel(k, 8, 8)
    expect = np.zeros((8, 8))
    expect[0, 0] = 1.0
    assert np.array_equal(plane, expect)


def test_embed_kernel_wraps_to_borders():
    k = np.full((3, 3), 1.0 / 9.0)
    plane = spectral.embed_kernel(k, 4, 4)
    # offsets {-1,0,1}^2 wrap to rows/cols {3,0,1}
    expect = np.zeros((4, 4))
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            expect[dr % 4, dc % 4] = 1.0 / 9.0
    assert np.allclose(plane, expect)
    assert abs(plane.sum() - 1.0) < 1e-15


def test_embed_kernel_too_large():
    with pytest.raises(KernelTooLarge):
        spectral.embed_kernel(np.full((5, 5), 0.04), 3, 8)


def test_embed_matches_direct_convolution(rng, make_kernel):
    k = make_kernel(3)
    x = rng.random((8, 8))
    via_spec = spectral.circ_conv(x, spectral.embed_kernel(k, 8, 8))
    oracle = direct_circ_conv(x, spectral.embed_kernel(k, 8, 8))
    assert np.abs(via_spec - oracle).max() < 1e-10


def test_wrap_window_inverts_embed(make_kernel):
    k = make_kernel(5)
    plane = spectral.embed_kernel(k, 12, 12)
    assert np.abs(spectral.wrap_window(plane, 5) - k).max() < 1e-15


def test_circ_conv_impulse_identity(rng):
    x = rng.random((6, 6))
    imp = np.zeros((6, 6))
    imp[0, 0] = 1.0
    assert np.abs(spectral.circ_conv(x, imp) - x).max() < 1e-12


def test_circ_conv_commutes(rng):
    a, b = rng.random((8, 8)), rng.random((8, 8))
    ab = spectral.circ_conv(a, b)
    ba = spectral.circ_conv(b, a)
    assert np.abs(ab - ba).max() < 1e-12


def test_circ_conv_shape_error():
    with pytest.raises(DimensionMismatch):
        spectral.circ_conv(np.ones((2, 2)), np.ones((4, 4)))


def test_circ_conv_against_double_sum(rng):
    # the acceptance criterion runs 50 instances; keep a smaller smoke copy here
    for _ in range(5):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a, b = rng.random((h, w)), rng.random((h, w))
        assert np.abs(spectral.circ_conv(a, b) - direct_circ_conv(a, b)).max() < 1e-10
