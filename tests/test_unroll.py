"""Layer updates of the unrolled solver.

The closed-form updates are checked against per-frequency scalar solves
written as plain loops, and against the variational property that a
minimizer cannot be improved by small perturbations.
"""

import collections
import dataclasses
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from unrolled_deblur import autodiff as ad
from unrolled_deblur import kernelgen, spectral, unroll
from unrolled_deblur.errors import (DimensionMismatch, EvenSize,
                                    KernelTooLarge, NonFiniteInput,
                                    ReleasedValue, SingularDenominator)
from unrolled_deblur.training import TrainConfig, init_params, loss_terms

import composed
from composed import kernel_form
from test_edge_images import IMAGES


def conv_full_oracle(a, b):
    """Zero-padded full convolution as an explicit double sum."""
    ah, aw = a.shape
    bh, bw = b.shape
    out = np.zeros((ah + bh - 1, aw + bw - 1))
    for i in range(ah):
        for j in range(aw):
            out[i:i + bh, j:j + bw] += a[i, j] * b
    return out


def filter_planes(image, bank):
    """Circular convolution of an image with each filter of a bank."""
    h, w = image.shape
    return [spectral.circ_conv(spectral.embed_kernel(f, h, w), image)
            for f in bank]


def bank_spectra(bank, h, w):
    """Half spectra of a bank's filters embedded on an (h, w) grid."""
    return spectral.rfft2(spectral.embed_kernels(bank, h, w))


def halve(full):
    """The half spectrum: columns 0..W//2 of a full (..., H, W) spectrum."""
    return full[..., :np.shape(full)[-1] // 2 + 1]


def impulse3():
    f = np.zeros((3, 3))
    f[1, 1] = 1.0
    return f


# ---------------------------------------------------------------------------
# filter cascade


def test_build_filters_single_layer(rng):
    w_top = rng.standard_normal((2, 3, 3))
    banks = unroll.build_filters(w_top, [])
    assert len(banks) == 1
    assert np.array_equal(banks[0][0], w_top[0])
    assert np.array_equal(banks[0][1], w_top[1])


def test_build_filters_impulse_mix_pads_support(rng):
    w_top = rng.standard_normal((1, 3, 3))
    w_mix = np.zeros((1, 1, 1, 3, 3))
    w_mix[0, 0, 0] = impulse3()
    banks = unroll.build_filters(w_top, w_mix)
    assert banks[0][0].shape == (5, 5)
    assert np.max(np.abs(banks[0][0][1:4, 1:4] - w_top[0])) == 0.0
    assert np.sum(np.abs(banks[0][0])) == np.sum(np.abs(w_top[0]))


def test_build_filters_matches_nested_convolution(rng):
    L, C = 3, 2
    w_top = rng.standard_normal((C, 3, 3))
    w_mix = rng.standard_normal((L - 1, C, C, 3, 3))
    banks = unroll.build_filters(w_top, w_mix)

    ref = [w_top[i] for i in range(C)]
    for mix in w_mix[::-1]:
        ref = [sum(conv_full_oracle(mix[i, j], ref[j]) for j in range(C))
               for i in range(C)]
    for i in range(C):
        assert banks[0][i].shape == (3 + 2 * (L - 1),) * 2
        assert np.max(np.abs(banks[0][i] - ref[i])) < 1e-12


def test_build_filters_support_growth(rng):
    L, C = 4, 1
    banks = unroll.build_filters(rng.standard_normal((C, 3, 3)),
                                 rng.standard_normal((L - 1, C, C, 3, 3)))
    sizes = [banks[l][0].shape[0] for l in range(L)]
    assert sizes == [9, 7, 5, 3]


# ---------------------------------------------------------------------------
# feature update


def test_g_update_pure_data_term(rng):
    y = rng.random((8, 8))
    y_spec = spectral.rfft2(y)
    k_spec = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), 8, 8))
    g = unroll.g_update(y_spec, np.zeros((8, 5), complex), k_spec, 1.0, 0.0, (8, 8))
    assert np.max(np.abs(g - y)) < 1e-12


def test_g_update_balanced_average(rng):
    y = rng.random((8, 8))
    z = rng.random((8, 8))
    k_spec = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), 8, 8))
    g = unroll.g_update(spectral.rfft2(y), spectral.rfft2(z), k_spec, 1.0, 1.0,
                        (8, 8))
    assert np.max(np.abs(g - (y + z) / 2.0)) < 1e-12


def test_g_update_matches_scalar_solve(rng, make_kernel):
    for _ in range(20):
        size = int(rng.integers(4, 9))
        y = rng.random((size, size))
        z = rng.standard_normal((size, size)) * 0.1
        k = make_kernel(3)
        k_spec = spectral.fft2(spectral.embed_kernel(k, size, size))
        y_spec = spectral.fft2(y)
        b = float(rng.random() + 0.1)
        lam = float(rng.random() + 0.01)

        z_spec = np.fft.fft2(z)
        full = (y_spec, z_spec, k_spec)
        got = unroll.g_update(*map(halve, full), b, lam, (size, size))
        for i in range(3):  # a full-width spectrum is refused, typed
            mixed = [x if j == i else halve(x) for j, x in enumerate(full)]
            with pytest.raises(DimensionMismatch, match="^feature update"):
                unroll.g_update(*mixed, b, lam, (size, size))

        ref_spec = np.zeros((size, size), dtype=np.complex128)
        for p in range(size):
            for q in range(size):
                kk = k_spec[p, q]
                ref_spec[p, q] = ((b * np.conj(kk) * y_spec[p, q]
                                   + lam * z_spec[p, q])
                                  / (b * abs(kk) ** 2 + lam))
        ref = np.real(np.fft.ifft2(ref_spec))
        assert np.max(np.abs(got - ref)) < 1e-10


def test_g_update_is_a_local_minimum(rng, make_kernel):
    size = 8
    y = rng.random((size, size))
    z = rng.standard_normal((size, size)) * 0.1
    k = make_kernel(3)
    k_plane = spectral.embed_kernel(k, size, size)
    b, lam = 0.7, 0.3
    g0 = unroll.g_update(spectral.rfft2(y), spectral.rfft2(z),
                         spectral.rfft2(k_plane), b, lam, (size, size))

    def objective(g):
        resid = spectral.circ_conv(k_plane, g) - y
        return (b / 2) * np.sum(resid ** 2) + (lam / 2) * np.sum((g - z) ** 2)

    j0 = objective(g0)
    for _ in range(5):
        delta = rng.standard_normal((size, size))
        delta *= 1e-4 / np.max(np.abs(delta))
        assert j0 <= objective(g0 + delta) + 1e-12


def test_g_update_singular_denominator():
    y_spec = spectral.rfft2(np.ones((4, 4)))
    k_spec = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), 4, 4))
    with pytest.raises(SingularDenominator):
        unroll.g_update(y_spec, np.zeros((4, 3), complex), k_spec, 0.0, 0.0, (4, 4))


def test_weights_must_be_one_per_plane(rng):
    # the pulls sum b's and lam's adjoints over each plane, so a weight
    # that varies within a plane is refused, typed, before any work
    y_spec = spectral.rfft2(rng.standard_normal((2, 4, 4)))
    k_spec = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), 4, 4))
    g = rng.standard_normal((2, 4, 4))
    for bad in (np.ones((2, 4, 3)), np.ones(3), np.ones((2, 1, 3))):
        with pytest.raises(DimensionMismatch, match="^feature update"):
            unroll.g_update(y_spec, 0.0, k_spec, bad, 1.0, (4, 4))
        with pytest.raises(DimensionMismatch, match="^feature update"):
            unroll.g_update(y_spec, 0.0, k_spec, 1.0, bad, (4, 4))
    with pytest.raises(DimensionMismatch, match="^shrinkage"):
        unroll.z_spectrum(g, np.full((2, 4, 4), 0.5))
    for fine in (0.5, np.full((2, 1, 1), 0.5), np.full((1, 1), 0.5)):
        unroll.g_update(y_spec, 0.0, k_spec, fine, fine, (4, 4))
        unroll.z_spectrum(g, fine)


def test_g_update_accepts_precomputed_z_spectrum(rng):
    # the half-spectrum DFT forward uses and numpy's complex one agree
    y = rng.random((6, 6))
    z = rng.random((6, 6))
    k_spec = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), 6, 6))
    y_spec = spectral.rfft2(y)
    a = unroll.g_update(y_spec, spectral.rfft2(z), k_spec, 0.5, 0.25, (6, 6))
    b = unroll.g_update(y_spec, halve(np.fft.fft2(z)), k_spec, 0.5, 0.25, (6, 6))
    assert np.max(np.abs(a - b)) < 1e-14


# ---------------------------------------------------------------------------
# shrinkage


def test_z_update_examples():
    g = np.array([[1.2, -0.3], [0.5, -0.8]])
    z = unroll.z_update(g, 0.5)
    assert np.allclose(z, [[0.7, 0.0], [0.0, -0.3]], atol=1e-15)


def test_z_update_zero_threshold_is_identity(rng):
    g = rng.standard_normal((5, 5))
    assert np.array_equal(unroll.z_update(g, 0.0), g)


def test_z_update_matches_scalar_loop(rng):
    g = rng.standard_normal((6, 6))
    b = 0.4
    got = unroll.z_update(g, b)
    for (i, j), v in np.ndenumerate(g):
        ref = np.sign(v) * max(abs(v) - b, 0.0)
        assert got[i, j] == ref


def test_z_update_equals_the_sign_max_form(rng):
    # exact ties |g| = b, a zero threshold and zero features included; the
    # two forms may differ only in the sign of an exact zero
    b = np.array([0.0, 0.25, 0.5, 1e-300])
    g = rng.standard_normal((4, 6, 6))
    g[:, 0] = np.stack([b, -b, 0.0 * b, -0.0 * b, np.nextafter(b, 1),
                        np.nextafter(-b, -1)], axis=-1)
    for thresholds in (b[:, None, None], 0.0, 0.25):
        got = unroll.z_update(g, thresholds)
        want = np.sign(g) * np.maximum(np.abs(g) - thresholds, 0.0)
        assert np.array_equal(got, want)
        assert np.all(got[np.abs(g) <= thresholds] == 0.0)


def _g_terms(rng, c, h, w):
    """g_update's terms on random half spectra, with D within 3x of
    DENOM_FLOOR at a tenth of the frequencies; returns (terms, N, D)."""
    k = spectral.rfft2(rng.standard_normal((h, w)))
    near = rng.random(k.shape) < 0.1
    k[near] *= np.sqrt(unroll.DENOM_FLOOR) / np.abs(k[near])
    y = spectral.rfft2(rng.standard_normal((c, h, w)))
    z = spectral.rfft2(rng.standard_normal((c, h, w)))
    b = rng.uniform(0.5, 2.0, (c, 1, 1))
    lam = rng.uniform(0.6, 1.0, (c, 1, 1)) * unroll.DENOM_FLOOR
    num = b * (np.conj(k) * y) + lam * z
    den = b * (k * np.conj(k)).real + lam
    return ((b, k, y), (lam, 1, z)), num, den


def test_quotient_equals_the_complex_by_real_division(rng):
    # _quotient scales N by 1/D; numpy's N / D divides a complex by a real
    # as a multiply by the reciprocal, so the two agree bit for bit
    for h, w in ((9, 14), (16, 16), (7, 5)):
        terms, num, den = _g_terms(rng, 3, h, w)
        assert unroll.DENOM_FLOOR < np.min(den) < 3 * unroll.DENOM_FLOOR
        q, inv = unroll._quotient(terms, update="feature update")
        assert np.array_equal(q, num / den)
        assert np.array_equal(inv, 1.0 / den)
        t = spectral.rfft2(rng.standard_normal((3, h, w)))
        assert np.array_equal(t * inv, t / den)  # the pulls' form
        z, y = terms[1][2], terms[0][2]
        q, inv = unroll._quotient((), ((1, z, y),), 0.7)
        summed = np.sum((z * np.conj(z)).real, axis=0) + 0.7
        assert np.array_equal(q, np.sum(np.conj(z) * y, axis=0) / summed)


def test_re_inner_is_re_sum_conj_a_b_per_plane(rng):
    # one reduction over float views, for strided operands, widths down to
    # 1, a plane broadcast against a stack and real pairs; it sums in
    # another order than the textbook form, so they agree to rounding
    def check(a, b):
        got = unroll._re_inner(a, b)
        want = np.sum((np.conj(a) * b).real, axis=(-2, -1))
        scale = np.sum(np.abs(a) * np.abs(b), axis=(-2, -1))
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * scale)

    for h, w in ((5, 1), (4, 2), (6, 3), (9, 7)):
        a, b = (rng.standard_normal((2, 3, h, 2 * w))
                + 1j * rng.standard_normal((2, 3, h, 2 * w)) for _ in range(2))
        strided = a[..., ::2]
        assert not strided.flags.c_contiguous
        check(strided, b[..., 1::2])
        check(strided[0, 0], b[..., :w])  # a plane against (2, 3) planes
        check(strided.real, b[..., :w].imag)
        check(a[..., :w].real, b[..., :w].real)


# ---------------------------------------------------------------------------
# kernel update


def test_k_update_recovers_kernel_from_true_features(rng, make_kernel):
    size = 16
    x = rng.random((size, size))
    k = make_kernel(3)
    k_plane = spectral.embed_kernel(k, size, size)
    y = spectral.circ_conv(k_plane, x)
    # the impulse channel keeps every frequency observable; the Prewitt
    # pair alone is blind to the DC/Nyquist axes where both responses vanish
    bank = [unroll.PREWITT_X, unroll.PREWITT_Y, impulse3()]
    z_specs = [spectral.rfft2(p) for p in filter_planes(x, bank)]
    y_specs = [spectral.rfft2(p) for p in filter_planes(y, bank)]
    plane = unroll.k_update(z_specs, y_specs, 1e-12, (size, size))
    assert np.max(np.abs(plane - k_plane)) < 1e-6


def test_k_update_matches_scalar_solve(rng):
    size = 8
    zs = [rng.random((size, size)) for _ in range(3)]
    ys = [rng.random((size, size)) for _ in range(3)]
    z_specs = spectral.fft2(np.array(zs))
    y_specs = spectral.fft2(np.array(ys))
    eps = 0.37
    got = unroll.k_update(halve(z_specs), halve(y_specs), eps, (size, size))
    for mixed in ((z_specs, halve(y_specs)), (halve(z_specs), y_specs)):
        with pytest.raises(DimensionMismatch, match="^kernel update"):
            unroll.k_update(*mixed, eps, (size, size))

    ref_spec = np.zeros((size, size), dtype=np.complex128)
    for p in range(size):
        for q in range(size):
            num = sum(np.conj(z[p, q]) * y[p, q] for z, y in zip(z_specs, y_specs))
            den = sum(abs(z[p, q]) ** 2 for z in z_specs) + eps
            ref_spec[p, q] = num / den
    ref = np.real(np.fft.ifft2(ref_spec))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_k_update_is_a_local_minimum(rng):
    size = 8
    zs = [rng.random((size, size)) for _ in range(2)]
    ys = [rng.random((size, size)) for _ in range(2)]
    eps = 0.5
    plane = unroll.k_update(spectral.rfft2(zs), spectral.rfft2(ys), eps,
                            (size, size))

    def objective(p):
        j = eps / 2 * np.sum(p ** 2) * p.size  # Parseval: sum|K|^2 = N sum p^2
        for z, y in zip(zs, ys):
            j += 0.5 * np.sum((spectral.circ_conv(z, p) - y) ** 2) * p.size
        return j

    j0 = objective(plane)
    for _ in range(5):
        delta = rng.standard_normal((size, size))
        delta *= 1e-4 / np.max(np.abs(delta))
        assert j0 <= objective(plane + delta) + 1e-9 * abs(j0)


def test_k_update_all_zero_features(rng):
    size = 6
    zeros = np.zeros((2, size, size // 2 + 1), dtype=np.complex128)
    y_specs = spectral.rfft2(rng.random((2, size, size)))
    plane = unroll.k_update(zeros, y_specs, 1.0, (size, size))
    assert np.max(np.abs(plane)) == 0.0


# ---------------------------------------------------------------------------
# kernel projection


def test_k_project_example():
    plane = np.zeros((4, 4))
    plane[0, 0], plane[0, 1], plane[1, 0] = 3.0, 1.0, -1.0
    got = unroll.k_project(plane)
    assert got[0, 0] == 0.75
    assert got[0, 1] == 0.25
    assert got[1, 0] == 0.0


def test_k_project_idempotent(rng):
    plane = rng.standard_normal((8, 8))
    once = unroll.k_project(plane)
    twice = unroll.k_project(once)
    assert np.max(np.abs(twice - once)) < 1e-15


def test_k_project_all_negative_degrades_to_impulse():
    got = unroll.k_project(-np.ones((5, 5)))
    assert got[0, 0] == 1.0
    assert got.sum() == 1.0


def test_k_project_simplex_property(rng):
    for _ in range(100):
        plane = rng.standard_normal((6, 6)) * rng.random() * 10
        got = unroll.k_project(plane)
        assert got.min() >= 0.0
        assert abs(got.sum() - 1.0) < 1e-12


def _support_window(plane, support):
    """What k_project takes: the plane, or with a support its window."""
    return plane if support is None else spectral.wrap_window(plane, support)


def _as_plane(kernel, support, shape):
    """k_project's result as a plane: a window is embedded."""
    return kernel if support is None else spectral.embed_kernel(kernel, *shape)


@pytest.mark.parametrize("support", [None, 5, 7])
def test_k_project_inverts_embedding(make_kernel, support):
    # a kernel embedded at the origin is its own projection, as a plane and
    # as a support window, and the window reads it back
    k = make_kernel(5)
    plane = spectral.embed_kernel(k, 16, 16)
    got = _as_plane(unroll.k_project(_support_window(plane, support), support),
                    support, (16, 16))
    assert np.max(np.abs(got - plane)) < 1e-15
    assert np.max(np.abs(spectral.wrap_window(got, 5) - k)) < 1e-15


@pytest.mark.parametrize("support", [None, 3])
def test_k_project_zero_plane_degrades_to_impulse(support):
    # the impulse at the origin: [0, 0] of a plane, the centre of a window
    impulse = spectral.embed_kernel(np.array([[1.0]]), 8, 8)
    got = _as_plane(unroll.k_project(_support_window(np.zeros((8, 8)), support),
                                     support), support, (8, 8))
    assert np.array_equal(got, impulse)
    assert np.array_equal(spectral.wrap_window(got, 3), np.pad([[1.0]], 1))
    outside = np.zeros((8, 8))
    outside[4, 4] = 2.0  # all the positive mass lies outside the window
    want = np.pad([[1.0]], 1) if support is not None else outside / 2.0
    assert np.array_equal(
        unroll.k_project(_support_window(outside, support), support), want)


def test_k_project_takes_a_window_of_the_support_only():
    for kernel in (np.zeros((8, 8)), np.zeros((5, 5)), np.zeros((3, 5))):
        with pytest.raises(DimensionMismatch):
            unroll.k_project(kernel, 3)


def test_k_project_clamps_and_renormalizes():
    plane = np.zeros((8, 8))
    plane[0, 0], plane[0, 1] = 3.0, 1.0
    plane[1, 0] = -2.0  # inside the window, must clamp to zero
    plane[4, 4] = 4.0  # outside the 3x3 window around the origin
    got = _as_plane(unroll.k_project(_support_window(plane, 3), 3), 3, (8, 8))
    assert got.min() >= 0.0 and got[1, 0] == 0.0 and got[4, 4] == 0.0
    assert got[0, 0] == 0.75 and got[0, 1] == 0.25
    assert np.array_equal(spectral.wrap_window(got, 3)[1, 1:], [0.75, 0.25])
    got = unroll.k_project(plane)
    assert got[1, 0] == 0.0
    assert (got[0, 0], got[0, 1], got[4, 4]) == (0.375, 0.125, 0.5)
    assert got.sum() == 1.0


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_identity_kernel_zero_eta(rng):
    y = rng.random((8, 8))
    k_plane = spectral.embed_kernel(np.array([[1.0]]), 8, 8)
    x = unroll.reconstruct(spectral.rfft2(y), spectral.rfft2(k_plane),
                           [np.zeros((8, 8))], bank_spectra([impulse3()], 8, 8),
                           np.zeros(1), (8, 8))
    assert np.max(np.abs(x - y)) < 1e-12


def test_reconstruct_consistent_features_give_exact_image(rng, make_kernel):
    # when g_i = f_i * x and y = k * x, the estimate equals x for any eta
    size = 12
    x = rng.random((size, size))
    k_plane = spectral.embed_kernel(make_kernel(3), size, size)
    y = spectral.circ_conv(k_plane, x)
    bank = [unroll.PREWITT_X, unroll.PREWITT_Y]
    g = filter_planes(x, bank)
    for eta in (np.array([1.0, 1.0]), np.array([20.0, 5.0])):
        got = unroll.reconstruct(spectral.rfft2(y), spectral.rfft2(k_plane), g,
                                 bank_spectra(bank, size, size), eta, (size, size))
        assert np.max(np.abs(got - x)) < 1e-10


def test_reconstruct_matches_scalar_solve(rng, make_kernel):
    size = 8
    y = rng.random((size, size))
    k_plane = spectral.embed_kernel(make_kernel(3), size, size)
    bank = [unroll.PREWITT_X, unroll.PREWITT_Y]
    g = [rng.random((size, size)) for _ in range(2)]
    eta = np.array([2.0, 0.5])
    y_spec = np.fft.fft2(y)
    k_spec = np.fft.fft2(k_plane)
    f_specs = np.fft.fft2(spectral.embed_kernels(np.array(bank), size, size))
    shape = (size, size)
    got = unroll.reconstruct(halve(y_spec), halve(k_spec), g, halve(f_specs), eta, shape)
    for mixed in ((y_spec, halve(k_spec), g, halve(f_specs)),
                  (halve(y_spec), k_spec, g, halve(f_specs)),
                  (halve(y_spec), halve(k_spec), g, f_specs),
                  (halve(y_spec), halve(k_spec), np.pad(g, ((0, 0), (0, 0), (0, 1))),
                   halve(f_specs))):
        with pytest.raises(DimensionMismatch, match="^reconstruction"):
            unroll.reconstruct(*mixed, eta, shape)

    g_specs = [np.fft.fft2(gi) for gi in g]
    ref_spec = np.zeros((size, size), dtype=np.complex128)
    for p in range(size):
        for q in range(size):
            num = np.conj(k_spec[p, q]) * y_spec[p, q]
            den = abs(k_spec[p, q]) ** 2
            for e, fs, gs in zip(eta, f_specs, g_specs):
                num += e * np.conj(fs[p, q]) * gs[p, q]
                den += e * abs(fs[p, q]) ** 2
            ref_spec[p, q] = num / den
    ref = np.real(np.fft.ifft2(ref_spec))
    assert np.max(np.abs(got - ref)) < 1e-10


def test_reconstruct_singular_denominator():
    y = np.ones((4, 4))
    with pytest.raises(SingularDenominator):
        unroll.reconstruct(spectral.rfft2(y), spectral.rfft2(np.zeros((4, 4))),
                           [np.zeros((4, 4))], bank_spectra([impulse3()], 4, 4),
                           np.zeros(1), (4, 4))


# ---------------------------------------------------------------------------
# full forward pass


def small_params(layers=2, channels=2, support=5, seed=0):
    cfg = TrainConfig(layers=layers, channels=channels, kernel_support=support,
                      seed=seed)
    return init_params(cfg)


def test_forward_shapes_and_types(rng):
    params = small_params()
    y = rng.random((16, 16))
    kernel, g, x_hat, state = unroll.forward(y, params)
    assert kernel.shape == (5, 5)
    assert len(g) == 2
    assert x_hat.shape == (16, 16)
    assert len(state.kernel_planes) == 2


def test_forward_kernel_planes_stay_on_simplex(rng):
    # randomized sweep backing the hard invariant: projection output is a
    # probability plane at every layer, never NaN/Inf anywhere
    for trial in range(20):
        params = small_params(layers=int(rng.integers(1, 4)),
                              channels=int(rng.integers(1, 4)),
                              seed=int(rng.integers(10000)))
        params.b = params.b * float(rng.random() * 2)
        params.lam = params.lam + float(rng.random() * 0.5)
        y = rng.random((12, 12))
        kernel, g, x_hat, state = unroll.forward(y, params)
        for plane in state.kernel_planes:
            assert plane.min() >= 0.0
            assert abs(np.sum(np.abs(plane)) - 1.0) < 1e-12
        assert np.all(np.isfinite(x_hat))
        assert np.all(np.isfinite(kernel))
        for gi in g:
            assert np.all(np.isfinite(gi))


@pytest.mark.parametrize("tape", [None, ad.Tape])
def test_forward_kernel_planes_are_read_only(rng, tape):
    # each layer's own kernel plane, kept without a copy
    _, _, _, state = unroll.forward(rng.random((16, 16)), small_params(layers=3),
                                    tape=tape and tape())
    planes = state.kernel_planes
    assert len(planes) == 3
    for i, plane in enumerate(planes):
        assert not plane.flags.writeable
        with pytest.raises(ValueError):
            plane[0, 0] = 0.5
        assert not any(np.shares_memory(plane, other) for other in planes[:i])


def test_forward_is_deterministic(rng):
    params = small_params()
    y = rng.random((16, 16))
    k1, g1, x1, _ = unroll.forward(y, params)
    k2, g2, x2, _ = unroll.forward(y, params)
    assert np.array_equal(k1, k2)
    assert np.array_equal(x1, x2)
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_forward_restrict_support_zeroes_far_coefficients(rng):
    # the layers carry support windows; the one plane, kernel_plane, is the
    # last window embedded
    params = small_params(support=5)
    y = rng.random((16, 16))
    with kernel_form(True):
        kernel, _, _, state = unroll.forward(y, params)
    assert all(np.shape(window) == (5, 5) for window in state.kernel_planes)
    plane = state.kernel_plane
    inside = spectral.embed_kernel(spectral.wrap_window(plane, 5), 16, 16)
    assert np.max(np.abs(plane - inside)) == 0.0
    assert np.array_equal(spectral.wrap_window(plane, 5), state.kernel_planes[-1])
    assert np.array_equal(kernel, unroll.k_project(state.kernel_planes[-1], 5))


@pytest.mark.parametrize("tape", [None, ad.Tape])
def test_model_kind_picks_the_kernel_form(rng, tape):
    # unforced, the preset's layers carry (s, s) windows and a trained
    # layout's carry (H, W) planes; either way kernel_plane is the plane
    y = rng.random((16, 18))
    trained = small_params(layers=3, support=5)
    trained.b, trained.lam = np.full((3, 2), 0.02), np.full((3, 2), 1e-3)
    for params, form in ((unroll.tv_prewitt_params(layers=3, kernel_support=5),
                          (5, 5)), (trained, (16, 18))):
        state = unroll.forward(y, params, tape=tape and tape())[3]
        assert [np.shape(k) for k in state.kernel_planes] == [form] * 3
        assert np.shape(ad.value(state.kernel_plane)) == (16, 18)


@pytest.mark.parametrize("w", [17, 18])
@pytest.mark.parametrize("model", ["trained", "preset"])
def test_restricted_forward_gives_the_plane_path_bitwise(rng, model, w):
    # the layers carry projected support windows and transform them with
    # spectral.window_rfft2; a loop over the public updates on full planes
    # gives the same windows, kernel, features and image, bit for bit
    h, support = 16, 5
    if model == "preset":
        params = unroll.tv_prewitt_params(layers=4, kernel_support=support)
        banks = [params.fixed_bank] * 4
    else:
        params = small_params(layers=3, channels=3, support=support)
        params.b = np.full((3, 3), 0.02)
        params.lam = np.full((3, 3), 1e-3)
        banks = unroll.build_filters(params.w_top, params.w_mix)
    y = rng.random((h, w))
    with kernel_form(True):  # the preset's own form
        kernel, g, x_hat, state = unroll.forward(y, params)

    shape = (h, w)
    y_spec = spectral.fft2(y)[:, :w // 2 + 1]
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)
    z_spec = 0.0
    for l, bank in enumerate(banks):
        f_spec = spectral.rfft2(spectral.embed_kernels(bank, h, w))
        y_specs = f_spec * y_spec
        b, lam = params.b[l, :, None, None], params.lam[l, :, None, None]
        ref_g = unroll.g_update(y_specs, z_spec, spectral.rfft2(k_plane), b, lam,
                                shape)
        z_spec = spectral.rfft2(unroll.z_update(ref_g, b))
        plane = unroll.k_update(z_spec, y_specs, params.eps, shape)
        window = unroll.k_project(spectral.wrap_window(plane, support), support)
        assert np.array_equal(state.kernel_planes[l], window), l
        k_plane = spectral.embed_kernel(window, h, w)
    ref_x = unroll.reconstruct(y_spec, spectral.rfft2(k_plane), ref_g, f_spec,
                               params.eta, shape)
    assert np.array_equal(kernel, unroll.k_project(window, support))
    assert np.array_equal(g, ref_g)
    assert np.array_equal(x_hat, ref_x)
    assert np.array_equal(state.kernel_plane, k_plane)


def test_restricted_forward_falls_back_to_the_centred_impulse(rng):
    # thresholds above every feature leave Z = 0 and so a zero raw kernel
    # window in every layer: the projection falls back to the impulse at
    # the window's centre, whose plane is the identity, plain or recorded
    support, L, C = 5, 3, 2
    params = small_params(layers=L, channels=C, support=support)
    params.b = np.full((L, C), 1e6)
    y = rng.random((16, 17))
    impulse = np.pad([[1.0]], support // 2)
    for tape in (None, ad.Tape()):
        with kernel_form(True):
            kernel, _, _, state = unroll.forward(y, params, tape=tape)
        assert np.array_equal(kernel, impulse)
        assert len(state.kernel_planes) == L
        for window in state.kernel_planes:
            assert np.array_equal(window, impulse)
        assert np.array_equal(ad.value(state.kernel_plane),
                              spectral.embed_kernel(np.array([[1.0]]), 16, 17))
    # such layers record no kernel_estimate; one recorded on a window with
    # Z = 0 falls back too, and its pull returns zero adjoints, taking the
    # shape of a released Y from its stub without remaking it
    shape, tape = (16, 17), ad.Tape()
    bank = ad.leaf(tape, params.w_top)
    y_specs = unroll.filter_spectra(bank, spectral.window_rfft2(params.w_top, shape),
                                    shape, spectral.rfft2(y))
    z_spec = unroll.z_spectrum(ad.leaf(tape, rng.random((C, *shape))), 1.0)
    node = unroll.kernel_estimate(z_spec, y_specs, params.eps, support, shape)
    assert np.array_equal(node.value, impulse)
    ad.release(y_specs, remake=lambda: pytest.fail("the fallback remade Y"))
    adjoints = node.pull(rng.standard_normal((support, support)))
    for parent, pos in zip(node.parents, node.routes):
        assert adjoints[pos].shape == parent.shape
        assert not np.any(adjoints[pos])


def test_restricted_preset_forward_holds_no_plane_per_layer(rng):
    # restricted layers carry (s, s) windows, so nothing plane-sized piles
    # up with L: the traced peak stays below the L planes that keeping each
    # layer's (H, W) kernel plane would hold by themselves
    n, L, support = 128, 30, 15
    params = unroll.tv_prewitt_params(layers=L, kernel_support=support)
    y = rng.random((n, n))
    tracemalloc.start()
    try:
        state = unroll.forward(y, params)[3]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.kernel_planes) == L
    assert all(np.shape(k) == (support, support) for k in state.kernel_planes)
    assert peak < L * n * n * np.dtype(np.float64).itemsize


def test_forward_rejects_non_2d():
    params = small_params()
    with pytest.raises(DimensionMismatch):
        unroll.forward(np.zeros(16), params)


def test_forward_rejects_non_finite_pixels(rng):
    params = small_params()
    for bad in (np.nan, np.inf):
        y = rng.random((12, 12))
        y[3, 4] = bad
        with pytest.raises(NonFiniteInput):
            unroll.forward(y, params)
        with pytest.raises(NonFiniteInput):
            unroll.forward(y, params, tape=ad.Tape())


def test_forward_validates_params(rng):
    params = small_params()
    params.b = params.b - 2.0
    with pytest.raises(ValueError):
        unroll.forward(rng.random((8, 8)), params)
    params = small_params()
    params.lam = params.lam[:, :1]
    with pytest.raises(DimensionMismatch):
        unroll.forward(rng.random((8, 8)), params)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", list(unroll.TRAINABLE) + ["eps"])
def test_forward_rejects_non_finite_weights(rng, field, bad):
    # NaN passes every sign check, and an Inf eta made forward return a
    # non-finite image with only a RuntimeWarning
    params = small_params()
    if field == "eps":
        params.eps = bad
    else:
        getattr(params, field).flat[-1] = bad
    with pytest.raises(NonFiniteInput, match="^%s " % field):
        params.validate()
    with pytest.raises(NonFiniteInput, match="^%s " % field):
        unroll.forward(rng.random((8, 8)), params)


@pytest.mark.parametrize("b", [np.ones(3), np.ones((2, 2, 2))])
def test_validate_rejects_b_that_is_not_2d(b):
    # b's shape states L and C, so it is checked before it is unpacked
    params = unroll.ModelParams(b=b, lam=np.zeros(np.shape(b)), eta=np.ones(3))
    with pytest.raises(DimensionMismatch, match="^b must be"):
        params.validate()


@pytest.mark.parametrize("layers, channels", [(0, 2), (2, 0)])
def test_forward_rejects_empty_models(rng, layers, channels):
    shapes = unroll.trainable_shapes(layers, channels)
    params = unroll.ModelParams(**{n: np.ones(s) for n, s in shapes.items()})
    with pytest.raises(DimensionMismatch):
        unroll.forward(rng.random((8, 8)), params)
    with pytest.raises(DimensionMismatch):
        unroll.forward(rng.random((8, 8)), unroll.tv_prewitt_params(layers=0))


def test_forward_rejects_support_larger_than_image(rng, monkeypatch):
    seen = _counting_transforms(monkeypatch)
    for params in (small_params(support=9),
                   unroll.tv_prewitt_params(layers=2, kernel_support=9)):
        with pytest.raises(KernelTooLarge):
            unroll.forward(rng.random((8, 12)), params)
    assert seen == []  # rejected before the first transform
    unroll.forward(rng.random((9, 12)), small_params(support=9))


@pytest.mark.parametrize("n, scale", [(128, 1e152), (16, 1e154)])
def test_forward_rejects_images_whose_spectra_would_overflow(rng, monkeypatch, n,
                                                             scale):
    # these images overflowed the quotients' squares of their spectra and
    # came back as a non-finite kernel and image with only RuntimeWarnings;
    # an image whose peak is the limit 2^511 / n^2 (|Y| <= n^2 max|y|) runs
    limit = 2.0 ** 511 / n ** 2
    models = (small_params(layers=3, support=5),
              unroll.tv_prewitt_params(layers=3, kernel_support=5))
    seen = _counting_transforms(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, tape, restrict in itertools.product(models, (None, ad.Tape()),
                                                        (False, True)):
            y = rng.random((n, n)) * (scale if tape is None else -scale)  # both signs
            with pytest.raises(NonFiniteInput, match="spectra would not be finite"), \
                    kernel_form(restrict):
                unroll.forward(y, params, tape=tape)
        assert seen == []  # rejected before the first transform
        y = rng.random((n, n)) * (limit / 2)
        y[0, 0] = limit
        for params in models:
            kernel, _, x_hat, _ = unroll.forward(y, params)
            assert np.all(np.isfinite(kernel)) and np.all(np.isfinite(x_hat))


@pytest.mark.parametrize("model", ["default", "trained"])
def test_forward_types_an_overflow_past_the_image_bound(model):
    # a checkerboard whose peak is the image bound keeps its own spectrum
    # finite, but the filters' gains push the kernel update's channel sum
    # of |Z|^2 past the float range: the kernel and image came back
    # non-finite with only RuntimeWarnings
    n = 64
    y = np.where(np.indices((n, n)).sum(axis=0) % 2, -1.0, 1.0) * (2.0 ** 511 / n ** 2)
    params = small_params(layers=5, channels=8, support=7)
    if model == "trained":
        params.b = np.full((5, 8), 0.02)
        params.lam = np.full((5, 8), 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tape, restrict in itertools.product((None, ad.Tape()), (False, True)):
            with pytest.raises(NonFiniteInput, match=r"^the solver's arithmetic left "
                                                     r"the float range \(overflow "), \
                    kernel_form(restrict):
                unroll.forward(y, params, tape=tape)


def test_forward_rejects_a_bank_wider_than_the_image(rng, monkeypatch):
    # a trained layer 1's filters are 2L+1 pixels wide: 9x9 at L = 4, wider
    # than an 8x12 image that the kernel support fits
    wide = unroll.tv_prewitt_params(layers=2, kernel_support=5)
    wide.fixed_bank = np.pad(wide.fixed_bank, ((0, 0), (3, 3), (3, 3)))
    seen = _counting_transforms(monkeypatch)
    for params in (small_params(layers=4, support=5), wide):
        for tape in (None, ad.Tape()):
            with pytest.raises(KernelTooLarge, match="^layer 1's filters are 9x9, "
                                                     "wider than the 8x12 image$"):
                unroll.forward(rng.random((8, 12)), params, tape=tape)
    assert seen == []  # rejected before the first transform
    unroll.forward(rng.random((9, 12)), small_params(layers=4, support=5))


def test_forward_classical_preset_runs(rng):
    params = unroll.tv_prewitt_params(layers=4, kernel_support=7)
    y = rng.random((16, 16))
    kernel, g, x_hat, state = unroll.forward(y, params)
    assert kernel.shape == (7, 7)
    assert len(g) == 2
    assert np.all(np.isfinite(x_hat))


@pytest.mark.parametrize("bank, error", [
    ([unroll.PREWITT_X], DimensionMismatch),                   # C = 2
    (unroll.PREWITT_X, DimensionMismatch),                     # not a stack
    ([unroll.PREWITT_X, np.ones((5, 5))], DimensionMismatch),  # mixed sizes
    ([np.ones((3, 5)), np.ones((3, 5))], DimensionMismatch),   # not square
    ([np.ones((4, 4)), np.ones((4, 4))], EvenSize),
    ([unroll.PREWITT_X, np.full((3, 3), np.nan)], NonFiniteInput),
])
def test_forward_validates_fixed_banks(rng, bank, error):
    params = unroll.tv_prewitt_params(layers=3, kernel_support=7)
    params.fixed_bank = bank
    with pytest.raises(error):
        unroll.forward(rng.random((16, 16)), params)


def _counting_transforms(monkeypatch):
    """Record every input of spectral.fft2 and spectral.rfft2 (and so of
    ad.rfft2), and the planes spectral.window_rfft2 transforms."""
    seen = []
    for name in ("fft2", "rfft2"):
        def counting(plane, transform=getattr(spectral, name)):
            seen.append(np.array(plane))
            return transform(plane)

        monkeypatch.setattr(spectral, name, counting)
    window_rfft2 = spectral.window_rfft2
    monkeypatch.setattr(spectral, "window_rfft2", lambda windows, shape: (
        seen.append(spectral.embed_kernels(windows, *shape))
        or window_rfft2(windows, shape)))
    return seen


@pytest.mark.parametrize("model", ["trained", "preset"])
def test_solver_runs_on_half_spectra(rng, monkeypatch, model):
    # forward, plain and taped, and the backward sweep: no full-spectrum
    # inverse, and one full forward transform, of the image itself, whose
    # half is cut from it (perfbench's spectral spans trace that one)
    params = (unroll.tv_prewitt_params(layers=3, kernel_support=7)
              if model == "preset" else small_params(layers=3, channels=3))
    y = rng.random((13, 10))
    fft2, ifft2 = spectral.fft2, spectral.ifft2
    seen = []
    monkeypatch.setattr(spectral, "fft2", lambda a: seen.append(a) or fft2(a))
    monkeypatch.setattr(spectral, "ifft2", lambda a: seen.append(a) or ifft2(a))
    for tape in (None, ad.Tape()):
        seen.clear()
        with kernel_form(True):
            state = unroll.forward(y, params, tape=tape)[3]
        if tape is not None:
            unroll.collect_gradients(ad.mse(state.x_hat, y), state)
        assert len(seen) == 1 and np.array_equal(seen[0], y)


@pytest.mark.parametrize("model", ["trained", "preset"])
def test_image_spectrum_is_its_rfft2_bitwise(rng, monkeypatch, model):
    # the half forward cuts from the image's full spectral.fft2 is the
    # spectrum every other plane gets, spectral.rfft2, to the last bit
    params = (unroll.tv_prewitt_params(layers=3, kernel_support=7)
              if model == "preset" else small_params(layers=3, channels=3))
    y = rng.random((12, 10))
    reconstruct, seen = unroll.reconstruct, []
    monkeypatch.setattr(unroll, "reconstruct", lambda y_spec, *args: (
        seen.append(y_spec) or reconstruct(y_spec, *args)))
    unroll.forward(y, params)
    assert len(seen) == 1 and np.array_equal(seen[0], spectral.rfft2(y))


def test_repeated_bank_is_transformed_once(rng, monkeypatch):
    # the preset uses one Prewitt pair in all L layers: the first layer
    # transforms it, and the later layers and the reconstruction reuse it
    L, n = 4, 16
    params = unroll.tv_prewitt_params(layers=L, kernel_support=7)
    bank_planes = spectral.embed_kernels(params.fixed_bank, n, n)
    seen = _counting_transforms(monkeypatch)
    unroll.forward(rng.random((n, n)), params)
    assert sum(np.array_equal(p, bank_planes) for p in seen) == 1
    planes = sum(int(np.prod(p.shape[:-2])) for p in seen)
    assert planes == 1 + 2 + L * (1 + 2) + (1 + 2)  # y, bank, layers, x


def test_trained_banks_are_embedded_once_per_layer(rng, monkeypatch):
    # every trained layer has its own bank; the reconstruction reuses the
    # last layer's spectra instead of embedding w_top again
    calls = []
    embed_kernels = spectral.embed_kernels
    monkeypatch.setattr(spectral, "embed_kernels", lambda k, *args: (
        calls.append(np.ndim(k) == 3) or embed_kernels(k, *args)))
    for tape in (None, ad.Tape()):
        calls.clear()
        unroll.forward(rng.random((16, 16)), small_params(layers=3), tape=tape)
        assert sum(calls) == 3  # (C, s, s) banks; the rest is the identity init


def test_shared_bank_spectra_match_recomputed_ones(rng):
    # reusing the first layer's filter spectra changes no bit against a
    # reference loop that transforms the bank again in every layer
    L, n = 4, 16
    params = unroll.tv_prewitt_params(layers=L, kernel_support=7)
    y = rng.random((n, n))
    with kernel_form(False):  # the plane's loop below; the window's is above
        kernel, g, x_hat, _ = unroll.forward(y, params)

    # the solver's half spectra; the image's is cut from its full spectrum
    shape = (n, n)
    y_spec = spectral.fft2(y)[:, :n // 2 + 1]
    k_plane = spectral.embed_kernel(np.array([[1.0]]), n, n)
    z_spec = 0.0
    for l in range(L):
        f_spec = spectral.rfft2(spectral.embed_kernels(params.fixed_bank, n, n))
        y_specs = f_spec * y_spec
        b, lam = params.b[l, :, None, None], params.lam[l, :, None, None]
        ref_g = unroll.g_update(y_specs, z_spec, spectral.rfft2(k_plane), b, lam,
                                shape)
        z_spec = spectral.rfft2(unroll.z_update(ref_g, b))
        k_plane = unroll.k_project(unroll.k_update(z_spec, y_specs, params.eps,
                                                   shape))
    ref_x = unroll.reconstruct(y_spec, spectral.rfft2(k_plane), ref_g, f_spec,
                               params.eta, shape)
    assert np.array_equal(g, ref_g)
    assert np.array_equal(x_hat, ref_x)
    assert np.array_equal(kernel, unroll.k_project(spectral.wrap_window(k_plane, 7), 7))


@pytest.mark.parametrize("restrict", [False, True])
def test_trained_layout_gives_the_preset_bitwise(rng, make_kernel, restrict):
    # the Prewitt pair on top and centred deltas on the mixing diagonal make
    # each layer's cascaded bank the preset's pair, zero-padded: the cascade
    # branch must give the shared-bank branch's kernel, features and image
    L, support, n = 30, 15, 128
    preset = unroll.tv_prewitt_params(L, support)
    w_mix = np.zeros((L - 1, 2, 2, 3, 3))
    w_mix[:, [0, 1], [0, 1], 1, 1] = 1.0
    trained = unroll.ModelParams(
        b=preset.b, lam=preset.lam, eta=preset.eta, w_top=preset.fixed_bank,
        w_mix=w_mix, eps=preset.eps, kernel_support=support)
    k_plane = spectral.embed_kernel(make_kernel(support), n, n)
    y = spectral.circ_conv(k_plane, rng.random((n, n)))
    with kernel_form(restrict):
        want = unroll.forward(y, preset)[:3]
        got = unroll.forward(y, trained)[:3]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# dead layers of the initial state


def block_image(seed, n):
    """A blurred multi-scale block texture like the benchmark's records: its
    Prewitt features stay below the preset's first thresholds."""
    rng = np.random.default_rng(seed)
    sharp = np.full((n, n), 0.5)
    for cell in (32, 16, 8):
        m = -(-n // cell)
        blocks = np.kron(rng.random((m, m)) - 0.5, np.ones((cell, cell)))
        sharp += 0.4 * np.sqrt(cell / 32) * blocks[:n, :n]
    kernel = kernelgen.linear_motion_kernel(0.7, 9.0, 15)
    return kernelgen.synthesize_blurred(np.clip(sharp, 0.0, 1.0), kernel, 0.005, seed)


def reference_forward(y, params, restrict):
    """The untaped shared-bank forward rebuilt from the public updates, every
    layer computed; returns kernel, g, x_hat, the layers' kernels and the
    kink signature (the shrinkage bits; the clamp's are the kernels > 0)."""
    (h, w), s = y.shape, params.kernel_support
    shape, support = (h, w), s if restrict else None
    y_spec = spectral.fft2(y)[:, :w // 2 + 1]
    f_spec = spectral.window_rfft2(params.fixed_bank, shape)
    y_specs = f_spec * y_spec
    k = spectral.embed_kernel(np.array([[1.0]]), h, w)
    if restrict:
        k = spectral.wrap_window(k, s)
    z_spec, kernels, kinks = 0.0, [], []
    for l in range(len(params.b)):
        b, lam = params.b[l, :, None, None], params.lam[l, :, None, None]
        k_spec = spectral.window_rfft2(k, shape) if restrict else spectral.rfft2(k)
        g = unroll.g_update(y_specs, z_spec, k_spec, b, lam, shape)
        z_spec = unroll.z_spectrum(g, b)
        k = unroll.kernel_estimate(z_spec, y_specs, params.eps, support, shape)
        kinks.append(np.packbits(np.abs(g) > b).tobytes())
        kernels.append(k)
    k_plane = spectral.embed_kernel(k, h, w) if restrict else k
    x_hat = unroll.reconstruct(y_spec, spectral.rfft2(k_plane), g, f_spec, params.eta,
                               shape)
    kernel = unroll.k_project(spectral.wrap_window(k_plane, s), s)
    return kernel, g, x_hat, kernels, b"".join(kinks)


def counted_forward(monkeypatch, y, params, **kwargs):
    """forward's result, and how often it called each layer update."""
    calls = collections.Counter()
    with monkeypatch.context() as m:
        for name in ("g_update", "z_spectrum", "kernel_estimate"):
            update = getattr(unroll, name)
            m.setattr(unroll, name, lambda *args, update=update, name=name: (
                calls.update([name]) or update(*args)))
        return unroll.forward(y, params, **kwargs), calls


def assert_reference_bits(monkeypatch, y, params, restrict):
    """forward gives reference_forward's bytes: kernel, g, x_hat, every
    kernel_planes entry and the kink signature. Returns forward's calls."""
    with kernel_form(restrict):
        (kernel, g, x_hat, state), calls = counted_forward(
            monkeypatch, y, params, track_kinks=True)
    *want, kernels, kinks = reference_forward(y, params, restrict)
    for name, got, ref in zip(("kernel", "g", "x_hat"), (kernel, g, x_hat), want):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), name
    assert len(state.kernel_planes) == len(kernels)
    for l, (got, ref) in enumerate(zip(state.kernel_planes, kernels)):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), l
        assert not got.flags.writeable
    assert state.kink_signature == kinks
    return calls


@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("support", [7, 15])
@pytest.mark.parametrize("n", [64, 128])
def test_skipped_layers_give_the_reference_loop_bitwise(monkeypatch, n, support,
                                                        restrict):
    # the preset's first layers keep no feature on block textures: layer 1
    # runs without its Z and kernel update, the next ones are certified dead
    # and skipped, and no byte of any output changes
    params = unroll.tv_prewitt_params(layers=30, kernel_support=support)
    calls = assert_reference_bits(monkeypatch, block_image(n + support, n), params,
                                  restrict)
    assert calls["g_update"] < 30
    assert calls["kernel_estimate"] == calls["z_spectrum"] < calls["g_update"]


def test_near_threshold_layer_is_not_certified(monkeypatch):
    # lam = 0 makes every gain c_l exactly 1, and layer 2's threshold b[1]
    # is max|g| of layer 1, so the bound c_2 max|g_1| / c_1 equals it. The
    # image is chosen so that one of layer 2's own features rounds above
    # b[1]: certified without the rounding slack, a live layer is skipped.
    bank = np.stack([unroll.PREWITT_X, unroll.PREWITT_Y])
    params = unroll.ModelParams(b=np.full((3, 2), 2.0), lam=np.zeros((3, 2)),
                                eta=np.full(2, 20.0), kernel_support=7,
                                fixed_bank=bank)
    params.b[2] = 0.1

    def features(y, layers):
        first = dataclasses.replace(params, b=params.b[:layers], lam=params.lam[:layers])
        return np.max(np.abs(reference_forward(y, first, False)[1]), axis=(1, 2))

    for seed in range(20):
        y = block_image(seed, 64)
        params.b[1] = features(y, 1)
        if np.any(features(y, 2) > params.b[1]):
            break
    else:
        pytest.fail("no image has a layer-2 feature that rounds above max|g_1|")
    for restrict in (False, True):
        calls = assert_reference_bits(monkeypatch, y, params, restrict)
        assert calls["g_update"] == 3


@pytest.mark.parametrize("image", sorted(IMAGES))
def test_edge_images_give_the_reference_loop_bitwise(monkeypatch, image):
    # flat images have no feature in any layer: only the first layer and
    # the last run, neither with a Z or kernel update
    y, support = IMAGES[image]
    params = unroll.tv_prewitt_params(layers=30, kernel_support=support)
    for restrict in (False, True):
        calls = assert_reference_bits(monkeypatch, y, params, restrict)
        if np.ptp(y) == 0.0:
            assert calls == {"g_update": 2}


def test_recorded_and_plain_forwards_skip_the_same_layers(monkeypatch):
    # a benchmark-like record: at least 8 of the preset's 30 layers do not
    # run; with its own bank per layer (the trained layout of the same
    # filters) every g update runs but the dead layers' Z and kernel
    # updates do not. A tape changes none of these calls
    L, support = 30, 15
    preset = unroll.tv_prewitt_params(L, support)
    w_mix = np.zeros((L - 1, 2, 2, 3, 3))
    w_mix[:, [0, 1], [0, 1], 1, 1] = 1.0
    trained = unroll.ModelParams(
        b=preset.b, lam=preset.lam, eta=preset.eta, w_top=preset.fixed_bank,
        w_mix=w_mix, eps=preset.eps, kernel_support=support)
    y = block_image(0, 128)
    for restrict in (False, True):
        with kernel_form(restrict):
            calls = counted_forward(monkeypatch, y, preset)[1]
            assert calls["g_update"] <= L - 8
            calls = counted_forward(monkeypatch, y, trained)[1]
            assert calls["g_update"] == L and calls["kernel_estimate"] < L
            for params in (preset, trained):
                plain = counted_forward(monkeypatch, y, params)[1]
                taped = counted_forward(monkeypatch, y, params, tape=ad.Tape())[1]
                assert taped == plain


def test_skipped_layer_still_raises_singular_denominator(monkeypatch):
    # b_l + lam_l is the denominator of a layer in the initial state; a zero
    # one where the layer would be skipped raises as the computed layer does
    params = unroll.tv_prewitt_params(layers=30, kernel_support=15)
    y = block_image(0, 128)
    calls = counted_forward(monkeypatch, y, params)[1]
    assert calls["g_update"] <= 30 - 8  # layers 2 to 9 are skipped
    params.b[5] = params.lam[5] = 0.0
    with pytest.raises(SingularDenominator,
                       match=r"^feature update denominator floor 0\.000e\+00$"):
        unroll.forward(y, params)


def test_forward_recorded_gradients_have_model_shapes(rng):
    params = small_params(layers=2, channels=2)
    y = rng.random((12, 12))
    tape = ad.Tape()
    kernel, g, x_hat, state = unroll.forward(y, params, tape=tape)
    loss = ad.mse(state.x_hat, rng.random((12, 12)))
    grads = unroll.collect_gradients(loss, state)
    assert grads["b"].shape == (2, 2)
    assert grads["lam"].shape == (2, 2)
    assert grads["eta"].shape == (2,)
    assert grads["w_top"].shape == (2, 3, 3)
    assert grads["w_mix"].shape == (1, 2, 2, 3, 3)
    for arr in grads.values():
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("restrict", [False, True])
@pytest.mark.parametrize("model", ["trained", "preset"])
def test_plain_and_taped_forwards_agree_bitwise(rng, model, restrict):
    # both paths run the same update code, recorded or not
    if model == "preset":
        params = unroll.tv_prewitt_params(layers=5, kernel_support=7)
    else:
        params = small_params(layers=3, channels=3, support=7)
        params.b = np.full((3, 3), 0.02)
        params.lam = np.full((3, 3), 1e-3)
    y = rng.random((20, 18))
    with kernel_form(restrict):
        plain = unroll.forward(y, params)[:3]
        taped = unroll.forward(y, params, tape=ad.Tape())[:3]
    for name, a, b in zip(("kernel", "g", "x_hat"), plain, taped):
        assert np.array_equal(a, b), name


def test_forward_tracks_kink_signature(rng):
    # the shrinkage's |g| > b bits, one block of C H W bits per layer; the
    # clamp's bits are read off kernel_planes
    params = small_params()
    params.b = np.full((2, 2), 0.02)
    params.lam = np.full((2, 2), 1e-3)
    y = rng.random((12, 12))
    _, g, _, s1 = unroll.forward(y, params, track_kinks=True)
    _, _, _, s2 = unroll.forward(y, params, track_kinks=True)
    assert s1.kink_signature == s2.kink_signature
    assert len(s1.kink_signature) == 2 * (2 * 12 * 12 // 8)
    last = np.packbits(np.abs(g) > params.b[-1][:, None, None]).tobytes()
    assert s1.kink_signature[-len(last):] == last and any(last)
    assert unroll.forward(y, params)[3].kink_signature is None


def _taped_forward(layers, channels, y):
    params = small_params(layers=layers, channels=channels)
    params.b = np.full((layers, channels), 0.02)
    params.lam = np.full((layers, channels), 1e-3)
    tape = ad.Tape()
    _, _, _, state = unroll.forward(y, params, tape=tape)
    return state


def _graph(*outputs):
    """Every node the outputs depend on."""
    seen = {}
    stack = list(outputs)
    while stack:
        node = stack.pop()
        if node.idx not in seen:
            seen[node.idx] = node
            stack.extend(node.parents)
    return list(seen.values())


def test_taped_forward_records_no_per_filter_convolutions(rng):
    state = _taped_forward(3, 4, rng.random((16, 16)))
    nodes = _graph(state.x_hat, state.kernel_plane)
    pulls = [node.pull.__qualname__ for node in nodes if node.parents]
    assert pulls and not any(q.startswith("conv_full.") for q in pulls)
    assert sum(q.startswith("cascade.") for q in pulls) == 2


def test_taped_forward_records_one_node_per_update(rng):
    # each update is one node; the first layer's K is the untracked
    # identity, and the last bank's spectra and the last kernel's are
    # recorded for the reconstruction; each slice b[l], lam[l] and w_mix[l]
    # is one take node
    L, C = 3, 4
    state = _taped_forward(L, C, rng.random((16, 16)))
    ops = collections.Counter(node.pull.__qualname__.split(".")[0]
                              for node in _graph(state.x_hat, state.kernel_plane)
                              if node.parents)
    assert ops == {"cascade": L - 1, "filter_spectra": L + 1, "g_update": L,
                   "z_spectrum": L, "rfft2": L, "kernel_estimate": L,
                   "reconstruct": 1, "take": 3 * L - 1}


def test_tape_nodes_do_not_depend_on_channels_or_size(rng):
    # the leaves, L-1 cascade generations, five nodes per layer (four in the
    # first, whose K is the plain identity), the last F_l and K and the
    # reconstruction, plus the 3L-1 take nodes of b[l], lam[l] and w_mix[l],
    # whatever C and the image size
    L = 3
    counts = {len(_taped_forward(L, c, rng.random((n, n))).tape)
              for c in (2, 4, 6) for n in (16, 24)}
    assert counts == {len(unroll.TRAINABLE) + (L - 1) + (5 * L - 1) + 3
                      + (3 * L - 1)}


def test_default_init_records_no_dead_layer_nodes(rng):
    # at the default init (b = 1, lam = 0) no layer of criterion 7's layout
    # keeps a feature: each records its take nodes, its filter spectra and
    # its g update, and no Z, kernel or next-layer K node, so the loss is
    # 37 nodes where recording every layer made 52
    L, C, n, support = 5, 8, 64, 13
    params = small_params(layers=L, channels=C, support=support)
    y = rng.random((n, n))
    tape = ad.Tape()
    state = unroll.forward(y, params, tape=tape)[3]
    assert len(tape) == len(unroll.TRAINABLE) + (L - 1) + (3 * L - 1) + 2 * L + 2
    loss_terms(state.x_hat, state.kernel_plane, y,
               spectral.embed_kernel(np.ones((support, support)) / support ** 2, n, n),
               1e5)
    assert len(tape) == 37


def test_tape_nodes_per_layer_do_not_depend_on_channels(rng):
    y = rng.random((16, 16))
    per_layer = {len(_taped_forward(3, c, y).tape)
                 - len(_taped_forward(2, c, y).tape) for c in (2, 4, 6)}
    assert len(per_layer) == 1


def _held_buffers(*outputs):
    """The distinct buffers a graph holds: node values and the arrays their
    pulls capture, each as the array that owns its memory."""
    buffers, seen = {}, set()

    def hold(obj):
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            buffers[id(obj)] = obj
        elif isinstance(obj, ad.Var):
            hold(obj.value)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                hold(item)
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in getattr(obj, "__closure__", None) or ():
                hold(cell.cell_contents)

    for node in _graph(*outputs):
        hold(node.value)
        hold(node.pull)
    return list(buffers.values())


def _training_loss(state, y, n):
    return loss_terms(state.x_hat, state.kernel_plane, y,
                      spectral.embed_kernel(np.ones((5, 5)) / 25, n, n), 1e5)[0]


def test_graph_holds_one_half_stack_a_code_and_five_planes_per_layer(rng):
    # each node keeps its inputs, the kernel update its channel sums and the
    # shrinkage a one-byte code of g, so a layer holds the half spectra Z,
    # the code and five plane-sized values (K, Q, 1/D, the raw and the
    # projected kernel); the reconstruction keeps the spectra G of the last
    # g, and the loss a few planes. g is released, and so are the filtered
    # spectra Y_l and the last F, which the pulls remake from the bank
    L, C, n = 3, 4, 64
    y = rng.random((n, n))
    loss = _training_loss(_taped_forward(L, C, y), y, n)
    half = C * n * (n // 2 + 1) * np.dtype(np.complex128).itemsize
    plane = half // C  # no plane-sized value is larger
    code = C * n * n
    held = sum(a.nbytes for a in _held_buffers(loss))
    assert held <= L * (half + code + 5 * plane) + half + 8 * plane


@pytest.mark.parametrize("restrict", [False, True])
def test_training_graph_holds_no_feature_plane(rng, restrict):
    # no pull reads g, so forward releases every layer's features once
    # their last reader is done: no buffer the loss reaches, node value or
    # pull capture, is a (C, H, W) float64 stack
    L, C, n = 3, 4, 32
    y = rng.random((n, n))
    with kernel_form(restrict):
        loss = _training_loss(_taped_forward(L, C, y), y, n)
    assert not [a.shape for a in _held_buffers(loss)
                if a.shape == (C, n, n) and a.dtype == np.float64]


def test_backward_sweeps_over_released_features_agree(rng):
    # every layer's g node is in the graph with its value released, and so
    # are its filtered spectra Y_l and the reconstruction's F, which the
    # pulls remake (ad.read); two sweeps read the same graph and give the
    # same gradients, bit for bit, and neither leaves a remade value on it
    L, C, n = 3, 4, 32
    y = rng.random((n, n))
    state = _taped_forward(L, C, y)
    loss = _training_loss(state, y, n)
    released = [node for node in _graph(loss) if isinstance(node.value, ad.Released)]
    made_by = collections.Counter(
        (node.pull.__qualname__.split(".")[0], node.value.remake is None)
        for node in released)
    assert made_by == {("g_update", True): L, ("filter_spectra", False): L + 1}
    for node in released:
        with pytest.raises(ReleasedValue):
            ad.value(node)
    grads = []
    for _ in range(2):
        grads.append(unroll.collect_gradients(loss, state))
        assert all(node.value.remade is None for node in released)
    first, second = grads
    assert all(same_bits(first[name], second[name]) for name in first)


@pytest.mark.parametrize("C, shape", [(16, (128, 128)), (3, (24, 35))])
def test_remade_spectra_are_the_forwards_bitwise(rng, monkeypatch, C, shape):
    # each layer's Y_l and the reconstruction's F, remade from the bank
    # (product in the transform's buffer), have the forward's bytes, at the
    # benchmark's 128 px with C = 16 and at an odd, non-square width
    L = 2
    kept, release = [], ad.release

    def keeping(x, remake=None):  # each node released with a remake, and its value
        if remake is not None:
            kept.append((x, np.array(x.value)))
        release(x, remake)

    monkeypatch.setattr(ad, "release", keeping)
    unroll.forward(rng.random(shape), _live_params(L, C), tape=ad.Tape())
    assert len(kept) == L + 1
    for node, value in kept:
        assert same_bits(ad.read(node), value)


@pytest.mark.parametrize("model", ["trained", "preset"])
def test_sweep_remakes_each_released_spectrum_once(rng, monkeypatch, model):
    # a trained layout's sweep transforms each layer's bank once, for Y_l,
    # and the last bank once more, for F: L + 1 window transforms, where
    # its pulls make none of their own. The preset's shared bank is a plain
    # array, so its spectra are no node and nothing is remade: its two
    # window transforms are its two kernel windows' (kernel_estimate's pull)
    L, n = 2, 32
    y = rng.random((n, n))
    params = (unroll.tv_prewitt_params(layers=L, kernel_support=7)
              if model == "preset" else _live_params(L))
    state = unroll.forward(y, params, tape=ad.Tape())[3]
    loss = ad.mse(state.x_hat, rng.random((n, n)))
    calls, window_rfft2 = [], spectral.window_rfft2
    monkeypatch.setattr(spectral, "window_rfft2", lambda *args: (
        calls.append(args) or window_rfft2(*args)))
    unroll.collect_gradients(loss, state)
    assert len(calls) == (L + 1 if model == "trained" else 2)


def test_plain_forward_drops_features_and_z_after_their_last_reader(rng, monkeypatch):
    # plain, a layer holds one feature stack: no earlier layer's g is alive
    # when g_update runs, and no earlier Z when z_spectrum makes the next
    made = {}
    for name in ("g_update", "z_spectrum"):
        def checked(*args, _fn=getattr(unroll, name), _refs=made.setdefault(name, [])):
            assert all(ref() is None for ref in _refs)
            out = _fn(*args)
            _refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(unroll, name, checked)
    L = 3
    unroll.forward(rng.random((16, 16)), _live_params(L))
    assert [len(refs) for refs in made.values()] == [L, L]


def _live_params(layers=3, channels=4):
    params = small_params(layers=layers, channels=channels)
    params.b = np.full((layers, channels), 0.02)
    params.lam = np.full((layers, channels), 1e-3)
    return params


@pytest.mark.parametrize("restrict", [False, True])
def test_backward_reads_the_kept_channel_sums(rng, monkeypatch, restrict):
    # recorded, kernel_estimate keeps Q, 1/D and the raw kernel, and
    # reconstruct the spectra G and its Q and 1/D: their pulls make no
    # quotient and no inverse transform, and the only quotients left are
    # those the g_update pulls recompute, one each
    L, n = 3, 32
    y = rng.random((n, n))
    with kernel_form(restrict):
        state = unroll.forward(y, _live_params(L), tape=ad.Tape())[3]
    loss = ad.mse(state.x_hat, rng.random((n, n)))
    nodes = [node for node in _graph(loss) if node.parents]
    names = [node.pull.__qualname__.split(".")[0] for node in nodes]
    running = [None]
    for node, name in zip(nodes, names):  # each call is named after its pull
        def pull(g, _pull=node.pull, _name=name):
            running[0] = _name
            return _pull(g)
        node.pull = pull
    calls = collections.Counter()
    for module, name in ((unroll, "_quotient"), (spectral, "irfft2")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[running[0], _name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    unroll.collect_gradients(loss, state)
    computed = names.count("g_update")
    assert computed == L
    assert calls == {("g_update", "_quotient"): computed}


def _kept_arrays(node):
    """The node's value and every array its pull closes over."""
    stack, kept = [node.value], []
    stack += [cell.cell_contents for cell in getattr(node.pull, "__closure__", None) or ()]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            kept.append(x)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
    return kept


@pytest.mark.parametrize("restrict", [False, True])
def test_pulls_return_arrays_of_their_own(rng, restrict):
    # backward adds a node's second adjoint into the first one's buffer
    # (autodiff._sum_into), so an adjoint a pull returns must be backward's
    # alone: it shares no memory with another adjoint returned in the sweep,
    # by the same pull or another, nor with a value the graph keeps. Only
    # the adjoint a pull was given may pass through, to one input.
    L, n = 3, 32
    with kernel_form(restrict):
        state = unroll.forward(rng.random((n, n)), _live_params(L), tape=ad.Tape())[3]
    target = spectral.embed_kernel(np.full((5, 5), 1 / 25), n, n)
    total = loss_terms(state.x_hat, state.kernel_plane, rng.random((n, n)), target, 1e5)[0]
    graph = _graph(total)
    kept = [a for node in graph for a in _kept_arrays(node)]
    returned = []
    for node in graph:
        if not node.parents:
            continue

        def pull(g, _pull=node.pull, _routes=node.routes):
            adjoints = _pull(g)
            mine = [adjoints[pos] for pos in _routes]
            assert sum(a is g for a in mine) <= 1
            for a in mine:
                if a is not g:
                    assert not any(np.shares_memory(a, b) for b in returned + kept)
                    returned.append(a)
            return adjoints

        node.pull = pull
    unroll.collect_gradients(total, state)
    assert len(returned) > len(graph) // 2


@pytest.mark.parametrize("restrict", [False, True])
def test_plain_forward_holds_nothing_extra(rng, monkeypatch, restrict):
    # a plain forward inverts every quotient in the quotient's own buffer
    # and keeps nothing; a recorded one inverts the kernel updates' and the
    # reconstruction's out of place, for their pulls, and gives the same
    # values, which match the composed forward to 1e-12
    L, n = 3, 32
    params, y = _live_params(L), rng.random((n, n))
    overwrites, irfft2 = [], spectral.irfft2

    def noting(spec, shape, overwrite=False, size=None):
        overwrites.append(overwrite)
        return irfft2(spec, shape, overwrite, size)

    monkeypatch.setattr(spectral, "irfft2", noting)
    with kernel_form(restrict):
        plain = unroll.forward(y, params)
        assert overwrites and all(overwrites)
        overwrites.clear()
        taped = unroll.forward(y, params, tape=ad.Tape())
    assert overwrites.count(False) == L + 1
    for name, a, b in zip(("kernel", "g", "x_hat"), plain, taped):
        assert np.array_equal(a, b), name
    assert np.array_equal(plain[3].kernel_plane, ad.value(taped[3].kernel_plane))
    want_x, want_k, _ = composed.forward(y, params, ad.Tape(), restrict)
    for got, want in ((plain[2], want_x), (plain[3].kernel_plane, want_k)):
        want = ad.value(want)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("shape", [(16, 16), (13, 10), (128, 128)])
def test_channel_sums_have_the_stacked_sums_bits(rng, shape):
    # the summed terms of the kernel update and the reconstruction are
    # made plane by plane; np.sum over the channel stack adds the planes in
    # the same order, so the planes are those of the stacked sums
    C, (h, w) = 4, shape
    z, y = (spectral.rfft2(rng.standard_normal((C, h, w))) for _ in range(2))
    den = np.sum((z * np.conj(z)).real, axis=0) + 0.5
    want = spectral.irfft2(np.sum(np.conj(z) * y, axis=0) * np.reciprocal(den), shape)
    assert np.array_equal(unroll.k_update(z, y, 0.5, shape), want)
    k_spec, y_spec = (spectral.rfft2(rng.random((h, w))) for _ in range(2))
    g, eta = rng.standard_normal((C, h, w)), rng.uniform(0.5, 20.0, C)
    e = eta[:, None, None]
    g_spec = spectral.rfft2(g)
    den = (k_spec * np.conj(k_spec)).real
    den += np.sum(np.multiply(e, (z * np.conj(z)).real), axis=0)
    num = np.conj(k_spec) * y_spec
    num += np.sum(np.multiply(e, np.conj(z) * g_spec), axis=0)
    want = spectral.irfft2(num * np.reciprocal(den), shape)
    assert np.array_equal(unroll.reconstruct(y_spec, k_spec, g, z, eta, shape), want)


def test_collect_gradients_reads_filter_arrays_whole(rng):
    params = small_params(layers=3, channels=2)
    params.b = np.full((3, 2), 0.02)
    params.lam = np.full((3, 2), 1e-3)
    tape = ad.Tape()
    _, _, _, state = unroll.forward(rng.random((12, 12)), params, tape=tape)
    assert state.param_vars["w_top"].shape == (2, 3, 3)
    assert state.param_vars["w_mix"].shape == (2, 2, 2, 3, 3)
    loss = ad.mse(state.x_hat, rng.random((12, 12)))
    grads = unroll.collect_gradients(loss, state)
    assert np.any(grads["w_top"] != 0.0) and np.any(grads["w_mix"] != 0.0)


# ---------------------------------------------------------------------------
# row blocks of the quotients

# odd-width planes whose height is no multiple of the block: half spectra
# of 23 columns, 368 bytes a row, in 12 blocks of 5 rows and a last of 1
RAGGED = (61, 45)
RAGGED_ROWS = 5


def _budget(monkeypatch, rows):
    """Row blocks of `rows` rows of RAGGED's half planes; None: one block."""
    row_bytes = 16 * (RAGGED[1] // 2 + 1)
    monkeypatch.setattr(unroll, "QUOTIENT_BLOCK_BYTES",
                        2 ** 62 if rows is None else rows * row_bytes)


def _one_block_and_ragged(monkeypatch, run):
    results = []
    for rows in (None, RAGGED_ROWS):
        _budget(monkeypatch, rows)
        results.append(run())
    return results


def same_bits(a, b):
    """Equal dtype, shape and bytes: the sign of every zero counts too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_ragged_row_blocks_cover_every_row_once(monkeypatch):
    h, w = RAGGED
    _budget(monkeypatch, RAGGED_ROWS)
    blocks = unroll._row_blocks((3, h, w // 2 + 1))
    assert [len(range(h)[rows]) for rows in blocks] == [5] * 12 + [1]
    _budget(monkeypatch, None)
    assert len(unroll._row_blocks((3, h, w // 2 + 1))) == 1
    monkeypatch.undo()  # the default budget: 128 px planes are one block
    assert len(unroll._row_blocks((16, 128, 65))) == 1
    assert len(unroll._row_blocks((2, 512, 257))) == 9


def test_row_blocks_change_no_update_bits(rng, monkeypatch):
    C, (h, w) = 3, RAGGED
    y, z, f = (spectral.rfft2(rng.standard_normal((C, h, w))) for _ in range(3))
    k = spectral.rfft2(rng.random((h, w)))
    b, lam = rng.uniform(0.5, 2.0, (C, 1, 1)), rng.uniform(1e-3, 1e-2, (C, 1, 1))
    g, eta = rng.standard_normal((C, h, w)), rng.uniform(0.5, 20.0, C)

    def run():
        return (unroll.g_update(y, z, k, b, lam, (h, w)),
                unroll.g_update(y, 0.0, k, b, lam, (h, w)),
                unroll.k_update(z, y, 0.5, (h, w)),
                *unroll.k_update(z, y, 0.5, (h, w), size=7, keep=True),
                unroll.reconstruct(y[0], k, g, f, eta, (h, w)),
                *unroll._quotient(((b, k, y), (lam, 1, z)), update="feature update"))

    one, ragged = _one_block_and_ragged(monkeypatch, run)
    for i, (a, b) in enumerate(zip(one, ragged)):
        assert same_bits(a, b), i


@pytest.mark.parametrize("model", ["trained", "preset"])
def test_row_blocks_change_no_forward_or_gradient_bits(rng, monkeypatch, model):
    # the plain forward, and the recorded one with every pull, including
    # g_update's recomputed quotient, on both kernel forms
    y, target = rng.random(RAGGED), rng.random(RAGGED)

    def run():
        if model == "preset":
            params = unroll.tv_prewitt_params(layers=4, kernel_support=7)
            params.b[:], params.lam[:] = 0.05, 1e-3
        else:
            params = _live_params(layers=3, channels=3)
        kernel, g, x_hat, _ = unroll.forward(y, params)
        state = unroll.forward(y, params, tape=ad.Tape())[3]
        grads = unroll.collect_gradients(ad.mse(state.x_hat, target), state)
        assert np.all(grads["eta"] != 0.0) and np.any(grads["b"] != 0.0)
        return [kernel, g, x_hat, *(grads[name] for name in sorted(grads))]

    one, ragged = _one_block_and_ragged(monkeypatch, run)
    for i, (a, b) in enumerate(zip(one, ragged)):
        assert same_bits(a, b), i


def test_floor_is_checked_in_the_last_row_block(rng, monkeypatch):
    # a zero denominator in the 1-row last block only, in the feature
    # update (b |K|^2 + lam) and the reconstruction (|K|^2 + sum eta |F|^2)
    C, (h, w) = 2, RAGGED
    _budget(monkeypatch, RAGGED_ROWS)
    y = spectral.rfft2(rng.random((C, h, w)))
    k = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), h, w))
    f = bank_spectra(np.stack([unroll.PREWITT_X, unroll.PREWITT_Y]), h, w)
    g, eta = rng.standard_normal((C, h, w)), np.full(C, 2.0)
    b, lam = np.ones((C, 1, 1)), np.zeros((C, 1, 1))
    unroll.g_update(y, 0.0, k, b, lam, (h, w))  # runs with K = 1
    unroll.reconstruct(y[0], k, g, f, eta, (h, w))
    k[-1], f[:, -1] = 0.0, 0.0
    with pytest.raises(SingularDenominator,
                       match=r"^feature update denominator floor 0\.000e\+00$"):
        unroll.g_update(y, 0.0, k, b, lam, (h, w))
    with pytest.raises(SingularDenominator,
                       match=r"^reconstruction denominator floor 0\.000e\+00$"):
        unroll.reconstruct(y[0], k, g, f, eta, (h, w))


def test_zero_z_term_is_skipped_with_the_bits_of_a_zero_stack(rng):
    # while Z is the scalar 0, the term (lam, 1, Z) adds nothing to N; on a
    # first layer's inputs that gives the bits, signs of zeros included, of
    # adding lam times a stack of zeros, in the value and in every adjoint
    # but Z's
    C, (h, w) = 3, (16, 13)
    y = spectral.rfft2(rng.random((C, h, w)))
    k = spectral.rfft2(spectral.embed_kernel(np.array([[1.0]]), h, w))
    b, lam = np.full((C, 1, 1), 0.3), np.full((C, 1, 1), 1e-3)
    gg = rng.standard_normal((C, h, w))
    got = []
    for z in (0.0, np.zeros_like(y)):
        out = unroll.g_update(y, z, k, ad.leaf(ad.Tape(), b), lam, (h, w))
        adjoints = out.pull(gg)  # of y, z, k, b and lam
        got.append([out.value, adjoints[0], *adjoints[2:]])
    for a, b in zip(*got):
        assert same_bits(a, b)


def test_g_update_pull_makes_z_adjoint_only_for_a_recorded_z(rng):
    # Z's adjoint lam t is made only when Z is a node: for the scalar 0 or
    # an untracked stack the pull gives None there, and every other adjoint
    # keeps the bits it has with the same Z recorded
    C, (h, w) = 3, (16, 13)
    y = spectral.rfft2(rng.random((C, h, w)))
    k = spectral.rfft2(rng.random((h, w)))
    b, lam = np.full((C, 1, 1), 0.3), np.full((C, 1, 1), 1e-3)
    gg = rng.standard_normal((C, h, w))
    tape = ad.Tape()
    for planes in (np.zeros((C, h, w)), rng.standard_normal((C, h, w))):
        z = spectral.rfft2(planes) if planes.any() else 0.0
        untracked = unroll.g_update(y, z, k, ad.leaf(tape, b), lam, (h, w))
        tracked = unroll.g_update(y, ad.rfft2(ad.leaf(tape, planes)), k,
                                  ad.leaf(tape, b), lam, (h, w))
        assert same_bits(untracked.value, tracked.value)
        got, want = untracked.pull(gg), tracked.pull(gg)
        assert got[1] is None and want[1].shape == y.shape
        for a, b_ in zip(got[:1] + got[2:], want[:1] + want[2:]):
            assert same_bits(a, b_)
