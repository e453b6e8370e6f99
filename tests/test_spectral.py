import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from unrolled_deblur import autodiff as ad
from unrolled_deblur import spectral
from unrolled_deblur.errors import (DeblurError, DimensionMismatch, EvenSize,
                                    ImaginaryResidue, KernelTooLarge)


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


# ---------------------------------------------------------------------------
# half spectra


def hermitian_extension(spec, w):
    """The full spectrum whose column W - v mirrors column v of a half one."""
    h = spec.shape[-2]
    full = np.empty(spec.shape[:-1] + (w,), dtype=complex)
    full[..., :w // 2 + 1] = spec
    v = np.arange(w // 2 + 1, w)
    full[..., v] = np.conj(spec[..., -np.arange(h)[:, None], w - v])
    return full


def residue_energies(message):
    """The imaginary and total energy an ImaginaryResidue message reports."""
    return [float(x) for x in re.findall(r"\d\.\d{3}e[+-]\d+", message)]


@pytest.mark.parametrize("h", range(2, 18))
def test_half_transform_roundtrip(rng, h):
    for w in range(2, 18):
        a = rng.standard_normal((h, w))
        spec = spectral.rfft2(a)
        assert spec.shape == (h, w // 2 + 1)
        assert np.abs(spec - spectral.fft2(a)[:, :w // 2 + 1]).max() < 1e-12
        assert np.abs(spectral.irfft2(spec, a.shape) - a).max() < 1e-12


@pytest.mark.parametrize("w", [1, 2, 7, 8])
def test_doubled_columns_weigh_parseval(rng, w):
    # every other column stands for itself and its mirror W - v
    a = rng.standard_normal((5, w))
    weights = np.ones(w // 2 + 1)
    weights[spectral.doubled_columns(w)] = 2.0
    half = np.sum(weights * np.abs(spectral.rfft2(a)) ** 2) / a.size
    assert abs(half - np.sum(a ** 2)) < 1e-12 * np.sum(a ** 2)


@pytest.mark.parametrize("w, col", [(8, 0), (8, 4), (7, 0)])
def test_irfft2_checks_self_mirrored_columns_per_plane(rng, w, col):
    # plane 0 gets an anti-Hermitian part in column 0 or W/2, about 1e-5 of
    # its energy; pooled with 99 planes of 1e4x the energy it falls below
    # IMAG_ENERGY_TOL, so only a per-plane check sees it
    planes = rng.standard_normal((100, 8, w))
    planes[1:] *= 100.0
    spec = spectral.rfft2(planes)
    spec[0, :, col] += 3e-2j * spec[0, :, col]
    out = np.fft.ifft2(hermitian_extension(spec, w))
    pooled = np.sum(out.imag ** 2) / np.sum(np.abs(out) ** 2)
    assert pooled < spectral.IMAG_ENERGY_TOL
    with pytest.raises(ImaginaryResidue) as half:
        spectral.irfft2(spec, (8, w))
    # the energies are those a complex inverse of the full spectrum reports
    with pytest.raises(ImaginaryResidue) as full:
        spectral.ifft2(hermitian_extension(spec[0], w))
    assert np.allclose(residue_energies(str(half.value)),
                       residue_energies(str(full.value)), rtol=2e-3)
    assert np.array_equal(spectral.irfft2(spec[1:], (8, w)),
                          scipy.fft.irfft2(spec[1:], s=(8, w)))


def test_irfft2_names_a_bad_middle_plane(rng):
    planes = rng.standard_normal((3, 4, 8, 6))
    spec = spectral.rfft2(planes)
    spec[1, 2, :, 3] += 3e-2j * spec[1, 2, :, 3]
    bad = np.fft.ifft2(hermitian_extension(spec[1, 2], 6))
    imag = np.sum(bad.imag ** 2)
    want = [imag, np.sum(bad.real ** 2) + imag]
    with pytest.raises(ImaginaryResidue) as err:
        spectral.irfft2(spec, (8, 6))
    assert np.allclose(residue_energies(str(err.value)), want, rtol=2e-3)
    spec[1, 2, :, 1] += 1j * spec[1, 2, :, 1]  # a doubled column is free
    spec[1, 2, :, 3] = spectral.rfft2(planes[1, 2])[:, 3]
    spectral.irfft2(spec, (8, 6))


@pytest.mark.parametrize("w", [1, 2, 7, 8])
def test_irfft2_overwrite_gives_the_same_planes(rng, w):
    spec = spectral.rfft2(rng.standard_normal((3, 9, w)))
    kept = spec.copy()
    want = spectral.irfft2(spec, (9, w))
    assert np.array_equal(spec, kept)  # the copying mode leaves it alone
    assert np.array_equal(spectral.irfft2(spec, (9, w), overwrite=True), want)


def test_irfft2_overwrite_names_the_same_bad_middle_plane(rng):
    spec = spectral.rfft2(rng.standard_normal((3, 4, 8, 6)))
    spec[1, 2, :, 3] += 3e-2j * spec[1, 2, :, 3]
    with pytest.raises(ImaginaryResidue) as copying:
        spectral.irfft2(spec, (8, 6))
    with pytest.raises(ImaginaryResidue) as overwriting:
        spectral.irfft2(spec, (8, 6), overwrite=True)
    assert str(overwriting.value) == str(copying.value)


def test_irfft2_rejects_a_spectrum_of_other_planes(rng):
    spec = spectral.rfft2(rng.standard_normal((6, 8)))
    for shape in ((6, 10), (6, 5), (7, 8)):
        with pytest.raises(DimensionMismatch):
            spectral.irfft2(spec, shape)


def test_stacked_embedding_matches_each_kernel(rng):
    stack = rng.standard_normal((2, 3, 5, 5))
    planes = spectral.embed_kernels(stack, 7, 6)
    assert planes.shape == (2, 3, 7, 6)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(planes[idx], spectral.embed_kernel(stack[idx], 7, 6))
    assert np.array_equal(spectral.wrap_window(planes, 5), stack)
    with pytest.raises(DimensionMismatch):
        spectral.embed_kernel(stack[0], 7, 6)  # user kernels stay 2-D


def roll_embedding(kernels, h, w):
    """embed_kernels by np.roll of the zero-padded stack."""
    k = kernels.shape[-1]
    planes = np.zeros(kernels.shape[:-2] + (h, w), kernels.dtype)
    planes[..., :k, :k] = kernels
    return np.roll(planes, (-(k // 2), -(k // 2)), axis=(-2, -1))


def roll_window(planes, size):
    """wrap_window by np.roll of the whole stack."""
    r = size // 2
    return np.roll(planes, (r, r), axis=(-2, -1))[..., :size, :size]


def test_embed_and_window_match_roll_references(rng):
    for h in range(1, 13):
        for w in range(1, 13):
            for size in range(1, min(h, w) + 1, 2):
                for lead in ((), (3,), (2, 2)):
                    kernels = rng.standard_normal(lead + (size, size))
                    planes = rng.standard_normal(lead + (h, w))
                    assert np.array_equal(spectral.embed_kernels(kernels, h, w),
                                          roll_embedding(kernels, h, w))
                    window = spectral.wrap_window(planes, size)
                    assert np.array_equal(window, roll_window(planes, size))
                    assert window.flags.c_contiguous
                    assert not np.shares_memory(window, planes)
                spec = spectral.rfft2(rng.standard_normal((2, h, w)))
                if size <= spec.shape[-1]:  # complex stacks keep their dtype
                    got = spectral.wrap_window(spec, size)
                    assert got.dtype == spec.dtype
                    assert np.array_equal(got, roll_window(spec, size))


def weighted_inverse(g, shape):
    """The DFT adjoint as a copy of g weighted 1/2 on the doubled columns,
    then scipy's two passes and the H*W scale."""
    g = np.array(g, dtype=np.complex128)
    g[..., spectral.doubled_columns(shape[1])] *= 0.5
    planes = scipy.fft.irfft(scipy.fft.ifft(g, axis=-2), n=shape[1], axis=-1)
    return planes * float(shape[0] * shape[1])


def test_dft_adjoint_weights_after_the_column_pass_bitwise(rng):
    # the weight 1/2 is a power of two and the column pass acts on each
    # column alone, so weighting its output equals weighting a copy of g
    for lead in ((), (3,), (2, 2), (16,)):
        for h, w in ((1, 1), (2, 9), (9, 7), (15, 14), (12, 12), (128, 128)):
            g = spectral.rfft2(rng.standard_normal(lead + (h, w)))
            kept = g.copy()
            got = ad.dft_adjoint(g, (h, w))
            assert np.array_equal(got, weighted_inverse(g, (h, w)))
            assert np.array_equal(g, kept)
            assert got.shape == lead + (h, w) and got.flags.c_contiguous


def test_windowed_dft_adjoint_is_the_window_of_the_planes_bitwise(rng):
    for h in range(1, 13):
        for w in range(1, 13):
            for lead in ((), (3,)):
                g = spectral.rfft2(rng.standard_normal(lead + (h, w)))
                kept = g.copy()
                planes = ad.dft_adjoint(g, (h, w))
                for size in range(1, min(h, w) + 1, 2):
                    got = ad.dft_adjoint(g, (h, w), size)
                    assert np.array_equal(got, spectral.wrap_window(planes, size))
                    assert got.flags.c_contiguous
                assert np.array_equal(g, kept)


def _odd_sizes(h, w):
    return range(1, min(h, w) + 1, 2)


def _raised(fn, *args):
    """The type of the DeblurError fn raises, or None."""
    try:
        fn(*args)
    except DeblurError as err:
        return type(err)
    return None


def test_window_rfft2_is_rfft2_of_the_embedded_planes_bitwise(rng):
    # each row is transformed on its own, and a zero row to exact zeros, so
    # transforming only the window's rows changes no bit; a bad window
    # raises what embedding it raises
    for h in range(1, 13):
        for w in range(1, 13):
            for size in _odd_sizes(h, w):
                for lead in ((), (3,)):
                    windows = rng.standard_normal(lead + (size, size))
                    kept = windows.copy()
                    want = spectral.rfft2(spectral.embed_kernels(windows, h, w))
                    got = spectral.window_rfft2(windows, (h, w))
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert np.array_equal(got, want)
                    assert np.array_equal(windows, kept)
            big = min(h, w) + 1 + min(h, w) % 2  # the smallest odd size too large
            for bad in ((2, 2), (4, 4), (big, big), (big + 1, big + 1), (1, 3),
                        (3,), ()):
                windows = np.ones(bad)
                want = _raised(lambda: spectral.rfft2(spectral.embed_kernels(
                    windows, h, w)))
                assert want is not None
                assert _raised(spectral.window_rfft2, windows, (h, w)) is want


def test_windowed_irfft2_is_the_window_of_the_planes_bitwise(rng):
    # the real pass runs row by row, so the window's rows alone give the
    # window's bits; the residue check reads the whole half spectrum either
    # way, so it names the same plane with the same energies
    for h in range(1, 13):
        for w in range(1, 13):
            for lead in ((), (3,)):
                spec = spectral.rfft2(rng.standard_normal(lead + (h, w)))
                kept = spec.copy()
                planes = spectral.irfft2(spec, (h, w))
                bad = spec.copy()
                bad.reshape(-1, h, w // 2 + 1)[-1, :, 0] += 1j  # the last plane's
                with pytest.raises(ImaginaryResidue) as whole:
                    spectral.irfft2(bad, (h, w))
                for size in _odd_sizes(h, w):
                    got = spectral.irfft2(spec, (h, w), size=size)
                    assert np.array_equal(got, spectral.wrap_window(planes, size))
                    assert got.flags.c_contiguous
                    with pytest.raises(ImaginaryResidue) as window:
                        spectral.irfft2(bad, (h, w), size=size)
                    assert str(window.value) == str(whole.value)
                assert np.array_equal(spec, kept)


def test_windowed_irfft2_names_a_bad_middle_plane(rng):
    spec = spectral.rfft2(rng.standard_normal((3, 4, 8, 6)))
    spec[1, 2, :, 3] += 3e-2j * spec[1, 2, :, 3]
    with pytest.raises(ImaginaryResidue) as whole:
        spectral.irfft2(spec, (8, 6))
    for size in (1, 3, 5):
        with pytest.raises(ImaginaryResidue) as window:
            spectral.irfft2(spec.copy(), (8, 6), overwrite=True, size=size)
        assert str(window.value) == str(whole.value)


def test_windowed_irfft2_rejects_bad_sizes(rng):
    spec = spectral.rfft2(rng.standard_normal((6, 8)))
    for size, error in ((2, EvenSize), (7, KernelTooLarge), (9, KernelTooLarge)):
        with pytest.raises(error):
            spectral.irfft2(spec, (6, 8), size=size)


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


def _fft_uses(source, library="numpy"):
    """Line numbers where a module imports or reaches library.fft."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             for a in node.names if a.name == library}
    module = library + ".fft"
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.startswith(module) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith(module) or (
                node.module == library and any(a.name == "fft" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "fft"
                   and isinstance(node.value, ast.Name)
                   and node.value.id in names)
        if hit:
            lines.append(node.lineno)
    return lines


def test_numpy_fft_use_is_detected():
    for source in ("import numpy as np\nnp.fft.fft2(x)",
                   "import numpy\ny = numpy.fft.ifft2(x)",
                   "from numpy import fft", "from numpy.fft import fft2",
                   "import numpy.fft"):
        assert _fft_uses(source), source
    assert _fft_uses("import numpy as np\nimport scipy.fft\n"
                     "scipy.fft.fft2(np.ones(2))") == []


def test_scipy_fft_use_is_detected():
    for source in ("import scipy.fft", "from scipy import fft",
                   "from scipy import signal, fft as f", "import scipy.fft as sf",
                   "from scipy.fft import rfft2", "import scipy\nscipy.fft.fft2(x)"):
        assert _fft_uses(source, "scipy"), source
    assert _fft_uses("import numpy as np\nfrom scipy import signal\n"
                     "np.fft.fft2(signal.convolve2d(x, y))", "scipy") == []


def test_package_has_one_fft_library():
    # every transform goes through spectral (scipy.fft); numpy.fft would be
    # a second library with its own rounding, and a scipy.fft call in
    # another module a second place the transforms are made
    package = pathlib.Path(spectral.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py"))}
    uses = {name: _fft_uses(text) for name, text in sources.items()}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    uses = {name: _fft_uses(text, "scipy") for name, text in sources.items()
            if name != "spectral.py"}
    assert {name: lines for name, lines in uses.items() if lines} == {}
    assert _fft_uses(sources["spectral.py"], "scipy")  # the detector sees it


def _scipy_modules(code):
    """The scipy modules a fresh interpreter holds after running code."""
    src = str(pathlib.Path(spectral.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    listing = ("\nimport sys\nprint(' '.join(m for m in sys.modules"
               " if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code + listing], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_package_imports_no_scipy_beyond_fft():
    # spectral's scipy.fft is the one library numerics the solver needs;
    # another scipy subpackage (signal loads stats, optimize, sparse, ...)
    # would cost every process its import time and memory
    alone = _scipy_modules("import scipy.fft")
    assert "scipy.fft" in alone
    package = _scipy_modules("import unrolled_deblur, unrolled_deblur.cli, "
                             "unrolled_deblur.gradcheck")
    assert sorted(package - alone) == []
