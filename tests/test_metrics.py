"""Quality metrics and the evaluation harness."""

import csv
import math
import os

import numpy as np
import pytest
from scipy import signal

from unrolled_deblur import imaging, metrics
from unrolled_deblur.errors import (DimensionMismatch, EvenSize, ImageTooSmall,
                                    InvalidParameter, NonFiniteInput)


def align_shift_reference(estimate, reference, max_shift):
    """Exhaustive exact scan: every candidate in tie-break order, strict <."""
    candidates = sorted(
        ((dy, dx)
         for dy in range(-max_shift, max_shift + 1)
         for dx in range(-max_shift, max_shift + 1)),
        key=lambda s: (abs(s[0]) + abs(s[1]), s))
    best = None
    best_mse = math.inf
    for dy, dx in candidates:
        mse = metrics._mse_exact(np.roll(estimate, (dy, dx), axis=(0, 1)),
                                 reference)
        if mse < best_mse:
            best_mse = mse
            best = (dy, dx)
    return best


def kernel_rmse_reference(estimate, truth):
    size = max(estimate.shape[0], truth.shape[0])

    def pad(k):
        margin = (size - k.shape[0]) // 2
        out = np.zeros((size, size))
        out[margin:margin + k.shape[0], margin:margin + k.shape[0]] = k
        return out

    a, b = pad(estimate), pad(truth)
    shift = align_shift_reference(a, b, size // 2)
    return math.sqrt(metrics._mse_exact(np.roll(a, shift, axis=(0, 1)), b))


def stripes(h, w):
    return np.tile(np.array([[0.0], [1.0]]), (h // 2 + 1, w))[:h]


# ---------------------------------------------------------------------------
# PSNR / ISNR


def test_psnr_constant_offset_is_exact():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 0.1)
    assert metrics.psnr(a, b) == 20.0


def test_psnr_identical_is_infinite(rng):
    img = rng.random((8, 8))
    assert metrics.psnr(img, img) == math.inf


def test_psnr_matches_scalar_loop(rng):
    a = rng.random((6, 7))
    b = rng.random((6, 7))
    acc = 0.0
    for (i, j), v in np.ndenumerate(a):
        acc += (v - b[i, j]) ** 2
    ref = 10.0 * math.log10(1.0 / (acc / a.size))
    assert abs(metrics.psnr(a, b) - ref) < 1e-10


def test_psnr_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        metrics.psnr(np.zeros((4, 4)), np.zeros((4, 5)))


def test_psnr_strictly_decreasing_in_noise(rng):
    img = rng.random((32, 32))
    for seed in range(5):
        values = []
        for sigma in (0.01, 0.02, 0.05):
            noise = np.random.default_rng(seed).normal(0.0, sigma, img.shape)
            values.append(metrics.psnr(img + noise, img))
        assert values[0] > values[1] > values[2]


def test_isnr_chain(rng):
    ref = rng.random((8, 8))
    blurred = ref + 0.2
    estimate = ref + 0.1
    got = metrics.isnr(estimate, blurred, ref)
    assert abs(got - (metrics.psnr(estimate, ref)
                      - metrics.psnr(blurred, ref))) < 1e-12
    assert got > 0.0
    assert metrics.isnr(blurred, blurred, ref) == 0.0


# ---------------------------------------------------------------------------
# SSIM


def test_ssim_self_similarity_is_one(rng):
    img = rng.random((16, 16))
    assert metrics.ssim(img, img) == 1.0


def test_ssim_anticorrelated_is_negative():
    a = np.indices((16, 16)).sum(axis=0) % 2 * 1.0
    assert metrics.ssim(a, 1.0 - a) < -0.9


def test_ssim_symmetry(rng):
    a = rng.random((16, 16))
    b = rng.random((16, 16))
    assert abs(metrics.ssim(a, b) - metrics.ssim(b, a)) < 1e-12


def test_ssim_rejects_small_images(rng):
    with pytest.raises(ImageTooSmall):
        metrics.ssim(rng.random((8, 8)), rng.random((8, 8)))


def _gaussian_window():
    """The 11x11 window from its 2-D formula, normalized to unit mass."""
    ax = np.arange(metrics.SSIM_WINDOW) - (metrics.SSIM_WINDOW - 1) / 2.0
    g = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2)
               / (2.0 * metrics.SSIM_SIGMA ** 2))
    return g / g.sum()


def _ssim_from_means(mu1, mu2, e11, e22, e12):
    c1 = metrics.SSIM_K1 ** 2
    c2 = metrics.SSIM_K2 ** 2
    s11, s22, s12 = e11 - mu1 * mu1, e22 - mu2 * mu2, e12 - mu1 * mu2
    return (((2 * mu1 * mu2 + c1) * (2 * s12 + c2))
            / ((mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)))


def test_ssim_matches_windowed_oracle(rng):
    w = _gaussian_window()
    n = metrics.SSIM_WINDOW
    for shape in ((15, 14), (40, 40)):
        a = rng.random(shape)
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        vals = []
        for p in range(a.shape[0] - n + 1):
            for q in range(a.shape[1] - n + 1):
                pa = a[p:p + n, q:q + n]
                pb = b[p:p + n, q:q + n]
                vals.append(_ssim_from_means(
                    float((w * pa).sum()), float((w * pb).sum()),
                    float((w * pa * pa).sum()), float((w * pb * pb).sum()),
                    float((w * pa * pb).sum())))
        assert abs(metrics.ssim(a, b) - float(np.mean(vals))) < 1e-8

    # scipy.signal stays the oracle at size: the 2-D window by FFT convolution
    a = rng.random((128, 128))
    b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)

    def filt(img):
        return signal.fftconvolve(img, w, mode="valid")

    want = float(np.mean(_ssim_from_means(filt(a), filt(b), filt(a * a),
                                          filt(b * b), filt(a * b))))
    assert abs(metrics.ssim(a, b) - want) < 1e-12


# ---------------------------------------------------------------------------
# alignment


def test_align_shift_recovers_known_shift(rng):
    ref = rng.random((12, 12))
    est = np.roll(ref, (2, -1), axis=(0, 1))
    assert metrics.align_shift(est, ref, 3) == (-2, 1)


def test_align_shift_tie_breaks_to_zero():
    flat = np.full((8, 8), 0.3)
    assert metrics.align_shift(flat, flat, 2) == (0, 0)


def test_align_shift_periodic_tie_is_lexicographic():
    # period-2 stripes: rolling by +1 and -1 both match exactly; the rule
    # prefers the lexicographically smaller of the minimal-magnitude pair
    ref = np.tile(np.array([[0.0], [1.0]]), (4, 8))
    est = np.roll(ref, (1, 0), axis=(0, 1))
    assert metrics.align_shift(est, ref, 2) == (-1, 0)


def test_align_shift_respects_bound(rng):
    ref = rng.random((12, 12))
    est = np.roll(ref, (3, 0), axis=(0, 1))
    dy, dx = metrics.align_shift(est, ref, 2)
    assert abs(dy) <= 2 and abs(dx) <= 2


ALIGN_SHAPES = [(8, 8), (9, 9), (7, 12), (13, 6), (16, 16)]


def _align_cases(rng):
    for h, w in ALIGN_SHAPES:
        for radius in (1, 3, min(h, w) // 2, max(h, w), max(h, w) + 3):
            ref = rng.random((h, w))
            est = np.roll(ref, (2, -1), axis=(0, 1)) + 0.05 * rng.random((h, w))
            yield "random", est, ref, radius
            yield "dc-offset", est + 1e3, ref + 1e3, radius
            yield "noise-only", rng.random((h, w)), rng.random((h, w)), radius
            yield "constant", np.full((h, w), 0.3), np.full((h, w), 0.3), radius
            yield ("stripes", np.roll(stripes(h, w), (1, 0), axis=(0, 1)),
                   stripes(h, w), radius)
            columns = stripes(w, h).T
            yield ("stripes-dc", np.roll(columns, (0, 1), axis=(0, 1)) + 1e3,
                   columns + 1e3, radius)
    # a repeated random tile: shifts by whole periods tie exactly, while
    # their FFT estimates differ by rounding
    for tile, reps in (((3, 4), (4, 3)), ((3, 5), (5, 3)), ((4, 3), (2, 5))):
        for _ in range(4):
            tiled = np.tile(rng.random(tile), reps)
            for radius in (max(tiled.shape) // 2, max(tiled.shape)):
                for dc in (0.0, 1e3):
                    yield ("periodic", np.roll(tiled, (1, 1), axis=(0, 1)) + dc,
                           tiled + dc, radius)


def test_align_shift_matches_exhaustive_scan(rng):
    for name, est, ref, radius in _align_cases(rng):
        want = align_shift_reference(est, ref, radius)
        assert metrics.align_shift(est, ref, radius) == want, (name, est.shape,
                                                               radius)


@pytest.fixture
def exact_calls(monkeypatch):
    """Counts the exact re-scores align_shift makes."""
    calls = []
    exact = metrics._mse_exact

    def counting(a, b):
        calls.append(1)
        return exact(a, b)

    monkeypatch.setattr(metrics, "_mse_exact", counting)
    return calls


def test_align_shift_rescores_only_a_handful(exact_calls, rng):
    ref = rng.random((64, 64))
    est = np.roll(ref, (5, -7), axis=(0, 1)) + 0.05 * rng.random((64, 64))
    assert metrics.align_shift(est, ref, 15) == (-5, 7)
    assert 1 <= len(exact_calls) <= 4  # of 31^2 = 961 candidates


def test_align_shift_constant_image_falls_back_to_full_scan(exact_calls):
    flat = np.full((16, 16), 0.7)
    assert metrics.align_shift(flat, flat, 3) == (0, 0)
    assert len(exact_calls) == 49


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite(rng, bad):
    img = rng.random((12, 12))
    broken = img.copy()
    broken[3, 4] = bad
    for a, b in ((broken, img), (img, broken)):
        with pytest.raises(NonFiniteInput):
            metrics.align_shift(a, b, 2)
        with pytest.raises(NonFiniteInput):
            metrics.psnr(a, b)
    kern = np.full((5, 5), 1.0 / 25)
    bad_kern = kern.copy()
    bad_kern[2, 2] = bad
    with pytest.raises(NonFiniteInput):
        metrics.kernel_rmse(bad_kern, kern)
    with pytest.raises(NonFiniteInput):
        metrics.kernel_rmse(kern, bad_kern)


# ---------------------------------------------------------------------------
# kernel RMSE


def test_kernel_rmse_identical_is_zero(make_kernel):
    k = make_kernel(5)
    assert metrics.kernel_rmse(k, k) == 0.0


def test_kernel_rmse_shift_invariant(make_kernel):
    k = make_kernel(5)
    shifted = np.roll(k, (1, 1), axis=(0, 1))
    assert metrics.kernel_rmse(shifted, k) == 0.0


def test_kernel_rmse_pads_to_common_support():
    small = np.pad([[1.0]], 1)
    big = np.pad([[1.0]], 4)
    assert metrics.kernel_rmse(small, big) == 0.0


def test_kernel_rmse_symmetric(rng, make_kernel):
    a = make_kernel(5)
    b = make_kernel(7)
    assert abs(metrics.kernel_rmse(a, b) - metrics.kernel_rmse(b, a)) < 1e-15


def test_kernel_rmse_matches_exhaustive_oracle(rng, make_kernel):
    a = make_kernel(3)
    b = make_kernel(5)
    pad = np.zeros((5, 5))
    pad[1:4, 1:4] = a
    best = math.inf
    for dy in range(-2, 3):
        for dx in range(-2, 3):
            diff = np.roll(pad, (dy, dx), axis=(0, 1)) - b
            best = min(best, float(np.mean(diff ** 2)))
    assert abs(metrics.kernel_rmse(a, b) - math.sqrt(best)) < 1e-12


def test_kernel_rmse_matches_exhaustive_reference(rng):
    for size_a in range(7, 32, 2):
        for size_b in (size_a, 7, 31, int(rng.integers(3, 16)) * 2 + 1):
            a = rng.random((size_a, size_a))
            b = rng.random((size_b, size_b))
            a /= a.sum()
            b /= b.sum()
            assert metrics.kernel_rmse(a, b) == kernel_rmse_reference(a, b)
            shifted = np.roll(a, (int(rng.integers(-3, 4)), 2), axis=(0, 1))
            assert metrics.kernel_rmse(shifted, a) == 0.0


# ---------------------------------------------------------------------------
# evaluation harness


def make_manifest(tmp_path, rng, n=2, size=16):
    out = str(tmp_path / "data")
    os.makedirs(out, exist_ok=True)
    k = np.pad([[1.0]], 2)
    rows = []
    records = []
    for i in range(n):
        sharp = rng.random((size, size))
        blurred = np.clip(sharp + rng.normal(0, 0.05, sharp.shape), 0, 1)
        bp, sp, kp = ["r%d_%s" % (i, s) for s in ("blur.pgm", "sharp.pgm", "k.txt")]
        imaging.save_image(blurred, os.path.join(out, bp), maxval=65535)
        imaging.save_image(sharp, os.path.join(out, sp), maxval=65535)
        imaging.save_kernel(k, os.path.join(out, kp))
        rows.append("%s,%s,%s,0.05" % (bp, sp, kp))
        records.append((bp, sp, kp))
    man = os.path.join(out, "manifest.csv")
    with open(man, "w", newline="\n") as fh:
        fh.write("blurred,sharp,kernel,sigma\n")
        fh.write("\n".join(rows) + "\n")
    return man, out


def test_evaluate_with_oracle_forward(tmp_path, rng):
    man, out = make_manifest(tmp_path, rng)
    sharp_by_blur = {}
    with open(man) as fh:
        for row in csv.DictReader(fh):
            sharp_by_blur[row["blurred"]] = imaging.load_image(
                os.path.join(out, row["sharp"]))
    truth = np.pad([[1.0]], 2)
    sharps = iter(sharp_by_blur.values())  # manifest order

    def oracle(blurred):
        return truth, next(sharps)

    csv_path = str(tmp_path / "eval.csv")
    report = metrics.evaluate(man, None, csv_path, forward_fn=oracle)
    for row in report.rows:
        assert row.psnr_db == math.inf
        assert row.isnr_db == math.inf
        assert row.ssim == 1.0
        assert row.kernel_rmse == 0.0
        assert (row.shift_dy, row.shift_dx) == (0, 0)
    assert report.mean.psnr_db == math.inf

    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == metrics.EVAL_FIELDS
    assert rows[-1][0] == "MEAN"
    assert float(rows[1][1]) == math.inf  # inf round-trips through the CSV


def test_evaluate_identity_forward_zero_isnr(tmp_path, rng):
    man, _ = make_manifest(tmp_path, rng)

    def identity(blurred):
        return np.pad([[1.0]], 2), blurred

    report = metrics.evaluate(man, None, None, forward_fn=identity)
    for row in report.rows:
        assert row.isnr_db == 0.0
        assert (row.shift_dy, row.shift_dx) == (0, 0)


def test_evaluate_baseline_is_never_shifted(tmp_path, rng):
    # a rolled copy of the blurred input must align back to ISNR exactly 0
    man, _ = make_manifest(tmp_path, rng)

    def rolled(blurred):
        return np.pad([[1.0]], 2), np.roll(blurred, (1, 0), axis=(0, 1))

    report = metrics.evaluate(man, None, None, forward_fn=rolled)
    for row in report.rows:
        assert row.isnr_db == 0.0
        assert (row.shift_dy, row.shift_dx) == (-1, 0)


def test_evaluate_mean_row_is_arithmetic_mean(tmp_path, rng):
    man, _ = make_manifest(tmp_path, rng, n=3)

    def identity(blurred):
        return np.pad([[1.0]], 2), blurred

    report = metrics.evaluate(man, None, None, forward_fn=identity)
    for field in ("psnr_db", "ssim", "kernel_rmse"):
        vals = [getattr(r, field) for r in report.rows]
        assert abs(getattr(report.mean, field) - sum(vals) / 3) < 1e-12


def test_evaluate_rerun_is_byte_identical(tmp_path, rng):
    man, _ = make_manifest(tmp_path, rng)

    def identity(blurred):
        return np.pad([[1.0]], 2), blurred

    pa = str(tmp_path / "a.csv")
    pb = str(tmp_path / "b.csv")
    metrics.evaluate(man, None, pa, forward_fn=identity)
    metrics.evaluate(man, None, pb, forward_fn=identity)
    with open(pa, "rb") as fh:
        a = fh.read()
    with open(pb, "rb") as fh:
        b = fh.read()
    assert a == b


def test_evaluate_threads_match_serial(tmp_path, rng):
    man, _ = make_manifest(tmp_path, rng, n=3)

    def identity(blurred):
        return np.pad([[1.0]], 2), blurred

    serial = metrics.evaluate(man, None, None, forward_fn=identity)
    threaded = metrics.evaluate(man, None, None, forward_fn=identity, threads=3)
    assert [r.record for r in serial.rows] == [r.record for r in threaded.rows]
    assert [r.psnr_db for r in serial.rows] == [r.psnr_db for r in threaded.rows]


def test_evaluate_rejects_non_finite_reconstruction(tmp_path, rng):
    man, _ = make_manifest(tmp_path, rng)

    def broken(blurred):
        x_hat = blurred.copy()
        x_hat[0, 0] = math.nan
        return np.pad([[1.0]], 2), x_hat

    with pytest.raises(NonFiniteInput):
        metrics.evaluate(man, None, None, forward_fn=broken)


@pytest.mark.parametrize("threads", [0, -2])
def test_evaluate_rejects_threads_below_one_before_reading(tmp_path, threads):
    # the manifest does not exist: the check comes before it is read
    with pytest.raises(InvalidParameter, match="threads"):
        metrics.evaluate(str(tmp_path / "none.csv"), None, None,
                         forward_fn=lambda b: None, threads=threads)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0)])
def test_empty_images_are_too_small(shape):
    # typed before any arithmetic: no mean over no pixels (psnr's nan and
    # RuntimeWarnings) and no shift search over an empty plane
    empty = np.zeros(shape)
    for metric in (metrics.psnr, metrics.ssim, lambda a, b: metrics.align_shift(a, b, 1)):
        with pytest.raises(ImageTooSmall, match="no pixels|smaller"):
            metric(empty, empty)


@pytest.mark.parametrize("size", [4, 2, 0])
def test_kernel_rmse_rejects_even_kernels_by_name(make_kernel, size):
    odd = make_kernel(3)
    even = np.full((size, size), 1.0 / max(size * size, 1))
    with pytest.raises(EvenSize, match=r"^estimate kernel is %dx%d" % (size, size)):
        metrics.kernel_rmse(even, odd)
    with pytest.raises(EvenSize, match=r"^truth kernel is %dx%d" % (size, size)):
        metrics.kernel_rmse(odd, even)


def test_kernel_rmse_rejects_non_square_kernels(make_kernel):
    with pytest.raises(DimensionMismatch, match="^truth kernel must be square"):
        metrics.kernel_rmse(make_kernel(3), np.full((3, 5), 1.0 / 15))
