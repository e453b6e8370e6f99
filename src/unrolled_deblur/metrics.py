"""Image and kernel quality metrics plus the evaluation harness.

PSNR uses peak 1.0 and returns +inf on an exact match. SSIM follows the
standard single-scale form: 11x11 gaussian window (sigma 1.5), K1 = 0.01,
K2 = 0.03, dynamic range 1, averaged over valid window positions only. The
window is separable: a local mean sums 11 shifted slices down the columns,
then 11 along the rows, with no transform or BLAS call to vary its bits.
Kernel RMSE pads both kernels to a common support and searches circular
shifts, because the estimate lives on a torus and its absolute phase is
unobservable. The same search aligns reconstructed images to their
references before the image metrics; the shift found is reported alongside.

The shift search ranks every candidate at once from one FFT
cross-correlation, then re-scores with math.fsum, which is exact, only the
candidates that rounding cannot separate from the best. The exact scores
decide in the fixed candidate order, so the result is the one an exhaustive
exact scan returns, and MSE ties resolve identically regardless of how the
inputs were rolled. Every metric rejects non-finite pixels (NonFiniteInput)
and images with no pixels (ImageTooSmall) before any arithmetic.
"""

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import kernelgen, spectral, training, unroll
from .errors import (DimensionMismatch, EvenSize, ImageTooSmall,
                     InvalidParameter, NonFiniteInput)

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_finite(*arrays):
    for x in arrays:
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("metric input holds NaN or Inf")


def _check_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch("images %s vs %s" % (a.shape, b.shape))
    if a.size == 0:  # a mean over no pixels, or a search over no shifts
        raise ImageTooSmall("images %s hold no pixels" % (a.shape,))
    _check_finite(a, b)
    return a, b


def psnr(estimate, reference):
    """10 log10(1 / mse) with peak 1.0; +inf when the images match exactly."""
    estimate, reference = _check_pair(estimate, reference)
    mse = float(np.mean((estimate - reference) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def isnr(estimate, blurred, reference):
    """Improvement over the blurred input, in dB."""
    return psnr(estimate, reference) - psnr(blurred, reference)


def _gaussian_taps():  # the 11x11 window is their outer product
    ax = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-ax ** 2 / (2.0 * SSIM_SIGMA ** 2))
    return g / g.sum()


def ssim(estimate, reference):
    """Mean structural similarity over fully interior 11x11 windows."""
    estimate, reference = _check_pair(estimate, reference)
    if min(estimate.shape) < SSIM_WINDOW:
        raise ImageTooSmall("image %s smaller than %dx%d window"
                            % (estimate.shape, SSIM_WINDOW, SSIM_WINDOW))
    taps = _gaussian_taps()
    h, w = (n - SSIM_WINDOW + 1 for n in estimate.shape)

    def filt(img):  # valid mode: down the columns, then along the rows
        cols = sum(t * img[i:i + h] for i, t in enumerate(taps))
        return sum(t * cols[:, j:j + w] for j, t in enumerate(taps))

    mu1 = filt(estimate)
    mu2 = filt(reference)
    s11 = filt(estimate * estimate) - mu1 * mu1
    s22 = filt(reference * reference) - mu2 * mu2
    s12 = filt(estimate * reference) - mu1 * mu2
    c1 = SSIM_K1 ** 2
    c2 = SSIM_K2 ** 2
    num = (2.0 * mu1 * mu2 + c1) * (2.0 * s12 + c2)
    den = (mu1 * mu1 + mu2 * mu2 + c1) * (s11 + s22 + c2)
    return float(np.mean(num / den))


def _mse_exact(a, b):
    diff = (a - b).ravel()
    return math.fsum(diff * diff) / diff.size


# Rounding slack of the FFT-ranked MSE, in units of eps * energy / n (see
# align_shift): spectral.FFT_SLACK on the normwise FFT bound, plus the
# rounding of the exact re-score itself.
_EXACT_SLACK = 16.0


def align_shift(estimate, reference, max_shift):
    """Circular shift (dy, dx) of the estimate minimizing exact MSE.

    Candidates run over [-max_shift, max_shift]^2; ties break toward the
    smallest |dy| + |dx|, then lexicographically on (dy, dx).
    """
    estimate, reference = _check_pair(estimate, reference)
    h, w = reference.shape
    n = reference.size
    span = np.arange(-max_shift, max_shift + 1)
    dy, dx = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    order = np.lexsort((dx, dy, np.abs(dy) + np.abs(dx)))
    dy, dx = dy[order], dx[order]

    # Rolling the estimate by s gives MSE(s) = (E - 2 corr(s)) / n with
    # E = sum a^2 + sum b^2 and corr(s) = sum_p b[p] a[p - s], which one
    # circular cross-correlation yields for every s at once.
    energy = float(np.sum(estimate * estimate) + np.sum(reference * reference))
    corr = spectral.ifft2(spectral.fft2(reference)
                          * np.conj(spectral.fft2(estimate)))
    approx = (energy - 2.0 * corr[dy % h, dx % w]) / n
    # Error bound. The computed DFT of x has 2-norm error at most
    # c u log2(n) ||DFT x||_2 (u the unit roundoff), and |DFT x| <= sqrt(n)
    # ||x||_2 at every frequency, so every computed corr(s) is within
    # c' u log2(n) sqrt(n) ||a|| ||b|| <= c' u log2(n) sqrt(n) E / 2 of the
    # true value; the DC-dominated image attains the sqrt(n). Computing E
    # and dividing by n add O(u log2(n) E / n), and _mse_exact rounds each
    # squared difference and the fsum total, at most a few u * 2E / n. So
    # |approx(s) - _mse_exact(s)| <= slack for every s. A shift s whose
    # approx exceeds min(approx) + 2 slack then has _mse_exact(s) >
    # min(approx) + slack >= _mse_exact at the argmin of approx >= the
    # exact minimum: it can neither win nor tie, and dropping it cannot
    # change what the ordered strict-< scan below returns.
    eps = np.finfo(np.float64).eps
    slack = (spectral.FFT_SLACK * max(math.log2(n), 1.0) * math.sqrt(n)
             + _EXACT_SLACK) * eps * energy / n
    keep = np.flatnonzero(approx <= approx.min() + 2.0 * slack)

    best = None
    best_mse = math.inf
    for s in keep:
        shift = (int(dy[s]), int(dx[s]))
        mse = _mse_exact(np.roll(estimate, shift, axis=(0, 1)), reference)
        if mse < best_mse:
            best_mse = mse
            best = shift
    return best


def kernel_rmse(estimate, truth):
    """RMSE between kernels after centered padding and circular alignment.

    Both kernels must be odd and square, so that each pads onto the larger
    one's centre: DimensionMismatch or EvenSize names the one that is not.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    for name, k in (("estimate", estimate), ("truth", truth)):
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise DimensionMismatch("%s kernel must be square, got %s" % (name, k.shape))
        if k.shape[0] % 2 == 0:
            raise EvenSize("%s kernel is %dx%d, an even size" % (name, *k.shape))
    _check_finite(estimate, truth)
    size = max(estimate.shape[0], truth.shape[0])
    a, b = (np.pad(k, (size - k.shape[0]) // 2) for k in (estimate, truth))
    dy, dx = align_shift(a, b, size // 2)
    return math.sqrt(_mse_exact(np.roll(a, (dy, dx), axis=(0, 1)), b))


@dataclass
class EvalRow:
    """One report row; its fields, in order, are the CSV columns."""

    record: str
    psnr_db: float
    isnr_db: float
    ssim: float
    kernel_rmse: float
    shift_dy: int
    shift_dx: int


EVAL_FIELDS = [f.name for f in fields(EvalRow)]


@dataclass
class EvalReport:
    rows: list
    mean: EvalRow


def _fmt(v):
    return repr(float(v)) if isinstance(v, float) else str(v)


def evaluate(manifest_path, checkpoint, out_csv, forward_fn=None, threads=1):
    """Score a model over every manifest record and write a CSV report.

    `checkpoint` is the path of a trained checkpoint; `forward_fn`
    (blurred -> (kernel, x_hat)), when given, replaces the model and the
    checkpoint is not read, which keeps the harness testable against an
    oracle. Reconstructions are aligned to the reference by circular shift
    before the image metrics; the blurred baseline inside ISNR is never
    shifted. The CSV has the EvalRow columns and ends with a MEAN row.
    `threads` below 1 raises InvalidParameter before the manifest is read.
    """
    if threads < 1:
        raise InvalidParameter("threads must be >= 1, got %d" % threads)
    records = kernelgen.load_manifest(manifest_path)
    if forward_fn is None:
        params = training.load_checkpoint(checkpoint).params

        def forward_fn(blurred):
            kernel, _, x_hat, _ = unroll.forward(blurred, params)
            return kernel, x_hat

    def score(record):
        kernel, x_hat = forward_fn(record.blurred)
        max_shift = kernel.shape[0] // 2
        dy, dx = align_shift(x_hat, record.sharp, max_shift)
        aligned = np.roll(x_hat, (dy, dx), axis=(0, 1))
        return EvalRow(
            record=record.blurred_path,
            psnr_db=psnr(aligned, record.sharp),
            isnr_db=isnr(aligned, record.blurred, record.sharp),
            ssim=ssim(aligned, record.sharp),
            kernel_rmse=kernel_rmse(kernel, record.kernel),
            shift_dy=dy, shift_dx=dx)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(score, records))
    else:
        rows = [score(r) for r in records]

    # the record column reads MEAN, each score column its mean, the
    # integer (shift) columns 0
    mean = EvalRow("MEAN", *(
        sum(getattr(r, f.name) for r in rows) / len(rows) if f.type is float
        else 0 for f in fields(EvalRow)[1:]))

    if out_csv is not None:
        with open(out_csv, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(EVAL_FIELDS)
            for r in rows + [mean]:
                writer.writerow([_fmt(v) for v in astuple(r)])
    return EvalReport(rows=rows, mean=mean)
