"""Unrolled half-quadratic splitting solver for blind deconvolution.

The observation model is y = k * x + n with circular convolution. Each of
the L layers refines C filtered copies of the blurred image through
closed-form updates, each one per-frequency least-squares solve over a list
of terms (w, A, B) (_quotient), Q = sum w conj(A) B / (sum w |A|^2 + d):

  feature   g_i <- F^-1 Q of (b_i, K, Y_i) and (lam_i, 1, Z_i)
  sparsify  z_i <- soft_threshold(g_i, b_i)
  kernel    k   <- project(F^-1 Q of (1, Z_i, Y_i) summed over i, d = eps)

where Y_i is the spectrum of f_i * y for a per-layer filter bank f, and
project clamps to nonnegative and normalizes to unit mass (k_project).
A fixed_bank model carries the kernel as its s x s window around the
origin throughout (see Windows below). The weights b_i, lam_i
(the penalty reparametrized so lam_i = 0 is well defined), the cascade's
mixing weights and the reconstruction weights eta_i are trainable; eps is fixed.

Filter banks grow by cascading 3x3 generations: the last layer uses C raw
3x3 filters and every earlier layer mixes the following layer's bank
through full convolution, adding two pixels of support per step, so layer 1
sees kernels up to (2L+1) pixels wide. The final estimate x is F^-1 Q of
(1, K, Y) and (eta_i, F_i, G_i) summed over i, with the last layer's bank.

Recording: each update computes its value with numpy and, when an input
is a tape Var, records one node (see autodiff), so the same code runs plain
or recorded. g_update's pull recomputes its quotient from the node's
inputs. Recorded, kernel_estimate and reconstruct keep what their forward
summed over the channels into planes, Q and 1/D, and the raw kernel or
the feature spectra G the sums came from, and their inverse transforms
leave Q's buffer alone; their pulls then make no quotient and no inverse
transform. Plain, they keep nothing and invert in Q's buffer. Recorded,
z_spectrum keeps one int8 code per feature (_shrink_code) in place of g,
so no pull reads a layer's features, and forward releases each layer's g
(autodiff.release) once the peak check, track_kinks and z_spectrum have
read it, and the last layer's once reconstruct and the returned copy have.
It also releases each layer's filtered spectra Y_l after the last layer
that reads them (the next has another bank) and the last F_l after
reconstruct, each with a remake from its bank's taps (_spectra_remake):
the pulls of g_update, kernel_estimate and reconstruct read them through
autodiff.read, which remakes each once per backward sweep. A recorded
layer then holds one half stack, Z, for L + 1 window transforms and L
products per sweep. Plain, forward drops each layer's g after its last
reader and the previous Z once g_update has read it, so a plain layer
holds one feature stack. Each term's adjoint is taken in residual form,
through _term_adjoint or, in g_update's pull, in that pull's own buffers.
A recorded layer makes five nodes (filter_spectra, the spectrum of the
kernel it reads, g_update, z_spectrum and kernel_estimate; the first and
dead ones fewer, see Dead layers), the reconstruction three (the last
bank's filter_spectra, the last kernel's spectrum and reconstruct), and
each slice b[l], lam[l], w_mix[l] one autodiff.take node.

Layout: the C channels travel as one (C, H, W) stack and a filter bank is
one (C, s, s) array, so each update is one call per layer whatever C is.
Layer l reads the (C, 1, 1) slices b[l], lam[l] of the (L, C) arrays; when
recorded, each of b, lam, eta, w_top and w_mix is one tape leaf.

Filter spectra: forward alone transforms a bank, with
spectral.window_rfft2, and only when it is not layer l-1's very bank
object, so the preset's fixed_bank is transformed once (a backward
sweep transforms a trained bank once more, to remake its spectra). The
updates take spectra, never planes: forward transforms each kernel with
ad.rfft2 in the call that reads it, each layer's g_update or the
reconstruction, and reconstruct reuses the last F_l. Shared stacks are
kept read-only.

Windows: the model's kind picks the form the layers carry the kernel in
(_window_support). A fixed_bank model carries its projected s x s window
around the origin (spectral.wrap_window of a plane that is zero outside
it): kernel_estimate inverts only the window's rows (spectral.irfft2 with
a size) and projects the window; the next layer's kernel spectrum, or the
reconstruction's, is spectral.window_rfft2 of it (ad.rfft2 with the image
shape), which transforms only its rows. Only the last window is embedded
into an (H, W) plane, once, for the loss (ad.embed). Each short form gives
the plane form's bits. A trained layout carries the whole (H, W) plane,
the form it is trained on.

Half spectra: every plane the solver transforms is real, so each spectrum
is its half (..., H, W//2+1) and every update takes the image shape
(H, W), raises DimensionMismatch for a spectrum of any other width, and
inverts with spectral.irfft2 (and its residue check on the self-mirrored
columns 0 and W/2). _quotient and _term_adjoint work entrywise; adjoints
pair with the Euclidean inner product over the half, so the weights of
the columns that stand for two (2 in idft_adjoint, 1/2 in dft_adjoint)
are all it takes, and the frequency sums for b, lam and eta come out
right as they are.

Passes: the plain forward makes no pass or stack-sized temporary its
arithmetic does not need, and each short form gives the same bits as the
textbook one. _quotient returns Q = N (1/D) and 1/D, which the pulls
multiply by. It works in row blocks across all channels (_row_blocks) of
at most QUOTIENT_BLOCK_BYTES = 256 KiB of one plane's complex rows: a
128 px half plane (133,120 bytes) is one block, a 512 px one (4,112 bytes
a row) nine, eight of 63 rows and a last of 8. A block forms conj(A) and
|A|^2 once for all channels, sums a term over the channels in place in
its output rows (_channel_sums), writes N and D straight into Q's and
1/D's rows, checks the floor and finishes both there. So the stacks it
reads stay in a 2 MiB L2 at the preset's C = 2, no stack-sized temporary
is made, and every block layout gives the same bits. g_update's term
(lam, 1, Z) adds nothing to N while Z is the scalar 0. The inverse
transform of a quotient that nothing reads again (g_update's, and plain
k_update's and reconstruct's) runs in the quotient's buffer; z_update is
one clip and one subtraction; spectral embeds and windows a kernel by
copying its four wrapped corners; and forward keeps each layer's own
kernel plane or window, read-only. The pulls write only into buffers
they made (see autodiff) and work in place there: g_update's takes both
terms' adjoints in its quotient's, t's and one residual buffer;
idft_adjoint multiplies t by its column weights and the pull's 1/D in
one pass, and dft_adjoint's column pass runs in the product
filter_spectra's and reconstruct's pulls made; _term_adjoint subtracts
t A conj(Q) plane by plane; each weight's gradient is one reduction over
float views (_re_inner); and the pulls of filter_spectra and of a
window's spectrum invert only the window's rows (autodiff.dft_adjoint
with a size).

Dead layers: forward, plain or recorded, tracks the solver's initial
state, Z = 0 and the impulse kernel, which lasts until a layer keeps a
feature. A layer in that state whose shrinkage keeps nothing (max|g| <= b
in every channel) skips its Z transform and kernel update, which could
only give Z = 0 (the scalar, as for layer 1) and the fallback impulse
again. With one shared bank
(fixed_bank), K = 1 makes each such layer's features c_l = b_l / (b_l +
lam_l) times one filtered image, so the first layer's features bound
every later layer's: a layer l < L-1 with c_l max|g_0| / c_0 (1 + slack)
<= b_l in every channel is certified dead and skipped whole (_dead_slack
derives the slack from the normwise FFT bound). The first layer not
certified and every later one run; the last always runs. A skipped layer
still raises SingularDenominator when b_l + lam_l, its denominator, is
below DENOM_FLOOR. Every layer, computed or dead, ends alike: it appends
its kernel to kernel_planes, read-only (a fresh impulse if dead), and
with track_kinks its |g| > b bytes (all zero if dead), so every output
keeps its bits. Recorded, a dead layer makes its g_update node but no
z_spectrum, kernel_estimate or next-layer kernel spectrum node; no path
from the loss reaches that g_update (the last layer's g excepted, which
reconstruct reads), and backward through the layer could only return
zeros (its shrinkage mask is empty, the fallback projection's adjoint is
zero), so losses and gradients keep their bits. The preset's
continuation starts far above the data: on the benchmark's 512 px deblur
records (seeds 0-3, 31, 77, 360) its first 9-11 of 30 layers are dead,
while the generated train/eval model keeps 75-99% of its features in
layer 1 and skips nothing; at the default init (b = 1, lam = 0) every
layer of criterion 7's model is dead.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import spectral
from .errors import (DimensionMismatch, EvenSize, InvalidParameter,
                     KernelTooLarge, NonFiniteInput, SingularDenominator)

# smallest magnitude a frequency-domain denominator may take; anything
# below raises instead of producing Inf/NaN
DENOM_FLOOR = 1e-15

# _quotient's row blocks hold at most this many bytes of one plane's complex
# rows, so that a block of every stack one solve reads and writes stays in a
# 2 MiB L2 at the preset's C = 2; a plane within it is one block (a 128 px
# half spectrum is 133,120 bytes), a 512 px one takes 9
QUOTIENT_BLOCK_BYTES = 256 * 1024

PREWITT_X = np.array([[-1.0, 0.0, 1.0],
                      [-1.0, 0.0, 1.0],
                      [-1.0, 0.0, 1.0]])
PREWITT_Y = PREWITT_X.T.copy()

# the ModelParams arrays that training updates, in checkpoint order; each
# is one tape leaf
TRAINABLE = ("w_top", "w_mix", "b", "lam", "eta")

# the trainable arrays that must stay nonnegative
NONNEGATIVE = ("b", "lam", "eta")


def trainable_shapes(layers, channels):
    """Shape of each TRAINABLE array of an L-layer, C-channel model."""
    L, C = layers, channels
    return {"w_top": (C, 3, 3), "w_mix": (max(L - 1, 0), C, C, 3, 3),
            "b": (L, C), "lam": (L, C), "eta": (C,)}


@dataclass
class ModelParams:
    """Everything the solver needs for a forward pass.

    w_top holds the last layer's C raw 3x3 filters, w_mix the (L-1, C, C)
    grid of 3x3 mixing filters for the cascade. Fixed-filter variants (the
    classical preset) set fixed_bank instead and leave the weights None.
    """

    b: np.ndarray                 # (L, C) data weights, >= 0
    lam: np.ndarray               # (L, C) prior weights, >= 0
    eta: np.ndarray               # (C,) reconstruction weights, >= 0
    w_top: np.ndarray | None = None   # (C, 3, 3)
    w_mix: np.ndarray | None = None   # (L-1, C, C, 3, 3)
    eps: float = 1.0
    kernel_support: int = 31
    fixed_bank: np.ndarray | None = None  # (C, s, s), used by every layer

    def validate(self):
        """Check shapes, then finiteness, signs, eps and support; returns self."""
        if np.ndim(self.b) != 2 or min(np.shape(self.b)) < 1:
            raise DimensionMismatch("b must be (L, C) with at least one layer "
                                    "and one channel, got %s" % (np.shape(self.b),))
        L, C = self.b.shape
        shapes = trainable_shapes(L, C)
        if self.fixed_bank is not None:  # it replaces the filter weights
            _check_bank(self.fixed_bank, C)
            del shapes["w_top"], shapes["w_mix"]
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise DimensionMismatch("%s is %s, expected %s" % (name, got, shape))
        for name in (*shapes, "eps"):  # NaN passes the sign checks below
            if not np.all(np.isfinite(getattr(self, name))):
                raise NonFiniteInput("%s has non-finite values" % name)
        for name in NONNEGATIVE:
            if np.any(getattr(self, name) < 0):
                raise InvalidParameter("%s must be nonnegative" % name)
        if not self.eps > 0:
            raise InvalidParameter("eps must be positive, got %r" % self.eps)
        if self.kernel_support < 1 or self.kernel_support % 2 == 0:
            raise InvalidParameter("kernel support must be odd and positive, "
                                   "got %d" % self.kernel_support)
        return self


def _check_bank(bank, channels):
    """The fixed bank must be a finite stack of C odd square filters."""
    try:
        shape = np.shape(bank)
    except ValueError:  # filters of different sizes
        raise DimensionMismatch("fixed bank mixes filter sizes")
    if len(shape) != 3 or shape[0] != channels or shape[1] != shape[2]:
        raise DimensionMismatch("fixed bank is %s, expected (%d, s, s)"
                                % (shape, channels))
    if shape[1] % 2 == 0:
        raise EvenSize("fixed bank has even filter size %d" % shape[1])
    if not np.all(np.isfinite(bank)):
        raise NonFiniteInput("fixed bank has non-finite weights")


@dataclass
class ForwardState:
    """Everything a completed forward pass leaves behind.

    kernel_plane (H, W) and x_hat (H, W) hold tape Vars when the pass was
    recorded and plain arrays otherwise; param_vars maps each TRAINABLE
    field the pass used to its leaf (or to the plain array). kernel_planes
    holds each layer's post-projection kernel for invariant checks, in the
    form the model carries it (_window_support): the (H, W) plane of a
    trained layout, or the (s, s) support window of a fixed_bank model, so
    that such a pass holds no plane per layer. They are the arrays the
    layers made, not copies, so they are marked read-only (a dead layer's
    is a fresh impulse, see the module docstring). The last is
    kernel_plane's value, or its window; kernel_plane is the only embedded
    plane. With track_kinks, kink_signature holds the shrinkage's
    activation pattern, the packed |g| > b bits of every layer's (C, H, W)
    features; the clamp's is each kernel_planes entry > 0.
    """

    x_hat: object
    kernel_plane: object
    kernel_planes: list
    tape: object = None
    param_vars: dict | None = None
    kink_signature: bytes | None = None


def tv_prewitt_params(layers=30, kernel_support=31):
    """Classical total-variation mode: fixed Prewitt pair, hand schedule.

    One layer's worth of parameters reused L times with a geometric
    continuation: b_l = 2 * 0.9^l and lam_l = 2e-3 * 0.9^l for l = 1..L,
    eps = 1, eta = 20 per channel.
    """
    sched = 0.9 ** np.arange(1, layers + 1, dtype=np.float64)
    b = np.repeat((2.0 * sched)[:, None], 2, axis=1)
    lam = np.repeat((2e-3 * sched)[:, None], 2, axis=1)
    return ModelParams(b=b, lam=lam, eta=np.array([20.0, 20.0]), eps=1.0,
                       kernel_support=kernel_support,
                       fixed_bank=np.stack([PREWITT_X, PREWITT_Y]))


def build_filters(w_top, w_mix):
    """Compose the per-layer filter banks from 3x3 generations.

    w_top is the (C, 3, 3) bank of the last layer; w_mix is the
    (L-1, C, C, 3, 3) stack of mixing grids, ordered from layer 1 to layer
    L-1 (empty for L = 1). Returns banks[l] for l = 0..L-1, each a
    (C, s_l, s_l) array with s_l = 3 + 2 (L-1-l), where banks[-1] is w_top
    itself and banks[l][i] = sum_j w_mix[l][i][j] (*) banks[l+1][j] with
    full zero-padded convolution. Each generation is one ad.cascade call;
    arrays give arrays and tape Vars give Vars.
    """
    banks = [w_top]
    for l in reversed(range(len(ad.value(w_mix)))):
        banks.insert(0, ad.cascade(ad.take(w_mix, l), banks[0]))
    return banks


def _unit(x):  # the literal 1 marks a term without that factor
    return isinstance(x, int) and x == 1


def _quotient(terms, summed=(), ridge=0.0, update=None):
    """The per-frequency least-squares solve Q = N / D; returns (Q, 1/D).

    Each term (w, A, B) adds w (conj(A) B) to N and w |A|^2 to D (w = 1 or
    A = 1 skips a multiply, and after the first term B = the scalar 0 adds
    nothing); summed terms are summed over their leading (channel) axis
    (_channel_sums) and come first, and ridge is added to D last. Given an
    update name, a D below DENOM_FLOOR raises SingularDenominator, naming
    the smallest D of the first row block that holds one. Q is N times 1/D:
    numpy divides a complex by a real as a multiply by the real's
    reciprocal, so this is N / D bit for bit (up to the sign of an exact
    zero), and the pulls multiply by the same 1/D.

    It runs in row blocks across all channels (_row_blocks, and Passes in
    the module docstring) and writes N and D straight into Q's and 1/D's
    rows. Each entry takes the same operations in the same order whatever
    the blocks, so every block layout gives the same bits.

    Adjoint (_term_adjoint): with t = qbar / D for the adjoint qbar of Q and
    R = B - A Q, N gets t and D gets -Re(t conj(Q)); since 2 A Re(t conj(Q))
    = t A conj(Q) + conj(t) A Q, each term pulls back to
      B: w t A    A: w (conj(t) R - t A conj(Q))    w: Re(conj(t A) R).
    """
    shape = np.broadcast_shapes(
        *(np.shape(x) for term in terms for x in term),
        *(np.broadcast_shapes(*map(np.shape, term))[1:] for term in summed))
    num, inv = np.empty(shape, complex), np.empty(shape)
    for rows in _row_blocks(shape):
        n, d = num[..., rows, :], inv[..., rows, :]
        fresh = True  # the first contribution is written, the others added
        for term in summed:
            _channel_sums(n, d, *(_rows(x, rows) for x in term), fresh)
            fresh = False
        for w, a, b in terms:
            w, a, b = (_rows(x, rows) for x in (w, a, b))
            if _unit(a):
                _accumulate(d, 1, w, fresh)
                if fresh or np.ndim(b) or b != 0:  # w * 0 would only clear -0.0
                    _accumulate(n, b, w, fresh)
            else:
                ca = np.conj(a)
                _accumulate(d, (a * ca).real, w, fresh)
                _accumulate(n, np.multiply(ca, b, out=n if fresh else None), w, fresh)
            fresh = False
        if ridge:
            d += ridge
        if update is not None:
            _check_floor(d, update)
        np.reciprocal(d, out=d)
        n *= d
    return num, inv


def _row_blocks(shape):
    """Row slices of the (..., H, W') planes of shape, each QUOTIENT_BLOCK_BYTES
    of one plane's complex rows or less (one row at least); a plane within
    that budget is one block."""
    h, width = shape[-2:]
    step = max(1, QUOTIENT_BLOCK_BYTES // (16 * width))
    return [slice(r, r + step) for r in range(0, h, step)]


def _rows(x, rows):
    """The block rows of an array of (..., H, W') planes; a scalar or a weight
    of one number per plane passes whole."""
    return x[..., rows, :] if np.ndim(x) >= 2 and np.shape(x)[-2] > 1 else x


def _check_floor(den, update):
    """Raise SingularDenominator if any denominator is below DENOM_FLOOR."""
    if np.min(den) < DENOM_FLOOR:
        raise SingularDenominator("%s denominator floor %.3e" % (update, np.min(den)))


def _accumulate(out, part, w, fresh):
    """out = w part if fresh, else out += w part, in out's buffer; w is the
    product's first operand. A fresh part may already be out. A part the
    shape of out is weighted and added plane by plane, so that a 128 px
    stack, one block, makes no stack-sized temporary."""
    if fresh:
        if not _unit(w):
            np.multiply(w, part, out=out)
        elif part is not out:
            np.copyto(out, part)
    elif _unit(w):
        out += part
    elif np.shape(part) != out.shape:
        out += np.multiply(w, part)
    else:
        w = np.broadcast_to(w, out.shape)
        for i in np.ndindex(out.shape[:-2]):
            out[i] += w[i] * part[i]


def _channel_sums(n, d, w, a, b, fresh):
    """Add the sums over the leading (channel) axis of w conj(A) B and
    w |A|^2, for an array A, to n and d, or with fresh write them there:
    channel by channel, in place. np.sum(..., axis=0) adds the planes in
    the same order, so the sums have its bits."""
    shape = np.broadcast_shapes(np.shape(w), np.shape(a), np.shape(b))
    w, a, b = (x if _unit(x) else np.broadcast_to(x, shape) for x in (w, a, b))
    for i in range(shape[0]):
        first, wi = fresh and i == 0, w if _unit(w) else w[i]
        ca = np.conj(a[i])
        _accumulate(d, (a[i] * ca).real, wi, first)
        _accumulate(n, np.multiply(ca, b[i], out=n if first else None), wi, first)


def _term_adjoint(t, q, w, a, b):
    """Adjoints (B, A, w) of one _quotient term with an array A; w's is
    reduced over the last two axes (_re_inner), and None for w = 1.

    It makes two new arrays the shape of t A: R, in whose buffer A's
    adjoint is taken, and t A, in whose buffer B's adjoint w t A is. The
    product t A conj(Q) that A's adjoint subtracts is made plane by plane,
    so it needs no third stack: a stack-sized temporary makes glibc return
    and re-fault heap pages.
    """
    ta = t * a
    r = np.multiply(a, q)
    np.subtract(b, r, out=r)
    gw = None if _unit(w) else _re_inner(ta, r)
    ga = np.multiply(np.conj(t), r, out=r)
    tab, cq = (np.broadcast_to(x, ga.shape) for x in (ta, np.conj(q)))
    for i in np.ndindex(ga.shape[:-2]):
        ga[i] -= tab[i] * cq[i]
    if _unit(w):
        return ta, ga, None
    return np.multiply(w, ta, out=ta), np.multiply(w, ga, out=ga), gw


def _re_inner(a, b):
    """Re sum conj(a) b over the last two axes (sum a b for real arrays).

    One reduction over the float64 views of a and b, both complex128 or
    both float64, with a's leading axes broadcast against b's: the real
    and imaginary parts of an entry sit side by side, so the view's dot
    product is a.real b.real + a.imag b.imag summed.
    """
    a, b = (np.ascontiguousarray(x).view(np.float64) for x in (a, b))
    return np.einsum("...ij,...ij->...", a, b)


def _check_half(shape, update, *spectra):
    """Raise DimensionMismatch unless each spectrum (a scalar broadcasts) is
    the (..., H, W//2+1) half spectrum of (H, W) = shape planes."""
    for spec in spectra:
        if np.ndim(spec) and np.shape(spec)[-2:] != (shape[0], shape[1] // 2 + 1):
            raise DimensionMismatch("%s: spectrum %s is not the half of %dx%d "
                                    "planes" % (update, np.shape(spec), *shape))


def _check_per_plane(update, *weights):
    """Raise DimensionMismatch unless each weight is one number per plane:
    a scalar, or an array whose last two axes have length 1. The pulls sum
    a weight's adjoint over each plane's frequencies or pixels."""
    for w in weights:
        if any(n != 1 for n in np.shape(w)[-2:]):
            raise DimensionMismatch("%s: weight %s is not one per plane"
                                    % (update, np.shape(w)))


def filter_spectra(bank, f_spec, shape, y_spec=None):
    """The filtered spectra F_l Y, or F_l itself without y_spec, as one node.

    f_spec is the bank's half spectrum on the (H, W) = shape image grid,
    which forward computes once per bank; the adjoint returns to the
    (C, s, s) filter taps.
    """
    out = f_spec if y_spec is None else f_spec * y_spec
    size = np.shape(ad.value(bank))[-1]

    def pull(gs):
        if y_spec is None:
            return (ad.dft_adjoint(gs, shape, size),)
        return (ad.dft_adjoint(gs * np.conj(y_spec), shape, size, overwrite=True),)

    return ad.record(out, (bank,), pull)


def _spectra_remake(bank, shape, y_spec=None):
    """The remake of a released filter_spectra node (autodiff.release): its
    value again from the bank's taps, bit for bit. The product runs in the
    transform's buffer, which gives f_spec * y_spec's bits at every shape
    the tests check."""
    taps = ad.value(bank)

    def remake():
        f_spec = spectral.window_rfft2(taps, shape)
        return f_spec if y_spec is None else np.multiply(f_spec, y_spec, out=f_spec)

    return remake


def g_update(y_spec, z_spec, k_spec, b, lam, shape):
    """Closed-form feature update in the frequency domain, as one node.

    Minimizes (b/2)|y_i - k * g|^2 + (lam/2)|g - z|^2 per frequency: the
    quotient of the terms (b, K, Y) and (lam, 1, Z) for the spectra Y_i of
    the filtered image, Z of the shrunk features and K of the kernel plane.
    lam = 0 (pure data term) is well defined while b |K|^2 + lam stays above
    DENOM_FLOOR. The spectra are half spectra (..., H, W//2+1) of planes of
    the image shape (H, W) = shape: y_spec has the output's, e.g. a
    (C, H, W//2+1) stack with z_spec (or the scalar 0) broadcast to it;
    k_spec is shared by all channels, and b and lam are one weight per
    plane, e.g. (C, 1, 1).
    """
    y, z, k, vb, vl = (ad.value(a) for a in (y_spec, z_spec, k_spec, b, lam))
    _check_half(shape, "feature update", y, z, k)
    _check_per_plane("feature update", vb, vl)
    terms = ((vb, k, y), (vl, 1, z))
    out = spectral.irfft2(_quotient(terms, update="feature update")[0], shape,
                          overwrite=True)

    def pull(gg):
        y = ad.read(y_spec)  # not the forward's y: forward may release Y
        q, inv = _quotient(((vb, k, y), (vl, 1, z)), update="feature update")
        t = ad.idft_adjoint(gg, shape, scale=inv)
        del inv  # read once: freeing it before the stacks below lowers the peak
        # the prior term (lam, 1, Z) with R = Z - Q, then the data term
        # (b, K, Y) with R = Y - KQ in the same buffer (see _quotient); Z's
        # adjoint only when Z is recorded, not the scalar 0 of layer 1 and
        # of the layers after a dead prefix
        gz = vl * t if ad.recorded(z_spec) else None
        r = np.subtract(z, q)
        gl = _re_inner(t, r)
        np.multiply(k, q, out=r)
        np.subtract(y, r, out=r)
        np.conjugate(t, out=t)  # conj conj t is t again, bit for bit
        np.multiply(t, r, out=r)  # conj(t) R
        gb = _re_inner(k, r)  # Re sum conj(tK) R
        np.conjugate(t, out=t)
        t *= k
        np.conjugate(q, out=q)
        q *= t
        r -= q  # conj(t) R - tK conj(Q)
        r *= vb
        t *= vb
        return (t, gz, ad.unbroadcast(r, np.shape(k)),
                ad.unbroadcast(gb[..., None, None], np.shape(vb)),
                ad.unbroadcast(gl[..., None, None], np.shape(vl)))

    return ad.record(out, (y_spec, z_spec, k_spec, b, lam), pull)


def z_update(g, b):
    """Sparsifying shrinkage sign(g) max(|g| - b, 0) of a feature stack.

    Computed as g - clip(g, -b, b) in one buffer, which rounds the same
    (g - b = |g| - b for g > b, g + b = -(|g| - b) for g < -b) and differs
    only in the sign of an exact zero.
    """
    out = np.clip(g, -b, b)
    return np.subtract(g, out, out=out)


def z_spectrum(g, b):
    """The half spectrum Z of z_update(g, b), as one node.

    The shrinkage passes the adjoint where |g| > b (zero subgradient on the
    kink) and sends -sign(g) times it to b, one threshold per plane. A
    recorded node keeps of g only its shrinkage code (_shrink_code), so that
    forward can release g.
    """
    vg, vb = ad.value(g), ad.value(b)
    _check_per_plane("shrinkage", vb)
    shape = np.shape(vg)[-2:]
    out = spectral.rfft2(z_update(vg, vb))
    if not ad.recorded(g, b):
        return out
    code = _shrink_code(vg, vb)

    def pull(gz):
        gs = ad.dft_adjoint(gz, shape)
        gs *= np.abs(code) > 1
        gb = _re_inner(gs, np.sign(code, dtype=np.float64))
        return gs, ad.unbroadcast(-gb[..., None, None], np.shape(vb))

    return ad.record(out, (g, b), pull)


def _shrink_code(g, b):
    """One int8 per feature: sign(g), doubled where the shrinkage passes.

    |code| > 1 is then the mask |g| > b for b >= 0, and sign(code) is
    sign(g) everywhere, +0 for g = -0 as np.sign gives it, so a pull reading
    the code forms the same operands as one reading g, bit for bit.
    """
    m = np.abs(g)
    factor = np.greater(m, b).view(np.int8)
    factor += 1  # 2 where the shrinkage passes, else 1
    code = np.sign(g, out=m).astype(np.int8)
    code *= factor
    return code


def k_update(z_specs, y_specs, eps, shape, size=None, keep=False):
    """Least-squares kernel plane from all channels, ridge eps > 0.

    z_specs and y_specs are (C, H, W//2+1) stacks (or sequences of C) of
    half spectra of (H, W) = shape planes; the term (1, Z_i, Y_i) is summed
    over the channels. With an odd size only the plane's size x size window
    around the origin is made (spectral.irfft2). With keep, returns
    (plane, Q, 1/D), the quotient's channel sums, for kernel_estimate's
    pull; the inverse then leaves Q's buffer alone.
    """
    z, y = np.asarray(z_specs), np.asarray(y_specs)
    _check_half(shape, "kernel update", z, y)
    terms = ((1, z, y),)
    if not keep:  # 1/D is dropped before the inverse
        return spectral.irfft2(_quotient((), terms, eps)[0], shape, overwrite=True,
                               size=size)
    q, inv = _quotient((), terms, eps)
    return spectral.irfft2(q, shape, size=size), q, inv


def k_project(kernel, support=None):
    """Project a kernel onto the nonnegative unit-mass kernels.

    kernel is a plane, or with a support the odd support x support window
    around its origin (spectral.wrap_window of a plane, as a fixed_bank
    model's layers carry it). Clamps negatives to zero and normalizes once.
    A kernel with no positive mass left degrades to the impulse at its
    origin: [0, 0] of a plane, the centre of a window (_impulse). forward
    reads its kernel estimate off this projection of the last kernel's
    window.
    """
    if support is not None and np.shape(kernel) != (support, support):
        raise DimensionMismatch("kernel %s is not a %dx%d window"
                                % (np.shape(kernel), support, support))
    kept = np.maximum(kernel, 0.0)
    mass = float(np.sum(kept))
    if mass == 0.0:
        return _impulse(np.shape(kernel), support)
    kept /= mass
    return kept


def _impulse(shape, support=None):
    """The unit impulse at the origin: [0, 0] of a plane, or with a support
    the centre of its support x support window."""
    impulse = np.zeros(shape)
    impulse[(0, 0) if support is None else (support // 2, support // 2)] = 1.0
    return impulse


def _project_adjoint(raw, g):
    """Adjoint of k_project at raw, recomputed; None where it fell back to
    the impulse, a constant, whose adjoint is zero.

    x / sum(x) pulls g back as g / s - sum(g x) sign(x) / s^2, and the
    clamp passes it where x > 0.
    """
    kept = np.maximum(raw, 0.0)
    mass = float(np.sum(kept))
    if mass == 0.0:
        return None
    pulled = g / mass - (np.sum(g * kept) / (mass * mass)) * np.sign(kept)
    pulled *= kept > 0
    return pulled


def kernel_estimate(z_spec, y_specs, eps, support, shape):
    """k_project(k_update(z_spec, y_specs, eps, shape, support), support) as
    one node: the projected (H, W) = shape kernel plane, or with a support
    its projected support x support window, never made whole.

    The adjoint passes through the projection first (zero where it fell
    back to the constant impulse), then through k_update's quotient, whose
    channel sums and raw kernel a recorded node keeps (k_update with keep).
    """
    z, y = ad.value(z_spec), ad.value(y_specs)
    if not ad.recorded(z_spec, y_specs):
        return k_project(k_update(z, y, eps, shape, support), support)
    # the pull reads the channel sums Q and 1/D and the raw kernel
    raw, q, inv = k_update(z, y, eps, shape, support, keep=True)
    out = k_project(raw, support)

    def pull(gk):
        gp = _project_adjoint(raw, gk)
        if gp is None:  # the shapes only: a released Y is not remade
            return (np.zeros(np.shape(z), complex),
                    np.zeros(np.shape(y_specs), complex))
        t = ad.idft_adjoint(gp, shape, support, scale=inv)
        gy, gz, _ = _term_adjoint(t, q, 1, z, ad.read(y_specs))
        return gz, gy

    return ad.record(out, (z_spec, y_specs), pull)


def reconstruct(y_spec, k_spec, g, f_spec, eta, shape):
    """Final image estimate from the kernel spectrum and feature planes, one node.

    y_spec and k_spec are the spectra of the blurred image and the kernel, g
    the (C, H, W) feature planes, f_spec the spectra of the filter bank they
    belong to (stacks or sequences of C) and eta the (C,) channel weights.
    Returns one (H, W) plane: the quotient of the term (1, K, Y) and the
    channel sum of the terms (eta_i, F_i, G_i), with G the spectra of g.
    g has the image shape (H, W) = shape, and the spectra are half spectra
    (..., H, W//2+1) of planes of that shape. A recorded node keeps G and
    the planes Q and 1/D for its pull, which reads F through autodiff.read,
    so that forward may release it.
    """
    vk, vg, vf = ad.value(k_spec), np.asarray(ad.value(g)), np.asarray(ad.value(f_spec))
    if np.shape(vg)[-2:] != tuple(shape):  # a wider g's half spectrum may still fit
        raise DimensionMismatch("reconstruction: features %s vs image %dx%d"
                                % (np.shape(vg), *shape))
    _check_half(shape, "reconstruction", y_spec, vk, vf)
    e = np.asarray(ad.value(eta))[:, None, None]
    # the data term and the channel-summed prior term (eta, F, G)
    data, g_spec = (1, vk, y_spec), spectral.rfft2(vg)
    q, inv = _quotient((data,), ((e, vf, g_spec),), update="reconstruction")
    if not ad.recorded(k_spec, g, f_spec, eta):
        del g_spec, inv  # a plain pass holds neither through the inverse
        return spectral.irfft2(q, shape, overwrite=True)
    out = spectral.irfft2(q, shape)

    def pull(gx):
        t = ad.idft_adjoint(gx, shape, scale=inv)
        gg, gf, ge = _term_adjoint(t, q, e, ad.read(f_spec), g_spec)
        return (_term_adjoint(t, q, *data)[1], ad.dft_adjoint(gg, shape, overwrite=True),
                gf, ge)

    return ad.record(out, (k_spec, g, f_spec, eta), pull)


def forward(y, params, tape=None, track_kinks=False):
    """Run the unrolled solver on a blurred image.

    Returns (kernel, g, x_hat, state): the kernel estimate (k_project of
    the last kernel's support window), the final (C, H, W)
    feature planes and the full-precision reconstruction as plain arrays,
    plus a ForwardState carrying the tape ends when recorded. The layers
    carry the kernel in the form the model's kind picks (_window_support).
    With a tape, each trainable array of params is one leaf. An overflow
    or invalid value in the layers or the reconstruction raises
    NonFiniteInput.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise DimensionMismatch("image must be 2-D, got %s" % (y.shape,))
    # |Y| <= n max|y| for the spectrum Y of an n-pixel image, so below this
    # bound every |Y|^2 and the energy sum |Y|^2 are at most 2^1022; NaN
    # fails the comparison too. Two reductions and no image-sized temporary
    limit = 2.0 ** 511 / max(y.size, 1)
    peak = np.maximum(np.max(y, initial=0.0), -np.min(y, initial=0.0))
    if not peak <= limit:
        bad = int(np.sum(~np.isfinite(y)))
        raise NonFiniteInput("image has %d non-finite pixels" % bad if bad else
                             "image peak %.3e exceeds 2^511 / %d pixels = %.3e: "
                             "its spectra would not be finite" % (peak, y.size, limit))
    params.validate()
    h, w = y.shape
    L, C = params.b.shape
    if params.kernel_support > min(h, w):
        raise KernelTooLarge("kernel support %d exceeds image %dx%d"
                             % (params.kernel_support, h, w))

    pv = {name: getattr(params, name) for name in TRAINABLE
          if getattr(params, name) is not None}
    if tape is not None:
        pv = {name: ad.leaf(tape, arr) for name, arr in pv.items()}

    banks = ([params.fixed_bank] * L if params.fixed_bank is not None
             else build_filters(pv["w_top"], pv["w_mix"]))
    width = np.shape(ad.value(banks[0]))[-1]  # the cascade widens upwards
    if width > min(h, w):
        raise KernelTooLarge("layer 1's filters are %dx%d, wider than the "
                             "%dx%d image" % (width, width, h, w))

    # every spectrum is the half spectrum of an (h, w) plane; the image's is
    # cut from its full spectral.fft2 (whose half is spectral.rfft2's, bit
    # for bit), so that perfbench's spectral.fft2 span, which its smoke test
    # requires in every workload, sees one transform per forward
    shape = (h, w)
    y_spec = np.ascontiguousarray(spectral.fft2(y)[:, :w // 2 + 1])
    support = _window_support(params)
    # the layers carry the kernel plane, or its support window
    kshape, grid = (shape, None) if support is None else ((support, support), shape)
    k = _impulse(kshape, support)  # identity init
    z_spec = 0.0  # no shrinkage precedes the first layer
    kernel_planes = []
    kinks = [] if track_kinks else None
    # the solver stays in its initial state (Z = 0, k the impulse) until a
    # layer keeps a feature; with a shared bank and a dead first layer,
    # reach bounds max|g_l| / c_l of every later layer in that state
    initial, reach = True, None
    # the image bound leaves room for its own spectrum, not for the gains
    # the filters and quotients add on top of it
    try:
        with np.errstate(over="raise", invalid="raise"):
            for l in range(L):
                per_channel = (l, slice(None), None, None)
                b_l = ad.take(pv["b"], per_channel)
                vb, vl = ad.value(b_l), ad.value(pv["lam"])[per_channel]
                certified = (reach is not None and l < L - 1
                             and np.all(_gain(vb, vl) * reach <= vb))
                if not certified:  # computed up to its g update
                    reach = None  # this layer and every later one run
                    if l == 0 or banks[l] is not banks[l - 1]:
                        f_spec = spectral.window_rfft2(ad.value(banks[l]), shape)
                        y_specs = filter_spectra(banks[l], f_spec, shape, y_spec)
                        for shared in (f_spec, y_specs):  # reused by later layers
                            ad.value(shared).flags.writeable = False
                    g = g_update(y_specs, z_spec, ad.rfft2(k, grid), b_l,
                                 ad.take(pv["lam"], per_channel), shape)
                    z_spec = None  # read: a plain pass frees it before the next Z
                    if initial:  # dead if nothing passes the shrinkage
                        peak = np.maximum(
                            np.max(ad.value(g), axis=(-2, -1), keepdims=True),
                            -np.min(ad.value(g), axis=(-2, -1), keepdims=True))
                        initial = bool(np.all(peak <= vb))
                        if initial and l == 0 and params.fixed_bank is not None \
                                and np.all(_gain(vb, vl) > 0):
                            reach = peak * (1.0 + _dead_slack(h * w)) / _gain(vb, vl)
                if initial:  # Z = 0: k_update's plane is 0 and projects to the impulse
                    k, z_spec = _impulse(kshape, support), 0.0
                else:
                    z_spec = z_spectrum(g, b_l)
                    k = kernel_estimate(z_spec, y_specs, params.eps, support, shape)
                kernel_planes.append(ad.value(k))  # a new array every layer
                kernel_planes[-1].flags.writeable = False
                if kinks is not None:  # the bytes of |g| > b, none set in a dead layer
                    kinks.append(bytes(-(-C * h * w // 8)) if initial
                                 else np.packbits(np.abs(ad.value(g)) > vb).tobytes())
                if l < L - 1:  # its last reader was above (autodiff.release)
                    ad.release(g)
                    g = None  # a plain pass holds one layer's features
                if l == L - 1 or banks[l + 1] is not banks[l]:  # Y's last layer
                    ad.release(y_specs, _spectra_remake(banks[l], shape, y_spec))

            del y_specs, z_spec  # the reconstruction allocates stacks of its own
            k_spec, f_last = ad.rfft2(k, grid), filter_spectra(banks[-1], f_spec, shape)
            x_hat = reconstruct(y_spec, k_spec, g, f_last, pv["eta"], shape)
            ad.release(f_last, _spectra_remake(banks[-1], shape))
            del k_spec  # a plain pass holds no spectrum through the copies below
    except FloatingPointError as err:
        raise NonFiniteInput("the solver's arithmetic left the float range (%s): "
                             "the image is too large for this model" % err) from None
    features = np.array(ad.value(g))
    ad.release(g)  # the reconstruction and the copy were its last readers

    k_plane = k if support is None else ad.embed(k, shape)  # the one embedding
    kernel = k_project(spectral.wrap_window(ad.value(k_plane), params.kernel_support),
                       params.kernel_support)
    state = ForwardState(
        x_hat=x_hat, kernel_plane=k_plane, kernel_planes=kernel_planes, tape=tape,
        param_vars=pv, kink_signature=None if kinks is None else b"".join(kinks))
    return kernel, features, np.array(ad.value(x_hat)), state


def _window_support(params):
    """The support s of the s x s window the layers carry the kernel as, or
    None for the (H, W) plane; the one place the form is chosen. A
    fixed_bank model is never trained, and the window gives it the better
    image (the preset on the benchmark's deblur record: PSNR 14.63 against
    6.28 dB); a trained layout is trained on the plane, and the window
    worsens its kernel (the benchmark's eval model: RMSE +4.4%)."""
    return params.kernel_support if params.fixed_bank is not None else None


def _gain(b, lam):
    """b / (b + lam): with Z = 0 and K = 1, the factor g_update's quotient
    b Y / (b + lam) applies to Y. Raises the SingularDenominator g_update
    raises when b + lam, its denominator there, is below DENOM_FLOOR."""
    den = b + lam
    _check_floor(den, "feature update")
    return b / den


def _dead_slack(n):
    """Relative rounding slack of forward's bound on the features of a layer
    in the initial state, for n-pixel planes.

    With K = 1 exactly (the impulse's spectrum), layer l's quotient is
    Q_l = c_l Y (1 + theta) per real component, c_l = _gain(b_l, lam_l),
    |theta| <= 4u (u = eps / 2): the product b Y, the sum b + lam, its
    reciprocal and the product with it round once each. So Q_l = (c_l / c_0)
    Q_0 (1 + phi), |phi| <= 9u. With P the exact inverse (irfft2), the
    computed g_0 = P Q_0 + E_0 and g_l = P Q_l + E_l, so
      g_l - (c_l / c_0) g_0 = (c_l / c_0) (P (Q_0 phi) - E_0) + E_l.
    The normwise FFT bound gives |E|_2 <= FFT_SLACK u log2(n) |P Q|_2, and
    |P v|_2 <= sqrt(2 / n) |v|_2 for a half spectrum v (a column stands for
    two at most); irfft2's residue check leaves |Q_0|_2 within a factor
    1 + 1e-5 of sqrt(n) |P Q_0|_2. Each of the three terms is then at most
    (c_l / c_0) (FFT_SLACK log2(n) + 9) u sqrt(2) |g_0|_2 (1 + 1e-5), and
    |g_0|_2 <= sqrt(n) max|g_0|:
      max|g_l| <= (c_l / c_0) max|g_0| (1 + slack)
    with twice the terms' sum, which also covers the few roundings of the
    bound itself.
    """
    eps = np.finfo(np.float64).eps
    terms = (spectral.FFT_SLACK * max(math.log2(n), 1.0) + 16.0) * math.sqrt(2.0 * n)
    return 3.0 * terms * eps


def collect_gradients(loss_var, state):
    """Run backward; returns {field: gradient} for each trainable array."""
    names = list(state.param_vars)
    grads = ad.backward(loss_var, [state.param_vars[n] for n in names])
    return dict(zip(names, grads))
