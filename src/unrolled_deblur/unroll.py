"""Unrolled half-quadratic splitting solver for blind deconvolution.

The observation model is y = k * x + n with circular convolution. Each of
the L layers refines C filtered copies of the blurred image through three
closed-form frequency-domain updates:

  feature   g_i <- F^-1{ (b_i conj(K) Y_i + lam_i Z_i) / (b_i |K|^2 + lam_i) }
  sparsify  z_i <- soft_threshold(g_i, b_i)
  kernel    k   <- project( F^-1{ sum_i conj(Z_i) Y_i / (sum_i |Z_i|^2 + eps) } )

where Y_i is the spectrum of f_i * y for a per-layer filter bank f, and
project clamps to nonnegative and renormalizes to unit mass. The weights
b_i, lam_i (the penalty reparametrized so lam_i = 0 is well defined), the
filter mixing weights, and the reconstruction weights eta_i are trainable;
eps is fixed.

Filter banks grow by cascading 3x3 generations: the last layer uses C raw
3x3 filters and every earlier layer mixes the following layer's bank
through full convolution, adding two pixels of support per step, so layer 1
sees kernels up to (2L+1) pixels wide.

The final estimate combines the data term with the learned feature planes:

  x = F^-1{ (conj(K) Y + sum_i eta_i conj(F_i) G_i)
            / (|K|^2 + sum_i eta_i |F_i|^2) }

using the last layer's 3x3 bank. All updates are written against the
autodiff primitives, so the same code runs plain (inference) or recorded on
a tape (training).

Layout: the C channels travel as one (C, H, W) stack, and a filter bank is
one (C, s, s) array; the classical preset holds one fixed_bank that every
layer uses. The feature, shrinkage and reconstruction updates act
on each channel separately and the kernel update sums over channels, so
each update is one call per layer whatever C is. The per-channel weights
of layer l are the (C, 1, 1) slices b[l], lam[l] of the whole (L, C)
arrays, and eta enters as a (C, 1, 1) view; when recorded, each of b, lam,
eta, w_top and w_mix is a single tape leaf.

Filter spectra: forward is the one place that transforms a filter bank.
Layer l embeds and transforms its bank only when it is not the very bank
object of layer l-1, so the preset's fixed bank is transformed once, while
trained banks grow by two pixels per layer and each gets its own. The
updates take spectra, never planes: g_update the filtered spectra F_l Y and
the previous shrinkage's spectrum, reconstruct the last layer's F_l, which
transforms no bank of its own. Shared stacks are kept read-only.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imaging, spectral
from .errors import (DimensionMismatch, EvenSize, InvalidParameter,
                     KernelTooLarge, NonFiniteInput, SingularDenominator)

# smallest magnitude a frequency-domain denominator may take; anything
# below raises instead of producing Inf/NaN
DENOM_FLOOR = 1e-15

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

    @property
    def layers(self):
        return self.b.shape[0]

    @property
    def channels(self):
        return self.b.shape[1]

    def validate(self):
        L, C = self.b.shape
        if L < 1 or C < 1:
            raise DimensionMismatch("need at least one layer and one channel, "
                                    "got L=%d, C=%d" % (L, C))
        shapes = trainable_shapes(L, C)
        if self.fixed_bank is not None:  # it replaces the filter weights
            _check_bank(self.fixed_bank, C)
            del shapes["w_top"], shapes["w_mix"]
        for name, shape in shapes.items():
            got = np.shape(getattr(self, name))
            if got != shape:
                raise DimensionMismatch("%s is %s, expected %s" % (name, got, shape))
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

    kernel_plane (H, W), x_hat (H, W) and g (the final (C, H, W) feature
    stack) hold tape Vars when the pass was recorded and plain arrays
    otherwise; param_vars maps each TRAINABLE field the pass used to its
    leaf (or to the plain array). kernel_planes collects the
    post-projection kernel values per layer for invariant checks.
    """

    x_hat: object
    kernel_plane: object
    g: object
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
    ll = np.arange(1, layers + 1, dtype=np.float64)
    sched = 0.9 ** ll
    b = np.repeat((2.0 * sched)[:, None], 2, axis=1)
    lam = np.repeat((2e-3 * sched)[:, None], 2, axis=1)
    eta = np.array([20.0, 20.0])
    return ModelParams(b=b, lam=lam, eta=eta, eps=1.0,
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


def g_update(y_spec, z_spec, k_spec, b, lam):
    """Closed-form feature update in the frequency domain.

    Minimizes (b/2)|y_i - k * g|^2 + (lam/2)|g - z|^2 per frequency, given
    the spectra Y_i of the filtered image, Z of the shrunk features and K of
    the kernel plane. The parametrization keeps lam = 0 well defined (pure
    data term) as long as the denominator b |K|^2 + lam stays above
    DENOM_FLOOR. y_spec and z_spec may be (C, H, W) stacks with b and lam
    shaped (C, 1, 1); the shared kernel spectrum k_spec is conjugated and
    squared once for all channels.
    """
    num = ad.add(ad.mul(b, ad.mul(ad.conj(k_spec), y_spec)), ad.mul(lam, z_spec))
    den = ad.add(ad.mul(b, ad.abs2(k_spec)), lam)
    if float(np.min(ad.value(den))) < DENOM_FLOOR:
        raise SingularDenominator(
            "feature update denominator floor %.3e" % float(np.min(ad.value(den))))
    quotient = ad.div(num, den)
    del num  # free the numerator stack before the inverse DFT allocates
    return ad.ifft2(quotient)


def z_update(g, b):
    """Sparsifying shrinkage of a feature plane."""
    return ad.soft_threshold(g, b)


def k_update(z_specs, y_specs, eps):
    """Least-squares kernel plane from all channels, ridge eps > 0.

    z_specs and y_specs are (C, H, W) stacks (or sequences of C spectra);
    both sums over channels are one channel_sum each.
    """
    num = ad.channel_sum(ad.mul(ad.conj(z_specs), y_specs))
    den = ad.channel_sum(ad.abs2(z_specs))
    return ad.ifft2(ad.div(num, ad.add(den, eps)))


def k_project(plane):
    """Clamp to nonnegative and renormalize to unit mass.

    An all-zero clamped plane degrades to the impulse at the origin.
    """
    return ad.l1_normalize(ad.relu(plane))


def reconstruct(y_spec, k_plane, g, f_spec, eta):
    """Final image estimate from the kernel plane and feature planes.

    y_spec is the spectrum of the blurred image, g the (C, H, W) stack of
    feature planes (or a sequence of C planes), f_spec the spectra of the
    filter bank they belong to (a (C, H, W) stack or a sequence of C
    spectra; forward passes the last layer's) and eta the (C,) array of
    channel weights. Transforms no filter bank. Returns one (H, W) plane.
    """
    k_spec = ad.fft2(k_plane)
    e = ad.take(eta, (slice(None), None, None))
    den = ad.add(ad.abs2(k_spec), ad.channel_sum(ad.mul(e, ad.abs2(f_spec))))
    if float(np.min(ad.value(den))) < DENOM_FLOOR:
        raise SingularDenominator(
            "reconstruction denominator floor %.3e" % float(np.min(ad.value(den))))
    num = ad.add(ad.mul(ad.conj(k_spec), y_spec),
                 ad.channel_sum(ad.mul(e, ad.mul(ad.conj(f_spec), ad.fft2(g)))))
    return ad.ifft2(ad.div(num, den))


def forward(y, params, tape=None, restrict_support=False, track_kinks=False):
    """Run the unrolled solver on a blurred image.

    Returns (kernel, g, x_hat, state): the cropped kernel estimate, the
    final (C, H, W) feature planes and the full-precision reconstruction
    as plain arrays, plus a ForwardState carrying the tape ends when
    recorded. With a tape, each trainable array of params is one leaf.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise DimensionMismatch("image must be 2-D, got %s" % (y.shape,))
    if not np.all(np.isfinite(y)):
        raise NonFiniteInput("image has %d non-finite pixels"
                             % int(np.sum(~np.isfinite(y))))
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

    if params.fixed_bank is not None:
        banks = [params.fixed_bank] * L
    else:
        banks = build_filters(pv["w_top"], pv["w_mix"])

    y_spec = spectral.fft2(y)
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)  # identity init
    z_spec = np.zeros((C, h, w), dtype=np.complex128)
    kernel_planes = []
    kinks = [] if track_kinks else None

    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        if l == 0 or banks[l] is not banks[l - 1]:
            f_spec = ad.fft2(ad.embed_plane(banks[l], h, w))
            y_specs = ad.mul(f_spec, y_spec)
            for shared in (f_spec, y_specs):  # reused by later layers
                ad.value(shared).flags.writeable = False
        g = g_update(y_specs, z_spec, ad.fft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel))
        z_spec = ad.fft2(z_update(g, b_l))
        k_raw = k_update(z_spec, y_specs, params.eps)
        if kinks is not None:
            kinks.append(np.packbits(np.abs(ad.value(g)) > ad.value(b_l)).tobytes())
            kinks.append(np.packbits(ad.value(k_raw) > 0).tobytes())
        k_plane = k_project(k_raw)
        if restrict_support:
            window = ad.origin_window(k_plane, params.kernel_support)
            k_plane = ad.l1_normalize(ad.embed_plane(window, h, w))
        kernel_planes.append(np.array(ad.value(k_plane)))

    del y_specs, z_spec  # the reconstruction allocates stacks of its own
    x_hat = reconstruct(y_spec, k_plane, g, f_spec, pv["eta"])

    kernel = imaging.crop_kernel(ad.value(k_plane), params.kernel_support)
    state = ForwardState(
        x_hat=x_hat, kernel_plane=k_plane, g=g, kernel_planes=kernel_planes,
        tape=tape, param_vars=pv,
        kink_signature=b"".join(kinks) if kinks is not None else None)
    return kernel, np.array(ad.value(g)), np.array(ad.value(x_hat)), state


def collect_gradients(loss_var, state):
    """Run backward; returns {field: gradient} for each trainable array."""
    names = list(state.param_vars)
    grads = ad.backward(loss_var, [state.param_vars[n] for n in names])
    return dict(zip(names, grads))
