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
one (C, s, s) array. The feature, shrinkage and reconstruction updates act
on each channel separately and the kernel update sums over channels, so
each update is one call per layer whatever C is. The per-channel weights
of layer l are the (C, 1, 1) slices b[l], lam[l] of the whole (L, C)
arrays, and eta enters as a (C, 1, 1) view; when recorded, each of b, lam,
eta, w_top and w_mix is a single tape leaf.

Filter spectra: layer l's filtered spectra F_l Y are computed (embed, DFT,
multiply) only when its bank differs from layer l-1's, so the classical
preset, which repeats one fixed bank in every layer, transforms it once;
the stack is kept read-only while later layers share it. Trained banks
grow by two pixels per layer, so every layer computes its own.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import imaging, spectral
from .errors import (DimensionMismatch, EvenSize, NonFiniteInput,
                     SingularDenominator)

# smallest magnitude a frequency-domain denominator may take; anything
# below raises instead of producing Inf/NaN
DENOM_FLOOR = 1e-15

PREWITT_X = np.array([[-1.0, 0.0, 1.0],
                      [-1.0, 0.0, 1.0],
                      [-1.0, 0.0, 1.0]])
PREWITT_Y = PREWITT_X.T.copy()

# the ModelParams arrays that training updates; each is one tape leaf
TRAINABLE = ("w_top", "w_mix", "b", "lam", "eta")


@dataclass
class ModelParams:
    """Everything the solver needs for a forward pass.

    w_top holds the last layer's C raw 3x3 filters, w_mix the (L-1, C, C)
    grid of 3x3 mixing filters for the cascade. Fixed-filter variants (the
    classical preset) set fixed_banks instead and leave the weights None.
    """

    b: np.ndarray                 # (L, C) data weights, >= 0
    lam: np.ndarray               # (L, C) prior weights, >= 0
    eta: np.ndarray               # (C,) reconstruction weights, >= 0
    w_top: np.ndarray | None = None   # (C, 3, 3)
    w_mix: np.ndarray | None = None   # (L-1, C, C, 3, 3)
    eps: float = 1.0
    kernel_support: int = 31
    fixed_banks: list | None = None   # per-layer list of C filters

    @property
    def layers(self):
        return self.b.shape[0]

    @property
    def channels(self):
        return self.b.shape[1]

    def validate(self):
        L, C = self.b.shape
        if self.lam.shape != (L, C) or self.eta.shape != (C,):
            raise DimensionMismatch("b %s, lam %s, eta %s disagree"
                                    % (self.b.shape, self.lam.shape, self.eta.shape))
        if self.fixed_banks is None:
            if self.w_top is None or self.w_top.shape != (C, 3, 3):
                raise DimensionMismatch("w_top must be (C, 3, 3)")
            expect = (L - 1, C, C, 3, 3)
            if L > 1 and (self.w_mix is None or self.w_mix.shape != expect):
                raise DimensionMismatch("w_mix must be %s" % (expect,))
        else:
            if len(self.fixed_banks) != L:
                raise DimensionMismatch("fixed_banks has %d layers, expected %d"
                                        % (len(self.fixed_banks), L))
            for l, bank in enumerate(self.fixed_banks):
                _check_bank(bank, C, l)
        if np.any(self.b < 0) or np.any(self.lam < 0) or np.any(self.eta < 0):
            raise ValueError("b, lam, eta must be nonnegative")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.kernel_support % 2 == 0:
            raise ValueError("kernel support must be odd")
        return self


def _check_bank(bank, channels, layer):
    """A fixed bank must be a finite stack of C odd square filters."""
    try:
        shape = np.shape(bank)
    except ValueError:  # filters of different sizes
        raise DimensionMismatch("fixed bank %d mixes filter sizes" % layer)
    if len(shape) != 3 or shape[0] != channels or shape[1] != shape[2]:
        raise DimensionMismatch("fixed bank %d is %s, expected (%d, s, s)"
                                % (layer, shape, channels))
    if shape[1] % 2 == 0:
        raise EvenSize("fixed bank %d has even filter size %d" % (layer, shape[1]))
    if not np.all(np.isfinite(bank)):
        raise NonFiniteInput("fixed bank %d has non-finite weights" % layer)


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
    banks = [[PREWITT_X, PREWITT_Y] for _ in range(layers)]
    return ModelParams(b=b, lam=lam, eta=eta, eps=1.0,
                       kernel_support=kernel_support, fixed_banks=banks)


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


def g_update(y_spec, z, k_spec, b, lam, z_spec=None):
    """Closed-form feature update in the frequency domain.

    Minimizes (b/2)|y_i - k * g|^2 + (lam/2)|g - z|^2 per frequency. The
    parametrization keeps lam = 0 well defined (pure data term) as long as
    the denominator b |K|^2 + lam stays above DENOM_FLOOR. y_spec, z and
    z_spec may be (C, H, W) stacks with b and lam shaped (C, 1, 1); the
    shared kernel spectrum k_spec is conjugated and squared once for all
    channels.
    """
    if z_spec is None:
        z_spec = ad.fft2(z)
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


def reconstruct(y, k_plane, g, bank, eta, y_spec=None):
    """Final image estimate from the kernel plane and feature planes.

    g is the (C, H, W) stack of feature planes (or a sequence of C
    planes), bank the (C, s, s) filter bank they belong to (or a sequence
    of C filters) and eta the (C,) array of channel weights. Returns one
    (H, W) plane.
    """
    h, w = np.shape(ad.value(y))
    if y_spec is None:
        y_spec = ad.fft2(y)
    k_spec = ad.fft2(k_plane)
    f_spec = ad.fft2(ad.embed_plane(bank, h, w))
    e = ad.take(eta, (slice(None), None, None))
    den = ad.add(ad.abs2(k_spec), ad.channel_sum(ad.mul(e, ad.abs2(f_spec))))
    if float(np.min(ad.value(den))) < DENOM_FLOOR:
        raise SingularDenominator(
            "reconstruction denominator floor %.3e" % float(np.min(ad.value(den))))
    num = ad.add(ad.mul(ad.conj(k_spec), y_spec),
                 ad.channel_sum(ad.mul(e, ad.mul(ad.conj(f_spec), ad.fft2(g)))))
    return ad.ifft2(ad.div(num, den))


def _same_bank(bank, previous):
    """True when a plain filter bank equals the previous layer's.

    Tape Vars never count as equal: each is its own node, and reusing the
    previous layer's spectra would route its gradient to the wrong bank.
    """
    if isinstance(bank, ad.Var) or isinstance(previous, ad.Var):
        return False
    return np.array_equal(bank, previous)


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

    pv = {name: getattr(params, name) for name in TRAINABLE
          if getattr(params, name) is not None}
    if tape is not None:
        pv = {name: ad.leaf(tape, arr) for name, arr in pv.items()}

    if params.fixed_banks is not None:
        banks = params.fixed_banks
    else:
        banks = build_filters(pv["w_top"], pv.get("w_mix", ()))

    y_spec = spectral.fft2(y)
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)  # identity init
    z_spec = np.zeros((C, h, w), dtype=np.complex128)
    kernel_planes = []
    kinks = [] if track_kinks else None

    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        if l == 0 or not _same_bank(banks[l], banks[l - 1]):
            y_specs = ad.mul(ad.fft2(ad.embed_plane(banks[l], h, w)), y_spec)
            ad.value(y_specs).flags.writeable = False  # reused by later layers
        g = g_update(y_specs, None, ad.fft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel), z_spec=z_spec)
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
    x_hat = reconstruct(y, k_plane, g, banks[-1], pv["eta"], y_spec=y_spec)

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
