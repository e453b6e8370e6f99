"""Unrolled half-quadratic splitting solver for blind deconvolution.

The observation model is y = k * x + n with circular convolution. Each of
the L layers refines C filtered copies of the blurred image through three
closed-form frequency-domain updates:

  feature   g_i <- F^-1{ (b_i conj(K) Y_i + lam_i Z_i) / (b_i |K|^2 + lam_i) }
  sparsify  z_i <- soft_threshold(g_i, b_i)
  kernel    k   <- project( F^-1{ sum_i conj(Z_i) Y_i / (sum_i |Z_i|^2 + eps) } )

where Y_i is the spectrum of f_i * y for a per-layer filter bank f, and
project clamps to nonnegative, optionally windows the plane to the kernel
support, and normalizes to unit mass (k_project). The weights
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

using the last layer's 3x3 bank.

Recording: each update below computes its value with numpy and, when an
input is a tape Var, records one node whose hand-derived adjoint
recomputes its quotients from the node's inputs (see autodiff), so the same
code runs plain (inference) or recorded (training). A recorded layer makes
five nodes: filter_spectra, g_update, z_spectrum, the kernel spectrum
(autodiff.fft2) and kernel_estimate, plus one autodiff.take node for each
of its slices b[l], lam[l] and (in all but the last layer) w_mix[l].

Layout: the C channels travel as one (C, H, W) stack and a filter bank is
one (C, s, s) array, so each update is one call per layer whatever C is;
the kernel update sums over the channels. The weights of layer l are the
(C, 1, 1) views b[l], lam[l] of the (L, C) arrays; when recorded, each of
b, lam, eta, w_top and w_mix is one tape leaf.

Filter spectra: forward alone transforms a filter bank, and only when it is
not the very bank object of layer l-1, so the preset's one fixed_bank is
transformed once while each trained layer's bank gets its own. The updates
take spectra, never planes; reconstruct reuses the last layer's F_l.
Shared stacks are kept read-only.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import spectral
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

    def validate(self):
        """Check shapes, then finiteness, signs, eps and support; returns self."""
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
    collects the post-projection kernel values per layer for invariant
    checks.
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


def _abs2(x):
    return (x * np.conj(x)).real


def _floored(den, update):
    if float(np.min(den)) < DENOM_FLOOR:
        raise SingularDenominator("%s denominator floor %.3e"
                                  % (update, float(np.min(den))))
    return den


def filter_spectra(bank, f_spec, y_spec=None):
    """The filtered spectra F_l Y, or F_l itself without y_spec, as one node.

    f_spec is the bank's spectrum on the image grid, which forward computes
    once per bank; the adjoint returns to the (C, s, s) filter taps.
    """
    out = f_spec if y_spec is None else f_spec * y_spec
    size = np.shape(ad.value(bank))[-1]

    def pull(gs):
        gs = gs if y_spec is None else gs * np.conj(y_spec)
        return (spectral.wrap_window(ad.dft_adjoint(gs), size),)

    return ad.record(out, (bank,), pull)


def _g_quotient(y, z, k, b, lam):
    """The feature update's spectrum (one stack live) and denominator."""
    den = _floored(b * _abs2(k) + lam, "feature update")
    # b (conj(K) Y) in this operand order, which keeps the product's bits
    num = np.conj(k) * y
    np.multiply(b, num, out=num)
    lam_b, z_b = np.broadcast_to(lam, num.shape), np.broadcast_to(z, num.shape)
    for idx in np.ndindex(num.shape[:-2]):
        num[idx] += lam_b[idx] * z_b[idx]
    num /= den
    return num, den


def g_update(y_spec, z_spec, k_spec, b, lam):
    """Closed-form feature update in the frequency domain, as one node.

    Minimizes (b/2)|y_i - k * g|^2 + (lam/2)|g - z|^2 per frequency, given
    the spectra Y_i of the filtered image, Z of the shrunk features and K of
    the kernel plane. The parametrization keeps lam = 0 well defined (pure
    data term) as long as the denominator b |K|^2 + lam stays above
    DENOM_FLOOR. y_spec has the output's shape, e.g. a (C, H, W) stack with
    z_spec, b and lam broadcast to it; k_spec is shared by all channels.
    With Q the quotient, D the denominator and t = F{gbar} / (H W D), the
    adjoint is
      Y: t b K   Z: t lam   K: sum_i b (conj(t) Y - 2 K Re(t conj(Q)))
      b: Re(conj(t) (conj(K) Y - Q |K|^2))   lam: Re(conj(t) (Z - Q)).
    """
    y, z, k, vb, vl = (ad.value(a) for a in (y_spec, z_spec, k_spec, b, lam))
    out = spectral.ifft2(_g_quotient(y, z, k, vb, vl)[0])

    def pull(gg):
        quotient, den = _g_quotient(y, z, k, vb, vl)
        t = ad.idft_adjoint(gg) / den
        ct = np.conj(t)
        cross = (t * np.conj(quotient)).real
        return (t * (vb * k), t * vl,
                ad.unbroadcast(vb * (ct * y - 2.0 * k * cross), np.shape(k)),
                ad.unbroadcast((ct * (np.conj(k) * y - quotient * _abs2(k))).real,
                               np.shape(vb)),
                ad.unbroadcast((ct * (z - quotient)).real, np.shape(vl)))

    return ad.record(out, (y_spec, z_spec, k_spec, b, lam), pull)


def z_update(g, b):
    """Sparsifying shrinkage sign(g) max(|g| - b, 0) of a feature stack."""
    out = np.abs(g) - b
    np.maximum(out, 0.0, out=out)
    out *= np.sign(g)
    return out


def z_spectrum(g, b):
    """The spectrum Z of z_update(g, b), as one node.

    The shrinkage passes the adjoint where |g| > b (zero subgradient on the
    kink) and sends -sign(g) times it to b.
    """
    vg, vb = ad.value(g), ad.value(b)
    out = spectral.fft2(z_update(vg, vb))

    def pull(gz):
        gs = ad.dft_adjoint(gz)
        gs *= np.abs(vg) > vb
        return gs, ad.unbroadcast(-gs * np.sign(vg), np.shape(vb))

    return ad.record(out, (g, b), pull)


def _k_quotient(z, y, eps):
    """The kernel update's spectrum and its denominator."""
    den = np.sum(_abs2(z), axis=0) + eps
    return np.sum(np.conj(z) * y, axis=0) / den, den


def k_update(z_specs, y_specs, eps):
    """Least-squares kernel plane from all channels, ridge eps > 0.

    z_specs and y_specs are (C, H, W) stacks (or sequences of C spectra);
    both sums run over the channels.
    """
    return spectral.ifft2(_k_quotient(np.asarray(z_specs), np.asarray(y_specs),
                                      eps)[0])


def _kept(plane, support):
    """The positive part of the plane, or of its support window if given."""
    return np.maximum(plane if support is None
                      else spectral.wrap_window(plane, support), 0.0)


def k_project(plane, support=None):
    """Project a plane onto the nonnegative unit-mass kernels.

    Clamps negatives to zero and, when a support is given, keeps only the
    odd support window around the origin, then normalizes once. A plane
    with no positive mass left degrades to the impulse at the origin.
    forward reads its s x s kernel estimate off this projection.
    """
    kept = _kept(plane, support)
    mass = float(np.sum(kept))
    if mass == 0.0:
        impulse = np.zeros(plane.shape)
        impulse[0, 0] = 1.0
        return impulse
    kept /= mass
    return kept if support is None else spectral.embed_kernel(kept, *plane.shape)


def _project_adjoint(raw, support, g):
    """Adjoint of k_project at raw, recomputed; zero where it fell back.

    x / sum(x) pulls g back as g / s - sum(g x) sign(x) / s^2, the clamp
    passes it where x > 0, and the window's adjoint embeds it again.
    """
    kept = _kept(raw, support)
    mass = float(np.sum(kept))
    if mass == 0.0:
        return np.zeros_like(raw)
    if support is not None:
        g = spectral.wrap_window(g, support)
    pulled = g / mass - (np.sum(g * kept) / (mass * mass)) * np.sign(kept)
    pulled *= kept > 0
    return pulled if support is None else spectral.embed_kernel(pulled, *raw.shape)


def kernel_estimate(z_spec, y_specs, eps, support=None):
    """k_project(k_update(z_spec, y_specs, eps), support) as one node.

    With R the quotient, D its denominator and a = F{rbar} / (H W) the
    adjoint of the raw plane's spectrum, the adjoint is
      Z_i: (conj(a) Y_i - 2 Z_i Re(a conj(R))) / D   Y_i: a Z_i / D,
    zero where the projection fell back to the (constant) impulse.
    """
    z, y = ad.value(z_spec), ad.value(y_specs)
    out = k_project(k_update(z, y, eps), support)

    def pull(gk):
        quotient, den = _k_quotient(z, y, eps)
        a = ad.idft_adjoint(_project_adjoint(spectral.ifft2(quotient), support, gk))
        return ((np.conj(a) * y - 2.0 * z * (a * np.conj(quotient)).real) / den,
                a * z / den)

    return ad.record(out, (z_spec, y_specs), pull)


def _x_quotient(y_spec, k, gs, f, e):
    """The reconstruction's spectrum and denominator, checked against the floor."""
    den = _floored(_abs2(k) + np.sum(e * _abs2(f), axis=0), "reconstruction")
    prior = np.conj(f) * gs
    np.multiply(e, prior, out=prior)
    num = np.conj(k) * y_spec + np.sum(prior, axis=0)
    num /= den
    return num, den


def reconstruct(y_spec, k_plane, g, f_spec, eta):
    """Final image estimate from the kernel plane and feature planes, one node.

    y_spec is the spectrum of the blurred image, g the (C, H, W) feature
    planes, f_spec the spectra of the filter bank they belong to (stacks or
    sequences of C) and eta the (C,) channel weights. Returns one (H, W)
    plane. With G = F{g}, X the quotient, D the denominator and
    t = F{xbar} / (H W D), the adjoint is
      K: conj(t) Y - 2 K Re(t conj(X))   G_i: t eta_i F_i
      F_i: eta_i (conj(t) G_i - 2 F_i Re(t conj(X)))
      eta_i: Re(conj(t) (conj(F_i) G_i - X |F_i|^2)).
    """
    vk, vg, vf = ad.value(k_plane), np.asarray(ad.value(g)), np.asarray(ad.value(f_spec))
    e = np.asarray(ad.value(eta))[:, None, None]
    out = spectral.ifft2(_x_quotient(y_spec, spectral.fft2(vk), spectral.fft2(vg),
                                     vf, e)[0])

    def pull(gx):
        k, gs = spectral.fft2(vk), spectral.fft2(vg)
        quotient, den = _x_quotient(y_spec, k, gs, vf, e)
        t = ad.idft_adjoint(gx) / den
        ct = np.conj(t)
        cross = (t * np.conj(quotient)).real
        return (ad.dft_adjoint(ct * y_spec - 2.0 * k * cross),
                ad.dft_adjoint(t * e * vf),
                e * (ct * gs - 2.0 * vf * cross),
                np.sum((ct * (np.conj(vf) * gs - quotient * _abs2(vf))).real,
                       axis=(-2, -1)))

    return ad.record(out, (k_plane, g, f_spec, eta), pull)


def forward(y, params, tape=None, restrict_support=False, track_kinks=False):
    """Run the unrolled solver on a blurred image.

    Returns (kernel, g, x_hat, state): the kernel estimate (the support
    window of the last kernel plane's k_project), the final (C, H, W)
    feature planes and the full-precision reconstruction as plain arrays,
    plus a ForwardState carrying the tape ends when recorded. With a tape,
    each trainable array of params is one leaf.
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
    z_spec = 0.0  # no shrinkage precedes the first layer
    support = params.kernel_support if restrict_support else None
    kernel_planes = []
    kinks = [] if track_kinks else None

    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        if l == 0 or banks[l] is not banks[l - 1]:
            f_spec = spectral.fft2(spectral.embed_kernels(ad.value(banks[l]), h, w))
            y_specs = filter_spectra(banks[l], f_spec, y_spec)
            for shared in (f_spec, y_specs):  # reused by later layers
                ad.value(shared).flags.writeable = False
        g = g_update(y_specs, z_spec, ad.fft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel))
        z_spec = z_spectrum(g, b_l)
        if kinks is not None:
            kinks.append(np.packbits(np.abs(ad.value(g)) > ad.value(b_l)).tobytes())
            kinks.append(np.packbits(k_update(ad.value(z_spec), ad.value(y_specs),
                                              params.eps) > 0).tobytes())
        k_plane = kernel_estimate(z_spec, y_specs, params.eps, support)
        kernel_planes.append(np.array(ad.value(k_plane)))

    del y_specs, z_spec  # the reconstruction allocates stacks of its own
    x_hat = reconstruct(y_spec, k_plane, g, filter_spectra(banks[-1], f_spec),
                        pv["eta"])

    kernel = spectral.wrap_window(k_project(ad.value(k_plane), params.kernel_support),
                                  params.kernel_support)
    state = ForwardState(
        x_hat=x_hat, kernel_plane=k_plane, kernel_planes=kernel_planes,
        tape=tape, param_vars=pv,
        kink_signature=b"".join(kinks) if kinks is not None else None)
    return kernel, np.array(ad.value(g)), np.array(ad.value(x_hat)), state


def collect_gradients(loss_var, state):
    """Run backward; returns {field: gradient} for each trainable array."""
    names = list(state.param_vars)
    grads = ad.backward(loss_var, [state.param_vars[n] for n in names])
    return dict(zip(names, grads))
