"""Unrolled half-quadratic splitting solver for blind deconvolution.

The observation model is y = k * x + n with circular convolution. Each of
the L layers refines C filtered copies of the blurred image through
closed-form updates, each one per-frequency least-squares solve over a list
of terms (w, A, B) (_quotient), Q = sum w conj(A) B / (sum w |A|^2 + d):

  feature   g_i <- F^-1 Q of (b_i, K, Y_i) and (lam_i, 1, Z_i)
  sparsify  z_i <- soft_threshold(g_i, b_i)
  kernel    k   <- project(F^-1 Q of (1, Z_i, Y_i) summed over i, d = eps)

where Y_i is the spectrum of f_i * y for a per-layer filter bank f, and
project clamps to nonnegative, optionally windows the plane to the kernel
support, and normalizes to unit mass (k_project). The weights b_i, lam_i
(the penalty reparametrized so lam_i = 0 is well defined), the cascade's
mixing weights and the reconstruction weights eta_i are trainable; eps is fixed.

Filter banks grow by cascading 3x3 generations: the last layer uses C raw
3x3 filters and every earlier layer mixes the following layer's bank
through full convolution, adding two pixels of support per step, so layer 1
sees kernels up to (2L+1) pixels wide. The final estimate x is F^-1 Q of
(1, K, Y) and (eta_i, F_i, G_i) summed over i, with the last layer's bank.

Recording: each update computes its value with numpy and, when an input
is a tape Var, records one node (see autodiff), so the same code runs plain
or recorded. A pull recomputes its quotient from the node's inputs and
each term's adjoint through the one _term_adjoint. A recorded layer makes
five nodes (filter_spectra, g_update, z_spectrum, the kernel spectrum and
kernel_estimate) and one autodiff.take node per slice b[l], lam[l], w_mix[l].

Layout: the C channels travel as one (C, H, W) stack and a filter bank is
one (C, s, s) array, so each update is one call per layer whatever C is.
Layer l reads the (C, 1, 1) slices b[l], lam[l] of the (L, C) arrays; when
recorded, each of b, lam, eta, w_top and w_mix is one tape leaf.

Filter spectra: forward alone transforms a bank, and only when it is not
layer l-1's very bank object, so the preset's fixed_bank is transformed
once. The updates take spectra, never planes; reconstruct reuses the last
F_l. Shared stacks are kept read-only.

Half spectra: every plane the solver transforms is real, so forward
carries each spectrum as its half (..., H, W//2+1) and passes the image
shape (H, W) to every update (reconstruct reads it off the kernel plane),
which then inverts with spectral.irfft2 (and its residue check on the
self-mirrored columns 0 and W/2). _quotient and
_term_adjoint work entrywise, so they are the same on half and full
arrays; adjoints pair with the Euclidean inner product over the half, so
the weights of the columns that stand for two (2 in idft_adjoint, 1/2 in
dft_adjoint) are all it takes, and the frequency sums for b, lam and eta
come out right as they are. Without a shape the updates take full spectra
and invert with spectral.ifft2, as the closed-form oracles call them.
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
    """The per-frequency least-squares solve Q = N / D; returns (Q, D).

    Each term (w, A, B) adds w (conj(A) B) to N and w |A|^2 to D (w = 1 or
    A = 1 skips a multiply); summed terms are summed over their leading
    (channel) axis, and ridge is added to D. N accumulates in the first
    term's product, so its A is an array. Given an update name, a D below
    DENOM_FLOOR raises SingularDenominator.

    Adjoint (_term_adjoint): with t = qbar / D for the adjoint qbar of Q and
    R = B - A Q, N gets t and D gets -Re(t conj(Q)); since 2 A Re(t conj(Q))
    = t A conj(Q) + conj(t) A Q, each term pulls back to
      B: w t A    A: w (conj(t) R - t A conj(Q))    w: Re(conj(t A) R).
    """
    num = den = None
    for (w, a, b), summing in [(t, False) for t in terms] + [(t, True) for t in summed]:
        den = _add(den, 1 if _unit(a) else (a * np.conj(a)).real, summing, w)
        num = _add(num, b if _unit(a) else np.conj(a) * b, summing, w, not _unit(a))
    if ridge:
        den += ridge
    if update is not None and np.min(den) < DENOM_FLOOR:
        raise SingularDenominator("%s denominator floor %.3e" % (update, np.min(den)))
    num /= den
    return num, den


def _add(acc, part, summing, w=1, own=False):
    """acc + w part (in part's buffer if own, then summed over its leading
    axis if summing), in acc's buffer, so no term's stacks outlive the call."""
    if not own and not _unit(w) and acc is not None and np.shape(part) == acc.shape:
        # plane by plane: a stack-sized temporary makes glibc re-fault pages
        for i in np.ndindex(acc.shape[:-2]):
            acc[i] += np.broadcast_to(w, acc.shape)[i] * part[i]
        return acc
    if not _unit(w):
        part = np.multiply(w, part, out=part if own else None)
    if summing:
        part = np.sum(part, axis=0)
    return part if acc is None else np.add(acc, part, out=acc)


def _term_adjoint(t, q, w, a, b):
    """Unreduced adjoints (B, A, w) of one _quotient term; None for a 1."""
    ta, r = (t, b - q) if _unit(a) else (t * a, b - a * q)
    gw, gb = (None, ta) if _unit(w) else ((np.conj(ta) * r).real, w * ta)
    if _unit(a):
        return gb, None, gw
    ga = np.multiply(np.conj(t), r, out=r)  # in R's buffer, which gw has read
    ga -= ta * np.conj(q)
    return gb, (ga if _unit(w) else np.multiply(w, ga, out=ga)), gw


def _dft(planes, shape):
    """Spectra of real planes: half spectra when shape is given, else full."""
    return spectral.fft2(planes) if shape is None else spectral.rfft2(planes)


def _idft(spectrum, shape):
    """Real planes of full spectra, or of half spectra of shape planes."""
    return spectral.ifft2(spectrum) if shape is None else spectral.irfft2(spectrum, shape)


def filter_spectra(bank, f_spec, shape, y_spec=None):
    """The filtered spectra F_l Y, or F_l itself without y_spec, as one node.

    f_spec is the bank's half spectrum on the (H, W) = shape image grid,
    which forward computes once per bank; the adjoint returns to the
    (C, s, s) filter taps.
    """
    out = f_spec if y_spec is None else f_spec * y_spec
    size = np.shape(ad.value(bank))[-1]

    def pull(gs):
        gs = gs if y_spec is None else gs * np.conj(y_spec)
        return (spectral.wrap_window(ad.dft_adjoint(gs, shape), size),)

    return ad.record(out, (bank,), pull)


def g_update(y_spec, z_spec, k_spec, b, lam, shape=None):
    """Closed-form feature update in the frequency domain, as one node.

    Minimizes (b/2)|y_i - k * g|^2 + (lam/2)|g - z|^2 per frequency: the
    quotient of the terms (b, K, Y) and (lam, 1, Z) for the spectra Y_i of
    the filtered image, Z of the shrunk features and K of the kernel plane.
    lam = 0 (pure data term) is well defined while b |K|^2 + lam stays above
    DENOM_FLOOR. y_spec has the output's shape, e.g. a (C, H, W) stack with
    z_spec, b and lam broadcast to it; k_spec is shared by all channels.
    Given the planes' shape (H, W), the spectra are half spectra
    (..., H, W//2+1); without it they are full.
    """
    y, z, k, vb, vl = (ad.value(a) for a in (y_spec, z_spec, k_spec, b, lam))
    terms = ((vb, k, y), (vl, 1, z))
    out = _idft(_quotient(terms, update="feature update")[0], shape)

    def pull(gg):
        q, den = _quotient(terms, update="feature update")
        t = ad.idft_adjoint(gg, shape) / den
        gy, gk, gb = _term_adjoint(t, q, *terms[0])
        gz, _, gl = _term_adjoint(t, q, *terms[1])
        return (gy, gz, ad.unbroadcast(gk, np.shape(k)),
                ad.unbroadcast(gb, np.shape(vb)), ad.unbroadcast(gl, np.shape(vl)))

    return ad.record(out, (y_spec, z_spec, k_spec, b, lam), pull)


def z_update(g, b):
    """Sparsifying shrinkage sign(g) max(|g| - b, 0) of a feature stack."""
    out = np.abs(g) - b
    np.maximum(out, 0.0, out=out)
    out *= np.sign(g)
    return out


def z_spectrum(g, b):
    """The half spectrum Z of z_update(g, b), as one node.

    The shrinkage passes the adjoint where |g| > b (zero subgradient on the
    kink) and sends -sign(g) times it to b.
    """
    vg, vb = ad.value(g), ad.value(b)
    out = spectral.rfft2(z_update(vg, vb))

    def pull(gz):
        gs = ad.dft_adjoint(gz, np.shape(vg)[-2:])
        gs *= np.abs(vg) > vb
        return gs, ad.unbroadcast(-gs * np.sign(vg), np.shape(vb))

    return ad.record(out, (g, b), pull)


def k_update(z_specs, y_specs, eps, shape=None):
    """Least-squares kernel plane from all channels, ridge eps > 0.

    z_specs and y_specs are (C, H, W) stacks (or sequences of C spectra),
    half spectra of shape planes when shape is given; the term (1, Z_i, Y_i)
    is summed over the channels.
    """
    return _idft(_quotient(
        (), ((1, np.asarray(z_specs), np.asarray(y_specs)),), eps)[0], shape)


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


def kernel_estimate(z_spec, y_specs, eps, support=None, shape=None):
    """k_project(k_update(z_spec, y_specs, eps, shape), support) as one node.

    The adjoint passes through the projection first (zero where it fell
    back to the constant impulse), then through k_update's quotient.
    """
    z, y = ad.value(z_spec), ad.value(y_specs)
    out = k_project(k_update(z, y, eps, shape), support)

    def pull(gk):
        q, den = _quotient((), ((1, z, y),), eps)
        t = ad.idft_adjoint(_project_adjoint(_idft(q, shape), support, gk),
                            shape) / den
        gy, gz, _ = _term_adjoint(t, q, 1, z, y)
        return gz, gy

    return ad.record(out, (z_spec, y_specs), pull)


def reconstruct(y_spec, k_plane, g, f_spec, eta):
    """Final image estimate from the kernel plane and feature planes, one node.

    y_spec is the spectrum of the blurred image, g the (C, H, W) feature
    planes, f_spec the spectra of the filter bank they belong to (stacks or
    sequences of C) and eta the (C,) channel weights. Returns one (H, W)
    plane: the quotient of the term (1, K, Y) and the channel sum of the
    terms (eta_i, F_i, G_i), with K and G the spectra of k_plane and g.
    The spectra are half spectra when y_spec is narrower than k_plane (for
    W <= 2 the two are the same arrays).
    """
    vk, vg, vf = ad.value(k_plane), np.asarray(ad.value(g)), np.asarray(ad.value(f_spec))
    shape = np.shape(vk) if np.shape(y_spec)[-1] != np.shape(vk)[-1] else None
    e = np.asarray(ad.value(eta))[:, None, None]

    def terms():  # the data term and the channel-summed prior term
        return ((1, _dft(vk, shape), y_spec),), ((e, vf, _dft(vg, shape)),)

    out = _idft(_quotient(*terms(), update="reconstruction")[0], shape)

    def pull(gx):
        data, prior = terms()
        q, den = _quotient(data, prior, update="reconstruction")
        t = ad.idft_adjoint(gx, shape) / den
        gg, gf, ge = _term_adjoint(t, q, *prior[0])
        return (ad.dft_adjoint(_term_adjoint(t, q, *data[0])[1], shape),
                ad.dft_adjoint(gg, shape), gf, np.sum(ge, axis=(-2, -1)))

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

    banks = ([params.fixed_bank] * L if params.fixed_bank is not None
             else build_filters(pv["w_top"], pv["w_mix"]))

    # every spectrum is the half spectrum of an (h, w) plane; the image's is
    # cut from its full spectral.fft2, so that perfbench's spectral.fft2
    # span, which its smoke test requires in every workload, sees one
    # transform per forward
    shape = (h, w)
    y_spec = np.ascontiguousarray(spectral.fft2(y)[:, :w // 2 + 1])
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)  # identity init
    z_spec = 0.0  # no shrinkage precedes the first layer
    support = params.kernel_support if restrict_support else None
    kernel_planes = []
    kinks = [] if track_kinks else None

    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        if l == 0 or banks[l] is not banks[l - 1]:
            f_spec = spectral.rfft2(spectral.embed_kernels(ad.value(banks[l]), h, w))
            y_specs = filter_spectra(banks[l], f_spec, shape, y_spec)
            for shared in (f_spec, y_specs):  # reused by later layers
                ad.value(shared).flags.writeable = False
        g = g_update(y_specs, z_spec, ad.rfft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel), shape)
        z_spec = z_spectrum(g, b_l)
        if kinks is not None:
            kinks.append(np.packbits(np.abs(ad.value(g)) > ad.value(b_l)).tobytes())
            kinks.append(np.packbits(k_update(ad.value(z_spec), ad.value(y_specs),
                                              params.eps, shape) > 0).tobytes())
        k_plane = kernel_estimate(z_spec, y_specs, params.eps, support, shape)
        kernel_planes.append(np.array(ad.value(k_plane)))

    del y_specs, z_spec  # the reconstruction allocates stacks of its own
    x_hat = reconstruct(y_spec, k_plane, g, filter_spectra(banks[-1], f_spec, shape),
                        pv["eta"])

    kernel = spectral.wrap_window(k_project(ad.value(k_plane), params.kernel_support),
                                  params.kernel_support)
    state = ForwardState(
        x_hat=x_hat, kernel_plane=k_plane, kernel_planes=kernel_planes, tape=tape,
        param_vars=pv, kink_signature=None if kinks is None else b"".join(kinks))
    return kernel, np.array(ad.value(g)), np.array(ad.value(x_hat)), state


def collect_gradients(loss_var, state):
    """Run backward; returns {field: gradient} for each trainable array."""
    names = list(state.param_vars)
    grads = ad.backward(loss_var, [state.param_vars[n] for n in names])
    return dict(zip(names, grads))
