"""Gradient oracles: the solver's updates as chains of generic primitives.

Each update in unroll is one tape node with a hand-derived adjoint. Here
the same updates are composed from elementwise primitives, each recording
its own node with the textbook adjoint, exactly as the solver was written
before its updates were fused. The fused adjoints are tested against these
chains, and the primitives themselves against central differences
(test_autodiff.py). Nothing in src/ imports this module.

kernel_form forces the form unroll.forward carries the kernel in, so that
one model can be checked in both forms.
"""

import contextlib

import numpy as np
import pytest
import scipy.fft

from unrolled_deblur import autodiff as ad
from unrolled_deblur import spectral, unroll
from unrolled_deblur.errors import SingularDenominator
from unrolled_deblur.unroll import DENOM_FLOOR, TRAINABLE, build_filters

# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    va, vb = ad.value(a), ad.value(b)
    # backward keeps and sums into what a pull returns, so the two inputs
    # get arrays of their own
    return ad.record(va + vb, (a, b), lambda g: (
        ad.unbroadcast(g, np.shape(va)), ad.unbroadcast(np.array(g), np.shape(vb))))


def mul(a, b):
    va, vb = ad.value(a), ad.value(b)
    return ad.record(va * vb, (a, b), lambda g: (
        ad.unbroadcast(g * np.conj(vb), np.shape(va)),
        ad.unbroadcast(g * np.conj(va), np.shape(vb))))


def conj(a):
    return ad.record(np.conj(ad.value(a)), (a,), lambda g: (np.conj(g),))


def div(a, b):
    va, vb = ad.value(a), ad.value(b)

    def pull(g):
        return (ad.unbroadcast(g * np.conj(1.0 / vb), np.shape(va)),
                ad.unbroadcast(g * np.conj(-va / (vb * vb)), np.shape(vb)))

    return ad.record(va / vb, (a, b), pull)


def channel_sum(a):
    """Sum over the leading axis; the adjoint broadcasts back along it."""
    va = np.asarray(ad.value(a))
    return ad.record(np.sum(va, axis=0), (a,),
                     lambda g: (np.broadcast_to(g, va.shape),))


def abs2(a):
    """|a|^2 as a real array."""
    va = ad.value(a)
    out = (va * np.conj(va)).real.copy() if np.iscomplexobj(va) else va * va
    return ad.record(out, (a,), lambda g: (2.0 * g * va,))


def fft2(a):
    """Unnormalized forward DFT of real planes, as full spectra.

    Its adjoint is the unnormalized inverse, H*W Re ifft2(g), taken
    complex-to-complex because g need not be Hermitian.
    """
    va = ad.value(a)
    size = float(va.shape[-2] * va.shape[-1])
    return ad.record(spectral.fft2(va), (a,),
                     lambda g: (scipy.fft.ifft2(g).real * size,))


def ifft2(a):
    """Normalized inverse DFT returning the real part (residue-checked).

    Its adjoint is the forward DFT scaled by 1/(H*W).
    """
    va = ad.value(a)
    size = float(va.shape[-2] * va.shape[-1])
    return ad.record(spectral.ifft2(va), (a,), lambda g: (spectral.fft2(g) / size,))


def soft_threshold(x, thresh):
    """sign(x) * max(|x| - thresh, 0); zero subgradient on the kink."""
    vx, vt = ad.value(x), ad.value(thresh)
    out = np.abs(vx) - vt
    mask = out > 0
    np.maximum(out, 0.0, out=out)
    out *= np.sign(vx)
    return ad.record(out, (x, thresh), lambda g: (
        g * mask, ad.unbroadcast(-g * np.sign(vx) * mask, np.shape(vt))))


def shrink_from_g(x, thresh):
    """soft_threshold whose adjoint reads x itself, as unroll.z_spectrum's did
    before it kept a shrinkage code: x's adjoint is g times the mask
    |x| > thresh, and thresh's is minus unroll._re_inner of that against
    sign(x), the solver's own reduction, so a node that keeps less of x
    must give these bits."""
    vx, vt = ad.value(x), ad.value(thresh)

    def pull(g):
        gs = g * (np.abs(vx) > vt)
        gt = unroll._re_inner(gs, np.sign(vx))
        return gs, ad.unbroadcast(-gt[..., None, None], np.shape(vt))

    return ad.record(unroll.z_update(vx, vt), (x, thresh), pull)


def relu(x):
    vx = ad.value(x)
    return ad.record(np.maximum(vx, 0.0), (x,), lambda g: (g * (vx > 0),))


def l1_normalize(x):
    """x / sum|x|; an all-zero plane gives the impulse, a constant."""
    vx = ad.value(x)
    s = float(np.sum(np.abs(vx)))
    if s == 0.0:
        out = np.zeros_like(vx)
        out[(0,) * out.ndim] = 1.0
        return out
    return ad.record(vx / s, (x,), lambda g: (
        g / s - (np.sum(g * vx) / (s * s)) * np.sign(vx),))


def embed_plane(x, height, width):
    vx = ad.value(x)
    k = vx.shape[-1]
    return ad.record(spectral.embed_kernels(vx, height, width), (x,),
                     lambda g: (spectral.wrap_window(g, k),))


def origin_window(x, size):
    vx = ad.value(x)
    h, w = vx.shape
    return ad.record(spectral.wrap_window(vx, size), (x,),
                     lambda g: (spectral.embed_kernel(g, h, w),))


def inner(x, w):
    """Re sum(conj(w) x): a real scalar whose adjoint with respect to x is w."""
    vx = ad.value(x)
    return ad.record(np.asarray(np.sum(np.conj(w) * vx).real), (x,),
                     lambda g: (g * w,))


# ---------------------------------------------------------------------------
# the updates, composed


def filter_spectra(bank, y_spec, h, w):
    """(F, F Y) for a bank on an (h, w) grid."""
    f_spec = fft2(embed_plane(bank, h, w))
    return f_spec, mul(f_spec, y_spec)


def g_update(y_spec, z_spec, k_spec, b, lam):
    num = add(mul(b, mul(conj(k_spec), y_spec)), mul(lam, z_spec))
    den = add(mul(b, abs2(k_spec)), lam)
    if float(np.min(ad.value(den))) < DENOM_FLOOR:
        raise SingularDenominator("feature update denominator")
    return ifft2(div(num, den))


def stacked_g_update_pull(y, z, k, vb, vl, shape, gg, z_recorded=True):
    """The adjoints (Y, Z, K, b, lam) of unroll.g_update's pull, taken on
    whole (C, H, W//2+1) stacks: the quotient, t, R and K's adjoint, one
    stack each. unroll.g_update's pull takes them in channel chunks, and
    must give these bits; Z's is None unless z_recorded.
    """
    q, inv = unroll._quotient(((vb, k, y), (vl, 1, z)), update="feature update")
    t = ad.idft_adjoint(gg, shape, scale=inv)
    del inv
    gz = vl * t if z_recorded else None
    r = np.subtract(z, q)
    gl = unroll._re_inner(t, r)
    np.multiply(k, q, out=r)
    np.subtract(y, r, out=r)
    np.conjugate(t, out=t)
    np.multiply(t, r, out=r)
    gb = unroll._re_inner(k, r)
    np.conjugate(t, out=t)
    t *= k
    np.conjugate(q, out=q)
    q *= t
    r -= q
    r *= vb
    t *= vb
    return (t, gz, ad.unbroadcast(r, np.shape(k)),
            ad.unbroadcast(gb[..., None, None], np.shape(vb)),
            ad.unbroadcast(gl[..., None, None], np.shape(vl)))


def z_spectrum(g, b):
    return fft2(soft_threshold(g, b))


def kernel_estimate(z_spec, y_specs, eps, support=None):
    num = channel_sum(mul(conj(z_spec), y_specs))
    den = channel_sum(abs2(z_spec))
    plane = l1_normalize(relu(ifft2(div(num, add(den, eps)))))
    if support is not None:
        h, w = ad.value(plane).shape
        plane = l1_normalize(embed_plane(origin_window(plane, support), h, w))
    return plane


def reconstruct(y_spec, k_plane, g, f_spec, eta):
    k_spec = fft2(k_plane)
    e = ad.take(eta, (slice(None), None, None))
    den = add(abs2(k_spec), channel_sum(mul(e, abs2(f_spec))))
    if float(np.min(ad.value(den))) < DENOM_FLOOR:
        raise SingularDenominator("reconstruction denominator")
    num = add(mul(conj(k_spec), y_spec),
              channel_sum(mul(e, mul(conj(f_spec), fft2(g)))))
    return ifft2(div(num, den))


@contextlib.contextmanager
def kernel_form(window):
    """Within the block, unroll.forward's layers carry the kernel as its
    support window (window true) or as the whole plane, whatever the
    model's kind: unroll._window_support is the one place forward picks."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(unroll, "_window_support",
                  lambda params: params.kernel_support if window else None)
        yield


def forward(y, params, tape, window=False):
    """unroll.forward of a trained-layout model, composed and recorded, with
    the kernel projected on its support window in every layer if window.

    Returns (x_hat, kernel_plane, leaves) with one leaf per trainable array.
    """
    h, w = y.shape
    L, C = params.b.shape
    pv = {name: ad.leaf(tape, getattr(params, name)) for name in TRAINABLE}
    banks = build_filters(pv["w_top"], pv["w_mix"])
    y_spec = spectral.fft2(y)
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)
    z_spec = np.zeros((C, h, w), dtype=np.complex128)
    support = params.kernel_support if window else None
    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        f_spec, y_specs = filter_spectra(banks[l], y_spec, h, w)
        g = g_update(y_specs, z_spec, fft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel))
        z_spec = z_spectrum(g, b_l)
        k_plane = kernel_estimate(z_spec, y_specs, params.eps, support)
    return reconstruct(y_spec, k_plane, g, f_spec, pv["eta"]), k_plane, pv
