"""Gradient oracles: the solver's updates as chains of generic primitives.

Each update in unroll is one tape node with a hand-derived adjoint. Here
the same updates are composed from elementwise primitives, each recording
its own node with the textbook adjoint, exactly as the solver was written
before its updates were fused. The fused adjoints are tested against these
chains, and the primitives themselves against central differences
(test_autodiff.py). Nothing in src/ imports this module.
"""

import numpy as np

from unrolled_deblur import autodiff as ad
from unrolled_deblur import spectral
from unrolled_deblur.errors import SingularDenominator
from unrolled_deblur.unroll import DENOM_FLOOR, TRAINABLE, build_filters

# ---------------------------------------------------------------------------
# primitives


def add(a, b):
    va, vb = ad.value(a), ad.value(b)
    return ad.record(va + vb, (a, b), lambda g: (
        ad.unbroadcast(g, np.shape(va)), ad.unbroadcast(g, np.shape(vb))))


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
    """Unnormalized forward DFT of real planes, as full spectra."""
    return ad.record(spectral.fft2(ad.value(a)), (a,),
                     lambda g: (ad.dft_adjoint(g),))


def ifft2(a):
    """Normalized inverse DFT returning the real part (residue-checked)."""
    va = ad.value(a)
    return ad.record(spectral.ifft2(va), (a,), lambda g: (ad.idft_adjoint(g),))


def soft_threshold(x, thresh):
    """sign(x) * max(|x| - thresh, 0); zero subgradient on the kink."""
    vx, vt = ad.value(x), ad.value(thresh)
    out = np.abs(vx) - vt
    mask = out > 0
    np.maximum(out, 0.0, out=out)
    out *= np.sign(vx)
    return ad.record(out, (x, thresh), lambda g: (
        g * mask, ad.unbroadcast(-g * np.sign(vx) * mask, np.shape(vt))))


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


def forward(y, params, tape, restrict_support=False):
    """unroll.forward of a trained-layout model, composed and recorded.

    Returns (x_hat, kernel_plane, leaves) with one leaf per trainable array.
    """
    h, w = y.shape
    L, C = params.b.shape
    pv = {name: ad.leaf(tape, getattr(params, name)) for name in TRAINABLE}
    banks = build_filters(pv["w_top"], pv["w_mix"])
    y_spec = spectral.fft2(y)
    k_plane = spectral.embed_kernel(np.array([[1.0]]), h, w)
    z_spec = np.zeros((C, h, w), dtype=np.complex128)
    support = params.kernel_support if restrict_support else None
    for l in range(L):
        per_channel = (l, slice(None), None, None)
        b_l = ad.take(pv["b"], per_channel)
        f_spec, y_specs = filter_spectra(banks[l], y_spec, h, w)
        g = g_update(y_specs, z_spec, fft2(k_plane), b_l,
                     ad.take(pv["lam"], per_channel))
        z_spec = z_spectrum(g, b_l)
        k_plane = kernel_estimate(z_spec, y_specs, params.eps, support)
    return reconstruct(y_spec, k_plane, g, f_spec, pv["eta"]), k_plane, pv
