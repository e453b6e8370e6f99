"""The solver's fused nodes against their composed primitive chains.

Each update of unroll records one node with a hand-derived adjoint; the
chains in composed.py compute the same update from generic primitives,
each with the textbook adjoint. Per node, every input's adjoint must agree
with the chain's to 1e-12 relative (normwise), and the values bitwise,
since the arithmetic is the same. The one exception is the windowed kernel
projection: it normalizes once where the chain normalizes, windows and
normalizes again (the same function), so its values agree to 1e-15. A
whole taped forward is compared with the composed forward, on fixed cases
and on hypothesis-drawn sizes, channel and layer counts and zero weights.

The solver carries half spectra, and the chains full ones. filter_spectra
and z_spectrum take or give half spectra only, and the half_spectrum tests
feed the other nodes half spectra, at an odd and an even width; there the
adjoint of a spectral input compares as the chain's times 2 on the doubled
columns, to the same 1e-12 bound. The other node tests check the updates
on full spectra, their mode without a shape. The whole forward compares as
is, because its leaves and outputs are real.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import composed
from unrolled_deblur import autodiff as ad
from unrolled_deblur import spectral, unroll
from unrolled_deblur.errors import DeblurError
from unrolled_deblur.training import TrainConfig, init_params, loss_terms

TOL = 1e-12


def rel_err(got, want):
    """max |got - want| relative to max |want|."""
    if np.size(want) == 0:  # w_mix of a one-layer model
        return 0.0
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))),
                                                    1e-300)


def vjp(fn, inputs, seed):
    """fn's value and the adjoints of Re sum(conj(seed) fn(*inputs))."""
    tape = ad.Tape()
    leaves = [ad.Var(np.array(x), tape) for x in inputs]
    out = fn(*leaves)
    return ad.value(out), ad.backward(composed.inner(out, seed), leaves)


def assert_matches_chain(fused, chain, inputs, seed, value_tol=0.0):
    got, got_adj = vjp(fused, inputs, seed)
    want, want_adj = vjp(chain, inputs, seed)
    if value_tol == 0.0:
        assert np.array_equal(got, want)
    else:
        assert rel_err(got, want) <= value_tol
    for i, (a, b) in enumerate(zip(got_adj, want_adj)):
        assert np.all(np.isfinite(a))
        assert rel_err(a, b) <= TOL, "input %d: %.2e" % (i, rel_err(a, b))


def spectra(rng, *shape):
    """Spectra of random real planes: Hermitian, as the solver's are."""
    return spectral.fft2(rng.standard_normal(shape))


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def halve(full):
    """The half spectrum: columns 0..W//2 of a full (..., H, W) spectrum."""
    return full[..., :full.shape[-1] // 2 + 1]


def doubled(w):
    """1 on the columns of a half spectrum that stand for themselves, else 2."""
    weights = np.ones(w // 2 + 1)
    weights[spectral.doubled_columns(w)] = 2.0
    return weights


def assert_half_matches_chain(fused, chain, inputs, seed, spectral_at):
    """fused on half spectra against chain on full ones.

    inputs are given full; those at the positions in spectral_at are
    halved for fused, and their adjoints compare as doubled(W) times the
    chain's halved. A complex seed is the full spectrum of a real plane and is
    weighted alike, so both sides differentiate the same real loss. Values
    agree to rounding, since the transforms differ.
    """
    c = doubled(np.shape(seed)[-1])  # the seed is a full-width array
    half_seed = c * halve(seed) if np.iscomplexobj(seed) else seed
    got, got_adj = vjp(fused, [halve(x) if i in spectral_at else x
                               for i, x in enumerate(inputs)], half_seed)
    want, want_adj = vjp(chain, inputs, seed)
    assert rel_err(got, halve(want) if np.iscomplexobj(want) else want) <= 1e-14
    for i, (a, b) in enumerate(zip(got_adj, want_adj)):
        b = c * halve(b) if i in spectral_at else b
        assert np.all(np.isfinite(a))
        assert rel_err(a, b) <= TOL, "input %d: %.2e" % (i, rel_err(a, b))


C, H, W = 3, 10, 13

# the node tests on half spectra run at an odd and an even width
widths = pytest.mark.parametrize("w", [W, W - 1])


def test_filter_spectra_adjoint(rng):
    # the node takes half spectra only
    for w in (W, W - 1):
        bank = rng.standard_normal((C, 5, 5))
        y_spec = spectra(rng, H, w)

        def f_spec(b):
            return spectral.rfft2(spectral.embed_kernels(ad.value(b), H, w))

        for y, which in ((y_spec, 1), (None, 0)):
            assert_half_matches_chain(
                lambda b: unroll.filter_spectra(
                    b, f_spec(b), (H, w), None if y is None else halve(y)),
                lambda b: composed.filter_spectra(b, y_spec, H, w)[which],
                [bank], spectra(rng, C, H, w), ())


def test_g_update_adjoint(rng):
    inputs = [spectra(rng, C, H, W), spectra(rng, C, H, W), spectra(rng, H, W),
              rng.uniform(0.1, 2.0, (C, 1, 1)), rng.uniform(0.05, 1.0, (C, 1, 1))]
    assert_matches_chain(unroll.g_update, composed.g_update, inputs,
                         rng.standard_normal((C, H, W)))


def test_z_spectrum_adjoint(rng):
    # the node gives half spectra only
    for w in (W, W - 1):
        g = rng.standard_normal((C, H, w))
        b = rng.uniform(0.2, 0.8, (C, 1, 1))
        assert_half_matches_chain(unroll.z_spectrum, composed.z_spectrum, [g, b],
                                  spectra(rng, C, H, w), ())


@pytest.mark.parametrize("support", [None, 5])
def test_kernel_estimate_adjoint(rng, support):
    inputs = [spectra(rng, C, H, W), spectra(rng, C, H, W)]
    raw = unroll.k_update(*inputs, 0.7)
    assert np.any(raw > 0) and np.any(raw < 0)  # both sides of the clamp
    assert_matches_chain(
        lambda z, y: unroll.kernel_estimate(z, y, 0.7, support),
        lambda z, y: composed.kernel_estimate(z, y, 0.7, support),
        inputs, rng.standard_normal((H, W)),
        value_tol=0.0 if support is None else 1e-15)


def test_reconstruct_adjoint(rng):
    y_spec = spectra(rng, H, W)
    k_plane = rng.random((H, W))
    inputs = [k_plane / k_plane.sum(), rng.standard_normal((C, H, W)),
              spectra(rng, C, H, W), rng.uniform(0.5, 20.0, C)]
    assert_matches_chain(
        lambda *a: unroll.reconstruct(y_spec, *a),
        lambda *a: composed.reconstruct(y_spec, *a),
        inputs, rng.standard_normal((H, W)))


@widths
def test_half_spectrum_g_update_adjoint(rng, w):
    inputs = [spectra(rng, C, H, w), spectra(rng, C, H, w), spectra(rng, H, w),
              rng.uniform(0.1, 2.0, (C, 1, 1)), rng.uniform(0.05, 1.0, (C, 1, 1))]
    assert_half_matches_chain(
        lambda *a: unroll.g_update(*a, shape=(H, w)), composed.g_update, inputs,
        rng.standard_normal((C, H, w)), (0, 1, 2))


@widths
@pytest.mark.parametrize("support", [None, 5])
def test_half_spectrum_kernel_estimate_adjoint(rng, w, support):
    inputs = [spectra(rng, C, H, w), spectra(rng, C, H, w)]
    assert_half_matches_chain(
        lambda z, y: unroll.kernel_estimate(z, y, 0.7, support, (H, w)),
        lambda z, y: composed.kernel_estimate(z, y, 0.7, support),
        inputs, rng.standard_normal((H, w)), (0, 1))


@widths
def test_half_spectrum_reconstruct_adjoint(rng, w):
    y_spec = spectra(rng, H, w)
    k_plane = rng.random((H, w))
    inputs = [k_plane / k_plane.sum(), rng.standard_normal((C, H, w)),
              spectra(rng, C, H, w), rng.uniform(0.5, 20.0, C)]
    assert_half_matches_chain(
        lambda *a: unroll.reconstruct(halve(y_spec), *a),
        lambda *a: composed.reconstruct(y_spec, *a),
        inputs, rng.standard_normal((H, w)), (2,))


def _impulse(h, w):
    out = np.zeros((h, w))
    out[0, 0] = 1.0
    return out


def test_kernel_estimate_fallback_has_zero_adjoint(rng):
    # all-zero features leave nothing to clamp, and a raw plane whose
    # positive mass lies outside the support window leaves nothing to
    # window: both projections fall back to the constant impulse
    eps = 0.5
    r = -np.ones((H, W))
    r[H // 2, W // 2] = 3.0  # outside the 5x5 window around the origin
    cases = [(np.zeros((C, H, W), complex), spectra(rng, C, H, W), None),
             (np.ones((1, H, W), complex), (1 + eps) * spectral.fft2(r)[None], 5)]
    for z, y, support in cases:
        plane, adjoints = vjp(
            lambda zz, yy: unroll.kernel_estimate(zz, yy, eps, support),
            [z, y], rng.standard_normal((H, W)))
        assert np.array_equal(plane, _impulse(H, W))
        for adj in adjoints:
            assert np.array_equal(adj, np.zeros_like(adj))


def _model(layers, channels, support=5, seed=0):
    params = init_params(TrainConfig(layers=layers, channels=channels,
                                     kernel_support=support, seed=seed))
    rng = np.random.default_rng(seed)
    params.b = rng.uniform(0.01, 0.05, (layers, channels))
    params.lam = rng.uniform(5e-4, 2e-3, (layers, channels))
    return params


def _loss(x_hat, k_plane, sharp, support):
    h, w = sharp.shape
    target = spectral.embed_kernel(np.ones((support, support)) / support ** 2,
                                   h, w)
    return loss_terms(x_hat, k_plane, sharp, target, 1e5)[0]


def fused_grads(blurred, sharp, params, restrict):
    """Gradients of the train loss through the fused forward."""
    _, _, _, state = unroll.forward(blurred, params, tape=ad.Tape(),
                                    restrict_support=restrict)
    return unroll.collect_gradients(
        _loss(state.x_hat, state.kernel_plane, sharp, params.kernel_support),
        state)


def composed_grads(blurred, sharp, params, restrict):
    """The same gradients through the composed forward."""
    x_hat, k_plane, leaves = composed.forward(blurred, params, ad.Tape(),
                                              restrict)
    loss = _loss(x_hat, k_plane, sharp, params.kernel_support)
    names = list(leaves)
    return dict(zip(names, ad.backward(loss, [leaves[n] for n in names])))


@pytest.mark.parametrize("restrict", [False, True])
def test_taped_forward_matches_composed_forward(rng, restrict):
    # the solver's half spectra against the chain's full ones, on odd and
    # even widths: the plain forward's values and every leaf gradient
    params = _model(3, 3)
    for h, w in ((16, 18), (13, 10), (9, 9), (12, 12), (10, 13)):
        blurred, sharp = rng.random((h, w)), rng.random((h, w))
        _, _, x_hat, state = unroll.forward(blurred, params,
                                            restrict_support=restrict)
        want_x, want_k, _ = composed.forward(blurred, params, ad.Tape(), restrict)
        assert rel_err(x_hat, ad.value(want_x)) <= TOL
        assert rel_err(state.kernel_plane, ad.value(want_k)) <= TOL
        fused = fused_grads(blurred, sharp, params, restrict)
        chain = composed_grads(blurred, sharp, params, restrict)
        assert set(fused) == set(chain) == set(unroll.TRAINABLE)
        for name in fused:
            assert rel_err(fused[name], chain[name]) <= TOL, (h, w, name)


def test_backward_twice_is_bitwise_equal(rng):
    params = _model(3, 3)
    blurred, sharp = rng.random((16, 16)), rng.random((16, 16))
    _, _, _, state = unroll.forward(blurred, params, tape=ad.Tape(),
                                    restrict_support=True)
    loss = _loss(state.x_hat, state.kernel_plane, sharp, 5)
    first = unroll.collect_gradients(loss, state)
    second = unroll.collect_gradients(loss, state)
    for name in first:
        assert np.array_equal(first[name], second[name])


# features at most this fraction of their stack's largest are rounding noise
ROUNDING_LEVEL = 1e-14


def aligned_composed_grads(blurred, sharp, params, restrict, features):
    """composed_grads with the last shrinkage fed the solver's rounding noise.

    Where the last layer's features are at rounding level, the chain takes
    the solver's values from features (its last (C, H, W) features), so
    both make the same sign and threshold decisions there; no value moves
    beyond rounding.
    """
    shrink, layers = composed.soft_threshold, [len(params.b)]

    def aligned_last(x, thresh):
        layers[0] -= 1
        if layers[0]:
            return shrink(x, thresh)
        vx = ad.value(x)
        noise = np.abs(vx) <= ROUNDING_LEVEL * np.max(np.abs(vx))
        return shrink(ad.record(np.where(noise, features, vx), (x,),
                                lambda g: (g,)), thresh)

    composed.soft_threshold = aligned_last
    try:
        return composed_grads(blurred, sharp, params, restrict)
    finally:
        composed.soft_threshold = shrink


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(h=st.integers(7, 16), w=st.integers(7, 16),
       channels=st.integers(1, 4), layers=st.integers(1, 3),
       zero_b=st.booleans(), zero_lam=st.booleans(),
       restrict=st.booleans(), seed=st.integers(0, 2 ** 16))
@example(h=9, w=14, channels=2, layers=2, zero_b=False, zero_lam=False,
         restrict=False, seed=0)
@example(h=15, w=15, channels=4, layers=3, zero_b=True, zero_lam=False,
         restrict=True, seed=1)
@example(h=15, w=15, channels=1, layers=1, zero_b=False, zero_lam=True,
         restrict=False, seed=2)
@example(h=9, w=14, channels=3, layers=2, zero_b=True, zero_lam=True,
         restrict=False, seed=3)
def test_taped_forward_gradients_match_oracle_or_raise_typed(
        h, w, channels, layers, zero_b, zero_lam, restrict, seed):
    params = _model(layers, channels, support=5, seed=seed)
    if zero_b:
        params.b[-1, 0] = 0.0  # b = 0: pure prior term, zero threshold
    if zero_lam:
        params.lam[0, -1] = 0.0  # lam = 0: pure data term
    rng = np.random.default_rng(seed)
    blurred, sharp = rng.random((h, w)), rng.random((h, w))
    try:
        fused = fused_grads(blurred, sharp, params, restrict)
    except DeblurError as exc:
        with pytest.raises(type(exc)):
            composed_grads(blurred, sharp, params, restrict)
        return
    chain = composed_grads(blurred, sharp, params, restrict)
    # where a shrinkage left exact zeros, the next layer's features come
    # back from the FFT round trip at +-1e-17; a zero threshold passes them
    # with signs that rounding alone decides, and the solver's half
    # transforms (and windowed projection) round unlike the chain's full
    # ones. Only that one entry of b is exempt, and only when the chain
    # matches it once it takes the solver's noise there.
    exempt = np.zeros(params.b.shape, bool)
    exempt[-1, 0] = zero_b
    for name in fused:
        assert np.all(np.isfinite(fused[name])), name
        keep = ~exempt if name == "b" else Ellipsis
        assert rel_err(fused[name][keep], chain[name][keep]) <= 1e-10, name
    if rel_err(fused["b"][exempt], chain["b"][exempt]) > 1e-10:
        features = unroll.forward(blurred, params, tape=ad.Tape(),
                                  restrict_support=restrict)[1]
        aligned = aligned_composed_grads(blurred, sharp, params, restrict,
                                         features)
        assert rel_err(fused["b"], aligned["b"]) <= 1e-10
