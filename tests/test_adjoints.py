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

The solver carries half spectra, and the chains full ones. Every node
test feeds the node the half of the chain's spectra, at an odd and an even
width; the adjoint of a spectral input compares as the chain's times 2 on
the doubled columns, to the same 1e-12 bound. The whole forward compares
as is, because its leaves and outputs are real.
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


def test_z_spectrum_adjoint(rng):
    # the node gives half spectra only
    for w in (W, W - 1):
        g = rng.standard_normal((C, H, w))
        b = rng.uniform(0.2, 0.8, (C, 1, 1))
        assert_half_matches_chain(unroll.z_spectrum, composed.z_spectrum, [g, b],
                                  spectra(rng, C, H, w), ())


@widths
def test_half_spectrum_g_update_adjoint(rng, w):
    inputs = [spectra(rng, C, H, w), spectra(rng, C, H, w), spectra(rng, H, w),
              rng.uniform(0.1, 2.0, (C, 1, 1)), rng.uniform(0.05, 1.0, (C, 1, 1))]
    assert_half_matches_chain(
        lambda *a: unroll.g_update(*a, shape=(H, w)), composed.g_update, inputs,
        rng.standard_normal((C, H, w)), (0, 1, 2))


def embedded(kernel, support, shape):
    """A kernel_estimate node's plane: its window embedded if restricted."""
    return kernel if support is None else ad.embed(kernel, shape)


@widths
@pytest.mark.parametrize("support", [None, 5])
def test_half_spectrum_kernel_estimate_adjoint(rng, w, support):
    inputs = [spectra(rng, C, H, w), spectra(rng, C, H, w)]
    raw = unroll.k_update(*map(halve, inputs), 0.7, (H, w))
    assert np.any(raw > 0) and np.any(raw < 0)  # both sides of the clamp
    # the restricted node returns the support window, which the chain's
    # plane holds embedded
    assert_half_matches_chain(
        lambda z, y: embedded(unroll.kernel_estimate(z, y, 0.7, support, (H, w)),
                              support, (H, w)),
        lambda z, y: composed.kernel_estimate(z, y, 0.7, support),
        inputs, rng.standard_normal((H, w)), (0, 1))


@widths
def test_half_spectrum_reconstruct_adjoint(rng, w):
    y_spec = spectra(rng, H, w)
    k_plane = rng.random((H, w))
    inputs = [k_plane / k_plane.sum(), rng.standard_normal((C, H, w)),
              spectra(rng, C, H, w), rng.uniform(0.5, 20.0, C)]
    assert_half_matches_chain(
        lambda k, *a: unroll.reconstruct(halve(y_spec), ad.rfft2(k), *a, (H, w)),
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
    cases = [(np.zeros((C, H, W // 2 + 1), complex), halve(spectra(rng, C, H, W)),
              None),
             (np.ones((1, H, W // 2 + 1), complex),
              (1 + eps) * spectral.rfft2(r)[None], 5)]
    for z, y, support in cases:
        plane, adjoints = vjp(
            lambda zz, yy: embedded(
                unroll.kernel_estimate(zz, yy, eps, support, (H, W)), support, (H, W)),
            [z, y], rng.standard_normal((H, W)))
        assert np.array_equal(plane, _impulse(H, W))
        for adj in adjoints:
            assert np.array_equal(adj, np.zeros_like(adj))


def test_kernel_estimate_fallback_pull_stops_at_the_projection(rng, monkeypatch):
    # once the projection is known to have fallen back, the pull returns
    # zeros of the input shapes without transforming the projection's
    # adjoint or taking the term's adjoints over the channel stacks
    def unreachable(*args):
        raise AssertionError("transform after the fallback")

    monkeypatch.setattr(ad, "idft_adjoint", unreachable)
    z, y = np.zeros((C, H, W // 2 + 1), complex), halve(spectra(rng, C, H, W))
    tape = ad.Tape()
    node = unroll.kernel_estimate(ad.Var(z, tape), ad.Var(y, tape), 0.5, None, (H, W))
    gz, gy = node.pull(rng.standard_normal((H, W)))
    assert gz.shape == z.shape and gy.shape == y.shape
    assert not np.any(gz) and not np.any(gy)


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


def _pull_cases(rng, w):
    """(name, node builder, inputs) for every node the solver records."""
    shape = (H, w)
    bank = rng.standard_normal((C, 5, 5))
    f_spec = _read_only(spectral.rfft2(spectral.embed_kernels(bank, H, w)))
    y_spec = _read_only(halve(spectra(rng, H, w)))
    stack = [halve(spectra(rng, C, H, w)) for _ in range(2)]
    k_spec = halve(spectra(rng, H, w))
    b, lam = rng.uniform(0.1, 2.0, (C, 1, 1)), rng.uniform(0.05, 1.0, (C, 1, 1))
    return [
        ("filter_spectra", lambda f: unroll.filter_spectra(f, f_spec, shape, y_spec),
         [bank]),
        ("filter_spectra without y", lambda f: unroll.filter_spectra(f, f_spec, shape),
         [bank]),
        ("g_update", lambda *a: unroll.g_update(*a, shape=shape),
         [stack[0], stack[1], k_spec, b, lam]),
        ("g_update at Z = 0", lambda y, k, bb, ll: unroll.g_update(y, 0.0, k, bb, ll, shape),
         [stack[0], k_spec, b, lam]),
        ("z_spectrum", unroll.z_spectrum,
         [rng.standard_normal((C, H, w)), rng.uniform(0.2, 0.8, (C, 1, 1))]),
        ("kernel_estimate", lambda z, y: unroll.kernel_estimate(z, y, 0.7, None, shape),
         stack),
        ("kernel_estimate restricted",
         lambda z, y: unroll.kernel_estimate(z, y, 0.7, 5, shape), stack),
        ("rfft2 of windows", lambda k: ad.rfft2(k, shape), [rng.random((5, 5))]),
        ("embed", lambda k: ad.embed(k, shape), [rng.random((5, 5))]),
        ("reconstruct", lambda *a: unroll.reconstruct(y_spec, *a, shape),
         [k_spec, rng.standard_normal((C, H, w)), f_spec, rng.uniform(0.5, 20.0, C)]),
        ("rfft2", ad.rfft2, [rng.standard_normal((C, H, w))]),
    ]


@widths
def test_pulls_never_write_into_what_they_were_given(rng, w):
    # a node's adjoint may be another node's input or a sum that backward
    # still holds, and forward shares its spectra read-only: so each pull
    # runs on read-only adjoints over read-only inputs, and changes neither
    for name, build, inputs in _pull_cases(rng, w):
        inputs = [_read_only(x) for x in inputs]
        kept = [x.copy() for x in inputs]
        tape = ad.Tape()
        node = build(*[ad.Var(x, tape) for x in inputs])
        out = node.value
        seed = rng.standard_normal(out.shape)
        if np.iscomplexobj(out):
            seed = seed + 1j * rng.standard_normal(out.shape)
        seed = _read_only(seed)
        before = seed.copy()
        adjoints = node.pull(seed)
        assert np.array_equal(seed, before), name
        for x, k in zip(inputs, kept):
            assert np.array_equal(x, k), name
        for x, pos in zip(inputs, node.routes):
            assert np.shape(adjoints[pos]) == x.shape, name
            assert np.all(np.isfinite(adjoints[pos])), name


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
    with composed.kernel_form(restrict):
        _, _, _, state = unroll.forward(blurred, params, tape=ad.Tape())
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


@pytest.mark.parametrize("restrict, model", [
    (False, "alive"), (True, "alive"), (False, "default"), (True, "default")],
    ids=["False", "True", "False-default", "True-default"])
def test_taped_forward_matches_composed_forward(rng, restrict, model):
    # the solver's half spectra against the chain's full ones, on odd and
    # even widths: the plain forward's values and every leaf gradient. At
    # the default init (b = 1, lam = 0; criterion 7's layout scaled down)
    # no layer keeps a feature, so the solver records no Z or kernel node
    # while the chain records every layer
    if model == "alive":
        params = _model(3, 3)
    else:
        params = init_params(TrainConfig(layers=3, channels=4, kernel_support=5))
    for h, w in ((16, 18), (13, 10), (9, 9), (12, 12), (10, 13)):
        blurred, sharp = rng.random((h, w)), rng.random((h, w))
        with composed.kernel_form(restrict):
            _, _, x_hat, state = unroll.forward(blurred, params)
        want_x, want_k, _ = composed.forward(blurred, params, ad.Tape(), restrict)
        assert rel_err(x_hat, ad.value(want_x)) <= TOL
        assert rel_err(state.kernel_plane, ad.value(want_k)) <= TOL
        fused = fused_grads(blurred, sharp, params, restrict)
        chain = composed_grads(blurred, sharp, params, restrict)
        assert set(fused) == set(chain) == set(unroll.TRAINABLE)
        if model == "default":
            impulse = unroll.k_project(np.zeros(np.shape(state.kernel_planes[0])),
                                       params.kernel_support if restrict else None)
            assert all(np.array_equal(k, impulse) for k in state.kernel_planes)
            # the layers whose g reaches no loss, all but the last
            for name in ("b", "lam"):
                assert not np.any(fused[name][:-1]), (h, w, name)
            # x_hat is Y whatever the filters and eta, so only lam[-1] has a
            # gradient above rounding: the arrays compare as one vector
            fused, chain = ({"all": np.concatenate([g[n].ravel()
                                                    for n in unroll.TRAINABLE])}
                            for g in (fused, chain))
        for name in fused:
            assert rel_err(fused[name], chain[name]) <= TOL, (h, w, name)


def test_backward_twice_is_bitwise_equal(rng):
    params = _model(3, 3)
    blurred, sharp = rng.random((16, 16)), rng.random((16, 16))
    with composed.kernel_form(True):
        _, _, _, state = unroll.forward(blurred, params, tape=ad.Tape())
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
        with composed.kernel_form(restrict):
            features = unroll.forward(blurred, params, tape=ad.Tape())[1]
        aligned = aligned_composed_grads(blurred, sharp, params, restrict,
                                         features)
        assert rel_err(fused["b"], aligned["b"]) <= 1e-10


def test_pinned_zero_threshold_case_needs_the_exemption():
    # the pinned unrestricted example above (9x14, C=3, L=2, zero b and lam,
    # seed 3): the plain chain misses b[-1, 0], because its full transforms
    # round the features a zero threshold passes unlike the solver's half
    # ones; fed the solver's noise there, the chain matches the whole of b
    params = _model(2, 3, support=5, seed=3)
    params.b[-1, 0] = 0.0
    params.lam[0, -1] = 0.0
    rng = np.random.default_rng(3)
    blurred, sharp = rng.random((9, 14)), rng.random((9, 14))
    fused = fused_grads(blurred, sharp, params, False)
    chain = composed_grads(blurred, sharp, params, False)
    assert rel_err(fused["b"][-1, 0], chain["b"][-1, 0]) > 1e-10
    features = unroll.forward(blurred, params, tape=ad.Tape())[1]
    aligned = aligned_composed_grads(blurred, sharp, params, False, features)
    assert rel_err(fused["b"][-1, 0], aligned["b"][-1, 0]) <= 1e-10
    assert rel_err(fused["b"], aligned["b"]) <= 1e-10
