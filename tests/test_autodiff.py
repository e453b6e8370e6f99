"""Tape-based reverse-mode differentiation.

Every primitive gets a central-difference check: the generic ones the
program records (autodiff) and the ones the gradient oracles in
composed.py are built from. The loss functions below are written against
the primitive API, which computes on plain arrays when nothing is tracked,
so the same callable drives both the tape gradient and the
finite-difference reference.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.fft
from scipy import signal

import composed
from unrolled_deblur import autodiff as ad
from unrolled_deblur import spectral
from unrolled_deblur.errors import DimensionMismatch, ReleasedValue, UnrecordedNode


def fd_grad(fn, x, h=1e-5):
    """Central differences of a scalar-valued fn at every coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (float(ad.value(fn(xp))) - float(ad.value(fn(xm)))) / (2 * h)
        it.iternext()
    return g


def tape_grad(fn, x):
    tape = ad.Tape()
    v = ad.leaf(tape, x)
    loss = fn(v)
    return ad.backward(loss, [v])[0]


def check(fn, x, tol=1e-6):
    got = tape_grad(fn, x)
    ref = fd_grad(fn, x)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(ref)), 1e-8)
    rel = np.max(np.abs(got - ref) / denom)
    assert rel < tol, "max relative error %.3e" % rel


# ---------------------------------------------------------------------------
# elementwise algebra


def test_add_sub_mul_div(rng):
    x = rng.standard_normal((4, 4))
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 3.0  # keep divisors away from zero

    check(lambda v: ad.mse(composed.add(v, a), b), x)
    check(lambda v: ad.mse(composed.add(a, composed.mul(v, -1.0)), b), x)  # a - v
    check(lambda v: ad.mse(composed.mul(v, a), b), x)
    check(lambda v: ad.mse(composed.div(v, b), a), x)
    check(lambda v: ad.mse(composed.div(a, composed.add(v, 4.0)), b), x + 1.0)


def test_broadcast_scalar_operand(rng):
    x = rng.standard_normal((4, 4))
    t = rng.standard_normal((4, 4))

    def loss(s):
        return ad.mse(composed.mul(x, s), t)

    got = tape_grad(loss, np.asarray(2.0))
    ref = fd_grad(loss, np.asarray(2.0))
    assert abs(got - ref) / max(abs(ref), 1e-8) < 1e-6
    assert got.shape == ()


def test_scalar_square_gradient():
    tape = ad.Tape()
    p = ad.leaf(tape, 3.0)
    loss = composed.mul(p, p)
    (g,) = ad.backward(loss, [p])
    assert g == 6.0


# ---------------------------------------------------------------------------
# transforms and complex algebra


def test_dft_roundtrip_gradient_is_analytic(rng):
    # ifft2(fft2(x)) == x, so grad of mse against t is 2 (x - t) / size
    x = rng.standard_normal((6, 5))
    t = rng.standard_normal((6, 5))
    g = tape_grad(lambda v: ad.mse(composed.ifft2(composed.fft2(v)), t), x)
    assert np.max(np.abs(g - 2.0 * (x - t) / x.size)) < 1e-12


@pytest.mark.parametrize("h, w", [(6, 5), (5, 8), (7, 7), (4, 2), (3, 1)])
def test_half_transform_adjoints_satisfy_the_inner_product_identity(rng, h, w):
    # <rfft2 x, g> = <x, dft_adjoint(g)> and <irfft2 y, x> = <y, idft_adjoint(x)>
    # in the Euclidean inner product of half arrays, for any half g and y,
    # whether or not their columns 0 and W/2 are Hermitian
    x = rng.standard_normal((2, h, w))
    g, y = (rng.standard_normal((2, 2, h, w // 2 + 1))
            + 1j * rng.standard_normal((2, 2, h, w // 2 + 1)))
    pairs = [(np.sum(np.conj(g) * scipy.fft.rfft2(x)).real,
              np.sum(x * ad.dft_adjoint(g, (h, w)))),
             (np.sum(scipy.fft.irfft2(y, s=(h, w)) * x),
              np.sum(np.conj(y) * ad.idft_adjoint(x, (h, w))).real)]
    # and on size x size windows of planes that are zero elsewhere
    for size in range(1, min(h, w) + 1, 2):
        xw = spectral.wrap_window(x, size)
        yw = spectral.wrap_window(scipy.fft.irfft2(y, s=(h, w)), size)
        pairs += [(np.sum(np.conj(g) * spectral.window_rfft2(xw, (h, w))).real,
                   np.sum(xw * ad.dft_adjoint(g, (h, w), size))),
                  (np.sum(yw * xw),
                   np.sum(np.conj(y) * ad.idft_adjoint(xw, (h, w), size)).real)]
    for lhs, rhs in pairs:
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_half_spectrum_magnitude_gradient(rng):
    x = rng.standard_normal((6, 7)) + 2.0

    def loss(v):
        return ad.mse(composed.abs2(ad.rfft2(v)), np.zeros((6, 4)))

    check(loss, x, tol=1e-5)


def test_spectrum_magnitude_gradient(rng):
    x = rng.standard_normal((4, 4)) + 2.0  # keep |X| away from zero

    def loss(v):
        return ad.mse(composed.abs2(composed.fft2(v)), np.zeros((4, 4)))

    check(loss, x, tol=1e-5)


def test_complex_product_gradient(rng):
    x = rng.standard_normal((4, 4))
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def loss(v):
        # the complex offset d makes the result depend on the conjugation
        spec = composed.add(composed.conj(composed.mul(composed.fft2(v), c)), d)
        return ad.mse(composed.abs2(spec), np.zeros((4, 4)))

    check(loss, x)


def test_complex_quotient_gradient(rng):
    x = rng.standard_normal((4, 4))
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3.0

    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def loss(v):
        quotient = composed.add(composed.div(composed.fft2(v), d), c)
        return ad.mse(composed.abs2(quotient), np.zeros((4, 4)))

    check(loss, x)


# ---------------------------------------------------------------------------
# kinked primitives, probed away from their kinks


def test_soft_threshold_gradient_wrt_input(rng):
    x = np.array([[1.3, -2.0], [0.9, -1.6]])  # all |x| - 0.5 > 0.1
    check(lambda v: ad.mse(composed.soft_threshold(v, 0.5), np.zeros((2, 2))), x)


def test_soft_threshold_gradient_wrt_threshold():
    x = np.array([[1.3, -2.0], [0.9, -1.6]])

    def loss(t):
        return ad.mse(composed.soft_threshold(x, t), np.zeros((2, 2)))

    got = tape_grad(loss, np.asarray(0.5))
    ref = fd_grad(loss, np.asarray(0.5))
    assert abs(got - ref) / max(abs(ref), 1e-8) < 1e-6


def test_soft_threshold_dead_zone():
    # inside the dead zone both output and gradient vanish
    x = np.array([[0.2, -0.3]])
    tape = ad.Tape()
    v = ad.leaf(tape, x)
    out = composed.soft_threshold(v, 0.5)
    assert np.array_equal(out.value, np.zeros((1, 2)))
    loss = ad.mse(out, np.ones((1, 2)))
    g = ad.backward(loss, [v])[0]
    assert np.array_equal(g, np.zeros((1, 2)))


def test_soft_threshold_zero_subgradient_at_kink():
    tape = ad.Tape()
    v = ad.leaf(tape, np.array([[0.5]]))
    loss = ad.mse(composed.soft_threshold(v, 0.5), np.ones((1, 1)))
    g = ad.backward(loss, [v])[0]
    assert g[0, 0] == 0.0


def test_relu_gradient(rng):
    x = np.array([[0.7, -0.8], [1.2, -0.1]])
    check(lambda v: ad.mse(composed.relu(v), np.ones((2, 2))), x)


def test_relu_zero_subgradient_at_kink():
    tape = ad.Tape()
    v = ad.leaf(tape, np.array([[0.0]]))
    loss = ad.mse(composed.relu(v), np.ones((1, 1)))
    g = ad.backward(loss, [v])[0]
    assert g[0, 0] == 0.0


def test_l1_normalize_gradient(rng):
    x = np.array([[0.8, -0.5], [1.1, 0.4]])
    t = np.array([[0.3, 0.1], [0.2, 0.4]])
    check(lambda v: ad.mse(composed.l1_normalize(v), t), x)


def test_l1_normalize_output_sums_to_one(rng):
    x = rng.standard_normal((5, 5))
    out = composed.l1_normalize(x)
    assert abs(np.sum(np.abs(out)) - 1.0) < 1e-12


def test_l1_normalize_zero_plane_fallback():
    out = composed.l1_normalize(np.zeros((4, 4)))
    assert out[0, 0] == 1.0
    assert out.sum() == 1.0


# ---------------------------------------------------------------------------
# structural primitives


def test_embed_window_gradients(rng):
    k = rng.standard_normal((3, 3))
    t = rng.standard_normal((3, 3))

    def loss(v):
        plane = composed.embed_plane(v, 8, 8)
        return ad.mse(composed.origin_window(plane, 3), t)

    check(loss, k)


def test_stacked_embed_and_channel_sum_gradients(rng):
    bank = rng.standard_normal((3, 3, 3))
    t = rng.standard_normal((6, 5))
    check(lambda v: ad.mse(composed.channel_sum(composed.embed_plane(v, 6, 5)), t), bank)
    stack = rng.standard_normal((3, 6, 5))
    check(lambda v: ad.mse(composed.channel_sum(composed.mul(v, v)), t), stack)
    assert np.array_equal(composed.channel_sum(stack), stack[0] + stack[1] + stack[2])


def test_origin_window_gradient_on_plane(rng):
    plane = rng.standard_normal((8, 8))
    t = rng.standard_normal((5, 5))
    check(lambda v: ad.mse(composed.origin_window(v, 5), t), plane)


# square and non-square filter pairs
CONV_SHAPES = (((3, 3), (3, 3)), ((2, 5), (3, 1)), ((4, 3), (2, 6)), ((1, 4), (5, 2)))


def test_conv_full_gradients(rng):
    for sa, sb in CONV_SHAPES:
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        t = rng.standard_normal((sa[0] + sb[0] - 1, sa[1] + sb[1] - 1))

        check(lambda v: ad.mse(ad.conv_full(v, b), t), a)
        check(lambda v: ad.mse(ad.conv_full(a, v), t), b)


def test_conv_full_matches_scipy_signal(rng):
    # scipy.signal stays the oracle for the value and both adjoints
    for sa, sb in CONV_SHAPES:
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        want = signal.convolve2d(a, b, mode="full")
        assert np.max(np.abs(ad.conv_full(a, b) - want)) < 1e-13
        tape = ad.Tape()
        node = ad.conv_full(ad.leaf(tape, a), ad.leaf(tape, b))
        g = rng.standard_normal(want.shape)
        ga, gb = node.pull(g)
        assert ga.shape == sa and gb.shape == sb
        assert np.max(np.abs(ga - signal.correlate2d(g, b, mode="valid"))) < 1e-13
        assert np.max(np.abs(gb - signal.correlate2d(g, a, mode="valid"))) < 1e-13


def test_cascade_matches_summed_conv_full(rng):
    mix = rng.standard_normal((3, 2, 3, 3))
    above = rng.standard_normal((2, 5, 5))
    out = ad.cascade(mix, above)
    assert out.shape == (3, 7, 7)
    for i in range(3):
        want = ad.conv_full(mix[i, 0], above[0]) + ad.conv_full(mix[i, 1], above[1])
        assert np.max(np.abs(out[i] - want)) < 1e-13


def test_cascade_gradients(rng):
    mix = rng.standard_normal((3, 2, 3, 3))
    above = rng.standard_normal((2, 5, 5))
    t = rng.standard_normal((3, 7, 7))

    check(lambda v: ad.mse(ad.cascade(v, above), t), mix)
    check(lambda v: ad.mse(ad.cascade(mix, v), t), above)
    # both inputs tracked at once, as in a cascade of two generations
    tape = ad.Tape()
    vm, va = ad.leaf(tape, mix), ad.leaf(tape, above)
    gm, ga = ad.backward(ad.mse(ad.cascade(vm, va), t), [vm, va])
    assert np.array_equal(gm, tape_grad(lambda v: ad.mse(ad.cascade(v, above), t), mix))
    assert np.array_equal(ga, tape_grad(lambda v: ad.mse(ad.cascade(mix, v), t), above))


def test_take_gradient_scatters_into_zeros(rng):
    x = rng.standard_normal((3, 4, 4))
    t = rng.standard_normal((4, 4))
    check(lambda v: ad.mse(ad.take(v, 1), t), x)
    g = tape_grad(lambda v: ad.mse(ad.take(v, 1), t), x)
    assert np.all(g[0] == 0.0) and np.all(g[2] == 0.0)
    bank = [x[0], x[1]]
    assert ad.take(bank, 1) is bank[1]


def test_take_slice_feeding_two_nodes_accumulates(rng):
    # one take node with two consumers, as b[l] feeds g_update and
    # z_spectrum: its adjoint sums both, and every entry outside the slice
    # gets exactly zero
    x = rng.uniform(0.5, 1.5, (3, 4))
    a = rng.standard_normal((4, 5, 5))
    t = rng.standard_normal((4, 5, 5))

    def loss(v):
        s = ad.take(v, (1, slice(None), None, None))
        return composed.add(ad.mse(composed.mul(s, a), t),
                            ad.mse(composed.div(a, s), t))

    check(loss, x)
    g = tape_grad(loss, x)
    assert np.all(g[0] == 0.0) and np.all(g[2] == 0.0)
    assert np.all(g[1] != 0.0)


def test_mse_gradient_and_shape_check(rng):
    x = rng.standard_normal((4, 4))
    t = rng.standard_normal((4, 4))
    g = tape_grad(lambda v: ad.mse(v, t), x)
    assert np.max(np.abs(g - 2.0 * (x - t) / 16)) < 1e-12
    with pytest.raises(DimensionMismatch):
        ad.mse(x, np.zeros((2, 2)))


def test_mse_against_self_gives_zero_gradient(rng):
    x = rng.standard_normal((4, 4))
    g = tape_grad(lambda v: ad.mse(v, x), x)
    assert np.array_equal(g, np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# sweep mechanics


def test_backward_is_idempotent(rng):
    x = rng.standard_normal((4, 4))
    tape = ad.Tape()
    v = ad.leaf(tape, x)
    loss = ad.mse(composed.abs2(composed.fft2(v)), np.ones((4, 4)))
    g1 = ad.backward(loss, [v])[0]
    g2 = ad.backward(loss, [v])[0]
    assert np.array_equal(g1, g2)


def test_backward_unused_leaf_gets_zeros(rng):
    tape = ad.Tape()
    v = ad.leaf(tape, rng.standard_normal((3, 3)))
    unused = ad.leaf(tape, rng.standard_normal((2, 2)))
    loss = ad.mse(v, np.zeros((3, 3)))
    gv, gu = ad.backward(loss, [v, unused])
    assert gv.shape == (3, 3)
    assert np.array_equal(gu, np.zeros((2, 2)))


def test_backward_rejects_plain_value():
    with pytest.raises(UnrecordedNode):
        ad.backward(np.asarray(1.0), [])


def test_backward_rejects_non_scalar_loss(rng):
    tape = ad.Tape()
    v = ad.leaf(tape, rng.standard_normal((3, 3)))
    out = composed.mul(v, 2.0)
    with pytest.raises(DimensionMismatch):
        ad.backward(out, [v])


def test_fanout_accumulates(rng):
    # v feeds the loss twice; adjoints must sum
    x = rng.standard_normal((3, 3))

    def loss(v):
        return ad.mse(composed.add(composed.mul(v, 2.0), composed.mul(v, v)), np.zeros((3, 3)))

    check(loss, x)


@pytest.mark.parametrize("writeable", [True, False])
def test_backward_sums_into_the_first_adjoint(rng, writeable):
    # the adjoints a pull returns are backward's: a second adjoint of the
    # same node is added into the first one's buffer, unless that buffer is
    # read-only, and the sum is the same either way
    x = rng.standard_normal((3, 3))
    first, second = rng.standard_normal((2, 3, 3))
    kept = first.copy()
    first.flags.writeable = writeable
    tape = ad.Tape()
    v = ad.leaf(tape, x)
    early = ad.record(x, (v,), lambda g: (second.copy(),))
    late = ad.record(x, (v,), lambda g: (first,))  # pulled first
    loss = ad.record(np.asarray(0.0), (early, late),
                     lambda g: (np.ones((3, 3)), np.ones((3, 3))))
    got = ad.backward(loss, [v])[0]
    assert np.array_equal(got, kept + second)
    assert np.shares_memory(got, first) == writeable
    assert np.array_equal(first, kept + second if writeable else kept)


def test_released_node_keeps_its_place_but_not_its_value(rng):
    # release drops a node's value: reading it raises the typed error,
    # while backward, which reads only its dtype and shape (here to drop the
    # imaginary part of a real node's adjoint), gives the bits of the graph
    # that kept it, sweep after sweep; a plain array is left as it is
    x = rng.standard_normal((3, 4))

    def graph(released):
        tape = ad.Tape()
        v = ad.leaf(tape, x)
        real = composed.mul(v, 2.0)
        loss = ad.mse(composed.abs2(composed.mul(real, 1.0 + 2.0j)), np.zeros((3, 4)))
        if released:
            ad.release(real)
        return real, loss, v

    real, loss, v = graph(released=True)
    for read in (lambda: ad.value(real), lambda: np.asarray(real.value)):
        with pytest.raises(ReleasedValue):
            read()
    assert real.shape == (3, 4)
    kept = graph(released=False)
    want = ad.backward(kept[1], [kept[2]])[0]
    for _ in range(2):
        assert np.array_equal(ad.backward(loss, [v])[0], want)
    plain = rng.standard_normal(3)
    ad.release(plain)
    assert ad.value(plain) is plain


def test_released_node_is_remade_once_per_sweep_for_its_readers(rng):
    # a node released with a remake gives its readers' pulls (ad.read) its
    # value again: remade by the first pull that reads it in a sweep, held
    # for the second, and dropped when backward reaches the node itself, so
    # each sweep remakes it once, gives the kept graph's bits and leaves no
    # remade value behind; one released without a remake raises
    # ReleasedValue when a pull reads it
    x, w = rng.standard_normal((2, 3, 4))
    made, at_own_pull = [], []

    def graph(release, remake=None):
        tape = ad.Tape()
        v = ad.leaf(tape, x)
        u = ad.record(w * x, (v,), lambda g: (
            at_own_pull.append(getattr(u.value, "remade", None)) or g * w,))
        square = ad.record(u.value * u.value, (u,),
                           lambda g: (2.0 * g * ad.read(u),))
        cube = ad.record(u.value ** 3, (u,),
                         lambda g: (3.0 * g * ad.read(u) ** 2,))
        loss = ad.record(np.sum(square.value + cube.value), (square, cube),
                         lambda g: (np.full((3, 4), g), np.full((3, 4), g)))
        if release:
            ad.release(u, remake)
        return u, loss, v

    kept = graph(release=False)
    want = ad.backward(kept[1], [kept[2]])[0]

    def remake():
        made.append(1)
        return w * x

    u, loss, v = graph(release=True, remake=remake)
    for sweep in (1, 2):
        assert np.array_equal(ad.backward(loss, [v])[0], want)
        assert len(made) == sweep and u.value.remade is None
    assert len(at_own_pull) == 3 and all(r is None for r in at_own_pull)
    with pytest.raises(ReleasedValue):
        ad.value(u)
    u, loss, v = graph(release=True)
    with pytest.raises(ReleasedValue):
        ad.read(u)
    with pytest.raises(ReleasedValue):
        ad.backward(loss, [v])


def test_untracked_inputs_compute_plain_arrays(rng):
    x = rng.standard_normal((4, 4))
    out = composed.ifft2(composed.mul(composed.fft2(x), 1.0))
    assert isinstance(out, np.ndarray)
    assert np.max(np.abs(out - x)) < 1e-12


def test_recorded_graph_is_freed_without_the_cycle_collector(rng):
    gc.disable()
    try:
        tape = ad.Tape()
        x = ad.leaf(tape, rng.standard_normal((4, 4)))
        spec = composed.fft2(x)
        loss = ad.mse(composed.abs2(composed.mul(spec, 2.0)), np.zeros((4, 4)))
        ad.backward(loss, [x])
        probe = weakref.ref(spec.value)
        del tape, x, spec, loss
        assert probe() is None
    finally:
        gc.enable()
