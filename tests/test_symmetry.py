"""Symmetries of the solver: circular shifts and transposes.

Blur is circular, so shifting the blurred image circularly shifts the
features and the reconstruction and leaves the kernel estimate alone.
Transposing the image and every filter transposes the features, the
kernel and the reconstruction; the Prewitt pair of the preset swaps its
two channels, since PREWITT_Y is PREWITT_X transposed. Through the loss
the same transpose leaves the gradients of b, lam and eta alone and
transposes those of the filters. The transformed planes take other
rounding (an odd width's half spectrum becomes an odd height's), so each
row is held to 1e-12 relative.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unrolled_deblur import kernelgen, training, unroll
from unrolled_deblur.training import TrainConfig, init_params

BOUND = 1e-12
SHAPES = [(24, 35), (64, 64)]


def _trained(layers=3, channels=4, support=7):
    """A trained layout whose every layer keeps features."""
    params = init_params(TrainConfig(layers=layers, channels=channels,
                                     kernel_support=support, seed=5))
    params.b[:] = 0.02
    params.lam[:] = 1e-3
    return params


def _preset():
    return unroll.tv_prewitt_params(layers=6, kernel_support=7)


MODELS = {"trained": _trained, "preset": _preset}


def _transposed(params):
    """The model with every filter transposed; the preset's own transposed
    pair is its two channels swapped, so it stays as it is."""
    if params.fixed_bank is not None:
        return params
    return unroll.ModelParams(
        b=params.b, lam=params.lam, eta=params.eta,
        w_top=params.w_top.swapaxes(-1, -2), w_mix=params.w_mix.swapaxes(-1, -2),
        eps=params.eps, kernel_support=params.kernel_support)


def _channels(params, g):
    """Features of the transposed model in the original's channel order."""
    return g[::-1] if params.fixed_bank is not None else g


def _close(got, want, what):
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= BOUND, "%s: %.2e" % (what, err)


def _image(shape):
    return np.random.default_rng([17, *shape]).random(shape)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(dy=st.integers(0, 63), dx=st.integers(0, 63))
def test_forward_commutes_with_a_circular_shift(model, shape, dy, dx):
    params, y = MODELS[model](), _image(shape)
    kernel, g, x_hat, _ = unroll.forward(y, params)
    assert np.max(np.abs(kernel)) < 1.0  # an estimate, not the impulse
    got = unroll.forward(np.roll(y, (dy, dx), axis=(0, 1)), params)
    _close(got[0], kernel, "kernel")
    _close(got[1], np.roll(g, (dy, dx), axis=(1, 2)), "features")
    _close(got[2], np.roll(x_hat, (dy, dx), axis=(0, 1)), "image")


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("shape", SHAPES)
def test_forward_commutes_with_a_transpose(model, shape):
    params, y = MODELS[model](), _image(shape)
    kernel, g, x_hat, _ = unroll.forward(y, params)
    got = unroll.forward(y.T, _transposed(params))
    _close(got[0], kernel.T, "kernel")
    _close(_channels(params, got[1]), g.swapaxes(-1, -2), "features")
    _close(got[2], x_hat.T, "image")


def _gradients(params, blurred, sharp, kernel):
    record = kernelgen.DatasetRecord(blurred_path="mem", blurred=blurred,
                                     sharp=sharp, kernel=kernel)
    return training._record_loss(record, params, 1e5)[3]


def test_gradients_commute_with_a_transpose():
    params = _trained()
    rng = np.random.default_rng(23)
    sharp, blurred = rng.random((2, *SHAPES[0]))
    kernel = rng.random((7, 7))
    kernel /= kernel.sum()
    want = _gradients(params, blurred, sharp, kernel)
    got = _gradients(_transposed(params), blurred.T, sharp.T, kernel.T)
    for name in ("b", "lam", "eta"):
        _close(got[name], want[name], name)
    for name in ("w_top", "w_mix"):
        _close(got[name], want[name].swapaxes(-1, -2), name)
