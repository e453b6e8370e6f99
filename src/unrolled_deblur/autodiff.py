"""Reverse-mode differentiation on an explicit tape of array primitives.

The unrolled solver is built from a small, closed set of primitives: the
two DFTs, elementwise complex algebra, the sum over channels,
soft-thresholding, clamping, the l1 projection, origin embedding/windowing,
basic indexing, full convolution of small filters and its batched form for
one filter-cascade generation, and mean-squared losses. DFTs and embedding
act on the last two axes, so a (C, H, W) stack is one node. Each primitive
computes directly on numpy arrays when no input is tracked, and records
itself on a Tape when any input is a Var, so the same forward code serves
inference and training. Creation order
on the tape is topological by construction, so backward() is one sweep over
the nodes reachable from the loss in reverse creation order. Nodes point to
their parents and never the other way round, so a recorded graph holds no
reference cycle and is freed as soon as its last Var is dropped.

Adjoint conventions, for a real-valued loss L:

* a real node with value x carries dL/dx;
* a complex node u = a + ib carries dL/da + i dL/db, so a holomorphic map
  with complex derivative D pulls back as g -> g * conj(D);
* the adjoint of the unnormalized forward DFT is the unnormalized inverse
  (numpy ifft2 scaled by H*W), and the adjoint of the normalized inverse is
  the forward DFT scaled by 1/(H*W);
* an adjoint flowing into a real-valued node drops its imaginary part;
* the kinked primitives (soft_threshold, relu, l1_normalize) take the zero
  subgradient exactly at their kinks.

Values and adjoints are kept in float64/complex128 throughout; backward()
never mutates the tape, so repeated sweeps agree bitwise.
"""

import numpy as np
from scipy import signal

from . import spectral
from .errors import ShapeMismatch, UnrecordedNode


class Tape:
    """Recording context: numbers its nodes in creation order.

    It counts its nodes but holds none of them; a node list here would close
    a cycle with every Var's tape reference and leave each recorded graph to
    the cycle collector.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def _add(self, var):
        var.idx = self.count
        self.count += 1
        return var

    def __len__(self):
        return self.count


class Var:
    """A tracked array value on a tape."""

    __slots__ = ("value", "tape", "parents", "pulls", "idx")

    def __init__(self, value, tape, parents=(), pulls=()):
        self.value = np.asarray(value)
        self.tape = tape
        self.parents = parents
        self.pulls = pulls
        self.idx = None
        tape._add(self)

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return "Var(shape=%s, idx=%s)" % (self.value.shape, self.idx)


def leaf(tape, value):
    """Create a tracked input on the tape."""
    return Var(np.asarray(value, dtype=np.float64), tape)


def value(x):
    """Unwrap a Var (or pass a plain array through)."""
    return x.value if isinstance(x, Var) else x


def _tape_of(*args):
    for a in args:
        if isinstance(a, Var):
            return a.tape
    return None


def _unbroadcast(grad, shape):
    """Sum an adjoint down to a broadcast operand's shape."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _record(tape, out, pairs):
    """Make a node from (input Var, pull function) pairs."""
    parents = tuple(v for v, _ in pairs)
    pulls = tuple(p for _, p in pairs)
    return Var(out, tape, parents, pulls)


# ---------------------------------------------------------------------------
# elementwise algebra


def add(a, b):
    tape = _tape_of(a, b)
    va, vb = value(a), value(b)
    out = va + vb
    if tape is None:
        return out
    pairs = []
    if isinstance(a, Var):
        pairs.append((a, lambda g: _unbroadcast(g, np.shape(va))))
    if isinstance(b, Var):
        pairs.append((b, lambda g: _unbroadcast(g, np.shape(vb))))
    return _record(tape, out, pairs)


def mul(a, b):
    tape = _tape_of(a, b)
    va, vb = value(a), value(b)
    out = va * vb
    if tape is None:
        return out
    pairs = []
    if isinstance(a, Var):
        pairs.append((a, lambda g: _unbroadcast(g * np.conj(vb), np.shape(va))))
    if isinstance(b, Var):
        pairs.append((b, lambda g: _unbroadcast(g * np.conj(va), np.shape(vb))))
    return _record(tape, out, pairs)


def div(a, b):
    tape = _tape_of(a, b)
    va, vb = value(a), value(b)
    out = va / vb
    if tape is None:
        return out
    pairs = []
    if isinstance(a, Var):
        pairs.append((a, lambda g: _unbroadcast(g * np.conj(1.0 / vb), np.shape(va))))
    if isinstance(b, Var):
        pairs.append((b, lambda g: _unbroadcast(g * np.conj(-va / (vb * vb)),
                                                np.shape(vb))))
    return _record(tape, out, pairs)


def conj(a):
    if not isinstance(a, Var):
        return np.conj(a)
    return _record(a.tape, np.conj(a.value), [(a, lambda g: np.conj(g))])


def channel_sum(a):
    """Sum over the leading axis; the adjoint broadcasts back along it."""
    va = np.asarray(value(a))
    out = np.sum(va, axis=0)
    if not isinstance(a, Var):
        return out
    return _record(a.tape, out, [(a, lambda g: np.broadcast_to(g, va.shape))])


def abs2(a):
    """|a|^2 as a real plane."""
    va = value(a)
    # the copy keeps a real plane, not a view holding the complex product
    out = (va * np.conj(va)).real.copy() if np.iscomplexobj(va) else va * va
    if not isinstance(a, Var):
        return out
    return _record(a.tape, out, [(a, lambda g: 2.0 * g * va)])


# ---------------------------------------------------------------------------
# transforms


def fft2(a):
    va = value(a)
    out = spectral.fft2(va)
    if not isinstance(a, Var):
        return out
    scale = float(va.shape[-2] * va.shape[-1])
    return _record(a.tape, out,
                   [(a, lambda g: spectral.planewise(np.fft.ifft2, g) * scale)])


def ifft2(a):
    """Normalized inverse DFT returning the real part (residue-checked)."""
    va = value(a)
    out = spectral.ifft2(va)
    if not isinstance(a, Var):
        return out
    scale = float(va.shape[-2] * va.shape[-1])
    return _record(a.tape, out, [(a, lambda g: spectral.fft2(g) / scale)])


# ---------------------------------------------------------------------------
# kinked primitives


def soft_threshold(x, thresh):
    """sign(x) * max(|x| - thresh, 0); zero subgradient on the kink."""
    vx, vt = value(x), value(thresh)
    out = np.abs(vx) - vt
    mask = out > 0  # the same as |x| > thresh: a difference is 0 only for equal operands
    np.maximum(out, 0.0, out=out)
    out *= np.sign(vx)
    tape = _tape_of(x, thresh)
    if tape is None:
        return out
    pairs = []
    if isinstance(x, Var):
        pairs.append((x, lambda g: g * mask))
    if isinstance(thresh, Var):
        sgn = np.sign(vx)
        pairs.append((thresh,
                      lambda g: _unbroadcast(-g * sgn * mask, np.shape(vt))))
    return _record(tape, out, pairs)


def relu(x):
    vx = value(x)
    out = np.maximum(vx, 0.0)
    if not isinstance(x, Var):
        return out
    mask = vx > 0
    return _record(x.tape, out, [(x, lambda g: g * mask)])


def l1_normalize(x):
    """x / sum|x|, with an impulse-at-origin fallback for an all-zero plane.

    The fallback is a constant, so no gradient flows through it; elsewhere
    the quotient rule applies with d(sum|x|)/dx_j = sign(x_j) (zero entries
    contribute zero subgradient).
    """
    vx = value(x)
    s = float(np.sum(np.abs(vx)))
    if s == 0.0:
        out = np.zeros_like(vx)
        out[(0,) * out.ndim] = 1.0
        return out
    out = vx / s
    if not isinstance(x, Var):
        return out
    sgn = np.sign(vx)

    def pull(g):
        return g / s - (np.sum(g * vx) / (s * s)) * sgn

    return _record(x.tape, out, [(x, pull)])


# ---------------------------------------------------------------------------
# structural primitives


def embed_plane(x, height, width):
    """Scatter odd square filters (..., k, k) onto (..., height, width) grids.

    Each filter's center wraps to (0, 0), as spectral.embed_kernel does.
    """
    vx = value(x)
    out = spectral.embed_kernels(vx, height, width)
    if not isinstance(x, Var):
        return out
    k = vx.shape[-1]
    return _record(x.tape, out, [(x, lambda g: spectral.wrap_window(g, k))])


def origin_window(x, size):
    """Gather the odd `size` window around the wrapped origin of a plane."""
    vx = value(x)
    out = spectral.wrap_window(vx, size)
    if not isinstance(x, Var):
        return out
    h, w = vx.shape
    return _record(x.tape, out, [(x, lambda g: spectral.embed_kernel(g, h, w))])


def conv_full(a, b):
    """Zero-padded full 2-D convolution of two small real filters."""
    va, vb = value(a), value(b)
    out = signal.convolve2d(va, vb, mode="full")
    tape = _tape_of(a, b)
    if tape is None:
        return out
    pairs = []
    if isinstance(a, Var):
        pairs.append((a, lambda g: signal.correlate2d(g, vb, mode="valid")))
    if isinstance(b, Var):
        pairs.append((b, lambda g: signal.correlate2d(g, va, mode="valid")))
    return _record(tape, out, pairs)


def take(x, idx):
    """x[idx] for a basic index; the adjoint scatters into zeros."""
    vx = value(x)
    out = vx[idx]
    if not isinstance(x, Var):
        return out

    def pull(g):
        full = np.zeros(vx.shape, dtype=np.result_type(vx, g))
        full[idx] = g
        return full

    return _record(x.tape, out, [(x, pull)])


def cascade(mix, above):
    """One filter-cascade generation: out[i] = sum_j mix[i, j] (*) above[j].

    mix is (C, C, 3, 3), above is (C, s, s) and out is (C, s+2, s+2), with
    zero-padded full convolution. Tap (u, v) of every mixing filter shifts
    the whole bank by (u, v), so the layer is nine channel-mixing products
    of shifted windows instead of C^2 separate convolutions.
    """
    vm, va = np.asarray(value(mix)), np.asarray(value(above))
    c, s = va.shape[0], va.shape[-1]
    out = np.zeros((vm.shape[0], s + 2, s + 2))
    for u in range(3):
        for v in range(3):
            out[:, u:u + s, v:v + s] += np.einsum("ij,jpq->ipq", vm[:, :, u, v], va)
    tape = _tape_of(mix, above)
    if tape is None:
        return out

    def pull_mix(g):
        gm = np.empty(vm.shape)
        for u in range(3):
            for v in range(3):
                gm[:, :, u, v] = np.einsum("ipq,jpq->ij", g[:, u:u + s, v:v + s], va)
        return gm

    def pull_above(g):
        ga = np.zeros((c, s, s))
        for u in range(3):
            for v in range(3):
                ga += np.einsum("ij,ipq->jpq", vm[:, :, u, v], g[:, u:u + s, v:v + s])
        return ga

    pairs = []
    if isinstance(mix, Var):
        pairs.append((mix, pull_mix))
    if isinstance(above, Var):
        pairs.append((above, pull_above))
    return _record(tape, out, pairs)


def mse(a, target):
    """Mean squared error against a constant target."""
    va = value(a)
    target = np.asarray(target)
    if np.shape(va) != target.shape:
        raise ShapeMismatch("prediction %s vs target %s"
                            % (np.shape(va), target.shape))
    diff = va - target
    out = np.asarray(np.mean(diff * diff))
    if not isinstance(a, Var):
        return out
    scale = 2.0 / diff.size
    return _record(a.tape, out, [(a, lambda g: g * scale * diff)])


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss, wrt):
    """Adjoints of a scalar real loss with respect to the listed leaf Vars.

    Returns one gradient array per entry of `wrt` (zeros when the loss does
    not depend on it). The graph is read, never written, so repeated calls
    agree bitwise.
    """
    if not isinstance(loss, Var):
        raise UnrecordedNode("loss is not a tape node")
    if loss.value.shape != ():
        raise ShapeMismatch("loss must be scalar, got %s" % (loss.value.shape,))
    reachable = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.idx not in reachable:
            reachable[node.idx] = node
            stack.extend(node.parents)
    grads = {loss.idx: np.ones((), dtype=np.float64)}
    # every parent was created before its children, so descending creation
    # index reaches each node only after all of its consumers
    for idx in sorted(reachable, reverse=True):
        node = reachable[idx]
        if not node.parents:
            continue  # leaf: keep its accumulated adjoint
        if len(node.pulls) != len(node.parents):
            raise UnrecordedNode("node %r has no adjoint rule" % node)
        g = grads.pop(idx)
        for parent, pull in zip(node.parents, node.pulls):
            pg = pull(g)
            if np.iscomplexobj(pg) and not np.iscomplexobj(parent.value):
                pg = pg.real
            acc = grads.get(parent.idx)
            grads[parent.idx] = pg if acc is None else acc + pg

    out = []
    for v in wrt:
        g = grads.get(v.idx)
        if g is None:
            g = np.zeros_like(np.asarray(v.value, dtype=np.float64))
        out.append(np.asarray(g, dtype=np.float64).reshape(v.value.shape))
    return out
