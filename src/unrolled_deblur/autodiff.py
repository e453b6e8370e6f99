"""Reverse-mode differentiation on an explicit tape.

A node is a value, the tracked inputs it was computed from, and one
hand-derived adjoint (its pull) mapping the node's adjoint to one adjoint
per input. `record` makes the node when any input is a Var and returns the
plain value otherwise, so the same code serves inference and training.

Each update of the solver (unroll) and the training loss is one node. A
pull keeps only its node's inputs and recomputes what it needs (Chen, Xu,
Zhang & Guestrin, arXiv 1604.06174): filter_spectra keeps y_spec; g_update
Y_l, Z, K, b_l and lam_l; z_spectrum g and b_l; kernel_estimate Z and Y_l;
reconstruct the kernel plane, g, the last F_l, eta and y_spec. g_update,
kernel_estimate and reconstruct recompute one quotient (unroll._quotient)
and take every adjoint from one term adjoint. The generic primitives here
are the few the program records besides: leaves, basic indexing, the half
spectrum of the kernel plane, one filter-cascade generation, full
convolution of small filters and the mean-squared loss; `take` scatters
into zeros of x's shape.

Creation order on the tape is topological, so backward() is one sweep over
the nodes reachable from the loss in reverse creation order. Nodes point
to their parents and never the other way round, so a recorded graph holds
no reference cycle and is freed as soon as its last Var is dropped.

Adjoint conventions, for a real-valued loss L:

* a real node with value x carries dL/dx;
* a complex node u = a + ib carries dL/da + i dL/db, so a holomorphic map
  with complex derivative D pulls back as g -> g * conj(D);
* a half spectrum (..., H, W//2+1) of real planes is an array like any
  other: each stored entry is its own variable and adjoints pair with the
  Euclidean inner product Re sum conj(g) u over the half array. Column v
  of it stands for v and its mirror W - v, except column 0 and, for even
  W, column W/2 (spectral.doubled_columns), so only the two transform
  adjoints carry weights, and entrywise nodes and frequency sums need none;
* the adjoint of the unnormalized forward DFT is the unnormalized inverse
  (ifft2 scaled by H*W), and the adjoint of the normalized inverse is
  the forward DFT scaled by 1/(H*W); on half spectra these become irfft2
  with weight 1/2 on the doubled columns, and rfft2 with weight 2 on them
  (dft_adjoint, idft_adjoint);
* an adjoint flowing into a real-valued node drops its imaginary part;
* kinks (the shrinkage threshold, the clamp, the l1 norm) take the zero
  subgradient exactly at the kink.

Values and adjoints are kept in float64/complex128 throughout; backward()
never mutates the graph, so repeated sweeps agree bitwise.
"""

import numpy as np
import scipy.fft
from scipy import signal

from . import spectral
from .errors import DimensionMismatch, UnrecordedNode


class Tape:
    """Recording context: numbers its nodes in creation order.

    It counts its nodes but holds none of them; a node list here would close
    a cycle with every Var's tape reference and leave each recorded graph to
    the cycle collector.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def __len__(self):
        return self.count


class Var:
    """A tracked array value on a tape; a leaf has no parents.

    routes holds, per parent, the position of its adjoint in pull's result.
    """

    __slots__ = ("value", "tape", "parents", "pull", "routes", "idx")

    def __init__(self, value, tape, parents=(), pull=None, routes=()):
        self.value, self.tape = np.asarray(value), tape
        self.parents, self.pull, self.routes = parents, pull, routes
        self.idx = tape.count
        tape.count += 1

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


def unbroadcast(grad, shape):
    """Sum an adjoint down to a broadcast operand's shape."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def record(out, inputs, pull):
    """Return out as a node over the tracked inputs, or as is if none is.

    pull(g) maps the node's adjoint g to one adjoint per entry of inputs, in
    order (those of untracked inputs are ignored); it should keep inputs,
    never intermediates of the forward computation.
    """
    routes = tuple(pos for pos, x in enumerate(inputs) if isinstance(x, Var))
    if not routes:
        return out
    parents = tuple(inputs[pos] for pos in routes)
    return Var(out, parents[0].tape, parents, pull, routes)


def dft_adjoint(g, shape=None):
    """Adjoint of the unnormalized forward DFT of real planes.

    For full spectra H*W Re ifft2(g); for half spectra of (H, W) = shape
    planes H*W irfft2 of g weighted 1/2 on the doubled columns.
    """
    if shape is None:
        return scipy.fft.ifft2(g).real * float(g.shape[-2] * g.shape[-1])
    g = np.array(g, dtype=np.complex128)
    g[..., spectral.doubled_columns(shape[1])] *= 0.5
    out = spectral._irfft2_passes(g, shape, overwrite=True)
    out *= float(shape[0] * shape[1])
    return out


def idft_adjoint(g, shape=None):
    """Adjoint of the normalized inverse DFT taken to real planes.

    For full spectra fft2(g) / (H*W); for half spectra (shape given, the
    planes' (H, W)) rfft2(g) / (H*W) weighted 2 on the doubled columns.
    """
    if shape is None:
        return spectral.fft2(g) / float(g.shape[-2] * g.shape[-1])
    out = spectral.rfft2(g)
    out /= float(shape[0] * shape[1])
    out[..., spectral.doubled_columns(shape[1])] *= 2.0
    return out


# ---------------------------------------------------------------------------
# generic primitives


def rfft2(a):
    """Half spectra of real planes (spectral.rfft2)."""
    shape = np.shape(value(a))[-2:]
    return record(spectral.rfft2(value(a)), (a,),
                  lambda g: (dft_adjoint(g, shape),))


def take(x, idx):
    """x[idx] for a basic index; the adjoint scatters into zeros of x's shape."""
    if not isinstance(x, Var):
        return x[idx]
    shape = x.value.shape

    def pull(g):
        full = np.zeros(shape, dtype=np.result_type(g))
        full[idx] = g
        return (full,)

    return record(x.value[idx], (x,), pull)


def conv_full(a, b):
    """Zero-padded full 2-D convolution of two small real filters."""
    va, vb = value(a), value(b)
    return record(signal.convolve2d(va, vb, mode="full"), (a, b), lambda g: (
        signal.correlate2d(g, vb, mode="valid"),
        signal.correlate2d(g, va, mode="valid")))


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

    def pull(g):
        gm = np.empty(vm.shape)
        ga = np.zeros((c, s, s))
        for u in range(3):
            for v in range(3):
                window = g[:, u:u + s, v:v + s]
                gm[:, :, u, v] = np.einsum("ipq,jpq->ij", window, va)
                ga += np.einsum("ij,ipq->jpq", vm[:, :, u, v], window)
        return gm, ga

    return record(out, (mix, above), pull)


def mse(a, target):
    """Mean squared error against a constant target."""
    va = value(a)
    target = np.asarray(target)
    if np.shape(va) != target.shape:
        raise DimensionMismatch("prediction %s vs target %s"
                            % (np.shape(va), target.shape))
    diff = va - target
    scale = 2.0 / diff.size
    return record(np.asarray(np.mean(diff * diff)), (a,),
                  lambda g: (g * scale * diff,))


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss, wrt):
    """Adjoints of a scalar real loss with respect to the listed leaf Vars.

    Returns one gradient array per entry of `wrt`, in the leaf's dtype
    (zeros when the loss does not depend on it). The graph is read, never
    written, so repeated calls agree bitwise.
    """
    if not isinstance(loss, Var):
        raise UnrecordedNode("loss is not a tape node")
    if loss.value.shape != ():
        raise DimensionMismatch("loss must be scalar, got %s" % (loss.value.shape,))
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
        adjoints = node.pull(grads.pop(idx))
        for parent, pos in zip(node.parents, node.routes):
            pg = adjoints[pos]
            if np.iscomplexobj(pg) and not np.iscomplexobj(parent.value):
                pg = pg.real
            acc = grads.get(parent.idx)
            grads[parent.idx] = pg if acc is None else acc + pg

    out = []
    for v in wrt:
        g = grads.get(v.idx)
        if g is None:
            g = np.zeros_like(v.value)
        out.append(np.asarray(g, dtype=v.value.dtype).reshape(v.value.shape))
    return out
