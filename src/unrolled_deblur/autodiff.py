"""Reverse-mode differentiation on an explicit tape.

A node is a value, the tracked inputs it was computed from, and one
hand-derived adjoint (its pull) mapping the node's adjoint to one adjoint
per input. `record` makes the node when any input is a Var and returns the
plain value otherwise, so the same code serves inference and training.

Each update of the solver (unroll) and the training loss is one node. A
pull keeps only its node's inputs and recomputes what it needs (Chen, Xu,
Zhang & Guestrin, arXiv 1604.06174), except for results its forward has
summed over the channels into one plane or window: those cost the tape a
plane each, and recomputing them a pass over the channel stacks, so they
are kept. filter_spectra keeps y_spec; g_update Y_l, Z, K, b_l and lam_l,
and recomputes its quotient (unroll._quotient); z_spectrum b_l and, of g,
only its shrinkage code, one int8 per feature (unroll._shrink_code);
kernel_estimate Z and Y_l, and its quotient's channel sums Q and 1/D and
the raw kernel; reconstruct the kernel's spectrum, the last F_l, eta and
y_spec, and its Q and 1/D and, once per pass, the spectra G of g that the
sums were made from. The three updates solve through one quotient whose
single loop accumulates every term, a channel sum given term by term
(unroll._quotient), and every term with an array factor is pulled back
by one function in residual form (unroll._term_adjoint).

Keep or remake: a value no pull reads is dropped, and so is one that is
cheap to rebuild from small values the graph holds. A node that can be
rebuilt is given its remake at record: the function that made its value,
so a remade value is the forward's, bit for bit. release drops a node's
value after its last forward reader; a pull reads it through read, which
remakes it at most once per sweep and holds it until backward reaches
the node, after every reader has pulled. backward drops the rest behind
it: once a node's pull has run, no later pull reads the node, so the
sweep releases its value and drops its pull (with what the pull kept)
and its remake, and the graph's memory falls layer by layer as the
sweep descends; leaves keep their values. So forward releases each
layer's features g, which no pull reads, after the peak check,
track_kinks and z_spectrum (the last layer's after reconstruct), and
each filter_spectra node, remade as the window transform of the bank's
(C, s, s) taps, times y_spec for Y_l: Y_l after the last layer that
reads it, the last F_l after reconstruct. A recorded graph then holds
one half stack per layer, Z, and no feature plane, until the sweep
passes the layer; a sweep pays L + 1 window transforms and L products
for it.
A pull may write only into buffers it made: the adjoint it is given may
be another node's input or a sum that backward still holds, and forward
shares its spectra read-only. What a pull returns is backward's to keep,
so backward adds a node's second adjoint into the first one's buffer
(record). Within its own buffers a pull works in place, so that it makes
few new stacks; a new stack costs page faults as well as a pass once glibc
has handed the pages back. The generic primitives here
are the few the program records besides: leaves, basic indexing, the half
spectrum of the kernel plane or window, embedding a window, one
filter-cascade generation and the mean-squared loss; `take` scatters into
zeros of x's shape. conv_full (the full convolution of two small filters)
is the cascade's per-pair reference; the solver never calls it.

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
  the forward DFT scaled by 1/(H*W); on the half spectra the program
  carries these become irfft2 with weight 1/2 on the doubled columns, and
  rfft2 with weight 2 on them (dft_adjoint, idft_adjoint);
* an adjoint flowing into a real-valued node drops its imaginary part;
* kinks (the shrinkage threshold, the clamp, the l1 norm) take the zero
  subgradient exactly at the kink.

Values and adjoints are kept in float64/complex128 throughout. backward()
consumes the graph it sweeps: every inner node it reaches keeps its dtype,
shape and parents but no value, pull or remake, so a second sweep of it
raises UnrecordedNode before any pull runs. Two recordings of one loss
sweep to the same gradients, bit for bit.
"""

import numpy as np

from . import spectral
from .errors import DimensionMismatch, InvalidParameter, ReleasedValue, UnrecordedNode


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
    value is the array, or a Released stub once release or a backward sweep
    has dropped it; remake, if the node has one (record), makes the value
    again. A sweep sets an inner node's pull and remake to None once the
    pull has run.
    """

    __slots__ = ("value", "tape", "parents", "pull", "routes", "remake", "idx")

    def __init__(self, value, tape, parents=(), pull=None, routes=(), remake=None):
        self.value, self.tape = np.asarray(value), tape
        self.parents, self.pull, self.routes, self.remake = parents, pull, routes, remake
        self.idx = tape.count
        tape.count += 1

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return "Var(shape=%s, idx=%s)" % (self.value.shape, self.idx)


class Released:
    """A released node's value (release, or backward once the node's pull
    has run): its dtype and shape, the only parts of an inner node's value
    that backward reads, and no data. Reading it as an array raises
    ReleasedValue. For a node with a remake, read gives the pulls the value
    again, remade once and held in remade until backward reaches the
    node's own pull."""

    __slots__ = ("dtype", "shape", "idx", "remade")

    def __init__(self, array, idx):
        self.dtype, self.shape, self.idx = array.dtype, array.shape, idx
        self.remade = None

    def __array__(self, dtype=None, copy=None):
        raise ReleasedValue("node %d's value was released after its last reader"
                            % self.idx)


def release(x):
    """Drop a node's value once nothing in the forward reads it again; a
    plain array is left as it is. The node keeps its parents, pull and
    remake, so backward runs through it as before, and reading its value
    (value) raises ReleasedValue; a pull reads it through read."""
    if isinstance(x, Var):
        x.value = Released(x.value, x.idx)


def leaf(tape, value):
    """Create a tracked input on the tape."""
    return Var(np.asarray(value, dtype=np.float64), tape)


def value(x):
    """Unwrap a Var (or pass a plain array through); a released Var's value
    raises ReleasedValue."""
    return np.asarray(x.value) if isinstance(x, Var) else x


def read(x):
    """A pull's read of an input's value: value(x), or for a released node
    with a remake (record), the remade value, made by the first pull that
    reads it in a sweep and held until backward reaches the node
    (backward). A released node without one raises ReleasedValue."""
    if not (isinstance(x, Var) and isinstance(x.value, Released)
            and x.remake is not None):
        return value(x)
    if x.value.remade is None:
        x.value.remade = x.remake()
    return x.value.remade


def unbroadcast(grad, shape):
    """Sum an adjoint down to a broadcast operand's shape."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def record(out, inputs, pull, remake=None):
    """Return out as a node over the tracked inputs, or as is if none is.

    pull(g) maps the node's adjoint g to one adjoint per entry of inputs, in
    order; those of untracked inputs are ignored, so a pull may give None
    for one. It keeps the node's inputs, and of the forward's intermediates
    only those summed over the channels into a plane or window (see the
    module docstring). Each adjoint it returns is backward's to keep and to
    sum into: an array the pull made, or g itself, each returned for one
    input only. It shares memory with no other adjoint and no kept value,
    or backward's in-place sum (_sum_into) would write into them. It reads
    an input that forward may release (release) through read. remake, if
    given, is the function that made out, for read to call again.
    """
    if not recorded(*inputs):
        return out
    routes = tuple(pos for pos, x in enumerate(inputs) if isinstance(x, Var))
    parents = tuple(inputs[pos] for pos in routes)
    return Var(out, parents[0].tape, parents, pull, routes, remake)


def recorded(*inputs):
    """Whether record would make a node over these inputs: any is a Var."""
    return any(isinstance(x, Var) for x in inputs)


def dft_adjoint(g, shape, size=None, overwrite=False):
    """Adjoint of the unnormalized forward DFT of real planes to half spectra.

    H*W irfft2 of the half spectra g of (H, W) = shape planes, weighted 1/2
    on the doubled columns, with no residue check: an adjoint's anti-Hermitian
    part is what a real input drops. The weight is applied after the column
    pass, in its buffer: that pass acts on each column alone and 1/2 is a
    power of two, so the planes are those of weighting a copy of g first,
    bit for bit. With an odd size, only the size x size window of each plane
    around the origin (spectral.wrap_window of the planes) is made, from the
    window's rows alone (spectral.column_pass and real_pass). With overwrite
    the column pass may take g's buffer, if g is complex128.
    """
    h, w = shape
    columns = spectral.column_pass(np.asarray(g, dtype=np.complex128), overwrite, size)
    columns[..., spectral.doubled_columns(w)] *= 0.5
    out = spectral.real_pass(columns, w, size)
    out *= float(h * w)
    return out


def idft_adjoint(g, shape, size=None, scale=None):
    """Adjoint of the normalized inverse DFT of half spectra to real planes.

    rfft2(g) / (H*W) of the (H, W) = shape planes g, weighted 2 on the
    doubled columns, then times scale, a real array that broadcasts
    against it, if one is given. With a size, g holds the size x size
    windows of planes that are zero elsewhere, as irfft2(..., size=size)
    returns them (spectral.window_rfft2). The weights 2 join scale in one
    pass over the spectra: doubling rounds nothing, so the bits are those
    of weighting first and scaling after.
    """
    out = spectral.rfft2(g) if size is None else spectral.window_rfft2(g, shape)
    out /= float(shape[0] * shape[1])
    weights = idft_weights(shape[1])
    out *= weights if scale is None else scale * weights
    return out


def idft_weights(width):
    """idft_adjoint's column weights for the half spectra of planes of this
    width: 2 on the doubled columns (spectral.doubled_columns), 1 elsewhere."""
    weights = np.ones(width // 2 + 1)
    weights[spectral.doubled_columns(width)] = 2.0
    return weights


# ---------------------------------------------------------------------------
# generic primitives


def rfft2(a, shape=None):
    """Half spectra of real planes (spectral.rfft2), or with shape, of the
    (H, W) = shape planes that windows a embed into (spectral.window_rfft2)."""
    va = value(a)
    if shape is None:
        shape, size, out = np.shape(va)[-2:], None, spectral.rfft2(va)
    else:
        size, out = np.shape(va)[-1], spectral.window_rfft2(va, shape)
    return record(out, (a,), lambda g: (dft_adjoint(g, shape, size),))


def embed(a, shape):
    """Windows a embedded on (H, W) = shape planes (spectral.embed_kernels);
    the adjoint is the planes' window."""
    size = np.shape(value(a))[-1]
    return record(spectral.embed_kernels(value(a), *shape), (a,),
                  lambda g: (spectral.wrap_window(g, size),))


def take(x, idx):
    """x[idx] for a basic index; the adjoint scatters into zeros of x's shape."""
    if not isinstance(x, Var):
        return x[idx]
    shape = x.shape

    def pull(g):
        full = np.zeros(shape, dtype=np.result_type(g))
        full[idx] = g
        return (full,)

    return record(value(x)[idx], (x,), pull)


def conv_full(a, b):
    """Zero-padded full 2-D convolution of two small real filters: tap (u, v)
    of a adds a[u, v] b at (u, v). The adjoints are g's valid correlations."""
    va, vb = value(a), value(b)
    (m, n), (s, t) = va.shape, vb.shape
    taps = [(u, v, np.s_[u:u + s, v:v + t]) for u in range(m) for v in range(n)]
    out = np.zeros((m + s - 1, n + t - 1))
    for u, v, win in taps:
        out[win] += va[u, v] * vb

    def pull(g):
        ga = np.array([np.sum(g[win] * vb) for _, _, win in taps]).reshape(m, n)
        return ga, sum(va[u, v] * g[win] for u, v, win in taps)

    return record(out, (a, b), pull)


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

    Returns one gradient array per entry of `wrt`, in the leaf's dtype:
    zeros when the loss does not depend on it, and for a leaf of another
    graph (wrt is matched by identity). A wrt entry that is not a leaf Var
    raises InvalidParameter before any pull runs.

    The sweep consumes the graph: once a node's pull has run, the node keeps
    its place (dtype, shape and parents) but drops its value (a Released
    stub), its pull and its remake, so the memory the graph held falls as
    the sweep descends. Leaves keep their values. A remade value (read) is
    dropped when the sweep reaches its node, after every reader has pulled.
    Sweeping a swept graph again raises UnrecordedNode before any pull runs;
    a second sweep needs the graph recorded again.
    """
    if not isinstance(loss, Var):
        raise UnrecordedNode("loss is not a tape node")
    if loss.value.shape != ():
        raise DimensionMismatch("loss must be scalar, got %s" % (loss.value.shape,))
    for pos, v in enumerate(wrt):
        if not isinstance(v, Var) or v.parents:
            raise InvalidParameter("wrt entry %d is not a leaf Var" % pos)
    reachable = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if node.idx not in reachable:
            if node.parents and node.pull is None:
                raise UnrecordedNode("node %d was swept by an earlier backward"
                                     % node.idx)
            reachable[node.idx] = node
            stack.extend(node.parents)
    grads = {loss.idx: np.ones((), dtype=np.float64)}
    # every parent was created before its children, so descending creation
    # index reaches each node only after all of its consumers
    for idx in sorted(reachable, reverse=True):
        node = reachable[idx]
        if isinstance(node.value, Released):  # its readers were created later
            node.value.remade = None
        if not node.parents:
            continue  # leaf: keep its value and its accumulated adjoint
        adjoints = node.pull(grads.pop(idx))
        for parent, pos in zip(node.parents, node.routes):
            pg = adjoints[pos]
            if np.iscomplexobj(pg) and not np.iscomplexobj(parent.value):
                pg = pg.real
            acc = grads.get(parent.idx)
            grads[parent.idx] = pg if acc is None else _sum_into(acc, pg)
        # no later pull reads the node: drop what it holds, and the loop's
        # references to this pull's adjoints before the next pull runs
        node.value = Released(node.value, idx)
        node.pull = node.remake = None
        del reachable[idx], adjoints, pg, acc

    out = []
    for v in wrt:  # by identity: a leaf of another graph may share an idx
        g = grads.get(v.idx) if reachable.get(v.idx) is v else None
        if g is None:
            g = np.zeros_like(v.value)
        out.append(np.asarray(g, dtype=v.value.dtype).reshape(v.value.shape))
    return out


def _sum_into(acc, pg):
    """acc + pg, in acc's buffer when that can hold the sum: the adjoints a
    pull returns are backward's (record), so a second one adds into the
    first without a new stack. A read-only or smaller acc gets a new array."""
    if (isinstance(acc, np.ndarray) and acc.flags.writeable
            and np.broadcast_shapes(acc.shape, np.shape(pg)) == acc.shape
            and np.can_cast(np.result_type(acc, pg), acc.dtype)):
        return np.add(acc, pg, out=acc)
    return acc + pg
