"""End-to-end training of the unrolled solver's parameters.

The loss on one record is

    mse(x_hat, x) + kappa * mse(kernel_plane, embed(true kernel))

with the kernel term measured on the full image grid so the comparison
needs no cropping inside the differentiated path. Optimization is Adam
with bias correction, a per-epoch geometric learning-rate decay, and a
nonnegativity projection on b, lam and eta after every step. Record order
reshuffles each epoch from (seed, epoch), so a run resumed from any
checkpoint reproduces the uninterrupted trajectory bit for bit.

Checkpoints are little-endian binary: an 8-byte magic, a u32 format
version, a length-prefixed JSON config echo, the step/epoch/learning-rate
scalars, then the parameter and Adam moment arrays, each length-prefixed,
in a fixed documented order.
"""

import json
import math
import os
import struct
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from . import kernelgen, spectral
from .errors import (ConfigMismatch, CorruptCheckpoint, DimensionMismatch,
                     InvalidParameter, NonFiniteInput, NonFiniteLoss,
                     VersionMismatch)
from .unroll import (NONNEGATIVE, TRAINABLE, ModelParams, collect_gradients,
                     forward, trainable_shapes)

CHECKPOINT_MAGIC = b"DAUCKPT1"
CHECKPOINT_VERSION = 1

# serialization order of the float64 arrays in a checkpoint, as (key, field
# whose shape it has): the parameters, eps, then the Adam moments, keyed
# "m_<field>" and "v_<field>" after the AdamState dict they come from
_MOMENTS = [(m + n, n) for m in ("m_", "v_") for n in TRAINABLE]
_ARRAY_ORDER = [(n, n) for n in TRAINABLE] + [("eps", "eps")] + _MOMENTS


@dataclass
class TrainConfig:
    layers: int = 10
    channels: int = 16
    kernel_support: int = 31
    kappa: float = 1e5
    lr: float = 1e-3
    decay: float = 0.9
    epochs: int = 20
    batch_size: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0


@dataclass
class AdamState:
    m: dict
    v: dict

    @classmethod
    def zeros(cls, params):
        shapes = trainable_shapes(*params.b.shape)
        return cls(m={k: np.zeros(s) for k, s in shapes.items()},
                   v={k: np.zeros(s) for k, s in shapes.items()})


@dataclass
class Checkpoint:
    params: ModelParams
    adam: AdamState
    step: int
    epoch: int
    lr: float
    config: TrainConfig


def glorot_bound(channels):
    """Uniform init half-width with fan counted over a 3x3, C-channel filter."""
    fan = 9 * channels
    return float(np.sqrt(6.0 / (fan + fan)))


def init_params(config, seed=None):
    """Default init: lam = 0, b = 1, eta = 20, eps = 1, Glorot filters."""
    if seed is None:
        seed = config.seed
    L, C = config.layers, config.channels
    if L < 1 or C < 1:  # glorot_bound(0) would divide by zero
        raise DimensionMismatch("need at least one layer and one channel, "
                                "got L=%d, C=%d" % (L, C))
    rng = np.random.default_rng(seed)
    bound = glorot_bound(C)
    w_top = rng.uniform(-bound, bound, (C, 3, 3))
    w_mix = rng.uniform(-bound, bound, (max(L - 1, 0), C, C, 3, 3))
    return ModelParams(
        b=np.ones((L, C)), lam=np.zeros((L, C)), eta=np.full(C, 20.0),
        w_top=w_top, w_mix=w_mix, eps=1.0,
        kernel_support=config.kernel_support).validate()


def loss_terms(x_hat, kernel_plane, x_target, kernel_target_plane, kappa):
    """(total, image mse, kernel mse); total stays on the tape if inputs do."""
    image_term = ad.mse(x_hat, x_target)
    kernel_term = ad.mse(kernel_plane, kernel_target_plane)
    image, kernel = float(ad.value(image_term)), float(ad.value(kernel_term))
    total = ad.record(np.asarray(image + kappa * kernel),
                      (image_term, kernel_term), lambda g: (g, kappa * g))
    return total, image, kernel


def adam_step(params, grads, adam, step, lr, config):
    """One in-place Adam update (step counts from 1) plus projection.

    grads maps each trainable field name to its gradient array. A step
    below 1 raises InvalidParameter: its bias corrections divide by zero.
    """
    if step < 1:
        raise InvalidParameter("Adam step counts from 1, got %r" % step)
    b1, b2, eps = config.beta1, config.beta2, config.adam_eps
    for name in TRAINABLE:
        p = getattr(params, name)
        g = grads[name]
        m = adam.m[name]
        v = adam.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        m_hat = m / (1 - b1 ** step)
        v_hat = v / (1 - b2 ** step)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if name in NONNEGATIVE:
            np.maximum(p, 0.0, out=p)
    return params, adam


# ---------------------------------------------------------------------------
# checkpoints


def _check_config(config):
    """Raise InvalidParameter unless every config field holds what a
    checkpoint's config block may: an int field an int (not a bool), a
    float field a finite float or an int, and the optimizer's numbers in
    their range (beta1 = 1, beta2 = 1 or adam_eps = 0 would make adam_step
    divide 0 by 0)."""
    for f in fields(TrainConfig):
        value = getattr(config, f.name)
        if not (type(value) is int or f.type is float and isinstance(value, float)
                and math.isfinite(value)):
            raise InvalidParameter("config field %s is %r, expected %s"
                                   % (f.name, value, f.type.__name__))
    c = config
    for name, ok, want in (("lr", c.lr > 0, "> 0"), ("decay", c.decay > 0, "> 0"),
                           ("beta1", 0 <= c.beta1 < 1, "in [0, 1)"),
                           ("beta2", 0 <= c.beta2 < 1, "in [0, 1)"),
                           ("adam_eps", c.adam_eps > 0, "> 0"),
                           ("kappa", c.kappa >= 0, ">= 0")):
        if not ok:
            raise InvalidParameter("config field %s is %r, expected %s"
                                   % (name, getattr(c, name), want))


def check_layout(params, config):
    """Raise unless params is a valid trainable model with config's layout.

    A checkpoint stores config and the trainable arrays in the shapes that
    config's L and C give, and reloads the kernel support from config. A
    config field that _check_config refuses (a NaN decay, say) or another
    support raises InvalidParameter, a fixed-bank model or another L or C
    DimensionMismatch, and a model that ModelParams.validate refuses (a
    NaN or Inf weight, say) that error, so no checkpoint is written that
    load_checkpoint would reject or misread.
    """
    _check_config(config)
    if params.fixed_bank is not None:
        raise DimensionMismatch("a fixed-bank model has no trainable filters "
                                "to checkpoint")
    params.validate()  # ties every trainable shape to b's (L, C)
    if params.b.shape != (config.layers, config.channels):
        raise DimensionMismatch("model has L, C = %s, config expects %s"
                                % (params.b.shape, (config.layers, config.channels)))
    if params.kernel_support != config.kernel_support:
        raise InvalidParameter("model kernel support %d, config expects %d"
                               % (params.kernel_support, config.kernel_support))


def _check_moments(arrays, shapes):
    """Raise unless each Adam moment in arrays is finite and shaped as its field."""
    for key, field in _MOMENTS:
        if np.shape(arrays[key]) != shapes[field]:
            raise DimensionMismatch("Adam moment %s is %s, expected %s"
                                    % (key, np.shape(arrays[key]), shapes[field]))
        if not np.all(np.isfinite(arrays[key])):
            raise NonFiniteInput("Adam moment %s has non-finite values" % key)


def _write_array(fh, arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<Q", arr.size))
    fh.write(arr.astype("<f8").tobytes())


def checkpoint_path(out_dir, epoch):
    """The file train writes at the end of the given (1-based) epoch."""
    return os.path.join(out_dir, "checkpoint_epoch_%04d.ckpt" % epoch)


def save_checkpoint(path, params, adam, step, epoch, lr, config):
    check_layout(params, config)
    cfg = json.dumps(asdict(config), sort_keys=True,
                     separators=(",", ":")).encode("ascii")
    arrays = {name: getattr(params, name) for name in TRAINABLE}
    arrays["eps"] = np.array([params.eps])
    arrays.update({key: getattr(adam, key[0])[field] for key, field in _MOMENTS})
    _check_moments(arrays, trainable_shapes(config.layers, config.channels))
    # write-temp-then-rename so a crash never leaves a truncated checkpoint
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(cfg)))
        fh.write(cfg)
        fh.write(struct.pack("<IQ", epoch, step))
        fh.write(struct.pack("<d", lr))
        for name, _ in _ARRAY_ORDER:
            _write_array(fh, arrays[name])
    os.replace(tmp, path)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 4 or not data.startswith(CHECKPOINT_MAGIC):
        raise CorruptCheckpoint("%s: bad magic" % path)
    pos = len(CHECKPOINT_MAGIC)

    def take(fmt):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(data):
            raise CorruptCheckpoint("%s: truncated at byte %d" % (path, pos))
        out = struct.unpack_from(fmt, data, pos)
        pos += size
        return out

    (version,) = take("<I")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch("%s: format version %d, expected %d"
                              % (path, version, CHECKPOINT_VERSION))
    (cfg_len,) = take("<I")
    if pos + cfg_len > len(data):
        raise CorruptCheckpoint("%s: truncated config block" % path)
    try:
        block = json.loads(data[pos:pos + cfg_len].decode("ascii"))
        config = TrainConfig(**block)  # an unknown field raises TypeError
    except (ValueError, TypeError) as exc:
        raise CorruptCheckpoint("%s: bad config block (%s)" % (path, exc))
    missing = [f.name for f in fields(TrainConfig) if f.name not in block]
    if missing:  # no default may stand in for a value the model was trained with
        raise CorruptCheckpoint("%s: config block lacks %s" % (path, ", ".join(missing)))
    try:
        _check_config(config)
    except InvalidParameter as exc:
        raise CorruptCheckpoint("%s: %s" % (path, exc)) from None
    pos += cfg_len
    epoch, step = take("<IQ")
    (lr,) = take("<d")

    shapes = dict(trainable_shapes(config.layers, config.channels), eps=(1,))
    arrays = {}
    for name, field in _ARRAY_ORDER:
        (count,) = take("<Q")
        expected = int(np.prod(shapes[field]))
        if count != expected:
            raise CorruptCheckpoint("%s: array %s has %d values, expected %d"
                                    % (path, name, count, expected))
        if pos + 8 * count > len(data):
            raise CorruptCheckpoint("%s: truncated array %s" % (path, name))
        arrays[name] = np.frombuffer(data, dtype="<f8", count=count,
                                     offset=pos).reshape(shapes[field]).copy()
        pos += 8 * count
    if pos != len(data):
        raise CorruptCheckpoint("%s: %d trailing bytes" % (path, len(data) - pos))

    params = ModelParams(
        **{name: arrays[name] for name in TRAINABLE},
        eps=float(arrays["eps"][0]),
        kernel_support=config.kernel_support).validate()
    _check_moments(arrays, shapes)
    adam = AdamState(
        m={n: arrays["m_" + n] for n in TRAINABLE},
        v={n: arrays["v_" + n] for n in TRAINABLE})
    return Checkpoint(params=params, adam=adam, step=step, epoch=epoch,
                      lr=lr, config=config)


# ---------------------------------------------------------------------------
# training loop


def objective(record, params, kappa, tape=None, track_kinks=False):
    """The training loss on one record: (total, image mse, kernel mse, state).

    Runs forward on the blurred image, then loss_terms against the record's
    true kernel embedded on the image grid. total is a tape node when a
    tape is given. Raises NonFiniteLoss when the total is not finite.
    """
    h, w = record.blurred.shape
    target_plane = spectral.embed_kernel(record.kernel, h, w)
    _, _, _, state = forward(record.blurred, params, tape=tape,
                             track_kinks=track_kinks)
    total, image_mse, kernel_mse = loss_terms(
        state.x_hat, state.kernel_plane, record.sharp, target_plane, kappa)
    total_value = float(ad.value(total))
    if not np.isfinite(total_value):
        raise NonFiniteLoss("record %s: loss %r" % (record.blurred_path, total_value))
    return total, image_mse, kernel_mse, state


def _record_loss(record, params, kappa):
    """Forward and backward on one record; (total, image mse, kernel mse, grads)."""
    total, image_mse, kernel_mse, state = objective(record, params, kappa,
                                                    tape=ad.Tape())
    loss = float(ad.value(total))  # the sweep releases the total's value
    return loss, image_mse, kernel_mse, collect_gradients(total, state)


def train(manifest_path, config, out_dir, resume=None, initial_params=None,
          log=None):
    """Train on a manifest; writes per-epoch checkpoints and loss_log.csv.

    Each epoch walks a reshuffled record order in slices of batch_size;
    a slice sums its records' gradients in order, takes one Adam step and
    logs one row of mean losses. Returns the Checkpoint of the last epoch.
    `resume` restores params, moments, step count and learning rate from an
    earlier checkpoint and continues from its epoch; its config must equal
    config but for epochs, which may grow, and a checkpoint with no epoch
    left to run raises InvalidParameter. `initial_params` must have the
    config's layout (check_layout); it starts a new run, so giving it with
    `resume` raises InvalidParameter.
    """
    for what, n in (("epochs", config.epochs), ("batch size", config.batch_size)):
        if n < 1:
            raise InvalidParameter("%s must be >= 1, got %d" % (what, n))
    if resume is not None and initial_params is not None:
        raise InvalidParameter("resume continues %s's params; initial_params "
                               "would be ignored" % resume)
    if resume is not None:
        ckpt = load_checkpoint(resume)
        # lr decays per epoch and record order comes from (seed, epoch), so
        # a run extended to more epochs equals an uninterrupted one
        if replace(ckpt.config, epochs=config.epochs) != config:
            raise ConfigMismatch("resume config %s != %s" % (ckpt.config, config))
        if ckpt.epoch >= config.epochs:
            raise InvalidParameter("%s is at epoch %d, nothing left to run "
                                   "with epochs=%d" % (resume, ckpt.epoch,
                                                       config.epochs))
        params, adam = ckpt.params, ckpt.adam
        step, start_epoch, lr = ckpt.step, ckpt.epoch, ckpt.lr
    else:
        params = initial_params if initial_params is not None \
            else init_params(config)
        check_layout(params, config)
        adam = AdamState.zeros(params)
        step, start_epoch, lr = 0, 0, config.lr
    records = kernelgen.load_manifest(manifest_path)
    os.makedirs(out_dir, exist_ok=True)
    if log is None:
        log = sys.stderr

    log_path = os.path.join(out_dir, "loss_log.csv")
    mode = "a" if resume is not None and os.path.exists(log_path) else "w"
    with open(log_path, mode, encoding="ascii", newline="\n") as logf:
        if mode == "w":
            logf.write("epoch,step,loss,image_mse,kernel_mse,lr\n")
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(
                len(records))
            for start in range(0, len(order), config.batch_size):
                # losses: the total, image and kernel columns of the slice
                *losses, grads = zip(*(
                    _record_loss(records[i], params, config.kappa)
                    for i in order[start:start + config.batch_size]))
                step += 1
                adam_step(params, {k: sum((g[k] for g in grads[1:]), grads[0][k])
                                   for k in grads[0]}, adam, step, lr, config)
                logf.write("%d,%d,%r,%r,%r,%r\n"
                           % (epoch, step, *(sum(c) / len(c) for c in losses), lr))
            logf.flush()
            lr = lr * config.decay
            ckpt_path = checkpoint_path(out_dir, epoch + 1)
            save_checkpoint(ckpt_path, params, adam, step, epoch + 1, lr, config)
            print("epoch %d done, step %d, checkpoint %s"
                  % (epoch + 1, step, ckpt_path), file=log)
    return Checkpoint(params=params, adam=adam, step=step,
                      epoch=config.epochs, lr=lr, config=config)
