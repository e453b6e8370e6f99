"""Optimizer, checkpoints, and the training loop."""

import csv
import gc
import hashlib
import io
import os
import struct
import weakref

import numpy as np
import pytest

from unrolled_deblur import gradcheck, imaging, kernelgen, training, unroll
from unrolled_deblur.errors import (ConfigMismatch, CorruptCheckpoint,
                                    DimensionMismatch, InvalidParameter,
                                    NonFiniteInput, NonFiniteLoss,
                                    VersionMismatch)
from unrolled_deblur.training import (AdamState, TrainConfig, adam_step,
                                      glorot_bound, init_params,
                                      load_checkpoint, loss_terms,
                                      save_checkpoint, train)


def small_config(**kw):
    base = dict(layers=1, channels=1, kernel_support=5, epochs=2,
                lr=1e-3, decay=0.9, kappa=1e5, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# initialization


def test_glorot_bound_value():
    # fan_in = fan_out = 9 * C for a 3x3, C-channel filter
    assert glorot_bound(8) == np.sqrt(6.0 / (2 * 9 * 8))
    assert glorot_bound(1) == np.sqrt(6.0 / 18.0)


def test_init_params_defaults():
    cfg = small_config(layers=3, channels=4)
    p = init_params(cfg)
    assert np.array_equal(p.b, np.ones((3, 4)))
    assert np.array_equal(p.lam, np.zeros((3, 4)))
    assert np.array_equal(p.eta, np.full(4, 20.0))
    assert p.eps == 1.0
    bound = glorot_bound(4)
    assert np.max(np.abs(p.w_top)) <= bound
    assert np.max(np.abs(p.w_mix)) <= bound
    assert p.w_top.shape == (4, 3, 3)
    assert p.w_mix.shape == (2, 4, 4, 3, 3)


def test_init_params_deterministic():
    cfg = small_config(layers=2, channels=2)
    a = init_params(cfg)
    b = init_params(cfg)
    c = init_params(cfg, seed=1)
    assert np.array_equal(a.w_top, b.w_top)
    assert np.array_equal(a.w_mix, b.w_mix)
    assert not np.array_equal(a.w_top, c.w_top)


# ---------------------------------------------------------------------------
# loss


def test_loss_terms_arithmetic(rng):
    x_hat = np.zeros((4, 4))
    x = np.full((4, 4), 2.0)            # image mse = 4
    kp = np.zeros((4, 4))
    kt = np.full((4, 4), 0.5)           # kernel mse = 0.25
    total, image_mse, kernel_mse = loss_terms(x_hat, kp, x, kt, kappa=8.0)
    assert image_mse == 4.0
    assert kernel_mse == 0.25
    assert float(total) == 4.0 + 8.0 * 0.25


# ---------------------------------------------------------------------------
# Adam


def frozen_grads(params, fill):
    shapes = unroll.trainable_shapes(*params.b.shape)
    return {k: np.full(s, fill) for k, s in shapes.items()}


def test_adam_first_step_is_signed_lr(rng):
    cfg = small_config(layers=2, channels=2)
    p = init_params(cfg)
    w0 = p.w_top.copy()
    g = frozen_grads(p, 2.0)
    adam = AdamState.zeros(p)
    adam_step(p, g, adam, step=1, lr=1e-3, config=cfg)
    # bias-corrected first step: lr * g / (|g| + eps) = lr up to 5e-9
    expect = w0 - 1e-3 * (2.0 / (2.0 + 1e-8))
    assert np.max(np.abs(p.w_top - expect)) < 1e-15


@pytest.mark.parametrize("step", [0, -1])
def test_adam_refuses_a_step_below_one(step):
    # the bias corrections 1 - beta^step would divide by zero
    cfg = small_config()
    p = init_params(cfg)
    w0 = p.w_top.copy()
    with pytest.raises(InvalidParameter, match="step"):
        adam_step(p, frozen_grads(p, 1.0), AdamState.zeros(p), step=step,
                  lr=1e-3, config=cfg)
    assert np.array_equal(p.w_top, w0)


def test_adam_projects_rate_parameters_only(rng):
    cfg = small_config(layers=1, channels=2)
    p = init_params(cfg)
    p.lam[:] = 0.0
    p.w_top[:] = 0.0
    g = frozen_grads(p, 5.0)  # positive gradient pushes values down
    adam = AdamState.zeros(p)
    adam_step(p, g, adam, step=1, lr=1e-2, config=cfg)
    assert np.all(p.lam == 0.0)          # clamped at the boundary
    assert np.all(p.w_top < 0.0)         # filters may go negative
    assert np.all(p.b >= 0.0)
    assert np.all(p.eta >= 0.0)


def test_adam_moment_accumulation_matches_reference(rng):
    cfg = small_config(layers=1, channels=1)
    p = init_params(cfg)
    adam = AdamState.zeros(p)
    ref = p.eta.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    lr = 3e-3
    for step in range(1, 6):
        gval = float(rng.standard_normal())
        g = frozen_grads(p, gval)
        adam_step(p, g, adam, step=step, lr=lr, config=cfg)
        m = cfg.beta1 * m + (1 - cfg.beta1) * gval
        v = cfg.beta2 * v + (1 - cfg.beta2) * gval * gval
        m_hat = m / (1 - cfg.beta1 ** step)
        v_hat = v / (1 - cfg.beta2 ** step)
        ref = np.maximum(ref - lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps), 0.0)
        assert np.max(np.abs(p.eta - ref)) < 1e-12


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    cfg = small_config(layers=2, channels=3)
    p = init_params(cfg)
    adam = AdamState.zeros(p)
    for k in adam.m:
        adam.m[k] = rng.standard_normal(adam.m[k].shape)
        adam.v[k] = rng.random(adam.v[k].shape)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, adam, step=17, epoch=3, lr=0.51, config=cfg)
    ck = load_checkpoint(path)
    assert ck.step == 17
    assert ck.epoch == 3
    assert ck.lr == 0.51
    assert ck.config == cfg
    assert np.array_equal(ck.params.w_top, p.w_top)
    assert np.array_equal(ck.params.w_mix, p.w_mix)
    assert np.array_equal(ck.params.b, p.b)
    assert np.array_equal(ck.params.lam, p.lam)
    assert np.array_equal(ck.params.eta, p.eta)
    assert ck.params.eps == p.eps
    for k in adam.m:
        assert np.array_equal(ck.adam.m[k], adam.m[k])
        assert np.array_equal(ck.adam.v[k], adam.v[k])


def test_checkpoint_bytes_are_pinned(tmp_path):
    # the on-disk layout of a fixed tiny model: any change to the array
    # order, shapes or encoding changes this hash
    cfg = TrainConfig(layers=3, channels=2, kernel_support=5, seed=7)
    p = init_params(cfg)
    adam = AdamState.zeros(p)
    for i, k in enumerate(sorted(adam.m)):
        ramp = np.arange(adam.m[k].size).reshape(adam.m[k].shape)
        adam.m[k] += ramp * 0.25 + i
        adam.v[k] += ramp * 0.5 + i
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, p, adam, step=3, epoch=1, lr=1e-3, config=cfg)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == ("fbb0a5fce64b7a5b053e4e6dfade497c"
                      "1eda53a2b0700631baf1514544ffbca9")


def test_checkpoint_write_leaves_no_temp_file(tmp_path):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    assert os.path.exists(path)
    assert os.listdir(str(tmp_path)) == ["a.ckpt"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_checkpoint_write_refuses_non_finite_weights(tmp_path, bad):
    # load_checkpoint would refuse such a file, so none is written
    cfg = small_config()
    p = init_params(cfg)
    p.w_top[0, 1, 1] = bad
    with pytest.raises(NonFiniteInput, match="^w_top "):
        save_checkpoint(str(tmp_path / "a.ckpt"), p, AdamState.zeros(p),
                        0, 0, cfg.lr, cfg)
    assert os.listdir(str(tmp_path)) == []


@pytest.mark.parametrize("field, value", [
    ("decay", float("nan")), ("lr", float("inf")), ("layers", True),
    ("seed", np.int64(0)),  # json cannot write it
    # out of range: beta = 1 and adam_eps = 0 make adam_step divide 0 by 0,
    # and the others used to train silently
    ("lr", 0.0), ("lr", -1e-3), ("decay", 0.0), ("decay", -0.9),
    ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", -0.5),
    ("adam_eps", 0.0), ("kappa", -1.0),
])
def test_checkpoint_write_refuses_config_values_load_refuses(
        tmp_path, rewrite_config, field, value):
    cfg = small_config()
    p = init_params(cfg)
    with pytest.raises(InvalidParameter, match="^config field %s " % field):
        save_checkpoint(str(tmp_path / "a.ckpt"), p, AdamState.zeros(p), 0, 0,
                        cfg.lr, small_config(**{field: value}))
    assert os.listdir(str(tmp_path)) == []
    if type(value) is float:  # json writes it: a file holding it is refused
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
        bad = rewrite_config(path, tmp_path / "b.ckpt", **{field: value})
        with pytest.raises(CorruptCheckpoint, match="config field %s " % field):
            load_checkpoint(bad)


def test_checkpoint_write_takes_a_numpy_float_config_value(tmp_path):
    # json writes a float64 as the float it is, and load reads it back
    cfg = small_config(lr=np.float64(1e-3))
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    assert load_checkpoint(path).config == small_config()


def _bad_shape(adam):
    adam.m["b"] = np.zeros((2, 2))


def _nan_moment(adam):
    adam.v["eta"][0] = np.nan


@pytest.mark.parametrize("spoil, error", [(_bad_shape, DimensionMismatch),
                                          (_nan_moment, NonFiniteInput)])
def test_checkpoint_write_refuses_bad_moments(tmp_path, spoil, error):
    # load_checkpoint would refuse the first and restore the second
    cfg = small_config()
    p = init_params(cfg)
    adam = AdamState.zeros(p)
    spoil(adam)
    with pytest.raises(error, match="Adam moment"):
        save_checkpoint(str(tmp_path / "a.ckpt"), p, adam, 0, 0, cfg.lr, cfg)
    assert os.listdir(str(tmp_path)) == []  # neither .ckpt nor .tmp


def test_checkpoint_load_refuses_non_finite_moments(tmp_path):
    cfg = small_config(layers=2, channels=2)
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    # after the magic, version, config block, epoch, step and lr come the
    # length-prefixed arrays: the TRAINABLE parameters, eps, then every m_
    # and every v_ moment in TRAINABLE order; patch the first value of v_b
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    pos = 16 + cfg_len + 12 + 8
    shapes = dict(unroll.trainable_shapes(2, 2), eps=(1,))
    for name in [*unroll.TRAINABLE, "eps", *unroll.TRAINABLE, "w_top", "w_mix"]:
        (count,) = struct.unpack_from("<Q", data, pos)
        assert count == np.prod(shapes[name])
        pos += 8 + 8 * count
    assert struct.unpack_from("<Q", data, pos)[0] == 4  # v_b's length prefix
    data[pos + 8:pos + 16] = struct.pack("<d", np.inf)
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    with pytest.raises(NonFiniteInput, match="^Adam moment v_b "):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(path))


def test_checkpoint_version_mismatch(tmp_path):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[8:12] = struct.pack("<I", 99)
    bad = tmp_path / "b.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(VersionMismatch):
        load_checkpoint(str(bad))


def test_checkpoint_truncation(tmp_path):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in (10, 40, len(data) - 3):
        bad = tmp_path / ("t%d.ckpt" % cut)
        bad.write_bytes(data[:cut])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(str(bad))


def test_checkpoint_trailing_garbage(tmp_path):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    with open(path, "rb") as fh:
        data = fh.read()
    bad = tmp_path / "b.ckpt"
    bad.write_bytes(data + b"xx")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(bad))


def test_checkpoint_corrupt_config_block(tmp_path):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    data[16:16 + 4] = b"!!!!"  # stomp the JSON
    bad = tmp_path / "b.ckpt"
    bad.write_bytes(bytes(data))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("field, value", [
    ("kernel_support", 9.0), ("layers", 2.0), ("layers", True),
    ("layers", "x"), ("seed", None), ("kappa", True), ("lr", "x"),
    ("lr", float("nan")), ("decay", float("inf")),
])
def test_checkpoint_config_values_must_have_their_field_type(
        tmp_path, rewrite_config, field, value):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    bad = rewrite_config(path, tmp_path / "b.ckpt", **{field: value})
    with pytest.raises(CorruptCheckpoint, match="config field %s " % field):
        load_checkpoint(bad)


def test_checkpoint_config_float_field_takes_an_int(tmp_path, rewrite_config):
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    good = rewrite_config(path, tmp_path / "b.ckpt", kappa=100000)
    assert load_checkpoint(good).config == cfg


@pytest.mark.parametrize("drop, extra, message", [
    (("kernel_support",), {}, "config block lacks kernel_support"),
    ((), {"momentum": 0.5}, "bad config block"),
])
def test_checkpoint_config_needs_exactly_the_train_config_fields(
        tmp_path, rewrite_config, drop, extra, message):
    # a support-5 model loaded with the default support 31 would run at a
    # support it was not trained with
    cfg = small_config()
    p = init_params(cfg)
    path = str(tmp_path / "a.ckpt")
    save_checkpoint(path, p, AdamState.zeros(p), 0, 0, cfg.lr, cfg)
    bad = rewrite_config(path, tmp_path / "b.ckpt", drop=drop, **extra)
    with pytest.raises(CorruptCheckpoint, match=message):
        load_checkpoint(bad)


# ---------------------------------------------------------------------------
# training loop


def tiny_dataset(tmp_path, rng, n_images=2, patch=16, size=24):
    src = str(tmp_path / "src")
    os.makedirs(src, exist_ok=True)
    for i in range(n_images):
        imaging.save_image(rng.random((size, size)),
                           os.path.join(src, "s%d.pgm" % i), maxval=65535)
    kernels = [kernelgen.linear_motion_kernel(0.4, 2.5, 5)]
    out = str(tmp_path / "data")
    kernelgen.write_records(src, kernels, 0.01, patch, out, seed=3)
    return os.path.join(out, "manifest.csv")


def test_train_writes_log_and_checkpoints(tmp_path, rng):
    man = tiny_dataset(tmp_path, rng)
    cfg = small_config()
    out = str(tmp_path / "run")
    final = train(man, cfg, out, log=io.StringIO())
    assert final.epoch == 2
    assert final.step == 4  # 2 records x 2 epochs, batch size 1

    names = sorted(os.listdir(out))
    assert "checkpoint_epoch_0001.ckpt" in names
    assert "checkpoint_epoch_0002.ckpt" in names
    with open(os.path.join(out, "loss_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epoch"] for r in rows] == ["0", "0", "1", "1"]
    assert [r["step"] for r in rows] == ["1", "2", "3", "4"]
    for r in rows:
        for field in ("loss", "image_mse", "kernel_mse", "lr"):
            assert np.isfinite(float(r[field]))
    # per-epoch geometric decay shows up in the logged rate
    assert float(rows[0]["lr"]) == cfg.lr
    assert float(rows[2]["lr"]) == cfg.lr * cfg.decay


def test_train_leaves_no_feature_spectra_alive(tmp_path, rng, monkeypatch):
    # each backward sweep drops the graph behind it, and the graph holds no
    # reference cycle: with the cycle collector off, no layer's Z (the
    # spectra z_spectrum made) is left alive once train returns
    made = []

    def z_spectrum(g, b, _fn=unroll.z_spectrum):
        out = _fn(g, b)
        made.append(weakref.ref(out.value))
        return out

    monkeypatch.setattr(unroll, "z_spectrum", z_spectrum)
    man = tiny_dataset(tmp_path, rng, n_images=1, patch=64, size=80)
    cfg = small_config(layers=3, channels=4, epochs=1)
    params = init_params(cfg)
    params.b, params.lam = np.full((3, 4), 0.02), np.full((3, 4), 1e-3)  # live
    gc.disable()
    try:
        train(man, cfg, str(tmp_path / "run"), initial_params=params,
              log=io.StringIO())
        assert len(made) == 3 and all(ref() is None for ref in made)
    finally:
        gc.enable()


def test_train_resume_reproduces_run_bitwise(tmp_path, rng):
    man = tiny_dataset(tmp_path, rng)
    cfg = small_config()
    full = str(tmp_path / "full")
    train(man, cfg, full, log=io.StringIO())

    resumed = str(tmp_path / "resumed")
    train(man, cfg, resumed, log=io.StringIO(),
          resume=os.path.join(full, "checkpoint_epoch_0001.ckpt"))

    name = "checkpoint_epoch_0002.ckpt"
    with open(os.path.join(full, name), "rb") as fh:
        a = fh.read()
    with open(os.path.join(resumed, name), "rb") as fh:
        b = fh.read()
    assert a == b


def test_train_resume_extends_epochs_bitwise(tmp_path, rng):
    # lr decays per epoch and record order comes from (seed, epoch), so
    # raising epochs on resume continues the uninterrupted run
    man = tiny_dataset(tmp_path, rng)
    full = str(tmp_path / "full")
    train(man, small_config(epochs=2), full, log=io.StringIO())

    extended = str(tmp_path / "extended")
    train(man, small_config(epochs=1), extended, log=io.StringIO())
    final = train(man, small_config(epochs=2), extended,
                  log=io.StringIO(),
                  resume=training.checkpoint_path(extended, 1))
    assert final.epoch == 2
    for name in ("checkpoint_epoch_0002.ckpt", "loss_log.csv"):
        with open(os.path.join(full, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(extended, name), "rb") as fh:
            b = fh.read()
        assert a == b, name


@pytest.mark.parametrize("epochs", [1, 2])
def test_train_resume_refuses_a_finished_run(tmp_path, rng, epochs):
    # a checkpoint at or past the final epoch leaves nothing to run; this
    # used to write a header-only loss log and return an unwritten epoch
    man = tiny_dataset(tmp_path, rng)
    run = str(tmp_path / "run")
    train(man, small_config(epochs=2), run, log=io.StringIO())
    out = tmp_path / "r2"
    with pytest.raises(InvalidParameter, match="nothing left to run"):
        train(str(tmp_path / "none.csv"), small_config(epochs=epochs),
              str(out), log=io.StringIO(),
              resume=training.checkpoint_path(run, 2))
    assert not out.exists()


def test_train_refuses_resume_with_initial_params(tmp_path):
    # a resumed run restores its checkpoint's params, so it would ignore
    # initial_params; neither the (missing) checkpoint nor the (missing)
    # manifest is read, and nothing is written
    cfg = small_config()
    out = tmp_path / "run"
    with pytest.raises(InvalidParameter, match="initial_params would be ignored"):
        train(str(tmp_path / "none.csv"), cfg, str(out), log=io.StringIO(),
              resume=str(tmp_path / "none.ckpt"), initial_params=init_params(cfg))
    assert os.listdir(str(tmp_path)) == []


def test_train_rerun_identical(tmp_path, rng):
    man = tiny_dataset(tmp_path, rng)
    cfg = small_config()
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        train(man, cfg, out, log=io.StringIO())
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b = fh.read()
        assert a == b, name


def test_train_resume_rejects_other_config(tmp_path, rng):
    man = tiny_dataset(tmp_path, rng)
    cfg = small_config()
    out = str(tmp_path / "run")
    train(man, cfg, out, log=io.StringIO())
    other = small_config(lr=5e-3)
    with pytest.raises(ConfigMismatch):
        train(man, other, str(tmp_path / "r2"), log=io.StringIO(),
              resume=os.path.join(out, "checkpoint_epoch_0001.ckpt"))


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_train_rejects_zero_epochs_or_batch(tmp_path, rng, field):
    # epochs = 0 used to return a checkpoint it never wrote; batch 0 meant 1
    man = tiny_dataset(tmp_path, rng)
    out = tmp_path / "run"
    with pytest.raises(InvalidParameter,
                       match="^%s must be" % field.replace("_", " ")):
        train(man, small_config(**{field: 0}), str(out), log=io.StringIO())
    assert not out.exists()


@pytest.mark.parametrize("case", ["fixed bank", "layers", "channels", "support"])
def test_train_rejects_a_model_its_checkpoints_cannot_hold(tmp_path, case):
    # these models were trained and then written as checkpoints that
    # load_checkpoint refused (a NaN for each None array, other shapes) or
    # reloaded with the config's kernel support
    cfg = small_config(channels=2)
    model, error = {
        "fixed bank": (unroll.tv_prewitt_params(layers=1, kernel_support=5),
                       DimensionMismatch),
        "layers": (init_params(small_config(layers=2, channels=2)),
                   DimensionMismatch),
        "channels": (init_params(small_config(channels=3)), DimensionMismatch),
        "support": (init_params(small_config(channels=2, kernel_support=7)),
                    InvalidParameter),
    }[case]
    out = tmp_path / "run"
    with pytest.raises(error):  # before the (missing) manifest is read
        train(str(tmp_path / "none.csv"), cfg, str(out), initial_params=model,
              log=io.StringIO())
    assert not out.exists()
    path = tmp_path / "a.ckpt"
    with pytest.raises(error):
        save_checkpoint(str(path), model, AdamState.zeros(model), 0, 0, cfg.lr, cfg)
    assert os.listdir(str(tmp_path)) == []


def test_train_already_sharp_records_are_a_fixed_point(tmp_path):
    # blurred == sharp (impulse kernel, no noise) with kappa = 0 and the
    # lam = 0 init makes the reconstruction return the input exactly, the
    # loss vanish, and every gradient with it: parameters must not move
    out = str(tmp_path / "data")
    os.makedirs(out, exist_ok=True)
    flat = np.full((16, 16), 0.5)
    imaging.save_image(flat, os.path.join(out, "r_blur.pgm"), maxval=65535)
    imaging.save_image(flat, os.path.join(out, "r_sharp.pgm"), maxval=65535)
    imaging.save_kernel(np.pad([[1.0]], 2), os.path.join(out, "r_k.txt"))
    with open(os.path.join(out, "manifest.csv"), "w", newline="\n") as fh:
        fh.write("blurred,sharp,kernel,sigma\n")
        fh.write("r_blur.pgm,r_sharp.pgm,r_k.txt,0\n")

    cfg = small_config(kappa=0.0, epochs=2)
    init = init_params(cfg)
    final = train(os.path.join(out, "manifest.csv"), cfg,
                  str(tmp_path / "run"), log=io.StringIO())
    assert np.array_equal(final.params.w_top, init.w_top)
    assert np.array_equal(final.params.b, init.b)
    assert np.array_equal(final.params.lam, init.lam)
    assert np.array_equal(final.params.eta, init.eta)

    with open(os.path.join(str(tmp_path / "run"), "loss_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["loss"]) == 0.0 for r in rows)


def test_record_loss_rejects_non_finite(rng, make_kernel):
    # forward rejects a non-finite blurred image itself (NonFiniteInput), so
    # the loss guard is reached through a non-finite target
    rec = kernelgen.DatasetRecord(
        blurred_path="mem", blurred=rng.random((8, 8)),
        sharp=np.full((8, 8), np.nan), kernel=make_kernel(3))
    cfg = small_config()
    with np.errstate(invalid="ignore"):  # the NaN is the point
        with pytest.raises(NonFiniteLoss):
            training._record_loss(rec, init_params(cfg), cfg.kappa)


def test_gradcheck_checks_the_training_loss():
    inst = gradcheck.make_check_instance(size=6, layers=2, channels=2, seed=3)
    _, _, _, grads = training._record_loss(inst.record, inst.params, inst.kappa)
    res = gradcheck.finite_diff_check(inst, samples=12, seed=1)
    assert res.checked > 0
    for e in res.entries:
        assert e.analytic == grads[e.name].flat[e.index]


def test_gradcheck_skips_samples_whose_activation_pattern_changes():
    # low thresholds leave features within h of them: those samples move a
    # shrinkage bit and are skipped, where their central differences would
    # straddle the kink (compared on the clamp bits alone, this instance
    # skips none and its worst effective error reads 0.19)
    inst = gradcheck.make_check_instance(size=12, layers=3, channels=2, seed=3)
    inst.params.b *= 0.05
    res = gradcheck.finite_diff_check(inst, samples=60, seed=3)
    assert res.skipped and res.checked + len(res.skipped) == 60
    assert {reason for _, _, reason in res.skipped} == {
        "activation pattern changes within h"}
    assert res.max_effective_err < 1e-4


def test_gradcheck_rejects_negative_samples():
    inst = gradcheck.make_check_instance(size=6, layers=1, channels=1)
    with pytest.raises(InvalidParameter, match="samples"):
        gradcheck.finite_diff_check(inst, samples=-1)


@pytest.mark.parametrize("h", [0.0, -1e-5, float("nan"), float("inf")])
def test_gradcheck_rejects_a_step_that_is_not_finite_and_positive(h):
    # h = 0 used to raise ZeroDivisionError
    inst = gradcheck.make_check_instance(size=6, layers=1, channels=1)
    with pytest.raises(InvalidParameter, match="h must"):
        gradcheck.finite_diff_check(inst, h=h)


def test_train_batch_size_groups_steps(tmp_path, rng):
    man = tiny_dataset(tmp_path, rng)
    cfg = small_config(batch_size=2, epochs=1)
    out = str(tmp_path / "run")
    final = train(man, cfg, out, log=io.StringIO())
    assert final.step == 1  # both records folded into one update
    with open(os.path.join(out, "loss_log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
