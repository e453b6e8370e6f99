"""Acceptance suite: one test per shipped guarantee.

Covers the numerical oracles (spectral algebra, closed-form updates,
filter cascade), the structural invariants (kernel simplex, gradient
correctness), two end-to-end runs (classical preset on a synthetic scene,
desk-scale training with held-out scoring), bitwise determinism of both
runs, and exactness of the metrics. Each test emits one
"criterion N: PASS/FAIL (...)" line; the full checklist is echoed once
the session ends.
"""

import csv
import os
import sys
import time

import numpy as np
import pytest

from composed import kernel_form
from unrolled_deblur import (gradcheck, imaging, kernelgen, metrics,
                             spectral, unroll)
from unrolled_deblur.training import TrainConfig, load_checkpoint, train

_LINES = []


def _report(n, ok, detail):
    line = "criterion %d: %s (%s)" % (n, "PASS" if ok else "FAIL", detail)
    _LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session", autouse=True)
def _checklist():
    yield
    if sys.__stdout__ is not None:
        sys.__stdout__.write("\n".join(["", "acceptance checklist:"]
                                       + _LINES + [""]))


# ---------------------------------------------------------------------------
# local oracles, deliberately built from rolls/loops and np.fft only


def _circ_conv_ref(a, b):
    """Wrapped convolution as a superposition of circular shifts."""
    out = np.zeros_like(b)
    for u in range(a.shape[0]):
        for v in range(a.shape[1]):
            out += a[u, v] * np.roll(b, (u, v), axis=(0, 1))
    return out


def _conv_full_ref(a, b):
    """Zero-padded full convolution by superposition."""
    ha, wa = a.shape
    hb, wb = b.shape
    out = np.zeros((ha + hb - 1, wa + wb - 1))
    for i in range(ha):
        for j in range(wa):
            out[i:i + hb, j:j + wb] += a[i, j] * b
    return out


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# criterion 1: spectral oracle suite


def test_criterion_1_spectral_oracles():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_rt = 0.0
    worst_conv = 0.0
    for _ in range(50):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        a = rng.standard_normal((h, w))
        b = rng.standard_normal((h, w))
        back = spectral.ifft2(spectral.fft2(a))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - a))))
        got = spectral.circ_conv(a, b)
        worst_conv = max(worst_conv,
                         float(np.max(np.abs(got - _circ_conv_ref(a, b)))))
    dt = time.time() - t0
    ok = worst_rt < 1e-10 and worst_conv < 1e-10 and dt < 10.0
    assert _report(1, ok, "roundtrip %.1e, conv %.1e, %.1fs"
                   % (worst_rt, worst_conv, dt))


# ---------------------------------------------------------------------------
# criterion 2: closed-form updates match per-frequency scalar solves and
# sit at local minima of their objectives


def _probe_coords(rng, shape, count=6):
    return [(int(rng.integers(shape[0])), int(rng.integers(shape[1])))
            for _ in range(count)]


def _non_improving(objective, opt, rng, delta=1e-4):
    j0 = objective(opt)
    slack = 1e-9 * (1.0 + abs(j0))
    for (i, j) in _probe_coords(rng, opt.shape):
        for sign in (delta, -delta):
            probe = opt.copy()
            probe[i, j] += sign
            if objective(probe) < j0 - slack:
                return False
    return True


def test_criterion_2_update_optimality():
    # the updates take half spectra: the oracles loop over full ones, and
    # each update gets their columns 0..n//2 and the planes' shape
    t0 = time.time()
    n = 8
    shape = (n, n)

    def half(spec):
        return spec[..., :n // 2 + 1]

    worst = {"g": 0.0, "k": 0.0, "x": 0.0}
    minima = True
    for trial in range(20):
        rng = np.random.default_rng([2, trial])

        # feature update
        y = rng.standard_normal((n, n))
        kern = rng.random((3, 3))
        kern /= kern.sum()
        k_plane = spectral.embed_kernel(kern, n, n)
        z = rng.standard_normal((n, n))
        b = float(rng.uniform(0.2, 2.0))
        lam = float(rng.uniform(0.05, 1.0))
        ys, ks, zs = (np.fft.fft2(im) for im in (y, k_plane, z))
        got_g = unroll.g_update(half(ys), half(zs), half(ks), b, lam, shape)
        spec = np.empty_like(ys)
        for u in range(n):
            for v in range(n):
                spec[u, v] = ((b * np.conj(ks[u, v]) * ys[u, v]
                               + lam * zs[u, v])
                              / (b * abs(ks[u, v]) ** 2 + lam))
        worst["g"] = max(worst["g"], float(np.max(np.abs(
            got_g - np.fft.ifft2(spec).real))))

        def j_g(g):
            data = _circ_conv_ref(k_plane, g) - y
            return (0.5 * b * float(np.sum(data ** 2))
                    + 0.5 * lam * float(np.sum((g - z) ** 2)))

        minima &= _non_improving(j_g, got_g, rng)

        # kernel update, two channels
        z1, z2 = rng.standard_normal((2, n, n))
        y1, y2 = rng.standard_normal((2, n, n))
        eps = float(rng.uniform(0.5, 2.0))
        zs1, zs2, ys1, ys2 = (np.fft.fft2(im) for im in (z1, z2, y1, y2))
        got_k = unroll.k_update([half(zs1), half(zs2)], [half(ys1), half(ys2)],
                                eps, shape)
        spec = np.empty_like(ys1)
        for u in range(n):
            for v in range(n):
                num = (np.conj(zs1[u, v]) * ys1[u, v]
                       + np.conj(zs2[u, v]) * ys2[u, v])
                den = abs(zs1[u, v]) ** 2 + abs(zs2[u, v]) ** 2 + eps
                spec[u, v] = num / den
        worst["k"] = max(worst["k"], float(np.max(np.abs(
            got_k - np.fft.ifft2(spec).real))))

        def j_k(k):
            return (float(np.sum((_circ_conv_ref(z1, k) - y1) ** 2))
                    + float(np.sum((_circ_conv_ref(z2, k) - y2) ** 2))
                    + eps * float(np.sum(k ** 2)))

        minima &= _non_improving(j_k, got_k, rng)

        # final reconstruction
        f1, f2 = rng.standard_normal((2, 3, 3))
        g1, g2 = rng.standard_normal((2, n, n))
        eta = rng.uniform(0.5, 20.0, 2)
        fp1 = spectral.embed_kernel(f1, n, n)
        fp2 = spectral.embed_kernel(f2, n, n)
        fs1, fs2, gs1, gs2 = (np.fft.fft2(im) for im in (fp1, fp2, g1, g2))
        got_x = unroll.reconstruct(half(ys), half(ks), [g1, g2],
                                   [half(fs1), half(fs2)], eta, shape)
        spec = np.empty_like(ys)
        for u in range(n):
            for v in range(n):
                num = (np.conj(ks[u, v]) * ys[u, v]
                       + eta[0] * np.conj(fs1[u, v]) * gs1[u, v]
                       + eta[1] * np.conj(fs2[u, v]) * gs2[u, v])
                den = (abs(ks[u, v]) ** 2 + eta[0] * abs(fs1[u, v]) ** 2
                       + eta[1] * abs(fs2[u, v]) ** 2)
                spec[u, v] = num / den
        worst["x"] = max(worst["x"], float(np.max(np.abs(
            got_x - np.fft.ifft2(spec).real))))

        def j_x(x):
            total = float(np.sum((_circ_conv_ref(k_plane, x) - y) ** 2))
            for et, fp, g in ((eta[0], fp1, g1), (eta[1], fp2, g2)):
                total += et * float(np.sum((_circ_conv_ref(fp, x) - g) ** 2))
            return total

        minima &= _non_improving(j_x, got_x, rng)

    dt = time.time() - t0
    ok = (max(worst.values()) < 1e-10 and minima and dt < 30.0)
    assert _report(2, ok, "g %.1e, k %.1e, x %.1e, minima %s, %.1fs"
                   % (worst["g"], worst["k"], worst["x"], minima, dt))


# ---------------------------------------------------------------------------
# criterion 3: every post-projection kernel plane stays on the simplex


def test_criterion_3_simplex_invariant():
    from unrolled_deblur import training as tr

    worst_drift = 0.0
    worst_min = 0.0
    finite = True
    for run in range(100):
        rng = np.random.default_rng([3, run])
        size = 8 + 2 * (run % 5)
        cfg = TrainConfig(layers=1 + run % 3, channels=1 + (run // 3) % 3,
                          kernel_support=3 + 2 * (run % 2))
        params = tr.init_params(cfg, seed=run)
        params.b = rng.uniform(0.05, 1.5, params.b.shape)
        params.lam = rng.uniform(0.05, 0.5, params.lam.shape)
        params.eta = rng.uniform(5.0, 30.0, params.eta.shape)
        y = rng.random((size, size))
        with kernel_form(run % 2 == 0):  # the window in every other run
            kernel, g, x_hat, state = unroll.forward(y, params)
        for plane in state.kernel_planes:
            worst_min = min(worst_min, float(plane.min()))
            worst_drift = max(worst_drift, abs(float(plane.sum()) - 1.0))
            finite &= bool(np.isfinite(plane).all())
        finite &= bool(np.isfinite(x_hat).all())
        finite &= bool(np.isfinite(kernel).all())
        finite &= all(bool(np.isfinite(gi).all()) for gi in g)
    ok = worst_min >= 0.0 and worst_drift < 1e-12 and finite
    assert _report(3, ok, "min %.1e, mass drift %.1e, finite %s over 100 runs"
                   % (worst_min, worst_drift, finite))


# ---------------------------------------------------------------------------
# criterion 4: reverse-mode gradients vs central differences


def test_criterion_4_gradient_correctness():
    t0 = time.time()
    inst = gradcheck.make_check_instance(size=8, layers=2, channels=2, seed=0)
    res = gradcheck.finite_diff_check(inst, h=1e-5, samples=200, seed=0)
    dt = time.time() - t0
    ok = (res.checked > 0 and res.max_effective_err < 1e-4 and dt < 120.0)
    assert _report(4, ok,
                   "%d checked, %d skipped near kinks, max err %.2e"
                   " (raw %.2e), %.1fs"
                   % (res.checked, len(res.skipped), res.max_effective_err,
                      res.max_rel_err, dt))


# ---------------------------------------------------------------------------
# criterion 5: filter cascade equals direct nested convolution


def test_criterion_5_filter_cascade():
    worst = 0.0
    for layers in range(1, 5):
        for channels in range(1, 4):
            rng = np.random.default_rng([5, layers, channels])
            w_top = rng.standard_normal((channels, 3, 3))
            w_mix = rng.standard_normal((layers - 1, channels, channels, 3, 3))
            banks = unroll.build_filters(w_top, w_mix)
            ref = [list(w_top)]
            for mix in w_mix[::-1]:
                above = ref[0]
                ref.insert(0, [
                    sum(_conv_full_ref(mix[i, j], above[j])
                        for j in range(channels))
                    for i in range(channels)])
            for got_bank, ref_bank in zip(banks, ref):
                for got, want in zip(got_bank, ref_bank):
                    worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-12
    assert _report(5, ok, "max cascade error %.1e" % worst)


# ---------------------------------------------------------------------------
# criterion 6: classical preset restores a noiseless synthetic scene


def _bars_scene(size=64):
    img = np.zeros((size, size))
    img[6:14, 4:60] = 1.0
    img[24:32, 8:30] = 0.9
    img[24:32, 38:58] = 0.95
    img[44:56, 6:18] = 1.0
    img[42:54, 30:44] = 0.85
    img[40:60, 52:60] = 0.9
    return img


def _run_classic_pipeline(out_dir):
    support = 11
    sharp = _bars_scene()
    k_true = kernelgen.linear_motion_kernel(0.0, 9.0, support)
    blurred = kernelgen.synthesize_blurred(sharp, k_true, 0.0, 0)
    params = unroll.tv_prewitt_params(layers=30, kernel_support=support)
    t0 = time.time()
    k_est, _, x_hat, _ = unroll.forward(blurred, params)
    seconds = time.time() - t0
    dy, dx = metrics.align_shift(x_hat, sharp, support // 2)
    aligned = np.clip(np.roll(x_hat, (dy, dx), axis=(0, 1)), 0.0, 1.0)
    os.makedirs(out_dir, exist_ok=True)
    imaging.save_image(x_hat, os.path.join(out_dir, "restored.pgm"),
                       maxval=65535)
    imaging.save_kernel(k_est, os.path.join(out_dir, "kernel.txt"))
    return {
        "isnr": metrics.psnr(aligned, sharp) - metrics.psnr(blurred, sharp),
        "rmse_est": metrics.kernel_rmse(k_est, k_true),
        "rmse_imp": metrics.kernel_rmse(np.pad([[1.0]], support // 2), k_true),
        "seconds": seconds,
        "files": _tree_bytes(out_dir),
    }


@pytest.fixture(scope="session")
def classic_case(tmp_path_factory):
    return _run_classic_pipeline(str(tmp_path_factory.mktemp("classic")))


def test_criterion_6_classical_preset(classic_case):
    c = classic_case
    ok = (c["isnr"] > 0.0 and c["rmse_est"] < c["rmse_imp"]
          and c["seconds"] < 60.0)
    assert _report(6, ok, "ISNR %+0.3f dB, kernel RMSE %.4f vs impulse %.4f,"
                   " %.1fs" % (c["isnr"], c["rmse_est"], c["rmse_imp"],
                               c["seconds"]))


# ---------------------------------------------------------------------------
# criterion 7: desk-scale training improves loss and held-out records


ANGLES = [0.0, np.pi / 6, np.pi / 3, np.pi / 2]
LENGTHS = [5.0, 7.0, 9.0, 11.0]
SUPPORT = 13


def _blobs(seed, gamma, cell, size=64):
    """Axis-aligned random blocks with contrast gamma around mid-gray."""
    rng = np.random.default_rng(seed)
    grid = (rng.random((size // cell, size // cell)) > 0.5).astype(float)
    return (0.5 - gamma / 2) + gamma * np.kron(grid, np.ones((cell, cell)))


def _write_record(ds, stem, sharp, kernel, sigma, noise_seed):
    blurred = kernelgen.synthesize_blurred(sharp, kernel, sigma,
                                           seed=noise_seed)
    names = [stem + "_y.pgm", stem + "_x.pgm", stem + "_k.txt"]
    imaging.save_image(blurred, os.path.join(ds, names[0]), maxval=65535)
    imaging.save_image(sharp, os.path.join(ds, names[1]), maxval=65535)
    imaging.save_kernel(kernel, os.path.join(ds, names[2]))
    return names + ["%r" % sigma]


def _write_manifest(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["blurred", "sharp", "kernel", "sigma"])
        writer.writerows(rows)


def _run_training_pipeline(out_dir):
    """Synthesize the corpus, train, score held-out records.

    Twelve low-contrast records let the fidelity weights move before the
    thresholds start firing; the last four high-contrast fine-texture
    records then carry the kernel term. The held-out set reuses the same
    texture family at unseen seeds, one record per kernel.
    """
    ds = os.path.join(out_dir, "ds")
    os.makedirs(ds)
    rows = []
    for j in range(16):
        gamma, cell = (0.02, 8) if j < 12 else (1.0, 2)
        kernel = kernelgen.linear_motion_kernel(ANGLES[j % 4],
                                                LENGTHS[j % 4], SUPPORT)
        rows.append(_write_record(ds, "r%02d" % j,
                                  _blobs(1000 + j, gamma, cell), kernel,
                                  0.01, 2000 + j))
    manifest = os.path.join(ds, "manifest.csv")
    _write_manifest(manifest, rows)

    ho_rows = []
    ho_truth = []
    for j in range(4):
        kernel = kernelgen.linear_motion_kernel(ANGLES[j], LENGTHS[j],
                                                SUPPORT)
        sharp = _blobs(5000 + j, 1.0, 2)
        ho_rows.append(_write_record(ds, "ho%02d" % j, sharp, kernel,
                                     0.01, 6000 + j))
        ho_truth.append((sharp, kernel))
    ho_manifest = os.path.join(ds, "ho_manifest.csv")
    _write_manifest(ho_manifest, ho_rows)

    cfg = TrainConfig(layers=5, channels=8, kernel_support=SUPPORT,
                      epochs=50, lr=3e-3, decay=0.9, kappa=1e5, seed=0)
    t0 = time.time()
    with open(os.devnull, "w") as sink:
        train(manifest, cfg, out_dir, log=sink)
    seconds = time.time() - t0

    per_epoch = {}
    with open(os.path.join(out_dir, "loss_log.csv")) as fh:
        for row in csv.DictReader(fh):
            per_epoch.setdefault(int(row["epoch"]), []).append(
                float(row["loss"]))
    ratio = (np.mean(per_epoch[max(per_epoch)])
             / np.mean(per_epoch[min(per_epoch)]))

    ckpt = os.path.join(out_dir, "checkpoint_epoch_%04d.ckpt" % cfg.epochs)
    params = load_checkpoint(ckpt).params
    impulse = np.pad([[1.0]], SUPPORT // 2)
    isnrs, rmses, rmses_imp = [], [], []
    for j, (sharp, k_true) in enumerate(ho_truth):
        blurred = kernelgen.synthesize_blurred(sharp, k_true, 0.01,
                                               seed=6000 + j)
        k_est, _, x_hat, _ = unroll.forward(blurred, params)
        dy, dx = metrics.align_shift(x_hat, sharp, SUPPORT // 2)
        aligned = np.clip(np.roll(x_hat, (dy, dx), axis=(0, 1)), 0.0, 1.0)
        isnrs.append(metrics.psnr(aligned, sharp)
                     - metrics.psnr(blurred, sharp))
        rmses.append(metrics.kernel_rmse(k_est, k_true))
        rmses_imp.append(metrics.kernel_rmse(impulse, k_true))
    metrics.evaluate(ho_manifest, ckpt,
                     os.path.join(out_dir, "heldout_eval.csv"))

    return {
        "ratio": float(ratio),
        "isnr": float(np.mean(isnrs)),
        "rmse_est": float(np.mean(rmses)),
        "rmse_imp": float(np.mean(rmses_imp)),
        "seconds": seconds,
        "files": _tree_bytes(out_dir),
    }


@pytest.fixture(scope="session")
def training_case(tmp_path_factory):
    return _run_training_pipeline(str(tmp_path_factory.mktemp("training")))


def test_criterion_7_desk_scale_training(training_case):
    c = training_case
    ok = (c["ratio"] < 0.5 and c["isnr"] > 0.0
          and c["rmse_est"] < c["rmse_imp"] and c["seconds"] < 1800.0)
    assert _report(7, ok, "loss ratio %.4f, held-out ISNR %+0.4f dB,"
                   " kernel RMSE %.4f vs impulse %.4f, %.0fs"
                   % (c["ratio"], c["isnr"], c["rmse_est"], c["rmse_imp"],
                      c["seconds"]))


# ---------------------------------------------------------------------------
# criterion 8: both end-to-end runs are bitwise reproducible


def test_criterion_8_determinism(classic_case, training_case,
                                 tmp_path_factory):
    rerun6 = _run_classic_pipeline(str(tmp_path_factory.mktemp("classic2")))
    rerun7 = _run_training_pipeline(str(tmp_path_factory.mktemp("training2")))
    compared = 0
    identical = True
    for first, second in ((classic_case, rerun6), (training_case, rerun7)):
        identical &= set(first["files"]) == set(second["files"])
        for name in first["files"]:
            compared += 1
            identical &= first["files"][name] == second["files"].get(name)
    ok = identical and compared > 50  # checkpoints, images, kernels, CSVs
    assert _report(8, ok, "%d artifacts bitwise identical across reruns: %s"
                   % (compared, identical))


# ---------------------------------------------------------------------------
# criterion 9: metric exactness


def test_criterion_9_metric_exactness():
    offset_psnr = metrics.psnr(np.zeros((8, 8)), np.full((8, 8), 0.1))
    img = np.random.default_rng(9).random((16, 16))
    self_ssim = metrics.ssim(img, img)
    kern = np.random.default_rng(99).random((7, 7))
    kern /= kern.sum()
    shift_rmse = metrics.kernel_rmse(kern, np.roll(kern, (2, -1),
                                                   axis=(0, 1)))
    ok = (offset_psnr == 20.0 and self_ssim == 1.0 and shift_rmse == 0.0)
    assert _report(9, ok, "offset PSNR %r, self SSIM %r, shifted RMSE %r"
                   % (offset_psnr, self_ssim, shift_rmse))
