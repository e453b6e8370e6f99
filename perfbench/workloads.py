"""The three benchmark workloads: train, eval and deblur.

Each workload writes its timed and reference input sets once, then offers
`load()` (the program-side input loading done at set-up), `prepare()`
(untimed per-operation state), `run()` (one operation through a public
entry point) and `check()` (correctness of one operation's output,
returning its digest and quality figures).
"""

import contextlib
import copy
import csv
import hashlib
import io
import math
import os

import numpy as np

from unrolled_deblur import cli, imaging, kernelgen, metrics, training

import inputs


class CheckFailed(Exception):
    """An operation's output is missing, malformed or non-finite."""


class OpFailed(Exception):
    """An operation reported failure through its exit code."""


def _digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _finite(values, what):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckFailed("%s is not finite" % what)
    return values


def aligned_psnr(estimate, reference, radius):
    """PSNR after the circular shift within `radius` that minimizes MSE.

    A shift's MSE is (|a|^2 + |b|^2 - 2 corr(s)) / n, so one FFT
    cross-correlation ranks every shift of a 512 px image in milliseconds;
    the PSNR itself is computed exactly at the best shift.
    """
    corr = np.fft.ifft2(np.fft.fft2(reference)
                        * np.conj(np.fft.fft2(estimate))).real
    shifts = range(-radius, radius + 1)
    # |a|^2 + |b|^2 is the same for every shift, so -corr ranks them
    _, dy, dx = min((-corr[dy, dx], dy, dx) for dy in shifts for dx in shifts)
    return metrics.psnr(np.roll(estimate, (dy, dx), axis=(0, 1)), reference)


class _Workload:
    """Timed and reference input sets; operations name the set they use."""

    with_model = True
    records_tape = False

    def __init__(self, work, seed, sizes):
        self.sizes = sizes
        self.timed = inputs.write_set(os.path.join(work, "timed"), seed,
                                      sizes, sizes.records, self.with_model)
        self.reference = inputs.write_set(
            os.path.join(work, "reference"), inputs.REFERENCE_SEED, sizes, 1,
            self.with_model)

    def load(self):
        for ins in (self.timed, self.reference):
            for record in ins.records:
                kernelgen.load_manifest(record.manifest)
            ins.params = training.load_checkpoint(ins.model).params

    def describe(self):
        return "model L=%d C=%d support %d, last-layer survival %.3f" % (
            self.timed.config.layers, self.timed.config.channels,
            self.timed.config.kernel_support, self.timed.surviving)

    def prepare(self, ins, rec):
        return None


class Train(_Workload):
    """One batch-1 Adam step from the generated model per operation."""

    name = "train"
    records_tape = True

    def prepare(self, ins, rec):
        return copy.deepcopy(ins.params)

    def run(self, ins, rec, out_dir, params):
        training.train(ins.records[rec].manifest, ins.config, out_dir,
                       initial_params=params, log=io.StringIO())

    def check(self, ins, rec, out_dir):
        log_path = os.path.join(out_dir, "loss_log.csv")
        ckpt_path = os.path.join(out_dir, "checkpoint_epoch_0001.ckpt")
        with open(log_path, encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise CheckFailed("loss log has %d rows, expected 1" % len(rows))
        loss, image_mse, kernel_mse = _finite(
            [rows[0]["loss"], rows[0]["image_mse"], rows[0]["kernel_mse"]],
            "logged loss")
        ckpt = training.load_checkpoint(ckpt_path)
        if ckpt.config != ins.config or (ckpt.step, ckpt.epoch) != (1, 1):
            raise CheckFailed("checkpoint config or counters changed")
        again = ckpt_path + ".roundtrip"
        training.save_checkpoint(again, ckpt.params, ckpt.adam, ckpt.step,
                                 ckpt.epoch, ckpt.lr, ckpt.config)
        if _digest(again) != _digest(ckpt_path):
            raise CheckFailed("checkpoint does not round-trip")
        os.remove(again)
        record = ins.records[rec]
        blurred_mse = float(np.mean((record.blurred - record.sharp) ** 2))
        quality = {"train_loss": float(loss),
                   "psnr_db": 10.0 * math.log10(1.0 / image_mse),
                   "isnr_db": 10.0 * math.log10(blurred_mse / image_mse),
                   "kernel_rmse": math.sqrt(kernel_mse)}
        return _digest(ckpt_path, log_path), quality


class Eval(_Workload):
    """`metrics.evaluate` of the generated model on one record."""

    name = "eval"

    def run(self, ins, rec, out_dir, _):
        metrics.evaluate(ins.records[rec].manifest, ins.model,
                         os.path.join(out_dir, "report.csv"), threads=1)

    def check(self, ins, rec, out_dir):
        path = os.path.join(out_dir, "report.csv")
        with open(path, encoding="ascii", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != metrics.EVAL_FIELDS or len(rows) != 3:
            raise CheckFailed("report is not one record plus MEAN")
        name = os.path.basename(ins.records[rec].blurred_path)
        if rows[1][0] != name or rows[2][0] != "MEAN":
            raise CheckFailed("report rows are %s, %s" % (rows[1][0], rows[2][0]))
        for row in rows[1:]:
            _finite(row[1:], "report row %s" % row[0])
        psnr_db, isnr_db, _, kernel_rmse = (float(v) for v in rows[1][1:5])
        quality = {"psnr_db": psnr_db, "isnr_db": isnr_db,
                   "kernel_rmse": kernel_rmse}
        return _digest(path), quality


class Deblur(_Workload):
    """`unrolled-deblur deblur --preset tv-prewitt` on one 512 px PGM."""

    name = "deblur"
    with_model = False

    def load(self):
        for ins in (self.timed, self.reference):
            for record in ins.records:
                imaging.load_image(record.blurred_path)

    def describe(self):
        return "tv-prewitt preset, support %d, restricted" % self.sizes.support

    def run(self, ins, rec, out_dir, _):
        argv = ["deblur", "--in", ins.records[rec].blurred_path,
                "--preset", "tv-prewitt",
                "--support", str(self.sizes.support), "--restrict-support",
                "--out", os.path.join(out_dir, "restored.pgm"),
                "--kernel-out", os.path.join(out_dir, "kernel.txt")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed("deblur exited with %d" % code)

    def check(self, ins, rec, out_dir):
        image_path = os.path.join(out_dir, "restored.pgm")
        kernel_path = os.path.join(out_dir, "kernel.txt")
        restored = _finite(imaging.load_image(image_path), "restored image")
        if restored.shape != (self.sizes.image,) * 2:
            raise CheckFailed("restored image is %s" % (restored.shape,))
        kernel = imaging.check_kernel(imaging.load_kernel(kernel_path))
        if kernel.shape != (self.sizes.support,) * 2:
            raise CheckFailed("kernel is %s" % (kernel.shape,))
        record = ins.records[rec]
        psnr_db = aligned_psnr(restored, record.sharp, self.sizes.support // 2)
        quality = {
            "psnr_db": psnr_db,
            "isnr_db": psnr_db - metrics.psnr(record.blurred, record.sharp),
            "kernel_rmse": metrics.kernel_rmse(kernel, record.kernel)}
        return _digest(image_path, kernel_path), quality


WORKLOADS = {w.name: w for w in (Train, Eval, Deblur)}
