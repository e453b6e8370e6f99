"""Seeded benchmark inputs: scenes, motion kernels, records and the model.

A workload has two input sets. The timed set is a pure function of the
workload seed. The reference set is built the same way from
REFERENCE_SEED, so it is identical in every run: the warm-up operations
run on it, and the quality figures come from it, so they move only when
the program's numerics move and never with the seed.

Scenes are multi-scale piecewise-constant textures, and kernels are
straight motion streaks of a fixed length and angle per record, so every
seed gives the same amount of solver work. Files are written with the
program's own writers, as `gen-dataset` and `train` leave them on disk.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from unrolled_deblur import imaging, kernelgen, training, unroll

# scene block sizes in pixels; coarse blocks carry most of the contrast
SCENE_CELLS = (32, 16, 8)
SCENE_CONTRAST = 0.4

# generated-model weights: with these the last layer keeps most features
# above the threshold and the kernel update never falls back to the impulse
MODEL_B = 0.02
MODEL_LAM = 1e-3

# seed of the reference input set
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Input dimensions of one workload."""

    image: int          # square image side in pixels
    support: int        # odd kernel support
    length: float       # motion streak length in pixels
    sigma: float        # gaussian noise level of the blurred records
    records: int        # distinct records that operations cycle through
    layers: int = 0     # unrolled layers of the generated model
    channels: int = 0   # filter channels of the generated model


# the sizes the benchmark reports; see README.md for why
FULL = {
    "train": Sizes(image=128, support=31, length=11.0, sigma=0.01, records=4,
                   layers=10, channels=16),
    "eval": Sizes(image=128, support=31, length=11.0, sigma=0.01, records=4,
                  layers=10, channels=16),
    "deblur": Sizes(image=512, support=15, length=9.0, sigma=0.005, records=2),
}

# toy sizes for the smoke test: same code paths, a fraction of a second each
TOY = {
    "train": Sizes(image=32, support=7, length=4.0, sigma=0.01, records=2,
                   layers=2, channels=2),
    "eval": Sizes(image=32, support=7, length=4.0, sigma=0.01, records=2,
                  layers=2, channels=2),
    "deblur": Sizes(image=48, support=7, length=4.0, sigma=0.005, records=2),
}


class ModelCheckFailed(Exception):
    """The generated model would time a path no trained model takes."""


def scene(rng, size):
    """Multi-scale block texture in [0, 1]."""
    img = np.full((size, size), 0.5)
    for cell in SCENE_CELLS:
        n = -(-size // cell)
        grid = rng.random((n, n)) - 0.5
        blocks = np.kron(grid, np.ones((cell, cell)))[:size, :size]
        img += SCENE_CONTRAST * math.sqrt(cell / SCENE_CELLS[0]) * blocks
    return np.clip(img, 0.0, 1.0)


@dataclass
class Record:
    """Paths of one generated record plus its decoded arrays."""

    manifest: str       # one-record manifest CSV
    blurred_path: str
    sharp: np.ndarray
    blurred: np.ndarray  # as decoded from the 16-bit PGM
    kernel: np.ndarray


@dataclass
class InputSet:
    """Records, plus the checkpointed model for the workloads that need one."""

    name: str
    records: list
    model: str | None = None
    config: training.TrainConfig | None = None
    surviving: float | None = None   # last-layer survival of the model
    params: object = None            # the model, loaded at set-up


def write_records(out_dir, seed, sizes, count):
    """Write `count` blurred/sharp/kernel triples with one-record manifests."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for r in range(count):
        rng = np.random.default_rng([seed, r])
        sharp = scene(rng, sizes.image)
        kernel = kernelgen.linear_motion_kernel(
            math.pi * (r + 0.5) / sizes.records, sizes.length, sizes.support)
        blurred = kernelgen.synthesize_blurred(sharp, kernel, sizes.sigma,
                                               (seed, r))
        stem = "rec_%02d" % r
        names = [stem + "_blur.pgm", stem + "_sharp.pgm", stem + "_kernel.txt"]
        paths = [os.path.join(out_dir, n) for n in names]
        imaging.save_image(blurred, paths[0], maxval=65535)
        imaging.save_image(sharp, paths[1], maxval=65535)
        imaging.save_kernel(kernel, paths[2])
        manifest = os.path.join(out_dir, stem + "_manifest.csv")
        with open(manifest, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(kernelgen.MANIFEST_FIELDS)
            writer.writerow(names + ["%.17g" % sizes.sigma])
        records.append(Record(
            manifest=manifest, blurred_path=paths[0],
            sharp=imaging.load_image(paths[1]),
            blurred=imaging.load_image(paths[0]),
            kernel=imaging.load_kernel(paths[2])))
    return records


def train_config(seed, sizes):
    """One epoch of batch-1 Adam: one optimizer step per one-record manifest."""
    return training.TrainConfig(
        layers=sizes.layers, channels=sizes.channels,
        kernel_support=sizes.support, kappa=1e5, lr=1e-3, epochs=1,
        batch_size=1, seed=seed)


def generate_model(config):
    """Glorot filters from the seed with live thresholds (MODEL_B, MODEL_LAM)."""
    params = training.init_params(config)
    params.b[:] = MODEL_B
    params.lam[:] = MODEL_LAM
    return params.validate()


def check_model(params, blurred):
    """Reject a model whose forward pass degenerates; returns the survival.

    The last layer's fraction of features above the threshold must lie
    strictly between 0 and 1, and no layer's kernel plane may be the
    impulse that `l1_normalize` substitutes for an all-zero plane.
    """
    _, g, _, state = unroll.forward(blurred, params)
    thresholds = params.b[-1]
    surviving = float(np.mean([np.mean(np.abs(gi) > t)
                               for gi, t in zip(g, thresholds)]))
    if not 0.0 < surviving < 1.0:
        raise ModelCheckFailed("last layer keeps %.3f of its features"
                               % surviving)
    fallback = np.zeros_like(state.kernel_planes[0])
    fallback[0, 0] = 1.0
    for layer, plane in enumerate(state.kernel_planes):
        if np.array_equal(plane, fallback):
            raise ModelCheckFailed("layer %d kernel is the impulse fallback"
                                   % (layer + 1))
    return surviving


def write_set(out_dir, seed, sizes, count, with_model):
    """Write `count` records and, if asked, the generated and checked model."""
    ins = InputSet(os.path.basename(out_dir),
                   write_records(out_dir, seed, sizes, count))
    if with_model:
        ins.config = train_config(seed, sizes)
        params = generate_model(ins.config)
        ins.surviving = check_model(params, ins.records[0].blurred)
        ins.model = os.path.join(out_dir, "model.ckpt")
        training.save_checkpoint(ins.model, params,
                                 training.AdamState.zeros(params), step=0,
                                 epoch=0, lr=ins.config.lr, config=ins.config)
    return ins
