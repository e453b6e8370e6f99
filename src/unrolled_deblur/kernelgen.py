"""Synthetic motion kernels and blurred/sharp training records.

Linear kernels rasterize a centered segment by dense point sampling with
bilinear splatting; trajectory kernels integrate a damped random walk and
splat its path the same way. Records pair a blurred observation (circular
convolution plus unclamped gaussian noise) with its sharp source and true
kernel, listed in a manifest CSV. write_records is the one record builder:
it takes kernel arrays, whether loaded from kernel files or made by the
generators here.
"""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import imaging, spectral
from .errors import (CorruptHeader, DeblurError, EmptyDirectory, EvenSize,
                     ImageTooSmall, InvalidParameter, NoUsableImages,
                     SupportTooSmall)

# trajectory random walk: v <- TRAJ_DAMPING * v + N(0, TRAJ_STEP_VAR) per axis
TRAJ_STEPS = 256
TRAJ_DAMPING = 0.95
TRAJ_STEP_VAR = 0.25

MANIFEST_FIELDS = ["blurred", "sharp", "kernel", "sigma"]


def _splat(rows, cols, size):
    """Accumulate unit masses at fractional positions with bilinear weights."""
    grid = np.zeros((size, size))
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    fr = rows - r0
    fc = cols - c0
    for dr, dc, wt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                       (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr = r0 + dr
        cc = c0 + dc
        keep = wt > 0
        if np.any((rr[keep] < 0) | (rr[keep] >= size)
                  | (cc[keep] < 0) | (cc[keep] >= size)):
            raise SupportTooSmall("splat position outside %dx%d grid" % (size, size))
        np.add.at(grid, (rr[keep], cc[keep]), wt[keep])
    return grid


def linear_motion_kernel(angle, length, support):
    """Straight motion of the given length (pixels) and angle (radians).

    The segment runs from center - (length/2)(cos a, sin a) to
    center + (length/2)(cos a, sin a); max(1000, 100*length) equispaced
    samples are splatted bilinearly and the mass normalized to one.
    Bilinear spill claims one cell beyond each endpoint, hence the
    support >= ceil(length) + 2 requirement.
    """
    if support % 2 == 0:
        raise EvenSize("kernel support %d is even" % support)
    if length <= 0:
        raise SupportTooSmall("length must be positive, got %g" % length)
    if support < math.ceil(length) + 2:
        raise SupportTooSmall("support %d < ceil(length) + 2 = %d"
                              % (support, math.ceil(length) + 2))
    n = max(1000, int(math.ceil(100 * length)))
    center = (support - 1) / 2.0
    t = np.linspace(-0.5, 0.5, n)
    cols = center + t * (length * math.cos(angle))
    rows = center + t * (length * math.sin(angle))
    grid = _splat(rows, cols, support)
    return grid / grid.sum()


def trajectory_motion_kernel(seed, support):
    """Camera-shake style kernel from a seeded damped random walk.

    The 256-step path is recentered on its centroid, shrunk (never
    enlarged) so its largest axis offset fits within (support-1)/2, then
    splatted bilinearly and normalized.
    """
    if support % 2 == 0:
        raise EvenSize("kernel support %d is even" % support)
    if support < 3:
        raise SupportTooSmall("support %d too small for a trajectory" % support)
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, math.sqrt(TRAJ_STEP_VAR), size=(TRAJ_STEPS, 2))
    velocity = np.zeros(2)
    position = np.zeros(2)
    path = np.empty((TRAJ_STEPS, 2))
    for i, kick in enumerate(steps):
        velocity = TRAJ_DAMPING * velocity + kick
        position = position + velocity
        path[i] = position
    path = path - path.mean(axis=0)
    extent = float(np.abs(path).max())
    half = (support - 1) / 2.0
    if extent > half:
        path = path * (half / extent)
    center = (support - 1) / 2.0
    grid = _splat(center + path[:, 0], center + path[:, 1], support)
    return grid / grid.sum()


def synthesize_blurred(sharp, kernel, sigma, seed):
    """Blur a sharp image circularly and add iid gaussian noise.

    The result is left unclamped; clamping happens only at save time.
    Deterministic in the seed. sigma must be finite and >= 0.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidParameter("noise sigma must be finite and >= 0, got %r"
                               % sigma)
    sharp = np.asarray(sharp, dtype=np.float64)
    h, w = sharp.shape
    blurred = spectral.circ_conv(sharp, spectral.embed_kernel(kernel, h, w))
    if sigma > 0:
        blurred = blurred + np.random.default_rng(seed).normal(0.0, sigma, (h, w))
    return blurred


def center_crop(image, patch):
    """Centered square crop; raises ImageTooSmall when it cannot fit."""
    h, w = image.shape
    if h < patch or w < patch:
        raise ImageTooSmall("image %dx%d smaller than patch %d" % (h, w, patch))
    top = (h - patch) // 2
    left = (w - patch) // 2
    return image[top:top + patch, left:left + patch].copy()


def _usable_images(image_dir, patch):
    names = sorted(n for n in os.listdir(image_dir)
                   if n.lower().endswith(".pgm"))
    if not names:
        raise EmptyDirectory("no PGM files in %s" % image_dir)
    usable = []
    for name in names:
        try:
            img = imaging.load_image(os.path.join(image_dir, name))
        except DeblurError:
            continue
        if img.shape[0] >= patch and img.shape[1] >= patch:
            usable.append(img)
    if not usable:
        raise NoUsableImages("no usable images in %s (%d skipped)"
                             % (image_dir, len(names)))
    return usable


def write_records(image_dir, kernels, sigma, patch, out_dir, seed):
    """Write blurred/sharp/kernel triples plus manifest.csv to out_dir.

    `kernels` is a list of kernel arrays. Every usable image is paired
    with every kernel; record i draws its noise from (seed, i) so the
    stream never depends on generation order. Returns the record count.
    """
    usable = _usable_images(image_dir, patch)
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    index = 0
    for img in usable:
        sharp = center_crop(img, patch)
        for kernel in kernels:
            blurred = synthesize_blurred(sharp, kernel, sigma, (seed, index))
            stem = "rec_%05d" % index
            blur_file = stem + "_blur.pgm"
            sharp_file = stem + "_sharp.pgm"
            kernel_file = stem + "_kernel.txt"
            imaging.save_image(blurred, os.path.join(out_dir, blur_file),
                               maxval=65535)
            imaging.save_image(sharp, os.path.join(out_dir, sharp_file),
                               maxval=65535)
            imaging.save_kernel(kernel, os.path.join(out_dir, kernel_file))
            rows.append({"blurred": blur_file, "sharp": sharp_file,
                         "kernel": kernel_file, "sigma": "%.17g" % sigma})
            index += 1
    with open(os.path.join(out_dir, "manifest.csv"), "w",
              encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return index


@dataclass
class DatasetRecord:
    """One manifest row with its arrays loaded."""

    blurred_path: str
    blurred: np.ndarray
    sharp: np.ndarray
    kernel: np.ndarray


def load_manifest(manifest_path):
    """Load every record listed in a manifest CSV (paths relative to it).

    A bad header, a row without exactly one value per field, or a sigma
    that is not a number raises CorruptHeader naming the manifest line.
    The sigma column records how a record was made; nothing reads it.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = []
    with open(manifest_path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != MANIFEST_FIELDS:
            raise CorruptHeader("manifest %s: header %s, expected %s"
                                % (manifest_path, reader.fieldnames, MANIFEST_FIELDS))
        for row in reader:
            where = "manifest %s line %d" % (manifest_path, reader.line_num)
            # DictReader files surplus values under None, missing ones as None
            if None in row or None in row.values():
                raise CorruptHeader("%s: expected %d fields"
                                    % (where, len(MANIFEST_FIELDS)))
            try:
                float(row["sigma"])
            except ValueError:
                raise CorruptHeader("%s: sigma %r is not a number"
                                    % (where, row["sigma"])) from None
            records.append(DatasetRecord(
                blurred_path=row["blurred"],
                blurred=imaging.load_image(os.path.join(base, row["blurred"])),
                sharp=imaging.load_image(os.path.join(base, row["sharp"])),
                kernel=imaging.load_kernel(os.path.join(base, row["kernel"]))))
    if not records:
        raise NoUsableImages("manifest %s lists no records" % manifest_path)
    return records
