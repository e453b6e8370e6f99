"""Synthetic kernels and dataset generation."""

import math
import os

import numpy as np
import pytest

from unrolled_deblur import imaging, kernelgen
from unrolled_deblur.errors import (CorruptHeader, DeblurError,
                                    EmptyDirectory, EvenSize, ImageTooSmall,
                                    InvalidParameter, NoUsableImages,
                                    SupportTooSmall)


# ---------------------------------------------------------------------------
# linear kernels


def test_linear_axis_aligned_profile():
    # frozen from the 1000-sample rasterization of a length-5 segment:
    # interior cells carry just under 0.2 because bilinear spill leaks
    # half a sample's mass past each endpoint
    k = kernelgen.linear_motion_kernel(0.0, 5.0, 7)
    expected = [0.025225225225225, 0.175075075075075, 0.1997997997998,
                0.1997997997998, 0.1997997997998, 0.175075075075075,
                0.025225225225225]
    assert np.allclose(k[3], expected, atol=1e-12)
    assert np.abs(np.delete(k, 3, axis=0)).sum() == 0.0


def test_linear_vertical_is_transpose_of_horizontal():
    kh = kernelgen.linear_motion_kernel(0.0, 5.0, 7)
    kv = kernelgen.linear_motion_kernel(math.pi / 2, 5.0, 7)
    assert np.max(np.abs(kv - kh.T)) < 1e-12


def test_linear_opposite_angle_same_kernel():
    a = kernelgen.linear_motion_kernel(0.7, 6.0, 11)
    b = kernelgen.linear_motion_kernel(0.7 + math.pi, 6.0, 11)
    assert np.max(np.abs(a - b)) < 1e-12


def test_linear_matches_denser_sampling():
    # discretization check: 10x the samples moves no cell by more than 1e-3
    angle, length, support = math.pi / 4, 8.0, 11
    got = kernelgen.linear_motion_kernel(angle, length, support)

    n = 10000
    center = (support - 1) / 2.0
    t = np.linspace(-0.5, 0.5, n)
    cols = center + t * (length * math.cos(angle))
    rows = center + t * (length * math.sin(angle))
    grid = np.zeros((support, support))
    for r, c in zip(rows, cols):
        r0, c0 = int(np.floor(r)), int(np.floor(c))
        fr, fc = r - r0, c - c0
        grid[r0, c0] += (1 - fr) * (1 - fc)
        grid[r0, c0 + 1] += (1 - fr) * fc
        grid[r0 + 1, c0] += fr * (1 - fc)
        grid[r0 + 1, c0 + 1] += fr * fc
    ref = grid / grid.sum()
    assert np.max(np.abs(got - ref)) < 1e-3


def test_linear_kernels_are_valid(rng):
    for _ in range(10):
        angle = float(rng.random() * 2 * math.pi)
        length = float(rng.random() * 8 + 1)
        support = math.ceil(length) + 3
        support += 1 - support % 2
        k = kernelgen.linear_motion_kernel(angle, length, support)
        assert k.shape == (support, support)
        imaging.check_kernel(k)


def test_linear_support_requirement():
    with pytest.raises(SupportTooSmall):
        kernelgen.linear_motion_kernel(0.0, 5.0, 5)
    kernelgen.linear_motion_kernel(0.0, 5.0, 7)


def test_linear_rejects_even_support():
    with pytest.raises(EvenSize):
        kernelgen.linear_motion_kernel(0.0, 5.0, 8)


def test_linear_rejects_non_positive_length():
    with pytest.raises(SupportTooSmall):
        kernelgen.linear_motion_kernel(0.0, 0.0, 7)


# ---------------------------------------------------------------------------
# trajectory kernels


def test_trajectory_deterministic():
    a = kernelgen.trajectory_motion_kernel(7, 15)
    b = kernelgen.trajectory_motion_kernel(7, 15)
    c = kernelgen.trajectory_motion_kernel(8, 15)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-6


def test_trajectory_centered_mass():
    # recentering on the path centroid + bilinear splatting keeps the
    # first moment at the grid center exactly
    k = kernelgen.trajectory_motion_kernel(42, 15)
    r = np.arange(15, dtype=np.float64)
    cy = float((k.sum(axis=1) * r).sum())
    cx = float((k.sum(axis=0) * r).sum())
    assert abs(cy - 7.0) < 1e-9
    assert abs(cx - 7.0) < 1e-9
    imaging.check_kernel(k)


def test_trajectory_fits_small_support():
    # the path is shrunk, never clipped, so tiny supports still work
    for seed in range(5):
        k = kernelgen.trajectory_motion_kernel(seed, 5)
        imaging.check_kernel(k)


def test_trajectory_rejects_bad_support():
    with pytest.raises(EvenSize):
        kernelgen.trajectory_motion_kernel(0, 6)
    with pytest.raises(SupportTooSmall):
        kernelgen.trajectory_motion_kernel(0, 1)


# ---------------------------------------------------------------------------
# blurring


def test_synthesize_impulse_noiseless_is_identity(rng):
    sharp = rng.random((16, 16))
    out = kernelgen.synthesize_blurred(sharp, imaging.impulse_kernel(5), 0.0, 0)
    assert np.max(np.abs(out - sharp)) < 1e-12


def test_synthesize_preserves_constants(rng, make_kernel):
    sharp = np.full((12, 12), 0.6)
    out = kernelgen.synthesize_blurred(sharp, make_kernel(5), 0.0, 0)
    assert np.max(np.abs(out - 0.6)) < 1e-12


def test_synthesize_deterministic_in_seed(rng, make_kernel):
    sharp = rng.random((12, 12))
    k = make_kernel(3)
    a = kernelgen.synthesize_blurred(sharp, k, 0.05, 123)
    b = kernelgen.synthesize_blurred(sharp, k, 0.05, 123)
    c = kernelgen.synthesize_blurred(sharp, k, 0.05, 124)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-6


def test_synthesize_noise_scale(make_kernel):
    sharp = np.full((64, 64), 0.5)
    k = make_kernel(3)
    sigma = 0.05
    devs = []
    for seed in range(10):
        out = kernelgen.synthesize_blurred(sharp, k, sigma, seed)
        devs.append(np.std(out - 0.5))
    pooled = float(np.mean(devs))
    assert abs(pooled - sigma) / sigma < 0.05


@pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
def test_synthesize_rejects_bad_sigma(make_kernel, sigma):
    # a negative or NaN sigma used to skip the noise silently
    with pytest.raises(InvalidParameter, match="sigma"):
        kernelgen.synthesize_blurred(np.full((8, 8), 0.5), make_kernel(3),
                                     sigma, 0)


def test_synthesize_leaves_values_unclamped():
    sharp = np.ones((16, 16))
    out = kernelgen.synthesize_blurred(sharp, imaging.impulse_kernel(3), 0.2, 0)
    assert out.max() > 1.0


# ---------------------------------------------------------------------------
# cropping


def test_center_crop():
    img = np.arange(36, dtype=np.float64).reshape(6, 6)
    got = kernelgen.center_crop(img, 4)
    assert np.array_equal(got, img[1:5, 1:5])
    with pytest.raises(ImageTooSmall):
        kernelgen.center_crop(img, 7)


# ---------------------------------------------------------------------------
# dataset assembly


LINEAR = [kernelgen.linear_motion_kernel(0.0, 5.0, 9)]


def _seed_images(dirpath, rng, count=2, size=40):
    os.makedirs(dirpath, exist_ok=True)
    for i in range(count):
        img = rng.random((size, size))
        imaging.save_image(img, os.path.join(dirpath, "src_%d.pgm" % i),
                           maxval=65535)


def test_build_dataset_roundtrip(tmp_path, rng):
    src = str(tmp_path / "src")
    out = str(tmp_path / "out")
    _seed_images(src, rng)
    kernels = [kernelgen.linear_motion_kernel(0.0, 5.0, 9),
               kernelgen.linear_motion_kernel(1.0, 6.0, 9),
               kernelgen.trajectory_motion_kernel(1, 9),
               kernelgen.trajectory_motion_kernel(2, 9)]
    n = kernelgen.write_records(src, kernels, 0.01, 32, out, seed=5)
    assert n == 8

    records = kernelgen.load_manifest(os.path.join(out, "manifest.csv"))
    assert len(records) == 8
    for rec in records:
        assert rec.blurred.shape == (32, 32)
        assert rec.sharp.shape == (32, 32)
        imaging.check_kernel(rec.kernel, tol=1e-6)


def test_build_dataset_rerun_is_byte_identical(tmp_path, rng):
    src = str(tmp_path / "src")
    _seed_images(src, rng)
    kernels = [kernelgen.linear_motion_kernel(0.3, 5.0, 9)]
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        kernelgen.write_records(src, kernels, 0.02, 32, out, seed=9)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as fa:
            a = fa.read()
        with open(os.path.join(outs[1], name), "rb") as fb:
            b = fb.read()
        assert a == b, name


def test_build_dataset_skips_bad_sources(tmp_path, rng):
    src = tmp_path / "src"
    _seed_images(str(src), rng, count=1)
    (src / "broken.pgm").write_bytes(b"P5\n9 9\n255\n")  # truncated
    imaging.save_image(rng.random((8, 8)), str(src / "tiny.pgm"))  # too small
    n = kernelgen.write_records(str(src), LINEAR, 0.0, 32, str(tmp_path / "out"), 0)
    assert n == 1


def test_build_dataset_empty_and_unusable_dirs(tmp_path, rng):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyDirectory):
        kernelgen.write_records(str(empty), LINEAR, 0.0, 32, str(tmp_path / "o1"), 0)

    bad = tmp_path / "bad"
    bad.mkdir()
    imaging.save_image(rng.random((8, 8)), str(bad / "tiny.pgm"))
    with pytest.raises(NoUsableImages):
        kernelgen.write_records(str(bad), LINEAR, 0.0, 32, str(tmp_path / "o2"), 0)


def test_load_manifest_rejects_wrong_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("blurred,sharp,kernel\nx,y,z\n")
    with pytest.raises(DeblurError):
        kernelgen.load_manifest(str(path))


def test_load_manifest_rejects_empty(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("blurred,sharp,kernel,sigma\n")
    with pytest.raises(NoUsableImages):
        kernelgen.load_manifest(str(path))


@pytest.mark.parametrize("row, why", [
    ("x_blur.pgm,x_sharp.pgm", "expected 4 fields"),
    ("x_blur.pgm,x_sharp.pgm,x_kernel.txt,0.01,extra", "expected 4 fields"),
    ("x_blur.pgm,x_sharp.pgm,x_kernel.txt,abc", "sigma 'abc' is not a number"),
])
def test_load_manifest_rejects_malformed_row(tmp_path, row, why):
    path = tmp_path / "manifest.csv"
    path.write_text("blurred,sharp,kernel,sigma\n\n" + row + "\n")
    with pytest.raises(CorruptHeader) as info:
        kernelgen.load_manifest(str(path))
    assert str(info.value) == "manifest %s line 3: %s" % (path, why)
