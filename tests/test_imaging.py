"""Image and kernel file I/O."""

import numpy as np
import pytest

from unrolled_deblur import imaging
from unrolled_deblur.errors import (CorruptHeader, EvenSize, NegativeWeight,
                                    NonFiniteInput, NotNormalized,
                                    TruncatedData, UnsupportedFormat)


# ---------------------------------------------------------------------------
# PGM round trips


def test_p5_roundtrip_8bit(tmp_path, rng):
    img = rng.random((12, 17))
    path = str(tmp_path / "a.pgm")
    imaging.save_image(img, path)
    back = imaging.load_image(path)
    assert back.shape == img.shape
    # quantization to 255 levels loses at most half a step
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_p5_roundtrip_16bit(tmp_path, rng):
    img = rng.random((9, 9))
    path = str(tmp_path / "a.pgm")
    imaging.save_image(img, path, maxval=65535)
    back = imaging.load_image(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-15


def _write_p2(path, image, maxval):
    """Write image as ascii P2 text, quantized as save_image quantizes."""
    q = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(np.int64)
    rows = "\n".join(" ".join(str(v) for v in row) for row in q)
    header = "P2\n%d %d\n%d\n" % (image.shape[1], image.shape[0], maxval)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + rows + "\n")


def test_p2_matches_p5(tmp_path, rng):
    img = rng.random((7, 5))
    pb = str(tmp_path / "b.pgm")
    pa = str(tmp_path / "a.pgm")
    imaging.save_image(img, pb)
    _write_p2(pa, img, 255)
    assert np.array_equal(imaging.load_image(pb), imaging.load_image(pa))


def test_p2_matches_p5_16bit(tmp_path, rng):
    img = rng.random((4, 6))
    pb = str(tmp_path / "b.pgm")
    pa = str(tmp_path / "a.pgm")
    imaging.save_image(img, pb, maxval=65535)
    _write_p2(pa, img, 65535)
    assert np.array_equal(imaging.load_image(pb), imaging.load_image(pa))


@pytest.mark.parametrize("maxval, raster", [
    (255, bytes([0, 64, 255])),
    (65535, bytes([0x00, 0x00, 0x40, 0x00, 0xFF, 0xFF])),
])
def test_save_image_writes_p5(tmp_path, maxval, raster):
    path = tmp_path / "a.pgm"
    imaging.save_image(np.array([[0.0, 0.25, 1.0]]), str(path), maxval=maxval)
    assert path.read_bytes() == b"P5\n3 1\n%d\n" % maxval + raster


def test_save_clamps_out_of_range(tmp_path):
    img = np.array([[-0.5, 0.25], [1.5, 1.0]])
    path = str(tmp_path / "c.pgm")
    imaging.save_image(img, path)
    back = imaging.load_image(path)
    assert back[0, 0] == 0.0
    assert back[1, 0] == 1.0
    assert back[1, 1] == 1.0


def test_header_comments_and_whitespace(tmp_path):
    raw = b"P2 # magic\n# a comment line\n  2 2 # dims\n255\n0 128\n255 64\n"
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = imaging.load_image(str(path))
    assert img.shape == (2, 2)
    assert img[0, 0] == 0.0
    assert img[1, 0] == 1.0
    assert img[0, 1] == 128 / 255


def test_p5_16bit_is_big_endian(tmp_path):
    # sample value 0x0102 = 258 stored high byte first
    raw = b"P5\n2 1\n65535\n" + bytes([0x01, 0x02, 0xFF, 0xFF])
    path = tmp_path / "b.pgm"
    path.write_bytes(raw)
    img = imaging.load_image(str(path))
    assert img[0, 0] == 258 / 65535
    assert img[0, 1] == 1.0


def test_p5_raster_may_contain_whitespace_bytes(tmp_path):
    # binary samples that collide with ASCII whitespace must pass through
    vals = bytes([10, 13, 32, 9])
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P5\n4 1\n255\n" + vals)
    img = imaging.load_image(str(path))
    assert np.array_equal(img * 255, np.array([[10, 13, 32, 9]], dtype=float))


# ---------------------------------------------------------------------------
# PGM failure taxonomy


@pytest.mark.parametrize("magic", [b"P6", b"P3", b"P1", b"P4"])
def test_unsupported_pnm_variants(tmp_path, magic):
    path = tmp_path / "x.pnm"
    path.write_bytes(magic + b"\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(UnsupportedFormat):
        imaging.load_image(str(path))


def test_unrecognized_magic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"GIF89a")
    with pytest.raises(UnsupportedFormat):
        imaging.load_image(str(path))


def test_empty_file(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_header_ends_early(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4 4")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_comment_at_end_of_file_is_not_a_token(tmp_path):
    # a scanner that splits the comment would return 9 as the maxval
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2 2 2 #9\n")
    with pytest.raises(CorruptHeader, match="^file ends inside header$"):
        imaging.load_image(str(path))


def test_non_numeric_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\nfour 4\n255\n")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_bad_dimensions(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n0 4\n255\n")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_odd_maxval_rejected(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n1023\n\x00\x00")
    with pytest.raises(UnsupportedFormat):
        imaging.load_image(str(path))


def test_truncated_binary_raster(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n3 3\n255\n\x00\x01")
    with pytest.raises(TruncatedData):
        imaging.load_image(str(path))


def test_truncated_ascii_raster(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n3 3\n255\n0 1 2 3\n")
    with pytest.raises(TruncatedData):
        imaging.load_image(str(path))


def test_ascii_sample_out_of_range(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n2 1\n255\n0 256\n")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_ascii_sample_not_numeric(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n2 1\n255\n0 abc\n")
    with pytest.raises(CorruptHeader):
        imaging.load_image(str(path))


def test_save_rejects_bad_maxval(tmp_path):
    with pytest.raises(UnsupportedFormat):
        imaging.save_image(np.zeros((2, 2)), str(tmp_path / "x.pgm"), maxval=1024)


def test_save_rejects_non_2d(tmp_path):
    with pytest.raises(UnsupportedFormat):
        imaging.save_image(np.zeros(4), str(tmp_path / "x.pgm"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_image_rejects_non_finite_and_writes_nothing(tmp_path, bad):
    # the clamp used to write NaN as black and Inf as white without a word
    image = np.full((4, 4), 0.5)
    image[1, 2] = bad
    path = tmp_path / "x.pgm"
    with pytest.raises(NonFiniteInput):
        imaging.save_image(image, str(path))
    assert not path.exists()


# ---------------------------------------------------------------------------
# kernel files


def test_kernel_roundtrip_bitwise(tmp_path, rng, make_kernel):
    k = make_kernel(7)
    path = str(tmp_path / "k.txt")
    imaging.save_kernel(k, path)
    back = imaging.load_kernel(path)
    # 17 significant digits reproduce float64 exactly
    assert np.max(np.abs(back - k)) == 0.0


def test_kernel_file_layout(tmp_path):
    k = np.pad([[1.0]], 1)
    path = tmp_path / "k.txt"
    imaging.save_kernel(k, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "KERNEL v1"
    assert lines[1] == "3 3"
    assert len(lines) == 5


def test_load_kernel_renormalizes_small_drift(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n1 1\n1.0000005\n")
    k = imaging.load_kernel(str(path))
    assert k.sum() == 1.0


def test_load_kernel_rejects_large_drift(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n1 1\n1.002\n")
    with pytest.raises(NotNormalized):
        imaging.load_kernel(str(path))


def test_load_kernel_negative_weight(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3 3\n0 0.5 0\n-0.001 0.501 0\n0 0 0\n")
    with pytest.raises(NegativeWeight, match="k.txt: negative weight -1.000e-03"):
        imaging.load_kernel(str(path))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_kernel_non_finite_weight(tmp_path, bad):
    # 0.5 + 0.5 + nan: NaN fails neither the sign nor the sum test
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3 3\n0 0.5 0\n0 %s 0\n0 0.5 0\n" % bad)
    with pytest.raises(NonFiniteInput, match="k.txt"):
        imaging.load_kernel(str(path))


def test_load_kernel_even_size(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n2 2\n0.25 0.25\n0.25 0.25\n")
    with pytest.raises(EvenSize):
        imaging.load_kernel(str(path))


def test_load_kernel_checks_the_body_before_the_size(tmp_path):
    # the size line is only checked for shape; the even-size check runs
    # with the other kernel checks, after the weights are parsed
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n2 2\n0.25 0.25\n")
    with pytest.raises(TruncatedData):
        imaging.load_kernel(str(path))


def test_load_kernel_missing_magic(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("3 3\n0 0 0 0 1 0 0 0 0\n")
    with pytest.raises(CorruptHeader):
        imaging.load_kernel(str(path))


def test_load_kernel_bad_size_line(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3\n0 0 0 0 1 0 0 0 0\n")
    with pytest.raises(CorruptHeader):
        imaging.load_kernel(str(path))


def test_load_kernel_non_square(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3 5\n" + ("0 " * 15) + "\n")
    with pytest.raises(CorruptHeader):
        imaging.load_kernel(str(path))


def test_load_kernel_truncated(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3 3\n0 0 0 0 1\n")
    with pytest.raises(TruncatedData):
        imaging.load_kernel(str(path))


def test_load_kernel_non_numeric_weight(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("KERNEL v1\n3 3\n0 0 0 0 one 0 0 0 0\n")
    with pytest.raises(CorruptHeader):
        imaging.load_kernel(str(path))


def test_save_kernel_validates(tmp_path):
    bad = np.full((3, 3), 0.2)
    with pytest.raises(NotNormalized):
        imaging.save_kernel(bad, str(tmp_path / "k.txt"))


def test_save_kernel_rejects_nan_and_writes_nothing(tmp_path):
    # a NaN kernel would otherwise be written and then refused by load_kernel
    path = tmp_path / "k.txt"
    with pytest.raises(NonFiniteInput):
        imaging.save_kernel(np.array([[np.nan]]), str(path))
    assert not path.exists()


# ---------------------------------------------------------------------------
# kernel helpers


def test_check_kernel_accepts_valid(make_kernel):
    k = make_kernel(5)
    assert imaging.check_kernel(k) is not None


def test_check_kernel_tolerance():
    k = np.pad([[1.0]], 1)
    k[1, 1] = 1.0 + 1e-9
    with pytest.raises(NotNormalized):
        imaging.check_kernel(k)
    imaging.check_kernel(k, tol=1e-6)


def test_check_kernel_negative():
    k = np.pad([[1.0]], 1)
    k[0, 0] = -0.1
    k[1, 1] = 1.1
    with pytest.raises(NegativeWeight):
        imaging.check_kernel(k)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_kernel_non_finite(bad):
    k = np.pad([[1.0]], 1)
    k[0, 0] = bad
    with pytest.raises(NonFiniteInput):
        imaging.check_kernel(k)


def test_check_kernel_shape():
    with pytest.raises(CorruptHeader):
        imaging.check_kernel(np.ones((3, 5)) / 15)
    with pytest.raises(EvenSize):
        imaging.check_kernel(np.ones((4, 4)) / 16)
