"""Grayscale image and blur-kernel data model with file I/O.

Images are 2-D float64 arrays with intensities nominally in [0, 1];
intermediate computation may leave that range and values are clamped only
when written to disk. Kernels are odd square float64 arrays, nonnegative,
summing to one within 1e-12.

Image files are PGM with maxval 255 or 65535, read as P2 (ascii) or P5
(binary) and always written as P5, 16-bit samples big-endian as in the
Netpbm spec. Kernels use a small text format:

    KERNEL v1
    <K> <K>
    <K rows of K floats, space separated>

check_kernel is the one place the kernel invariants are checked; both
save_kernel and load_kernel go through it.
"""

import re

import numpy as np

from .errors import (CorruptHeader, DeblurError, EvenSize, NegativeWeight,
                     NonFiniteInput, NotNormalized, TruncatedData,
                     UnsupportedFormat)

KERNEL_MAGIC = "KERNEL v1"
# stored kernels whose weights sum within this of 1 are renormalized on load
KERNEL_SUM_TOL = 1e-6


def check_kernel(kernel, tol=1e-12):
    """Validate the kernel invariants; returns the kernel unchanged."""
    kernel = np.asarray(kernel)
    if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
        raise CorruptHeader("kernel must be square, got %s" % (kernel.shape,))
    if kernel.shape[0] % 2 == 0:
        raise EvenSize("kernel size %d is even" % kernel.shape[0])
    if not np.all(np.isfinite(kernel)):  # NaN passes both tests below
        raise NonFiniteInput("kernel has %d non-finite weights"
                             % int(np.sum(~np.isfinite(kernel))))
    if np.any(kernel < 0):
        raise NegativeWeight("negative weight %.3e" % float(kernel.min()))
    s = float(np.sum(kernel))
    if abs(s - 1.0) > tol:
        raise NotNormalized("kernel sums to %.17g" % s)
    return kernel


# ---------------------------------------------------------------------------
# PGM


# the supported maxvals and their P5 sample types (16-bit is big-endian)
_SAMPLE_DTYPE = {255: np.dtype(np.uint8), 65535: np.dtype(">u2")}
# a token after whitespace and comments; the lookahead keeps a comment whole
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]+)")


def _header_tokens(data):
    """Return the first four header tokens and the offset just past them."""
    tokens, pos = [], 0
    for _ in range(4):
        match = _HEADER_TOKEN.match(data, pos)
        if match is None:
            raise CorruptHeader("file ends inside header")
        tokens.append(match.group(1))
        pos = match.end()
    # a single whitespace byte separates the maxval from the raster
    if data[pos:pos + 1].isspace():
        pos += 1
    return tokens, pos


def load_image(path):
    """Load a PGM file as a float64 array scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise CorruptHeader("%s: not a PGM file" % path)
    magic = data[:2]
    if magic in (b"P3", b"P6"):
        raise UnsupportedFormat("%s: color images are not supported, "
                                "convert to grayscale PGM first" % path)
    if magic in (b"P1", b"P4"):
        raise UnsupportedFormat("%s: bitmap PBM is not supported" % path)
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat("%s: unrecognized magic %r" % (path, magic))

    tokens, offset = _header_tokens(data)
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise CorruptHeader("%s: non-numeric header fields %s" % (path, tokens[1:4]))
    if width < 1 or height < 1:
        raise CorruptHeader("%s: bad dimensions %dx%d" % (path, width, height))
    if maxval not in _SAMPLE_DTYPE:
        raise UnsupportedFormat("%s: maxval %d (only 255 and 65535)" % (path, maxval))

    count = width * height
    if magic == b"P5":
        dtype = _SAMPLE_DTYPE[maxval]
        raster = data[offset:offset + count * dtype.itemsize]
        if len(raster) < count * dtype.itemsize:
            raise TruncatedData("%s: expected %d raster bytes, got %d"
                                % (path, count * dtype.itemsize, len(raster)))
        pixels = np.frombuffer(raster, dtype=dtype, count=count)
    else:
        fields = data[offset:].split()
        if len(fields) < count:
            raise TruncatedData("%s: expected %d samples, got %d"
                                % (path, count, len(fields)))
        try:
            pixels = np.array([int(f) for f in fields[:count]], dtype=np.int64)
        except ValueError:
            raise CorruptHeader("%s: non-numeric sample data" % path)
        if np.any(pixels < 0) or np.any(pixels > maxval):
            raise CorruptHeader("%s: sample out of range [0, %d]" % (path, maxval))

    img = pixels.astype(np.float64).reshape(height, width) / maxval
    return img


def save_image(image, path, maxval=255):
    """Write an image as P5 PGM, clamping to [0, 1] and quantizing to maxval.

    A NaN or Inf pixel raises NonFiniteInput before the file is opened.
    """
    if maxval not in _SAMPLE_DTYPE:
        raise UnsupportedFormat("maxval %d (only 255 and 65535)" % maxval)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise UnsupportedFormat("image must be 2-D, got shape %s" % (image.shape,))
    if not np.all(np.isfinite(image)):  # the clip would write NaN as 0
        raise NonFiniteInput("image has %d non-finite pixels"
                             % int(np.sum(~np.isfinite(image))))
    q = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(_SAMPLE_DTYPE[maxval])
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(q.tobytes())


# ---------------------------------------------------------------------------
# kernel files


def load_kernel(path):
    """Load a kernel text file, renormalizing tiny storage drift."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines or lines[0].strip() != KERNEL_MAGIC:
        raise CorruptHeader("%s: missing '%s' header" % (path, KERNEL_MAGIC))
    if len(lines) < 2:
        raise CorruptHeader("%s: missing size line" % path)
    dims = lines[1].split()
    if len(dims) != 2:
        raise CorruptHeader("%s: size line %r" % (path, lines[1]))
    try:
        rows, cols = int(dims[0]), int(dims[1])
    except ValueError:
        raise CorruptHeader("%s: non-numeric size line %r" % (path, lines[1]))
    if rows != cols or rows < 1:
        raise CorruptHeader("%s: kernel must be square, got %dx%d" % (path, rows, cols))

    fields = " ".join(lines[2:]).split()
    if len(fields) < rows * cols:
        raise TruncatedData("%s: expected %d weights, got %d"
                            % (path, rows * cols, len(fields)))
    try:
        values = np.array([float(f) for f in fields[:rows * cols]])
    except ValueError:
        raise CorruptHeader("%s: non-numeric weight" % path)
    kernel = values.reshape(rows, cols)
    try:
        check_kernel(kernel, tol=KERNEL_SUM_TOL)
    except DeblurError as exc:
        raise type(exc)("%s: %s" % (path, exc)) from None
    return kernel / float(np.sum(kernel))


def save_kernel(kernel, path):
    """Write a kernel with 17 significant digits (lossless round-trip)."""
    kernel = check_kernel(kernel, tol=KERNEL_SUM_TOL)
    k = kernel.shape[0]
    rows = (" ".join("%.17g" % v for v in row) for row in kernel)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("%s\n%d %d\n" % (KERNEL_MAGIC, k, k))
        fh.write("\n".join(rows) + "\n")
