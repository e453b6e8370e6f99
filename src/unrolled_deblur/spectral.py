"""2-D DFT helpers and circular convolution on image-sized grids.

All frequency-domain work in this package happens on grids that match the
image exactly. A blur kernel is embedded onto the image grid with its center
at index (0, 0) and negative offsets wrapped to the opposite border, which
makes spatial circular convolution and per-frequency spectrum products
interchangeable.

Convention: the forward transform is unnormalized and the inverse carries
the 1/(H*W) factor (numpy.fft's default).

Every transform works on the last two axes, so a (..., H, W) stack is
transformed plane by plane in one call; numpy.fft (pocketfft) computes
them all, and this is the one module that calls it. The 2-D transforms of
real planes are two 1-D passes, the second in the first one's buffer
(numpy.fft's out=): the real row pass, then the complex column pass. Two
pairs:

* fft2/ifft2 take full (H, W) spectra. A real plane's spectrum is its half
  spectrum (rfft2) completed by conjugate symmetry: column W - v is the
  mirror of column v, bit for bit, and the self-mirrored columns 0 and
  (even W) W/2 are Hermitian to rounding only. Complex input, and the
  inverse, go through numpy.fft.fft2/ifft2; ifft2 stays
  complex-to-complex so it sees the imaginary residue it discards.
* rfft2/irfft2 take the half spectra (H, W//2+1) of real planes, which is
  all of a Hermitian spectrum: column v stands for itself and for its
  mirror W - v, except column 0 and, for even W, column W/2, which are
  their own mirrors (doubled_columns gives the others). The unrolled
  solver carries only these. irfft2 keeps the Hermitian part of the two
  self-mirrored columns, and their anti-Hermitian part is exactly what a
  complex inverse would put into the imaginary part, so irfft2 checks that
  part against the same bound as ifft2.

The plane of a kernel restricted to an odd size x size window around the
origin is zero outside the window's rows, and only the window is wanted
back from an inverse. window_rfft2 transforms windows and irfft2 with a
size returns them; both skip the other rows, as a pruned FFT does (Markel
1971; Sorensen & Burrus 1993), with the same bits: pocketfft transforms
each row on its own, and a zero row to exact zeros.
"""

import numpy as np

from .errors import DimensionMismatch, EvenSize, ImaginaryResidue, KernelTooLarge

# fraction of total energy the discarded imaginary part may hold before
# ifft2 refuses; anything above this level is an upstream algebra bug,
# never legitimate data
IMAG_ENERGY_TOL = 1e-6

# normwise rounding bound of a computed transform: a DFT of n points, or
# its inverse, has 2-norm error at most FFT_SLACK u log2(n) times the 2-norm
# of the exact result (u the unit roundoff, eps / 2). A generous constant on
# the bound for radix algorithms (Higham, Accuracy and Stability of Numerical
# Algorithms, Thm. 24.2); metrics.align_shift and unroll.forward take their
# rounding slack from it.
FFT_SLACK = 64.0


def fft2(plane):
    """Unnormalized forward 2-D DFT over the last two axes, as complex128.

    Complex input is taken as complex128 and goes through numpy.fft.fft2.
    Real input is taken as float64: columns 0..W//2 are its rfft2, made by
    the same two passes, bit for bit, and column W - v is the conjugate of
    column v at row -k mod H.
    """
    plane = np.asarray(plane)
    if np.iscomplexobj(plane):
        return np.fft.fft2(plane.astype(np.complex128, copy=False))
    half = np.fft.rfft(plane.astype(np.float64, copy=False), axis=-1)
    np.fft.fft(half, axis=-2, out=half)
    h, w = plane.shape[-2:]
    full = np.empty(half.shape[:-1] + (w,), dtype=np.complex128)
    full[..., :w // 2 + 1] = half
    mirror = half[..., (w - 1) // 2:0:-1]  # columns W//2+1.. mirror these
    np.conjugate(mirror[..., :1, :], out=full[..., :1, w // 2 + 1:])
    np.conjugate(mirror[..., :0:-1, :], out=full[..., 1:, w // 2 + 1:])
    return full


def ifft2(spectrum):
    """Inverse 2-D DFT (with the 1/(H*W) factor), returning the real part.

    Transforms the last two axes, so a (C, H, W) stack gives C contiguous
    float64 planes. Raises ImaginaryResidue when the discarded imaginary
    energy of any plane exceeds IMAG_ENERGY_TOL of that plane's total
    energy, naming the first such plane in C order; a stack is held to the
    same bound plane by plane, never diluted across planes.
    Complex-to-complex by design (see the module docstring), so the check
    sees the imaginary part it discards.
    """
    planes = np.fft.ifft2(np.asarray(spectrum, dtype=np.complex128))
    imag = _energy(planes.imag)
    _check_residue(_energy(planes.real) + imag, imag)
    return np.ascontiguousarray(planes.real)


def rfft2(plane):
    """Half spectra (..., H, W//2+1) of real (..., H, W) planes, unnormalized:
    the real row pass, then the column pass in its buffer."""
    rows = np.fft.rfft(np.asarray(plane, dtype=np.float64), axis=-1)
    return np.fft.fft(rows, axis=-2, out=rows)


def irfft2(spectrum, shape, overwrite=False, size=None):
    """Real (H, W) = shape planes from half spectra, with the 1/(H*W) factor.

    The inverse of rfft2 over the last two axes. It drops the
    anti-Hermitian part of columns 0 and, for even W, W/2; the energy of
    that part (by Parseval, what ifft2 of the full spectrum would find in
    its imaginary part) is held to IMAG_ENERGY_TOL of each plane's total,
    and ImaginaryResidue names the first plane above it, as in ifft2.
    The total is read off the half spectrum by Parseval too, so no check
    needs a whole plane. With an odd size only the size x size window of
    each plane around the origin is made (wrap_window of the planes, bit
    for bit): the real pass runs on the window's rows alone.
    With overwrite the transform may take a complex128 spectrum's buffer,
    which then holds no spectrum any more; the planes are the same.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    h, w = shape
    if spectrum.shape[-2:] != (h, w // 2 + 1):
        raise DimensionMismatch("half spectrum %s does not match planes %dx%d"
                                % (spectrum.shape, h, w))
    if size is not None:
        _radius(size, h, w, "window")
    # read before the passes may take spectrum's buffer: a self-mirrored
    # column counts once and the doubled ones twice (doubled_columns)
    own = spectrum[..., [0, w // 2] if w % 2 == 0 else [0]]
    anti = own - np.conj(own[..., -np.arange(h), :])  # twice the part dropped
    total = (2.0 * _energy(np.ascontiguousarray(spectrum).view(np.float64))
             - _energy(own.real, own.imag))
    # the two passes, the column one in spectrum's buffer with overwrite;
    # numpy.fft.irfft2 would always make the column pass a new stack
    planes = real_pass(column_pass(spectrum, overwrite, size), w, size)
    _check_residue(total / (h * w), _energy(anti.real, anti.imag) / (4.0 * h * w))
    return planes


def window_rfft2(windows, shape):
    """rfft2(embed_kernels(windows, *shape)), bit for bit, skipping zero rows.

    The embedded planes are zero outside the window's rows, and each row is
    transformed on its own, to exact zeros if it is zero: so the row pass
    runs on the window's rows alone (a size-row plane with the same wrapped
    window), and the column pass on the whole (..., H, W//2+1) half spectra.
    Raises what embed_kernels raises.
    """
    h, w = shape
    windows = _check_square(windows)
    r = _radius(windows.shape[-1], h, w, "kernel")
    rows = np.fft.rfft(embed_kernels(windows, 2 * r + 1, w), axis=-1)
    spectrum = np.zeros(rows.shape[:-2] + (h, w // 2 + 1), dtype=np.complex128)
    spectrum[..., :r + 1, :] = rows[..., :r + 1, :]
    spectrum[..., h - r:, :] = rows[..., r + 1:, :]
    return np.fft.fft(spectrum, axis=-2, out=spectrum)


def column_pass(spectrum, overwrite=False, size=None):
    """The first pass of irfft2: the inverse DFT of each column of half spectra.

    It acts on each column alone. The result is a new complex128 buffer,
    or with overwrite spectrum's own, which must then be a writeable
    complex128 array. With an odd size it keeps
    only rows 0..r and H-r..H-1 (r = size // 2), in that order: a size-row
    plane with the same wrapped size x size window.
    """
    columns = np.fft.ifft(spectrum, axis=-2, out=spectrum if overwrite else None)
    if size is None:
        return columns
    r, h = size // 2, columns.shape[-2]
    return np.concatenate((columns[..., :r + 1, :], columns[..., h - r:, :]), axis=-2)


def real_pass(columns, width, size=None):
    """The second pass of irfft2: width-point real rows from the column
    pass's output, row by row. With the size given to column_pass, it
    returns the size x size windows (wrap_window)."""
    planes = np.fft.irfft(columns, n=width, axis=-1)
    return planes if size is None else wrap_window(planes, size)


def doubled_columns(width):
    """The columns of a half spectrum that stand for two columns of the full one."""
    return slice(1, (width + 1) // 2)


def _energy(*parts):
    """Sum of squares over the last two axes, summed over the given arrays."""
    return sum(np.einsum("...ij,...ij->...", p, p) for p in parts)


def _check_residue(total, imag_energy):
    """Raise ImaginaryResidue for the first plane whose imaginary energy
    exceeds IMAG_ENERGY_TOL of its total (real plus imaginary) energy."""
    bad = np.flatnonzero((total > 0.0) & (imag_energy > IMAG_ENERGY_TOL * total))
    if bad.size:
        raise ImaginaryResidue(
            "imaginary energy %.3e exceeds %g of total %.3e"
            % (imag_energy.flat[bad[0]], IMAG_ENERGY_TOL, total.flat[bad[0]]))


def embed_kernel(kernel, height, width):
    """Place an odd square kernel on a (height, width) grid, center at (0, 0).

    Coefficients at negative offsets wrap to the opposite border, so
    circular convolution with the embedded plane acts exactly like the
    original kernel. Mass and nonnegativity are preserved verbatim.
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.ndim != 2:
        raise DimensionMismatch("kernel must be square, got %s" % (kernel.shape,))
    return embed_kernels(kernel, height, width)


def embed_kernels(kernels, height, width):
    """embed_kernel applied to each kernel of a (..., k, k) stack."""
    kernels = _check_square(kernels)
    _radius(kernels.shape[-1], height, width, "kernel")
    planes = np.zeros(kernels.shape[:-2] + (height, width))
    for at, tap in _wrapped_corners(kernels.shape[-1], height, width):
        planes[at] = kernels[tap]
    return planes


def wrap_window(plane, size):
    """Extract the odd `size` window around the wrapped origin of a plane.

    Works on the last two axes, so a (C, H, W) stack gives C windows.
    Exact inverse of embed_kernels on its range.
    """
    plane = np.asarray(plane)
    h, w = plane.shape[-2:]
    _radius(size, h, w, "window")
    window = np.empty(plane.shape[:-2] + (size, size), dtype=plane.dtype)
    for at, tap in _wrapped_corners(size, h, w):
        window[tap] = plane[at]
    return window


def _check_square(kernels):
    """kernels as float64, or DimensionMismatch unless a (..., k, k) stack."""
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim < 2 or kernels.shape[-2] != kernels.shape[-1]:
        raise DimensionMismatch("kernel must be square, got %s" % (kernels.shape,))
    return kernels


def _radius(size, height, width, what):
    """r = (size - 1) / 2 of an odd size x size window on a (height, width)
    grid; EvenSize or KernelTooLarge otherwise."""
    if size % 2 == 0:
        raise EvenSize("%s size %d is even" % (what, size))
    if size > min(height, width):
        raise KernelTooLarge("%s %d exceeds grid %dx%d" % (what, size, height, width))
    return size // 2


def _wrapped_corners(size, height, width):
    """(plane, window) index pairs of the four corners of an odd size x size
    window wrapped around the origin of a (height, width) plane.

    Window row i sits at plane row (i - r) mod height, r = (size - 1) / 2:
    window rows r.. are plane rows 0..r, and rows ..r-1 the last r plane
    rows; the same for columns.
    """
    r = (size - 1) // 2

    def halves(n):
        return ((slice(0, r + 1), slice(r, size)), (slice(n - r, n), slice(0, r)))

    for at_row, tap_row in halves(height):
        for at_col, tap_col in halves(width):
            yield (..., at_row, at_col), (..., tap_row, tap_col)


def circ_conv(a, b):
    """Circular convolution of two equally shaped real planes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch("planes %s vs %s" % (a.shape, b.shape))
    return ifft2(fft2(a) * fft2(b))
