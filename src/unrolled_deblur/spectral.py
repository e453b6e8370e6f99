"""2-D DFT helpers and circular convolution on image-sized grids.

All frequency-domain work in this package happens on grids that match the
image exactly. A blur kernel is embedded onto the image grid with its center
at index (0, 0) and negative offsets wrapped to the opposite border, which
makes spatial circular convolution and per-frequency spectrum products
interchangeable.

Convention: the forward transform is unnormalized and the inverse carries
the 1/(H*W) factor (the default of numpy and scipy.fft).

Every transform works on the last two axes, so a (..., H, W) stack is
transformed plane by plane in one call; scipy.fft (pocketfft) computes
them all. Two pairs:

* fft2/ifft2 take full (H, W) spectra, for real and complex input alike.
  A real plane's spectrum is Hermitian to rounding, not bit for bit, and
  ifft2 stays complex-to-complex so it sees the imaginary residue it
  discards.
* rfft2/irfft2 take the half spectra (H, W//2+1) of real planes, which is
  all of a Hermitian spectrum: column v stands for itself and for its
  mirror W - v, except column 0 and, for even W, column W/2, which are
  their own mirrors (doubled_columns gives the others). The unrolled
  solver carries only these. irfft2 keeps the Hermitian part of the two
  self-mirrored columns, and their anti-Hermitian part is exactly what a
  complex inverse would put into the imaginary part, so irfft2 checks that
  part against the same bound as ifft2.
"""

import numpy as np
import scipy.fft

from .errors import DimensionMismatch, EvenSize, ImaginaryResidue, KernelTooLarge

# fraction of total energy the discarded imaginary part may hold before
# ifft2 refuses; anything above this level is an upstream algebra bug,
# never legitimate data
IMAG_ENERGY_TOL = 1e-6


def fft2(plane):
    """Unnormalized forward 2-D DFT over the last two axes, as complex128.

    Real input is taken as float64 and complex input as complex128; both
    go through scipy.fft.fft2.
    """
    plane = np.asarray(plane)
    dtype = np.complex128 if np.iscomplexobj(plane) else np.float64
    return scipy.fft.fft2(plane.astype(dtype, copy=False))


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
    planes = scipy.fft.ifft2(np.asarray(spectrum, dtype=np.complex128))
    _check_residue(planes.real, _energy(planes.imag))
    return np.ascontiguousarray(planes.real)


def rfft2(plane):
    """Half spectra (..., H, W//2+1) of real (..., H, W) planes, unnormalized."""
    return scipy.fft.rfft2(np.asarray(plane, dtype=np.float64))


def irfft2(spectrum, shape):
    """Real (H, W) = shape planes from half spectra, with the 1/(H*W) factor.

    The inverse of rfft2 over the last two axes. It drops the
    anti-Hermitian part of columns 0 and, for even W, W/2; the energy of
    that part (by Parseval, what ifft2 of the full spectrum would find in
    its imaginary part) is held to IMAG_ENERGY_TOL of each plane's total,
    and ImaginaryResidue names the first plane above it, as in ifft2.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    h, w = shape
    if spectrum.shape[-2:] != (h, w // 2 + 1):
        raise DimensionMismatch("half spectrum %s does not match planes %dx%d"
                                % (spectrum.shape, h, w))
    planes = _irfft2_passes(spectrum, shape)
    own = spectrum[..., [0, w // 2] if w % 2 == 0 else [0]]
    anti = own - np.conj(own[..., -np.arange(h), :])  # twice the part dropped
    _check_residue(planes, _energy(anti.real, anti.imag) / (4.0 * h * w))
    return planes


def _irfft2_passes(spectrum, shape, overwrite=False):
    """scipy.fft.irfft2 of half spectra to shape planes, unchecked.

    Runs its two passes itself, the real one in the column pass's buffer:
    scipy.fft.irfft2 would make one more stack-sized temporary. With
    overwrite the column pass may take spectrum's buffer too.
    """
    columns = scipy.fft.ifft(spectrum, axis=-2, overwrite_x=overwrite)
    return scipy.fft.irfft(columns, n=shape[1], axis=-1, overwrite_x=True)


def doubled_columns(width):
    """The columns of a half spectrum that stand for two columns of the full one."""
    return slice(1, (width + 1) // 2)


def _energy(*parts):
    """Sum of squares over the last two axes, summed over the given arrays."""
    return sum(np.einsum("...ij,...ij->...", p, p) for p in parts)


def _check_residue(planes, imag_energy):
    """Raise ImaginaryResidue for the first plane whose imaginary energy
    exceeds IMAG_ENERGY_TOL of its total (real plus imaginary) energy."""
    total = _energy(planes) + imag_energy
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
    kernels = np.asarray(kernels, dtype=np.float64)
    if kernels.ndim < 2 or kernels.shape[-2] != kernels.shape[-1]:
        raise DimensionMismatch("kernel must be square, got %s" % (kernels.shape,))
    k = kernels.shape[-1]
    if k % 2 == 0:
        raise EvenSize("kernel size %d is even" % k)
    if k > min(height, width):
        raise KernelTooLarge("kernel %d exceeds grid %dx%d" % (k, height, width))
    r = (k - 1) // 2
    planes = np.zeros(kernels.shape[:-2] + (height, width))
    planes[..., :k, :k] = kernels
    return np.roll(planes, (-r, -r), axis=(-2, -1))


def wrap_window(plane, size):
    """Extract the odd `size` window around the wrapped origin of a plane.

    Works on the last two axes, so a (C, H, W) stack gives C windows.
    Exact inverse of embed_kernels on its range.
    """
    plane = np.asarray(plane)
    h, w = plane.shape[-2:]
    if size % 2 == 0:
        raise EvenSize("window size %d is even" % size)
    if size > min(h, w):
        raise KernelTooLarge("window %d exceeds grid %dx%d" % (size, h, w))
    r = (size - 1) // 2
    return np.roll(plane, (r, r), axis=(-2, -1))[..., :size, :size].copy()


def circ_conv(a, b):
    """Circular convolution of two equally shaped real planes."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch("planes %s vs %s" % (a.shape, b.shape))
    return ifft2(fft2(a) * fft2(b))
