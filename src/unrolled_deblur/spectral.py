"""2-D DFT helpers and circular convolution on image-sized grids.

All frequency-domain work in this package happens on grids that match the
image exactly. A blur kernel is embedded onto the image grid with its center
at index (0, 0) and negative offsets wrapped to the opposite border, which
makes spatial circular convolution and per-frequency spectrum products
interchangeable.

Convention: the forward transform is unnormalized and the inverse carries
the 1/(H*W) factor (the default of numpy and scipy.fft).

Both transforms work on the last two axes, so a (..., H, W) stack is
transformed plane by plane in one call, and both return full (H, W)
spectra and planes: scipy.fft (pocketfft) computes them, for real and
complex input alike. A real plane's spectrum is Hermitian to rounding,
not bit for bit. The inverse deliberately stays complex-to-complex: it
checks the imaginary residue that a real-output inverse would discard
unseen.
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
    imag_energy = np.einsum("...ij,...ij->...", planes.imag, planes.imag)
    total = np.einsum("...ij,...ij->...", planes.real, planes.real) + imag_energy
    bad = np.flatnonzero((total > 0.0) & (imag_energy > IMAG_ENERGY_TOL * total))
    if bad.size:
        raise ImaginaryResidue(
            "imaginary energy %.3e exceeds %g of total %.3e"
            % (imag_energy.flat[bad[0]], IMAG_ENERGY_TOL, total.flat[bad[0]]))
    return np.ascontiguousarray(planes.real)


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
