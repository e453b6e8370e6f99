"""2-D DFT helpers and circular convolution on image-sized grids.

All frequency-domain work in this package happens on grids that match the
image exactly. A blur kernel is embedded onto the image grid with its center
at index (0, 0) and negative offsets wrapped to the opposite border, which
makes spatial circular convolution and per-frequency spectrum products
interchangeable.

Convention: the forward transform is unnormalized and the inverse carries
the 1/(H*W) factor (numpy's default).

Both transforms return full (H, W) spectra and planes. A real plane's
forward DFT is computed as the real-to-complex half spectrum
(np.fft.rfft2) and the other columns are filled by Hermitian completion,
X[k, l] = conj X[-k mod H, -l mod W], so the spectrum is exactly
Hermitian; on a 512 px plane this takes about half the time of the
complex transform. The inverse deliberately stays complex-to-complex: it
checks the imaginary residue that a real-output inverse would discard
unseen, and a real-output inverse with that check measured no faster.
"""

import numpy as np

from .errors import DimensionMismatch, EvenSize, ImaginaryResidue, KernelTooLarge

# fraction of total energy the discarded imaginary part may hold before
# ifft2 refuses; anything above this level is an upstream algebra bug,
# never legitimate data
IMAG_ENERGY_TOL = 1e-6


def planewise(transform, planes):
    """Apply a numpy 2-D transform to each plane of a (..., H, W) stack.

    Bitwise the stacked call, but about twice as fast: numpy's column pass
    over a whole stack leaves cache, one 128x128 plane (256 KiB) does not.
    """
    planes = np.asarray(planes)
    if planes.ndim == 2:
        return transform(planes)
    out = np.empty(planes.shape, dtype=np.complex128)
    for idx in np.ndindex(planes.shape[:-2]):
        out[idx] = transform(planes[idx])
    return out


def fft2(plane):
    """Unnormalized forward 2-D DFT over the last two axes.

    Complex input goes through np.fft.fft2 unchanged. Real input is
    transformed plane by plane with np.fft.rfft2 and completed to the full
    (H, W) spectrum by Hermitian symmetry, which agrees with np.fft.fft2 to
    rounding and is Hermitian bit for bit.
    """
    plane = np.asarray(plane)
    if np.iscomplexobj(plane):
        return planewise(np.fft.fft2, plane)
    plane = plane.astype(np.float64, copy=False)
    out = np.empty(plane.shape, dtype=np.complex128)
    for idx in np.ndindex(plane.shape[:-2]):
        _real_fft2(plane[idx], out[idx])
    return out


def _real_fft2(plane, out):
    """Write the full DFT of one real (H, W) plane into out."""
    h, w = plane.shape
    n = w // 2 + 1
    np.fft.rfft2(plane, out=out[:, :n])
    # columns n..W-1 mirror columns W-n..1, rows negated modulo H
    m = w - n
    np.conjugate(out[0, m:0:-1], out=out[0, n:])
    np.conjugate(out[:0:-1, m:0:-1], out=out[1:, n:])
    # columns 0 and W/2 are their own mirrors: the lower rows take the
    # upper rows' conjugates, and the self-mirrored entries are real
    for c in ((0, w // 2) if w % 2 == 0 else (0,)):
        col = out[:, c]
        np.conjugate(col[(h - 1) // 2:0:-1], out=col[h // 2 + 1:])
        col[0] = col[0].real
        if h % 2 == 0:
            col[h // 2] = col[h // 2].real


def ifft2(spectrum):
    """Inverse 2-D DFT (with the 1/(H*W) factor), returning the real part.

    Transforms the last two axes, so a (C, H, W) stack gives C planes.
    Raises ImaginaryResidue when the discarded imaginary energy of any
    plane exceeds IMAG_ENERGY_TOL of that plane's total energy; a stack is
    held to the same bound plane by plane, never diluted across planes.
    Complex-to-complex by design (see the module docstring), so the check
    sees the imaginary part it discards.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    out = np.empty(spectrum.shape)
    for idx in np.ndindex(spectrum.shape[:-2]):
        plane = np.fft.ifft2(spectrum[idx])
        imag_energy = np.einsum("ij,ij->", plane.imag, plane.imag)
        total = np.einsum("ij,ij->", plane.real, plane.real) + imag_energy
        if total > 0.0 and imag_energy > IMAG_ENERGY_TOL * total:
            raise ImaginaryResidue(
                "imaginary energy %.3e exceeds %g of total %.3e"
                % (imag_energy, IMAG_ENERGY_TOL, total))
        out[idx] = plane.real
    return out


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
