"""Square computational box with quadrature and spectral services.

The domain is [-L, L)^2 sampled on an n x n grid (n a power of two),
spacing h = 2L/n.  Fields are numpy arrays of shape (n, n) indexed
[iy, ix], i.e. row-major with x fastest.  Derivatives use the periodic
Fourier basis; this is a surrogate for the full plane, justified when
the field decays below round-off at the boundary (the trap enforces
this for the states we care about).  Convolutions are zero-padded to
2n per axis, so they are linear (no wrap-around) inside the primary
box; the kernel tail beyond the padded box is truncated, an O(1/L)
error controlled by the box size.

Padded half spectra, shape (2n, n+1) indexed [ky, kx], are kx-major (the
``.T`` of a C-ordered buffer), so both passes of a padded transform run
along contiguous rows; the values are numpy's ``rfft2`` bit for bit.
``padded_rfft`` leaves its argument as it is; ``padded_irfft`` consumes
the spectrum it is handed, whose buffer its column pass overwrites.  A
kernel's padded spectrum is ``padded_rfft`` of its 2n x 2n sample in FFT
order (origin at index 0, offsets ``ifftshift(padded_axis())``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

# source rows per block of padded_irfft's transpose copy
TRANSPOSE_BLOCK = 32


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """n points per axis on the square [-L, L)^2."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 16 or not _is_power_of_two(self.n):
            raise ConfigurationError(f"grid size must be a power of two >= 16, got {self.n}")
        if not 0 < self.half_width < np.inf:
            raise ConfigurationError(f"half_width must be finite and > 0, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n

    def axis(self) -> np.ndarray:
        """1D coordinates -L, -L+h, ..., L-h."""
        return -self.half_width + self.h * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinate arrays of shape (n, n), [iy, ix] layout."""
        a = self.axis()
        x, y = np.meshgrid(a, a, indexing="xy")
        return x, y

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        """Spectral wavenumbers (kx, ky) for differentiation.

        The Nyquist mode is zeroed so that derivatives of real fields
        stay real.
        """
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)
        k[self.n // 2] = 0.0
        kx = k[np.newaxis, :]
        ky = k[:, np.newaxis]
        return kx, ky

    def padded_axis(self) -> np.ndarray:
        """Offsets m*h, m = -n..n-1, for kernel sampling on the padded grid."""
        return self.h * (np.arange(2 * self.n) - self.n)


def integrate(spec: GridSpec, f: np.ndarray):
    """Discrete integral h^2 * sum(f)."""
    return f.sum() * spec.h**2


def inner(spec: GridSpec, f: np.ndarray, g: np.ndarray):
    """Discrete L^2 inner product <f, g> = h^2 sum conj(f) g."""
    return np.vdot(f, g) * spec.h**2


def l2_norm(spec: GridSpec, f: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * spec.h**2))


def spectral_gradient(spec: GridSpec, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx f, d/dy f) via Fourier multiplication by ik."""
    kx, ky = spec.wavenumbers()
    fh = np.fft.fft2(f)
    fx = np.fft.ifft2(1j * kx * fh)
    fy = np.fft.ifft2(1j * ky * fh)
    return fx, fy


def spectral_laplacian(spec: GridSpec, f: np.ndarray) -> np.ndarray:
    kx, ky = spec.wavenumbers()
    fh = np.fft.fft2(f)
    return np.fft.ifft2(-(kx**2 + ky**2) * fh)


def padded_rfft(spec: GridSpec, f: np.ndarray) -> np.ndarray:
    """Half spectrum, shape (2n, n+1), of the real n x n field f zero-padded to 2n x 2n.

    Kx-major, equal to ``rfft2(f, s=(2n, 2n))`` bit for bit: the row
    transforms, transposed into a zeroed (n+1, 2n) buffer, transformed in place.
    A 2n x 2n f (a kernel sample) has nothing to pad.
    """
    m = 2 * spec.n
    buf = np.zeros((spec.n + 1, m), dtype=complex)  # before the rows: a lower peak RSS
    buf[:, : f.shape[0]] = np.fft.rfft(f, n=m, axis=1).T
    np.fft.fft(buf, axis=1, out=buf)
    return buf.T


def padded_irfft(spec: GridSpec, fh: np.ndarray) -> np.ndarray:
    """Primary n x n block of the real inverse of a (2n, n+1) padded half spectrum.

    Equals ``irfft2(fh, s=(2n, 2n))[:n, :n]`` bit for bit; a kx-major fh
    is read along contiguous rows.  Consumes fh: the column pass runs in
    place, so callers hand over a complex product they own.
    """
    n = spec.n
    cols = np.fft.ifft(fh.T, axis=1, out=fh.T)
    # the transpose is copied TRANSPOSE_BLOCK source rows at a time; a
    # whole-array copy reads with a power-of-two stride that thrashes the cache
    rows = np.empty((n, n + 1), dtype=cols.dtype)
    for lo in range(0, n + 1, TRANSPOSE_BLOCK):
        rows[:, lo : lo + TRANSPOSE_BLOCK] = cols[lo : lo + TRANSPOSE_BLOCK, :n].T
    return np.fft.irfft(rows, n=2 * n, axis=1)[:, :n]


def convolve(spec: GridSpec, f: np.ndarray, kernel_hat: np.ndarray) -> np.ndarray:
    """Linear convolution h^2 * (kernel * f) restricted to the primary box.

    ``kernel_hat`` is the kernel's padded spectrum, ``padded_rfft`` of its
    FFT-order sample.
    """
    n = spec.n
    if kernel_hat.shape != (2 * n, n + 1):
        raise ConfigurationError(
            f"kernel spectrum shape {kernel_hat.shape} does not match padded grid "
            f"({2 * n}, {n + 1})"
        )
    return padded_irfft(spec, padded_rfft(spec, f) * kernel_hat) * spec.h**2


@dataclass(frozen=True)
class WaveFunction:
    """Immutable complex scalar field with its cached discrete L^2 mass.

    ``values`` is a read-only view of the samples (the caller's array
    stays writable), so the mass and the fields that
    ``functional.state_fields`` keeps on the state cannot go stale.  A NaN
    or infinite sample raises ``DomainError``.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )
        values = np.asarray(self.values, dtype=complex).view()
        # a NaN or infinite sample makes the sum non-finite; finite samples
        # whose sum overflows are told apart by the elementwise test
        with np.errstate(over="ignore", invalid="ignore"):
            total = values.sum()
        if not np.isfinite(total) and not np.isfinite(values).all():
            raise DomainError("field holds non-finite samples")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def mass(self) -> float:
        """Discrete L^2 mass h^2 sum |u|^2, computed on first use."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.h**2)

    def normalized(self) -> "WaveFunction":
        if self.mass == 0.0:
            raise ConfigurationError("cannot normalize the zero field")
        return WaveFunction(self.grid, self.values / np.sqrt(self.mass))

    def boundary_mass(self) -> float:
        """Largest density sample on the outermost grid ring (decay check)."""
        v = self.values
        edge = np.concatenate([v[0, :], v[-1, :], v[:, 0], v[:, -1]])
        return float((np.abs(edge) ** 2).max())


def gaussian_state(spec: GridSpec, width: float = 1.0, vortex: bool = False) -> WaveFunction:
    """Normalized Gaussian exp(-|x|^2 / (2 width^2)), optionally with a unit vortex."""
    x, y = spec.meshgrid()
    vals = np.exp(-(x**2 + y**2) / (2.0 * width**2)).astype(complex)
    if vortex:
        vals = (x + 1j * y) * vals
    return WaveFunction(spec, vals).normalized()
