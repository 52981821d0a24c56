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
``.T`` of a C-ordered buffer), so the column pass of a padded transform runs
along contiguous rows; the values are numpy's ``rfft2`` bit for bit.  A
kernel's padded spectrum is ``padded_rfft`` of its 2n x 2n sample in FFT
order (origin at index 0, offsets ``ifftshift(padded_axis())``); an odd
kernel's is i S, S real (``kernels``), convolved with ``factor=1j``.
``padded_convolution`` never forms a whole padded product: it walks the kx
columns BLOCK_BYTES at a time, from the row spectra of its inputs (formed
from a real field, or handed over by the caller, who may form them by
blocks of rows) or a kept padded spectrum, through the products to the
inverse column pass, and keeps only the n primary rows, which its final
row pass, again BLOCK_BYTES at a time, writes scaled into one n x n array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError

# bytes of one column block of padded_convolution (columns of 2n complex
# samples): L2-sized, so the transposes between row and column passes stay
# in cache; n = 64 is one block
BLOCK_BYTES = 1 << 18


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """n points per axis on the square [-L, L)^2."""

    n: int
    half_width: float

    def __post_init__(self):
        if self.n < 16 or not _is_power_of_two(self.n):
            raise DomainError(f"grid size must be a power of two >= 16, got {self.n}")
        if not 0 < self.half_width < np.inf:
            raise DomainError(f"half_width must be finite and > 0, got {self.half_width}")

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
        """Spectral wavenumbers (kx, ky) for differentiation, memoized per grid.

        The Nyquist mode is zeroed so that derivatives of real fields
        stay real.  Read-only, since every caller on the grid shares them.
        """
        return _wavenumbers(self)

    def padded_axis(self) -> np.ndarray:
        """Offsets m*h, m = -n..n-1, for kernel sampling on the padded grid."""
        return self.h * (np.arange(2 * self.n) - self.n)


@lru_cache(maxsize=8)
def _wavenumbers(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.h)
    k[spec.n // 2] = 0.0
    k.flags.writeable = False  # and so are its views kx and ky
    return k[np.newaxis, :], k[:, np.newaxis]


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


def line_blocks(lines: int, line_bytes: int) -> list[slice]:
    """Slices covering ``lines`` rows (or columns) of ``line_bytes`` each, BLOCK_BYTES a slice.

    A slice holds at least one line.
    """
    step = max(1, BLOCK_BYTES // line_bytes)
    return [slice(lo, lo + step) for lo in range(0, lines, step)]


def padded_convolution(
    spec: GridSpec,
    *terms: tuple,
    factor: complex = 1.0,
    scale: float = 1.0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Primary n x n block of ``scale irfft2(factor (a_1 k_1 - a_2 k_2 - ...), s=(2n, 2n))``.

    Each term pairs a kernel's padded spectrum k with a real n x n field,
    zero-padded and transformed here, with its (n, n+1) row spectrum
    ``rfft(a, n=2n, axis=1)``, or with a padded spectrum a (``padded_rfft``);
    the products after the first are subtracted, in order.  A real k is
    taken as it is (an even kernel's spectrum); the odd gradient kernels'
    real S become their spectra i S through factor=1j.  The result,
    multiplied by ``scale`` row block by row block, is written to ``out``
    (a new n x n array if None).  At factor 1, bit for bit the unblocked
    result: every line is the same 1-D transform of the same data.  A row
    spectrum argument is consumed: the caller must not read it afterwards
    (the first term's holds the inverse column pass).  No other argument
    is written to.
    """
    n, m = spec.n, 2 * spec.n

    def row_spectrum(a):
        if a.shape == (n, n):
            return np.fft.rfft(a, n=m, axis=1)
        return a if a.shape == (n, n + 1) else None  # None: a padded spectrum

    rows = [row_spectrum(a) for a, _ in terms]
    # the inverse column pass overwrites the first row spectrum's columns once read
    inverse = rows[0] if rows[0] is not None else np.empty((n, n + 1), dtype=complex)

    def product(i, cols):
        (a, k), r = terms[i], rows[i]
        if r is None:
            return a.T[cols] * k.T[cols]
        b = np.zeros((len(k.T[cols]), m), dtype=complex)
        b[:, :n] = r[:, cols].T  # the transpose, in cache
        np.fft.fft(b, axis=1, out=b)
        for part in (b,) if np.iscomplexobj(k) else (b.real, b.imag):  # no cast buffer
            part *= k.T[cols]
        return b

    for cols in line_blocks(n + 1, 16 * m):
        acc = product(0, cols)
        for i in range(1, len(terms)):
            acc -= product(i, cols)
        np.fft.ifft(acc, axis=1, out=acc)
        if factor != 1.0:
            acc *= factor  # all 2n rows: scaling a strided view would copy it
        inverse[:, cols] = acc[:, :n].T
    del rows, acc
    # the row pass, into one n x n array: no (n, 2n) inverse and no scaled copy
    out = np.empty((n, n)) if out is None else out
    for r in line_blocks(n, 16 * m):
        np.multiply(np.fft.irfft(inverse[r], n=m, axis=1)[:, :n], scale, out=out[r])
    return out


def convolve(spec: GridSpec, f: np.ndarray, kernel_hat: np.ndarray) -> np.ndarray:
    """Linear convolution h^2 * (kernel * f) restricted to the primary box.

    ``kernel_hat`` is the kernel's padded spectrum, ``padded_rfft`` of its
    FFT-order sample.
    """
    n = spec.n
    if kernel_hat.shape != (2 * n, n + 1):
        raise DomainError(
            f"kernel spectrum shape {kernel_hat.shape} does not match padded grid "
            f"({2 * n}, {n + 1})"
        )
    return padded_convolution(spec, (f, kernel_hat), scale=spec.h**2)


@dataclass(frozen=True)
class WaveFunction:
    """Immutable complex scalar field with its cached discrete L^2 mass.

    ``values`` is a read-only view, but the caller's array stays writable and
    a write to it shows through: the caller hands it over and must not write
    to it, or the mass and the fields ``functional.state_fields`` keeps on the
    state go stale.  A NaN or infinite sample raises ``DomainError``.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.n, self.grid.n):
            raise DomainError(
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
            raise DomainError("cannot normalize the zero field")
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
