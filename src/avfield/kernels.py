"""Smeared Coulomb kernel family, trap potentials, and scaling utilities.

The basic object is the 2D log potential of a unit charge smeared
uniformly over a disc of radius R.  Newton's theorem gives the closed
forms

    w_R(x)      = log|x|                       for |x| >= R,
                  log R + (|x|^2/R^2 - 1)/2    for |x| <  R,
    grad w_R(x) = x/|x|^2                      for |x| >= R,
                  x/R^2                        for |x| <  R,

with w_0 = log|.| for the point-like case.  The gradient is bounded by
1/R for R > 0 and its L^p norms (p > 2) are explicit, which is what
makes the extended model tractable.

Equivalently w_R = w_0 * chi_R, with chi_R the indicator of the disc of
radius R normalized to unit mass, so the vector potential of a density
is A_R[rho] = A_0[chi_R * rho].  This fixes how fast the smeared model
approaches the point-like one as R -> 0:

- for a merely bounded density the error is at most first order in R,
  from ||grad w_R - grad w_0||_{L^1} = 4 pi R / 3;
- for a C^2 density chi_R * rho - rho = (R^2/8) Lap rho + O(R^4), so the
  leading term of A_R[rho] - A_0[rho], and of the energy difference at a
  minimizer, is O(R^2).

The gradient kernels are kept as real spectra.  The padded-grid sample g of
d w_R / dx is odd in x and even in y but on its column x = -2L (offset n), which
no primary-box output reads, as there |i - j| <= n - 1.  That column is even in
y and adds a real part only, so g with it zeroed has the spectrum i Sx,
exactly, with Sx = Im ``padded_rfft``(g).  d w_R / dy is g^T, whose spectrum
is i Sy with Sy[ky, kx] = Sx[kx, ky] and -Sx[kx, 2n - ky] for ky > n; Sy is
transformed from g^T all the same, so both carry the round-off of one transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .grid import GridSpec, padded_rfft


@dataclass(frozen=True)
class SmearedCoulomb:
    """Finite smearing radius R >= 0; R = 0 selects the point-like log kernel."""

    R: float

    def __post_init__(self):
        # R = inf would sample a zero kernel: the beta = 0 problem under another name
        if not 0 <= self.R < np.inf:
            raise DomainError(f"smearing radius must be finite and >= 0, got {self.R}")

    def w_radial(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.R == 0.0:
            if np.any(r == 0.0):
                raise DomainError("w_0 is singular at the origin")
            return np.log(r)
        out = np.empty_like(r)
        inside = r < self.R
        with np.errstate(divide="ignore"):
            out[~inside] = np.log(r[~inside])
        out[inside] = np.log(self.R) + 0.5 * ((r[inside] / self.R) ** 2 - 1.0)
        return out

    def grad_w(self, x, y) -> np.ndarray:
        """(d w_R / dx, d w_R / dy) at the points (x, y), which broadcast, stacked on axis 0."""
        return np.stack([self.grad_w_x(x, y), self.grad_w_x(y, x)])

    def grad_w_x(self, x, y) -> np.ndarray:
        """d w_R / dx at (x, y), odd in x and even in y; d w_R / dy is ``grad_w_x(y, x)``.

        The origin sample is 0: for R = 0 by the principal-value convention.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        denom = x**2 + y**2
        origin = denom == 0.0
        denom[origin] = 1.0
        if self.R > 0.0:
            np.maximum(denom, self.R**2, out=denom)
        g = np.divide(x, denom, out=denom)
        g[origin] = 0.0
        return g


def lp_norm_grad_w(R: float, p: float) -> float:
    """Exact ||grad w_R||_{L^p(R^2)} for p > 2, R > 0.

    Radial integration of the piecewise closed form gives

        ||grad w_R||_p^p = 2 pi R^{2-p} ( 1/(p+2) + 1/(p-2) ).
    """
    if p <= 2:
        raise DomainError(f"the L^p norm of grad w_R is infinite for p <= 2, got p={p}")
    if R <= 0:
        raise DomainError(f"need R > 0, got R={R}")
    c = 2.0 * np.pi * (1.0 / (p + 2.0) + 1.0 / (p - 2.0))
    return float(c ** (1.0 / p) * R ** (2.0 / p - 1.0))


def eta0(s: float) -> float:
    """Largest admissible shrink exponent for the smearing radius, (1/4)(1 + 1/s)^-1."""
    if s <= 0:
        raise DomainError(f"trap exponent must be positive, got s={s}")
    return 0.25 / (1.0 + 1.0 / s)


@dataclass(frozen=True)
class TrapPotential:
    """Power-law trap V(x) = c |x|^s with c > 0, s > 0."""

    c: float = 1.0
    s: float = 2.0

    def __post_init__(self):
        if not (0 < self.c < np.inf and 0 < self.s < np.inf):
            raise DomainError(
                f"trap requires finite c > 0 and s > 0, got c={self.c}, s={self.s}"
            )


@lru_cache(maxsize=8)
def trap_values(spec: GridSpec, trap: TrapPotential) -> np.ndarray:
    """V = c |x|^s on the grid, memoized; read-only, since every caller shares it."""
    x, y = spec.meshgrid()
    values = trap.c * np.hypot(x, y) ** trap.s
    values.flags.writeable = False
    return values


@dataclass
class KernelSet:
    """Real padded spectra (``padded_rfft`` layout, kx-major) of grad w_R and |grad w_R|^2.

    ``grad_w_fft`` is (Sx, Sy), the spectra of the two components being i Sx
    and i Sy (``sample_kernels``).  ``grad_w_sq_fft`` is None for R = 0,
    where |grad w_0|^2 is not locally integrable and the singular two-body
    term is only offered for R > 0, and in ``gradient_kernels`` and
    ``restrict``, for the evaluations of a solve and of ``verify``, which
    never read the pair term.  The samples are not kept.
    """

    grad_w_fft: tuple[np.ndarray, np.ndarray]
    grad_w_sq_fft: np.ndarray | None


def sample_kernels(spec: GridSpec, R: float) -> KernelSet:
    """Sample d w_R / dx on the 2n x 2n padded grid and keep the real spectra.

    The sample g is taken in FFT order (origin at index 0), which is what
    the transform reads, with its unread x = -2L column zeroed; d w_R / dy
    is g^T, bit for bit.
    """
    a = np.fft.ifftshift(spec.padded_axis())
    g = SmearedCoulomb(R).grad_w_x(a[np.newaxis, :], a[:, np.newaxis])
    g[:, spec.n] = 0.0
    grad_w_fft = tuple(padded_rfft(spec, s).imag.copy(order="F") for s in (g, g.T))
    if R == 0.0:
        return KernelSet(grad_w_fft, None)
    np.square(g, out=g)
    g += g.T
    return KernelSet(grad_w_fft, padded_rfft(spec, g).real.copy(order="F"))


def restrict(kernels: KernelSet, spec: GridSpec, coarse: GridSpec) -> KernelSet:
    """The gradient kernels of ``spec`` restricted to the coarser grid ``coarse`` of its box.

    The pair kernel is not restricted (None): no level of a solve reads it.
    The padded grids of both have the period 4L, so the padded DFT index
    m is the same wavenumber on both.  Each half spectrum keeps its
    |m| < n_c rows and columns, scaled by (h / h_c)^2 for the h^2 of the
    convolution; the coarse Nyquist row and column are zeroed, as
    ``solver._prolong`` zeroes the coarse Nyquist.  For a density whose
    padded spectrum lies in that band the coarse convolution then returns
    the fine one at the coarse points (the Galerkin coarse operator), R < h_c
    included, which point sampling on the coarse grid cannot resolve.
    """
    if coarse.half_width != spec.half_width or coarse.n >= spec.n:
        raise DomainError(f"{coarse} is not a coarsening of {spec}")
    nc = coarse.n
    scale = (nc / spec.n) ** 2  # (h / h_c)^2, exact for powers of two

    def band(fh: np.ndarray) -> np.ndarray:
        # cut from the kx-major transpose, so the band keeps fh's layout
        out = np.concatenate([fh.T[:nc + 1, :nc], fh.T[:nc + 1, -nc:]], axis=1).T * scale
        out[nc] = 0.0
        out[:, nc] = 0.0
        return out

    return KernelSet(tuple(band(s) for s in kernels.grad_w_fft), None)


@lru_cache(maxsize=2)
def kernels_for(spec: GridSpec, R: float) -> KernelSet:
    """``sample_kernels`` of the two newest (grid, R); KernelSets are immutable by convention."""
    return sample_kernels(spec, R)


def gradient_kernels(spec: GridSpec, R: float) -> KernelSet:
    """The gradient spectra of ``kernels_for(spec, R)`` alone: evaluations with them sum no P."""
    return KernelSet(kernels_for(spec, R).grad_w_fft, None)
