"""Derived physical fields: density, current, self-consistent vector potential.

The vector potential is the perpendicular-gradient convolution
A[rho] = (-d2 w_R, d1 w_R) * rho, which is divergence-free by
construction and satisfies curl A = 2 pi (rho smeared over the disc)
(= 2 pi rho for R = 0).
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, WaveFunction, padded_convolution, padded_rfft, spectral_gradient
from .kernels import KernelSet


def density(u: WaveFunction) -> np.ndarray:
    """Pointwise |u|^2."""
    return np.abs(u.values) ** 2


def current(u: WaveFunction) -> np.ndarray:
    """Phase current density J[u] = Im(conj(u) grad u), real by construction.

    Shape (2, n, n).  Equals rho * grad(phase) for u = sqrt(rho) e^{i phi}.
    """
    v = u.values
    return np.imag(np.conj(v) * np.stack(spectral_gradient(u.grid, v)))


def vector_potential(spec: GridSpec, rho: np.ndarray, kernels: KernelSet) -> np.ndarray:
    """A^R[rho] = perp-grad w_R * rho, shape (2, n, n)."""
    return vector_potential_of_spectrum(spec, padded_rfft(spec, rho), kernels)


def vector_potential_of_spectrum(
    spec: GridSpec, rho_hat: np.ndarray, kernels: KernelSet
) -> np.ndarray:
    """A^R[rho] from the padded spectrum ``padded_rfft(spec, rho)``."""
    gx, gy = kernels.grad_w_fft
    h2 = spec.h**2
    A = np.empty((2, spec.n, spec.n))
    np.multiply(-h2, padded_convolution(spec, (rho_hat, gy)), out=A[0])
    np.multiply(h2, padded_convolution(spec, (rho_hat, gx)), out=A[1])
    return A


def curl_A(spec: GridSpec, A: np.ndarray) -> np.ndarray:
    """Spectral curl d1 A2 - d2 A1."""
    kx, ky = spec.wavenumbers()
    return np.fft.ifft2(1j * (kx * np.fft.fft2(A[1]) - ky * np.fft.fft2(A[0]))).real

