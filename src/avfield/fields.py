"""Derived physical fields: density, current, self-consistent vector potential.

These are the one implementation of each; ``functional.StateFields``
calls them and keeps what they return, so the energy, the gradient, the
product-state terms and the diagnostics share one copy per state.

The vector potential is the perpendicular-gradient convolution
A[rho] = (-d2 w_R, d1 w_R) * rho, which is divergence-free by
construction and satisfies curl A = 2 pi (rho smeared over the disc)
(= 2 pi rho for R = 0).
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, WaveFunction, line_blocks, padded_convolution
from .kernels import KernelSet


def density(u: WaveFunction) -> np.ndarray:
    """Pointwise |u|^2."""
    return np.abs(u.values) ** 2


def current(
    v: np.ndarray, grad: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Phase current density J = Im(conj(v) grad v) from the samples and their gradient.

    Returns (J_x, J_y), equal to rho * grad(phase) for v = sqrt(rho) e^{i phi}.
    The complex products are formed BLOCK_BYTES of rows at a time: only J is full size.
    """
    J = np.empty(v.shape), np.empty(v.shape)
    for rows in line_blocks(len(v), 16 * v.shape[1]):
        for c in (0, 1):
            J[c][rows] = np.multiply(np.conj(v[rows]), grad[c][rows]).imag
    return J


def vector_potential(spec: GridSpec, rho: np.ndarray, kernels: KernelSet) -> np.ndarray:
    """A^R[rho] = perp-grad w_R * rho, shape (2, n, n).

    ``rho`` is the n x n density or its padded spectrum ``padded_rfft(spec, rho)``.
    Each component is convolved straight into its plane of A, scaled by the h^2 of the integral.
    """
    sx, sy = kernels.grad_w_fft
    h2 = spec.h**2
    A = np.empty((2, spec.n, spec.n))
    padded_convolution(spec, (rho, sy), factor=1j, scale=-h2, out=A[0])
    padded_convolution(spec, (rho, sx), factor=1j, scale=h2, out=A[1])
    return A


def curl_A(spec: GridSpec, A: np.ndarray) -> np.ndarray:
    """Spectral curl d1 A2 - d2 A1."""
    kx, ky = spec.wavenumbers()
    return np.fft.ifft2(1j * (kx * np.fft.fft2(A[1]) - ky * np.fft.fft2(A[0]))).real
