"""Average-field energy: term breakdown, alternative form, constrained gradient.

The energy of a state u with coupling beta and smearing radius R is

    E[u] = int |grad u|^2  +  2 beta int A.J  +  beta^2 int rho |A|^2
         + int V rho,

the expansion of int |(grad + i beta A[rho]) u|^2 + int V rho with
A = A^R[rho], rho = |u|^2, J the phase current.  The first variation has
to account for the dependence of A on rho, which produces a scalar
self-consistency potential W on top of the magnetic Schroedinger action;
its sign and normalization are pinned by the finite-difference contract
exercised in the tests rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import current, curl_A, density, vector_potential
from .grid import (
    GridSpec,
    WaveFunction,
    convolve,
    inner,
    integrate,
    spectral_gradient,
    spectral_laplacian,
)
from .kernels import KernelSet, TrapPotential, kernels_for, trap_values

# Nodes with |u| below this are treated as zeros of u in energy_alt.
ZERO_NODE_TOL = 1e-13


@dataclass(frozen=True)
class FunctionalParams:
    beta: float
    R: float
    trap: TrapPotential


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    mixed: float
    quartic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.mixed + self.quartic + self.potential

    @property
    def magnetic_kinetic(self) -> float:
        """int |(grad + i beta A) u|^2 = kinetic + mixed + quartic."""
        return self.kinetic + self.mixed + self.quartic


def energy(
    u: WaveFunction,
    params: FunctionalParams,
    kernels: KernelSet | None = None,
) -> EnergyBreakdown:
    """Term-by-term average-field energy of u (norm-agnostic)."""
    spec = u.grid
    if kernels is None:
        kernels = kernels_for(spec, params.R)
    rho = density(u)
    ux, uy = spectral_gradient(spec, u.values)
    kinetic = float(integrate(spec, np.abs(ux) ** 2 + np.abs(uy) ** 2))
    potential = float(integrate(spec, trap_values(spec, params.trap) * rho))
    if params.beta == 0.0:
        return EnergyBreakdown(kinetic, 0.0, 0.0, potential)
    A = vector_potential(spec, rho, kernels)
    J = current(u)
    mixed = 2.0 * params.beta * float(integrate(spec, A[0] * J[0] + A[1] * J[1]))
    quartic = params.beta**2 * float(integrate(spec, rho * (A[0] ** 2 + A[1] ** 2)))
    return EnergyBreakdown(kinetic, mixed, quartic, potential)


@dataclass(frozen=True)
class AltEnergyResult:
    value: float
    zero_nodes: int
    flagged: bool


def energy_alt(
    u: WaveFunction,
    params: FunctionalParams,
    kernels: KernelSet | None = None,
) -> AltEnergyResult:
    """Polar-decomposed form of the energy.

    int |grad|u||^2 + int |Im(conj(u)/|u|) grad u + beta A |u||^2 + int V rho.

    At nodes where |u| < ZERO_NODE_TOL the second integrand is replaced by
    its |u| -> 0 limit beta^2 rho |A|^2 and the result is flagged.
    """
    spec = u.grid
    if kernels is None:
        kernels = kernels_for(spec, params.R)
    rho = density(u)
    absu = np.sqrt(rho)
    ax_, ay_ = spectral_gradient(spec, absu)
    kin_abs = float(integrate(spec, np.abs(ax_) ** 2 + np.abs(ay_) ** 2))
    potential = float(integrate(spec, trap_values(spec, params.trap) * rho))

    A = vector_potential(spec, rho, kernels)
    J = current(u)
    zero = absu < ZERO_NODE_TOL
    n_zero = int(zero.sum())
    safe = np.where(zero, 1.0, absu)
    # Im(conj(u)/|u|) grad u = J / |u| componentwise
    tx = J[0] / safe + params.beta * A[0] * absu
    ty = J[1] / safe + params.beta * A[1] * absu
    term = tx**2 + ty**2
    limit = params.beta**2 * rho * (A[0] ** 2 + A[1] ** 2)
    term = np.where(zero, limit, term)
    second = float(integrate(spec, term))
    return AltEnergyResult(
        value=kin_abs + second + potential,
        zero_nodes=n_zero,
        flagged=n_zero > 0,
    )


def energy_and_gradient(
    u: WaveFunction,
    params: FunctionalParams,
    kernels: KernelSet | None = None,
) -> tuple[EnergyBreakdown, np.ndarray]:
    """Breakdown and first variation sharing rho, A, J, and spectral grads.

    The gradient G satisfies d/dt E[u + t v] at t=0 equal to 2 Re<v, G>
    for any direction v.  G = (-i grad + beta A)^2 u + V u + W u, with
    the self-consistency potential
    W = -2 beta sum_c grad^perp w_R,c * (J + beta rho A)_c.
    """
    spec = u.grid
    if kernels is None:
        kernels = kernels_for(spec, params.R)
    v = u.values
    V = trap_values(spec, params.trap)
    rho = density(u)
    kx, ky = spec.wavenumbers()
    vh = np.fft.fft2(v)
    ux = np.fft.ifft2(1j * kx * vh)
    uy = np.fft.ifft2(1j * ky * vh)
    lap = np.fft.ifft2(-(kx**2 + ky**2) * vh)
    kinetic = float(integrate(spec, np.abs(ux) ** 2 + np.abs(uy) ** 2))
    potential = float(integrate(spec, V * rho))
    if params.beta == 0.0:
        return EnergyBreakdown(kinetic, 0.0, 0.0, potential), -lap + V * v

    A = vector_potential(spec, rho, kernels)
    jx = (0.5j * (v * np.conj(ux) - np.conj(v) * ux)).real
    jy = (0.5j * (v * np.conj(uy) - np.conj(v) * uy)).real
    beta = params.beta
    mixed = 2.0 * beta * float(integrate(spec, A[0] * jx + A[1] * jy))
    quartic = beta**2 * float(integrate(spec, rho * (A[0] ** 2 + A[1] ** 2)))

    # (-i grad + beta A)^2 u; the symmetric form A.grad u + div(A u) is the
    # exact discrete adjoint (spectral product rule only holds up to aliasing)
    dax, _ = spectral_gradient(spec, A[0] * v)
    _, day = spectral_gradient(spec, A[1] * v)
    mag = (
        -lap
        - 1j * beta * (A[0] * ux + A[1] * uy + dax + day)
        + beta**2 * (A[0] ** 2 + A[1] ** 2) * v
    )
    # gauge-covariant current J + beta rho A, convolved with perp-grad w_R
    fx = jx + beta * rho * A[0]
    fy = jy + beta * rho * A[1]
    gx, gy = kernels.grad_w_fft
    kx_fx = -convolve(spec, fx, gy)  # perp component 1 against fx
    ky_fy = convolve(spec, fy, gx)  # perp component 2 against fy
    W = -2.0 * beta * (kx_fx + ky_fy)
    G = mag + (V + W) * v
    return EnergyBreakdown(kinetic, mixed, quartic, potential), G


def gradient(
    u: WaveFunction,
    params: FunctionalParams,
    kernels: KernelSet | None = None,
) -> np.ndarray:
    """First variation of the energy; see ``energy_and_gradient``."""
    return energy_and_gradient(u, params, kernels)[1]


def sphere_project(spec: GridSpec, g: np.ndarray, u: WaveFunction) -> np.ndarray:
    """Tangent-space projection g - Re<u, g> u for normalized u."""
    coef = inner(spec, u.values, g).real
    return g - coef * u.values


def magnetic_field(u: WaveFunction, params: FunctionalParams,
                   kernels: KernelSet | None = None) -> np.ndarray:
    """curl(beta A^R[rho]), the self-generated magnetic field diagnostic."""
    spec = u.grid
    if kernels is None:
        kernels = kernels_for(spec, params.R)
    A = vector_potential(spec, density(u), kernels)
    return params.beta * curl_A(spec, A)


def winding_number(u: WaveFunction, radius: float | None = None) -> int:
    """Phase winding of u around a centered circle (diagnostic only)."""
    spec = u.grid
    if radius is None:
        radius = 0.5 * spec.half_width
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    i = np.clip(((radius * np.cos(theta) + spec.half_width) / spec.h).astype(int), 0, spec.n - 1)
    j = np.clip(((radius * np.sin(theta) + spec.half_width) / spec.h).astype(int), 0, spec.n - 1)
    ph = np.angle(u.values[j, i])
    dph = np.diff(np.concatenate([ph, ph[:1]]))
    dph = (dph + np.pi) % (2.0 * np.pi) - np.pi
    return int(np.round(dph.sum() / (2.0 * np.pi)))
