"""Per-particle energy of factorized N-body states.

For a product of N copies of a normalized state u the exact per-particle
energy splits into

    one_body    = int |grad u|^2 + int V rho
    mixed       = 2 beta int A[rho].J
    three_body  = beta^2 (N-2)/(N-1) int rho |A[rho]|^2
    singular    = beta^2 / (N-1) int (|grad w_R|^2 * rho) rho

with A[rho] the self-generated vector potential and w_R the smeared log
kernel.  The singular term needs R > 0: |grad w_0|^2 ~ 1/|x|^2 is not
locally integrable in the plane.  The gap to the mean-field functional,
(singular - int rho |A|^2 scaled) / (N-1), is non-negative by
Cauchy-Schwarz and decays exactly like 1/(N-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .functional import FunctionalParams, energy, state_fields
from .grid import WaveFunction, convolve, integrate


@dataclass(frozen=True)
class ManyBodyParams(FunctionalParams):
    """The functional's parameters and the particle number N, by keyword."""

    N: int

    def __post_init__(self):
        super().__post_init__()
        if self.N < 2:
            raise DomainError(f"need at least two particles, got N={self.N}")
        if self.R <= 0:
            raise DomainError(
                "the pair term int (|grad w_R|^2 * rho) rho diverges at R = 0; "
                "a positive smearing radius is required"
            )


@dataclass(frozen=True)
class ManyBodyBreakdown:
    one_body: float
    mixed: float
    three_body: float
    singular: float

    @property
    def per_particle_total(self) -> float:
        return self.one_body + self.mixed + self.three_body + self.singular


def product_state_energy(u: WaveFunction, params: ManyBodyParams) -> ManyBodyBreakdown:
    """Exact per-particle energy of the N-fold product of u.

    It reads the fields that ``state_fields`` keeps on u: after
    ``energy`` on u it costs no transform (the pair term is the float that
    the energy summed when it formed the padded density spectrum).
    """
    fields = state_fields(u, params.R)
    bd = energy(fields, params)
    one_body = bd.kinetic + bd.potential

    beta, N = params.beta, params.N
    if beta == 0.0:
        return ManyBodyBreakdown(one_body, 0.0, 0.0, 0.0)
    three_body = (N - 2) / (N - 1) * bd.quartic
    # P = int (|grad w_R|^2 * rho) rho, summed by the energy (``StateFields.A``)
    singular = beta**2 / (N - 1) * fields.P
    return ManyBodyBreakdown(one_body, bd.mixed, three_body, singular)


def mixed_term_crosscheck(u: WaveFunction, R: float) -> tuple[float, float]:
    """The coupling 2 int A[rho].J computed along two independent paths.

    (a) unfolds the double integral and convolves the current with the
    perp-gradient kernel before integrating against the density;
    (b) convolves the density first (the production path).  Agreement is
    a joint test of the convolution layer and the kernel's antisymmetry.
    """
    spec = u.grid
    fields = state_fields(u, R)
    J = fields.J
    sx, sy = fields.kernels.grad_w_fft
    # inner integral of the unfolded form, through the spectra i S; the kernel
    # components are odd, so convolving J against +g gives the sign-flipped evaluation
    b1 = convolve(spec, J[0], 1j * sy) - convolve(spec, J[1], 1j * sx)
    route_a = 2.0 * float(integrate(spec, fields.rho * b1))
    route_b = 2.0 * fields.A_dot_J
    return route_a, route_b

