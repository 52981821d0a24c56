import numpy as np
import pytest

from avfield.errors import DomainError
from avfield.fields import density, vector_potential
from avfield.functional import FunctionalParams, energy
from avfield.grid import GridSpec, WaveFunction, convolve, gaussian_state, integrate, padded_rfft
from avfield.kernels import TrapPotential, kernels_for
from avfield.manybody import (
    ManyBodyParams,
    mixed_term_crosscheck,
    product_state_energy,
)


@pytest.fixture
def spec():
    return GridSpec(n=64, half_width=8.0)


@pytest.fixture
def trap():
    return TrapPotential()


def phased_state(spec, seed):
    rng = np.random.default_rng(seed)
    x, y = spec.meshgrid()
    env = np.exp(-(x**2 + y**2) / 2.0)
    field = np.zeros((spec.n, spec.n), dtype=complex)
    for _ in range(4):
        kx, ky = rng.normal(scale=1.0, size=2)
        field += (rng.normal() + 1j * rng.normal()) * np.exp(1j * (kx * x + ky * y))
    return WaveFunction(spec, env * (1.0 + 0.4 * field)).normalized()


def test_params_validation(trap):
    with pytest.raises(DomainError):
        ManyBodyParams(N=1, beta=1.0, R=0.2, trap=trap)
    with pytest.raises(DomainError):
        ManyBodyParams(N=5, beta=1.0, R=0.0, trap=trap)
    for beta in (np.nan, np.inf):
        with pytest.raises(DomainError, match="beta must be finite"):
            ManyBodyParams(N=5, beta=beta, R=0.2, trap=trap)
    assert isinstance(ManyBodyParams(N=5, beta=1.0, R=0.2, trap=trap), FunctionalParams)


def test_manybody_params_evaluate_the_functional(spec, trap):
    # one parameter object serves both energies, with the functional's value
    u = phased_state(spec, 6)
    mp = ManyBodyParams(N=5, beta=0.8, R=0.2, trap=trap)
    fp = FunctionalParams(beta=0.8, R=0.2, trap=trap)
    assert energy(u, mp) == energy(WaveFunction(spec, u.values.copy()), fp)


def test_three_body_vanishes_at_two_particles(spec, trap):
    u = phased_state(spec, 0)
    bd = product_state_energy(u, ManyBodyParams(N=2, beta=1.3, R=0.2, trap=trap))
    assert bd.three_body == 0.0
    assert bd.singular > 0.0


def test_coefficients_are_exact(spec, trap):
    u = phased_state(spec, 1)
    beta, R = 0.9, 0.25
    kernels = kernels_for(spec, R)
    rho = density(u)
    A = vector_potential(spec, rho, kernels)
    quad = float(integrate(spec, rho * (A[0] ** 2 + A[1] ** 2)))
    # the N = 2, beta = 1 singular term is the pair term itself
    disp = product_state_energy(u, ManyBodyParams(N=2, beta=1.0, R=R, trap=trap)).singular
    for N in (2, 3, 17, 1000):
        bd = product_state_energy(u, ManyBodyParams(N=N, beta=beta, R=R, trap=trap))
        assert bd.three_body == pytest.approx(
            beta**2 * (N - 2) / (N - 1) * quad, rel=1e-14
        )
        assert bd.singular == pytest.approx(beta**2 / (N - 1) * disp, rel=1e-14)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("R", [0.1, 0.4])
def test_pair_term_matches_real_space_route(trap, n, R):
    # the pair term is a Parseval sum over the padded density spectrum; the
    # real-space route convolves rho with |grad w_R|^2 and integrates
    spec = GridSpec(n=n, half_width=8.0)
    # white noise under the envelope puts weight in every column of the
    # half spectrum, the kx = 0 and kx = n columns included
    noise = np.random.default_rng(5).normal(size=(n, n))
    u = WaveFunction(spec, phased_state(spec, 5).values * (1.0 + 0.5 * noise)).normalized()
    rho = density(u)
    oracle = float(integrate(spec, convolve(spec, rho, kernels_for(spec, R).grad_w_sq_fft) * rho))
    # at N = 2 and beta = 1 the singular term is the pair term itself
    pair = product_state_energy(u, ManyBodyParams(N=2, beta=1.0, R=R, trap=trap)).singular
    assert pair == pytest.approx(oracle, rel=1e-13)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("R", [0.1, 0.4])
def test_pair_term_is_the_parseval_sum_bit_for_bit(trap, n, R):
    # summed where rho_hat is formed, P equals the sum over a kept |rho_hat|^2
    spec = GridSpec(n=n, half_width=8.0)
    u = phased_state(spec, 7)
    rho_hat = padded_rfft(spec, density(u))
    terms = kernels_for(spec, R).grad_w_sq_fft * (rho_hat.real**2 + rho_hat.imag**2)
    total = 2.0 * terms.sum() - terms[:, 0].sum() - terms[:, -1].sum()
    expected = float(total) * spec.h**4 / (2 * spec.n) ** 2
    pair = product_state_energy(u, ManyBodyParams(N=2, beta=1.0, R=R, trap=trap)).singular
    assert pair == expected


def test_gap_scales_as_inverse_n(spec, trap):
    u = phased_state(spec, 2)
    af = energy(u, FunctionalParams(beta=1.0, R=0.2, trap=trap)).total
    gaps = []
    for N in (2, 10, 100, 1000):
        bd = product_state_energy(u, ManyBodyParams(N=N, beta=1.0, R=0.2, trap=trap))
        gaps.append((bd.per_particle_total - af) * (N - 1))
    assert all(g > 0 for g in gaps)
    assert np.ptp(gaps) < 1e-10 * abs(gaps[0])  # exactly c/(N-1)


def test_beta_sign_symmetry_for_real_states(spec, trap):
    u = gaussian_state(spec, width=0.9)
    a = product_state_energy(u, ManyBodyParams(N=7, beta=1.1, R=0.3, trap=trap))
    b = product_state_energy(u, ManyBodyParams(N=7, beta=-1.1, R=0.3, trap=trap))
    assert a.per_particle_total == pytest.approx(b.per_particle_total, abs=1e-13)


def test_beta_zero_is_one_body_only(spec, trap):
    u = phased_state(spec, 3)
    bd = product_state_energy(u, ManyBodyParams(N=10, beta=0.0, R=0.2, trap=trap))
    assert bd.mixed == bd.three_body == bd.singular == 0.0
    assert bd.per_particle_total == pytest.approx(bd.one_body)


def test_pair_dispersion_grows_as_r_shrinks(spec, trap):
    u = gaussian_state(spec)
    vals = [
        product_state_energy(u, ManyBodyParams(N=2, beta=1.0, R=R, trap=trap)).singular
        for R in (1.6, 0.8, 0.4)
    ]
    assert vals == sorted(vals)


def test_mixed_crosscheck_agreement(spec):
    u = phased_state(spec, 4)
    a, b = mixed_term_crosscheck(u, 0.2)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_mixed_crosscheck_real_and_conjugate(spec):
    u = gaussian_state(spec)
    a, b = mixed_term_crosscheck(u, 0.2)
    assert abs(a) < 1e-12 and abs(b) < 1e-12
    v = gaussian_state(spec, vortex=True)
    a, b = mixed_term_crosscheck(v, 0.2)
    ac, bc = mixed_term_crosscheck(WaveFunction(spec, np.conj(v.values)), 0.2)
    assert ac == pytest.approx(-a, rel=1e-12)
    assert bc == pytest.approx(-b, rel=1e-12)

