import importlib.util
from pathlib import Path

import numpy as np
import pytest

from avfield.fields import curl_A, current, density, vector_potential
from avfield.functional import FunctionalParams, StateFields, energy
from avfield.grid import (
    GridSpec,
    WaveFunction,
    gaussian_state,
    integrate,
    padded_rfft,
    spectral_gradient,
)
from avfield.kernels import SmearedCoulomb, TrapPotential, kernels_for
from avfield.verify import smooth_state


@pytest.fixture
def spec():
    return GridSpec(n=128, half_width=8.0)


def current_of(u):
    return np.stack(current(u.values, spectral_gradient(u.grid, u.values)))


def test_density_and_mass(spec):
    u = gaussian_state(spec)
    rho = density(u)
    assert rho.min() >= 0.0
    assert integrate(spec, rho) == pytest.approx(1.0, abs=1e-14)


def test_current_vanishes_for_real_states(spec):
    u = gaussian_state(spec)
    J = current_of(u)
    assert np.abs(J).max() < 1e-14


def test_current_of_vortex_is_azimuthal(spec):
    # u = (x+iy) g(r) has phase atan2(y, x), so J = rho * (-y, x)/r^2
    u = gaussian_state(spec, vortex=True)
    J = current_of(u)
    x, y = spec.meshgrid()
    r2 = x**2 + y**2
    rho = density(u)
    mask = (r2 > 0.25) & (r2 < 9.0)
    with np.errstate(invalid="ignore"):
        want_x = -y / r2 * rho
        want_y = x / r2 * rho
    assert np.allclose(J[0][mask], want_x[mask], atol=1e-8)
    assert np.allclose(J[1][mask], want_y[mask], atol=1e-8)


def test_current_of_boosted_state(spec):
    x, y = spec.meshgrid()
    env = np.exp(-(x**2 + y**2) / 2.0)
    u = WaveFunction(spec, env * np.exp(1j * (0.7 * x - 0.2 * y))).normalized()
    J = current_of(u)
    rho = density(u)
    assert np.allclose(J[0], 0.7 * rho, atol=1e-10)
    assert np.allclose(J[1], -0.2 * rho, atol=1e-10)


def test_vector_potential_divergence_free(spec):
    # the spectral divergence picks up a periodicity artifact from the
    # 1/r tail of A at the box edge, so compare only in the interior
    u = gaussian_state(spec)
    c = spec.n // 2
    sl = slice(c - 16, c + 16)
    for R in (0.0, 0.3):
        A = vector_potential(spec, density(u), kernels_for(spec, R))
        # div A is the curl of A turned by 90 degrees, (-A_y, A_x)
        div = curl_A(spec, np.stack([-A[1], A[0]]))
        assert np.abs(div[sl, sl]).max() < 1e-3 * np.abs(A).max()


def test_curl_is_2pi_density(spec):
    # for the point kernel curl A = 2 pi rho; compare away from the boundary
    u = gaussian_state(spec)
    rho = density(u)
    A = vector_potential(spec, rho, kernels_for(spec, 0.0))
    curl = curl_A(spec, A)
    c = spec.n // 2
    sl = slice(c - 20, c + 20)
    # tolerance limited by the same boundary-tail artifact as the divergence
    assert np.allclose(curl[sl, sl], 2.0 * np.pi * rho[sl, sl], atol=0.05)


def test_smeared_curl_spreads_the_charge(spec):
    # smearing moves curl mass outward but preserves the total flux
    u = gaussian_state(spec, width=0.6)
    rho = density(u)
    c0 = curl_A(spec, vector_potential(spec, rho, kernels_for(spec, 0.0)))
    c1 = curl_A(spec, vector_potential(spec, rho, kernels_for(spec, 0.8)))
    assert integrate(spec, c1) == pytest.approx(integrate(spec, c0), rel=1e-6)
    assert c1.max() < c0.max()


def test_vector_potential_of_radial_density_is_azimuthal(spec):
    # enclosed-charge form: A = (-y, x)/r^2 * Q(r) for radial rho
    u = gaussian_state(spec)
    rho = density(u)
    A = vector_potential(spec, rho, kernels_for(spec, 0.0))
    x, y = spec.meshgrid()
    r2 = x**2 + y**2
    q = 1.0 - np.exp(-r2)  # enclosed mass of the unit gaussian density
    mask = (r2 > 0.25) & (r2 < 9.0)
    # tolerance set by truncating the kernel tail at the padded box
    with np.errstate(invalid="ignore"):
        assert np.allclose(A[0][mask], (-y / r2 * q)[mask], atol=5e-3)
        assert np.allclose(A[1][mask], (x / r2 * q)[mask], atol=5e-3)


@pytest.mark.parametrize("R", [0.0, 0.3])
def test_vector_potential_is_the_direct_sum(R):
    # A(x_i) = h^2 sum_j perp-grad w_R(x_i - x_j) rho_j over all n^4 pairs of
    # grid points: their offsets never reach the padded sample's -2L line
    spec = GridSpec(n=16, half_width=2.0)
    rho = np.random.default_rng(8).random((16, 16))
    x, y = (c.ravel() for c in spec.meshgrid())
    gx, gy = SmearedCoulomb(R).grad_w(x[:, None] - x[None, :], y[:, None] - y[None, :])
    want = spec.h**2 * np.stack([-gy @ rho.ravel(), gx @ rho.ravel()]).reshape(2, 16, 16)
    got = vector_potential(spec, rho, kernels_for(spec, R))
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n", [16, 64, 512])
def test_state_fields_are_the_fields_functions(n):
    # A from the density and from its padded spectrum, and the cached J
    # against the current of a separately taken gradient: the same bytes
    spec = GridSpec(n=n, half_width=8.0)
    u = smooth_state(spec, np.random.default_rng(n))
    kernels = kernels_for(spec, 0.1)
    rho = density(u)
    A = vector_potential(spec, rho, kernels)
    assert A.tobytes() == vector_potential(spec, padded_rfft(spec, rho), kernels).tobytes()
    fields = StateFields(u, kernels)
    assert fields.A.tobytes() == A.tobytes()
    J = current(u.values, spectral_gradient(spec, u.values))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fields.J, J, strict=True))


def test_energy_runs_the_traced_fields_functions():
    # the benchmark's tracer times fields.vector_potential and fields.current
    # by name, so they must be what an evaluation calls, once per state
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    grid = GridSpec(n=64, half_width=8.0)
    u = smooth_state(grid, np.random.default_rng(3))
    params = FunctionalParams(beta=1.0, R=0.2, trap=TrapPotential())
    tracer = tracing.Tracer(grid.n)
    tracer.install()
    try:
        with tracer.span(0):
            energy(u, params)
            first = [s.name for s in tracer.spans]
            energy(u, params)
            second = [s.name for s in tracer.spans[len(first):]]
    finally:
        tracer.uninstall()
    assert first.count("fields.vector_potential") == 1
    assert first.count("fields.current") == 1
    assert "fields.vector_potential" not in second
    assert "fields.current" not in second
