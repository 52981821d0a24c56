import tracemalloc
import weakref

import numpy as np
import pytest

from avfield import verify
from avfield.fields import density
from avfield.functional import (
    FunctionalParams,
    StateFields,
    energy,
    energy_and_gradient,
    sphere_project,
    state_fields,
)
from avfield.grid import (
    GridSpec,
    WaveFunction,
    convolve,
    gaussian_state,
    inner,
    integrate,
    spectral_gradient,
    spectral_laplacian,
)
from avfield.kernels import TrapPotential, kernels_for, trap_values
from avfield.manybody import ManyBodyParams, product_state_energy
from avfield.solver import SolverConfig, minimize
from avfield.verify import abs_kinetic, energy_alt, smooth_state

from fft_counter import FFTCounter


@pytest.fixture
def spec():
    return GridSpec(n=64, half_width=8.0)


@pytest.fixture
def trap():
    return TrapPotential()


def test_oscillator_ground_state(spec, trap):
    # the unit gaussian is the exact harmonic ground state with E = 2
    u = gaussian_state(spec)
    bd = energy(u, FunctionalParams(beta=0.0, R=0.0, trap=trap))
    assert bd.total == pytest.approx(2.0, abs=1e-12)
    assert bd.kinetic == pytest.approx(1.0, abs=1e-12)
    assert bd.potential == pytest.approx(1.0, abs=1e-12)
    assert bd.mixed == 0.0 and bd.quartic == 0.0


def test_energy_even_in_beta_for_real_states(spec, trap):
    u = gaussian_state(spec, width=0.8)
    plus = energy(u, FunctionalParams(beta=1.5, R=0.1, trap=trap))
    minus = energy(u, FunctionalParams(beta=-1.5, R=0.1, trap=trap))
    assert plus.total == pytest.approx(minus.total, abs=1e-13)
    assert plus.mixed == pytest.approx(0.0, abs=1e-13)


def test_breakdown_total_is_sum(spec, trap):
    u = smooth_state(spec, np.random.default_rng(0))
    bd = energy(u, FunctionalParams(beta=0.7, R=0.2, trap=trap))
    assert bd.total == pytest.approx(bd.kinetic + bd.mixed + bd.quartic + bd.potential)
    assert bd.magnetic_kinetic == pytest.approx(bd.kinetic + bd.mixed + bd.quartic)


def test_global_phase_invariance(spec, trap):
    u = smooth_state(spec, np.random.default_rng(1))
    params = FunctionalParams(beta=1.0, R=0.1, trap=trap)
    rotated = WaveFunction(spec, u.values * np.exp(1j * 0.73))
    assert energy(rotated, params).total == pytest.approx(
        energy(u, params).total, abs=1e-12
    )


def test_alt_energy_matches_on_nodeless_state(spec, trap):
    x, y = spec.meshgrid()
    env = np.exp(-(x**2 + y**2) / 2.0)
    u = WaveFunction(spec, env * np.exp(1j * 0.3 * x)).normalized()
    params = FunctionalParams(beta=0.8, R=0.2, trap=trap)
    bd = energy(u, params)
    alt = energy_alt(u, params)
    # the polar split agrees where the state never vanishes on the grid
    assert alt.value == pytest.approx(bd.total, rel=1e-6)


def test_alt_energy_flags_nodes(spec, trap):
    u = gaussian_state(spec, vortex=True)
    alt = energy_alt(u, FunctionalParams(beta=0.5, R=0.1, trap=trap))
    assert alt.zero_nodes >= 1


def test_gradient_finite_difference_contract(spec, trap):
    rng = np.random.default_rng(7)
    u = smooth_state(spec, rng)
    params = FunctionalParams(beta=0.9, R=0.15, trap=trap)
    G = energy_and_gradient(u, params)[1]
    v = smooth_state(spec, rng).values
    eps = 1e-5

    def e_at(t):
        return energy(WaveFunction(spec, u.values + t * v), params).total

    fd = (e_at(eps) - e_at(-eps)) / (2.0 * eps)
    pred = 2.0 * inner(spec, v, G).real
    assert fd == pytest.approx(pred, rel=1e-7)


def test_fused_energy_matches_plain(spec, trap):
    u = smooth_state(spec, np.random.default_rng(8))
    params = FunctionalParams(beta=1.2, R=0.3, trap=trap)
    bd, G = energy_and_gradient(u, params)
    assert bd.total == pytest.approx(energy(u, params).total, abs=1e-13)
    assert np.allclose(G, energy_and_gradient(u, params)[1])


def plain_energy_and_gradient(u, params):
    """The functional and its first variation written out term by term.

    Every derivative and convolution is its own transform, as in the
    formulas of the ``functional`` module docstring; no quantity is shared.
    """
    spec, v, beta = u.grid, u.values, params.beta
    rho = np.abs(v) ** 2
    V = trap_values(spec, params.trap)
    gx, gy = (1j * s for s in kernels_for(spec, params.R).grad_w_fft)  # the complex spectra
    ux, uy = spectral_gradient(spec, v)
    ax = -convolve(spec, rho, gy)
    ay = convolve(spec, rho, gx)
    jx = (0.5j * (v * np.conj(ux) - np.conj(v) * ux)).real
    jy = (0.5j * (v * np.conj(uy) - np.conj(v) * uy)).real
    terms = (
        float(integrate(spec, np.abs(ux) ** 2 + np.abs(uy) ** 2)),
        2.0 * beta * float(integrate(spec, ax * jx + ay * jy)),
        beta**2 * float(integrate(spec, rho * (ax**2 + ay**2))),
        float(integrate(spec, V * rho)),
    )
    dax, _ = spectral_gradient(spec, ax * v)
    _, day = spectral_gradient(spec, ay * v)
    mag = (
        -spectral_laplacian(spec, v)
        - 1j * beta * (ax * ux + ay * uy + dax + day)
        + beta**2 * (ax**2 + ay**2) * v
    )
    fx = jx + beta * rho * ax
    fy = jy + beta * rho * ay
    W = -2.0 * beta * (-convolve(spec, fx, gy) + convolve(spec, fy, gx))
    return terms, mag + (V + W) * v


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("R", [0.0, 0.2])
def test_evaluation_core_matches_plain_formulas(spec, trap, beta, R):
    u = smooth_state(spec, np.random.default_rng(11))
    params = FunctionalParams(beta=beta, R=R, trap=trap)
    terms, G_ref = plain_energy_and_gradient(u, params)
    total = sum(terms)
    bd, G = energy_and_gradient(u, params)
    got = (bd.kinetic, bd.mixed, bd.quartic, bd.potential)
    assert np.allclose(got, terms, rtol=0.0, atol=1e-13 * abs(total))
    assert bd.total == pytest.approx(total, rel=1e-13)
    assert energy(u, params) == bd
    assert np.abs(G - G_ref).max() <= 1e-13 * np.abs(G_ref).max()


def two_axis_gradient(u, params):
    """G with the linear part -lap u - i beta div(A u) taken through three
    2-D transforms, fft2(A_x u), fft2(A_y u) and one ifft2 of their sum
    with k^2 u_hat; every other term from the same fields as ``energy_and_gradient``."""
    spec, v, beta = u.grid, u.values, params.beta
    fields = StateFields(u, kernels_for(spec, params.R))
    rho, (ax, ay), (jx, jy), (ux, uy) = fields.rho, fields.A, fields.J, fields.grad
    kx, ky = spec.wavenumbers()
    lin_hat = (kx**2 + ky**2) * fields.spectrum
    lin_hat += beta * (kx * np.fft.fft2(ax * v) + ky * np.fft.fft2(ay * v))
    gx, gy = (1j * s for s in fields.kernels.grad_w_fft)
    W = -2.0 * beta * (convolve(spec, jy + beta * rho * ay, gx)
                       - convolve(spec, jx + beta * rho * ax, gy))
    G = np.fft.ifft2(lin_hat) - 1j * beta * (ax * ux + ay * uy)
    return G + (beta**2 * (ax**2 + ay**2) + trap_values(spec, params.trap) + W) * v


@pytest.mark.parametrize("beta", [0.7, 4.0])
@pytest.mark.parametrize("R", [0.0, 0.2])
def test_one_axis_gradient_matches_two_axis_form(spec, trap, beta, R):
    u = smooth_state(spec, np.random.default_rng(17))
    params = FunctionalParams(beta=beta, R=R, trap=trap)
    G_ref = two_axis_gradient(u, params)
    G = energy_and_gradient(u, params)[1]
    assert np.abs(G - G_ref).max() <= 1e-13 * np.abs(G_ref).max()


def test_gradient_finite_difference_contract_at_strong_coupling(spec, trap):
    rng = np.random.default_rng(18)
    u = smooth_state(spec, rng)
    params = FunctionalParams(beta=4.0, R=0.2, trap=trap)
    G = energy_and_gradient(u, params)[1]
    v = smooth_state(spec, rng).values
    eps = 1e-5

    def e_at(t):
        return energy(WaveFunction(spec, u.values + t * v), params).total

    fd = (e_at(eps) - e_at(-eps)) / (2.0 * eps)
    assert fd == pytest.approx(2.0 * inner(spec, v, G).real, rel=1e-7)


@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_fft_budget_per_evaluation(spec, trap, monkeypatch, beta):
    u = smooth_state(spec, np.random.default_rng(12))
    params = FunctionalParams(beta=beta, R=0.2, trap=trap)
    kernels_for(spec, params.R)  # kernel FFTs are built once per grid, outside the count
    counter = FFTCounter(monkeypatch, spec.n)
    energy(u, params)
    n2_e, pad_e = counter.take()
    # a new state over the same samples, so nothing is reused from u
    energy_and_gradient(WaveFunction(spec, u.values), params)
    n2_eg, pad_eg = counter.take()
    assert n2_e <= 3 and n2_eg <= 5
    if beta == 0.0:
        assert pad_e == 0 and pad_eg == 0
    else:
        assert pad_e <= 3 and pad_eg <= 6


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("R", [0.0, 0.2])
def test_gradient_from_evaluated_fields_matches_fresh_state(spec, trap, monkeypatch, beta, R):
    u = smooth_state(spec, np.random.default_rng(13))
    params = FunctionalParams(beta=beta, R=R, trap=trap)
    kernels = kernels_for(spec, R)
    bd_ref, G_ref = energy_and_gradient(u, params)
    counter = FFTCounter(monkeypatch, spec.n)
    fields = StateFields(u, kernels)
    assert energy(fields, params) == bd_ref
    counter.take()
    bd, G = energy_and_gradient(fields, params)
    n2, pad = counter.take()
    assert bd == bd_ref
    assert G.tobytes() == G_ref.tobytes()
    if beta == 0.0:
        assert n2 <= 1 and pad == 0
    else:
        assert n2 <= 2 and pad <= 3


def test_a_second_gradient_forms_grad_u_again(spec, trap, monkeypatch):
    # the gradient frees grad u and the energy the spectrum, so a second
    # gradient of one state pays the spectrum and grad u again
    u = smooth_state(spec, np.random.default_rng(18))
    params = FunctionalParams(beta=0.7, R=0.2, trap=trap)
    G_ref = energy_and_gradient(u, params)[1]
    counter = FFTCounter(monkeypatch, spec.n)
    G = energy_and_gradient(u, params)[1]
    assert counter.take() == (5, 3)
    assert G.tobytes() == G_ref.tobytes()


def test_uncoupled_gradient_after_a_coupled_energy(spec, trap, monkeypatch):
    u = smooth_state(spec, np.random.default_rng(19))
    params = FunctionalParams(beta=0.0, R=0.2, trap=trap)
    bd_ref, G_ref = energy_and_gradient(WaveFunction(spec, u.values), params)
    energy(u, FunctionalParams(beta=0.7, R=0.2, trap=trap))  # grad u freed the spectrum
    counter = FFTCounter(monkeypatch, spec.n)
    bd, G = energy_and_gradient(u, params)
    assert counter.take() == (2, 0)
    assert bd == bd_ref and G.tobytes() == G_ref.tobytes()


def test_potential_term_is_kept_per_trap(spec, trap):
    # int V rho is formed once per trap: a second energy under the same trap
    # forms no n x n product V rho, another trap forms and keeps its own
    u = smooth_state(spec, np.random.default_rng(20))
    params = FunctionalParams(beta=0.7, R=0.2, trap=trap)
    quartic = FunctionalParams(beta=0.7, R=0.2, trap=TrapPotential(c=0.5, s=4.0))
    for p in (params, quartic):
        trap_values(spec, p.trap)  # V is memoized per grid and trap
    first = energy(u, params)
    tracemalloc.start()
    try:
        again = energy(u, params)
        peak_again = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        other = energy(u, quartic)
        peak_other = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = spec.n**2 * 8
    assert again == first and peak_again < array / 2
    assert peak_other >= array
    assert other == energy(WaveFunction(spec, u.values), quartic)
    assert other.potential != first.potential and other.kinetic == first.kinetic
    assert energy(u, params) == first and energy(u, quartic) == other


def attached_fields(u):
    return [v for v in vars(u).values() if isinstance(v, StateFields)]


def test_calls_on_one_state_share_its_fields(spec, trap, monkeypatch):
    u = smooth_state(spec, np.random.default_rng(14))
    params = FunctionalParams(beta=0.7, R=0.2, trap=trap)
    mb = ManyBodyParams(N=10, beta=0.7, R=0.2, trap=trap)

    def fresh():
        return WaveFunction(spec, u.values.copy())

    # each reference call on its own copy; this also builds the kernel FFTs
    e_ref = energy(fresh(), params)
    bd_ref, G_ref = energy_and_gradient(fresh(), params)
    pb_ref = product_state_energy(fresh(), mb)
    counter = FFTCounter(monkeypatch, spec.n)
    e = energy(u, params)
    after_energy = counter.take()
    bd, G = energy_and_gradient(u, params)
    after_gradient = counter.take()
    pb = product_state_energy(u, mb)
    after_product = counter.take()
    assert (after_energy, after_gradient, after_product) == ((3, 3), (2, 3), (0, 0))
    assert e == e_ref and bd == bd_ref and pb == pb_ref
    assert G.tobytes() == G_ref.tobytes()


def test_state_fields_are_keyed_by_kernels_and_freed_with_the_state(spec, trap):
    u = smooth_state(spec, np.random.default_rng(15))
    energy(u, FunctionalParams(beta=0.7, R=0.2, trap=trap))
    first = weakref.ref(state_fields(u, 0.2))
    assert attached_fields(u) == [first()]
    assert first().kernels is kernels_for(spec, 0.2)
    # another radius replaces the entry, and the replaced fields are freed
    energy(u, FunctionalParams(beta=0.7, R=0.1, trap=trap))
    second = weakref.ref(state_fields(u, 0.1))
    assert first() is None
    assert attached_fields(u) == [second()]
    assert second().kernels is kernels_for(spec, 0.1)
    del u
    assert second() is None


def test_solver_start_and_verify_cases_keep_no_fields(spec, trap):
    params = FunctionalParams(beta=1.0, R=0.2, trap=trap)
    cfg = SolverConfig(tol_grad=1e-5)
    w = minimize(params, spec, cfg).u
    assert not attached_fields(w)
    # from a minimizer the warm solve stops at its start, which it returns
    res = minimize(params, spec, cfg, warm_start=w)
    assert res.iterations == 0
    assert not attached_fields(w) and not attached_fields(res.u)
    rng = np.random.default_rng(16)
    cases = [(smooth_state(spec, rng), params) for _ in range(3)]
    verify.evaluated(cases)
    assert not any(attached_fields(u) for u, _ in cases)


def test_verify_cases_form_no_pair_term(spec, trap, monkeypatch):
    real_fields, built = verify.StateFields, []

    def recording_fields(*args):
        built.append(real_fields(*args))
        return built[-1]

    monkeypatch.setattr(verify, "StateFields", recording_fields)
    params = FunctionalParams(beta=1.0, R=0.2, trap=trap)
    rng = np.random.default_rng(17)
    cases = verify.evaluated([(smooth_state(spec, rng), params) for _ in range(2)])
    assert len(built) == 2
    assert all(f.kernels.grad_w_sq_fft is None and "P" not in vars(f) for f in built)
    # the same breakdown as from the fields that keep P
    for u, p, bd, _ in cases:
        assert bd == energy(WaveFunction(spec, u.values.copy()), p)


@pytest.mark.parametrize("beta, R", [(8.0, 1.0), (4.0, 0.5)])
def test_density_lower_bound_holds_at_smeared_minimizers(spec, trap, beta, R):
    # at these minimizers the magnetic kinetic energy lies below the R = 0
    # bound 2 pi |beta| int rho^2; the smeared bound uses chi_R * rho
    params = FunctionalParams(beta=beta, R=R, trap=trap)
    res = minimize(params, spec, SolverConfig(tol_grad=1e-6))
    assert res.converged
    u = res.u
    unsmeared = 2.0 * np.pi * beta * float(integrate(spec, density(u) ** 2))
    assert res.breakdown.magnetic_kinetic < unsmeared
    check = verify.density_lower_bound(verify.evaluated([(u, params)]))
    assert check["ok"], check


def test_sphere_projection_is_tangent(spec, trap):
    u = smooth_state(spec, np.random.default_rng(9))
    g = energy_and_gradient(u, FunctionalParams(beta=0.5, R=0.1, trap=trap))[1]
    pg = sphere_project(spec, g, u)
    assert abs(inner(spec, u.values, pg).real) < 1e-12 * np.abs(g).max()


def test_diamagnetic_inequality_sample(spec, trap):
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = smooth_state(spec, rng)
        beta = float(rng.uniform(-2, 2))
        bd = energy(u, FunctionalParams(beta=beta, R=0.0, trap=trap))
        assert bd.magnetic_kinetic >= abs_kinetic(u) - 1e-8

