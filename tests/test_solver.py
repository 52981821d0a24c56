import dataclasses
import json
import types

import numpy as np
import pytest

from avfield.cli import EXIT_OK, EXIT_UNCONVERGED, main
from avfield.errors import DomainError, NumericalFailureError
from avfield.functional import (
    EnergyBreakdown,
    FunctionalParams,
    StateFields,
    energy_and_gradient,
    sphere_project,
)
from avfield.grid import GridSpec, WaveFunction, gaussian_state, inner, l2_norm
from avfield import solver
from avfield.kernels import TrapPotential, kernels_for
from avfield.solver import SolverConfig, SolveResult, initial_state, minimize, sweep

from fft_counter import FFTCounter


@pytest.fixture
def spec():
    return GridSpec(n=64, half_width=8.0)


@pytest.fixture
def trap():
    return TrapPotential()


def test_config_validation():
    for bad in ({"tol_grad": 0.0}, {"tol_grad": float("nan")}, {"max_iters": -3}, {"seed": -1}):
        with pytest.raises(DomainError):
            SolverConfig(**bad)


def test_initial_state_variants(spec):
    g = initial_state(spec, SolverConfig())
    assert g.mass == pytest.approx(1.0)
    # the symmetry-breaking seed
    assert 0.0 < np.max(np.abs(g.values - gaussian_state(spec).values)) < 1e-9
    r = initial_state(spec, SolverConfig(seed=4))
    r2 = initial_state(spec, SolverConfig(seed=4))
    assert np.allclose(r.values, r2.values)


def test_oscillator_converges_immediately(spec, trap):
    # the gaussian start is the exact beta=0 ground state
    res = minimize(FunctionalParams(beta=0.0, R=0.0, trap=trap), spec)
    assert res.converged
    assert res.iterations == 0
    assert res.breakdown.total == pytest.approx(2.0, abs=1e-10)


def test_descent_from_perturbed_start(spec, trap):
    cfg = SolverConfig(seed=2, tol_grad=1e-6)
    res = minimize(FunctionalParams(beta=0.0, R=0.0, trap=trap), spec, cfg)
    assert res.converged
    assert res.breakdown.total == pytest.approx(2.0, abs=1e-6)
    hist = np.array(res.energy_history)
    assert (np.diff(hist) <= 1e-14).all()  # monotone decrease
    assert res.u.mass == pytest.approx(1.0, abs=1e-12)


def test_interacting_solve_and_warm_restart(spec, trap):
    params = FunctionalParams(beta=0.5, R=0.2, trap=trap)
    cfg = SolverConfig(tol_grad=1e-5)
    res = minimize(params, spec, cfg)
    assert res.converged
    assert res.breakdown.total > 2.0  # interaction raises the energy
    again = minimize(params, spec, cfg, warm_start=res.u)
    assert again.iterations <= 5
    assert again.breakdown.total == pytest.approx(res.breakdown.total, abs=1e-8)


def test_gaussian_start_leaves_a_symmetric_saddle(spec, trap):
    # a start with the grid's symmetry stopped at a symmetric saddle,
    # E = 4.5239, unless round-off happened to break the symmetry in time
    res = minimize(FunctionalParams(beta=4.0, R=0.5, trap=trap), spec,
                   SolverConfig(tol_grad=1e-6))
    assert res.converged
    assert res.breakdown.total == pytest.approx(3.917597021959, rel=1e-10)


def test_boundary_warning_for_small_box(trap):
    tight = GridSpec(n=32, half_width=2.0)
    res = minimize(
        FunctionalParams(beta=0.0, R=0.0, trap=trap),
        tight,
        SolverConfig(max_iters=5, tol_grad=1e-1),
    )
    assert any("boundary" in w for w in res.warnings)


def betas(trap, values):
    return [FunctionalParams(beta=b, R=0.0, trap=trap) for b in values]


def test_sweep_warm_start_and_columns(spec, trap):
    rows = sweep(betas(trap, [0.0, 0.1, 0.2]), spec, SolverConfig(tol_grad=1e-4))
    assert [type(r) for r in rows] == [SolveResult] * 3
    totals = [r.breakdown.total for r in rows]
    assert totals[0] == pytest.approx(2.0, abs=1e-10)
    assert totals == sorted(totals)  # energy grows with |beta|
    assert all(r.converged for r in rows)


def test_sweep_cold_restarts_only_unconverged_rows(spec, trap, monkeypatch):
    warm_flags = []

    def recording(p, spec, cfg=SolverConfig(), warm_start=None):
        warm_flags.append(warm_start is not None)
        return minimize(p, spec, cfg, warm_start)

    monkeypatch.setattr(solver, "minimize", recording)
    # the energy rises along this axis, yet converged rows are not re-solved
    rows = sweep(betas(trap, [0.0, 0.1, 0.2]), spec, SolverConfig(tol_grad=1e-4))
    assert all(r.converged for r in rows)
    assert warm_flags == [False, True, True]

    warm_flags.clear()
    # three iterations cannot converge the beta=0.1 row, so it is re-run cold
    sweep(betas(trap, [0.0, 0.1]), spec, SolverConfig(max_iters=3, tol_grad=1e-8))
    assert warm_flags == [False, True, False]


def test_sweep_row_after_a_failed_row_starts_cold(spec, trap, monkeypatch):
    warm_flags = []

    def failing_second(p, spec, cfg=SolverConfig(), warm_start=None):
        warm_flags.append(warm_start is not None)
        if p.beta == 0.1:
            raise NumericalFailureError("planted")
        return minimize(p, spec, cfg, warm_start)

    monkeypatch.setattr(solver, "minimize", failing_second)
    rows = sweep(betas(trap, [0.0, 0.1, 0.2]), spec, SolverConfig(tol_grad=1e-4))
    assert [type(r) for r in rows] == [SolveResult, NumericalFailureError, SolveResult]
    assert str(rows[1]) == "planted"
    assert warm_flags == [False, True, False]


def test_sweep_keeps_a_lower_cold_resolve(spec, trap, monkeypatch):
    def planted(total, converged):
        bd = EnergyBreakdown(total, 0.0, 0.0, 0.0)
        return SolveResult(u=gaussian_state(spec), breakdown=bd, iterations=1,
                           converged=converged, grad_norm=1e-3, boundary_mass=0.0)

    # beta -> (warm result, cold result); only beta = 0.1 has a lower cold one
    results = {0.0: (None, planted(2.0, True)), 0.1: (planted(4.0, False), planted(3.0, True)),
               0.2: (planted(5.0, True), None)}
    warm_starts = []

    def fake(p, spec, cfg=SolverConfig(), warm_start=None):
        warm_starts.append(warm_start)
        return results[p.beta][warm_start is None]

    monkeypatch.setattr(solver, "minimize", fake)
    rows = sweep(betas(trap, [0.0, 0.1, 0.2]), spec)
    kept = [results[0.0][1], results[0.1][1], results[0.2][0]]
    assert all(row is want for row, want in zip(rows, kept, strict=True))
    # the beta = 0.2 row warm-starts from the kept cold state
    assert [w is None for w in warm_starts] == [True, False, True, False]
    assert warm_starts[3] is results[0.1][1].u


def test_sweep_axis_validation(spec, trap):
    with pytest.raises(DomainError):
        sweep([], spec)


def lowest_eigenvalue(spec, c, s):
    """Smallest eigenvalue of F^-1 k^2 F + V, the beta = 0 Rayleigh quotient.

    Wavenumbers and trap are built here rather than taken from avfield; the
    Nyquist mode is zeroed as in the spectral derivative.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    n, h = spec.n, spec.h
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    k[n // 2] = 0.0
    k2 = k[np.newaxis, :] ** 2 + k[:, np.newaxis] ** 2
    a = -spec.half_width + h * np.arange(n)
    x, y = np.meshgrid(a, a, indexing="xy")
    V = c * np.hypot(x, y) ** s

    def apply(v):
        f = v.reshape(n, n)
        return (np.fft.ifft2(k2 * np.fft.fft2(f)).real + V * f).ravel()

    op = LinearOperator((n * n, n * n), matvec=apply, dtype=float)
    v0 = np.exp(-(x**2 + y**2) / 2.0).ravel()
    return float(eigsh(op, k=1, which="SA", v0=v0, tol=1e-12,
                       return_eigenvectors=False)[0])


def test_sweep_s_axis_changes_trap(spec):
    problems = [FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=s)) for s in (2.0, 4.0)]
    rows = sweep(problems, spec, SolverConfig(tol_grad=1e-4))
    assert all(r.converged for r in rows)
    assert rows[0].breakdown.total == pytest.approx(2.0, abs=1e-6)
    assert rows[1].breakdown.total == pytest.approx(lowest_eigenvalue(spec, 1.0, 4.0), rel=1e-6)


def test_iteration_budget_of_reference_solve(spec, trap):
    # steepest descent with the Laplacian-only preconditioner took 283
    # iterations here, CG with a product of kinetic and trap factors 22 and
    # the separable inverse 13
    res = minimize(FunctionalParams(beta=1.0, R=0.1, trap=trap), spec,
                   SolverConfig(tol_grad=1e-6))
    assert res.converged
    assert res.iterations <= 20


def test_benchmark_quartic_solve_iterations(spec):
    # the solve-quartic benchmark problem: 55 iterations with the trap-first
    # product preconditioner, 17 with the separable inverse, 14 with Powell's
    # restart test
    res = minimize(FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=4.0)), spec,
                   SolverConfig(tol_grad=1e-4))
    assert res.converged
    assert res.iterations <= 14
    assert res.breakdown.total == pytest.approx(lowest_eigenvalue(spec, 1.0, 4.0), rel=1e-9)


@pytest.mark.parametrize(
    "s, beta, R, n, tol_grad",
    [(6.0, 0.0, 0.0, 128, 1e-4), (6.0, 0.0, 0.0, 128, 1e-5), (3.0, 1.0, 0.2, 64, 1e-6),
     (4.0, 2.0, 0.2, 128, 1e-6)],
)
def test_stiff_trap_solves_converge(s, beta, R, n, tol_grad, tmp_path):
    # with the product preconditioner these stopped unconverged: |x|^6 at
    # 121/187 iterations (exit 4), |x|^3 at 89, |x|^4 at 77/22; |x|^6 at
    # tol_grad 1e-6 still stops at the round-off floor
    out = tmp_path / "report.json"
    code = main(["solve", "--beta", str(beta), "--R", str(R), "--trap", "power",
                 "--trap-s", str(s), "--grid", str(n), "--box", "8",
                 "--tol-grad", str(tol_grad), "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["converged"] is True


def test_the_last_iterate_is_tested(spec, trap):
    # the unbounded solve converges after exactly 9 iterations, so a cap of
    # 9 returns the same state, which meets the tolerance
    params = FunctionalParams(beta=1.0, R=0.1, trap=trap)
    capped = minimize(params, spec, SolverConfig(max_iters=9, tol_grad=1e-5))
    free = minimize(params, spec, SolverConfig(tol_grad=1e-5))
    assert capped.iterations == free.iterations == 9
    assert capped.converged and capped.warnings == []
    assert capped.u.values.tobytes() == free.u.values.tobytes()


def test_unconverged_solve_warns(spec, trap):
    res = minimize(FunctionalParams(beta=0.5, R=0.2, trap=trap), spec,
                   SolverConfig(max_iters=3, tol_grad=1e-8))
    assert not res.converged
    assert any("not converged after 3 iterations" in w for w in res.warnings)
    ok = minimize(FunctionalParams(beta=0.0, R=0.0, trap=trap), spec)
    assert ok.converged and ok.warnings == []


def test_max_iters_reports_the_returned_state_gradient_norm(spec, trap):
    params = FunctionalParams(beta=0.5, R=0.2, trap=trap)
    res = minimize(params, spec, SolverConfig(max_iters=3, tol_grad=1e-8))
    assert res.iterations == 3 and not res.converged
    want = l2_norm(spec, sphere_project(spec, energy_and_gradient(res.u, params)[1], res.u))
    assert res.grad_norm == pytest.approx(want, rel=1e-12)
    assert any(f"gradient norm {want:.3e}" in w for w in res.warnings)


def cg_inputs(spec, trap):
    """A state u, its gradient G, projected gradient g and a d = proj(g / 3)."""
    params = FunctionalParams(beta=0.5, R=0.2, trap=trap)
    u = initial_state(spec, SolverConfig(seed=3))
    _, G = energy_and_gradient(u, params)
    g = sphere_project(spec, G, u)
    d = sphere_project(spec, np.fft.ifft2(np.fft.fft2(g) / 3.0), u)
    return u, G, g, d


def test_cg_direction_restarts_from_preconditioned_gradient(spec, trap):
    u, G, g, d = cg_inputs(spec, trap)
    gd = inner(spec, g, d).real

    # p_prev = -d with b = 1000 makes d + b p_prev point uphill
    planted = (np.zeros_like(g), -d, 1e-3 * gd)
    p, slope = solver._cg_direction(spec, u, G, g, d, gd, planted)
    assert p is d
    assert slope == pytest.approx(-2.0 * inner(spec, d, G).real)
    assert slope < 0.0

    # a benign previous direction is kept with the Polak-Ribiere+ weight
    p_prev = sphere_project(spec, np.roll(d, 1, axis=0), u)
    p, slope = solver._cg_direction(spec, u, G, g, d, gd, (np.zeros_like(g), p_prev, gd))
    assert np.allclose(p, d + sphere_project(spec, p_prev, u))
    assert slope == pytest.approx(-2.0 * inner(spec, p, G).real)
    assert slope < 0.0

    # d = -g points uphill, so the direction falls back to g
    p, slope = solver._cg_direction(spec, u, G, g, -g, -inner(spec, g, g).real, None)
    assert p is g
    assert slope == -2.0 * inner(spec, g, G).real
    assert slope < 0.0


@pytest.mark.parametrize("overlap, restarts", [(0.1, False), (0.5, True), (-0.3, True)])
def test_powell_test_restarts_when_gradients_overlap(spec, trap, overlap, restarts):
    # g_prev = overlap g gives <g_prev, d> = overlap <g, d> and
    # b = (1 - overlap) > 0; the combination would be a descent direction
    u, G, g, d = cg_inputs(spec, trap)
    gd = inner(spec, g, d).real
    p_prev = sphere_project(spec, np.roll(d, 1, axis=0), u)
    p, slope = solver._cg_direction(spec, u, G, g, d, gd, (overlap * g, p_prev, gd))
    if restarts:
        assert p is d
    else:
        assert np.allclose(p, d + (1.0 - overlap) * sphere_project(spec, p_prev, u))
    assert slope == pytest.approx(-2.0 * inner(spec, p, G).real)
    assert slope < 0.0


def test_accepted_trial_is_evaluated_once(spec, trap, monkeypatch):
    params = FunctionalParams(beta=1.0, R=0.2, trap=trap)
    kernels_for(spec, params.R)  # kernel FFTs are built once per grid, outside the count
    real_init, real_energy = StateFields.__init__, solver.energy
    calls = {"build": 0, "line_search": 0}

    def counting_init(self, *args, **kwargs):
        calls["build"] += 1
        real_init(self, *args, **kwargs)

    def counting_energy(*args, **kwargs):
        calls["line_search"] += 1
        return real_energy(*args, **kwargs)

    monkeypatch.setattr(StateFields, "__init__", counting_init)
    monkeypatch.setattr(solver, "energy", counting_energy)
    counter = FFTCounter(monkeypatch, spec.n)
    res = minimize(params, spec, SolverConfig(tol_grad=1e-6))
    n2, pad = counter.take()
    assert res.converged and res.iterations > 0
    # the initial state and each line-search trial, nothing else
    assert calls["build"] == 1 + calls["line_search"]
    # 3 n x n and 3 padded transforms for the energy of each state (the
    # initial one and the trials), and for each gradient (the initial one
    # and one per accepted step) 3 padded and two one-axis derivative
    # pairs, which count as 2 n x n; the preconditioner uses none
    states = 1 + calls["line_search"]
    gradients = res.iterations + 1
    assert pad <= 3 * states + 3 * gradients
    assert n2 <= 3 * states + 2 * gradients


def test_preconditioner_inverts_the_harmonic_hamiltonian(spec, trap):
    # for s = 2 the separable surrogate c(|x|^2 + |y|^2) is the trap itself
    rng = np.random.default_rng(4)
    f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    kx, ky = spec.wavenumbers()
    x, y = spec.meshgrid()
    sigma = 1.7
    hf = np.fft.ifft2((kx**2 + ky**2) * np.fft.fft2(f)) + (x**2 + y**2 + sigma) * f
    got = solver._precondition(hf, spec, trap, sigma)
    assert l2_norm(spec, got - f) <= 1e-12 * l2_norm(spec, f)


@pytest.mark.parametrize("s", [2.5, 4.0, 6.0])
def test_preconditioner_is_symmetric_and_positive(spec, s):
    rng = np.random.default_rng(5)
    a, b = (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)) for _ in range(2))
    trap = TrapPotential(s=s)
    sigma = 2.0
    Pa = solver._precondition(a, spec, trap, sigma)
    Pb = solver._precondition(b, spec, trap, sigma)
    assert inner(spec, b, Pa) == pytest.approx(inner(spec, Pb, a), rel=1e-12)
    assert inner(spec, a, Pa).real > 0.0


def test_stiff_quartic_trap_converges_quickly():
    # max V / max k^2 = 236 here: the product (k^2 + sigma)^-1/2 (V + sigma)^-1
    # (k^2 + sigma)^-1/2 took 2335 iterations, the other order 38, the
    # separable inverse 18
    grid = GridSpec(n=32, half_width=8.0)
    res = minimize(FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=4.0)), grid,
                   SolverConfig(tol_grad=1e-4))
    assert res.converged
    assert res.iterations <= 25
    assert res.breakdown.total == pytest.approx(lowest_eigenvalue(grid, 1.0, 4.0), rel=1e-6)


def test_line_search_calls_per_iteration_of_reference_solve(spec, trap, monkeypatch):
    # restarting every search at twice the last step took 1.79 calls per iteration
    real_energy = solver.energy
    calls = []

    def counting_energy(*args, **kwargs):
        calls.append(1)
        return real_energy(*args, **kwargs)

    monkeypatch.setattr(solver, "energy", counting_energy)
    res = minimize(FunctionalParams(beta=1.0, R=0.1, trap=trap), spec,
                   SolverConfig(tol_grad=1e-6))
    assert res.converged and res.iterations > 0
    assert len(calls) <= 1.3 * res.iterations


def trig_state(spec, modes):
    """Samples of sum c exp(i pi (kx x + ky y) / L) over ``modes`` of (kx, ky, c)."""
    x, y = spec.meshgrid()
    w = np.pi / spec.half_width
    vals = sum(c * np.exp(1j * w * (kx * x + ky * y)) for kx, ky, c in modes)
    return WaveFunction(spec, vals).normalized()


@pytest.mark.parametrize("m", [32, 64])
def test_prolongation_is_exact_for_band_limited_states(m):
    rng = np.random.default_rng(m)
    # only modes with |k| < m / 2, which the coarse grid resolves, the
    # highest of them included
    modes = [(kx, ky, rng.normal() + 1j * rng.normal())
             for kx in range(1 - m // 2, m // 2) for ky in range(1 - m // 2, m // 2)
             if rng.random() < 0.1]
    modes.append((m // 2 - 1, 1 - m // 2, 1.0))
    coarse = trig_state(GridSpec(n=m, half_width=3.0), modes)
    fine = GridSpec(n=2 * m, half_width=3.0)
    got = solver._prolong(coarse, fine)
    assert np.max(np.abs(got.values - trig_state(fine, modes).values)) <= 1e-12


@pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.4, 1.0, 3.0])
def test_coarse_started_solve_matches_single_level_solve(beta, trap):
    grid = GridSpec(n=128, half_width=8.0)
    params = FunctionalParams(beta=beta, R=0.1, trap=trap)
    cfg = SolverConfig(tol_grad=1e-6)
    nested = minimize(params, grid, cfg)
    single = minimize(params, grid, cfg, warm_start=gaussian_state(grid))
    assert nested.converged and single.converged
    assert len(nested.level_iterations) == 2
    assert nested.level_iterations[-1] == nested.iterations
    assert single.level_iterations == [single.iterations]
    assert nested.breakdown.total == pytest.approx(single.breakdown.total, rel=1e-10)


def test_reference_solve_spends_few_fine_iterations(trap, monkeypatch):
    # a single-level solve takes 17 iterations at n = 256; coarse levels
    # that sampled their own kernels left 11 and 6 to n = 128 and 256, and
    # climbing every grid took 9, 0 and 0
    grid = GridSpec(n=256, half_width=8.0)
    real_energy, real_fields = solver.energy, solver.StateFields
    calls, evaluated = [], []

    def counting_energy(*args, **kwargs):
        calls.append(1)
        return real_energy(*args, **kwargs)

    def recording_fields(u, *args):
        evaluated.append(u.grid.n)
        return real_fields(u, *args)

    monkeypatch.setattr(solver, "energy", counting_energy)
    monkeypatch.setattr(solver, "StateFields", recording_fields)
    res = minimize(FunctionalParams(beta=1.0, R=0.1, trap=trap), grid,
                   SolverConfig(tol_grad=1e-5))
    assert res.converged
    # the coarse minimizer meets the tolerance on n = 256 as it is
    assert res.level_grids == [64, 256]
    assert res.iterations == res.level_iterations[-1] == 0
    # 18 on n = 64 with the product preconditioner, 14 with the separable
    # inverse, 9 with Powell's restart test
    assert res.level_iterations[0] <= 10
    # n = 128 is never evaluated, and n = 256 once, at its start
    assert 128 not in evaluated
    assert evaluated.count(256) == 1
    # every first trial step is accepted: one line-search energy per iteration
    assert len(calls) == sum(res.level_iterations)
    assert res.breakdown.total == pytest.approx(2.2664606841536585, rel=1e-10)


def test_solves_carry_no_pair_kernel(trap, monkeypatch):
    # no level reads the pair term, so no evaluation of a solve forms P
    real_fields, built = solver.StateFields, []

    def recording_fields(*args):
        built.append(real_fields(*args))
        return built[-1]

    monkeypatch.setattr(solver, "StateFields", recording_fields)
    params = FunctionalParams(beta=1.0, R=0.1, trap=trap)
    res = minimize(params, GridSpec(n=256, half_width=8.0), SolverConfig(tol_grad=1e-5))
    assert res.level_grids == [64, 256]
    grid = GridSpec(n=128, half_width=8.0)
    warm = minimize(params, grid, SolverConfig(max_iters=3),
                    warm_start=gaussian_state(grid, width=1.5, vortex=True))
    assert warm.level_grids == [128] and warm.iterations == 3
    assert {f.spec.n for f in built} == {64, 128, 256}
    assert all("A" in vars(f) for f in built)
    assert all(f.kernels.grad_w_sq_fft is None and "P" not in vars(f) for f in built)


def test_coarse_levels_restrict_the_fine_kernels(trap, monkeypatch):
    grid = GridSpec(n=256, half_width=8.0)
    params = FunctionalParams(beta=1.0, R=0.1, trap=trap)
    kernels_for(grid, params.R)

    def sampling(*args):
        raise AssertionError("a kernel was sampled")

    # every sample_kernels call, under any name, samples d w_R / dx, as
    # does every grad_w call
    monkeypatch.setattr("avfield.kernels.SmearedCoulomb.grad_w_x", sampling)
    res = minimize(params, grid, SolverConfig(max_iters=2))
    assert res.level_iterations == [2, 2, 2]


def test_strong_coupling_cold_solve_converges(trap):
    # with point-sampled coarse kernels this solve stalled unconverged on
    # n = 256 after 94, 48 and 36 iterations
    grid = GridSpec(n=256, half_width=8.0)
    res = minimize(FunctionalParams(beta=8.0, R=0.1, trap=trap), grid,
                   SolverConfig(tol_grad=1e-6))
    assert res.converged
    # the n = 64 minimizer does not meet the tolerance on n = 256, so the
    # solve climbs every grid
    assert res.level_grids == [64, 128, 256]
    assert len(res.level_iterations) == 3
    assert res.breakdown.total == pytest.approx(5.779553206711, abs=1e-9)


def test_a_met_check_returns_the_target_levels_start():
    # the n = 64 minimizer of the quartic trap meets tol_grad on n = 256
    grid = GridSpec(n=256, half_width=8.0)
    params = FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=4.0))
    cfg = SolverConfig(tol_grad=1e-6)
    res = minimize(params, grid, cfg)
    # at beta = 0 no kernel is read, so the coarsest level is this solve
    coarse = minimize(params, GridSpec(n=64, half_width=8.0), cfg)
    level = solver._minimize_level(params, grid, cfg, solver._prolong(coarse.u, grid),
                                   kernels_for(grid, params.R))
    assert res.level_grids == [64, 256]
    assert res.level_iterations == [coarse.iterations, 0] and level.iterations == 0
    assert res.u.values.tobytes() == level.u.values.tobytes()
    assert res.energy_history == level.energy_history == [res.breakdown.total]
    assert res.converged and level.converged
    assert (res.grad_norm, res.boundary_mass, res.warnings) == (
        level.grad_norm, level.boundary_mass, level.warnings)


def test_a_failed_check_climbs_as_without_it(monkeypatch):
    # the n = 64 minimizer of the |x|^6 trap misses tol_grad on n = 256
    grid = GridSpec(n=256, half_width=8.0)
    params = FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=6.0))
    cfg = SolverConfig(tol_grad=1e-5)
    res = minimize(params, grid, cfg)
    assert res.converged and res.level_grids == [64, 128, 256]
    real = solver._minimize_level

    def unchecked(params, spec, cfg, u, kernels):
        # every zero-iteration level here is the check: fail it without running it
        if cfg.max_iters == 0:
            return types.SimpleNamespace(converged=False)
        return real(params, spec, cfg, u, kernels)

    monkeypatch.setattr(solver, "_minimize_level", unchecked)
    climbed = minimize(params, grid, cfg)
    assert climbed.u.values.tobytes() == res.u.values.tobytes()
    assert climbed.level_iterations == res.level_iterations
    assert climbed.energy_history == res.energy_history


def test_warm_solve_stays_single_level(trap):
    grid = GridSpec(n=128, half_width=8.0)
    params = FunctionalParams(beta=0.0, R=0.0, trap=trap)
    res = minimize(params, grid, warm_start=gaussian_state(grid))
    assert res.level_iterations == [0]


def test_failed_coarse_level_is_not_fatal(trap, monkeypatch):
    grid = GridSpec(n=256, half_width=8.0)
    real = solver._minimize_level
    starts = {}

    def failing(params, spec, cfg, u, kernels):
        starts[spec.n] = u
        if spec.n == 128:
            raise NumericalFailureError("planted failure")
        return real(params, spec, cfg, u, kernels)

    monkeypatch.setattr(solver, "_minimize_level", failing)
    # the quartic trap's random start cannot converge in 3 iterations
    params = FunctionalParams(beta=0.0, R=0.0, trap=TrapPotential(s=4.0))
    cfg = SolverConfig(seed=1, max_iters=3)
    res = minimize(params, grid, cfg)
    assert sorted(starts) == [64, 128, 256]
    # n = 256 starts from its own initial state and reports only its own level
    assert np.array_equal(starts[256].values, initial_state(grid, cfg).values)
    assert res.level_iterations == [res.iterations]
    failed = [w for w in res.warnings if "coarse level" in w]
    assert len(failed) == 1 and "n=128" in failed[0] and "planted failure" in failed[0]
    # the coarse levels' non-convergence is not copied, the returned grid's is
    assert [w for w in res.warnings if "not converged" in w] == [
        f"not converged after 3 iterations: projected gradient norm "
        f"{res.grad_norm:.3e} (tol_grad 1e-07)"
    ]


def test_stagnation_stops_unconverged(spec, trap):
    # tol_grad 1e-13 lies below the round-off floor of this solve: three
    # accepted steps in a row then lower E by at most 4e-16 max(1, |E|)
    res = minimize(FunctionalParams(beta=1.0, R=0.0, trap=trap), spec,
                   SolverConfig(tol_grad=1e-13))
    assert not res.converged
    assert res.iterations == 15
    floor = 4e-16 * max(1.0, abs(res.breakdown.total))
    assert all(0.0 <= a - b <= floor for a, b in zip(res.energy_history[-4:],
                                                    res.energy_history[-3:]))
    assert res.warnings == [
        f"not converged after 15 iterations: projected gradient norm "
        f"{res.grad_norm:.3e} (tol_grad 1e-13)"
    ]


@pytest.mark.parametrize("tol_grad", ["1e-8", "1e-9", "1e-12"])
def test_line_search_at_the_round_off_floor_stops_unconverged(tol_grad, tmp_path, capsys):
    # the Gaussian start is the beta = 0 ground state to round-off (slope
    # -2e-15), so no trial lowers E: the solve stops, it does not raise
    code = main(["solve", "--beta", "0", "--grid", "32", "--tol-grad", tol_grad,
                 "--out", str(tmp_path / "report.json")])
    assert code == EXIT_UNCONVERGED
    assert capsys.readouterr().err == (
        f"warning: not converged after 0 iterations: projected gradient norm "
        f"1.406e-07 (tol_grad {float(tol_grad):g})\n"
    )


def planted_energy(monkeypatch, **offsets):
    """Make ``solver.energy`` add ``offsets`` to its terms; returns its call list."""
    real, calls = solver.energy, []

    def shifted(fields, params):
        calls.append(1)
        bd = real(fields, params)
        return dataclasses.replace(
            bd, **{k: getattr(bd, k) + v for k, v in offsets.items()})

    monkeypatch.setattr(solver, "energy", shifted)
    return calls


def test_line_search_failure_far_from_stationarity_raises(spec, trap, monkeypatch):
    # every trial lies 1 above the Armijo bound while the slope is large
    params = FunctionalParams(beta=0.5, R=0.2, trap=trap)
    u = initial_state(spec, SolverConfig())
    grad_norm = l2_norm(spec, sphere_project(spec, energy_and_gradient(u, params)[1], u))
    calls = planted_energy(monkeypatch, potential=1.0)
    with pytest.raises(NumericalFailureError) as exc:
        minimize(params, spec)
    assert str(exc.value) == f"no Armijo step after 60 halvings (grad norm {grad_norm:.3e})"
    assert len(calls) == solver.MAX_BACKTRACKS  # the first line search


def test_non_finite_line_search_energy_raises(spec, trap, monkeypatch):
    planted_energy(monkeypatch, kinetic=np.nan)
    with pytest.raises(NumericalFailureError, match="^non-finite energy during line search$"):
        minimize(FunctionalParams(beta=0.5, R=0.2, trap=trap), spec)


def test_non_finite_initial_energy_raises(spec, trap, monkeypatch):
    real = solver.energy_and_gradient

    def poisoned(fields, params):
        bd, G = real(fields, params)
        return dataclasses.replace(bd, kinetic=np.inf), G

    monkeypatch.setattr(solver, "energy_and_gradient", poisoned)
    with pytest.raises(NumericalFailureError, match="^non-finite initial energy$"):
        minimize(FunctionalParams(beta=0.5, R=0.2, trap=trap), spec)
