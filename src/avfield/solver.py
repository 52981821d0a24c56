"""Constrained minimization of the average-field energy over the unit sphere.

Preconditioned nonlinear conjugate gradients (Polak-Ribiere+) with
Armijo backtracking, after Antoine, Levitt & Tang, J. Comput. Phys. 343
(2017).  The projected gradient g is passed through the shifted inverse
of a separable surrogate of the linear part of the Hamiltonian,

    P = (T (+) T + sigma)^-1,    T = -d^2/dx^2 + c |x|^s on one axis,

with the spectral second derivative of the grid (Nyquist mode zeroed)
and sigma = max(1, |E|).  T (+) T is the kinetic operator plus the trap
c(|x|^s + |y|^s), which equals V = c |x|^s for s = 2 and lies within a
factor 2^|s/2 - 1| of it otherwise, so P tames the Laplacian's and the
trap's stiffness together.  It is applied exactly by fast
diagonalization (Lynch, Rice & Thomas, "Direct solution of partial
difference equations by tensor product methods", Numer. Math. 6 (1964)
185-199): with T = Q diag(lambda) Q^T, computed once per grid and trap,

    P g = Q (D o (Q^T g Q)) Q^T,    D_ij = 1 / (lambda_i + lambda_j + sigma),

four real matrix products per component and no transform.  P is
symmetric and positive definite.  Against products of a kinetic factor
(k^2 + sigma)^-1 and a trap factor (V + sigma)^-1, the quartic trap at
n = 64, L = 8 took 17 iterations instead of 55 (14 with the restart test
below), and the |x|^6 trap at n = 128, which stalled with them,
converges to tol_grad 1e-5; at 1e-6 and below it stops at the round-off
floor, unconverged, with a projected gradient of about 1e-6.

The direction d = proj(P g) is combined with the previous direction,

    b = max(0, (<g, d> - <g_prev, d>) / <g_prev, d_prev>),
    p = d + b proj(p_prev),

and the method restarts with p = d (b = 0) whenever successive gradients
are far from conjugate, |<g_prev, d>| >= 0.2 <g, d> (Powell, "Restart
procedures for the conjugate gradient method", Math. Programming 12
(1977) 241-254, in its preconditioned form), or p is not a descent
direction.  Without the test the reference solve below took 14
iterations and 20 line-search energies on n = 64: at the sixth the
combination's slope was 400 times weaker than d's and its line search
took 7 trials.  With the test it takes 9 and 9.  Each line search
starts from a model of the last one (Nocedal & Wright, Numerical
Optimization, section 3.5): after a step tau is accepted with energies
E0 -> E1 and slope s < 0, the quadratic through E0, s and E1 has
curvature c = E1 - E0 - s tau, and the next search starts at its
minimizer -s tau^2 / (2c), clamped to [tau / 2, 4 tau] and to 1e3; when
c <= 0 it starts at 2 tau.  A trial that fails the Armijo test is
halved: backtracking by the same quadratic model took the quartic solve
at n = 128 from 99 iterations to 337.

The gradient of an accepted step is evaluated from the ``StateFields``
its line-search energy built, and a trial's |v|^2 both normalizes it and
becomes its density, so no state is transformed or squared twice.
Every accepted step decreases the energy and every iterate is
renormalized, so the recorded history is monotone and unit-mass by
construction.  A solve that ends unconverged says so in its warnings.

A cold solve on n >= 128 points is a nested iteration, the first stage
of full multigrid (Brandt, "Multi-level adaptive solutions to
boundary-value problems", Math. Comp. 31, 1977): one loop climbs the
ladder n / 2^k, ..., n / 2, n of grids from n / 2^k = 64, where the
configured start applies, solving the same problem on each grid and
interpolating its minimizer spectrally onto the next.  Every level uses
the same configuration.  A warm start skips the coarse levels.

The coarse levels solve the fine grid's problem, not their own
discretization of it: their kernels are the fine kernels' padded
spectra restricted to the coarse band (``kernels.restrict``, the
Galerkin coarse operator of Briggs, Henson & McCormick, A Multigrid
Tutorial, SIAM 2000, ch. 5).  All padded grids have the period 4L, so a
padded DFT index is the same wavenumber on every level, and for a
density band-limited to the coarse grid, such as that of a prolonged
state, the fine convolution reads only that band: the coarse energy of a
smooth state is the fine energy of its prolongation to 1e-13 relative,
so the prolonged coarse minimizer mostly meets the fine tolerance as it
is.  So once the coarsest level has converged, its minimizer is prolonged
straight onto the requested grid and tested there by a level with
max_iters = 0: if that level converges, it is the solve's last level and
the grids between are skipped, otherwise it is dropped and the ladder is
climbed.  The harmonic reference solve at n = 256 spends 9 and 0
iterations on n = 64 and 256, as many as on n = 256 alone, so the whole
solve runs on the coarsest grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalFailureError
from .grid import GridSpec, WaveFunction, gaussian_state, inner, l2_norm
from .functional import (
    EnergyBreakdown,
    FunctionalParams,
    StateFields,
    energy,
    energy_and_gradient,
    sphere_project,
)
from .kernels import KernelSet, TrapPotential, gradient_kernels, restrict

BOUNDARY_MASS_WARN = 1e-8
MAX_BACKTRACKS = 60
STEP0 = 0.1  # the first line search's trial step
BACKTRACK_SHRINK = 0.5
ARMIJO_C = 1e-4
# Powell's restart test: b = 0 once |<g_prev, d>| >= POWELL_RESTART <g, d>
POWELL_RESTART = 0.2
TOL_ENERGY = 1e-10  # relative energy drop that confirms convergence
PERTURBATION = 0.1  # amplitude of the seeded start's plane waves
# amplitude of the wave packet that breaks the Gaussian start's symmetry
SYMMETRY_SEED = 1e-10
# a cold solve with n >= 2 COARSEST_N starts on coarser grids, down to this one
COARSEST_N = 64


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    tol_grad: float = 1e-7
    seed: int | None = None  # a cold solve's start: None the Gaussian, else seeded random

    def __post_init__(self):
        if not self.tol_grad > 0:
            raise DomainError(f"tol_grad must be positive, got {self.tol_grad}")
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed is not None and self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SolveResult:
    u: WaveFunction
    breakdown: EnergyBreakdown
    iterations: int
    converged: bool
    grad_norm: float
    boundary_mass: float
    energy_history: list[float] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # iterations of each grid level of the solve, coarsest first, ending
    # with the returned grid's ``iterations``, and the n of each level's grid
    level_iterations: list[int] = field(default_factory=list)
    level_grids: list[int] = field(default_factory=list)


def initial_state(spec: GridSpec, cfg: SolverConfig) -> WaveFunction:
    """The normalized start of a cold solve on ``spec``.

    Without a seed it is the Gaussian, which is invariant, up to a phase,
    under the grid's reflections and quarter turns, and so is every iterate
    of a descent from it in exact arithmetic, which can then only reach a
    symmetric critical point: at beta = 4, R = 0.5, n = 64 that is a saddle
    at E = 4.5239, 15% above the 3.9176 minimum.  Round-off alone lets the
    descent leave such a saddle only by chance, so the start carries
    SYMMETRY_SEED times an off-centre Gaussian wave packet, which no
    symmetry of the grid maps to itself.  A descent that lingers near the
    saddle amplifies it until it leaves; one that converges onto a saddle
    within a few iterations still stops there.  A seed adds six seeded
    random plane waves under a Gaussian envelope instead.
    """
    base = gaussian_state(spec)
    x, y = spec.meshgrid()
    if cfg.seed is None:
        # a closed form, not random waves: numpy.random adds 5 MB to a process
        packet = np.exp(1j * (0.7 * x + 0.3 * y) - ((x - 0.3) ** 2 + (y - 0.5) ** 2) / 2.0)
        return WaveFunction(spec, base.values + SYMMETRY_SEED * packet).normalized()
    rng = np.random.default_rng(cfg.seed)
    env = np.exp(-(x**2 + y**2) / 2.0)
    pert = np.zeros((spec.n, spec.n), dtype=complex)
    for _ in range(6):
        kx, ky = rng.normal(scale=1.5, size=2)
        pert += (rng.normal() + 1j * rng.normal()) * np.exp(1j * (kx * x + ky * y))
    return WaveFunction(spec, base.values + PERTURBATION * pert * env).normalized()


@lru_cache(maxsize=8)
def _axis_eigenpairs(spec: GridSpec, trap: TrapPotential) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (lambda, Q) of the 1-D operator T = -d^2/dx^2 + c |x|^s on ``spec``'s axis.

    The second derivative is the spectral one with the Nyquist mode zeroed,
    the circulant matrix of the k^2 of ``GridSpec.wavenumbers``.  Read-only,
    since every solve on the grid and trap shares them.
    """
    n = spec.n
    kx, _ = spec.wavenumbers()
    row = np.fft.ifft(kx[0] ** 2).real
    idx = np.arange(n)
    T = row[(idx[:, np.newaxis] - idx) % n]
    T[idx, idx] += trap.c * np.abs(spec.axis()) ** trap.s
    lam, Q = np.linalg.eigh(T)
    lam.flags.writeable = False
    Q.flags.writeable = False
    return lam, Q


def _precondition(
    g: np.ndarray, spec: GridSpec, trap: TrapPotential, sigma: float
) -> np.ndarray:
    """P g = (T (+) T + sigma)^-1 g by fast diagonalization (see the module docstring).

    T's eigenpairs are computed on the first call for the grid and trap, so
    a level that starts converged pays for no ``eigh``.  The real and
    imaginary parts pass through real matrix products: a complex product
    with the real Q would cost four times the flops.
    """
    lam, Q = _axis_eigenpairs(spec, trap)
    parts = np.stack((g.real, g.imag))
    h = Q.T @ parts @ Q
    h /= lam[:, np.newaxis] + lam + sigma
    h = Q @ h @ Q.T
    out = np.empty(g.shape, dtype=complex)
    out.real = h[0]
    out.imag = h[1]
    return out


def _cg_direction(
    spec: GridSpec,
    u: WaveFunction,
    G: np.ndarray,
    g: np.ndarray,
    d: np.ndarray,
    gd: float,
    prev: tuple[np.ndarray, np.ndarray, float] | None,
) -> tuple[np.ndarray, float]:
    """Polak-Ribiere+ step direction p (the step is u - tau p) and its slope.

    ``g`` is the projected gradient, ``d`` the projected preconditioned
    gradient, ``gd`` is Re<g, d> and ``prev`` holds g_prev, p_prev and
    <g_prev, d_prev> from the last iteration (None on the first).  p
    restarts at d when successive gradients are far from conjugate
    (Powell's test, see the module docstring) or the combination is not a
    descent direction, and falls back to g when d is not one either
    (round-off at a vanishing gradient), so the slope -2 Re<p, G> is
    negative.
    """
    if prev is not None:
        g_prev, p_prev, gd_prev = prev
        gprev_d = inner(spec, g_prev, d).real
        b = (gd - gprev_d) / gd_prev
        if b > 0.0 and abs(gprev_d) < POWELL_RESTART * gd:
            p = sphere_project(spec, p_prev, u)
            p *= b
            p += d
            slope = -2.0 * inner(spec, p, G).real
            if slope < 0.0:
                return p, slope
            del p
    slope = -2.0 * inner(spec, d, G).real
    if slope < 0.0:
        return d, slope
    return g, -2.0 * inner(spec, g, G).real


def _prolong(u: WaveFunction, spec: GridSpec) -> WaveFunction:
    """Spectral interpolation of ``u`` onto the finer grid ``spec`` of the same box.

    The centred spectrum is zero-padded to n x n, so a trigonometric
    polynomial with |k| < m / 2 is reproduced exactly at the fine samples;
    the renormalization absorbs the (n / m)^2 ratio of the unnormalized
    transforms.  The coarse Nyquist row and column are zeroed: that mode
    has no single fine-grid counterpart, and the spectral derivative
    ignores it on the coarse grid anyway.
    """
    m, n = u.grid.n, spec.n
    c = np.fft.fftshift(np.fft.fft2(u.values))
    c[0, :] = 0.0  # the Nyquist index m / 2 sits at 0 after the shift
    c[:, 0] = 0.0
    lo = (n - m) // 2
    fine = np.zeros((n, n), dtype=complex)
    fine[lo:lo + m, lo:lo + m] = c
    return WaveFunction(spec, np.fft.ifft2(np.fft.ifftshift(fine))).normalized()


def minimize(
    params: FunctionalParams,
    spec: GridSpec,
    cfg: SolverConfig = SolverConfig(),
    warm_start: WaveFunction | None = None,
) -> SolveResult:
    """Minimize the average-field energy over normalized states on the grid.

    A cold solve (no ``warm_start``) with n >= 2 COARSEST_N starts on
    COARSEST_N points and climbs to n (nested iteration, see the module
    docstring).  Each coarse level restricts the ``kernels`` of ``spec``
    to its own grid (``kernels.restrict``) and drops them with the level,
    so no coarse grid is sampled or cached.  A converged coarsest level is
    prolonged onto n at once and tested by a zero-iteration level there; if
    that level converges, it is returned and the grids between are skipped.
    A coarse level that fails is not fatal: the next grid then starts from
    its own initial state, with one warning, and the levels below it are
    dropped from ``level_iterations`` and ``level_grids``.  Warnings of the
    coarse levels are not copied into the result; the returned grid's own are.
    """
    levels: list[tuple[int, int]] = []  # (n, iterations) of each level
    warnings: list[str] = []
    kernels = gradient_kernels(spec, params.R)  # no level reads the pair term
    if warm_start is None:
        # COARSEST_N, 2 COARSEST_N, ..., n; only n when n < 2 COARSEST_N
        depth = spec.n.bit_length() - COARSEST_N.bit_length()
        grids = [GridSpec(spec.n >> k, spec.half_width) for k in range(depth, 0, -1)]
        grids.append(spec)
        u = initial_state(grids[0], cfg)
    else:
        grids = [spec]
        u = warm_start.normalized()
    for coarse, fine in zip(grids, grids[1:]):
        try:
            res = _minimize_level(params, coarse, cfg, u, restrict(kernels, spec, coarse))
        except NumericalFailureError as exc:
            levels.clear()
            warnings.append(
                f"coarse level n={coarse.n} failed ({exc}); "
                f"n={fine.n} starts from the initial state"
            )
            u = initial_state(fine, cfg)
            continue
        levels.append((coarse.n, res.iterations))
        if res.converged and coarse is grids[0] and fine is not spec:
            # n may need no middle grid: a zero-iteration level there is the test
            check = _minimize_level(params, spec, replace(cfg, max_iters=0),
                                    _prolong(res.u, spec), kernels)
            if check.converged:
                res = check
                break
            del check  # none of the check's state is kept while the ladder climbs
        u = _prolong(res.u, fine)
        del res  # the coarse minimizer is not kept through the finer levels
    else:
        res = _minimize_level(params, spec, cfg, u, kernels)
    levels.append((spec.n, res.iterations))
    res.level_grids = [n for n, _ in levels]
    res.level_iterations = [its for _, its in levels]
    res.warnings[:0] = warnings
    return res


def _warn_boundary(u: WaveFunction, when: str, warnings: list[str]) -> float:
    """The boundary mass of ``u``, with a warning when it exceeds BOUNDARY_MASS_WARN."""
    edge = u.boundary_mass()
    if edge > BOUNDARY_MASS_WARN:
        warnings.append(
            f"{when} boundary density {edge:.3e} exceeds "
            f"{BOUNDARY_MASS_WARN:g}; the box may be too small"
        )
    return edge


def _minimize_level(
    params: FunctionalParams,
    spec: GridSpec,
    cfg: SolverConfig,
    u: WaveFunction,
    kernels: KernelSet,
) -> SolveResult:
    """Minimize on one grid from the normalized state ``u``.

    E, G, the projected gradient, its norm and the last relative drop are
    formed once per accepted step.  Every iterate, the start included, is
    first tested for convergence (gradient below ``tol_grad`` at the start
    or after a drop below TOL_ENERGY); only an iterate that fails the test
    ends the loop unconverged, at ``max_iters`` or at the round-off floor
    (three round-off steps in a row, or no Armijo step near stationarity).
    The loop raises ``NumericalFailureError`` on a non-finite energy or on
    no Armijo step away from the floor.
    """
    warnings: list[str] = []
    _warn_boundary(u, "initial", warnings)
    # explicit fields, so none are left on u, which may be a caller's state
    bd, G = energy_and_gradient(StateFields(u, kernels), params)
    if not np.isfinite(bd.total):
        raise NumericalFailureError("non-finite initial energy")
    history = [bd.total]
    pg = sphere_project(spec, G, u)
    grad_norm = l2_norm(spec, pg)
    rel_drop = np.inf
    tau = STEP0
    converged = False
    iterations = 0
    stagnant = 0  # consecutive accepted steps with below-round-off decrease
    # g_prev, p_prev and <g_prev, d_prev>; only these two arrays outlive an
    # iteration
    prev: tuple[np.ndarray, np.ndarray, float] | None = None

    while True:
        if grad_norm < cfg.tol_grad and (iterations == 0 or rel_drop < TOL_ENERGY):
            converged = True
            break
        if iterations >= cfg.max_iters or stagnant >= 3:
            break  # the cap, or E at the round-off floor: tol_grad may be unreachable

        sigma = max(1.0, abs(bd.total))
        d = sphere_project(spec, _precondition(pg, spec, params.trap, sigma), u)
        gd = inner(spec, pg, d).real
        p, slope = _cg_direction(spec, u, G, pg, d, gd, prev)
        prev = None  # release g_prev and p_prev before the line search
        del d

        for _ in range(MAX_BACKTRACKS):
            trial_vals = u.values - tau * p
            # |v|^2 is formed once: its sum normalizes v and, rescaled, it
            # is the trial's density
            rho = trial_vals.real**2 + trial_vals.imag**2
            mass = float(rho.sum()) * spec.h**2
            if mass == 0.0 or not np.isfinite(mass):
                tau *= BACKTRACK_SHRINK
                continue
            trial_vals /= np.sqrt(mass)
            rho /= mass
            trial = WaveFunction(spec, trial_vals)
            trial_fields = StateFields(trial, kernels, rho)
            # the fields own rho now, so a rejected trial's density is freed
            # with them, before the next trial allocates its own
            del rho
            trial_bd = energy(trial_fields, params)
            if not np.isfinite(trial_bd.total):
                raise NumericalFailureError("non-finite energy during line search")
            if trial_bd.total <= bd.total + ARMIJO_C * tau * slope:
                break
            del trial_fields
            tau *= BACKTRACK_SHRINK
        else:
            # at numerical stationarity (sigma = max(1, |E|)) no step decreases E
            if (grad_norm < 10.0 * cfg.tol_grad or rel_drop < TOL_ENERGY
                    or -slope < TOL_ENERGY * sigma):
                converged = grad_norm < cfg.tol_grad
                break
            raise NumericalFailureError(
                f"no Armijo step after {MAX_BACKTRACKS} halvings "
                f"(grad norm {grad_norm:.3e})"
            )
        # curvature of the quadratic through E(0), E'(0) = slope and E(tau)
        curv = trial_bd.total - bd.total - slope * tau
        drop = bd.total - trial_bd.total
        stagnant = stagnant + 1 if drop <= 4e-16 * sigma else 0
        u = trial
        del G
        # the gradient reuses what the line search computed for this state;
        # its fields are not kept into the next line search
        bd, G = energy_and_gradient(trial_fields, params)
        del trial_fields
        history.append(bd.total)
        # bd.total is the trial's line-search total bit for bit
        rel_drop = abs(drop) / max(abs(bd.total), 1.0)
        if curv > 0.0:
            # the next search starts at that quadratic's minimizer
            tau = min(max(-slope * tau * tau / (2.0 * curv), 0.5 * tau), 4.0 * tau)
        else:
            tau /= BACKTRACK_SHRINK
        tau = min(tau, 1e3)
        prev = (pg, p, gd)
        pg = sphere_project(spec, G, u)
        grad_norm = l2_norm(spec, pg)
        iterations += 1

    if not converged:
        warnings.append(
            f"not converged after {iterations} iterations: projected gradient "
            f"norm {grad_norm:.3e} (tol_grad {cfg.tol_grad:g})"
        )
    edge = _warn_boundary(u, "final", warnings)
    return SolveResult(
        u=u,
        breakdown=bd,
        iterations=iterations,
        converged=converged,
        grad_norm=grad_norm,
        boundary_mass=edge,
        energy_history=history,
        warnings=warnings,
    )


def sweep(
    problems: list[FunctionalParams],
    spec: GridSpec,
    cfg: SolverConfig = SolverConfig(),
) -> list[SolveResult | NumericalFailureError]:
    """Minimize each problem in order, warm-starting each from the last.

    The first row is a cold solve, so it starts on coarser grids (see
    ``minimize``); the others start from their predecessor's state.
    Warm starting is a continuity heuristic; if a warm-started row does
    not converge we re-run it from a cold start and keep the lower
    energy.  A converged row is kept even when it lies above its
    predecessor: the energy rises along many axes (growing beta,
    shrinking R), so that comparison would re-solve nearly every row.
    A row that raises is returned as its ``NumericalFailureError``, the
    sweep continues and the next row starts cold.
    """
    if not problems:
        raise DomainError("sweep needs a non-empty problem list")
    rows: list[SolveResult | NumericalFailureError] = []
    warm: WaveFunction | None = None
    for p in problems:
        try:
            res = minimize(p, spec, cfg, warm_start=warm)
            if warm is not None and not res.converged:
                cold = minimize(p, spec, cfg)
                if cold.breakdown.total < res.breakdown.total:
                    res = cold
            warm = res.u
        except NumericalFailureError as exc:
            res, warm = exc, None
        rows.append(res)
    return rows
