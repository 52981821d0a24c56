"""End-to-end acceptance checks.

Each test prints one summary line with the measured quantity so the run
log doubles as a numerical report.  The heavy solves are shared through
module-scoped fixtures.
"""

import numpy as np
import pytest

from avfield import verify
from avfield.fields import current, density, vector_potential
from avfield.functional import FunctionalParams, energy, energy_and_gradient
from avfield.geometry import (
    batch_circumradius,
    batch_cyclic_sum,
    batch_edges,
    batch_rho_sq,
    conditioning_ratio,
    random_triangles,
    regime_triangles,
)
from avfield.grid import (
    GridSpec,
    WaveFunction,
    inner,
    integrate,
    spectral_gradient,
    spectral_laplacian,
)
from avfield.kernels import SmearedCoulomb, TrapPotential, kernels_for, lp_norm_grad_w
from avfield.manybody import ManyBodyParams, product_state_energy
from avfield.solver import SolverConfig, SolveResult, minimize, sweep
from avfield.verify import abs_kinetic, smooth_state

TRAP = TrapPotential()


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def spec256():
    return GridSpec(n=256, half_width=8.0)


@pytest.fixture(scope="module")
def beta1_solution(spec256):
    cfg = SolverConfig(tol_grad=1e-5)
    return minimize(FunctionalParams(beta=1.0, R=0.0, trap=TRAP), spec256, cfg)


@pytest.fixture(scope="module")
def beta1_smeared_solution(spec256):
    cfg = SolverConfig(tol_grad=1e-5)
    return minimize(FunctionalParams(beta=1.0, R=0.1, trap=TRAP), spec256, cfg)


def test_criterion_01_oscillator_baseline(spec256):
    res = minimize(FunctionalParams(beta=0.0, R=0.0, trap=TRAP), spec256)
    err = abs(res.breakdown.total - 2.0)
    report(
        "criterion 1: oscillator baseline",
        err < 1e-3 and res.converged,
        f"E = {res.breakdown.total:.10f}, |E - 2| = {err:.2e}",
    )


def test_criterion_02_gradient_correctness():
    spec = GridSpec(n=64, half_width=8.0)
    rng = np.random.default_rng(20)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        u = smooth_state(spec, rng)
        v = smooth_state(spec, rng).values
        beta = float(rng.uniform(-2.0, 2.0))
        R = float(rng.choice([0.0, rng.uniform(0.05, 0.4)]))
        params = FunctionalParams(beta=beta, R=R, trap=TRAP)
        G = energy_and_gradient(u, params)[1]

        def e_at(t):
            return energy(WaveFunction(spec, u.values + t * v), params).total

        fd = (e_at(eps) - e_at(-eps)) / (2.0 * eps)
        pred = 2.0 * inner(spec, v, G).real
        worst = max(worst, abs(fd - pred) / max(abs(fd), 1e-12))
    report(
        "criterion 2: gradient correctness",
        worst < 1e-6,
        f"worst relative FD error over 20 tuples = {worst:.2e}",
    )


@pytest.fixture(scope="module")
def state_bank():
    spec = GridSpec(n=64, half_width=8.0)
    rng = np.random.default_rng(30)
    return spec, [smooth_state(spec, rng) for _ in range(100)]


def test_criterion_03_diamagnetic_suite(state_bank):
    _, states = state_bank
    cases = [
        (u, FunctionalParams(beta=beta, R=0.0 if i % 2 == 0 else 0.1, trap=TRAP))
        for i, u in enumerate(states)
        for beta in (0.5, -0.5, 2.0, -2.0)
    ]
    check = verify.diamagnetic(verify.evaluated(cases))
    report(
        "criterion 3: diamagnetic suite",
        check["ok"],
        f"worst margin over {len(cases)} cases = {check['worst_margin']:.3e}",
    )


def test_criterion_04_density_lower_bound(state_bank):
    _, states = state_bank
    cases = [
        (u, FunctionalParams(beta=beta, R=0.0, trap=TRAP))
        for u in states
        for beta in (0.5, -0.5, 2.0, -2.0)
    ]
    check = verify.density_lower_bound(verify.evaluated(cases))
    report(
        "criterion 4: density lower bound",
        check["ok"],
        f"worst margin = {check['worst_margin']:.3e}",
    )


def thomas_fermi_oracle(beta=1.0, nr=600, r_max=3.0, iters=4000):
    """Brute-force radial minimizer of int 2 pi beta rho^2 + |x|^2 rho.

    Projected gradient descent over discrete radial densities with the
    mass constraint enforced by a weighted non-negative projection; no
    use of the known closed-form solution.
    """
    r = (np.arange(nr) + 0.5) * (r_max / nr)
    w = 2.0 * np.pi * r * (r_max / nr)  # quadrature weights

    def project(v):
        # min ||rho - v||^2 s.t. rho >= 0, sum w rho = 1
        lo, hi = -1e6, 1e6
        for _ in range(200):
            lam = 0.5 * (lo + hi)
            rho = np.maximum(v - lam * w, 0.0)
            m = float(w @ rho)
            if m > 1.0:
                lo = lam
            else:
                hi = lam
        return np.maximum(v - 0.5 * (lo + hi) * w, 0.0)

    rho = project(np.full(nr, 1.0 / (np.pi * r_max**2)))
    step = 0.02
    for _ in range(iters):
        grad = w * (4.0 * np.pi * beta * rho + r**2)
        rho = project(rho - step * grad)
    return float(w @ (2.0 * np.pi * beta * rho**2 + r**2 * rho))


def test_criterion_05_contact_bound(beta1_solution):
    tf = thomas_fermi_oracle()
    closed = 2.0 / 3.0 * np.sqrt(8.0)
    oracle_ok = abs(tf - closed) < 1e-3
    E = beta1_solution.breakdown.total
    bound = max(2.0, 1.8856)
    ok = oracle_ok and E >= bound - 1e-3
    report(
        "criterion 5: contact bound",
        ok,
        f"TF oracle = {tf:.6f} (closed form {closed:.6f}), "
        f"E(beta=1) = {E:.6f} >= {bound}",
    )


def test_criterion_06_r_to_zero_rate():
    """E_R -> E_0 as R -> 0 at the second-order rate Newton's theorem gives.

    A_R[rho] = A_0[chi_R * rho] with chi_R the normalized disc indicator,
    and chi_R * rho - rho = (R^2/8) Lap rho + O(R^4) for a C^2 density.
    At a minimizer Hellmann-Feynman then gives E_R - E_0 = (R^2/8) G +
    O(R^4) with

        G = 2 beta int A_0[Lap rho].J + 2 beta^2 int rho A_0[rho].A_0[Lap rho],

    so each dyadic difference E_(R/2) - E_R is -(3/32) R^2 G.  G is taken
    on the smallest-R minimizer with the R = 0 kernels.  Only differences
    between R > 0 rows are compared: for R of a few h the sampled smeared
    kernel sits about 5e-5 in energy off the R = 0 principal-value
    kernel, which the dyadic differences do not see.
    """
    spec = GridSpec(n=512, half_width=6.0)
    cfg = SolverConfig(tol_grad=1e-5)
    beta = 1.0
    values = [0.4, 0.2, 0.1, 0.05, 0.025]
    rows = sweep([FunctionalParams(beta=beta, R=R, trap=TRAP) for R in values], spec, cfg)
    report(
        "criterion 6: R-sweep converged",
        all(isinstance(row, SolveResult) and row.converged for row in rows),
        str([(R, row.converged, row.grad_norm) if isinstance(row, SolveResult) else (R, row)
             for R, row in zip(values, rows)]),
    )
    E = {R: row.breakdown.total for R, row in zip(values, rows)}
    diffs = np.array([E[R / 2.0] - E[R] for R in values[:-1]])
    order = float(np.polyfit(np.log(values[:-1]), np.log(np.abs(diffs)), 1)[0])

    u = rows[-1].u
    rho = density(u)
    k0 = kernels_for(spec, 0.0)
    A = vector_potential(spec, rho, k0)
    A_lap = vector_potential(spec, spectral_laplacian(spec, rho).real, k0)
    J = current(u.values, spectral_gradient(spec, u.values))
    G = float(
        integrate(
            spec,
            2.0 * beta * (A_lap[0] * J[0] + A_lap[1] * J[1])
            + 2.0 * beta**2 * rho * (A[0] * A_lap[0] + A[1] * A_lap[1]),
        )
    )
    predicted = -3.0 / 32.0 * np.array(values[:-1]) ** 2 * G
    rel = diffs / predicted - 1.0
    ok = (
        1.7 <= order <= 2.3
        and bool(np.all(diffs > 0.0))
        and bool(np.all(np.abs(rel) < 0.05))
    )
    report(
        "criterion 6: R->0 rate",
        ok,
        f"fitted order of E_(R/2) - E_R = {order:.3f}, G = {G:.5f}, "
        f"predicted {['%.4e' % d for d in predicted]}, "
        f"measured {['%.4e' % d for d in diffs]}, "
        f"relative gaps {['%+.2e' % r for r in rel]}",
    )


def test_criterion_07_beta_to_zero_limit(spec256):
    cfg = SolverConfig(tol_grad=1e-6)
    e0 = minimize(FunctionalParams(beta=0.0, R=0.0, trap=TRAP), spec256, cfg)
    betas = [0.4, 0.2, 0.1, 0.05]
    rows = sweep([FunctionalParams(beta=b, R=0.0, trap=TRAP) for b in betas], spec256, cfg)
    diffs = [row.breakdown.total - e0.breakdown.total for row in rows]
    nonneg = all(d >= 0.0 for d in diffs)
    order = float(np.polyfit(np.log(betas), np.log(diffs), 1)[0])
    report(
        "criterion 7: beta->0 bosonic limit",
        nonneg and order >= 1.8,
        f"E(beta) - E0 >= 0: {nonneg}, fitted order = {order:.3f}",
    )


def test_criterion_08_geometry_suite():
    rng = np.random.default_rng(42)
    m = 1_000_000
    ok = True
    details = []
    for regime in ("mixed", "all_long", "all_short", "two_short", "one_short"):
        R = 0.3
        tri = regime_triangles(rng, m, R, regime)
        vals, rho_sq = batch_cyclic_sum(tri, R)
        e = np.maximum(batch_edges(tri), R)
        scale = (
            1.0 / (e[:, 0] ** 2 * e[:, 2] ** 2)
            + 1.0 / (e[:, 0] ** 2 * e[:, 1] ** 2)
            + 1.0 / (e[:, 1] ** 2 * e[:, 2] ** 2)
        )
        margin = float((vals / scale).min())
        ok &= margin >= -1e-12
        details.append(f"{regime} min={margin:.1e}")
        if regime == "all_long":
            good = conditioning_ratio(tri) > 5e-3
            rr = batch_circumradius(tri[good])
            ident = float(np.abs(vals[good] * 2.0 * rr**2 - 1.0).max())
            ok &= ident < 1e-10
            details.append(f"all-long identity err={ident:.1e}")
        if regime == "all_short":
            ident = float(
                np.abs(vals * 2.0 * R**4 / rho_sq - 1.0).max()
            )
            ok &= ident < 1e-10
            details.append(f"all-short identity err={ident:.1e}")
    tri = random_triangles(rng, m)
    rr = batch_circumradius(tri)
    hardy = bool((1.0 / rr**2 <= 9.0 / batch_rho_sq(tri) + 1e-12).all())
    ok &= hardy
    probe = verify.convex_profile_probe(m, seed=77)
    ok &= probe["ok"]
    details.append(f"hardy={hardy}, convex-profile violations={probe['violations']}")
    report("criterion 8: geometry suite", ok, "; ".join(details))


def test_criterion_09_magnetic_term_bound():
    spec = GridSpec(n=128, half_width=8.0)
    rng = np.random.default_rng(50)
    kernels = kernels_for(spec, 0.0)
    worst = 0.0
    for _ in range(50):
        u = smooth_state(spec, rng)
        rho = density(u)
        A = vector_potential(spec, rho, kernels)
        lhs = float(integrate(spec, rho * (A[0] ** 2 + A[1] ** 2)))
        rhs = 1.5 * abs_kinetic(u)
        worst = max(worst, lhs / rhs)
    bound_ok = worst <= 1.0

    # Monte Carlo crosscheck: int |A|^2 rho equals one sixth of the mean
    # inverse-square circumradius over iid triples drawn from rho
    mc_ok = True
    mc_details = []
    for width in (0.8, 1.0, 1.3):
        x, y = spec.meshgrid()
        vals = np.exp(-(x**2 + y**2) / (2.0 * width**2))
        u = WaveFunction(spec, vals.astype(complex)).normalized()
        rho = density(u)
        A = vector_potential(spec, rho, kernels)
        grid_val = float(integrate(spec, rho * (A[0] ** 2 + A[1] ** 2)))
        ns = 400_000
        pts = rng.normal(scale=width / np.sqrt(2.0), size=(ns, 3, 2))
        e = batch_edges(pts)
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        inv_rr_sq = (4.0 * area / (e[:, 0] * e[:, 1] * e[:, 2])) ** 2
        sample = inv_rr_sq / 6.0
        est = float(sample.mean())
        se = float(sample.std(ddof=1) / np.sqrt(ns))
        mc_ok &= abs(est - grid_val) <= 3.0 * se
        mc_details.append(f"w={width}: grid={grid_val:.5f} mc={est:.5f}+-{se:.5f}")
    report(
        "criterion 9: magnetic-term bound",
        bound_ok and mc_ok,
        f"max ratio to 1.5*kinetic = {worst:.3f}; " + "; ".join(mc_details),
    )


def test_criterion_10_product_state_chain(beta1_smeared_solution, spec256):
    u = beta1_smeared_solution.u
    af = beta1_smeared_solution.breakdown.total
    Ns = [10, 100, 1000, 10_000]
    gaps = []
    for N in Ns:
        bd = product_state_energy(u, ManyBodyParams(N=N, beta=1.0, R=0.1, trap=TRAP))
        gaps.append(bd.per_particle_total - af)
    positive = all(g > 0 for g in gaps)
    slope = float(np.polyfit(np.log(Ns), np.log(gaps), 1)[0])
    rng = np.random.default_rng(60)
    spec64 = GridSpec(n=64, half_width=8.0)
    cases = []
    for _ in range(20):
        v = smooth_state(spec64, rng)
        cases.append((v, float(rng.uniform(0.1, 0.4))))
    cross = verify.mixed_crosscheck(cases)
    ok = positive and abs(slope + 1.0) <= 0.1 and cross["ok"]
    report(
        "criterion 10: product-state chain",
        ok,
        f"gaps positive: {positive}, fitted exponent = {slope:.3f}, "
        f"crosscheck worst rel = {cross['worst_rel']:.2e}",
    )


def test_criterion_11_kernel_suite():
    rng = np.random.default_rng(70)
    points = []
    worst_cont = 0.0
    for _ in range(1000):
        R = float(rng.uniform(0.05, 2.0))
        points.append((R, float(rng.uniform(R, 4.0))))
        points.append((R, float(rng.uniform(0.0, R))))
        # the kernel just inside, at and just outside the seam r = R
        seam = np.array([np.nextafter(R, 0.0), R, np.nextafter(R, np.inf)])
        worst_cont = max(worst_cont, float(np.ptp(SmearedCoulomb(R).w_radial(seam))))
    piecewise = verify.piecewise_kernel(points)
    scaling_worst = 0.0
    for p in (3.0, 4.0, 8.0):
        consts = [lp_norm_grad_w(R, p) * R ** (1.0 - 2.0 / p) for R in
                  (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)]
        scaling_worst = max(scaling_worst, np.ptp(consts) / consts[0])
    ok = piecewise["ok"] and worst_cont < 1e-14 and scaling_worst < 1e-8
    report(
        "criterion 11: kernel suite",
        ok,
        f"branch value err = {piecewise['max_abs_err']:.2e}, "
        f"continuity jump = {worst_cont:.2e}, "
        f"L^p scaling spread = {scaling_worst:.2e}",
    )
