"""Sampling checks of the inequalities and identities the functional rests on.

Each check that the ``avfield verify`` suites and the acceptance tests
share is one function here, taking explicit inputs and returning its
check dict ``{"name": ..., <worst case>: ..., "ok": bool}``.  The suites
draw those inputs from ``--samples`` and ``--seed``.  The geometry layer
is called as ``geometry.<fn>``, so wrappers set on that module's
attributes see every call.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import geometry
from .fields import curl_A, density
from .functional import FunctionalParams, StateFields, energy, state_fields
from .grid import GridSpec, WaveFunction, integrate, spectral_gradient
from .kernels import SmearedCoulomb, TrapPotential, gradient_kernels, lp_norm_grad_w, trap_values
from .manybody import ManyBodyParams, mixed_term_crosscheck, product_state_energy

# the grid of the state-based suites
SUITE_GRID = GridSpec(n=64, half_width=8.0)
# samples with |u| below this are nodes of u for ``energy_alt``
ZERO_NODE_TOL = 1e-13


def smooth_state(spec: GridSpec, rng: np.random.Generator) -> WaveFunction:
    """Normalized Gaussian envelope times 1 + 0.5 (four random plane waves)."""
    x, y = spec.meshgrid()
    env = np.exp(-(x**2 + y**2) / 2.0)
    field = np.zeros((spec.n, spec.n), dtype=complex)
    for _ in range(4):
        kx, ky = rng.normal(scale=1.2, size=2)
        field += (rng.normal() + 1j * rng.normal()) * np.exp(1j * (kx * x + ky * y))
    return WaveFunction(spec, env * (1.0 + 0.5 * field)).normalized()


def abs_kinetic(u: WaveFunction) -> float:
    """int |grad |u||^2, the kinetic energy of the modulus."""
    gx, gy = spectral_gradient(u.grid, np.sqrt(density(u)))
    return float(integrate(u.grid, np.abs(gx) ** 2 + np.abs(gy) ** 2))


@dataclass(frozen=True)
class AltEnergyResult:
    value: float
    zero_nodes: int


def energy_alt(u: WaveFunction, params: FunctionalParams) -> AltEnergyResult:
    """The energy in polar form, a route to it independent of ``energy``.

    int |grad|u||^2 + int |Im(conj(u)/|u|) grad u + beta A |u||^2 + int V rho.

    At the ``zero_nodes`` samples where |u| < ZERO_NODE_TOL the second
    integrand is replaced by its |u| -> 0 limit beta^2 rho |A|^2.
    """
    spec = u.grid
    fields = state_fields(u, params.R)
    rho, (ax, ay), (jx, jy) = fields.rho, fields.A, fields.J
    absu = np.sqrt(rho)
    zero = absu < ZERO_NODE_TOL
    safe = np.where(zero, 1.0, absu)
    # Im(conj(u)/|u|) grad u = J / |u| componentwise
    tx = jx / safe + params.beta * ax * absu
    ty = jy / safe + params.beta * ay * absu
    term = np.where(zero, params.beta**2 * rho * (ax**2 + ay**2), tx**2 + ty**2)
    potential = float(integrate(spec, trap_values(spec, params.trap) * rho))
    value = abs_kinetic(u) + float(integrate(spec, term)) + potential
    return AltEnergyResult(value=value, zero_nodes=int(zero.sum()))


def _magnetic_lower_bound(fields: StateFields, p: FunctionalParams) -> float:
    """|beta| |int rho curl A_R[rho]|, a lower bound of int |(grad + i beta A_R) u|^2.

    curl A_R[rho] = 2 pi chi_R * rho with chi_R the normalized disc of
    radius R: at R = 0 the bound is 2 pi |beta| int rho^2, computed as
    that, and for R > 0 it is smaller.  A_R is the one the energy built.
    """
    spec, rho = fields.spec, fields.rho
    if p.R == 0.0:
        return 2.0 * np.pi * abs(p.beta) * float(integrate(spec, rho**2))
    return abs(p.beta) * abs(float(integrate(spec, rho * curl_A(spec, fields.A))))


def evaluated(cases: Iterable[tuple[WaveFunction, FunctionalParams]]) -> list[tuple]:
    """(state, parameters, energy breakdown, magnetic lower bound) for each case.

    Each case's energy and ``_magnetic_lower_bound`` read fields built for
    it alone, not kept on the state: the list holds every state, and each
    state's fields would stay with it.  Their kernels carry no pair kernel,
    as in a solve, since no check here reads the pair term.
    """
    out = []
    for u, p in cases:
        fields = StateFields(u, gradient_kernels(u.grid, p.R))
        out.append((u, p, energy(fields, p), _magnetic_lower_bound(fields, p)))
    return out


def diamagnetic(cases) -> dict:
    """int |(grad + i beta A[rho]) u|^2 >= int |grad |u||^2 on ``evaluated`` cases."""
    worst = min(bd.magnetic_kinetic - abs_kinetic(u) for u, _, bd, _ in cases)
    return {"name": "diamagnetic", "worst_margin": worst, "ok": worst > -1e-9}


def density_lower_bound(cases) -> dict:
    """int |(grad + i beta A_R[rho]) u|^2 >= ``_magnetic_lower_bound`` on ``evaluated`` cases."""
    worst = min(bd.magnetic_kinetic - bound for _, _, bd, bound in cases)
    return {"name": "density_lower_bound", "worst_margin": worst, "ok": worst > -1e-9}


def convex_profile_probe(samples: int, seed: int) -> dict:
    """The cyclic sum with r -> exp(r^2/2) in place of |.|_R must go negative."""
    rep = geometry.counterexample_probe(lambda r: np.exp(r**2 / 2.0), samples, seed)
    return {"name": "convex_profile_violates", "violations": rep.violations,
            "min_value": rep.min_value, "ok": rep.violations > 0}


def mixed_crosscheck(cases: Iterable[tuple[WaveFunction, float]]) -> dict:
    """The two routes of ``mixed_term_crosscheck`` agree on each (state, R)."""
    worst = 0.0
    for u, R in cases:
        a, b = mixed_term_crosscheck(u, R)
        worst = max(worst, abs(a - b) / max(abs(b), 1e-12))
    return {"name": "mixed_crosscheck", "worst_rel": worst, "ok": worst < 1e-8}


def piecewise_kernel(points: Iterable[tuple[float, float]]) -> dict:
    """w_R(r) at each (R, r) against log r (r >= R) and log R + ((r/R)^2 - 1)/2."""
    worst = 0.0
    for R, r in points:
        want = np.log(r) if r >= R else np.log(R) + 0.5 * ((r / R) ** 2 - 1.0)
        got = float(SmearedCoulomb(R).w_radial(np.array(r)))
        worst = max(worst, abs(got - want))
    return {"name": "piecewise_w", "max_abs_err": worst, "ok": worst < 1e-14}


# ---------------------------------------------------------------------------
# suites: name -> f(samples, seed) returning {"suite": name, "checks": [...], ...}


def kernels_suite(samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    count = min(samples, 10_000)
    points = [(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 3.0)))
              for _ in range(count)]
    checks = [piecewise_kernel(points)]
    # L^p norm scaling R^{2/p - 1}
    worst = 0.0
    for _ in range(count):
        R = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(2.1, 8.0))
        lhs = lp_norm_grad_w(lam * R, p)
        rhs = lam ** (2.0 / p - 1.0) * lp_norm_grad_w(R, p)
        worst = max(worst, abs(lhs - rhs) / rhs)
    checks.append({"name": "lp_scaling", "max_rel_err": worst, "ok": worst < 1e-12})
    # gradient sup bound 1/R
    worst = 0.0
    for _ in range(count):
        R = float(rng.uniform(0.05, 2.0))
        pts = rng.uniform(-3, 3, size=(64, 2))
        g = SmearedCoulomb(R).grad_w(pts[:, 0], pts[:, 1])
        worst = max(worst, float(np.hypot(g[0], g[1]).max()) * R)
    checks.append({"name": "grad_sup_bound", "max_R_sup": worst, "ok": worst <= 1.0 + 1e-12})
    return {"suite": "kernels", "checks": checks}


def geometry_suite(samples: int, seed: int) -> dict:
    rep = geometry.counterexample_probe(None, samples, seed)
    checks = [
        {"name": "regularized_nonnegative", "samples": rep.samples,
         "violations": rep.violations, "min_value": rep.min_value,
         "ok": rep.violations == 0},
        convex_profile_probe(samples, seed + 1),
    ]
    rng = np.random.default_rng(seed + 2)
    measured_c = 0.0
    per_regime = {}
    for regime in ("all_long", "all_short", "two_short", "one_short", "mixed"):
        R = float(rng.uniform(0.1, 0.6))
        tri = geometry.regime_triangles(rng, max(samples // 5, 1), R, regime)
        vals, rho_sq = geometry.batch_cyclic_sum(tri, R)
        ratio = vals * rho_sq
        per_regime[regime] = {"R": R, "min_cyclic_sum": float(vals.min()),
                              "max_upper_ratio": float(ratio.max())}
        measured_c = max(measured_c, float(ratio.max()))
    ok = all(v["min_cyclic_sum"] >= -1e-12 for v in per_regime.values())
    checks.append({"name": "regime_sandwich", "measured_constant": measured_c,
                   "regimes": per_regime, "ok": ok})
    return {"suite": "geometry", "checks": checks, "seed": seed}


def functional_suite(samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    trap = TrapPotential()
    count = min(max(samples, 1), 100)
    cases = []
    for _ in range(count):
        u = smooth_state(SUITE_GRID, rng)
        beta = float(rng.uniform(-2.0, 2.0))
        R = float(rng.choice([0.0, rng.uniform(0.05, 0.5)]))
        cases.append((u, FunctionalParams(beta=beta, R=R, trap=trap)))
    cases = evaluated(cases)
    checks = [diamagnetic(cases), density_lower_bound(cases)]
    return {"suite": "functional-inequalities", "checks": checks, "states": count}


def manybody_suite(samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    trap = TrapPotential()
    count = min(max(samples, 1), 50)
    gaps = []

    def states():
        # one state at a time, so its crosscheck finds its kernels still cached
        for _ in range(count):
            u = smooth_state(SUITE_GRID, rng)
            beta = float(rng.uniform(-2.0, 2.0))
            R = float(rng.uniform(0.1, 0.5))
            N = int(rng.integers(2, 1000))
            params = ManyBodyParams(N=N, beta=beta, R=R, trap=trap)
            bd = product_state_energy(u, params)
            af = energy(u, params).total
            gaps.append((bd.per_particle_total - af) * (N - 1))
            yield u, R

    checks = [mixed_crosscheck(states())]  # runs the states, filling gaps
    worst = min(gaps)
    checks.append({"name": "gap_nonnegative", "worst_scaled_gap": worst, "ok": worst > -1e-9})
    return {"suite": "manybody-identities", "checks": checks, "states": count}


SUITES = {
    "kernels": kernels_suite,
    "geometry": geometry_suite,
    "functional-inequalities": functional_suite,
    "manybody-identities": manybody_suite,
}
