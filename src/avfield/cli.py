"""Command-line front end: solve, sweep, verify, energy.

Reports are JSON (nested summaries) or CSV (flat sweep tables).  Every
JSON report embeds the resolved configuration and the package version so
a run can be reproduced from its artifacts alone.  Exit codes: 0 success,
1 configuration error (an argparse usage error too), 2 numerical failure,
3 invariant violation found by verify, 4 a solve or a sweep row stopped
unconverged.  An unconverged solve or sweep row is also reported on
stderr (and in a solve report's ``warnings``), after its report, state
and CSV are written.  A sweep row that raised a numerical failure makes
the sweep exit 2, whether or not other rows are unconverged.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DomainError,
    FormatError,
    NumericalFailureError,
    SolverStalledError,
)
from . import geometry
from .fields import density
from .functional import FunctionalParams, energy
from .grid import GridSpec, WaveFunction, integrate, spectral_gradient
from .kernels import SmearedCoulomb, TrapPotential, lp_norm_grad_w
from .manybody import ManyBodyParams, mixed_term_crosscheck, product_state_energy
from .solver import SolverConfig, minimize, sweep
from .stateio import load_state, save_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_INVARIANT = 3
EXIT_UNCONVERGED = 4

SWEEP_COLUMNS = [
    "axis_value",
    "total",
    "kinetic",
    "mixed",
    "quartic",
    "potential",
    "converged",
    "grad_norm",
    "iterations",
]


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _grid_from_args(args) -> GridSpec:
    return GridSpec(n=args.grid, half_width=args.box)


def _trap_from_args(args) -> TrapPotential:
    if args.trap == "harmonic":
        return TrapPotential(c=1.0, s=2.0)
    return TrapPotential(c=args.trap_c, s=args.trap_s)


def _solver_from_args(args) -> SolverConfig:
    return SolverConfig(
        max_iters=args.max_iters,
        tol_energy=args.tol_energy,
        tol_grad=args.tol_grad,
        init=args.init,
        seed=args.seed,
    )


def _resolved_config(args, extra: dict | None = None) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    if extra:
        cfg.update(extra)
    return cfg


def _breakdown_dict(bd) -> dict:
    d = dataclasses.asdict(bd)
    d["total"] = bd.total if hasattr(bd, "total") else bd.per_particle_total
    return d


def cmd_solve(args) -> int:
    spec = _grid_from_args(args)
    params = FunctionalParams(beta=args.beta, R=args.R, trap=_trap_from_args(args))
    cfg = _solver_from_args(args)
    warm = None
    if args.init == "from_file":
        if not args.state_in:
            raise ConfigurationError("--init from_file requires --state-in")
        warm, _ = load_state(args.state_in, expected=spec)
    res = minimize(params, spec, cfg, warm_start=warm)
    for warning in res.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.state_out:
        save_state(args.state_out, res.u, args.beta, args.R)
    if args.history_out:
        with open(args.history_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "energy"])
            for i, e in enumerate(res.energy_history):
                w.writerow([i, repr(e)])
    _emit(
        {
            "config": _resolved_config(args),
            "breakdown": _breakdown_dict(res.breakdown),
            "iterations": res.iterations,
            "level_iterations": res.level_iterations,
            "converged": res.converged,
            "grad_norm": res.grad_norm,
            "boundary_mass": res.boundary_mass,
            "warnings": res.warnings,
        },
        args.out,
    )
    return EXIT_OK if res.converged else EXIT_UNCONVERGED


def cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError("sweep needs a non-empty --values list")
    spec = _grid_from_args(args)
    params = FunctionalParams(beta=args.beta, R=args.R, trap=_trap_from_args(args))
    rows = sweep(args.axis, values, params, spec, _solver_from_args(args))
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(sink)
        w.writerow(SWEEP_COLUMNS)
        for row in rows:
            bd = row.breakdown
            w.writerow(
                [
                    repr(row.axis_value),
                    repr(bd.total) if bd else "",
                    repr(bd.kinetic) if bd else "",
                    repr(bd.mixed) if bd else "",
                    repr(bd.quartic) if bd else "",
                    repr(bd.potential) if bd else "",
                    row.converged,
                    repr(row.grad_norm),
                    row.iterations,
                ]
            )
    finally:
        if args.out:
            sink.close()
    for row in rows:
        if not row.converged:
            why = row.error or (
                f"{row.iterations} iterations, projected gradient norm {row.grad_norm:.3e}"
            )
            print(f"warning: {args.axis}={row.axis_value!r} not converged: {why}",
                  file=sys.stderr)
    if any(row.error for row in rows):
        return EXIT_NUMERICAL
    return EXIT_OK if all(row.converged for row in rows) else EXIT_UNCONVERGED


def cmd_energy(args) -> int:
    u, header = load_state(args.state_file)
    u = u.normalized()
    beta = args.beta if args.beta is not None else header.beta
    R = args.R if args.R is not None else header.R
    params = ManyBodyParams(N=args.N, beta=beta, R=R, trap=_trap_from_args(args))
    bd = product_state_energy(u, params)
    fp = FunctionalParams(beta=beta, R=R, trap=params.trap)
    af = energy(u, fp).total
    _emit(
        {
            "config": _resolved_config(args, {"beta": beta, "R": R}),
            "breakdown": {
                "one_body": bd.one_body,
                "mixed": bd.mixed,
                "three_body": bd.three_body,
                "singular": bd.singular,
                "per_particle_total": bd.per_particle_total,
            },
            "functional_total": af,
            "gap": bd.per_particle_total - af,
        },
        args.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites


def _random_states(spec: GridSpec, rng: np.random.Generator, count: int):
    x, y = spec.meshgrid()
    env = np.exp(-(x**2 + y**2) / 2.0)
    for _ in range(count):
        field = np.zeros((spec.n, spec.n), dtype=complex)
        for _ in range(4):
            kx, ky = rng.normal(scale=1.2, size=2)
            field += (rng.normal() + 1j * rng.normal()) * np.exp(
                1j * (kx * x + ky * y)
            )
        vals = env * (1.0 + 0.5 * field)
        yield WaveFunction(spec, vals).normalized()


def _suite_kernels(samples: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    # piecewise closed form against an independent quadrature-free evaluation
    worst = 0.0
    for _ in range(min(samples, 10_000)):
        R = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.0, 3.0))
        k = SmearedCoulomb(R)
        want = np.log(r) if r >= R else np.log(R) + 0.5 * ((r / R) ** 2 - 1.0)
        got = float(k.w_radial(np.array(r)))
        worst = max(worst, abs(got - want))
    checks.append({"name": "piecewise_w", "max_abs_err": worst, "ok": worst < 1e-14})
    # L^p norm scaling R^{2/p - 1}
    worst = 0.0
    for _ in range(min(samples, 10_000)):
        R = float(rng.uniform(0.05, 2.0))
        lam = float(rng.uniform(0.5, 2.0))
        p = float(rng.uniform(2.1, 8.0))
        lhs = lp_norm_grad_w(lam * R, p)
        rhs = lam ** (2.0 / p - 1.0) * lp_norm_grad_w(R, p)
        worst = max(worst, abs(lhs - rhs) / rhs)
    checks.append({"name": "lp_scaling", "max_rel_err": worst, "ok": worst < 1e-12})
    # gradient sup bound 1/R
    worst = 0.0
    for _ in range(min(samples, 10_000)):
        R = float(rng.uniform(0.05, 2.0))
        pts = rng.uniform(-3, 3, size=(64, 2))
        g = SmearedCoulomb(R).grad_w(pts)
        worst = max(worst, float(np.hypot(g[:, 0], g[:, 1]).max()) * R)
    checks.append({"name": "grad_sup_bound", "max_R_sup": worst, "ok": worst <= 1.0 + 1e-12})
    return {"suite": "kernels", "checks": checks}


def _suite_geometry(samples: int, seed: int) -> dict:
    checks = []
    rep = geometry.counterexample_probe(None, samples, seed)
    checks.append(
        {
            "name": "regularized_nonnegative",
            "samples": rep.samples,
            "violations": rep.violations,
            "min_value": rep.min_value,
            "ok": rep.violations == 0,
        }
    )
    convex = geometry.counterexample_probe(
        lambda r: np.exp(r**2 / 2.0), samples, seed + 1
    )
    checks.append(
        {
            "name": "convex_profile_violates",
            "violations": convex.violations,
            "min_value": convex.min_value,
            "ok": convex.violations > 0,
        }
    )
    rng = np.random.default_rng(seed + 2)
    measured_c = 0.0
    per_regime = {}
    for regime in ("all_long", "all_short", "two_short", "one_short", "mixed"):
        R = float(rng.uniform(0.1, 0.6))
        tri = geometry.regime_triangles(rng, max(samples // 5, 1), R, regime)
        vals = geometry.batch_cyclic_sum(tri, R)
        ratio = vals * geometry.batch_rho_sq(tri)
        per_regime[regime] = {
            "R": R,
            "min_cyclic_sum": float(vals.min()),
            "max_upper_ratio": float(ratio.max()),
        }
        measured_c = max(measured_c, float(ratio.max()))
    ok = all(v["min_cyclic_sum"] >= -1e-12 for v in per_regime.values())
    checks.append(
        {
            "name": "regime_sandwich",
            "measured_constant": measured_c,
            "regimes": per_regime,
            "ok": ok,
        }
    )
    return {"suite": "geometry", "checks": checks, "seed": seed}


def _suite_functional(samples: int, seed: int) -> dict:
    spec = GridSpec(n=64, half_width=8.0)
    rng = np.random.default_rng(seed)
    trap = TrapPotential()
    count = min(max(samples, 1), 100)
    dia_worst = np.inf
    dens_worst = np.inf
    for u in _random_states(spec, rng, count):
        beta = float(rng.uniform(-2.0, 2.0))
        R = float(rng.choice([0.0, rng.uniform(0.05, 0.5)]))
        bd = energy(u, FunctionalParams(beta=beta, R=R, trap=trap))
        absu = np.sqrt(density(u))
        gx, gy = spectral_gradient(spec, absu)
        kin_abs = float(integrate(spec, np.abs(gx) ** 2 + np.abs(gy) ** 2))
        dia_worst = min(dia_worst, bd.magnetic_kinetic - kin_abs)
        quart = float(integrate(spec, density(u) ** 2))
        dens_worst = min(
            dens_worst, bd.magnetic_kinetic - 2.0 * np.pi * abs(beta) * quart
        )
    checks = [
        {"name": "diamagnetic", "worst_margin": dia_worst, "ok": dia_worst > -1e-9},
        {
            "name": "density_lower_bound",
            "worst_margin": dens_worst,
            "ok": dens_worst > -1e-9,
        },
    ]
    return {"suite": "functional-inequalities", "checks": checks, "states": count}


def _suite_manybody(samples: int, seed: int) -> dict:
    spec = GridSpec(n=64, half_width=8.0)
    rng = np.random.default_rng(seed)
    trap = TrapPotential()
    count = min(max(samples, 1), 50)
    coeff_worst = 0.0
    cross_worst = 0.0
    gap_worst = np.inf
    for u in _random_states(spec, rng, count):
        beta = float(rng.uniform(-2.0, 2.0))
        R = float(rng.uniform(0.1, 0.5))
        N = int(rng.integers(2, 1000))
        bd = product_state_energy(u, ManyBodyParams(N=N, beta=beta, R=R, trap=trap))
        af = energy(u, FunctionalParams(beta=beta, R=R, trap=trap)).total
        gap_worst = min(gap_worst, (bd.per_particle_total - af) * (N - 1))
        a, b = mixed_term_crosscheck(u, R)
        cross_worst = max(cross_worst, abs(a - b) / max(abs(b), 1e-12))
        if N > 2 and beta != 0.0:
            again = product_state_energy(
                u, ManyBodyParams(N=2, beta=beta, R=R, trap=trap)
            )
            coeff_worst = max(coeff_worst, abs(again.three_body))
    checks = [
        {"name": "coefficient_N2_zero", "worst": coeff_worst, "ok": coeff_worst == 0.0},
        {"name": "mixed_crosscheck", "worst_rel": cross_worst, "ok": cross_worst < 1e-8},
        {"name": "gap_nonnegative", "worst_scaled_gap": gap_worst, "ok": gap_worst > -1e-9},
    ]
    return {"suite": "manybody-identities", "checks": checks, "states": count}


_SUITES = {
    "kernels": _suite_kernels,
    "geometry": _suite_geometry,
    "functional-inequalities": _suite_functional,
    "manybody-identities": _suite_manybody,
}


def cmd_verify(args) -> int:
    report = _SUITES[args.suite](args.samples, args.seed)
    report["config"] = _resolved_config(args)
    ok = all(c["ok"] for c in report["checks"])
    report["ok"] = ok
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="avfield",
        description="Average-field energy minimization for extended anyons",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--grid", type=int, default=256, help="grid points per side")
        sp.add_argument("--box", type=float, default=8.0, help="half-width of the box")
        sp.add_argument("--trap", choices=["harmonic", "power"], default="harmonic")
        sp.add_argument("--trap-c", type=float, default=1.0)
        sp.add_argument("--trap-s", type=float, default=2.0)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    def add_solver(sp):
        sp.add_argument("--max-iters", type=int, default=5000)
        sp.add_argument("--tol-energy", type=float, default=1e-10)
        sp.add_argument("--tol-grad", type=float, default=1e-5)
        sp.add_argument(
            "--init",
            choices=["gaussian", "gaussian_vortex", "from_file", "random"],
            default="gaussian",
        )
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("solve", help="minimize the average-field energy")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--R", type=float, default=0.0)
    add_common(sp)
    add_solver(sp)
    sp.add_argument("--state-in", default=None, help="warm-start state file")
    sp.add_argument("--state-out", default=None, help="write the minimizer here")
    sp.add_argument("--history-out", default=None, help="energy history CSV")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="minimize along one parameter axis")
    sp.add_argument("--axis", choices=["beta", "R", "s"], required=True)
    sp.add_argument("--values", required=True, help="comma-separated axis values")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=0.0)
    add_common(sp)
    add_solver(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run a sampling verification suite")
    sp.add_argument("suite", choices=sorted(_SUITES))
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("energy", help="per-particle product-state energy of a state file")
    sp.add_argument("state_file")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--beta", type=float, default=None, help="override the stored beta")
    sp.add_argument("--R", type=float, default=None, help="override the stored radius")
    sp.add_argument("--trap", choices=["harmonic", "power"], default="harmonic")
    sp.add_argument("--trap-c", type=float, default=1.0)
    sp.add_argument("--trap-s", type=float, default=2.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_energy)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a numerical failure
        # here; --help and --version exit 0
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ConfigurationError, DomainError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailureError, SolverStalledError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
