"""Command-line front end: solve, sweep, verify, energy.

The checks of ``verify`` live in ``avfield.verify``; this module looks
up the suite, adds the configuration to its report and sets the exit
code.  Reports are JSON (nested summaries) or CSV (flat sweep tables).
Every JSON report embeds the resolved configuration and the package
version so a run can be reproduced from its artifacts alone.  ``solve``
starts cold, from the Gaussian or the random start of ``--seed``, or
warm from the state file ``--state-in``, never from both.  Exit codes: 0
success; 1 for a value that its parameter type refuses (a ``DomainError``,
which every bad sweep row raises before the first solve), a missing output
directory (checked for every ``--out`` and ``--*-out`` before any command
runs), a file that cannot be read or written, or a usage error; 2 numerical
failure (a line search that stalls away from the round-off floor too); 3
invariant violation found by verify; 4 a solve or a sweep row whose last
iterate fails the convergence test, stopped at ``--max-iters`` or at the floor.
An unconverged solve or sweep row is also reported on stderr (and in a
solve report's ``warnings``), after its report, state and CSV are
written.  A sweep row that raised a numerical failure makes the sweep
exit 2, whether or not other rows are unconverged.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import __version__, verify
from .errors import DomainError, FormatError, NumericalFailureError
from .functional import FunctionalParams, energy
from .grid import GridSpec
from .kernels import TrapPotential
from .manybody import ManyBodyParams, product_state_energy
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


def _check_output_dirs(args) -> None:
    """Refuse an ``out`` or ``*_out`` path whose directory is missing, before any command runs."""
    for key, path in vars(args).items():
        if (key == "out" or key.endswith("_out")) and path and not Path(path).parent.is_dir():
            raise DomainError(f"cannot write {path}: its directory does not exist")


def _grid_from_args(args) -> GridSpec:
    return GridSpec(n=args.grid, half_width=args.box)


def _trap_from_args(args) -> TrapPotential:
    if args.trap == "harmonic" and (args.trap_c, args.trap_s) != (1.0, 2.0):
        raise DomainError("--trap-c and --trap-s need --trap power")
    return TrapPotential(c=args.trap_c, s=args.trap_s)


def _params_from_args(args, **row) -> FunctionalParams:
    """The functional of ``solve``, or of the sweep row whose axis value
    ``row`` sets, such as ``trap_s=4.0``; each row's trap is checked."""
    args = argparse.Namespace(**{**vars(args), **row})
    return FunctionalParams(beta=args.beta, R=args.R, trap=_trap_from_args(args))


def _solver_from_args(args) -> SolverConfig:
    return SolverConfig(max_iters=args.max_iters, tol_grad=args.tol_grad, seed=args.seed)


def _resolved_config(args, extra: dict | None = None) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    if extra:
        cfg.update(extra)
    return cfg


def cmd_solve(args) -> int:
    spec = _grid_from_args(args)
    params = _params_from_args(args)
    warm = load_state(args.state_in, expected=spec)[0] if args.state_in else None
    res = minimize(params, spec, _solver_from_args(args), warm_start=warm)
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
            "breakdown": {**dataclasses.asdict(res.breakdown), "total": res.breakdown.total},
            "iterations": res.iterations,
            "level_iterations": res.level_iterations,
            "level_grids": res.level_grids,
            "converged": res.converged,
            "grad_norm": res.grad_norm,
            "boundary_mass": res.boundary_mass,
            "warnings": res.warnings,
        },
        args.out,
    )
    return EXIT_OK if res.converged else EXIT_UNCONVERGED


def cmd_sweep(args) -> int:
    spec = _grid_from_args(args)
    field = "trap_s" if args.axis == "s" else args.axis
    problems = [_params_from_args(args, **{field: value}) for value in args.values]
    rows = sweep(problems, spec, _solver_from_args(args))
    failed = [isinstance(row, NumericalFailureError) for row in rows]
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        w = csv.writer(sink)
        w.writerow(SWEEP_COLUMNS)
        for value, row, error in zip(args.values, rows, failed):
            if error:
                cells = ["", "", "", "", "", False, "nan", 0]
            else:
                terms = [repr(getattr(row.breakdown, name)) for name in SWEEP_COLUMNS[1:6]]
                cells = [*terms, row.converged, repr(row.grad_norm), row.iterations]
            w.writerow([repr(value), *cells])
    finally:
        if args.out:
            sink.close()
    for value, row, error in zip(args.values, rows, failed):
        if error or not row.converged:
            why = row if error else (
                f"{row.iterations} iterations, projected gradient norm {row.grad_norm:.3e}"
            )
            print(f"warning: {args.axis}={value!r} not converged: {why}", file=sys.stderr)
    if any(failed):
        return EXIT_NUMERICAL
    return EXIT_OK if all(row.converged for row in rows) else EXIT_UNCONVERGED


def cmd_energy(args) -> int:
    u, header = load_state(args.state_file)
    u = u.normalized()
    beta = args.beta if args.beta is not None else header.beta
    R = args.R if args.R is not None else header.R
    params = ManyBodyParams(N=args.N, beta=beta, R=R, trap=_trap_from_args(args))
    bd = product_state_energy(u, params)
    af = energy(u, params).total
    _emit(
        {
            "config": _resolved_config(args, {"beta": beta, "R": R}),
            "breakdown": {**dataclasses.asdict(bd), "per_particle_total": bd.per_particle_total},
            "functional_total": af,
            "gap": bd.per_particle_total - af,
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.SUITES[args.suite](args.samples, args.seed)
    report["config"] = _resolved_config(args)
    report["ok"] = all(c["ok"] for c in report["checks"])
    _emit(report, args.out)
    return EXIT_OK if report["ok"] else EXIT_INVARIANT


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def float_list(text: str) -> list[float]:
    """A non-empty comma-separated list of numbers; empty items are skipped."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``avfield`` parser, built once per process and shared by every ``main`` call.

    Parsing leaves it unchanged: each call gets a fresh namespace, and the
    ``cmd_*`` functions look up ``minimize`` and ``sweep`` when they run.
    """
    p = argparse.ArgumentParser(
        prog="avfield",
        description="Average-field energy minimization for extended anyons",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_trap_and_out(sp):
        sp.add_argument("--trap", choices=["harmonic", "power"], default="harmonic")
        sp.add_argument("--trap-c", type=float, default=1.0)
        sp.add_argument("--trap-s", type=float, default=2.0)
        sp.add_argument("--out", default=None, help="write the report here instead of stdout")

    def add_common(sp):
        sp.add_argument("--grid", type=int, default=256, help="grid points per side")
        sp.add_argument("--box", type=float, default=8.0, help="half-width of the box")
        add_trap_and_out(sp)

    def add_solver(sp, starts):
        # ``starts`` holds --seed, and in ``solve`` also --state-in, which excludes it
        sp.add_argument("--max-iters", type=int, default=5000)
        sp.add_argument("--tol-grad", type=float, default=1e-5)
        starts.add_argument("--seed", type=seed_int, default=None,
                            help="random cold start (default the Gaussian)")

    sp = sub.add_parser("solve", help="minimize the average-field energy")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--R", type=float, default=0.0)
    add_common(sp)
    starts = sp.add_mutually_exclusive_group()
    add_solver(sp, starts)
    starts.add_argument("--state-in", default=None, help="warm-start state file")
    sp.add_argument("--state-out", default=None, help="write the minimizer here")
    sp.add_argument("--history-out", default=None, help="energy history CSV, returned grid only")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("sweep", help="minimize along one parameter axis")
    sp.add_argument("--axis", choices=["beta", "R", "s"], required=True)
    sp.add_argument("--values", type=float_list, required=True,
                    help="comma-separated axis values")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--R", type=float, default=0.0)
    add_common(sp)
    add_solver(sp, sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run a sampling verification suite")
    sp.add_argument("suite", choices=sorted(verify.SUITES))
    sp.add_argument("--samples", type=positive_int, default=100_000)
    sp.add_argument("--seed", type=seed_int, default=42)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("energy", help="per-particle product-state energy of a state file")
    sp.add_argument("state_file")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--beta", type=float, default=None, help="override the stored beta")
    sp.add_argument("--R", type=float, default=None, help="override the stored radius")
    add_trap_and_out(sp)
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
        _check_output_dirs(args)
        return args.func(args)
    except (DomainError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
