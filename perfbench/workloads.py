"""The benchmark's workloads: set-up, one operation, and the check of its output.

Each workload drives avfield through its public entry points only.  The
operation is what the harness times; inputs are made before it and checks
run after it, so neither is part of the measured latency.  Checks compare
against oracles that do not run the code under test: an eigensolver, values
recorded at the seed commit, closed-form inequalities, an independent
circumradius formula and byte-for-byte file round trips.

``avfield`` must be importable (``run.py`` puts the checkout's ``src`` on
``sys.path``); scipy is imported only by the oracle that needs it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Layer functions are called through their modules, so that a traced run's
# wrappers (tracing.py) see the benchmark's own calls.
from avfield import cli, functional, geometry, kernels, manybody, stateio
from avfield.functional import FunctionalParams
from avfield.grid import GridSpec, WaveFunction
from avfield.kernels import TrapPotential
from avfield.manybody import ManyBodyParams

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerances of the checks.  SEED_RTOL follows the rule that
# energies agree with the pre-change code to 1e-10 relative; SOLVE_RTOL is
# the accuracy a converged solve at --tol-grad 1e-5 is held to (a different,
# equally converged iterate moves E by far less); PATH_RTOL is the agreement
# of two evaluation paths of the same quantity.
SEED_RTOL = 1e-10
SOLVE_RTOL = 1e-8
PATH_RTOL = 1e-12
EIG_RTOL = 1e-6
# round-off allowance on an inequality that holds exactly in exact arithmetic
BOUND_RTOL = 1e-10


@dataclass
class Outcome:
    """What one operation produced, kept for its check."""

    value: dict
    work: dict = field(default_factory=dict)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def kernel_bytes(obj) -> int:
    """nbytes of every array an object retains, through tuples and attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(kernel_bytes(x) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(kernel_bytes(x) for x in vars(obj).values())
    return 0


class Workload:
    """Base: ``setup`` once, then ``prepare``/``op``/``check`` per operation."""

    warmup = False  # run one untimed operation first (short operations only)
    grid_n = 0  # grid size whose transforms the traced run classifies

    def __init__(self, toy: bool, seed: int, tmp: Path, reference: dict):
        self.toy = toy
        self.seed = seed
        self.tmp = tmp
        self.reference = reference
        self.layer: dict[str, float] = {}

    def setup(self) -> None:
        pass

    def build_kernels(self, spec: GridSpec, R: float) -> None:
        """Fill avfield's kernel cache for the grid and time the build."""
        build = getattr(kernels, "kernels_for", None)
        if build is None:
            return
        t0 = time.perf_counter()
        kset = build(spec, R)
        self.layer["kernels.sample_s"] = time.perf_counter() - t0
        self.layer["kernels.retained_mb"] = kernel_bytes(kset) / 1e6

    def prepare(self, i: int):
        return None

    def op(self, i: int, prepared) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome) -> str | None:
        """None if the output is correct, otherwise the reason it is not."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# solves through the CLI


class SolveWorkload(Workload):
    """One in-process ``avfield solve`` call per operation."""

    def __init__(self, *a, beta, R, n, L, tol_grad, trap_args=(), max_iters=None):
        super().__init__(*a)
        self.beta, self.R, self.n, self.L = beta, R, n, L
        self.grid_n = n
        self.argv = [
            "solve", "--beta", repr(beta), "--R", repr(R), "--grid", str(n),
            "--box", repr(L), "--tol-grad", repr(tol_grad), *trap_args,
        ]
        if max_iters is not None:
            self.argv += ["--max-iters", str(max_iters)]

    def setup(self) -> None:
        self.build_kernels(GridSpec(n=self.n, half_width=self.L), self.R)

    def op(self, i: int, prepared) -> Outcome:
        path = self.tmp / f"solve-{i}.json"
        rc = cli.main([*self.argv, "--out", str(path)])
        report = json.loads(path.read_text()) if rc == 0 else {}
        path.unlink(missing_ok=True)
        return Outcome(
            {"rc": rc, "report": report},
            {"iterations": report.get("iterations", 0)},
        )

    def _solved(self, out: Outcome):
        if out.value["rc"] != 0:
            return None, f"exit code {out.value['rc']}"
        rep = out.value["report"]
        return rep["breakdown"]["total"], None


class HarmonicSolve(SolveWorkload):
    """beta=1, R=0.1, harmonic trap: the acceptance suite's reference solve.

    Oracle: the energy the seed commit converges to (see reference.json).
    The solve must converge and land within SOLVE_RTOL of it.
    """

    def __init__(self, *a):
        if a[0]:
            super().__init__(*a, beta=1.0, R=0.5, n=32, L=8.0, tol_grad=1e-5)
        else:
            super().__init__(*a, beta=1.0, R=0.1, n=256, L=8.0, tol_grad=1e-5)

    def check(self, out: Outcome) -> str | None:
        E, err = self._solved(out)
        if err:
            return err
        if not out.value["report"]["converged"]:
            return "reference solve did not converge"
        want = self.reference["solve-harmonic"]["toy" if self.toy else "full"]["energy"]
        if _rel(E, want) > SOLVE_RTOL:
            return f"energy {E!r} differs from the reference {want!r}"
        return None


def lowest_eigenvalue(n: int, L: float, c: float, s: float) -> float:
    """Smallest eigenvalue of F^-1 (kx^2 + ky^2) F + V on the n x n grid.

    At beta = 0 the energy of a normalized state is the Rayleigh quotient of
    this operator, so every state's energy is at least this value and a
    converged ground state reaches it.  Wavenumbers and trap are built here,
    not taken from avfield; the Nyquist mode is zeroed as in avfield's
    spectral derivative.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    h = 2.0 * L / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    k[n // 2] = 0.0
    k2 = k[np.newaxis, :] ** 2 + k[:, np.newaxis] ** 2
    a = -L + h * np.arange(n)
    x, y = np.meshgrid(a, a, indexing="xy")
    V = c * np.hypot(x, y) ** s

    def apply(v):
        f = v.reshape(n, n)
        return (np.fft.ifft2(k2 * np.fft.fft2(f)).real + V * f).ravel()

    op = LinearOperator((n * n, n * n), matvec=apply, dtype=float)
    v0 = np.exp(-(x**2 + y**2) / 2.0).ravel()
    vals = eigsh(op, k=1, which="SA", v0=v0, tol=1e-12, return_eigenvectors=False)
    return float(vals[0])


class QuarticSolve(SolveWorkload):
    """beta=0, trap |x|^4: the solver's stiffness comes from the trap.

    Oracle: the lowest eigenvalue of the discrete operator.  Every returned
    energy must lie above it, and a solve that reports convergence must
    reach it.  A solve that exhausts --max-iters is reported (iterations,
    ``converged`` in the detail line and solver.converged_frac) but is not a
    wrong answer: its energy is a valid upper bound.
    """

    def __init__(self, *a):
        trap = ("--trap", "power", "--trap-s", "4")
        if a[0]:
            super().__init__(*a, beta=0.0, R=0.0, n=32, L=8.0, tol_grad=1e-4,
                             trap_args=trap, max_iters=300)
        else:
            super().__init__(*a, beta=0.0, R=0.0, n=64, L=8.0, tol_grad=1e-4,
                             trap_args=trap)
        self._eig = None

    def check(self, out: Outcome) -> str | None:
        E, err = self._solved(out)
        if err:
            return err
        if self._eig is None:
            self._eig = lowest_eigenvalue(self.n, self.L, 1.0, 4.0)
        out.work["oracle_gap_rel"] = (E - self._eig) / self._eig
        if E < self._eig * (1.0 - BOUND_RTOL):
            return f"energy {E!r} is below the lowest eigenvalue {self._eig!r}"
        if out.value["report"]["converged"] and _rel(E, self._eig) > EIG_RTOL:
            return f"converged energy {E!r} misses the lowest eigenvalue {self._eig!r}"
        return None


# ---------------------------------------------------------------------------
# state evaluation at n = 512


def pool_state(spec: GridSpec, index: int) -> WaveFunction:
    """Smooth, trap-localized random state number ``index`` of the pool.

    A Gaussian envelope times a few random plane waves: vortex-free in
    general but with a non-trivial phase, so the mixed term is non-zero.
    The pool is fixed; a run's seed only chooses which states it uses.
    """
    rng = np.random.default_rng([20151218, index])
    a = -spec.half_width + spec.h * np.arange(spec.n)
    x, y = np.meshgrid(a, a, indexing="xy")
    env = np.exp(-(x**2 + y**2) / 2.0)
    wave = np.zeros((spec.n, spec.n), dtype=complex)
    for _ in range(4):
        kx, ky = rng.normal(scale=1.2, size=2)
        wave += (rng.normal() + 1j * rng.normal()) * np.exp(1j * (kx * x + ky * y))
    return WaveFunction(spec, env * (1.0 + 0.5 * wave)).normalized()


class EvalN512(Workload):
    """load_state -> energy -> energy_and_gradient -> product_state_energy -> save_state.

    Oracles: per-state values recorded at the seed commit (SEED_RTOL),
    agreement of ``energy`` with the ``energy_and_gradient`` breakdown
    (PATH_RTOL), a non-negative product-state gap, and a bit-exact reload
    of the saved file.
    """

    warmup = True
    BETA, R, N_PARTICLES = 1.0, 0.1, 1000

    def __init__(self, *a):
        super().__init__(*a)
        self.n, self.pool, self.bank_size = (32, 4, 2) if self.toy else (512, 32, 4)
        self.grid_n = self.n
        self.spec = GridSpec(n=self.n, half_width=8.0)
        trap = TrapPotential()
        R = 0.5 if self.toy else self.R
        self.fp = FunctionalParams(beta=self.BETA, R=R, trap=trap)
        self.mp = ManyBodyParams(N=self.N_PARTICLES, beta=self.BETA, R=R, trap=trap)

    def setup(self) -> None:
        self.build_kernels(self.spec, self.fp.R)
        rng = np.random.default_rng(self.seed)
        self.bank = []
        for j, index in enumerate(rng.choice(self.pool, self.bank_size, replace=False)):
            path = self.tmp / f"bank-{j}.state"
            stateio.save_state(path, pool_state(self.spec, int(index)), self.BETA, self.fp.R)
            self.bank.append((int(index), path))

    def op(self, i: int, prepared) -> Outcome:
        index, path = self.bank[i % len(self.bank)]
        u, _ = stateio.load_state(path, expected=self.spec)
        e = functional.energy(u, self.fp)
        bd, G = functional.energy_and_gradient(u, self.fp)
        pb = manybody.product_state_energy(u, self.mp)
        out_path = self.tmp / f"out-{i % 2}.state"
        stateio.save_state(out_path, u, self.BETA, self.fp.R)
        return Outcome({"index": index, "u": u, "e": e, "bd": bd, "G": G,
                        "pb": pb, "path": out_path})

    def check(self, out: Outcome) -> str | None:
        v = out.value
        ref = self.reference["eval-n512"]["toy" if self.toy else "full"][str(v["index"])]
        e, bd, pb = v["e"], v["bd"], v["pb"]
        scale = max(abs(ref["total"]), 1.0)
        for term in ("kinetic", "mixed", "quartic", "potential"):
            if abs(getattr(e, term) - ref[term]) > SEED_RTOL * scale:
                return f"state {v['index']}: {term} {getattr(e, term)!r} != {ref[term]!r}"
        for term in ("kinetic", "mixed", "quartic", "potential"):
            if abs(getattr(bd, term) - getattr(e, term)) > PATH_RTOL * scale:
                return f"state {v['index']}: energy and energy_and_gradient disagree on {term}"
        gnorm = float(np.sqrt(np.sum(np.abs(v["G"]) ** 2)) * self.spec.h)
        if _rel(gnorm, ref["grad_norm"]) > SEED_RTOL:
            return f"state {v['index']}: gradient norm {gnorm!r} != {ref['grad_norm']!r}"
        if _rel(pb.per_particle_total, ref["product_total"]) > SEED_RTOL:
            return f"state {v['index']}: product-state energy {pb.per_particle_total!r}"
        if pb.per_particle_total - e.total < -BOUND_RTOL * scale:
            return f"state {v['index']}: product-state energy below the functional"
        back, _ = stateio.load_state(v["path"])
        if back.values.tobytes() != v["u"].values.tobytes():
            return f"state {v['index']}: saved state does not reload bit-exactly"
        return None


# ---------------------------------------------------------------------------
# geometry


class Geometry(Workload):
    """The work of ``avfield verify geometry`` plus a circumradius batch.

    Oracles: no violation of the regularized inequality, at least one for
    the convex profile, a non-negative cyclic sum in every regime, and for
    the circumradius batch an independent circumcenter formula together
    with a^2 + b^2 + c^2 <= 9 RR^2 and RR >= (longest edge)/2.
    """

    warmup = True

    def __init__(self, *a):
        super().__init__(*a)
        self.samples = 5_000 if self.toy else 400_000

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, i + 1])  # i = -1 is the warm-up
        return int(rng.integers(2**31)), rng.uniform(-2.0, 2.0, size=(self.samples, 3, 2))

    def op(self, i: int, prepared) -> Outcome:
        verify_seed, tri = prepared
        path = self.tmp / f"geometry-{i}.json"
        rc = cli.main(["verify", "geometry", "--samples", str(self.samples),
                       "--seed", str(verify_seed), "--out", str(path)])
        rr = geometry.batch_circumradius(tri)
        report = json.loads(path.read_text()) if path.exists() else {}
        path.unlink(missing_ok=True)
        triangles = 2 * self.samples + 5 * max(self.samples // 5, 1) + len(tri)
        return Outcome({"rc": rc, "report": report, "tri": tri, "rr": rr},
                       {"triangles": triangles})

    def check(self, out: Outcome) -> str | None:
        v = out.value
        if v["rc"] != 0:
            return f"verify geometry exit code {v['rc']}"
        checks = {c["name"]: c for c in v["report"]["checks"]}
        if checks["regularized_nonnegative"]["violations"] != 0:
            return "regularized cyclic sum went negative"
        if checks["convex_profile_violates"]["violations"] <= 0:
            return "convex profile produced no violation"
        for regime, r in checks["regime_sandwich"]["regimes"].items():
            if r["min_cyclic_sum"] < -1e-12:
                return f"cyclic sum negative in regime {regime}"
        return check_circumradius(v["tri"], v["rr"])


def check_circumradius(tri: np.ndarray, rr: np.ndarray) -> str | None:
    p, q, r = tri[:, 0], tri[:, 1], tri[:, 2]
    b, c = q - p, r - p
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    edges2 = np.stack([(b**2).sum(1), ((r - q) ** 2).sum(1), (c**2).sum(1)], axis=1)
    rho2 = edges2.sum(1)
    # circumcenter relative to p; well-conditioned triangles only
    good = np.abs(d) > 1e-3 * rho2
    ux = (c[:, 1] * edges2[:, 0] - b[:, 1] * edges2[:, 2]) / np.where(good, d, 1.0)
    uy = (b[:, 0] * edges2[:, 2] - c[:, 0] * edges2[:, 0]) / np.where(good, d, 1.0)
    want = np.hypot(ux, uy)
    if not np.all(np.abs(rr[good] - want[good]) <= 1e-9 * want[good]):
        return "circumradius disagrees with the circumcenter formula"
    finite = np.isfinite(rr)
    if not np.all(rho2[finite] <= 9.0 * rr[finite] ** 2 * (1.0 + 1e-12)):
        return "a^2 + b^2 + c^2 <= 9 RR^2 violated"
    if not np.all(rr >= 0.5 * np.sqrt(edges2.max(1)) * (1.0 - 1e-12)):
        return "circumradius below half the longest edge"
    return None


WORKLOADS = {
    "solve-harmonic": HarmonicSolve,
    "solve-quartic": QuarticSolve,
    "eval-n512": EvalN512,
    "geometry": Geometry,
}


def make(name: str, toy: bool, seed: int, tmp: Path, reference: dict | None = None) -> Workload:
    if reference is None:
        reference = json.loads(REFERENCE_PATH.read_text())
    return WORKLOADS[name](toy, seed % 2**63, tmp, reference)
