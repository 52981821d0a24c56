"""Triangle-level verification of the regularized cyclic-sum inequality.

For three planar points and the regularized distance |v|_R = max(|v|, R)
the cyclic sum

    S = sum_cyc (x-y).(x-z) / (|x-y|_R^2 |x-z|_R^2)

is non-negative and bounded by a constant times 1/rho^2 with
rho^2 = |x-y|^2 + |y-z|^2 + |z-x|^2.  The proof is case-by-case in the
edge-length regimes relative to R; each case has an exact closed form
(all edges long: 1/(2 RR^2) with RR the circumradius; all short:
rho^2/(2R^4); two short: |x-z|^2 (R^2 + (y-z).(y-x)) over the product of
regularized squares).  This module evaluates everything exactly from
coordinates, in bulk, with targeted generators for every regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

COLLINEAR_REL_TOL = 1e-14


@dataclass
class Triangle:
    """Three planar points with derived edge data.

    The circumradius is infinite for collinear points; the associated
    bounds then hold trivially and are flagged rather than rejected.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.z = np.asarray(self.z, dtype=float)

    @property
    def edges(self) -> tuple[float, float, float]:
        """(|x-y|, |y-z|, |z-x|)."""
        return (
            float(np.hypot(*(self.x - self.y))),
            float(np.hypot(*(self.y - self.z))),
            float(np.hypot(*(self.z - self.x))),
        )

    @property
    def rho(self) -> float:
        a, b, c = self.edges
        return float(np.sqrt(a * a + b * b + c * c))

    @property
    def signed_area(self) -> float:
        u = self.y - self.x
        v = self.z - self.x
        return 0.5 * float(u[0] * v[1] - u[1] * v[0])

    @property
    def circumradius(self) -> float:
        a, b, c = self.edges
        area = abs(self.signed_area)
        if area <= COLLINEAR_REL_TOL * max(a * b, b * c, c * a, 1e-300):
            return np.inf
        return a * b * c / (4.0 * area)

    def as_array(self) -> np.ndarray:
        return np.stack([self.x, self.y, self.z], axis=0)


# ---------------------------------------------------------------------------
# vectorized core: triangles as arrays of shape (m, 3, 2)


def batch_edges(tri: np.ndarray) -> np.ndarray:
    """Edge lengths (|x-y|, |y-z|, |z-x|) for triangles of shape (m, 3, 2)."""
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    return np.stack(
        [
            np.hypot(*(x - y).T),
            np.hypot(*(y - z).T),
            np.hypot(*(z - x).T),
        ],
        axis=1,
    )


def batch_rho_sq(tri: np.ndarray) -> np.ndarray:
    e = batch_edges(tri)
    return (e**2).sum(axis=1)


def batch_area(tri: np.ndarray) -> np.ndarray:
    u = tri[:, 1] - tri[:, 0]
    v = tri[:, 2] - tri[:, 0]
    return 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def conditioning_ratio(tri: np.ndarray) -> np.ndarray:
    """area / rho^2, in (0, sqrt(3)/12]; zero for collinear triangles.

    The naive cyclic sum cancels from O(1/edge^2) terms down to a value
    proportional to this ratio squared, so float64 loses about
    (rho^2/area)^2 ulps.  Identity checks at 1e-10 need the ratio
    bounded away from zero; the non-negativity bound needs no filter.
    """
    return batch_area(tri) / np.maximum(batch_rho_sq(tri), 1e-300)


def batch_circumradius(tri: np.ndarray) -> np.ndarray:
    e = batch_edges(tri)
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    u = y - x
    v = z - x
    area = 0.5 * np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    prod = e[:, 0] * e[:, 1] * e[:, 2]
    scale = np.maximum(e.max(axis=1) ** 2, 1e-300)
    out = np.full(len(tri), np.inf)
    ok = area > COLLINEAR_REL_TOL * scale
    out[ok] = prod[ok] / (4.0 * area[ok])
    return out


def batch_cyclic_sum(
    tri: np.ndarray,
    R: float,
    profile: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """The cyclic sum for triangles of shape (m, 3, 2).

    ``profile`` replaces the regularized length |.|_R in the denominators;
    it receives plain edge lengths and must return positive values.
    """
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    total = np.zeros(len(tri))
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        ab = a - b
        ac = a - c
        lab = np.hypot(ab[:, 0], ab[:, 1])
        lac = np.hypot(ac[:, 0], ac[:, 1])
        if profile is not None:
            dab = profile(lab) ** 2
            dac = profile(lac) ** 2
        else:
            dab = np.maximum(lab, R) ** 2
            dac = np.maximum(lac, R) ** 2
        if R == 0.0 and profile is None and (np.any(dab == 0.0) or np.any(dac == 0.0)):
            raise DomainError("coincident points with R = 0")
        total += (ab * ac).sum(axis=1) / (dab * dac)
    return total


def cyclic_sum(t: Triangle, R: float) -> float:
    """Scalar wrapper around ``batch_cyclic_sum``."""
    if R < 0:
        raise DomainError(f"need R >= 0, got {R}")
    return float(batch_cyclic_sum(t.as_array()[np.newaxis], R)[0])


@dataclass
class SandwichReport:
    lower_ok: bool
    upper_ratio: float


def verify_sandwich(t: Triangle, R: float) -> SandwichReport:
    """Check non-negativity and measure the constant in the upper bound.

    upper_ratio is cyclic_sum * rho^2, i.e. the numerator of the
    three-term identity times rho^2 over the product of regularized
    squared edges; its supremum over triangles is the measured constant.
    """
    s = cyclic_sum(t, R)
    a, b, c = t.edges
    scale = sum(
        abs(v)
        for v in (
            1.0 / (max(a, R) ** 2 if max(a, R) > 0 else 1.0),
            1.0 / (max(b, R) ** 2 if max(b, R) > 0 else 1.0),
            1.0 / (max(c, R) ** 2 if max(c, R) > 0 else 1.0),
        )
    )
    lower_ok = s >= -1e-12 * max(scale, 1.0)
    return SandwichReport(lower_ok=lower_ok, upper_ratio=s * t.rho**2)


@dataclass
class CircumradiusReport:
    circumradius: float
    rho: float
    hardy_ok: bool  # 1/RR^2 <= 9/rho^2
    half_edge_ok: bool  # RR >= max edge / 2
    collinear: bool


def circumradius_bounds(t: Triangle) -> CircumradiusReport:
    rr = t.circumradius
    rho = t.rho
    if rho == 0.0:
        raise DomainError("degenerate triangle: all points coincide")
    collinear = np.isinf(rr)
    hardy_ok = True if collinear else (1.0 / rr**2) <= 9.0 / rho**2 + 1e-12
    half_edge_ok = rr >= max(t.edges) / 2.0 - 1e-12 * rho
    return CircumradiusReport(
        circumradius=rr,
        rho=rho,
        hardy_ok=hardy_ok,
        half_edge_ok=half_edge_ok,
        collinear=collinear,
    )


# ---------------------------------------------------------------------------
# triangle generators (vertices in [-2, 2]^2, plus edge-regime targeting)


def random_triangles(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, size=(m, 3, 2))


def _rescale_to_max_edge(tri: np.ndarray, target: np.ndarray) -> np.ndarray:
    e = batch_edges(tri).max(axis=1)
    centroid = tri.mean(axis=1, keepdims=True)
    factor = (target / np.maximum(e, 1e-300))[:, np.newaxis, np.newaxis]
    return centroid + (tri - centroid) * factor


def regime_triangles(
    rng: np.random.Generator, m: int, R: float, regime: str
) -> np.ndarray:
    """Triangles targeting one proof branch of the cyclic-sum inequality.

    regime: 'all_long' (every edge > R), 'all_short' (every edge < R),
    'two_short' (|x-y|, |y-z| <= R <= |x-z|), 'one_short'
    (|x-y| <= R <= |y-z|, |z-x|), or 'mixed' (uniform, no targeting).
    """
    if regime == "mixed":
        return random_triangles(rng, m)
    if regime == "all_long":
        out = np.empty((0, 3, 2))
        while len(out) < m:
            cand = random_triangles(rng, 2 * m)
            keep = batch_edges(cand).min(axis=1) > R
            out = np.concatenate([out, cand[keep]])
        return out[:m]
    if regime == "all_short":
        base = random_triangles(rng, m)
        target = R * rng.uniform(0.3, 0.95, size=m)
        return _rescale_to_max_edge(base, target)
    if regime == "two_short":
        out = np.empty((0, 3, 2))
        while len(out) < m:
            k = 2 * m
            x = rng.uniform(-2.0, 2.0, size=(k, 2))
            th1, th2 = rng.uniform(0, 2 * np.pi, size=(2, k))
            r1 = R * rng.uniform(0.5, 1.0, size=k)
            r2 = R * rng.uniform(0.5, 1.0, size=k)
            y = x + np.stack([r1 * np.cos(th1), r1 * np.sin(th1)], axis=1)
            z = y + np.stack([r2 * np.cos(th2), r2 * np.sin(th2)], axis=1)
            cand = np.stack([x, y, z], axis=1)
            e = batch_edges(cand)
            keep = (e[:, 0] <= R) & (e[:, 1] <= R) & (e[:, 2] >= R)
            out = np.concatenate([out, cand[keep]])
        return out[:m]
    if regime == "one_short":
        out = np.empty((0, 3, 2))
        while len(out) < m:
            k = 2 * m
            x = rng.uniform(-2.0, 2.0, size=(k, 2))
            th = rng.uniform(0, 2 * np.pi, size=k)
            r1 = R * rng.uniform(0.05, 1.0, size=k)
            y = x + np.stack([r1 * np.cos(th), r1 * np.sin(th)], axis=1)
            z = rng.uniform(-2.0, 2.0, size=(k, 2))
            cand = np.stack([x, y, z], axis=1)
            e = batch_edges(cand)
            keep = (e[:, 0] <= R) & (e[:, 1] >= R) & (e[:, 2] >= R)
            out = np.concatenate([out, cand[keep]])
        return out[:m]
    raise DomainError(f"unknown regime {regime!r}")


@dataclass
class ProbeReport:
    samples: int
    violations: int
    min_value: float
    worst_triangle: np.ndarray | None
    seed: int


def counterexample_probe(
    radial_profile: Callable[[np.ndarray], np.ndarray] | None,
    samples: int,
    seed: int,
    chunk: int = 100_000,
) -> ProbeReport:
    """Search random triangles for negative cyclic sums under a profile.

    ``radial_profile`` replaces |.|_R in the denominators; None means the
    regularized distance itself (with R drawn per chunk), for which no
    violation should ever appear.  A strictly convex radial profile such
    as r -> exp(r^2/2) breaks non-negativity.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    min_value = np.inf
    worst = None
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        tri = random_triangles(rng, m)
        if radial_profile is None:
            R = float(rng.uniform(0.0, 1.0))
            vals = batch_cyclic_sum(tri, max(R, 1e-9))
        else:
            vals = batch_cyclic_sum(tri, 0.0, profile=radial_profile)
        scale = batch_rho_sq(tri)
        bad = vals < -1e-12 / np.maximum(scale, 1e-12)
        violations += int(bad.sum())
        i = int(np.argmin(vals)) if m else 0
        if m and vals[i] < min_value:
            min_value = float(vals[i])
            if bad[i]:
                worst = tri[i].copy()
        done += m
    return ProbeReport(
        samples=samples,
        violations=violations,
        min_value=min_value if samples else np.inf,
        worst_triangle=worst,
        seed=seed,
    )
