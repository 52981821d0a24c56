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

Sums are evaluated from squared edge lengths: each edge vector is formed
once, and since max(|v|, R)^2 = max(|v|^2, R^2) the R path takes no
square root.  The naive sum cancels, so its round-off scales with
(rho^2/area)^2 (see ``conditioning_ratio``).  The batch kernels (cyclic
sum, rho^2, circumradius) run CHUNK triangles at a time, so their plane
temporaries stay in cache, and write each chunk's results into one output
array; every expression is evaluated as on the whole batch, so the
outputs do not depend on the chunking.

The regime generators decide their edge tests from squared lengths too,
comparing dx^2 + dy^2 with R^2; where the two lie within 1e-12 relative
of each other, ``hypot`` decides, so each decision is the one ``hypot``
gives.  They build and test candidates a chunk of coordinate planes at a
time, stop at the m-th accepted one and assemble only the triangles they
return.  Every round of candidates is still drawn whole, so the output
and the rng state after each call equal those of a generator that tests
every candidate with ``hypot`` (the reference in the tests), byte for
byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

COLLINEAR_REL_TOL = 1e-14
PROBE_CHUNK = 100_000  # triangles per probe draw; each chunk draws its own R
# triangles per chunk of the batch kernels' and the generators' plane
# arithmetic; chunk temporaries stay in cache and are reused by the allocator
CHUNK = 1 << 14


def _chunks(k: int):
    return (slice(lo, lo + CHUNK) for lo in range(0, k, CHUNK))


# ---------------------------------------------------------------------------
# vectorized core: triangles (m, 3, 2), vertices as (2, m) coordinate planes


def _sub(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p - q as contiguous planes; a plain ``-`` keeps the interleaved
    layout of ``tri``, which makes every later plane operation strided."""
    return np.subtract(p, q, order="C")


def _dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Dot products of vectors stored as (2, m) coordinate planes."""
    out = p[0] * q[0]
    out += p[1] * q[1]
    return out


def _area(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|u x v| / 2 for vectors stored as (2, m) coordinate planes."""
    return 0.5 * np.abs(u[0] * v[1] - u[1] * v[0])


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


def _by_chunk(kernel: Callable, tri: np.ndarray, outputs: int, *args) -> tuple:
    """Run ``kernel(chunk, *outs, *args)`` over CHUNK triangles at a time;
    the kernel writes its results into the chunk's slices of ``outputs``
    arrays allocated once for the whole batch."""
    outs = tuple(np.empty(len(tri)) for _ in range(outputs))
    for s in _chunks(len(tri)):
        kernel(tri[s], *(o[s] for o in outs), *args)
    return outs


def _rho_sq(tri: np.ndarray, out: np.ndarray) -> None:
    x, y, z = np.moveaxis(tri, 0, -1)
    la, lb, lc = (_dot(d, d) for d in map(_sub, (x, y, z), (y, z, x)))
    np.add(la + lb, lc, out=out)


def batch_rho_sq(tri: np.ndarray) -> np.ndarray:
    """rho^2 = |x-y|^2 + |y-z|^2 + |z-x|^2."""
    return _by_chunk(_rho_sq, tri, 1)[0]


def batch_area(tri: np.ndarray) -> np.ndarray:
    x, y, z = np.moveaxis(tri, 0, -1)
    return _area(_sub(y, x), _sub(z, x))


def conditioning_ratio(tri: np.ndarray) -> np.ndarray:
    """area / rho^2, in (0, sqrt(3)/12]; zero for collinear triangles.

    The naive cyclic sum cancels from O(1/edge^2) terms down to a value
    proportional to this ratio squared, so float64 loses about
    (rho^2/area)^2 ulps.  Identity checks at 1e-10 need the ratio
    bounded away from zero; the non-negativity bound needs no filter.
    """
    return batch_area(tri) / np.maximum(batch_rho_sq(tri), 1e-300)


def _circumradius(tri: np.ndarray, out: np.ndarray) -> None:
    x, y, z = np.moveaxis(tri, 0, -1)
    u, v = _sub(y, x), _sub(z, x)
    area, uu, vv = _area(u, v), _dot(u, u), _dot(v, v)
    w = np.subtract(z, y, out=u)
    ww = _dot(w, w)
    del u, v, w
    scale = np.maximum(np.maximum(uu, vv), np.maximum(ww, 1e-300))
    ok = area > COLLINEAR_REL_TOL * scale
    # two roots keep the product of three squared lengths in range
    rr = np.sqrt(uu * vv) * np.sqrt(ww)
    out.fill(np.inf)
    np.divide(rr, 4.0 * area, out=out, where=ok)


def batch_circumradius(tri: np.ndarray) -> np.ndarray:
    """|x-y| |y-z| |z-x| / (4 area); inf where the area is at most
    COLLINEAR_REL_TOL times the longest squared edge."""
    return _by_chunk(_circumradius, tri, 1)[0]


def _cyclic_sum(
    tri: np.ndarray,
    vals: np.ndarray,
    rho_sq: np.ndarray,
    R: float,
    profile: Callable[[np.ndarray], np.ndarray] | None,
) -> None:
    x, y, z = np.moveaxis(tri, 0, -1)
    a, c = _sub(x, y), _sub(z, x)
    # vertex numerators, negated: (x-y).(x-z) = -a.c, (y-z).(y-x) = -b.a,
    # (z-x).(z-y) = -c.b; each edge's squared length once its dots are done
    num_x, b = _dot(a, c), _sub(y, z)
    num_y, la = _dot(b, a), _dot(a, a)
    del a
    num_z, lc, lb = _dot(c, b), _dot(c, c), _dot(b, b)
    del b, c
    np.add(la + lb, lc, out=rho_sq)
    if profile is not None:
        la, lb, lc = (profile(np.sqrt(s)) ** 2 for s in (la, lb, lc))
    elif R == 0.0 and not (la.all() and lb.all() and lc.all()):
        raise DomainError("coincident points with R = 0")
    else:
        la, lb, lc = (np.maximum(s, R * R, out=s) for s in (la, lb, lc))
    num_x /= la * lc
    num_y /= lb * la
    num_z /= lc * lb
    np.negative(num_x + num_y + num_z, out=vals)


def batch_cyclic_sum(
    tri: np.ndarray,
    R: float,
    profile: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic sum for triangles of shape (m, 3, 2), and rho^2, as
    ``batch_rho_sq``, each edge vector formed once.

    ``profile`` replaces the regularized length |.|_R in the denominators;
    it receives plain edge lengths, one chunk of them at a time, so it must
    act elementwise, and must return positive values.
    """
    if not R >= 0:
        raise DomainError(f"need R >= 0, got {R}")
    return _by_chunk(_cyclic_sum, tri, 2, R, profile)


# ---------------------------------------------------------------------------
# triangle generators (vertices in [-2, 2]^2, plus edge-regime targeting)

# Edge tests compare dx^2 + dy^2 with R^2.  Both carry a few ulps of
# relative round-off and hypot(dx, dy) one, so outside this relative band
# about R^2 the decision is the one hypot gives; inside it, hypot
# decides.  Squared lengths below SQUARED_FLOOR may have lost relative
# precision to underflow, so hypot decides all where R^2 lies below it or
# above its inverse.
SQUARED_BAND = 1e-12
SQUARED_FLOOR = 1e-290


def random_triangles(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.uniform(-2.0, 2.0, size=(m, 3, 2))


def compare_edge(
    d: np.ndarray, R: float, op: Callable[[np.ndarray, float], np.ndarray]
) -> np.ndarray:
    """op(hypot(d), R) for edge vectors stored as (2, k) coordinate planes,
    decided from squared lengths (``op`` is a numpy comparison ufunc)."""
    R2 = R * R
    if not (R > 0.0 and SQUARED_FLOOR <= R2 <= 1.0 / SQUARED_FLOOR):
        return op(np.hypot(d[0], d[1]), R)
    sq = _dot(d, d)
    out = op(sq, R2)
    sq -= R2
    near = np.flatnonzero(np.abs(sq, out=sq) <= SQUARED_BAND * R2)
    out[near] = op(np.hypot(d[0, near], d[1, near]), R)
    return out


def _rescale_to_max_edge(tri: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Scale each triangle about its centroid to the longest edge ``target``."""
    out = np.empty(tri.shape)
    rows = out.reshape(len(tri), 6).T
    for s in _chunks(len(tri)):
        x, y, z = np.moveaxis(tri[s], 0, -1)
        e = np.max([np.hypot(*_sub(p, q)) for p, q in ((x, y), (y, z), (z, x))], axis=0)
        centroid = (x + y + z) / 3.0
        factor = target[s] / np.maximum(e, 1e-300)
        for dst, p, c in zip(rows, (*x, *y, *z), (*centroid,) * 3):
            dst[s] = c + (p - c) * factor
    return out


def _step(p: np.ndarray, r: np.ndarray, th: np.ndarray) -> np.ndarray:
    """p + r (cos th, sin th) for points stored as (2, k) coordinate planes."""
    q = np.empty(p.shape)
    np.add(p[0], r * np.cos(th), out=q[0])
    np.add(p[1], r * np.sin(th), out=q[1])
    return q


# Rejection samplers: (rng, k, R) draws a round of k candidates and yields
# them in draw order as vertex planes, a chunk at a time.  The whole round
# is drawn before the first chunk, so the rng advances the same however
# many chunks are taken.


def _all_long(rng, k, R):
    cand = random_triangles(rng, k)
    for s in _chunks(k):
        yield np.moveaxis(cand[s], 0, -1)


def _two_short(rng, k, R):
    x = rng.uniform(-2.0, 2.0, size=(k, 2)).T
    th1, th2 = rng.uniform(0, 2 * np.pi, size=(2, k))
    r1 = R * rng.uniform(0.5, 1.0, size=k)
    r2 = R * rng.uniform(0.5, 1.0, size=k)
    for s in _chunks(k):
        y = _step(x[:, s], r1[s], th1[s])
        yield x[:, s], y, _step(y, r2[s], th2[s])


def _one_short(rng, k, R):
    x = rng.uniform(-2.0, 2.0, size=(k, 2)).T
    th = rng.uniform(0, 2 * np.pi, size=k)
    r1 = R * rng.uniform(0.05, 1.0, size=k)
    z = rng.uniform(-2.0, 2.0, size=(k, 2)).T
    for s in _chunks(k):
        yield x[:, s], _step(x[:, s], r1[s], th[s]), z[:, s]


# regime -> (sampler, comparisons of |x-y|, |y-z|, |z-x| with R)
_REJECTION = {
    "all_long": (_all_long, (np.greater, np.greater, np.greater)),
    "two_short": (_two_short, (np.less_equal, np.less_equal, np.greater_equal)),
    "one_short": (_one_short, (np.less_equal, np.greater_equal, np.greater_equal)),
}


def regime_triangles(
    rng: np.random.Generator, m: int, R: float, regime: str
) -> np.ndarray:
    """Triangles targeting one proof branch of the cyclic-sum inequality.

    regime: 'all_long' (every edge > R), 'all_short' (every edge < R),
    'two_short' (|x-y|, |y-z| <= R <= |x-z|), 'one_short'
    (|x-y| <= R <= |y-z|, |z-x|), or 'mixed' (uniform, no targeting).
    The rejection samplers draw rounds of 2m candidates until m are
    accepted and return the first m accepted, in draw order.  Each round
    is drawn whole, but its candidates are built and tested a chunk at a
    time, only until the m-th is accepted.  R < 0 and NaN are rejected: no candidate
    could have an edge <= R, so 'two_short' and 'one_short' would never return.
    """
    if not R >= 0:
        raise DomainError(f"need R >= 0, got {R}")
    if regime == "mixed":
        return random_triangles(rng, m)
    if regime == "all_short":
        base = random_triangles(rng, m)
        target = R * rng.uniform(0.3, 0.95, size=m)
        return _rescale_to_max_edge(base, target)
    if regime not in _REJECTION:
        raise DomainError(f"unknown regime {regime!r}")
    sampler, ops = _REJECTION[regime]
    out = np.empty((m, 3, 2))
    rows = out.reshape(m, 6).T
    have = 0
    while have < m:
        for x, y, z in sampler(rng, 2 * m, R):
            keep = compare_edge(_sub(x, y), R, ops[0])
            keep &= compare_edge(_sub(y, z), R, ops[1])
            keep &= compare_edge(_sub(z, x), R, ops[2])
            idx = np.flatnonzero(keep)[: m - have]
            for dst, src in zip(rows, (*x, *y, *z)):
                dst[have : have + len(idx)] = src[idx]
            have += len(idx)
            if have == m:
                break
    return out


@dataclass
class ProbeReport:
    samples: int
    violations: int
    min_value: float
    worst_triangle: np.ndarray | None


def counterexample_probe(
    radial_profile: Callable[[np.ndarray], np.ndarray] | None,
    samples: int,
    seed: int,
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
    for done in range(0, samples, PROBE_CHUNK):
        tri = random_triangles(rng, min(PROBE_CHUNK, samples - done))
        R = max(float(rng.uniform(0.0, 1.0)), 1e-9) if radial_profile is None else 0.0
        vals, scale = batch_cyclic_sum(tri, R, radial_profile)
        bad = vals < -1e-12 / np.maximum(scale, 1e-12)
        violations += int(bad.sum())
        i = int(np.argmin(vals))
        if vals[i] < min_value:
            min_value = float(vals[i])
            if bad[i]:
                worst = tri[i].copy()
    return ProbeReport(
        samples=samples,
        violations=violations,
        min_value=min_value,
        worst_triangle=worst,
    )
