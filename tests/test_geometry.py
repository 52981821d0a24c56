import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avfield import cli
from avfield.errors import DomainError
from avfield.geometry import (
    CHUNK,
    COLLINEAR_REL_TOL,
    batch_area,
    batch_circumradius,
    batch_cyclic_sum,
    batch_edges,
    batch_rho_sq,
    _rescale_to_max_edge,
    compare_edge,
    conditioning_ratio,
    counterexample_probe,
    random_triangles,
    regime_triangles,
)


def one(x, y, z):
    """A single triangle as a (1, 3, 2) batch."""
    return np.array([[x, y, z]], dtype=float)


EQUILATERAL = one([0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0])


def test_equilateral_all_long():
    # side 1, R = 0.1: every edge is long, sum = 1/(2 RR^2) with RR = 3^{-1/2}
    assert batch_cyclic_sum(EQUILATERAL, 0.1)[0][0] == pytest.approx(1.5, abs=1e-12)


def test_equilateral_all_short():
    small = one([0.0, 0.0], [0.1, 0.0], [0.05, 0.1 * np.sqrt(3.0) / 2.0])
    # rho^2 = 3 * 0.01, sum = rho^2 / (2 R^4) with R = 1
    assert batch_cyclic_sum(small, 1.0)[0][0] == pytest.approx(0.015, abs=1e-12)


def test_pair_collapse_regularized():
    val = batch_cyclic_sum(one([0.3, 0.4], [0.3, 0.4], [1.0, 0.0]), 0.5)[0][0]
    assert np.isfinite(val)
    assert val >= 0.0


def test_coincident_points_at_zero_radius():
    with pytest.raises(DomainError):
        batch_cyclic_sum(one([0.0, 0.0], [0.0, 0.0], [1.0, 0.0]), 0.0)
    with pytest.raises(DomainError):
        batch_cyclic_sum(EQUILATERAL, -0.1)


def test_circumradius_examples():
    for t, rr_want, rho_sq_want in [
        (EQUILATERAL, 1.0 / np.sqrt(3.0), 3.0),  # sharp: 1/RR^2 = 3 = 9/rho^2
        (one([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]), np.sqrt(2.0) / 2.0, 4.0),  # right
    ]:
        rr, rho_sq = batch_circumradius(t)[0], batch_rho_sq(t)[0]
        assert rr == pytest.approx(rr_want, abs=1e-12)
        assert rho_sq == pytest.approx(rho_sq_want, abs=1e-12)
        assert 1.0 / rr**2 <= 9.0 / rho_sq + 1e-12
        assert rr >= batch_edges(t).max() / 2.0 - 1e-12


def test_collinear_flagged_not_rejected():
    t = one([0.0, 0.0], [1.0, 0.0], [2.0, 0.0])
    rr = batch_circumradius(t)[0]
    assert np.isinf(rr)
    assert 1.0 / rr**2 == 0.0  # the bound 1/RR^2 <= 9/rho^2 holds trivially


def test_verify_sandwich_equilateral():
    s = batch_cyclic_sum(EQUILATERAL, 0.1)[0][0]
    assert s >= 0.0
    assert s * batch_rho_sq(EQUILATERAL)[0] == pytest.approx(4.5, abs=1e-12)  # the sharp value


coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(
    st.tuples(coords, coords),
    st.tuples(coords, coords),
    st.tuples(coords, coords),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=-np.pi, max_value=np.pi),
    st.tuples(coords, coords),
)
@settings(max_examples=200, deadline=None)
def test_euclidean_and_relabeling_invariance(p, q, r, R, angle, shift):
    t = one(p, q, r)
    base = batch_cyclic_sum(t, R)[0][0]
    assert base >= -1e-10 * (1.0 + 1.0 / R**4)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    moved = t @ rot.T + np.asarray(shift)
    assert batch_cyclic_sum(moved, R)[0][0] == pytest.approx(base, rel=1e-9, abs=1e-9)
    relabeled = t[:, [2, 0, 1]]
    assert batch_cyclic_sum(relabeled, R)[0][0] == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_all_long_closed_form():
    rng = np.random.default_rng(5)
    tri = regime_triangles(rng, 5000, 0.1, "all_long")
    # the identity is exact; float64 evaluation of the naive sum loses
    # digits quadratically in rho^2/area, so keep conditioned triangles
    tri = tri[conditioning_ratio(tri) > 5e-3]
    vals = batch_cyclic_sum(tri, 0.1)[0]
    rr = batch_circumradius(tri)
    assert len(tri) > 4000
    assert np.abs(vals * 2.0 * rr**2 - 1.0).max() < 1e-10


def test_all_short_closed_form():
    rng = np.random.default_rng(6)
    R = 0.3
    tri = regime_triangles(rng, 5000, R, "all_short")
    assert (batch_edges(tri).max(axis=1) <= R).all()
    vals = batch_cyclic_sum(tri, R)[0]
    pred = batch_rho_sq(tri) / (2.0 * R**4)
    assert np.abs(vals * 2.0 * R**4 / batch_rho_sq(tri) - 1.0).max() < 1e-10
    assert np.allclose(vals, pred)


def test_two_short_closed_form():
    rng = np.random.default_rng(7)
    R = 0.3
    tri = regime_triangles(rng, 5000, R, "two_short")
    e = batch_edges(tri)
    assert ((e[:, 0] <= R) & (e[:, 1] <= R) & (e[:, 2] >= R)).all()
    vals = batch_cyclic_sum(tri, R)[0]
    # common-denominator identity: numerator |x-z|^2 (R^2 + (y-z).(y-x))
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    num = (e[:, 2] ** 2) * (R**2 + ((y - z) * (y - x)).sum(axis=1))
    pred = num / (R**4 * e[:, 2] ** 2)
    assert np.abs(vals - pred).max() < 1e-10 * np.abs(pred).max()


def test_one_short_regime_nonnegative():
    rng = np.random.default_rng(8)
    tri = regime_triangles(rng, 5000, 0.3, "one_short")
    assert batch_cyclic_sum(tri, 0.3)[0].min() >= -1e-12


def test_unknown_regime():
    with pytest.raises(DomainError):
        regime_triangles(np.random.default_rng(0), 10, 0.3, "nope")


def test_probe_regularized_clean():
    rep = counterexample_probe(None, 50_000, seed=11)
    assert rep.violations == 0
    assert rep.worst_triangle is None


def test_probe_convex_profile_violates():
    rep = counterexample_probe(lambda r: np.exp(r**2 / 2.0), 50_000, seed=12)
    assert rep.violations > 0
    assert rep.min_value < 0.0
    assert rep.worst_triangle is not None
    # the recorded worst case replays to the same negative value
    replay = batch_cyclic_sum(
        rep.worst_triangle[np.newaxis], 0.0, profile=lambda r: np.exp(r**2 / 2.0)
    )[0][0]
    assert replay == pytest.approx(rep.min_value)


def test_probe_empty_run():
    rep = counterexample_probe(None, 0, seed=0)
    assert rep.samples == 0 and rep.violations == 0


def test_probe_deterministic():
    a = counterexample_probe(None, 10_000, seed=3)
    b = counterexample_probe(None, 10_000, seed=3)
    assert a.min_value == b.min_value


def test_triangle_rho_zero_iff_coincident():
    assert batch_rho_sq(one([1.0, 2.0], [1.0, 2.0], [1.0, 2.0]))[0] == 0.0
    assert batch_rho_sq(EQUILATERAL)[0] > 0.0


def test_circumradius_at_least_half_longest_edge():
    rng = np.random.default_rng(13)
    tri = random_triangles(rng, 10_000)
    rr = batch_circumradius(tri)
    emax = batch_edges(tri).max(axis=1)
    assert (rr >= emax / 2.0 - 1e-12).all()


# ---------------------------------------------------------------------------
# the squared-length core against independent formulas

REGIMES = ("mixed", "all_long", "all_short", "two_short", "one_short")


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_reject_negative_radius(regime):
    # 'two_short' and 'one_short' used to draw rounds forever: no edge is <= R
    with pytest.raises(DomainError, match="R >= 0"):
        regime_triangles(np.random.default_rng(0), 10, -0.3, regime)


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_reject_nan_radius(regime):
    # every comparison with NaN is false, so 'all_long' never accepted one
    with pytest.raises(DomainError, match="got nan"):
        regime_triangles(np.random.default_rng(0), 10, np.nan, regime)


def convex_profile(r):
    return np.exp(r**2 / 2.0)


def hypot_cyclic_sum(tri, R, profile=None):
    """The per-vertex formula with hypot edge lengths, and the sum of the
    absolute values of its terms (the scale of its round-off)."""
    regularized = profile or (lambda r: np.maximum(r, R))
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    total = np.zeros(len(tri))
    size = np.zeros(len(tri))
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        ab, ac = a - b, a - c
        den = regularized(np.hypot(*ab.T)) ** 2 * regularized(np.hypot(*ac.T)) ** 2
        term = (ab * ac).sum(axis=1) / den
        total += term
        size += np.abs(term)
    return total, size


@pytest.mark.parametrize("profile", [None, convex_profile], ids=["R", "profile"])
@pytest.mark.parametrize("regime", REGIMES)
def test_cyclic_sum_matches_hypot_formula(regime, profile):
    R = 0.3
    tri = regime_triangles(np.random.default_rng(21), 20_000, R, regime)
    want, size = hypot_cyclic_sum(tri, R, profile)
    got = batch_cyclic_sum(tri, R, profile=profile)[0]
    assert np.all(np.abs(got - want) <= 1e-12 * size)


@pytest.mark.parametrize("regime", REGIMES)
def test_rho_sq_and_circumradius_match_edge_formulas(regime):
    tri = regime_triangles(np.random.default_rng(22), 20_000, 0.3, regime)
    e = batch_edges(tri)
    want = (e**2).sum(axis=1)
    assert np.all(np.abs(batch_rho_sq(tri) - want) <= 1e-14 * want)
    good = conditioning_ratio(tri) > 5e-3
    assert good.sum() > 10_000
    want = e.prod(axis=1)[good] / (4.0 * batch_area(tri)[good])
    assert np.all(np.abs(batch_circumradius(tri)[good] - want) <= 1e-13 * want)


def test_circumradius_infinite_on_collinear_triangles():
    rng = np.random.default_rng(23)
    # dyadic points and steps: every coordinate and difference is exact
    p = np.round(64 * rng.uniform(-1.0, 1.0, size=(1000, 2))) / 64
    k = np.round(4 * rng.uniform(-2.0, 2.0, size=(1000, 3)))
    tri = p[:, None, :] + k[:, :, None] * np.array([0.25, -0.5])
    assert (batch_area(tri) == 0.0).all()
    assert np.isinf(batch_circumradius(tri)).all()


def test_collinearity_uses_longest_squared_edge():
    # area 3e-14 lies between 1e-14 * max(ab, bc, ca) = 2e-14, a rule from
    # products of two edge lengths, and 1e-14 * max(edge)^2 = 4e-14, the
    # rule batch_circumradius applies
    assert np.isinf(batch_circumradius(one([0.0, 0.0], [1.0, 0.0], [2.0, 6e-14]))[0])


def test_batch_domain_errors():
    tri = np.array([[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(DomainError):
        batch_cyclic_sum(tri, 0.0)
    with pytest.raises(DomainError):
        batch_cyclic_sum(random_triangles(np.random.default_rng(0), 4), -0.1)
    with pytest.raises(DomainError, match="got nan"):
        batch_cyclic_sum(tri, np.nan)
    assert np.isfinite(batch_cyclic_sum(tri, 0.1)[0]).all()


# ---------------------------------------------------------------------------
# pinned samples: a later edit must not silently change what the suites draw

TRIANGLE_SHA256 = {
    "all_long": "abbc43fecdcad350532679ca185cfcb4a48bc7147204976ac0ffdc80874c577c",
    "all_short": "312fe3e0c25f438670808a868bf2b509f1a78e4dbe6210ad0108561573212b73",
    "two_short": "929ec7411fb64d96ec5d6e39c1d17411597eb1cefeb16e25496d463cfa5a55db",
    "one_short": "4f29920cd8a5b5043511bc34ab816d85e86b3239ea2d71007a460af1ab38a043",
    "mixed": "554fe48cc9ac0bf5e6e8405a65e25f0365306e37cdfe979fa95cd8ab6e21848d",
}


def sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_pinned(regime):
    tri = regime_triangles(np.random.default_rng(0), 2000, 0.3, regime)
    assert tri.shape == (2000, 3, 2)
    assert sha256(tri) == TRIANGLE_SHA256[regime]


def test_random_triangles_pinned():
    tri = random_triangles(np.random.default_rng(0), 2000)
    assert sha256(tri) == TRIANGLE_SHA256["mixed"]


# `avfield verify geometry --samples 100000 --seed 42` as recorded from the
# hypot-based evaluation: counts and R exact, ratios to 1e-12 relative,
# minima (near-zero cancellations) to 1e-14 absolute
VERIFY_REFERENCE = {
    "regularized_nonnegative": (0, 3.864963904476326e-11),
    "convex_profile_violates": (59124, -0.10910473304628866),
    "measured_constant": 4.499975518726756,
    "regimes": {
        "all_long": (0.1612827548369358, 4.499975518726756, 9.711759174635404e-11),
        "all_short": (0.3969083977767591, 3.587052513163238, 0.4337763697359206),
        "two_short": (0.38383874695490305, 4.383393193902464, 0.198386555698427),
        "one_short": (0.5338300617608112, 4.449403266402327, 0.00036635783940255906),
        "mixed": (0.3561748113789075, 4.4998731774357426, 4.356426330787144e-11),
    },
}


def test_verify_geometry_report_pinned(tmp_path):
    out = tmp_path / "geometry.json"
    assert cli.main(
        ["verify", "geometry", "--samples", "100000", "--seed", "42", "--out", str(out)]
    ) == cli.EXIT_OK
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    for name in ("regularized_nonnegative", "convex_profile_violates"):
        violations, min_value = VERIFY_REFERENCE[name]
        assert checks[name]["violations"] == violations
        assert checks[name]["min_value"] == pytest.approx(min_value, rel=0, abs=1e-14)
    sandwich = checks["regime_sandwich"]
    assert sandwich["measured_constant"] == pytest.approx(
        VERIFY_REFERENCE["measured_constant"], rel=1e-12, abs=0
    )
    assert set(sandwich["regimes"]) == set(VERIFY_REFERENCE["regimes"])
    for regime, (R, ratio, min_sum) in VERIFY_REFERENCE["regimes"].items():
        got = sandwich["regimes"][regime]
        assert got["R"] == R
        assert got["max_upper_ratio"] == pytest.approx(ratio, rel=1e-12, abs=0)
        assert got["min_cyclic_sum"] == pytest.approx(min_sum, rel=0, abs=1e-14)


# ---------------------------------------------------------------------------
# the generators against their hypot-based form: every edge test decided by
# np.hypot on (k, 2) views and every accepted candidate assembled, then cut


def hypot_edges(tri):
    x, y, z = tri[:, 0], tri[:, 1], tri[:, 2]
    return np.stack([np.hypot(*(x - y).T), np.hypot(*(y - z).T), np.hypot(*(z - x).T)], axis=1)


def oracle_rescale_to_max_edge(tri, target):
    e = hypot_edges(tri).max(axis=1)
    centroid = tri.mean(axis=1, keepdims=True)
    factor = (target / np.maximum(e, 1e-300))[:, np.newaxis, np.newaxis]
    return centroid + (tri - centroid) * factor


def oracle_regime_triangles(rng, m, R, regime):
    """(triangles, rounds of candidates drawn)."""
    if regime == "mixed":
        return random_triangles(rng, m), 0
    if regime == "all_short":
        base = random_triangles(rng, m)
        target = R * rng.uniform(0.3, 0.95, size=m)
        return oracle_rescale_to_max_edge(base, target), 0
    out, rounds = np.empty((0, 3, 2)), 0
    while len(out) < m:
        rounds += 1
        k = 2 * m
        if regime == "all_long":
            cand = random_triangles(rng, k)
            keep = hypot_edges(cand).min(axis=1) > R
        elif regime == "two_short":
            x = rng.uniform(-2.0, 2.0, size=(k, 2))
            th1, th2 = rng.uniform(0, 2 * np.pi, size=(2, k))
            r1 = R * rng.uniform(0.5, 1.0, size=k)
            r2 = R * rng.uniform(0.5, 1.0, size=k)
            y = x + np.stack([r1 * np.cos(th1), r1 * np.sin(th1)], axis=1)
            z = y + np.stack([r2 * np.cos(th2), r2 * np.sin(th2)], axis=1)
            cand = np.stack([x, y, z], axis=1)
            e = hypot_edges(cand)
            keep = (e[:, 0] <= R) & (e[:, 1] <= R) & (e[:, 2] >= R)
        else:
            x = rng.uniform(-2.0, 2.0, size=(k, 2))
            th = rng.uniform(0, 2 * np.pi, size=k)
            r1 = R * rng.uniform(0.05, 1.0, size=k)
            y = x + np.stack([r1 * np.cos(th), r1 * np.sin(th)], axis=1)
            z = rng.uniform(-2.0, 2.0, size=(k, 2))
            cand = np.stack([x, y, z], axis=1)
            e = hypot_edges(cand)
            keep = (e[:, 0] <= R) & (e[:, 1] >= R) & (e[:, 2] >= R)
        out = np.concatenate([out, cand[keep]])
    return out[:m], rounds


def assert_same_draws(m, R, regime, seed):
    """regime_triangles and the oracle give the same bytes and leave the
    rng in the same state; returns the oracle's rounds."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = regime_triangles(rng, m, R, regime)
    want, rounds = oracle_regime_triangles(oracle_rng, m, R, regime)
    assert got.shape == (m, 3, 2) and got.dtype == np.float64
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert rng.random() == oracle_rng.random()
    return rounds


@pytest.mark.parametrize("m", [1, 2, 5, 2000])
@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_match_hypot_oracle(regime, m):
    rounds = []
    for seed in range(10):
        R = float(np.random.default_rng([seed, m]).uniform(0.01, 3.0))
        rounds.append(assert_same_draws(m, R, regime, seed))
    if regime in ("all_long", "one_short"):
        assert max(rounds) >= 2  # a later round and the cut of its surplus


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_many_chunks_match_hypot_oracle(regime):
    # 2m candidates span several chunks of the plane arithmetic
    assert_same_draws(50_000, 0.3, regime, seed=31)


@pytest.mark.parametrize("regime", REGIMES)
def test_regime_triangles_empty(regime):
    assert_same_draws(0, 0.3, regime, seed=0)  # a (0, 3, 2) array


@pytest.mark.parametrize("op", [np.greater, np.less_equal, np.greater_equal])
def test_compare_edge_at_the_seam(op):
    rng = np.random.default_rng(40)
    R = rng.uniform(0.01, 3.0, size=1000)
    # edges just inside, at and just outside R, along an axis (hypot = the
    # length exactly) and at random angles
    length = np.concatenate([np.nextafter(R, 0.0), R, np.nextafter(R, np.inf)])
    angle = rng.uniform(0.0, 2.0 * np.pi, size=length.size)
    for d in (np.stack([length, np.zeros_like(length)]),
              np.stack([length * np.cos(angle), length * np.sin(angle)])):
        for i, r in enumerate(np.tile(R, 3)):
            want = op(np.hypot(d[0, i], d[1, i]), r)
            assert compare_edge(d[:, i : i + 1], float(r), op)[0] == want
    # the squared lengths alone get some of these wrong
    d = np.stack([length * np.cos(angle), length * np.sin(angle)])
    R3 = np.tile(R, 3)
    assert (op(d[0] ** 2 + d[1] ** 2, R3**2) != op(np.hypot(*d), R3)).any()


def test_compare_edge_where_sqrt_and_hypot_round_apart():
    rng = np.random.default_rng(41)
    d = rng.uniform(-1.0, 1.0, size=(2, 2000))
    h = np.hypot(*d)
    apart = np.flatnonzero(np.sqrt(d[0] ** 2 + d[1] ** 2) != h)
    assert apart.size > 0
    for i in apart:
        for R in (h[i], np.sqrt(d[0, i] ** 2 + d[1, i] ** 2)):
            for op in (np.greater, np.less_equal, np.greater_equal):
                assert compare_edge(d[:, i : i + 1], float(R), op)[0] == op(h[i], R)


@pytest.mark.parametrize("R", [0.0, -0.3, 1e-160, 1e160])
def test_compare_edge_outside_the_squared_range(R):
    # R^2 underflows, overflows or R is not positive: hypot decides all
    d = np.array([[1e-170, 0.5, 1e159], [0.0, 0.0, 1e159]])
    for op in (np.greater, np.less_equal, np.greater_equal):
        assert (compare_edge(d, R, op) == op(np.hypot(*d), R)).all()


def test_rescale_matches_oracle_on_near_ties():
    rng = np.random.default_rng(42)
    s3 = np.sqrt(3.0) / 2.0
    shapes = [
        [[0.0, 0.0], [1.0, 0.0], [0.5, s3]],  # equilateral
        [[0.0, 0.0], [0.4, 0.0], [0.2, 1.3]],  # isosceles, two longest equal
        [[0.0, 0.0], [0.4, 0.0], [0.2 + 1e-13, 1.3]],  # nearly so
    ]
    angle = rng.uniform(0.0, 2.0 * np.pi, size=200)
    rot = np.stack([np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)], axis=1)
    for shape in np.array(shapes):
        # rotated, scaled and shifted copies in every vertex order
        tri = np.einsum("kij,vj->kvi", rot.reshape(-1, 2, 2), shape)
        tri = tri * rng.uniform(0.1, 1.0, size=(200, 1, 1)) + rng.uniform(-1, 1, size=(200, 1, 2))
        tri = np.concatenate([tri, tri[:, ::-1], np.roll(tri, 1, axis=1)])
        target = rng.uniform(0.01, 1.0, size=len(tri))
        got = _rescale_to_max_edge(tri, target)
        assert got.tobytes() == oracle_rescale_to_max_edge(tri, target).tobytes()


# ---------------------------------------------------------------------------
# the batch kernels run CHUNK triangles at a time; these oracles are their
# whole-array form, the same expressions in the same order, so every output
# must be the same bytes whatever the chunk boundaries


def plane_dot(p, q):
    return p[0] * q[0] + p[1] * q[1]


def oracle_rho_sq(tri):
    x, y, z = np.moveaxis(tri, 0, -1)
    la, lb, lc = (plane_dot(p - q, p - q) for p, q in ((x, y), (y, z), (z, x)))
    return (la + lb) + lc


def oracle_circumradius(tri):
    x, y, z = np.moveaxis(tri, 0, -1)
    u, v, w = y - x, z - x, z - y
    area = 0.5 * np.abs(u[0] * v[1] - u[1] * v[0])
    uu, vv, ww = plane_dot(u, u), plane_dot(v, v), plane_dot(w, w)
    scale = np.maximum(np.maximum(uu, vv), np.maximum(ww, 1e-300))
    ok = area > COLLINEAR_REL_TOL * scale
    rr = np.sqrt(uu * vv) * np.sqrt(ww)
    return np.divide(rr, 4.0 * area, out=np.full(len(tri), np.inf), where=ok)


def oracle_cyclic_sum(tri, R, profile=None):
    x, y, z = np.moveaxis(tri, 0, -1)
    a, b, c = x - y, y - z, z - x
    la, lb, lc = plane_dot(a, a), plane_dot(b, b), plane_dot(c, c)
    if profile is not None:
        la, lb, lc = (profile(np.sqrt(s)) ** 2 for s in (la, lb, lc))
    else:
        la, lb, lc = (np.maximum(s, R * R) for s in (la, lb, lc))
    num_x = plane_dot(a, c) / (la * lc)
    num_y = plane_dot(b, a) / (lb * la)
    num_z = plane_dot(c, b) / (lc * lb)
    return -(num_x + num_y + num_z)


def chunk_boundary_triangles(m):
    tri = random_triangles(np.random.default_rng([24, m]), m)
    # coincident points, then near-collinear triangles, at each boundary
    for lo in range(CHUNK - 2, m, CHUNK):
        tri[lo : lo + 2, 2] = tri[lo : lo + 2, 0]
        tri[lo + 2 : lo + 4, 2] = 2.0 * tri[lo + 2 : lo + 4, 1] - tri[lo + 2 : lo + 4, 0]
    return tri


@pytest.mark.parametrize("m", [0, 1, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 3])
def test_batch_kernels_match_whole_array_oracles(m):
    tri = chunk_boundary_triangles(m)
    got = batch_circumradius(tri)
    assert got.shape == (m,) and got.dtype == np.float64
    assert got.tobytes() == oracle_circumradius(tri).tobytes()
    assert batch_rho_sq(tri).tobytes() == oracle_rho_sq(tri).tobytes()
    assert batch_cyclic_sum(tri, 0.3)[0].tobytes() == oracle_cyclic_sum(tri, 0.3).tobytes()
    want = oracle_cyclic_sum(tri, 0.0, convex_profile)
    assert batch_cyclic_sum(tri, 0.0, convex_profile)[0].tobytes() == want.tobytes()
    if m > CHUNK:
        assert np.isinf(got[CHUNK - 2 : CHUNK]).all()  # the planted coincident points


@pytest.mark.parametrize("m", [1, CHUNK + 1])
def test_cyclic_sum_and_rho_sq_match_the_single_kernels(m):
    # the sum and rho^2 come from one pass; they are the bytes of the oracle
    # and of the rho^2 kernel
    tri = chunk_boundary_triangles(m)
    vals, rho_sq = batch_cyclic_sum(tri, 0.3)
    assert vals.tobytes() == oracle_cyclic_sum(tri, 0.3).tobytes()
    assert rho_sq.tobytes() == batch_rho_sq(tri).tobytes()


def test_coincident_points_in_a_later_chunk_raise():
    tri = random_triangles(np.random.default_rng(25), CHUNK + 10)
    tri[CHUNK + 5, 1] = tri[CHUNK + 5, 0]
    assert np.isfinite(batch_cyclic_sum(tri[:CHUNK], 0.0)[0]).all()
    with pytest.raises(DomainError, match="coincident"):
        batch_cyclic_sum(tri, 0.0)
