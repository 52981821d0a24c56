import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from avfield.errors import DomainError
from avfield.functional import FunctionalParams, StateFields, energy, energy_and_gradient
from avfield.grid import GridSpec, WaveFunction, inner, padded_rfft
from avfield.kernels import (
    SmearedCoulomb,
    TrapPotential,
    eta0,
    kernels_for,
    lp_norm_grad_w,
    restrict,
    sample_kernels,
    trap_values,
)
from avfield.solver import SolverConfig, _prolong, sweep
from avfield.verify import smooth_state


def test_outside_branch_is_plain_log():
    k = SmearedCoulomb(0.5)
    r = np.array([0.5, 0.7, 1.0, 3.0])
    assert np.allclose(k.w_radial(r), np.log(r), atol=1e-15)


def test_inside_branch_value_and_continuity():
    R = 0.8
    k = SmearedCoulomb(R)
    assert k.w_radial(np.array(0.0)) == pytest.approx(np.log(R) - 0.5, abs=1e-15)
    eps = 1e-12
    below = float(k.w_radial(np.array(R - eps)))
    above = float(k.w_radial(np.array(R + eps)))
    assert abs(below - above) < 1e-11


def test_disc_average_identity():
    # the potential is the log kernel averaged over a disc of radius R:
    # outside the disc it must agree with log|x| (Newton), inside with the
    # closed form; check the outside claim by angular quadrature
    R = 0.6
    k = SmearedCoulomb(R)
    for dist in (0.7, 1.2, 2.5):
        def integrand(theta, rr):
            return np.log(np.hypot(dist - rr * np.cos(theta), rr * np.sin(theta)))

        val = 0.0
        # radial x angular quadrature of the disc average
        for rr, wgt in zip(*np.polynomial.legendre.leggauss(40)):
            rr = 0.5 * R * (rr + 1.0)
            ang = quad(integrand, 0.0, 2.0 * np.pi, args=(rr,), limit=200)[0]
            val += wgt * rr * ang * 0.5 * R
        val /= np.pi * R**2
        assert val == pytest.approx(float(k.w_radial(np.array(dist))), abs=1e-9)


def test_gradient_piecewise_and_bound():
    R = 0.4
    k = SmearedCoulomb(R)
    pts = np.array([[0.1, 0.2], [0.5, 0.0], [0.0, -1.3], [0.3, 0.1]])
    g = k.grad_w(pts[:, 0], pts[:, 1])
    for p, gv in zip(pts, g.T):
        r2 = p @ p
        want = p / max(r2, R**2)
        assert np.allclose(gv, want, atol=1e-15)
    assert np.hypot(g[0], g[1]).max() <= 1.0 / R + 1e-12


def test_point_kernel_singularity_raises():
    with pytest.raises(DomainError):
        SmearedCoulomb(0.0).w_radial(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        SmearedCoulomb(-0.1)
    with pytest.raises(DomainError, match="got nan"):
        SmearedCoulomb(np.nan)
    with pytest.raises(DomainError, match="finite and >= 0, got inf"):
        SmearedCoulomb(np.inf)


def test_lp_norm_against_radial_quadrature():
    for R in (0.3, 1.0, 1.7):
        for p in (3.0, 4.0, 8.0):
            def integrand(r):
                g = r / R**2 if r < R else 1.0 / r
                return 2.0 * np.pi * r * g**p

            num = quad(integrand, 0.0, R)[0] + quad(integrand, R, np.inf)[0]
            assert num ** (1.0 / p) == pytest.approx(lp_norm_grad_w(R, p), rel=1e-10)


def test_lp_norm_domain():
    with pytest.raises(DomainError):
        lp_norm_grad_w(0.5, 2.0)
    with pytest.raises(DomainError):
        lp_norm_grad_w(0.0, 3.0)


@given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=2.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_lp_norm_scaling_property(R, p):
    # ||grad w_R||_p R^{1 - 2/p} is independent of R
    base = lp_norm_grad_w(1.0, p)
    assert lp_norm_grad_w(R, p) * R ** (1.0 - 2.0 / p) == pytest.approx(base, rel=1e-10)


def test_eta0_values():
    assert eta0(2.0) == pytest.approx(1.0 / 6.0)
    assert eta0(1e12) == pytest.approx(0.25, abs=1e-10)
    with pytest.raises(DomainError):
        eta0(0.0)


def test_trap_validation_and_values():
    with pytest.raises(DomainError):
        TrapPotential(c=0.0)
    with pytest.raises(DomainError):
        TrapPotential(s=-1.0)
    for c, s in ((np.nan, 2.0), (np.inf, 2.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(DomainError, match="finite c > 0 and s > 0"):
            TrapPotential(c=c, s=s)
    spec = GridSpec(n=16, half_width=2.0)
    v = trap_values(spec, TrapPotential(c=2.0, s=4.0))
    x, y = spec.meshgrid()
    assert np.allclose(v, 2.0 * (x**2 + y**2) ** 2)


def test_kernel_sampling_and_cache():
    spec = GridSpec(n=16, half_width=2.0)
    ks = sample_kernels(spec, 0.3)
    assert all(f.shape == (32, 17) for f in ks.grad_w_fft)
    assert ks.grad_w_sq_fft is not None
    # odd symmetry of the gradient sample about the centered origin
    a = spec.padded_axis()
    x, y = np.meshgrid(a, a, indexing="xy")
    for comp in SmearedCoulomb(0.3).grad_w(x, y):
        sub = comp[1:, 1:]
        assert np.allclose(sub, -sub[::-1, ::-1], atol=1e-15)
    point = sample_kernels(spec, 0.0)
    assert point.grad_w_sq_fft is None
    assert kernels_for(spec, 0.3) is kernels_for(spec, 0.3)


def test_a_sweep_over_R_frees_the_kernels_it_has_passed():
    spec = GridSpec(n=64, half_width=8.0)
    first = weakref.ref(kernels_for(spec, 0.4).grad_w_fft[0])
    problems = [FunctionalParams(beta=1.0, R=R, trap=TrapPotential()) for R in (0.4, 0.2, 0.1)]
    assert all(row.converged for row in sweep(problems, spec, SolverConfig(tol_grad=1e-5)))
    gc.collect()
    assert first() is None


FINE = GridSpec(n=256, half_width=8.0)
COARSE = GridSpec(n=64, half_width=8.0)


@pytest.mark.parametrize("R", [0.0, 0.3])
def test_gradient_spectra_are_real_and_sy_is_sx_mirrored(R):
    spec = GridSpec(n=32, half_width=2.0)
    n = spec.n
    a = np.fft.ifftshift(spec.padded_axis())
    gx, gy = SmearedCoulomb(R).grad_w(a[np.newaxis, :], a[:, np.newaxis])
    ks = sample_kernels(spec, R)
    sx, sy = ks.grad_w_fft
    scale = np.abs(sx).max()
    # without the offset-n line (x = -2L for gx, y = -2L for gy) the
    # transform is imaginary to round-off, and S is its imaginary part;
    # with the line, the transform is not imaginary
    for g, line, s in ((gx, np.s_[:, n], sx), (gy, np.s_[n, :], sy)):
        zeroed = g.copy()
        zeroed[line] = 0.0
        assert np.array_equal(s, padded_rfft(spec, zeroed).imag)
        assert np.abs(padded_rfft(spec, zeroed).real).max() <= 1e-13 * scale
        assert np.abs(padded_rfft(spec, g).real).max() > 1e-3 * scale
        if s is sx and R > 0.0:
            assert np.array_equal(ks.grad_w_sq_fft, padded_rfft(spec, zeroed**2 + zeroed.T**2).real)
    # Sx mirrored is Sy, to round-off: Sy[ky, kx] = Sx[kx, ky], -Sx[kx, 2n - ky] above n
    mirrored = np.concatenate([sx[: n + 1], -sx[: n + 1, n - 1 : 0 : -1]], axis=1).T
    assert np.abs(sy - mirrored).max() <= 1e-13 * scale


@pytest.mark.parametrize("R", [0.0, 0.05, 0.1, 0.4])
def test_restricted_kernels_are_the_galerkin_coarse_operator(R):
    # a coarse state and its spectral prolongation have the same energy,
    # term by term, under the restricted and the fine kernels; coarse point
    # samples are 0.5-2% off in the quartic term (and see no R < h = 0.25)
    params = FunctionalParams(beta=1.0, R=R, trap=TrapPotential())
    u = smooth_state(COARSE, np.random.default_rng(0))
    fine_kernels = kernels_for(FINE, R)
    got = energy(StateFields(u, restrict(fine_kernels, FINE, COARSE)), params)
    want = energy(StateFields(_prolong(u, FINE), fine_kernels), params)
    for term in ("kinetic", "mixed", "quartic", "potential"):
        assert getattr(got, term) == pytest.approx(getattr(want, term), rel=1e-12), term
    sampled = energy(StateFields(u, sample_kernels(COARSE, R)), params)
    assert sampled.quartic != pytest.approx(want.quartic, rel=1e-3)


def test_gradient_contract_with_restricted_kernels():
    rng = np.random.default_rng(7)
    u = smooth_state(COARSE, rng)
    params = FunctionalParams(beta=0.9, R=0.15, trap=TrapPotential())
    kernels = restrict(kernels_for(FINE, params.R), FINE, COARSE)
    G = energy_and_gradient(StateFields(u, kernels), params)[1]
    v = smooth_state(COARSE, rng).values
    eps = 1e-5

    def e_at(t):
        return energy(StateFields(WaveFunction(COARSE, u.values + t * v), kernels), params).total

    fd = (e_at(eps) - e_at(-eps)) / (2.0 * eps)
    assert fd == pytest.approx(2.0 * inner(COARSE, v, G).real, rel=1e-6)


def test_kernel_spectra_are_kx_major():
    # the layout of padded_rfft's spectra, so products keep it and the
    # padded inverse reads contiguous rows; all are real arrays, and a
    # coarse level, which reads no pair kernel, gets none
    fine = kernels_for(FINE, 0.1)
    coarse = restrict(fine, FINE, COARSE)
    assert coarse.grad_w_sq_fft is None
    for fh in (*fine.grad_w_fft, fine.grad_w_sq_fft, *coarse.grad_w_fft):
        assert fh.flags.f_contiguous and fh.dtype == np.float64


@pytest.mark.parametrize("R", [0.0, 0.1])
def test_restriction_composes_exactly(R):
    mid = GridSpec(n=128, half_width=8.0)
    fine = kernels_for(FINE, R)
    direct = restrict(fine, FINE, COARSE)
    chained = restrict(restrict(fine, FINE, mid), mid, COARSE)
    assert direct.grad_w_sq_fft is None and chained.grad_w_sq_fft is None
    for a, b in zip(direct.grad_w_fft, chained.grad_w_fft):
        assert a.shape == (128, 65)
        assert np.array_equal(a, b)
        assert not a[64].any() and not a[:, 64].any()  # the coarse Nyquist
    with pytest.raises(DomainError):
        restrict(fine, FINE, GridSpec(n=64, half_width=4.0))
