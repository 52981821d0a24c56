import dataclasses

import numpy as np
import pytest

from avfield.errors import DomainError
from avfield import grid
from avfield.grid import (
    GridSpec,
    WaveFunction,
    convolve,
    gaussian_state,
    inner,
    integrate,
    l2_norm,
    padded_convolution,
    padded_rfft,
    spectral_gradient,
    spectral_laplacian,
)


@pytest.fixture
def spec():
    return GridSpec(n=64, half_width=8.0)


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(n=100, half_width=8.0)
    with pytest.raises(DomainError):
        GridSpec(n=8, half_width=8.0)
    with pytest.raises(DomainError):
        GridSpec(n=64, half_width=-1.0)
    for half_width in (np.nan, np.inf):
        with pytest.raises(DomainError, match="finite and > 0"):
            GridSpec(n=64, half_width=half_width)


def test_axis_and_spacing(spec):
    a = spec.axis()
    assert a[0] == -8.0
    assert a[-1] == pytest.approx(8.0 - spec.h)
    assert spec.h == pytest.approx(0.25)


def test_gaussian_quadrature_exact(spec):
    # trapezoid on a periodic fast-decaying function is spectrally accurate
    x, y = spec.meshgrid()
    val = integrate(spec, np.exp(-(x**2 + y**2)))
    assert val == pytest.approx(np.pi, abs=1e-13)


def test_inner_product_conjugate_linear(spec):
    rng = np.random.default_rng(0)
    f = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    assert inner(spec, f, g) == pytest.approx(np.conj(inner(spec, g, f)))
    assert inner(spec, f, f).real == pytest.approx(l2_norm(spec, f) ** 2)


def test_wavenumbers_are_shared_and_read_only(spec, monkeypatch):
    kx, ky = spec.wavenumbers()
    k = 2.0 * np.pi * np.fft.fftfreq(spec.n, d=spec.h)
    k[spec.n // 2] = 0.0  # the zeroed Nyquist mode
    assert kx.shape == (1, spec.n) and ky.shape == (spec.n, 1)
    assert kx.tobytes() == ky.tobytes() == k.tobytes()
    for a in (kx, ky):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    # an equal grid reads the same arrays, with no fftfreq of its own
    monkeypatch.setattr(np.fft, "fftfreq", None)
    again = GridSpec(n=spec.n, half_width=spec.half_width).wavenumbers()
    assert again[0] is kx and again[1] is ky


def test_spectral_gradient_on_modes(spec):
    x, y = spec.meshgrid()
    k = 2.0 * np.pi / spec.half_width  # resolved periodic mode
    f = np.sin(k * x) * np.cos(2 * k * y)
    fx, fy = spectral_gradient(spec, f)
    assert np.allclose(fx.real, k * np.cos(k * x) * np.cos(2 * k * y), atol=1e-10)
    assert np.allclose(fy.real, -2 * k * np.sin(k * x) * np.sin(2 * k * y), atol=1e-10)


def test_laplacian_matches_gradient_divergence(spec):
    x, y = spec.meshgrid()
    f = np.exp(-(x**2 + y**2) / 2.0)
    fx, fy = spectral_gradient(spec, f)
    lap = spectral_laplacian(spec, f)
    fxx, _ = spectral_gradient(spec, fx)
    _, fyy = spectral_gradient(spec, fy)
    assert np.allclose(lap, fxx + fyy, atol=1e-10)


def test_parseval(spec):
    rng = np.random.default_rng(1)
    f = rng.normal(size=(64, 64))
    fh = np.fft.fft2(f)
    assert np.sum(np.abs(f) ** 2) == pytest.approx(np.sum(np.abs(fh) ** 2) / 64**2)


def test_convolution_matches_direct_sum():
    spec = GridSpec(n=16, half_width=2.0)
    rng = np.random.default_rng(2)
    f = rng.normal(size=(16, 16))
    a = spec.padded_axis()
    xx, yy = np.meshgrid(a, a, indexing="xy")
    kern = np.exp(-(xx**2 + yy**2))
    got = convolve(spec, f, padded_rfft(spec, np.fft.ifftshift(kern)))
    ax = spec.axis()
    want = np.zeros((16, 16))
    for iy in range(16):
        for ix in range(16):
            for jy in range(16):
                for jx in range(16):
                    dx = ax[ix] - ax[jx]
                    dy = ax[iy] - ax[jy]
                    want[iy, ix] += np.exp(-(dx**2 + dy**2)) * f[jy, jx]
    want *= spec.h**2
    assert np.allclose(got, want, atol=1e-12)


def test_convolution_of_gaussians(spec):
    # exp(-r^2/a) * exp(-r^2/b) = pi a b/(a+b) exp(-r^2/(a+b))
    x, y = spec.meshgrid()
    r2 = x**2 + y**2
    f = np.exp(-r2)
    a = spec.padded_axis()
    xx, yy = np.meshgrid(a, a, indexing="xy")
    kern = np.exp(-(xx**2 + yy**2) / 2.0)
    got = convolve(spec, f, padded_rfft(spec, np.fft.ifftshift(kern)))
    want = np.pi * 2.0 / 3.0 * np.exp(-r2 / 3.0)
    assert np.allclose(got, want, atol=1e-10)
    with pytest.raises(DomainError):
        convolve(spec, f, kern)  # the samples, not their padded spectrum


@pytest.mark.parametrize("n", [16, 64, 256, 512])
def test_padded_transforms_are_the_unpruned_numpy_ones(monkeypatch, n):
    # kx-major storage and column blocks change where the spectra lie in
    # memory, not one bit of their values (a real kernel taken with factor
    # 1j is checked to round-off), and neither routine writes to a real
    # field or a padded spectrum.  The n + 1 columns leave a ragged last block: one column
    # from n = 128 up, and 2 or 3 of 5-column blocks at n = 16, 256 and 512.
    spec = GridSpec(n=n, half_width=4.0)
    rng = np.random.default_rng(n)
    f, g = rng.normal(size=(2, n, n))
    kern = rng.normal(size=(2 * n, 2 * n))
    f0, g0, kern0 = f.copy(), g.copy(), kern.copy()

    fh = padded_rfft(spec, f)
    assert fh.flags.f_contiguous and fh.shape == (2 * n, n + 1)
    assert fh.tobytes() == np.fft.rfft2(f, s=(2 * n, 2 * n)).tobytes()
    kh = padded_rfft(spec, np.fft.ifftshift(kern))
    assert kh.flags.f_contiguous
    assert kh.tobytes() == np.fft.rfft2(np.fft.ifftshift(kern)).tobytes()
    assert np.array_equal(f, f0) and np.array_equal(kern, kern0)

    gh = padded_rfft(spec, g)
    fh0 = fh.copy()
    cases = [
        ([(fh, kh)], fh * kh),  # a kept spectrum, as for A
        ([(f, kh)], fh * kh),  # a real field, as in convolve
        ([(f, kh), (g, gh)], fh * kh - gh * gh),  # the order of W's terms
        ([(fh, kh), (g, kh)], fh * kh - gh * kh),
    ]
    for width in (None, 5):
        if width is not None:
            monkeypatch.setattr(grid, "BLOCK_BYTES", width * 16 * 2 * n)
        for terms, prod in cases:
            want = np.fft.irfft2(prod, s=(2 * n, 2 * n))[:n, :n]
            assert padded_convolution(spec, *terms).tobytes() == want.tobytes()
        # a real kernel array s with factor 1j is the spectrum i s
        s = kh.imag.copy(order="F")
        want = np.fft.irfft2(1j * (fh * s - gh * s), s=(2 * n, 2 * n))[:n, :n]
        for terms in ([(fh, s), (g, s)], [(f, s), (gh, s)]):
            got = padded_convolution(spec, *terms, factor=1j)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        assert np.array_equal(s, kh.imag)
    assert np.array_equal(f, f0) and np.array_equal(g, g0) and np.array_equal(fh, fh0)


@pytest.mark.parametrize("n, blocks", [(64, (1, 1)), (256, (9, 8))])
def test_padded_convolution_takes_row_spectra_and_writes_its_scaled_result(n, blocks):
    # (column blocks, row blocks): at n = 256 the last of 9 column blocks
    # holds one column of the n + 1
    assert (len(grid.line_blocks(n + 1, 32 * n)), len(grid.line_blocks(n, 32 * n))) == blocks
    spec = GridSpec(n=n, half_width=4.0)
    rng = np.random.default_rng(n + 1)
    f, g = rng.normal(size=(2, n, n))
    f0, g0 = f.copy(), g.copy()
    kh = padded_rfft(spec, np.fft.ifftshift(rng.normal(size=(2 * n, 2 * n))))
    s = kh.imag.copy(order="F")
    want = padded_convolution(spec, (f, s), (g, kh), factor=1j)

    def rows(a):
        return np.fft.rfft(a, n=2 * n, axis=1)

    # a row spectrum gives the bytes of its real field, in either place
    for terms in ([(rows(f), s), (g, kh)], [(f, s), (rows(g), kh)],
                  [(rows(f), s), (rows(g), kh)]):
        assert padded_convolution(spec, *terms, factor=1j).tobytes() == want.tobytes()
    scale = -2.0 * 0.7 * spec.h**2
    got = padded_convolution(spec, (f, s), (g, kh), factor=1j, scale=scale)
    assert got.tobytes() == (scale * want).tobytes()
    out = np.full((2, n, n), np.nan)
    got = padded_convolution(spec, (f, s), (g, kh), factor=1j, scale=scale, out=out[1])
    assert np.shares_memory(got, out[1]) and out[1].tobytes() == (scale * want).tobytes()
    assert np.isnan(out[0]).all()
    assert np.array_equal(f, f0) and np.array_equal(g, g0)


def test_wavefunction_normalization(spec):
    u = gaussian_state(spec, width=1.3)
    assert u.mass == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(DomainError):
        WaveFunction(spec, np.zeros((64, 64), dtype=complex)).normalized()
    with pytest.raises(DomainError):
        WaveFunction(spec, np.zeros((32, 32), dtype=complex))


def test_wavefunction_rejects_non_finite_samples(spec):
    nan = np.ones((spec.n, spec.n), dtype=complex)
    nan[3, 5] = np.nan
    inf = np.ones((spec.n, spec.n), dtype=complex)
    inf.imag[5, 3] = np.inf
    for vals in (nan, inf):
        with pytest.raises(DomainError, match="non-finite"):
            WaveFunction(spec, vals)
    # finite samples whose sum overflows are accepted
    big = np.zeros((spec.n, spec.n), dtype=complex)
    big[0, 0] = big[7, 9] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    assert WaveFunction(spec, big).values[7, 9] == 1e308


def test_boundary_mass_decay(spec):
    u = gaussian_state(spec)
    assert u.boundary_mass() < 1e-16
    wide = gaussian_state(spec, width=6.0)
    assert wide.boundary_mass() > 1e-6


def test_boundary_mass_reads_the_edge_ring(spec):
    rng = np.random.default_rng(4)
    vals = 0.5 * (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    vals[5, 7] = 100.0  # the interior maximum is not on the ring
    vals[-1, 9] = 3.0 - 4.0j
    rho = np.abs(vals) ** 2
    edge = np.concatenate([rho[0, :], rho[-1, :], rho[:, 0], rho[:, -1]])
    assert WaveFunction(spec, vals).boundary_mass() == float(edge.max()) == 25.0


def test_wavefunction_is_immutable(spec):
    vals = np.ones((spec.n, spec.n), dtype=complex)
    u = WaveFunction(spec, vals)
    with pytest.raises(ValueError):
        u.values[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.values = 2.0 * vals
    vals[1, 1] = 3.0  # the caller's array stays writable
    assert u.values[1, 1] == 3.0 and u.values[0, 0] == 1.0
