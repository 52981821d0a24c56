"""Live-memory budgets of the kernel build, of one evaluation and of a state's fields, traced.

The peaks are counted in n x n float64 arrays.  The in-place code peaks at
16.1 arrays in the kernel build, which keeps 6.0 (three real spectra), and
at 8.1 in the gradient after the energy, whose padded convolution reads the
row spectra of Q, formed by blocks of rows (no n x n Q), frees each
component of J once its Q is transformed, and holds one column block per
term.  Sampling both gradient components, as a (2, 2n, 2n) array, the
kernel build reads 20.1, and with a full-size temporary per intermediate
(a centred sample shifted by a copy, a new array per product) more;
complex gradient spectra keep 10.1.  The gradient reads 10.1 with n x n Q_x
and Q_y beside J, 11.1 with whole padded spectra of Q, or with a real
kernel block cast to complex through numpy's 8192-element buffer, and 14.1
with all columns in one block.  G, built in the buffers of grad u after W,
adds 1.5 arrays at n = 256 to what W's convolution leaves, 2.0 with its
products taken through one real n x n buffer, and 3.3 with its own complex
G and temporaries.  The energy of a
fresh state is traced at n = 256, where a column block is half an array (at
n = 128 it is two, and the blocks hide what is full size): 10.5 with the
row pass of each convolution written straight into A, 11.0 when the (n, 2n)
inverse sat beside A.  After the energy, the gradient and the
product-state energy a state's fields keep 3.0 arrays (rho and A), 5.0
when they kept J, 7.0 when they kept |rho_hat|^2 too, and 15.0 when they
kept the spectrum, grad u and rho_hat.  Each bound lies in between.
"""

import tracemalloc

import numpy as np

from avfield import functional
from avfield.functional import FunctionalParams, energy, energy_and_gradient, state_fields
from avfield.grid import GridSpec, gaussian_state
from avfield.kernels import TrapPotential, kernels_for, sample_kernels
from avfield.manybody import ManyBodyParams, product_state_energy

SPEC = GridSpec(n=128, half_width=8.0)
ARRAY = SPEC.n**2 * 8  # bytes of one n x n float64 array


def traced_peak(fn) -> float:
    """Peak traced allocation while fn runs, in n x n float64 arrays."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / ARRAY
    finally:
        tracemalloc.stop()


def test_kernel_build_peak():
    assert traced_peak(lambda: sample_kernels(SPEC, 0.1)) < 18.5
    # three real (2n, n+1) spectra, not two complex ones and a real one (10.1)
    ks = sample_kernels(SPEC, 0.1)
    assert sum(a.nbytes for a in (*ks.grad_w_fft, ks.grad_w_sq_fft)) / ARRAY < 6.5


def test_gradient_after_energy_peak():
    params = FunctionalParams(beta=1.0, R=0.1, trap=TrapPotential())
    kernels_for(SPEC, params.R)
    u = gaussian_state(SPEC, width=1.5, vortex=True)
    energy(u, params)  # A, J and the derivatives are kept on u
    assert traced_peak(lambda: energy_and_gradient(u, params)) < 9.0


def test_energy_peak():
    spec = GridSpec(n=256, half_width=8.0)
    params = FunctionalParams(beta=1.0, R=0.1, trap=TrapPotential())
    energy(gaussian_state(spec), params)  # the kernels, V and k, memoized
    u = gaussian_state(spec, width=1.5, vortex=True)
    assert traced_peak(lambda: energy(u, params)) * ARRAY / (spec.n**2 * 8) < 10.75


def test_gradient_builds_G_in_the_buffers_of_grad_u(monkeypatch):
    spec = GridSpec(n=256, half_width=8.0)
    params = FunctionalParams(beta=1.0, R=0.1, trap=TrapPotential())
    kernels_for(spec, params.R)
    u = gaussian_state(spec, width=1.5, vortex=True)
    energy(u, params)
    real, after_w = functional.padded_convolution, []

    def convolution(*args, **kwargs):
        out = real(*args, **kwargs)  # W's, the gradient's only convolution
        after_w.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(functional, "padded_convolution", convolution)
    tracemalloc.start()
    try:
        energy_and_gradient(u, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(after_w) == 1
    assert (peak - after_w[0]) / (spec.n**2 * 8) < 2.5


def test_state_keeps_only_what_a_later_call_reads():
    params = FunctionalParams(beta=1.0, R=0.1, trap=TrapPotential())
    u = gaussian_state(SPEC, width=1.5, vortex=True)
    energy(u, params)
    energy_and_gradient(u, params)
    product_state_energy(u, ManyBodyParams(N=10, beta=1.0, R=0.1, trap=params.trap))
    # the fields' own arrays, not the state's samples or the kernels
    kept = {k: v for k, v in vars(state_fields(u, params.R)).items()
            if k not in ("values", "kernels")}
    arrays = [a for v in kept.values() for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    # rho and A: 3.0; with J 5.0; with |rho_hat|^2 7.0; with the spectrum,
    # grad u and rho_hat 15.0
    assert sum(a.nbytes for a in arrays) / ARRAY < 3.5
    assert not any(np.iscomplexobj(a) for a in arrays)
    # the pair term is kept as its value, with no padded half spectrum
    assert isinstance(kept["P"], float)
    assert not any(a.shape == (2 * SPEC.n, SPEC.n + 1) for a in arrays)
    assert "grad" not in kept
    assert "J" not in kept  # the gradient's Q was its last reader
