"""Live-memory budgets of the kernel build and of one evaluation, traced.

The peaks are counted in n x n float64 arrays.  The in-place code peaks at
25.1 arrays in the kernel build and 11.1 in the gradient; with a full-size
temporary per intermediate (a centred sample shifted by a copy, a new array
per product, an out-of-place padded inverse) they read 41.2 and 14.1.  Each
bound lies in between.
"""

import tracemalloc

from avfield.functional import FunctionalParams, energy, energy_and_gradient
from avfield.grid import GridSpec, gaussian_state
from avfield.kernels import TrapPotential, kernels_for, sample_kernels

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
    # the three (2n, n+1) complex spectra it keeps are 12 arrays
    assert traced_peak(lambda: sample_kernels(SPEC, 0.1)) < 30.0


def test_gradient_after_energy_peak():
    params = FunctionalParams(beta=1.0, R=0.1, trap=TrapPotential())
    kernels_for(SPEC, params.R)
    u = gaussian_state(SPEC, width=1.5, vortex=True)
    energy(u, params)  # A, J and the derivatives are kept on u
    assert traced_peak(lambda: energy_and_gradient(u, params)) < 13.0
