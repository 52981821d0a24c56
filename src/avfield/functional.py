"""Average-field energy: term breakdown and constrained gradient.

The energy of a state u with coupling beta and smearing radius R is

    E[u] = int |grad u|^2  +  2 beta int A.J  +  beta^2 int rho |A|^2
         + int V rho,

the expansion of int |(grad + i beta A[rho]) u|^2 + int V rho with
A = A^R[rho], rho = |u|^2, J the phase current.  The first variation has
to account for the dependence of A on rho, which produces a scalar
self-consistency potential W on top of the magnetic Schroedinger action;
its sign and normalization are pinned by the finite-difference contract
exercised in the tests rather than trusted.

Every evaluation (``energy``, ``energy_and_gradient``, the product-state
terms and cross-check in ``manybody`` and the polar-form cross-check in
``verify``) reads the density, spectral derivatives, phase current and
vector potential of a state from one ``StateFields``, which computes
each on first use and keeps it only until its last reader has run.
``state_fields`` keeps it on the (immutable) state, keyed by the
identity of its ``KernelSet``, so later calls on the state reuse it:
after ``energy`` the gradient adds only its own transforms and the
product-state energy none (a second gradient forms grad u, and J with
it, again: the gradient releases both).
Other kernels replace it, and it is freed with the state.  ``energy`` and
``energy_and_gradient`` also accept a ``StateFields``; the solver's
start (possibly a caller's warm start) and ``verify.evaluated`` (whose
result keeps every state) pass one, so they pin no fields on states
they do not own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .fields import current, density, vector_potential
from .grid import (
    GridSpec,
    WaveFunction,
    inner,
    integrate,
    line_blocks,
    padded_convolution,
    padded_rfft,
)
from .kernels import KernelSet, SmearedCoulomb, TrapPotential, kernels_for, trap_values


@dataclass(frozen=True)
class FunctionalParams:
    beta: float
    R: float
    trap: TrapPotential

    def __post_init__(self):
        if not np.isfinite(self.beta):
            raise DomainError(f"beta must be finite, got {self.beta}")
        SmearedCoulomb(self.R)  # its check of R, before any kernel is sampled


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    mixed: float
    quartic: float
    potential: float

    @property
    def total(self) -> float:
        return self.kinetic + self.mixed + self.quartic + self.potential

    @property
    def magnetic_kinetic(self) -> float:
        """int |(grad + i beta A) u|^2 = kinetic + mixed + quartic."""
        return self.kinetic + self.mixed + self.quartic


def _ifft2(a: np.ndarray) -> np.ndarray:
    """``ifft2(a)`` bit for bit in place; numpy 2.4's ``ifft2(a, out=a)`` leaves a unwritten."""
    np.fft.ifft(a, axis=1, out=a)
    return np.fft.ifft(a, axis=0, out=a)


class StateFields:
    """One state's quantities shared by every term of the functional.

    Each is computed on first use and kept until its last reader has run,
    so an evaluation pays once for what it reads:

    - ``spectrum``: fft2 of u, one n x n transform, kept for the beta = 0
      gradient; ``grad`` frees it once ``kinetic`` has read it;
    - ``grad``: (d_x u, d_y u) from the spectrum, two n x n inverses, read
      by ``J`` and by the gradient G, which frees it;
    - ``J``: the phase current ``fields.current`` from ``grad``, two real
      arrays, read by ``A_dot_J`` and by the gradient's Q, which frees it (a
      later reader, the cross-checks of ``manybody`` and ``verify``, forms it
      again, with grad u and the spectrum);
    - ``A``: ``fields.vector_potential`` of the padded spectrum rho_hat of
      rho = |u|^2, one pruned padded transform and two pruned padded
      inverses; with a pair kernel (R > 0, and not in a solve or in
      ``verify``) it also sums from rho_hat the pair term P of
      ``manybody.product_state_energy`` and keeps only that float;
    - ``kinetic``, ``A_dot_J``, ``rho_A2``: int |grad u|^2, int A.J, int rho |A|^2;
    - ``potential(trap)``: int V rho, kept per trap in ``potentials``.

    The density ``fields.density`` is formed on construction, unless the
    caller passes it in because it already has it.
    """

    def __init__(self, u: WaveFunction, kernels: KernelSet, rho: np.ndarray | None = None):
        self.spec = u.grid
        self.values = u.values
        self.kernels = kernels
        self.rho = density(u) if rho is None else rho
        self.potentials: dict[TrapPotential, float] = {}

    @cached_property
    def spectrum(self) -> np.ndarray:
        s = np.fft.fft(self.values, axis=1)
        return np.fft.fft(s, axis=0, out=s)  # fft2's passes, in place

    @cached_property
    def grad(self) -> tuple[np.ndarray, np.ndarray]:
        kx, ky = self.spec.wavenumbers()
        s = self.spectrum
        self.kinetic  # the spectrum's last reader, before it is freed
        del self.spectrum
        return _ifft2(1j * kx * s), _ifft2(1j * ky * s)

    @cached_property
    def J(self) -> tuple[np.ndarray, np.ndarray]:
        return current(self.values, self.grad)

    @cached_property
    def A(self) -> np.ndarray:
        rho_hat = padded_rfft(self.spec, self.rho)
        A = vector_potential(self.spec, rho_hat, self.kernels)
        if self.kernels.grad_w_sq_fft is not None:
            # P = int (|grad w_R|^2 * rho) rho by Parseval: h^4/(2n)^2 sum_k
            # w(kx) g_sq(k) |rho_hat(k)|^2 over the half spectrum, w = 1 on
            # the columns kx = 0 and n, 2 on the others, which also stand
            # for their mirror images; formed in rho_hat's buffer
            re = np.square(rho_hat.real, out=rho_hat.real)
            re += np.square(rho_hat.imag, out=rho_hat.imag)
            re *= self.kernels.grad_w_sq_fft
            total = 2.0 * re.sum() - re[:, 0].sum() - re[:, -1].sum()
            self.P = float(total) * self.spec.h**4 / (2 * self.spec.n) ** 2
        return A

    @cached_property
    def kinetic(self) -> float:
        # by Parseval, without an inverse transform
        spec, (kx, ky) = self.spec, self.spec.wavenumbers()
        return float(((kx**2 + ky**2) * np.abs(self.spectrum) ** 2).sum()) * spec.h**2 / spec.n**2

    # each integrand below is formed in one n x n buffer, its second product
    # added BLOCK_BYTES of rows at a time, with the elementwise operations
    # (and so the bits) of the whole-array expression
    @cached_property
    def A_dot_J(self) -> float:
        (ax, ay), (jx, jy) = self.A, self.J
        t = np.multiply(ax, jx)
        for rows in line_blocks(self.spec.n, 8 * self.spec.n):
            t[rows] += ay[rows] * jy[rows]
        return float(integrate(self.spec, t))

    @cached_property
    def rho_A2(self) -> float:
        ax, ay = self.A
        t = np.square(ax)
        for rows in line_blocks(self.spec.n, 8 * self.spec.n):
            t[rows] += ay[rows] ** 2
        return float(integrate(self.spec, np.multiply(t, self.rho, out=t)))

    def potential(self, trap: TrapPotential) -> float:
        """int V rho, kept per trap: the trap is a parameter of the call, not of the fields."""
        if trap not in self.potentials:
            V = trap_values(self.spec, trap)
            self.potentials[trap] = float(integrate(self.spec, V * self.rho))
        return self.potentials[trap]


def state_fields(u: WaveFunction | StateFields, R: float) -> StateFields:
    """The fields of u under ``kernels_for(u.grid, R)``.

    They are kept on u and returned again to every later call with the
    same ``KernelSet`` object; other kernels replace them.  A
    ``StateFields`` is returned as it is, with its own kernels.
    """
    if isinstance(u, StateFields):
        return u
    kernels = kernels_for(u.grid, R)
    memo = vars(u)  # the instance dict, as cached_property uses it
    fields = memo.get("_fields")
    if fields is None or fields.kernels is not kernels:
        fields = memo["_fields"] = StateFields(u, kernels)
    return fields


def _evaluate(
    fields: StateFields, params: FunctionalParams, with_gradient: bool
) -> tuple[EnergyBreakdown, np.ndarray | None]:
    """The functional's one evaluation path: breakdown, and G if asked.

    G satisfies d/dt E[u + t v] at t=0 equal to 2 Re<v, G> for any
    direction v.  G = (-i grad + beta A)^2 u + V u + W u, with the
    self-consistency potential
    W = -2 beta sum_c grad^perp w_R,c * (J + beta rho A)_c.

    Transforms per call for beta != 0: 3 n x n and 3 padded for the
    energy; the gradient adds 3 padded and two one-axis derivatives, each
    an fft/ifft pair along one axis of an n x n array (the work of one
    n x n transform).  For beta = 0 only the spectrum of u, plus one
    inverse for the gradient.  G is formed in the buffers of grad u, and
    the gradient releases J: no full-size Q or (n, 2n) inverse is formed.
    """
    spec, v, rho = fields.spec, fields.values, fields.rho
    V = trap_values(spec, params.trap)
    kx, ky = spec.wavenumbers()
    potential = fields.potential(params.trap)
    beta = params.beta
    if beta == 0.0:
        bd = EnergyBreakdown(fields.kinetic, 0.0, 0.0, potential)
        if not with_gradient:
            return bd, None
        return bd, _ifft2((kx**2 + ky**2) * fields.spectrum) + V * v

    mixed = 2.0 * beta * fields.A_dot_J
    quartic = beta**2 * fields.rho_A2
    bd = EnergyBreakdown(fields.kinetic, mixed, quartic, potential)
    if not with_gradient:
        return bd, None
    ax, ay = fields.A
    jx, jy = fields.J
    del fields.J  # Q below is its last reader

    # W from the gauge-covariant current Q = J + beta rho A: one blocked
    # convolution of F(Q_y) i Sx - F(Q_x) i Sy, from the row spectra of Q_y
    # and Q_x, formed BLOCK_BYTES of rows at a time (no n x n Q), each
    # component of J freed once its Q is transformed.  W comes before G:
    # formed after G's linear part, once grad u is freed, the eval-n512
    # peak RSS read 99.2 MB against 95.0 MB.
    sx, sy = fields.kernels.grad_w_fft
    qy = _padded_rows(spec, beta, rho, ay, jy)
    del jy
    qx = _padded_rows(spec, beta, rho, ax, jx)
    del jx
    W = padded_convolution(spec, (qy, sx), (qx, sy), factor=1j, scale=-2.0 * beta * spec.h**2)
    del qy, qx  # consumed

    # (-i grad + beta A)^2 u = -lap u - i beta (A.grad u + div(A u))
    # + beta^2 |A|^2 u; the symmetric form is the exact discrete adjoint
    # (the spectral product rule only holds up to aliasing).  The linear
    # part -lap u - i beta div(A u) = -d_x(u_x + i beta A_x u)
    # - d_y(u_y + i beta A_y u) is formed in the buffers of the cached
    # gradient, after A.grad u has read it; each one-axis derivative is an
    # fft/ifft pair along its own axis, equal to the 2-D spectral one with
    # the same zeroed Nyquist mode.  The products with i beta u and with
    # (beta^2 |A|^2 + V + W) u are formed BLOCK_BYTES of rows at a time, so
    # only A.grad u is a full-size temporary.
    ux, uy = fields.grad
    del fields.grad  # G is written into grad u
    s = np.empty_like(ux)  # A.grad u
    blocks = line_blocks(spec.n, 16 * spec.n)
    for rows in blocks:
        a_x, a_y, t = ax[rows], ay[rows], (1j * beta) * v[rows]
        d_x, d_y, s_b = ux[rows], uy[rows], s[rows]
        np.multiply(a_x, d_x, out=s_b)
        s_b += a_y * d_y
        d_x += a_x * t
        d_y += a_y * t
    for d, k, axis in ((ux, kx, 1), (uy, ky, 0)):
        np.fft.fft(d, axis=axis, out=d)
        np.multiply(-1j * k, d, out=d)
        np.fft.ifft(d, axis=axis, out=d)
    G = np.add(ux, uy, out=ux)
    G -= np.multiply(1j * beta, s, out=s)
    del ux, uy, s
    W += beta**2 * (ax**2 + ay**2) + V  # (beta^2 |A|^2 + V) + W, in W
    for rows in blocks:
        g = G[rows]
        g += W[rows] * v[rows]
    return bd, G


def _padded_rows(spec, beta, rho, a, j) -> np.ndarray:
    """Row spectra ``rfft(j + beta rho a, n=2n, axis=1)``, formed BLOCK_BYTES of rows at a time."""
    m = 2 * spec.n
    out = np.empty((spec.n, spec.n + 1), dtype=complex)
    for rows in line_blocks(spec.n, 16 * m):
        np.fft.rfft(beta * rho[rows] * a[rows] + j[rows], n=m, axis=1, out=out[rows])
    return out


def energy(u: WaveFunction | StateFields, params: FunctionalParams) -> EnergyBreakdown:
    """Term-by-term average-field energy of u (norm-agnostic).

    The fields it computes are kept on u (``state_fields``), so a later
    call on u at the same R reuses them: a second ``energy``, at any
    beta and trap, costs no transform.  ``u`` may be a ``StateFields``;
    its cached quantities are reused, the ones the energy computes are
    kept on it, and its own kernels are used in place of
    ``kernels_for(u.grid, params.R)`` (this is how other kernels, such
    as restricted ones, are passed).
    """
    return _evaluate(state_fields(u, params.R), params, with_gradient=False)[0]


def energy_and_gradient(
    u: WaveFunction | StateFields, params: FunctionalParams
) -> tuple[EnergyBreakdown, np.ndarray]:
    """Breakdown and first variation G of the energy; see ``_evaluate``.

    ``u`` may be a ``StateFields``, as in ``energy``.  On a fresh state it
    costs 3 n x n transforms, two one-axis derivative pairs and 6 padded
    transforms.  After ``energy`` on the same state or fields it adds the
    two derivative pairs and 3 padded transforms (one n x n at beta = 0,
    two after a beta != 0 energy), a second gradient 3 n x n more, to form
    grad u again, and each returns what a fresh state would, bit for bit.
    """
    return _evaluate(state_fields(u, params.R), params, with_gradient=True)


def sphere_project(spec: GridSpec, g: np.ndarray, u: WaveFunction) -> np.ndarray:
    """Tangent-space projection g - Re<u, g> u for normalized u."""
    coef = inner(spec, u.values, g).real
    return g - coef * u.values
