"""First-order 2x2 system machinery: the Dirac operator with matrix
potential, reduction of the magnetic Schrodinger equation to it,
diagonalization by integrating factors, oscillatory inverses, and the
Neumann-series construction of complex-geometric-optics solutions.

System conventions.  Sections are pairs U = (u, omega) with u a function
and omega a (0,1)-form.  The operator rows are

    row1 = dbar* omega + Qplus u + star(conj(Aprime) ^ omega)
    row2 = dbar u + u A + Qminus omega

and the reduction of L = Delta^X + q uses Qplus = Q/2, Aprime = A,
A-slot = iA, Qminus = -1, with A the (0,1)-part of X and
Q = -star dX + q.  Conjugating by the integrating factor F = e^{i alpha}
(dbar alpha = A) produces the diagonal potential (|F|^{-2} Q/2, -|F|^2).

CGO solutions of the diagonal system solve the coupled remainder
equations

    r + P(Ft (b + s)) = 0,     s + P*(Qt (a + r)) = 0,

with P, P* the oscillatory inverses built from a Morse phase; the
composition S = P Ft P* Qt is a contraction for small h and the series
is summed directly.  The series is its own guard: the ratio of
successive term norms is S's gain on the current term, and a ratio at
the contraction limit, or a sum that reaches the term cap, is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    OneForm,
    PolarGrid,
    ScalarField,
    dbar_star,
    exterior_d,
    hodge_star,
    inner_l2,
    norm_l2,
    project,
    wedge,
    wirtinger,
)
from .cauchy import (
    _conj_cauchy,
    _require_type01,
    extend_grid,
    kernel_table,
    reflect_extend,
)
from .phases import HolomorphicPhase

__all__ = [
    "SigmaSection",
    "PotentialMatrix",
    "DiagonalPotential",
    "CgoSolution",
    "ContractionError",
    "dirac_apply",
    "adjoint_matrix",
    "reduce_schrodinger",
    "diagonalize",
    "undiagonalize",
    "difference_potential",
    "OscillatoryCauchy",
    "neumann_cgo",
    "inner_sigma",
    "h1_norm_section",
    "boundary_pairing",
    "verify_green",
    "auxiliary_functional",
]


class ContractionError(RuntimeError):
    """The Neumann-series operator is not a contraction at this h."""


@dataclass(frozen=True)
class SigmaSection:
    """Pair (u, omega) with omega of pure type (0,1)."""

    u: ScalarField
    omega: OneForm

    def __post_init__(self):
        self.u.grid.check_same(self.omega.grid)
        _require_type01(self.omega, "SigmaSection")

    @property
    def grid(self) -> PolarGrid:
        return self.u.grid


@dataclass(frozen=True)
class PotentialMatrix:
    """Matrix potential [[Qplus, star(conj(Aprime)^ .)], [A, Qminus]]."""

    Qplus: ScalarField
    Aprime: OneForm
    A: OneForm
    Qminus: ScalarField

    @property
    def grid(self) -> PolarGrid:
        return self.Qplus.grid


@dataclass(frozen=True)
class DiagonalPotential:
    """Diagonal system potential (Qtilde, Ftilde)."""

    Qtilde: ScalarField
    Ftilde: ScalarField

    @property
    def grid(self) -> PolarGrid:
        return self.Qtilde.grid


def dirac_apply(V: PotentialMatrix, U: SigmaSection) -> SigmaSection:
    """(D + V) U with D = [[0, dbar*], [dbar, 0]]."""
    g = U.grid
    V.grid.check_same(g)
    om = U.omega
    row1 = (
        dbar_star(om).values
        + V.Qplus.values * U.u.values
        - 2j * np.conj(V.Aprime.c01) * om.c01  # star(conj(Aprime) ^ omega)
    )
    row2 = (
        wirtinger(U.u, "dzbar").c01
        + U.u.values * V.A.c01
        + V.Qminus.values * om.c01
    )
    return SigmaSection(
        ScalarField(g, row1), OneForm(g, np.zeros(g.shape), row2)
    )


def adjoint_matrix(V: PotentialMatrix) -> PotentialMatrix:
    """Adjoint with respect to the section inner product:
    (Qplus, Aprime, A, Qminus) -> (conj Qplus, -iA, i Aprime, conj Qminus)."""
    g = V.grid
    return PotentialMatrix(
        V.Qplus.conj(),
        OneForm(g, np.zeros(g.shape), -1j * V.A.c01),
        OneForm(g, np.zeros(g.shape), 1j * V.Aprime.c01),
        V.Qminus.conj(),
    )


# ---------------------------------------------------------------------------
# reduction and diagonalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionData:
    """Integrating data for a potential pair: the (0,1)-part A of X, a
    primitive alpha, the factor F = e^{i alpha}, and Q = -star dX + q."""

    A: OneForm
    alpha: ScalarField
    F: ScalarField
    Q: ScalarField


def reduce_schrodinger(pot, alpha: ScalarField):
    """Rewrite L = Delta^X + q as the first-order system (D + V) U = 0.

    Returns (V, ReductionData).  `alpha` is a primitive of the (0,1)-part
    of X, dbar alpha = A: a closed form where one exists, else
    `cauchy.primitive_alpha`.
    """
    g = pot.grid
    A = project(pot.X, "p01")
    Q = ScalarField(g, -hodge_star(exterior_d(pot.X)).values + pot.q.values)
    F = ScalarField(g, np.exp(1j * alpha.values))
    V = PotentialMatrix(
        Qplus=Q * 0.5,
        Aprime=A,
        A=OneForm(g, np.zeros(g.shape), 1j * A.c01),
        Qminus=ScalarField(g, -np.ones(g.shape)),
    )
    return V, ReductionData(A=A, alpha=alpha, F=F, Q=Q)


def diagonalize(red: ReductionData) -> DiagonalPotential:
    """Diagonal potential (|F|^{-2} Q/2, -|F|^2) of the conjugated system."""
    g = red.F.grid
    mod2 = np.abs(red.F.values) ** 2
    if np.min(mod2) <= 0:
        raise ValueError("integrating factor vanished; cannot diagonalize")
    return DiagonalPotential(
        Qtilde=ScalarField(g, red.Q.values / (2.0 * mod2)),
        Ftilde=ScalarField(g, -mod2),
    )


def transform_section(U: SigmaSection, F: ScalarField) -> SigmaSection:
    """U = (u, omega) -> (F u, conj(F)^{-1} omega)."""
    g = U.grid
    return SigmaSection(
        ScalarField(g, F.values * U.u.values),
        OneForm(g, np.zeros(g.shape), U.omega.c01 / np.conj(F.values)),
    )


def undiagonalize(U_tilde: SigmaSection, F: ScalarField) -> SigmaSection:
    """Inverse of transform_section."""
    g = U_tilde.grid
    return SigmaSection(
        ScalarField(g, U_tilde.u.values / F.values),
        OneForm(g, np.zeros(g.shape), U_tilde.omega.c01 * np.conj(F.values)),
    )


def difference_potential(red1: ReductionData, red2: ReductionData) -> DiagonalPotential:
    """Diagonal difference potential of two reductions:
    (|F2|^{-2} Q2/2 - |F1|^{-2} Q1/2, |F1|^2 - |F2|^2)."""
    d1 = diagonalize(red1)
    d2 = diagonalize(red2)
    return DiagonalPotential(
        Qtilde=d2.Qtilde - d1.Qtilde,
        Ftilde=d2.Ftilde - d1.Ftilde,
    )


# ---------------------------------------------------------------------------
# oscillatory inverses
# ---------------------------------------------------------------------------


class OscillatoryCauchy:
    """The conjugated right inverses P = R dbar^{-1} e^{-2 i psi / h} E and
    P* = R' dbar*^{-1} e^{2 i psi / h} E' on an enlarged grid.

    The extension E tapers reflected data to zero across the padding
    rings with a C^2 cutoff; psi is the imaginary part of the phase
    object, evaluated exactly on the enlargement.  P refuses a (1,0) part like
    `dbar_inverse`; P* uses `dbar_star_inverse`'s conjugate rule.
    """

    def __init__(self, grid: PolarGrid, psi: HolomorphicPhase, h: float):
        if h <= 0:
            raise ValueError("h must be positive")
        if not isinstance(psi, HolomorphicPhase):
            raise TypeError(f"psi must be a HolomorphicPhase, got {type(psi).__name__}")
        self.grid = grid
        self.h = float(h)
        self.big, self.rows = extend_grid(grid)
        psi_big = psi(self.big.nodes).imag
        self._osc_minus = np.exp(-2j * psi_big / self.h)
        self._table = kernel_table(self.big)

    def dbar_inv(self, omega: OneForm) -> ScalarField:
        self.grid.check_same(omega.grid)
        _require_type01(omega, "OscillatoryCauchy.dbar_inv")
        ext = reflect_extend(self.big, self.rows, omega.c01, mode="even")
        u = self._table.apply(self._osc_minus * ext)
        return ScalarField(self.grid, u[self.rows])

    def dbar_star_inv(self, v: ScalarField) -> OneForm:
        self.grid.check_same(v.grid)
        ext = reflect_extend(self.big, self.rows, v.values, mode="even")
        out = _conj_cauchy(self._table, np.conj(self._osc_minus) * ext)
        return OneForm(self.grid, np.zeros(self.grid.shape), out[self.rows])


# ---------------------------------------------------------------------------
# Neumann-series CGO solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CgoSolution:
    phase: HolomorphicPhase
    h: float
    seed: OneForm
    r_h: ScalarField
    s_h: OneForm
    norms: dict
    terms_used: int
    contraction_estimate: float
    residuals: tuple


# series controls: a term below SERIES_TOL times the first term ends the
# sum (relative, so the accuracy does not depend on the seed's scale); a
# ratio of successive term norms at or above CONTRACTION_LIMIT is refused.
# The limit is the ratio that meets the stop in MAX_TERMS terms, so a
# series whose every ratio stays below it stops within the cap.
SERIES_TOL = 1e-12
MAX_TERMS = 200
CONTRACTION_LIMIT = SERIES_TOL ** (1 / (MAX_TERMS - 1))


def _l2(grid: PolarGrid, v: np.ndarray) -> float:
    return norm_l2(ScalarField(grid, v))


def neumann_cgo(
    Vt: DiagonalPotential,
    phase: HolomorphicPhase,
    h: float,
    seed_coeffs=(1.0,),
) -> CgoSolution:
    """Remainders (r_h, s_h) of the diagonal-system CGO solution seeded by
    the anti-holomorphic (0,1)-form b = sum_k seed_coeffs[k] conj(z)^k dzbar
    (and a = 0).

    The remainder equations r + P(Ft (b + s)) = 0 and s + P*(Qt r) = 0
    give r + P(Ft b) = S r with S = P Ft P* Qt, and r is summed as the
    Neumann series of S.  Each term is S applied to the one before, so the
    ratio of successive term norms is S's gain along the series; the largest
    ratio seen is ``contraction_estimate`` (0.0 when the first term
    vanishes).  Raises ContractionError when a ratio reaches
    CONTRACTION_LIMIT; below it, term k is under CONTRACTION_LIMIT^k
    times the first, so the stop is met within MAX_TERMS terms.
    ``residuals`` holds the relative residual of the equation the series
    solves; s is defined by the other equation, which holds exactly.
    """
    g = Vt.grid
    Qt = Vt.Qtilde.values
    Ft = Vt.Ftilde.values
    op = OscillatoryCauchy(g, phase, h)
    zeros = np.zeros(g.shape)

    def P(v):  # (0,1) coefficients -> function values
        return op.dbar_inv(OneForm(g, zeros, Ft * v)).values

    def Pstar(v):  # function values -> (0,1) coefficients
        return op.dbar_star_inv(ScalarField(g, Qt * v)).c01

    b = np.polynomial.polynomial.polyval(np.conj(g.nodes), np.asarray(seed_coeffs, dtype=complex))

    t0 = -P(b)
    scale = max(_l2(g, t0), 1e-300)
    r = term = t0
    used = 1
    prev = scale
    est = 0.0
    while True:
        term = P(Pstar(term))
        r = r + term
        used += 1
        norm = _l2(g, term)
        ratio = norm / prev
        est = max(est, ratio)
        if not ratio < CONTRACTION_LIMIT:  # also refuses a NaN ratio
            raise ContractionError(
                f"series term ratio {ratio:.3f} >= {CONTRACTION_LIMIT:.4f} at term {used - 1}; "
                "decrease h or the potential size"
            )
        if norm < SERIES_TOL * scale:
            break
        prev = norm
    s = -Pstar(r)
    res = _l2(g, r + P(b + s))

    r_h = ScalarField(g, r)
    s_h = OneForm(g, zeros, s)
    return CgoSolution(
        phase=phase,
        h=h,
        seed=OneForm(g, zeros, b),
        r_h=r_h,
        s_h=s_h,
        norms={"norm_r_l2": norm_l2(r_h), "norm_s_l2": norm_l2(s_h)},
        terms_used=used,
        contraction_estimate=est,
        residuals=(res / scale,),
    )


# ---------------------------------------------------------------------------
# pairings and Green identities
# ---------------------------------------------------------------------------


def inner_sigma(U: SigmaSection, Up: SigmaSection) -> complex:
    return inner_l2(U.u, Up.u) + inner_l2(U.omega, Up.omega)


def h1_norm_section(U: SigmaSection) -> float:
    """Discrete H^1 size: L2 norms of the components and of their
    coefficient gradients."""
    g = U.grid
    du = exterior_d(U.u)
    dom = exterior_d(ScalarField(g, U.omega.c01))
    return math.sqrt(
        norm_l2(U.u) ** 2
        + norm_l2(du) ** 2
        + norm_l2(U.omega) ** 2
        + norm_l2(dom) ** 2
    )


def boundary_pairing(U: SigmaSection, Up: SigmaSection) -> complex:
    """Boundary pairing: integral over the boundary of
    iota*(u star(conj omega') - star(omega) conj u')."""
    g = U.grid
    g.check_same(Up.grid)
    eit = np.exp(1j * g.theta)
    return _boundary_sum(
        g,
        lambda ring: U.u.values[ring] * np.conj(Up.omega.c01[ring]) * eit
        - U.omega.c01[ring] * np.conj(eit) * np.conj(Up.u.values[ring]),
    )


def _boundary_sum(g: PolarGrid, integrand) -> complex:
    """Sum over the boundary circles, with their orientation, of the
    rectangle rule R dtheta sum(integrand(ring)) on each circle."""
    total = 0.0 + 0.0j
    for ring, sign in zip(g.boundary_rings, g.boundary_signs()):
        total += sign * g.r[ring] * g.dtheta * np.sum(integrand(ring))
    return complex(total)


def verify_green(V: PotentialMatrix, U: SigmaSection, Up: SigmaSection) -> dict:
    """Residual of the full Green identity
    <(D+V)U, U'> - <U, (D+V*)U'> = <U, U'>_boundary for arbitrary sections.

    When U' solves the adjoint system the middle term vanishes and this
    reduces to the one-sided boundary identity.
    """
    lhs = inner_sigma(dirac_apply(V, U), Up)
    adj = inner_sigma(U, dirac_apply(adjoint_matrix(V), Up))
    bd = boundary_pairing(U, Up)
    return {
        "interior": lhs,
        "adjoint_term": adj,
        "boundary": bd,
        "residual": abs(lhs - adj - bd),
    }


def auxiliary_functional(
    F1: ScalarField,
    F2: ScalarField,
    a: ScalarField,
    b: OneForm,
    A1: OneForm,
    A2: OneForm,
) -> dict:
    """Interior and boundary forms of the reduction functional of the
    factors F_k = e^{i alpha_k} with dbar alpha_k = A_k.

    interior = i * integral of F2 F1^{-1} a (A2 - A1) ^ star(conj b),
    boundary = integral over the boundary of iota*(F2 F1^{-1} a star(conj b));
    the two agree by the Green identity whenever b is antiholomorphic.
    """
    g = F1.grid
    G = F2.values / F1.values
    lam = OneForm(g, np.zeros(g.shape), G * a.values * (A2.c01 - A1.c01))
    two = wedge(lam, hodge_star(b.conj()))
    interior = 1j * two.integrate()

    eit = np.exp(1j * g.theta)
    boundary = _boundary_sum(g, lambda ring: G[ring] * a.values[ring] * np.conj(b.c01[ring]) * eit)
    return {
        "interior": complex(interior),
        "boundary": boundary,
        "difference": abs(complex(interior) - boundary),
    }
