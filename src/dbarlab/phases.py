"""Morse holomorphic phase functions and stationary phase on them.

The workhorse construction: starting from the quadratic base phase
``(z - anchor)^2`` (Morse, with one critical point), squaring the shifted
phase gives a quartic with a prescribed critical point at ``p_hat`` whose
critical Hessians admit a floor in terms of the distance from ``p_hat``
to the exclusion balls around the base phase's critical-value preimages.

Oscillatory integrals ``integral of u e^{2 i psi / h} dA`` with
``psi = Im Phi`` take the phase object Phi itself.  It supplies the samples
of psi, the critical point z_hat inside the amplitude's support and the
Hessian |psi''(z_hat)| = |Phi''(z_hat)|/2, so nothing about psi is
recovered from samples.  The integral is brute quadrature on the field's
grid (the amplitude must be compactly supported in the domain interior);
the leading-order coefficient of the one-critical-point expansion is
calibrated once on ``psi = Im(z^2)`` and frozen below.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .cauchy import quintic_cutoff
from .geometry import (
    Interpolator,
    PolarGrid,
    ScalarField,
    wirtinger,
)

__all__ = [
    "HolomorphicPhase",
    "ExclusionSet",
    "ExclusionError",
    "base_phase",
    "squared_phase",
    "exclusion_set",
    "StationaryPhaseResult",
    "OscillatoryIntegral",
    "bump_window",
    "LEADING_COEFFICIENT",
    "BOUND_COEFFICIENT",
]

# leading coefficient of the one-point stationary-phase expansion with the
# dA measure: integral ~ c * h * u(z0) * e^{2 i psi(z0)/h} / |psi''(z0)|;
# calibrated once on psi = Im(z^2) (see tests), analytically pi/2
LEADING_COEFFICIENT = math.pi / 2.0
# envelope constant for the first-order bound reports
BOUND_COEFFICIENT = 4.0


class ExclusionError(ValueError):
    """Anchor point lies inside an exclusion ball."""


@dataclass(frozen=True)
class ExclusionSet:
    """Union of the open balls of radius sqrt(delta) around the
    critical-value preimages ``centers`` of a phase."""

    centers: tuple
    delta: float

    def contains(self, p):
        """Whether p lies in some ball; elementwise for an array of points."""
        radius = math.sqrt(self.delta)
        none = np.zeros(np.shape(p), dtype=bool)
        return np.logical_or.reduce([none] + [np.abs(p - c) < radius for c in self.centers])


@dataclass(frozen=True)
class HolomorphicPhase:
    """Polynomial holomorphic phase with certified critical-point data.

    ``coeffs`` are polynomial coefficients in increasing powers of z.
    Critical points carry their Hessian values.
    """

    coeffs: np.ndarray
    critical_points: tuple
    hessians: tuple

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def d1(self, z):
        c = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(z, c)

    def im_field(self, grid: PolarGrid) -> ScalarField:
        """psi = Im Phi sampled on a grid."""
        return ScalarField(grid, self(grid.nodes).imag.astype(complex))

    def min_hessian(self) -> float:
        return min(abs(h) for h in self.hessians)


def base_phase(anchor: complex) -> HolomorphicPhase:
    """The quadratic Morse phase (z - anchor)^2."""
    a = complex(anchor)
    coeffs = np.array([a * a, -2.0 * a, 1.0], dtype=complex)
    return HolomorphicPhase(
        coeffs=coeffs,
        critical_points=(a,),
        hessians=(2.0 + 0.0j,),
    )


def exclusion_set(base: HolomorphicPhase, delta: float) -> ExclusionSet:
    """Balls of radius sqrt(delta) around every point where the base phase
    takes one of its critical values."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    pts = []
    for p in base.critical_points:
        shifted = base.coeffs.copy()
        shifted[0] -= base(p)
        roots = np.polynomial.polynomial.polyroots(shifted)
        pts.extend(complex(r) for r in roots)
    # dedupe coincident preimages
    uniq: list[complex] = []
    for p in pts:
        if all(abs(p - q) > 1e-12 for q in uniq):
            uniq.append(p)
    return ExclusionSet(centers=tuple(uniq), delta=delta)


def _newton_polish(phase_coeffs: np.ndarray, z0: complex, steps: int = 8) -> complex:
    d1 = np.polynomial.polynomial.polyder(phase_coeffs)
    d2 = np.polynomial.polynomial.polyder(phase_coeffs, 2)
    z = complex(z0)
    for _ in range(steps):
        g = np.polynomial.polynomial.polyval(z, d1)
        h = np.polynomial.polynomial.polyval(z, d2)
        if abs(h) < 1e-300:
            break
        z -= g / h
    return z


def squared_phase(base: HolomorphicPhase, p_hat: complex, delta: float) -> HolomorphicPhase:
    """The phase (Phi(z) - Phi(p_hat))^2 with certified critical data.

    Requires ``p_hat`` outside the exclusion set of radius sqrt(delta);
    critical points split into the base phase's own critical points and
    the level set {Phi = Phi(p_hat)}, and each carries its exact Hessian;
    a degenerate one is refused.
    """
    ex = exclusion_set(base, delta)
    if ex.contains(p_hat):
        raise ExclusionError(
            f"p_hat={p_hat} lies in the exclusion set: the balls around "
            f"{', '.join(map(str, ex.centers))} (radius {math.sqrt(delta):.4g})"
        )
    w = base(p_hat)
    shifted = base.coeffs.copy()
    shifted[0] -= w
    sq = np.polynomial.polynomial.polymul(shifted, shifted)

    # critical points: roots of Phi' (base case) and of Phi - Phi(p_hat)
    pts = [complex(r) for r in base.critical_points]
    pts += [_newton_polish(sq, complex(r)) for r in np.polynomial.polynomial.polyroots(shifted)]
    # drop duplicates (a base critical point on the level set cannot occur
    # for p_hat outside the exclusion set)
    uniq: list[complex] = []
    for p in pts:
        if all(abs(p - q) > 1e-10 for q in uniq):
            uniq.append(p)

    d2 = np.polynomial.polynomial.polyder(sq, 2)
    hessians = tuple(complex(np.polynomial.polynomial.polyval(p, d2)) for p in uniq)
    min_h = min(abs(h) for h in hessians)
    if min_h == 0.0:
        raise ExclusionError("degenerate critical point; p_hat too close to exclusion set")
    return HolomorphicPhase(
        coeffs=sq,
        critical_points=tuple(uniq),
        hessians=hessians,
    )


# ---------------------------------------------------------------------------
# stationary phase evaluation
# ---------------------------------------------------------------------------


def bump_window(grid: PolarGrid, center: complex, radius: float) -> ScalarField:
    """C^2 window equal to 1 inside half the radius, 0 outside the radius."""
    d = np.abs(grid.nodes - center)
    w = quintic_cutoff((d - 0.5 * radius) / (0.5 * radius))
    return ScalarField(grid, w.astype(complex))


@dataclass(frozen=True)
class StationaryPhaseResult:
    integral: complex
    h: float
    z_hat: complex
    hessian: complex
    bound: float
    leading: complex
    residual: float


def _inside_support(grid: PolarGrid, p: complex, mask: np.ndarray) -> bool:
    d = np.abs(grid.nodes - p)
    j = np.unravel_index(np.argmin(d), d.shape)
    return bool(mask[j])


class OscillatoryIntegral:
    """Oscillatory integral of u e^{2 i psi / h} over the domain, for any h,
    where psi = Im Phi for a holomorphic phase Phi.

    The phase object supplies everything about psi: its samples on the grid,
    the critical point z_hat (the one critical point of Phi inside the
    amplitude's support) and the Hessian |psi''(z_hat)| = |Phi''(z_hat)|/2.
    These, the support checks and the W^{2,inf}-type amplitude size of the
    envelope are computed once for every h.  The amplitude must vanish at the
    boundary (compact support) and its support, where |u| exceeds 1e-6 of
    its maximum, must contain exactly one critical point of Phi.  The
    leading term's u(z_hat) is interpolated once, on the first evaluation;
    psi(z_hat) is the phase's exact value.
    """

    def __init__(self, u: ScalarField, phase: HolomorphicPhase):
        if not isinstance(phase, HolomorphicPhase):
            raise TypeError(f"phase must be a HolomorphicPhase, got {type(phase).__name__}")
        g = u.grid
        amax = u.max_abs()
        if amax > 0:
            edge = np.abs(u.values[g.boundary_rings, :]).max()
            if edge > 1e-4 * amax:
                raise ValueError("amplitude is not compactly supported in the interior")
        support = np.abs(u.values) > 1e-6 * max(amax, 1e-300)

        inside = [
            (p, h)
            for p, h in zip(phase.critical_points, phase.hessians)
            if _inside_support(g, p, support)
        ]
        if len(inside) != 1:
            raise ValueError(
                f"support must contain exactly one critical point of psi, found {len(inside)}"
            )
        [(self.z_hat, hess)] = inside
        self.hessian = 0.5 * abs(hess)
        if self.hessian <= 0:
            raise ValueError("critical point of psi is degenerate")

        # W^{2,inf}-type amplitude size for the envelope report
        du = wirtinger(u, "dz")
        d2 = wirtinger(ScalarField(g, du.c10), "dz")
        self.w2 = max(amax, 2 * np.abs(du.c10).max(), 4 * np.abs(d2.c10).max())
        self.u, self.phase, self.psi = u, phase, phase.im_field(g)

    @functools.cached_property
    def _leading_samples(self) -> tuple[complex, float]:
        u_at = Interpolator(self.u.grid, self.u.values)(self.z_hat)
        return u_at, float(self.phase(self.z_hat).imag)

    def eval(self, h: float) -> StationaryPhaseResult:
        """The integral at h with its first-order envelope C h / delta_eff,
        the calibrated leading term and the measured residual after
        subtracting it."""
        if h <= 0:
            raise ValueError("h must be positive")
        g = self.u.grid
        integrand = self.u.values * np.exp(2j * self.psi.values.real / h)
        integral = complex(np.sum(g.weights * integrand))
        delta_eff = math.sqrt(self.hessian)
        bound = BOUND_COEFFICIENT * h / delta_eff * self.w2
        u_at, psi_at = self._leading_samples
        leading = LEADING_COEFFICIENT * h * u_at * cmath.exp(2j * psi_at / h) / self.hessian
        residual = abs(integral - leading)
        return StationaryPhaseResult(
            integral, h, self.z_hat, self.hessian, bound, leading, residual
        )


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (ignoring zero entries)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if keep.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
