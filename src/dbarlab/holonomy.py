"""Loop integrals of connection differences, winding integrals of ratio
fields, and the mod-2pi holonomy defect.

Winding integrals are computed from principal-branch logarithm increments
along the loop samples, with automatic refinement until each increment
stays well below pi; closed loops then telescope to an exact integer
multiple of 2 pi i, immune to quadrature drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Interpolator,
    Loop,
    OneForm,
    ScalarField,
    exterior_d,
    loop_quadrature,
)

__all__ = [
    "HolonomyReport",
    "holonomy_defect",
    "theta_field",
    "theta_decomposition",
    "winding_integral",
    "gauge_residual",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HolonomyReport:
    loop: Loop
    integral: float
    nearest_k: int
    defect: float
    transport: complex


def holonomy_defect(X1: OneForm, X2: OneForm, gamma: Loop) -> HolonomyReport:
    """Distance of the loop integral of X1 - X2 from the lattice 2 pi Z."""
    X1.grid.check_same(X2.grid)
    diff = X1 - X2
    val = loop_quadrature(gamma, diff)
    if abs(val.imag) > 1e-6 * max(abs(val), 1.0):
        raise ValueError("holonomy defect requires real connection forms")
    integral = float(val.real)
    k = int(round(integral / TWO_PI))
    defect = abs(integral - TWO_PI * k)
    transport = complex(np.exp(1j * integral))
    return HolonomyReport(
        loop=gamma, integral=integral, nearest_k=k, defect=defect, transport=transport
    )


def theta_field(F1: ScalarField, F2: ScalarField) -> ScalarField:
    """Pointwise ratio F1 / F2 (F2 must be bounded away from zero)."""
    F1.grid.check_same(F2.grid)
    if float(np.min(np.abs(F2.values))) < 1e-12:
        raise ValueError("F2 vanishes; ratio field undefined")
    return ScalarField(F1.grid, F1.values / F2.values)


def theta_decomposition(theta_ratio: ScalarField) -> tuple[ScalarField, float]:
    """Deviation of the ratio from unimodularity:
    theta := conj(ratio)^{-1} - ratio, returned with its sup norm."""
    vals = theta_ratio.values
    pert = 1.0 / np.conj(vals) - vals
    f = ScalarField(theta_ratio.grid, pert)
    return f, float(np.max(np.abs(pert)))


def winding_integral(theta_ratio: ScalarField, gamma: Loop) -> dict:
    """Integral of d(ratio)/ratio along a closed loop.

    Computed as the telescoping sum of principal-branch log increments of
    interpolated samples; the loop is doubled (at most 12 times) until
    every increment is below pi/2, so the result is an exact multiple of
    2 pi i up to interpolation error.
    """
    g = theta_ratio.grid
    interp = Interpolator(g, theta_ratio.values)
    loop = gamma
    for _ in range(12):
        vals = interp(loop.samples)
        if float(np.min(np.abs(vals))) < 1e-6:
            raise ValueError("ratio field vanishes near the loop")
        ratios = vals[1:] / vals[:-1]
        steps = np.angle(ratios)
        if np.max(np.abs(steps)) < 0.5 * math.pi:
            break
        loop = loop.refine()
    else:
        raise ValueError("loop increments did not settle below pi/2 under refinement")
    value = complex(np.sum(np.log(ratios)))
    k = int(round(value.imag / TWO_PI))
    return {"value": value, "winding": k, "distance": abs(value - TWO_PI * 1j * k)}


def gauge_residual(X1: OneForm, X2: OneForm, theta_ratio: ScalarField) -> tuple[OneForm, float]:
    """Residual 1-form i(X1 - X2) - d(ratio)/ratio and its sup norm."""
    g = theta_ratio.grid
    X1.grid.check_same(g)
    dTheta = exterior_d(theta_ratio)
    vals = theta_ratio.values
    resid = OneForm(
        g,
        1j * (X1.c10 - X2.c10) - dTheta.c10 / vals,
        1j * (X1.c01 - X2.c01) - dTheta.c01 / vals,
    )
    return resid, float(np.max(resid.pointwise_norm()))
