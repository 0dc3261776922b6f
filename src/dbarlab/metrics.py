"""Boundary Sobolev norms, Cauchy-data distances, and the holomorphic
defect of boundary traces on the disk.

All boundary data lives in truncated Fourier form, one coefficient row
per boundary circle, modes n = -N..N.  The H^s norm is the exact
multiplier norm on the truncation:

    ||f||_{H^s}^2 = sum over circles and modes of (1 + n^2)^s |f_n|^2.

The scalar Cauchy-data distance normalizes differences by the H^{1/2}
size of the first trace; ensembles of Cauchy pairs are compared either
through the H^{1/2} -> H^{-1/2} operator-norm surrogate or through the
sup-inf construction with a least-squares inner minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundaryTrace",
    "boundary_norm",
    "pair_distance",
    "ensemble_distance",
    "holomorphic_defect",
    "holo_project",
    "trace_from_samples",
    "truncation_modes",
]


@dataclass(frozen=True)
class BoundaryTrace:
    """Fourier coefficients (circles x modes), modes ordered n = -N..N.
    Trailing axes, if any, index a batch of traces."""

    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[None, :]
        if c.shape[1] != 2 * self.order + 1:
            raise ValueError("coefficient count does not match order")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_circles(self) -> int:
        return self.coeffs.shape[0]

    def __sub__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        if other.order != self.order or other.n_circles != self.n_circles:
            raise ValueError("trace truncation mismatch")
        return BoundaryTrace(self.order, self.coeffs - other.coeffs)

    def __add__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        if other.order != self.order or other.n_circles != self.n_circles:
            raise ValueError("trace truncation mismatch")
        return BoundaryTrace(self.order, self.coeffs + other.coeffs)

    def scaled(self, c: complex) -> "BoundaryTrace":
        return BoundaryTrace(self.order, c * self.coeffs)

    def is_real(self) -> bool:
        flipped = np.conj(self.coeffs[:, ::-1])
        scale = max(np.max(np.abs(self.coeffs)), 1e-300)
        return bool(np.max(np.abs(self.coeffs - flipped)) <= 1e-10 * scale)


def truncation_modes(order: int, n_theta: int) -> np.ndarray:
    """The Fourier modes -order..order kept from n_theta angular samples.

    They fit only when order >= 0 and 2 order + 1 <= n_theta; past that the
    top and bottom modes alias."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if 2 * order + 1 > n_theta:
        raise ValueError(
            f"order exceeds the sample bandwidth: order {order} needs "
            f"n_theta >= {2 * order + 1}, got {n_theta}"
        )
    return np.arange(-order, order + 1)


def trace_from_samples(samples: np.ndarray, order: int) -> BoundaryTrace:
    """Truncated Fourier coefficients of per-circle angular samples
    (circles x angles, then any trailing axes)."""
    s = np.asarray(samples, dtype=complex)
    if s.ndim == 1:
        s = s[None, :]
    n = s.shape[1]
    modes = truncation_modes(order, n)
    full = np.fft.fft(s, axis=1) / n
    return BoundaryTrace(order, full[:, modes % n])


def _weights(order: int, s: float) -> np.ndarray:
    n = np.arange(-order, order + 1)
    return (1.0 + n.astype(float) ** 2) ** (s / 2.0)


def boundary_norm(t: BoundaryTrace, s: float) -> float:
    """The H^s norm of a truncated trace."""
    w = _weights(t.order, s)
    return math.sqrt(float(np.sum((w[None, :] * np.abs(t.coeffs)) ** 2)))


def pair_distance(p1, p2) -> float:
    """Cauchy-pair distance (||f1-f2||_{1/2} + ||g1-g2||_{-1/2}) / ||f1||_{1/2}."""
    f1, g1 = p1.f, p1.g
    f2, g2 = p2.f, p2.g
    den = boundary_norm(f1, 0.5)
    if den == 0.0:
        raise ValueError("pair_distance needs a nonzero first trace")
    return (
        boundary_norm(f1 - f2, 0.5) + boundary_norm(g1 - g2, -0.5)
    ) / den


# ---------------------------------------------------------------------------
# ensemble distances
# ---------------------------------------------------------------------------


def _stacked_weights(dtn_like, s: float) -> np.ndarray:
    n_c = len(dtn_like.circles)
    return np.tile(_weights(dtn_like.order, s), n_c)


def _surrogate(d1, d2) -> float:
    wp = _stacked_weights(d1, 0.5)
    wm = _stacked_weights(d1, -0.5)
    diff = (d1.matrix - d2.matrix) * (wm[:, None] / wp[None, :])
    return float(np.linalg.svd(diff, compute_uv=False)[0])


def _sup_inf_one_sided(d1, d2) -> float:
    """sup over basis data of ensemble 1 of the inf over the span of
    ensemble 2, evaluated through the normal equations (diagonal shifted by
    1e-12).  Row k of F2 holds
    the least-squares span coefficients for basis datum k; the matched-data
    candidate f2 = f1 bounds each inf from above."""
    wp = _stacked_weights(d1, 0.5)
    wm = _stacked_weights(d1, -0.5)
    W1 = wp**2
    Wm = wm**2
    L1, L2 = d1.matrix, d2.matrix
    A = np.diag(W1) + L2.conj().T @ (Wm[:, None] * L2)
    A += 1e-12 * np.eye(A.shape[0])
    # one basis datum per row; contiguous rows keep numpy's pairwise sums
    F2 = np.linalg.solve(A, np.diag(W1) + L2.conj().T @ (Wm[:, None] * L1)).T.copy()
    G1, H2 = L1.T.copy(), L2.T.copy()
    least_squares = np.sqrt(np.sum(W1 * np.abs(np.eye(len(W1)) - F2) ** 2, axis=1)) + np.sqrt(
        np.sum(Wm * np.abs(G1 - F2 @ H2) ** 2, axis=1)
    )
    matched = np.sqrt(np.sum(Wm * np.abs(G1 - H2) ** 2, axis=1))
    return float(np.max(np.minimum(least_squares, matched) / np.sqrt(W1)))


def ensemble_distance(dtn1, dtn2, mode: str = "surrogate") -> float:
    """Distance between Cauchy-data ensembles given as DtN matrices.

    ``surrogate``: H^{1/2} -> H^{-1/2} operator norm of the difference,
    an upper bound for the sup-inf at matched Dirichlet data, and symmetric:
    swapping the ensembles only flips the sign of the difference.
    ``sup_inf``: for each basis datum of one ensemble, minimize the pair
    distance over the span of the other, then symmetrize over the two
    orderings; converges to the surrogate from below.
    """
    if dtn1.order != dtn2.order or dtn1.circles != dtn2.circles:
        raise ValueError("DtN truncation mismatch")
    if mode == "surrogate":
        return _surrogate(dtn1, dtn2)
    if mode == "sup_inf":
        return max(_sup_inf_one_sided(dtn1, dtn2), _sup_inf_one_sided(dtn2, dtn1))
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# holomorphic defect on the disk
# ---------------------------------------------------------------------------


def holomorphic_defect(t: BoundaryTrace) -> float:
    """The l2 norm of the negative-frequency content of a disk trace.

    Pairing a trace against the boundary values of antiholomorphic
    1-forms isolates the modes e^{-i m theta}, m >= 1; a trace extends
    holomorphically iff they all vanish.
    """
    if t.n_circles != 1:
        raise ValueError("holomorphic defect is defined for disk traces only")
    neg = t.coeffs[0, : t.order][::-1]  # coefficients for n = -1, -2, ...
    return float(np.sqrt(np.sum(np.abs(neg) ** 2)))


def holo_project(t: BoundaryTrace):
    """Zero the negative modes and return the power-series extension.

    Returns (projected trace, G) with G the callable extension
    G(z) = sum f_n z^n of a trace on the unit circle.
    """
    if t.n_circles != 1:
        raise ValueError("holo_project is defined for disk traces only")
    proj = t.coeffs.copy()
    proj[0, : t.order] = 0.0
    ptrace = BoundaryTrace(t.order, proj)
    pos = proj[0, t.order :]

    def G(z):
        return np.polynomial.polynomial.polyval(np.asarray(z), pos)

    return ptrace, G
