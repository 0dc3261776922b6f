"""Planar domains, polar tensor grids, fields, and complex-analytic calculus.

Everything downstream (Cauchy transforms, forward solvers, CGO machinery)
consumes the types and operators defined here.

Conventions, fixed once and verified by the test suite:

* ``z = x + i y``, ``dz = dx + i dy``, ``dz_bar = dx - i dy`` and hence
  ``dz ^ dz_bar = -2i dx ^ dy``.  A :class:`TwoForm` stores the coefficient
  ``c`` of ``dz ^ dz_bar``; the Euclidean area form corresponds to
  ``c = i/2``.
* Hodge star, on 1- and 2-forms only: ``star(u dz + v dz_bar) = -i u dz +
  i v dz_bar`` and ``star(c dz ^ dz_bar) = -2i c``.  With these choices the
  area form ``(i/2) dz ^ dz_bar`` integrates to the domain area and its
  star is 1, ``star star = -1`` on 1-forms, and the scalar Laplacian below
  is positive.
* The scalar Laplacian is ``laplacian(f) = -(f_xx + f_yy)``; the
  composition ``-2i star d(dbar f)`` reproduces it exactly in the flat
  chart.
* L2 pairings are Hermitian, conjugate-linear in the second slot, with
  ``<dz, dz> = 2 * area``.

Derivatives are spectral in the angle and 4th-order finite differences in
the radius, on values (n_r, n_theta, ...) with any trailing batch axes; on
a disk the radial stencils reach through the center by re-using the
diametrically opposite ray (`PolarGrid._ghost_extend`, the grid's one
rule through the center), so no special center treatment is needed.
`boundary_jet` is `diff_r`'s stencil path on the boundary rings only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Domain",
    "PolarGrid",
    "ScalarField",
    "OneForm",
    "TwoForm",
    "Loop",
    "GridError",
    "disk",
    "annulus",
    "wirtinger",
    "hodge_star",
    "project",
    "exterior_d",
    "codiff",
    "wedge",
    "dbar_star",
    "inner_l2",
    "norm_l2",
    "laplacian",
    "loop_quadrature",
    "circle_loop",
    "Interpolator",
    "save_snapshot",
    "load_snapshot",
]


class GridError(ValueError):
    """Raised for invalid grids, mismatched grids, or out-of-domain data."""


# ---------------------------------------------------------------------------
# domains and grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A disk or annulus in the plane, centred at 0 in a global chart (the
    Cauchy data do not depend on where the chart puts the domain).

    ``r_inner == 0`` means a disk, ``r_inner > 0`` an annulus.
    """

    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0.0 <= self.r_inner < self.r_outer < math.inf:
            raise GridError("need 0 <= r_inner < r_outer < inf")

    @property
    def kind(self) -> str:
        return "disk" if self.r_inner == 0.0 else "annulus"

    def contains(self, z: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(z))
        return (r <= self.r_outer + 1e-9) & (r >= self.r_inner - 1e-9)


def disk(radius: float = 1.0) -> Domain:
    return Domain(0.0, float(radius))


def annulus(r_inner: float, r_outer: float) -> Domain:
    if r_inner <= 0.0:
        raise GridError("annulus requires r_inner > 0")
    return Domain(float(r_inner), float(r_outer))


def _fornberg_weights(x0, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights at x0 on nodes x for every derivative
    order 0..m: (..., n, m + 1) for x0 (...) and x (..., n), so one call
    gives every stencil of a grid.

    Classic recursion (Fornberg 1988); exact for polynomials of degree
    ``n - 1``.
    """
    n = x.shape[-1]
    c = np.zeros(x.shape + (m + 1,))
    c1 = 1.0
    c4 = x[..., 0] - x0
    c[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


# grid nodes per block of the radial-derivative stencil gather
_DIFF_R_BLOCK = 8192


# 4th-order Gregory end corrections for the composite trapezoid rule;
# exact through cubic integrands.
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def _gregory_weights(n_nodes: int, h: float) -> np.ndarray:
    if n_nodes < 7:
        w = np.full(n_nodes, h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w
    w = np.full(n_nodes, h)
    w[:3] = _GREGORY_EDGE * h
    w[-3:] = _GREGORY_EDGE[::-1] * h
    return w


class PolarGrid:
    """Tensor-product polar grid on a disk or annulus.

    Radial nodes are uniformly spaced with the boundary circles exactly on
    grid lines; the disk grid starts one spacing away from the center (the
    center itself is not a node).  ``n_theta`` must be a power of two.
    Quadrature weights approximate ``r dr dtheta`` with 4th-order Gregory
    end corrections, which makes the total weight match the area to
    machine precision.
    """

    def __init__(self, domain: Domain, n_r: int, n_theta: int):
        if n_r < 4:
            raise GridError("n_r too small")
        if domain.kind == "annulus" and n_r < 6:
            raise GridError("an annulus needs n_r >= 6 for the 6-point radial stencil")
        if n_theta < 8 or (n_theta & (n_theta - 1)) != 0:
            raise GridError("n_theta must be a power of two >= 8")
        self.domain = domain
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)

        if domain.kind == "disk":
            self.dr = domain.r_outer / n_r
            self.r = self.dr * np.arange(1, n_r + 1)
        else:
            self.dr = (domain.r_outer - domain.r_inner) / (n_r - 1)
            self.r = domain.r_inner + self.dr * np.arange(n_r)
        self.dtheta = 2.0 * math.pi / n_theta
        self.theta = self.dtheta * np.arange(n_theta)

        eit = np.exp(1j * self.theta)
        self.nodes = self.r[:, None] * eit[None, :]

        # radial quadrature weights for integral of g(r) r dr; on the disk a
        # phantom node at r = 0 carries integrand value 0, so only its
        # Gregory weight is dropped.
        if domain.kind == "disk":
            wr = _gregory_weights(n_r + 1, self.dr)[1:]
        else:
            wr = _gregory_weights(n_r, self.dr)
        self.weights = (wr * self.r)[:, None] * np.full(n_theta, self.dtheta)[None, :]

        # spectral wavenumbers; Nyquist mode dropped for first derivatives
        m = np.fft.fftfreq(n_theta, 1.0 / n_theta)
        self._ik1 = 1j * np.where(np.abs(m) == n_theta // 2, 0.0, m)
        self._mk2 = -(m**2)

        self._stencils = None
        for a in (self.r, self.theta, self.nodes, self.weights):
            a.setflags(write=False)

    # -- structural helpers -------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_theta)

    @property
    def boundary_rings(self) -> tuple[int, ...]:
        """Ring indices of the boundary circles (inner first on an annulus)."""
        if self.domain.kind == "disk":
            return (self.n_r - 1,)
        return (0, self.n_r - 1)

    def boundary_signs(self) -> tuple[int, ...]:
        """Orientation of each boundary circle as part of the boundary."""
        if self.domain.kind == "disk":
            return (1,)
        return (-1, 1)

    def same_as(self, other: "PolarGrid") -> bool:
        return (
            self.domain == other.domain
            and self.n_r == other.n_r
            and self.n_theta == other.n_theta
        )

    def check_same(self, other: "PolarGrid") -> None:
        if not self.same_as(other):
            raise GridError("grid mismatch")

    # -- differentiation ----------------------------------------------------

    def _ghost_extend(self, values: np.ndarray) -> np.ndarray:
        """Prepend four rings through the disk center: value at (-r, t) = (r, t+pi)."""
        rolled = np.roll(values[:4], self.n_theta // 2, axis=1)
        return np.concatenate([rolled[::-1], values], axis=0)

    def _ghost_radii(self) -> np.ndarray:
        """Signed radii of the rings of `_ghost_extend`."""
        return np.concatenate([-self.r[3::-1], self.r])

    def center_value(self, values: np.ndarray) -> np.ndarray:
        """Value at the disk center of each field in values (n_r, n_theta,
        ...): the mean over the n_theta columns of the not-a-knot cubic
        spline through the column, extended through the center, read at
        r = 0.  No direction is preferred, so the value turns with the
        field.  The spline is linear in its data, so the mean is the one
        spline through the ring means."""
        if self.domain.kind != "disk":
            raise GridError("the center is a point of the domain only on a disk")
        x = self._ghost_radii()
        y = self._ghost_extend(values.mean(axis=1, keepdims=True))[:, 0]
        (i,), w = _spline_weights(x, np.zeros(1))
        c = np.stack([y, _spline_curvatures(x, y)])[:, i : i + 2]
        return np.tensordot(w[..., 0], c, axes=2)

    def _radial_stencils(self):
        """6-point radial stencils: the first ring of each node's stencil
        (counting the ghost rings of a disk) and its weights for the first
        and second derivative, (n_r, 6) each."""
        if self._stencils is not None:
            return self._stencils
        x = self._ghost_radii() if self.domain.kind == "disk" else self.r
        n = self.n_r
        width = 6
        j = np.arange(n) + len(x) - n  # past a disk's ghost rings
        lo = np.clip(j - width // 2, 0, len(x) - width)
        c = _fornberg_weights(x[j], x[lo[:, None] + np.arange(width)], 2)
        self._stencils = lo, c[:, :, 1].copy(), c[:, :, 2].copy()
        return self._stencils

    def _apply_radial(self, values: np.ndarray, rings, order: int) -> np.ndarray:
        """Radial derivative (order 1 or 2) of values (n_r, n_theta, ...) on the given rings."""
        lo, d1, d2 = self._radial_stencils()
        first, w = lo[rings], (d1 if order == 1 else d2)[rings]
        v = self._ghost_extend(values) if self.domain.kind == "disk" else values
        rows = sliding_window_view(v.reshape(len(v), -1), w.shape[1], axis=0)
        out = np.empty((len(w), rows.shape[1]), dtype=np.result_type(v, w))
        # gather the (rings, columns, 6) stencil rows a block of rings at a
        # time, so the temporary stays small whatever the grid
        step = max(1, _DIFF_R_BLOCK // rows.shape[1])
        for a in range(0, len(w), step):
            s = slice(a, a + step)
            out[s] = (rows[first[s]] @ w[s, :, None])[..., 0]
        return out.reshape((len(w),) + values.shape[1:])

    def diff_r(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        return self._apply_radial(values, np.arange(self.n_r), order)

    def boundary_jet(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Trace and radial derivative of values (n_r, n_theta, ...) on the
        boundary circles, each of shape (n_boundary, n_theta, ...): the
        boundary rows of `diff_r`."""
        rings = list(self.boundary_rings)
        return values[rings], self._apply_radial(values, rings, 1)

    def diff_theta(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        vhat = np.fft.fft(values, axis=1)
        mult = self._ik1 if order == 1 else self._mk2
        vhat *= mult.reshape((-1,) + (1,) * (vhat.ndim - 2))
        return np.fft.ifft(vhat, axis=1)

    def d_z(self, values: np.ndarray) -> np.ndarray:
        vr = self.diff_r(values)
        vt = self.diff_theta(values)
        eit = np.exp(-1j * self.theta)[None, :]
        return 0.5 * eit * (vr - 1j * vt / self.r[:, None])

    def d_zbar(self, values: np.ndarray) -> np.ndarray:
        vr = self.diff_r(values)
        vt = self.diff_theta(values)
        eit = np.exp(1j * self.theta)[None, :]
        return 0.5 * eit * (vr + 1j * vt / self.r[:, None])


# ---------------------------------------------------------------------------
# fields and forms
# ---------------------------------------------------------------------------


def _as_values(grid: PolarGrid, values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    if v.shape != grid.shape:
        raise GridError(f"values shape {v.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(v)):
        raise GridError("field contains NaN/Inf")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class ScalarField:
    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.grid, self.values))

    def conj(self) -> "ScalarField":
        return ScalarField(self.grid, np.conj(self.values))

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _coerce(self.grid, other))

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * _coerce(self.grid, other))

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def _coerce(grid: PolarGrid, other) -> np.ndarray:
    if isinstance(other, ScalarField):
        grid.check_same(other.grid)
        return other.values
    return np.asarray(other)


@dataclass(frozen=True)
class OneForm:
    """Complex 1-form ``c10 dz + c01 dz_bar`` sampled on a grid."""

    grid: PolarGrid
    c10: np.ndarray
    c01: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c10", _as_values(self.grid, self.c10))
        object.__setattr__(self, "c01", _as_values(self.grid, self.c01))

    @property
    def is_real(self) -> bool:
        scale = max(np.max(np.abs(self.c10)), 1e-300)
        return bool(np.max(np.abs(self.c10 - np.conj(self.c01))) <= 1e-10 * max(scale, 1.0))

    def conj(self) -> "OneForm":
        return OneForm(self.grid, np.conj(self.c01), np.conj(self.c10))

    def __add__(self, other: "OneForm") -> "OneForm":
        self.grid.check_same(other.grid)
        return OneForm(self.grid, self.c10 + other.c10, self.c01 + other.c01)

    def __sub__(self, other: "OneForm") -> "OneForm":
        self.grid.check_same(other.grid)
        return OneForm(self.grid, self.c10 - other.c10, self.c01 - other.c01)


@dataclass(frozen=True)
class TwoForm:
    """Complex 2-form ``c dz ^ dz_bar``; the area form has ``c = i/2``."""

    grid: PolarGrid
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _as_values(self.grid, self.c))

    def integrate(self) -> complex:
        """Integral over the domain; dz^dz_bar = -2i dA."""
        return complex(np.sum(self.grid.weights * self.c) * (-2.0j))


@dataclass(frozen=True)
class Loop:
    """Closed, ordered polyline of complex sample points."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex).copy()
        if s.ndim != 1 or len(s) < 4:
            raise GridError("loop needs at least 4 samples")
        scale = max(np.max(np.abs(s)), 1.0)
        if abs(s[0] - s[-1]) > 1e-9 * scale:
            raise GridError("loop is not closed (first sample != last sample)")
        s[-1] = s[0]
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def length(self) -> float:
        return float(np.sum(np.abs(np.diff(self.samples))))

    def refine(self) -> "Loop":
        """The loop with the midpoint of every segment inserted."""
        s = self.samples
        pts = [s[0]]
        for a, b in zip(s[:-1], s[1:]):
            pts += [a + (b - a) / 2, a + (b - a)]
        return Loop(np.array(pts))


def circle_loop(radius: float, n: int = 512) -> Loop:
    t = np.linspace(0.0, 2.0 * math.pi, n + 1)
    return Loop(radius * np.exp(1j * t))


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

_MIN_NR, _MIN_NTHETA = 8, 16


def wirtinger(f: ScalarField, which: str) -> OneForm:
    """Wirtinger derivative of a scalar field as a pure-type 1-form.

    ``which='dz'`` returns ``(d_z f) dz``; ``which='dzbar'`` returns
    ``(d_zbar f) dz_bar``.  Spectral in theta, 4th-order in r: exact on
    polynomials in z, z_bar through degree 3.
    """
    g = f.grid
    if g.n_r < _MIN_NR or g.n_theta < _MIN_NTHETA:
        raise GridError("grid too coarse for differentiation")
    if which == "dz":
        return OneForm(g, g.d_z(f.values), np.zeros(g.shape))
    if which == "dzbar":
        return OneForm(g, np.zeros(g.shape), g.d_zbar(f.values))
    raise ValueError(f"which must be 'dz' or 'dzbar', got {which!r}")


def project(omega: OneForm) -> OneForm:
    """The (0,1) part ``c01 dz_bar`` of a 1-form."""
    return OneForm(omega.grid, np.zeros(omega.grid.shape), omega.c01)


def hodge_star(obj):
    """Hodge star on 1- and 2-forms (see module docstring)."""
    if isinstance(obj, OneForm):
        return OneForm(obj.grid, -1j * obj.c10, 1j * obj.c01)
    if isinstance(obj, TwoForm):
        return ScalarField(obj.grid, -2j * obj.c)
    raise TypeError(f"cannot apply hodge star to {type(obj).__name__}")


def exterior_d(obj):
    """Exterior derivative of scalar fields and 1-forms."""
    if isinstance(obj, ScalarField):
        g = obj.grid
        return OneForm(g, g.d_z(obj.values), g.d_zbar(obj.values))
    if isinstance(obj, OneForm):
        g = obj.grid
        return TwoForm(g, g.d_z(obj.c01) - g.d_zbar(obj.c10))
    raise TypeError(f"cannot apply d to {type(obj).__name__}")


def codiff(omega: OneForm) -> ScalarField:
    """Codifferential delta = d* on 1-forms: -2(d_zbar c10 + d_z c01)."""
    g = omega.grid
    return ScalarField(g, -2.0 * (g.d_zbar(omega.c10) + g.d_z(omega.c01)))


def dbar_star(omega: OneForm) -> ScalarField:
    """Adjoint of dbar on (0,1)-forms: -2 d_z c01 (= codiff on pure (0,1))."""
    g = omega.grid
    return ScalarField(g, -2.0 * g.d_z(omega.c01))


def wedge(a: OneForm, b: OneForm) -> TwoForm:
    a.grid.check_same(b.grid)
    return TwoForm(a.grid, a.c10 * b.c01 - a.c01 * b.c10)


def laplacian(f: ScalarField) -> ScalarField:
    """Positive Laplacian -(f_xx + f_yy) from the polar stencil.

    The composition -2i star d (dbar f) agrees with it to discretization
    accuracy.
    """
    g = f.grid
    vr = g.diff_r(f.values, 1)
    vrr = g.diff_r(f.values, 2)
    vtt = g.diff_theta(f.values, 2)
    r = g.r[:, None]
    return ScalarField(g, -(vrr + vr / r + vtt / r**2))


def inner_l2(a, b) -> complex:
    """Hermitian L2 pairing, conjugate-linear in the second argument.

    Accepts matching scalar fields, 1-forms or 2-forms only.
    """
    if isinstance(a, ScalarField) and isinstance(b, ScalarField):
        a.grid.check_same(b.grid)
        return complex(np.sum(a.grid.weights * a.values * np.conj(b.values)))
    if isinstance(a, OneForm) and isinstance(b, OneForm):
        a.grid.check_same(b.grid)
        s = a.c10 * np.conj(b.c10) + a.c01 * np.conj(b.c01)
        return complex(2.0 * np.sum(a.grid.weights * s))
    if isinstance(a, TwoForm) and isinstance(b, TwoForm):
        a.grid.check_same(b.grid)
        return complex(4.0 * np.sum(a.grid.weights * a.c * np.conj(b.c)))
    raise TypeError("inner_l2 arguments must be matching-rank objects")


def norm_l2(a) -> float:
    return math.sqrt(max(inner_l2(a, a).real, 0.0))


# ---------------------------------------------------------------------------
# interpolation and line integrals
# ---------------------------------------------------------------------------


def _spline_curvatures(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives M at the nodes x (at least 4) of the not-a-knot
    cubic spline through y along axis 0 (any trailing batch axes).

    Continuity of the first derivative at the interior nodes gives
    h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = 6 (slope[i] -
    slope[i-1]) (de Boor, A Practical Guide to Splines, ch. IV).  The
    not-a-knot conditions make M linear across [x[0], x[2]] and across
    [x[-3], x[-1]]; they eliminate M[0] and M[-1] into the first and last
    of these rows, which leaves a strictly diagonally dominant tridiagonal
    system in M[1:-1], solved without pivoting.  Its elimination depends on
    the knots only; the right-hand sides then take one vector update per
    row in each direction.
    """
    n = len(x)
    h = np.diff(x)
    h0, h1, h_1, h_2 = h[0], h[1], h[-1], h[-2]
    # row k of the system in M[1:-1] (node k + 1): h[k], diag[k], h[k + 1]
    diag = (2.0 * (h[:-1] + h[1:])).tolist()
    lower, upper = h[1:-1].tolist(), h[1:-1].tolist()
    diag[0] += h0 * (h0 + h1) / h1
    upper[0] -= h0**2 / h1
    diag[-1] += h_1 * (h_2 + h_1) / h_2
    lower[-1] -= h_1**2 / h_2
    # rows scaled to a unit pivot: M[k] + up[k] M[k + 1] = d[k] after the
    # forward pass d[k] = rhs[k] / pivot[k] - low[k] d[k - 1]
    pivot, low, up = [diag[0]], [0.0], []
    for k in range(1, n - 2):
        up.append(upper[k - 1] / pivot[k - 1])
        pivot.append(diag[k] - lower[k - 1] * up[k - 1])
        low.append(lower[k - 1] / pivot[k])
    slope = np.diff(y, axis=0) / h.reshape((-1,) + (1,) * (y.ndim - 1))
    M = np.empty(y.shape, dtype=slope.dtype)
    d = M.reshape(n, -1)[1:-1]
    np.subtract(slope[1:], slope[:-1], out=M[1:-1])
    d *= (6.0 / np.array(pivot))[:, None]
    rows = list(d)  # views: each update below is one in-place vector operation
    for k in range(1, n - 2):
        rows[k] -= low[k] * rows[k - 1]
    for k in range(n - 4, -1, -1):
        rows[k] -= up[k] * rows[k + 1]
    M[0] = ((h0 + h1) * M[1] - h0 * M[2]) / h1
    M[-1] = ((h_2 + h_1) * M[-2] - h_1 * M[-3]) / h_2
    return M


def _spline_weights(x: np.ndarray, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval i (m,) and weights w (2, 2, m) of the points xq (m,) in a
    cubic spline on the nodes x: the spline at xq is the sum over p and s
    of w[p, s] times (values, curvatures)[p][i + s]."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    h = x[i + 1] - x[i]
    a = (x[i + 1] - xq) / h
    b = (xq - x[i]) / h
    return i, np.array([[a, b], [(a**3 - a) * h**2 / 6.0, (b**3 - b) * h**2 / 6.0]])


class Interpolator:
    """Bicubic spline evaluation of grid data at off-grid points.

    The not-a-knot cubic spline of `_spline_curvatures` in r and in theta,
    as a tensor product.  The angle axis is extended periodically; on a
    disk the radial axis is extended through the center via the opposite
    ray, so evaluation is accurate arbitrarily close to (and at) the center.
    """

    _WRAP = 4

    def __init__(self, grid: PolarGrid, values: np.ndarray):
        self.grid = grid
        v = np.asarray(values, dtype=complex)
        w = self._WRAP
        r = grid.r
        if grid.domain.kind == "disk":
            v = grid._ghost_extend(v)
            r = grid._ghost_radii()
        self._r = r
        self._theta = np.concatenate(
            [grid.theta[-w:] - 2 * math.pi, grid.theta, grid.theta[:w] + 2 * math.pi]
        )
        # [p, q]: the values (0) or curvatures (1) in r (p) and theta (q)
        c = np.empty((2, 2, len(r), len(self._theta)), dtype=complex)
        c[0, 0] = np.concatenate([v[:, -w:], v, v[:, :w]], axis=1)
        c[1, 0] = _spline_curvatures(r, c[0, 0])
        # the theta splines, with theta moved to axis 0 of a view
        c[:, 1] = np.moveaxis(_spline_curvatures(self._theta, np.moveaxis(c[:, 0], 2, 0)), 0, 2)
        self._c = c

    def __call__(self, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        r = np.abs(zz)
        t = np.mod(np.angle(zz), 2 * math.pi)
        d = self.grid.domain
        if np.any(r > d.r_outer * (1 + 1e-9)) or np.any(r < d.r_inner * (1 - 1e-9)):
            raise GridError("evaluation point outside domain")
        r = np.clip(r, d.r_inner, d.r_outer)
        i, wr = _spline_weights(self._r, r.ravel())
        k, wt = _spline_weights(self._theta, t.ravel())
        s = np.arange(2)
        cells = self._c[:, :, (i[:, None] + s)[:, :, None], (k[:, None] + s)[:, None, :]]
        out = np.einsum("psm,qtm,pqmst->m", wr, wt, cells).reshape(zz.shape)
        return out if out.shape else complex(out)


def loop_quadrature(gamma: Loop, omega: OneForm) -> complex:
    """Line integral of a 1-form along a closed polyline.

    Each segment is integrated by Simpson's rule with bicubically
    interpolated coefficients (trapezoid refined with chord midpoints);
    errors if the loop leaves the domain.
    """
    g = omega.grid
    if not np.all(g.domain.contains(gamma.samples)):
        raise GridError("loop exits the domain")
    s = gamma.samples
    mid = 0.5 * (s[:-1] + s[1:])
    interp10 = Interpolator(g, omega.c10)
    interp01 = Interpolator(g, omega.c01)
    f10, m10 = interp10(s), interp10(mid)
    f01, m01 = interp01(s), interp01(mid)
    dz = np.diff(s)
    simp10 = (f10[:-1] + 4.0 * m10 + f10[1:]) / 6.0
    simp01 = (f01[:-1] + 4.0 * m01 + f01[1:]) / 6.0
    return complex(np.sum(simp10 * dz + simp01 * np.conj(dz)))


# ---------------------------------------------------------------------------
# snapshot I/O
# ---------------------------------------------------------------------------

def save_snapshot(path, form: OneForm) -> None:
    """Write a connection 1-form to the text snapshot container (17
    significant digits).  The header's two center fields are always 0 0:
    every domain is centred at 0."""
    g = form.grid
    d = g.domain
    lines = [f"FIELD v1 oneform {g.n_r} {g.n_theta} {d.r_inner:.17g} {d.r_outer:.17g} 0 0"]
    for b in (form.c10, form.c01):
        for k in range(g.n_theta):
            for j in range(g.n_r):
                v = b[j, k]
                lines.append(f"{v.real:.17g} {v.imag:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path) -> OneForm:
    """Read a 1-form snapshot; reconstructs the grid from the header."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 9 or header[0] != "FIELD" or header[1] != "v1":
            raise GridError("bad snapshot header")
        if header[2] != "oneform":
            raise GridError(f"bad snapshot kind {header[2]!r}: only 'oneform' snapshots are read")
        n_r, n_theta = int(header[3]), int(header[4])
        r_in, r_out = float(header[5]), float(header[6])
        if complex(float(header[7]), float(header[8])) != 0:
            raise GridError(f"snapshot center must be 0 0, got {header[7]} {header[8]}")
        grid = PolarGrid(Domain(r_in, r_out), n_r, n_theta)
        data = np.loadtxt(fh)
    n = n_r * n_theta
    if data.shape != (2 * n, 2):
        raise GridError("snapshot value count does not match header")
    vals = data[:, 0] + 1j * data[:, 1]
    c10, c01 = (vals[i * n : (i + 1) * n].reshape(n_theta, n_r).T for i in range(2))
    return OneForm(grid, c10, c01)
