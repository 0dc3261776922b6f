"""Solid Cauchy transforms: right inverses of dbar and dbar*, Beurling
composition, and primitives used to build integrating factors.

The basic object is the transform

    (C f)(z) = (1/pi) * integral_M f(zeta) / (z - zeta) dA(zeta)

which satisfies ``d_zbar (C f) = f`` at interior points.

Quadrature design.  The far field uses a product rule on the polar cells
with the kernel expanded through third order in the radius about each
node (analytic radial moment corrections), which removes the leading
Euler-Maclaurin boundary terms of the plain midpoint rule; the angular direction needs no
correction because full-circle sums of smooth periodic data are already
spectrally accurate.  Cells near the target, where the kernel varies too
fast for any product rule, are re-integrated by subdivided 2x2 Gauss on
the exact polar geometry, with subcells containing the singularity
replaced by the exact integral of the kernel over a rectangle in locally
straightened coordinates.  Near the center of a disk, where whole rings
are close to the target, the corrected zone covers all angles.  Every
correction is stored once, as (target ring, source ring, angular offset,
accurate integral minus product-rule term).

Because the kernel restricted to a pair of rings depends on the angle
difference only (up to a unimodular factor), the node-to-node sum is a
circular correlation per ring pair, and so are the corrections.  The fast
path adds the corrections into the angle-space kernel, takes its angular
FFT once (the mode tables), and then applies the transform as FFT, one
contraction over source rings and modes, and inverse FFT: O(n_r^2 n_theta)
per apply after an O(n_r^2 n_theta log n_theta) setup.  It evaluates the
same sum as the direct double loop, to roundoff.  Tables over the memory
budget are rebuilt block by block on every apply instead of kept.

Normalization is calibrated so the right-inverse identities hold exactly
in the continuum: ``dbar(dbar_inverse(omega)) = omega`` and
``dbar_star(dbar_star_inverse(v)) = v``; the conjugate kernel of the
second transform carries the calibrated factor -1/2.

Domains live in a single global chart, so the plain transform is the
whole right inverse; no chart-assembly smoothing term arises.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from .geometry import (
    OneForm,
    PolarGrid,
    ScalarField,
    annulus,
    disk,
    wirtinger,
    norm_l2,
)

__all__ = [
    "CauchyKernelTable",
    "kernel_table",
    "rect_cauchy_integral",
    "dbar_inverse",
    "dbar_star_inverse",
    "primitive_alpha",
    "beurling_compose",
    "beurling_norm_report",
    "extend_grid",
    "quintic_cutoff",
    "reflect_extend",
]

# radial half-width of the near-field correction window
_WIN_R = 4
# cap on the angular half-width of the correction window
_WIN_T_MAX = 8
# corrected zone reaches out to this many local cell scales
_NEAR_REACH = 2.5
# cache fast-path mode tables up to this many complex entries (~480 MB)
_CACHE_BUDGET = 3 * 10**7
# one near-field correction: target ring, source ring, offset mod n_theta
_NEAR_DTYPE = np.dtype([("tgt", np.intp), ("src", np.intp), ("off", np.intp), ("val", complex)])


def rect_cauchy_integral(w: complex, a: float, b: float) -> complex:
    """Exact integral of 1/(w - zeta) over the centered a-by-b rectangle.

    ``w`` is the evaluation point relative to the rectangle center; it may
    lie inside, outside, or on the boundary (the singularity is integrable).
    """
    hw, hh = 0.5 * a, 0.5 * b
    corners = [
        complex(-hw, -hh),
        complex(hw, -hh),
        complex(hw, hh),
        complex(-hw, hh),
    ]
    total = 0.0 + 0.0j
    for idx in range(4):
        total += _edge_segment(w, corners[idx], corners[(idx + 1) % 4])
    # integral of dA/(zeta - w) = (1/2i) * contour integral of
    # (zeta_bar - w_bar)/(zeta - w) dzeta; flip sign for 1/(w - zeta)
    return -total / 2.0j


def _edge_segment(w: complex, p: complex, q: complex) -> complex:
    """Contribution of the straight edge p -> q to the contour integral
    of (zeta_bar - w_bar)/(zeta - w) dzeta."""
    e = q - p
    c = p - w
    coef = np.conj(c) - (np.conj(e) / e) * c
    if abs(coef) < 1e-13 * (abs(c) + abs(e)):
        return np.conj(e)
    return np.conj(e) + coef * np.log((c + e) / c)


def _edge_arc(w: complex, rho: float, t_a: float, t_b: float) -> complex:
    """Contribution of the circular arc rho*e^{i t}, t from t_a to t_b, to
    the contour integral of (zeta_bar - w_bar)/(zeta - w) dzeta."""
    za = rho * np.exp(1j * t_a)
    zb = rho * np.exp(1j * t_b)
    if abs(w) < 1e-300:
        return rho**2 * (1.0 / za - 1.0 / zb)
    # (rho^2/zeta - w_bar)/(zeta - w) = A/zeta + B/(zeta - w)
    A = -(rho**2) / w
    B = (rho**2 - abs(w) ** 2) / w
    total = A * 1j * (t_b - t_a)
    if abs(B) > 1e-13 * rho * (abs(w) + rho):
        total += B * np.log((zb - w) / (za - w))
    return total


def sector_cauchy_integral(
    w: complex, r_lo: float, r_hi: float, t_lo: float, t_hi: float
) -> complex:
    """Exact integral of 1/(w - zeta) dA over the polar cell
    [r_lo, r_hi] x [t_lo, t_hi] (arcs subtending less than pi).

    Valid for w inside, outside, or on the boundary of the cell; reduces
    the area integral to closed-form edge terms.
    """
    a0 = r_lo * np.exp(1j * t_lo)
    a1 = r_hi * np.exp(1j * t_lo)
    b1 = r_hi * np.exp(1j * t_hi)
    b0 = r_lo * np.exp(1j * t_hi)
    total = _edge_segment(w, a0, a1)
    total += _edge_arc(w, r_hi, t_lo, t_hi)
    total += _edge_segment(w, b1, b0)
    if r_lo > 0.0:
        total += _edge_arc(w, r_lo, t_hi, t_lo)
    return -total / 2.0j


_GAUSS2 = (np.array([-1.0, 1.0]) / math.sqrt(3.0), np.array([1.0, 1.0]))


def _cell_integrals_batch(
    z_t: float, r_lo: float, r_hi: float, t_centers: np.ndarray, dth: float, nsub: int
) -> np.ndarray:
    """Integrals of 1/(z_t - rho e^{i theta}) rho drho dtheta over the polar
    cells [r_lo, r_hi] x [tc - dth/2, tc + dth/2], one per entry of t_centers.

    Cells are subdivided nsub x nsub with 2x2 Gauss on the exact polar
    integrand; subcells containing the singular point z_t (possible only
    when the cell straddles theta = 0) are replaced by the exact rectangle
    integral in locally straightened coordinates.
    """
    t_centers = np.asarray(t_centers, dtype=float)
    re = np.linspace(r_lo, r_hi, nsub + 1)
    rc = 0.5 * (re[:-1] + re[1:])
    drh = 0.5 * (re[1] - re[0])
    sub_dt = dth / nsub
    toff = (np.arange(nsub) - (nsub - 1) / 2.0) * sub_dt

    xg, wg = _GAUSS2
    # axes: (cell, rho-sub, theta-sub, gauss-rho, gauss-theta)
    rho = rc[None, :, None, None, None] + drh * xg[None, None, None, :, None]
    tht = (
        t_centers[:, None, None, None, None]
        + toff[None, None, :, None, None]
        + 0.5 * sub_dt * xg[None, None, None, None, :]
    )
    ker = rho / (z_t - rho * np.exp(1j * tht))
    ww = np.outer(wg, wg)[None, None, None, :, :]
    contrib = (ker * ww).sum(axis=(3, 4)) * drh * (0.5 * sub_dt)

    if r_lo - 1e-14 <= z_t <= r_hi + 1e-14:
        i_sing = np.nonzero((z_t >= re[:-1] - 1e-14) & (z_t <= re[1:] + 1e-14))[0]
        for ci, tc in enumerate(t_centers):
            t_lo = tc + toff - 0.5 * sub_dt
            t_hi = tc + toff + 0.5 * sub_dt
            k_sing = np.nonzero((0.0 >= t_lo - 1e-14) & (0.0 <= t_hi + 1e-14))[0]
            for i in i_sing:
                for k in k_sing:
                    a = re[i + 1] - re[i]
                    b = rc[i] * sub_dt
                    tcc = tc + toff[k]
                    center = rc[i] * np.exp(1j * tcc)
                    w_loc = (z_t - center) * np.exp(-1j * tcc)
                    contrib[ci, i, k] = np.exp(-1j * tcc) * rect_cauchy_integral(w_loc, a, b)
    return contrib.sum(axis=(1, 2))


class CauchyKernelTable:
    """Per-grid quadrature data for the solid Cauchy transform.

    Holds the radial cell moments and the near-field list: for every
    (target ring, source ring, angular offset) whose cell the product rule
    misses, the difference between the accurate cell integral and the
    product-rule term.  The angle-space kernel of a block of target rings
    is the product rule plus this list, and its angular FFT is the block's
    mode table.  The mode tables of all rings are built on the first apply
    and kept when they fit ``_CACHE_BUDGET`` complex entries; otherwise
    every apply rebuilds them block by block.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        n_r = grid.n_r
        self.dtheta = grid.dtheta
        r = grid.r
        dr = grid.dr

        # radial cell bounds; the innermost disk cell absorbs the center
        lo = np.maximum(r - 0.5 * dr, grid.domain.r_inner)
        hi = np.minimum(r + 0.5 * dr, grid.domain.r_outer)
        if grid.domain.kind == "disk":
            lo[0] = 0.0
        self.cell_lo, self.cell_hi = lo, hi
        # radial moments of each cell about its node (plain drho measure)
        self.m0 = hi - lo
        self.m1 = 0.5 * ((hi - r) ** 2 - (lo - r) ** 2)
        self.m2 = ((hi - r) ** 3 - (lo - r) ** 3) / 3.0
        self.m3 = ((hi - r) ** 4 - (lo - r) ** 4) / 4.0

        # angular half-width of the corrected window per ring: reach a fixed
        # multiple of the radial spacing even where cell arcs are narrow
        arcs = np.maximum(r * self.dtheta, 1e-300)
        k_t = np.ceil(_NEAR_REACH * dr / arcs).astype(int)
        self.win_t = np.clip(k_t, 2, _WIN_T_MAX)

        # center patch: rings of a disk whose window would have to exceed
        # the cap are corrected over the full angle instead
        if grid.domain.kind == "disk":
            need = int(np.sum(k_t > _WIN_T_MAX))
            self._patch_tgt = min(max(need, 4), n_r - 1)
            self._patch_src = min(self._patch_tgt + _WIN_R + 2, n_r)
        else:
            self._patch_tgt = 0
            self._patch_src = 0

        self._near = self._build_near_field()
        self._mode_tables = None

    # -- quadrature pieces ----------------------------------------------------

    def _fused_naive(self, z_t: float, m: int, tc) -> np.ndarray:
        """Far-field product-rule term for source ring m at angular offsets tc:
        kernel expanded through the third radial moment about the node."""
        e = np.exp(1j * np.asarray(tc, dtype=float))
        rm = self.grid.r[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            D = z_t - rm * e
            inv = 1.0 / D
            t = e * inv
            G = rm * inv
            G1 = inv + t * G
            out = self.dtheta * (
                self.m0[m] * G + (self.m1[m] + (self.m2[m] + self.m3[m] * t) * t) * G1
            )
        return out

    def _exact_cells(self, z_t: float, m: int, tcs: np.ndarray) -> np.ndarray:
        """Accurate integrals over the cells of ring m at angular offsets tcs:
        exact sector integrals near the target, Gauss subdivision farther out."""
        out = np.empty(len(tcs), dtype=complex)
        rm = self.grid.r[m]
        rlo, rhi = self.cell_lo[m], self.cell_hi[m]
        dth = self.dtheta
        scale = max(rhi - rlo, rm * dth)
        dist = np.abs(z_t - rm * np.exp(1j * tcs))
        near = dist <= 6.0 * scale
        for i in np.nonzero(near)[0]:
            out[i] = sector_cauchy_integral(
                z_t, rlo, rhi, tcs[i] - 0.5 * dth, tcs[i] + 0.5 * dth
            )
        if (~near).any():
            out[~near] = _cell_integrals_batch(z_t, rlo, rhi, tcs[~near], dth, 4)
        return out

    def _build_near_field(self) -> np.ndarray:
        """Corrections (accurate cell integral minus product-rule term) as a
        flat list sorted by target ring.  Rows in the disk center patch take
        every source ring m < _patch_src at every angle; other rows take the
        rings within _WIN_R at offsets within their window win_t.  Each
        (target ring, source ring, offset) appears at most once."""
        g = self.grid
        n_r, n_t = g.shape
        dth = self.dtheta
        full = np.arange(-(n_t // 2), n_t // 2)
        pairs = []
        for j in range(n_r):
            if j < self._patch_tgt:
                srcs, dks = range(self._patch_src), full
            else:
                kt = int(self.win_t[j])
                srcs = range(max(j - _WIN_R, 0), min(j + _WIN_R + 1, n_r))
                # a window that would wrap takes the full circle, so that
                # no cell is corrected twice
                dks = np.arange(-kt, kt + 1) if 2 * kt < n_t else full
            tcs = dks * dth
            for m in srcs:
                exact = self._exact_cells(g.r[j], m, tcs)
                naive = self._fused_naive(g.r[j], m, tcs)
                if m == j:
                    naive[dks == 0] = 0.0  # the kernel's self entry is zero
                pairs.append((np.full(len(dks), j), np.full(len(dks), m), dks % n_t, exact - naive))
        return np.rec.fromarrays([np.concatenate(c) for c in zip(*pairs)], dtype=_NEAR_DTYPE)

    def _kernel_block(self, rows: np.ndarray) -> np.ndarray:
        """Mode tables of the kernel for the contiguous target rings `rows`:
        the product rule and the near-field list in angle space, then the
        angular FFT.

        With t = e^{i theta}/D the moment series collapses to
        m0*G + (m1 + m2*t + m3*t^2)*G1 where G = rm/D, G1 = 1/D + t*G.
        """
        g = self.grid
        r = g.r
        e = np.exp(1j * g.theta)[None, None, :]
        rm = r[None, :, None]
        D = r[rows][:, None, None] - rm * e
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / D
            t = e * inv
            G = rm * inv
            G1 = inv + t * G
            ker = self.dtheta * (
                self.m0[None, :, None] * G
                + (
                    self.m1[None, :, None]
                    + (self.m2[None, :, None] + self.m3[None, :, None] * t) * t
                )
                * G1
            )
        ker = np.nan_to_num(ker, nan=0.0, posinf=0.0, neginf=0.0)
        for i, j in enumerate(rows):
            ker[i, j, 0] = 0.0  # singular self-entry replaced by its exact cell
        lo, hi = np.searchsorted(self._near["tgt"], [rows[0], rows[-1] + 1])
        near = self._near[lo:hi]
        np.add.at(ker, (near["tgt"] - rows[0], near["src"], near["off"]), near["val"])
        # correlation sum_k F_k g_{k-l} has Fourier symbol fhat_m * ghat_{-m}
        return g.n_theta * np.fft.ifft(ker, axis=2)

    def _kernel_blocks(self):
        """(rows, mode tables of rows) over all target rings, in blocks of
        about _CACHE_BUDGET / 8 complex entries."""
        n_r, n_t = self.grid.shape
        step = max(1, _CACHE_BUDGET // (8 * n_r * n_t))
        for j0 in range(0, n_r, step):
            rows = np.arange(j0, min(j0 + step, n_r))
            yield rows, self._kernel_block(rows)

    def _get_mode_tables(self):
        if self._mode_tables is None:
            n_r, n_t = self.grid.shape
            if n_r * n_r * n_t <= _CACHE_BUDGET:
                self._mode_tables = np.empty((n_r, n_r, n_t), dtype=complex)
                for rows, blk in self._kernel_blocks():
                    self._mode_tables[rows] = blk
            else:
                self._mode_tables = False  # stream per apply
        return self._mode_tables

    # -- application ----------------------------------------------------------

    def apply(self, fvals: np.ndarray) -> np.ndarray:
        """(1/pi) * integral of f(zeta)/(z - zeta) dA at every grid node."""
        g = self.grid
        fhat = np.fft.fft(np.asarray(fvals, dtype=complex), axis=1)
        tables = self._get_mode_tables()
        if tables is not False:
            prod = np.einsum("jmt,mt->jt", tables, fhat)
        else:
            prod = np.empty(g.shape, dtype=complex)
            for rows, blk in self._kernel_blocks():
                prod[rows] = np.einsum("jmt,mt->jt", blk, fhat)
        phase = np.exp(-1j * g.theta)[None, :]
        return np.fft.ifft(prod, axis=1) * phase / math.pi

    def apply_direct(self, fvals: np.ndarray) -> np.ndarray:
        """Reference: the product-rule double sum plus the near-field list,
        one roll per entry; small grids only."""
        g = self.grid
        n_r, n_t = g.shape
        f = np.asarray(fvals, dtype=complex)
        out = np.zeros((n_r, n_t), dtype=complex)
        dks = np.arange(n_t)
        for j in range(n_r):
            naive = np.empty((n_r, n_t), dtype=complex)
            for m in range(n_r):
                naive[m] = self._fused_naive(g.r[j], m, dks * self.dtheta)
            naive[j, 0] = 0.0
            for l in range(n_t):
                rolled = np.roll(f, -l, axis=1)
                out[j, l] = np.sum(naive * rolled)
        for j, m, k, v in self._near:
            out[j] += v * np.roll(f[m], -k)
        phase = np.exp(-1j * g.theta)[None, :]
        return out * phase / math.pi


_TABLE_CACHE: "OrderedDict[tuple, CauchyKernelTable]" = OrderedDict()
_TABLE_CACHE_SIZE = 3


def kernel_table(grid: PolarGrid) -> CauchyKernelTable:
    d = grid.domain
    key = (d.kind, d.r_inner, d.r_outer, d.center, grid.n_r, grid.n_theta)
    tbl = _TABLE_CACHE.get(key)
    if tbl is None:
        tbl = CauchyKernelTable(grid)
        _TABLE_CACHE[key] = tbl
        while len(_TABLE_CACHE) > _TABLE_CACHE_SIZE:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(key)
    return tbl


def _require_type01(omega: OneForm, what: str) -> None:
    scale = max(np.max(np.abs(omega.c01)), 1.0)
    if np.max(np.abs(omega.c10)) > 1e-12 * scale:
        raise ValueError(f"{what} requires a pure (0,1)-form (c10 = 0)")


def dbar_inverse(omega: OneForm) -> ScalarField:
    """Right inverse of dbar: u with d_zbar u = c01 on the domain interior."""
    _require_type01(omega, "dbar_inverse")
    tbl = kernel_table(omega.grid)
    return ScalarField(omega.grid, tbl.apply(omega.c01))


def dbar_star_inverse(v: ScalarField) -> OneForm:
    """Right inverse of dbar*: omega of type (0,1) with dbar* omega = v.

    Uses the conjugate Cauchy kernel scaled by -1/2, the unique constant
    for which dbar*(dbar_star_inverse v) = v under our conventions.
    """
    tbl = kernel_table(v.grid)
    u = tbl.apply(np.conj(v.values))
    return OneForm(v.grid, np.zeros(v.grid.shape), -0.5 * np.conj(u))


def primitive_alpha(A: OneForm, pad_rings: int = 8) -> ScalarField:
    """A Cauchy-transform primitive alpha with dbar alpha = A.

    The transform is taken on a slightly enlarged grid with the data
    continued past the boundary (C^1 continuation tapered to zero), then
    restricted back; this keeps the defining property accurate up to the
    boundary rings.  No free holomorphic function is added beyond this
    fixed recipe, so the result is deterministic.
    """
    _require_type01(A, "primitive_alpha")
    big, rows = extend_grid(A.grid, pad_rings)
    g = reflect_extend(big, rows, A.c01, mode="c1")
    u = kernel_table(big).apply(g)
    return ScalarField(A.grid, u[rows])


def beurling_compose(omega: OneForm) -> OneForm:
    """d(dbar_inverse omega): the Beurling-type composition, a (1,0)-form."""
    return wirtinger(dbar_inverse(omega), "dz")


def beurling_norm_report(grid: PolarGrid, num_samples: int = 64, seed: int = 0) -> dict:
    """Sampled L2 -> L2 ratio of the Beurling composition on random smooth data.

    Returns the per-sample ratios and their max; a bounded max is the
    numerical signature of L2 boundedness.
    """
    rng = np.random.default_rng(seed)
    z = (grid.nodes - grid.domain.center) / grid.domain.r_outer
    ratios = []
    for _ in range(num_samples):
        coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        vals = np.zeros(grid.shape, dtype=complex)
        for a in range(4):
            for b in range(4):
                vals += coeffs[a, b] * z**a * np.conj(z) ** b
        om = OneForm(grid, np.zeros(grid.shape), vals)
        ratios.append(norm_l2(beurling_compose(om)) / norm_l2(om))
    ratios = np.array(ratios)
    return {
        "sample_max": float(ratios.max()),
        "sample_mean": float(ratios.mean()),
        "num_samples": num_samples,
        "ratios": ratios,
    }


# ---------------------------------------------------------------------------
# extension machinery for the oscillatory inverses
# ---------------------------------------------------------------------------


def extend_grid(grid: PolarGrid, pad_rings: int = 8) -> tuple[PolarGrid, slice]:
    """Enlarge a grid by `pad_rings` outer rings at the same spacing.

    Returns the enlarged grid and the row slice that restricts fields on
    it back to the original rings.  An annulus is also padded inward when
    the spacing allows, so the original grid sits strictly inside.
    """
    d = grid.domain
    dr = grid.dr
    if d.kind == "disk":
        n_new = grid.n_r + pad_rings
        dom = disk(d.r_outer + pad_rings * dr, d.center)
        big = PolarGrid(dom, n_new, grid.n_theta)
        return big, slice(0, grid.n_r)
    pad_in = min(pad_rings, int((d.r_inner - 0.25 * dr) / dr))
    r_in = d.r_inner - pad_in * dr
    dom = annulus(r_in, d.r_outer + pad_rings * dr, d.center)
    big = PolarGrid(dom, grid.n_r + pad_rings + pad_in, grid.n_theta)
    return big, slice(pad_in, pad_in + grid.n_r)


def quintic_cutoff(t: np.ndarray) -> np.ndarray:
    """C^2 ramp: 1 at t <= 0 down to 0 at t >= 1 (quintic smoothstep)."""
    s = np.clip(t, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def reflect_extend(
    big: PolarGrid, rows: slice, values: np.ndarray, mode: str = "even"
) -> np.ndarray:
    """Continue grid data onto the padding rings of an enlarged grid.

    ``mode='even'`` reflects radially about each boundary ring;
    ``mode='c1'`` uses the C^1 continuation 2*f(edge) - f(reflected).
    Either way the continuation is tapered to zero across the pad by a
    C^2 cutoff, so the result is compactly supported in the enlargement.
    """
    if mode not in ("even", "c1"):
        raise ValueError(f"unknown extension mode {mode!r}")
    n_big, n_in = big.n_r, values.shape[0]
    out = np.zeros((n_big, big.n_theta), dtype=complex)
    out[rows] = values
    lo, hi = rows.start, rows.stop
    n_out = n_big - hi
    for k in range(n_out):
        src = min(k + 1, n_in - 1)
        mirror = values[n_in - 1 - src]
        out[hi + k] = (2.0 * values[n_in - 1] - mirror) if mode == "c1" else mirror
    for k in range(lo):
        src = min(k + 1, n_in - 1)
        mirror = values[src]
        out[lo - 1 - k] = (2.0 * values[0] - mirror) if mode == "c1" else mirror
    taper = np.ones(n_big)
    if n_out > 0:
        taper[hi:] = quintic_cutoff(np.arange(1, n_out + 1) / n_out)
    if lo > 0:
        taper[lo - 1 :: -1] = quintic_cutoff(np.arange(1, lo + 1) / lo)
    return out * taper[:, None]
