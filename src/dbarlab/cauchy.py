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
fast for any product rule, are re-integrated on the exact polar geometry:
by the closed-form integral of the kernel over the polar cell (its edge
terms) within 6 cell scales of the target, and by subdivided 2x2 Gauss
farther out.  Near the center of a disk, where whole rings are close to
the target, the corrected zone covers all angles.  Every correction is
stored once, as (target ring, source ring, angular offset, accurate
integral minus product-rule term).

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


def _edge_segment(w, p, q):
    """Contribution of the straight edge p -> q to the contour integral
    of (zeta_bar - w_bar)/(zeta - w) dzeta; broadcasts over its inputs."""
    e = q - p
    c = p - w
    coef = np.conj(c) - (np.conj(e) / e) * c
    # w on the line through the edge: the log term has a zero coefficient
    degenerate = np.abs(coef) < 1e-13 * (np.abs(c) + np.abs(e))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_term = coef * np.log((c + e) / c)
    return np.conj(e) + np.where(degenerate, 0.0, log_term)


def _edge_arc(w, rho, t_a, t_b):
    """Contribution of the circular arc rho*e^{i t}, t from t_a to t_b, to
    the contour integral of (zeta_bar - w_bar)/(zeta - w) dzeta; broadcasts
    over its inputs."""
    w = np.asarray(w)
    za = rho * np.exp(1j * t_a)
    zb = rho * np.exp(1j * t_b)
    at_center = np.abs(w) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # (rho^2/zeta - w_bar)/(zeta - w) = A/zeta + B/(zeta - w)
        A = -(rho**2) / w
        B = (rho**2 - np.abs(w) ** 2) / w
        total = A * 1j * (t_b - t_a)
        # between the arc and its chord, w sees the arc subtend more than pi,
        # one full turn beyond the principal log
        chord = np.conj(zb - za)
        past_chord = (chord * (w - za)).imag * (chord * -za).imag < 0
        turn = np.where((np.abs(w) < rho) & past_chord, 2j * np.pi * np.sign(t_b - t_a), 0.0)
        has_log = np.abs(B) > 1e-13 * rho * (np.abs(w) + rho)
        total = np.where(has_log, total + B * (np.log((zb - w) / (za - w)) + turn), total)
        return np.where(at_center, rho**2 * (1.0 / za - 1.0 / zb), total)


def sector_cauchy_integral(w, r_lo, r_hi, t_lo, t_hi):
    """Exact integral of 1/(w - zeta) dA over the polar cell
    [r_lo, r_hi] x [t_lo, t_hi] (arcs subtending less than pi).

    Valid for w inside, outside, or on the boundary of the cell; reduces
    the area integral to closed-form edge terms.  Broadcasts over its
    inputs, one cell per element; scalar inputs give a scalar.
    """
    a0 = r_lo * np.exp(1j * t_lo)
    a1 = r_hi * np.exp(1j * t_lo)
    b1 = r_hi * np.exp(1j * t_hi)
    b0 = r_lo * np.exp(1j * t_hi)
    total = _edge_segment(w, a0, a1)
    total += _edge_arc(w, r_hi, t_lo, t_hi)
    total += _edge_segment(w, b1, b0)
    total += np.where(r_lo > 0.0, _edge_arc(w, r_lo, t_hi, t_lo), 0.0)
    return -total / 2.0j


# nodes in [-1/2, 1/2] of 2-point Gauss on 4 equal panels; every weight is 1/8
_GAUSS_X = (
    (np.arange(4)[:, None] + 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)) / 4 - 0.5
).ravel()


def _cell_integrals_batch(
    z_t: float, r_lo: np.ndarray, r_hi: np.ndarray, t_centers: np.ndarray, dth: float
) -> np.ndarray:
    """Integrals of 1/(z_t - rho e^{i theta}) rho drho dtheta over the polar
    cells [r_lo, r_hi] x [tc - dth/2, tc + dth/2], one per entry of the
    equally long arrays r_lo, r_hi and t_centers.

    Each cell is subdivided 4 x 4 with 2x2 Gauss on the exact polar
    integrand, so the target must lie well away from every cell.  The loop
    over radial nodes keeps the temporaries at 8 entries per cell.
    """
    e = np.exp(1j * (t_centers[:, None] + dth * _GAUSS_X))
    total = np.zeros(len(t_centers), dtype=complex)
    for x in _GAUSS_X:
        rho = (0.5 * (r_lo + r_hi) + (r_hi - r_lo) * x)[:, None]
        total += (rho / (z_t - rho * e)).sum(axis=1)
    return total * (r_hi - r_lo) * dth / _GAUSS_X.size**2


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

    def _product_rule(self, z_t, m, theta) -> np.ndarray:
        """Product-rule term of the cells of source rings m at angles theta
        seen from target radius z_t: the kernel expanded through the third
        radial moment about the node.  Broadcasts over its inputs; the
        singular self entry (z_t on the node) comes out non-finite.

        With D = z_t - r_m e^{i theta} and t = e^{i theta}/D the moment series
        collapses to m0*G + (m1 + m2*t + m3*t^2)*G1 where G = r_m/D,
        G1 = 1/D + t*G.
        """
        e = np.exp(1j * theta)
        rm = self.grid.r[m]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / (z_t - rm * e)
            t = e * inv
            G = rm * inv
            G1 = inv + t * G
            return self.dtheta * (
                self.m0[m] * G + (self.m1[m] + (self.m2[m] + self.m3[m] * t) * t) * G1
            )

    def _build_near_field(self) -> np.ndarray:
        """Corrections (accurate cell integral minus product-rule term) as a
        flat list sorted by target ring.  Rows in the disk center patch take
        every source ring m < _patch_src at every angle; other rows take the
        rings within _WIN_R at offsets within their window win_t.  Each
        (target ring, source ring, offset) appears at most once.  The
        accurate integral is the exact sector integral within 6 cell scales
        of the target and Gauss subdivision farther out."""
        g = self.grid
        n_r, n_t = g.shape
        dth = self.dtheta
        full = np.arange(-(n_t // 2), n_t // 2)
        parts = []
        for j in range(n_r):
            if j < self._patch_tgt:
                srcs, dks = np.arange(self._patch_src), full
            else:
                kt = int(self.win_t[j])
                srcs = np.arange(max(j - _WIN_R, 0), min(j + _WIN_R + 1, n_r))
                # a window that would wrap takes the full circle, so that
                # no cell is corrected twice
                dks = np.arange(-kt, kt + 1) if 2 * kt < n_t else full
            m, dk = (a.ravel() for a in np.meshgrid(srcs, dks, indexing="ij"))
            z_t, tc = g.r[j], dk * dth
            lo, hi, rm = self.cell_lo[m], self.cell_hi[m], g.r[m]
            near = np.abs(z_t - rm * np.exp(1j * tc)) <= 6.0 * np.maximum(hi - lo, rm * dth)
            far = ~near
            exact = np.empty(m.size, dtype=complex)
            exact[near] = sector_cauchy_integral(
                z_t, lo[near], hi[near], tc[near] - 0.5 * dth, tc[near] + 0.5 * dth
            )
            exact[far] = _cell_integrals_batch(z_t, lo[far], hi[far], tc[far], dth)
            naive = self._product_rule(z_t, m, tc)
            naive[(m == j) & (dk == 0)] = 0.0  # the kernel's self entry is zero
            parts.append((np.full(m.size, j), m, dk % n_t, exact - naive))
        return np.rec.fromarrays([np.concatenate(c) for c in zip(*parts)], dtype=_NEAR_DTYPE)

    def _kernel_block(self, rows: np.ndarray) -> np.ndarray:
        """Mode tables of the kernel for the contiguous target rings `rows`:
        the product rule and the near-field list in angle space, then the
        angular FFT."""
        g = self.grid
        ker = self._product_rule(g.r[rows][:, None, None], np.arange(g.n_r)[:, None], g.theta)
        ker[np.arange(len(rows)), rows, 0] = 0.0  # singular self entry; its cell is in _near
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
        for j in range(n_r):
            naive = self._product_rule(g.r[j], np.arange(n_r)[:, None], g.theta)
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


def primitive_alpha(A: OneForm) -> ScalarField:
    """A Cauchy-transform primitive alpha with dbar alpha = A.

    The transform is taken on a slightly enlarged grid with the data
    continued past the boundary (C^1 continuation tapered to zero), then
    restricted back; this keeps the defining property accurate up to the
    boundary rings.  No free holomorphic function is added beyond this
    fixed recipe, so the result is deterministic.
    """
    _require_type01(A, "primitive_alpha")
    big, rows = extend_grid(A.grid)
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
