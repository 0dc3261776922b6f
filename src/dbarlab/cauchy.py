"""Solid Cauchy transforms: right inverses of dbar and dbar*, and
primitives used to build integrating factors.

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
the target, the re-integrated zone covers all angles.  The accurate cell
integrals replace the product-rule entries of those cells in the mode
tables (below) as they are computed and are not kept.

Because the kernel restricted to a pair of rings depends on the angle
difference only (up to a unimodular factor), the node-to-node sum is a
circular correlation per ring pair, its re-integrated cells included:
after an angular FFT every mode of the source data is contracted over
source rings on its own.  Each target ring keeps exact mode tables (the
product rule with its near cells replaced by their accurate integrals,
then the angular FFT) for a window of nearby source rings: every ring
it re-integrates, and every ring whose radius ratio to it lies
within e^(+-L/n_theta), L = -ln(eps), the range outside of which the
aliased modes of the sampled kernel fall below machine epsilon.  Beyond
the window each mode of the product rule is rank one in (target, source),
from 1/(r - rho e^{i phi}) = sum_q (rho/r)^q e^{i q phi}/r (rho < r) and
its mirror for rho > r, as in Daripa's fast algorithm (SIAM J. Sci. Stat.
Comput. 13 (1992) 1418-1432): a source weight times a power of the radius
ratio.  The far field is then two radial recurrences, outward over the
rings inside the target circle and inward over those outside, stepped by
ratio powers so nothing overflows.  An apply is FFT, the window
contraction, the two sweeps and the inverse FFT: O(n_theta sum_j width_j)
work and memory, where width_j is ring j's own window, after an
O(n_theta log n_theta sum_j width_j) setup.  It matches the direct double
sum to roundoff.

Mirror symmetry.  A table row is a target node on the positive real axis
seen against one source ring; reflection in the real axis maps the cell
at offset -theta onto the cell at +theta, so the row's kernel at -theta is
the conjugate of that at +theta.  This holds for the product rule, the
closed-form sector integral, the symmetric Gauss cells, the near-field
windows and the center patch alike.  So the build integrates only the
offsets 0..n_theta/2 and writes each row's inverse FFT, which is real,
with ``irfft``: the mode tables are float64, and the window contraction
multiplies them into the real and imaginary planes of the source modes.

Normalization is calibrated so the right-inverse identities hold exactly
in the continuum: ``dbar(dbar_inverse(omega)) = omega`` and
``dbar_star(dbar_star_inverse(v)) = v``; the conjugate kernel of the
second transform carries the calibrated factor -1/2.

Domains live in a single global chart, so the plain transform is the
whole right inverse; no chart-assembly smoothing term arises.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .geometry import (
    Domain,
    OneForm,
    PolarGrid,
    ScalarField,
)

__all__ = [
    "CauchyKernelTable",
    "kernel_table",
    "dbar_inverse",
    "dbar_star_inverse",
    "primitive_alpha",
    "extend_grid",
    "quintic_cutoff",
    "reflect_extend",
]

# rings that `extend_grid` adds beyond the outer circle, at the grid's spacing
PAD_RINGS = 8
# radial half-width of the near-field window
_WIN_R = 4
# cap on the angular half-width of the near-field window
_WIN_T_MAX = 8
# the near field reaches out to this many local cell scales
_NEAR_REACH = 2.5


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


def _log1p(z):
    """log(1 + z) for complex z, accurate as |z| -> 0 (numpy's complex
    log1p forms 1 + z and loses the low digits of small z)."""
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)


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
        # A and B ~ rho^2/w cancel as |w| << rho.  There the continuous log
        # is i (t_b - t_a) + log1p(-w/zb) - log1p(-w/za), the last two one
        # log1p of w (zb - za) / (zb (za - w)); with A + B = -w_bar, B times
        # that log1p stays O(rho)
        near = -np.conj(w) * 1j * (t_b - t_a) + B * _log1p(w * (zb - za) / (zb * (za - w)))
        total = np.where(2.0 * np.abs(w) < rho, near, total)
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
    z_t, r_lo: np.ndarray, r_hi: np.ndarray, t_centers: np.ndarray, dth: float
) -> np.ndarray:
    """Integrals of 1/(z_t - rho e^{i theta}) rho drho dtheta over the polar
    cells [r_lo, r_hi] x [tc - dth/2, tc + dth/2], one per entry of the
    equally long arrays r_lo, r_hi and t_centers (and z_t, or one target).

    Each cell is subdivided 4 x 4 with 2x2 Gauss on the exact polar
    integrand, so the target must lie well away from every cell.  The loop
    over radial nodes keeps the temporaries at 8 entries per cell.
    """
    z = np.asarray(z_t)[..., None]
    e = np.exp(1j * (t_centers[:, None] + dth * _GAUSS_X))
    total = np.zeros(len(t_centers), dtype=complex)
    for x in _GAUSS_X:
        rho = (0.5 * (r_lo + r_hi) + (r_hi - r_lo) * x)[:, None]
        total += (rho / (z - rho * e)).sum(axis=1)
    return total * (r_hi - r_lo) * dth / _GAUSS_X.size**2


class CauchyKernelTable:
    """Per-grid quadrature data for the solid Cauchy transform.

    Holds the radial cell moments and, per target ring j, exact mode tables
    for the source rings [start_j, start_j + width_j): the angular FFT of
    the product rule, with every cell the product rule misses replaced by
    its accurate integral (ring j's near field), which enters the tables as
    they are built and is not kept.  By the rows' mirror symmetry each row
    is integrated at the offsets 0..n_theta/2 only and its inverse FFT is
    real (``irfft``).  Ring j's tables are one real (width_j, n_theta)
    block, a view of one shared buffer, so an apply contracts it with one
    contiguous slice of the source planes.  The rings outside
    a ring's window are summed by the two far-field sweeps, whose per-ring
    weights and ratio-power steps depend only on the grid.  Everything is
    built here, once.
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

        # angular half-width of the near-field window per ring: reach a fixed
        # multiple of the radial spacing even where cell arcs are narrow
        arcs = np.maximum(r * self.dtheta, 1e-300)
        k_t = np.ceil(_NEAR_REACH * dr / arcs).astype(int)
        self.win_t = np.clip(k_t, 2, _WIN_T_MAX)

        # center patch: rings of a disk whose window would have to exceed
        # the cap are re-integrated over the full angle instead
        if grid.domain.kind == "disk":
            need = int(np.sum(k_t > _WIN_T_MAX))
            self._patch_tgt = min(max(need, 4), n_r - 1)
            self._patch_src = min(self._patch_tgt + _WIN_R + 2, n_r)
        else:
            self._patch_tgt = self._patch_src = 0

        self._build_window_tables()
        self._build_far_field()
        self._lock = threading.Lock()

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the table holds."""
        arrays = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        arrays += self._tables + list(self._scratch)
        return sum(a.nbytes for a in arrays)

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

    def _near_window(self, j):
        """Near field of target rings j (broadcasts over j): its source rings
        [lo, hi) and its largest angular offset.  In the disk center patch
        that is every ring below _patch_src at every angle; elsewhere the
        rings within _WIN_R at the offsets within win_t, or at every angle
        where win_t would wrap."""
        n_r, n_t = self.grid.shape
        patch = j < self._patch_tgt
        lo = np.where(patch, 0, np.maximum(j - _WIN_R, 0))
        hi = np.where(patch, self._patch_src, np.minimum(j + _WIN_R + 1, n_r))
        kt = self.win_t[j]
        return lo, hi, np.where(patch | (2 * kt >= n_t), n_t // 2, kt)

    def _cell_integrals(self, j, m, dk) -> np.ndarray:
        """Accurate integrals of the cells of source rings m at angular
        offsets dk seen from target rings j, one cell per entry of the
        equally long arrays (j may be a scalar): the exact sector integral
        within 6 cell scales of the target and Gauss subdivision farther
        out."""
        g = self.grid
        dth = self.dtheta
        z_t = np.broadcast_to(g.r[j], np.shape(m))
        tc = dk * dth
        lo, hi, rm = self.cell_lo[m], self.cell_hi[m], g.r[m]
        near = np.abs(z_t - rm * np.exp(1j * tc)) <= 6.0 * np.maximum(hi - lo, rm * dth)
        far = ~near
        exact = np.empty(len(tc), dtype=complex)
        exact[near] = sector_cauchy_integral(
            z_t[near], lo[near], hi[near], tc[near] - 0.5 * dth, tc[near] + 0.5 * dth
        )
        exact[far] = _cell_integrals_batch(z_t[far], lo[far], hi[far], tc[far], dth)
        return exact

    def _near_field(self, j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Near field of target ring j over the full angle, as `apply_direct`
        takes it: source rings, offsets mod n_theta and the accurate cell
        integrals that replace the product rule there, each (source ring,
        offset) at most once; the self cell is among them.  The offsets run
        from minus to plus the largest one, every angle once where the
        window wraps.

        Oracle: it recomputes at every angle the near cells that
        `_build_window_tables` writes into the window tables from half the
        angles, so it checks the tables' near field.  `apply_direct` and
        `test_window_covers_ratio_range_and_near_field` (each window holds
        its near field) use it as the reference;
        `test_window_wider_than_circle_corrects_each_cell_once` and
        `test_self_cell_correction_is_exact_sector` check it in turn."""
        n_t = self.grid.n_theta
        lo, hi, kt = (int(v) for v in self._near_window(j))
        dks = np.arange(-kt, min(kt, n_t - 1 - kt) + 1)
        m, dk = (a.ravel() for a in np.meshgrid(np.arange(lo, hi), dks, indexing="ij"))
        return m, dk % n_t, self._cell_integrals(j, m, dk)

    def _build_window_tables(self) -> None:
        """Window of source rings per target ring and its mode tables.

        Ring j's window [start_j, start_j + width_j) holds every source ring
        of its near field and every ring m with |ln(r_m/r_j)| <= L/n_theta,
        L = -ln(eps); outside it (r_m/r_j)^(+-n_theta) < eps, so the aliased
        modes of the sampled kernel are below roundoff.  Its tables are one
        real (width_j, n_theta) block, row k for source ring start_j + k;
        the blocks are views of one buffer.

        A row's kernel at angle -theta is the conjugate of that at +theta,
        so the rows are integrated at the angles 0..pi only and their
        inverse FFT is real.  The build runs over the offsets k, each pass
        over every ring whose window reaches k: the product rule, then the
        near cells of the ring pairs (j, start_j + k) whose source ring is
        near, at offsets up to the largest of its near field."""
        g = self.grid
        n_r, n_t = g.shape
        r = g.r
        reach = math.exp(-math.log(np.finfo(float).eps) / n_t)
        near_lo, near_hi, near_kt = self._near_window(np.arange(n_r))
        start = np.minimum(np.searchsorted(r, r / reach), near_lo)
        width = np.maximum(np.searchsorted(r, r * reach, side="right"), near_hi) - start
        self._start, self._width = start, width
        ptr = np.cumsum(width) - width
        tables = np.empty((width.sum(), n_t))
        self._tables = np.split(tables, ptr[1:])
        half = g.theta[: n_t // 2 + 1]
        for k in range(width.max()):
            j = np.flatnonzero(width > k)
            m = start[j] + k
            ker = self._product_rule(r[j, None], m[:, None], half)
            # the near cells of each row at the offsets 0..near_kt
            i = np.flatnonzero((near_lo[j] <= m) & (m < near_hi[j]))
            count = near_kt[j[i]] + 1
            i = np.repeat(i, count)
            dk = np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
            ker[i, dk] = self._cell_integrals(j[i], m[i], dk)  # also the singular self entry
            # correlation sum_k F_k g_{k-l} has Fourier symbol fhat_m * ghat_{-m}
            tables[ptr[j] + k] = np.fft.irfft(ker, n=n_t, axis=1, norm="forward")

    def _build_far_field(self) -> None:
        """Weights and ratio-power steps of the far-field sweeps.

        FFT index n carries mode q = -n mod n_theta of rho/(r - rho e^{i theta}).
        For a source ring inside the target circle that mode is (rho/r)^(q+1),
        and the product rule's radial moments make the (target j, source m)
        entry w_in[m, n] (r_m/r_j)^(q+1), with
        w_in = 2 pi sum_p m_p C(q+1, p) r_m^-p.  Outside, mode q = -(s+1),
        s = (n - 1) mod n_theta, is -(r/rho)^s, giving w_out[m, n] (r_j/r_m)^s
        with w_out = -2 pi sum_p m_p C(-s, p) r_m^-p."""
        g = self.grid
        n_r, n_t = g.shape
        r = g.r
        n = np.arange(n_t)
        e_in = (-n) % n_t + 1
        e_out = (n - 1) % n_t
        moments = np.stack([self.m0, self.m1 / r, self.m2 / r**2, self.m3 / r**3], axis=1)
        self._w_in = 2 * math.pi * moments @ _binomials(e_in)
        self._w_out = -2 * math.pi * moments @ _binomials(-e_out)
        # steps between neighbouring rings: (r_{i-1}/r_i)^(q+1), (r_i/r_{i+1})^s
        ratio = (r[:-1] / r[1:])[:, None]
        self._step_in = ratio**e_in
        self._step_out = ratio**e_out
        # jumps from the last ring below a window and the first ring above
        # it to the target; zero where the window reaches the grid's edge
        end = self._start + self._width
        self._below = np.maximum(self._start - 1, 0)
        self._above = np.minimum(end, n_r - 1)
        self._jump_in = (r[self._below] / r)[:, None] ** e_in * (self._start > 0)[:, None]
        self._jump_out = (r / r[self._above])[:, None] ** e_out * (end < n_r)[:, None]
        self._phase = np.exp(-1j * g.theta)[None, :]
        # apply's scratch, overwritten by every call: the window sums of the
        # real and imaginary planes, the planes of fhat (then the inside
        # sweep and the gathered outside rows), and the outside sweep from
        # the lowest ring it reaches
        self._scratch = (
            np.empty((2, n_r, n_t)),
            np.empty((n_r, n_t), dtype=complex),
            np.empty((n_r - self._above.min(), n_t), dtype=complex),
        )

    # -- application ----------------------------------------------------------

    def apply(self, fvals: np.ndarray) -> np.ndarray:
        """(1/pi) * integral of f(zeta)/(z - zeta) dA at every grid node.

        Safe to call from several threads: the table's scratch arrays are
        held under a lock for the whole call, so concurrent applies of one
        table run one after the other."""
        with self._lock:
            fhat = np.fft.fft(np.asarray(fvals, dtype=complex), axis=1)
            n_r, n_t = fhat.shape
            sums, rows, outside = self._scratch
            # the tables are real, so the window contraction runs on the real
            # and imaginary planes of fhat, each product real x real.  The
            # planes are copied to contiguous rows first: contracting the
            # strided views fhat.real / fhat.imag instead, the FFT and the
            # contraction took 0.93 against 0.69 ms at 72x256 and 15.6 against
            # 11.9 ms at 352x256 (one BLAS thread, x86-64).  The copy lives in
            # `rows`, which nothing else may write until the window loop ends.
            planes = rows.reshape(-1).view(float).reshape(2, n_r, n_t)
            np.copyto(planes[0], fhat.real)
            np.copyto(planes[1], fhat.imag)
            for j, (s, tbl) in enumerate(zip(self._start, self._tables)):
                np.einsum("kt,pkt->pt", tbl, planes[:, s : s + len(tbl)], out=sums[:, j])
            # far field: inside[i] sums rings m <= i scaled to ring i,
            # outside[i] rings m >= i; only rings some window leaves out are
            # swept
            inside = np.multiply(self._w_in, fhat, out=rows)
            for i in range(1, self._below.max() + 1):
                inside[i] += self._step_in[i - 1] * inside[i - 1]
            top = self._above.min()
            np.multiply(self._w_out[top:], fhat[top:], out=outside)
            for i in range(len(outside) - 2, -1, -1):
                outside[i] += self._step_out[top + i] * outside[i + 1]
            # fhat is spent: it takes the jump from below, rows the one from
            # above (mode "clip" writes straight into out; "raise" buffers it)
            far = np.take(inside, self._below, axis=0, out=fhat, mode="clip")
            np.multiply(self._jump_in, far, out=far)
            above = np.take(outside, self._above - top, axis=0, out=rows, mode="clip")
            far += np.multiply(self._jump_out, above, out=above)
            far.real += sums[0]
            far.imag += sums[1]
            out = np.fft.ifft(far, axis=1)
            out *= self._phase
            out /= math.pi
            return out

    def apply_direct(self, fvals: np.ndarray) -> np.ndarray:
        """Reference: the dense double sum over every source cell, the
        product rule with ring j's near cells replaced by their accurate
        integrals, each integrated at its own angle over the full circle
        (no mirror symmetry used); small grids only.

        Oracle: it checks `apply`, the FFT, window-table and far-field
        sweep path behind `dbar_inverse`, `dbar_star_inverse`,
        `primitive_alpha` and the CGO series;
        `test_fast_path_matches_direct_sum` uses it as the reference."""
        g = self.grid
        n_r, n_t = g.shape
        f = np.asarray(fvals, dtype=complex)
        out = np.zeros((n_r, n_t), dtype=complex)
        for j in range(n_r):
            ker = self._product_rule(g.r[j], np.arange(n_r)[:, None], g.theta)
            m, k, v = self._near_field(j)
            ker[m, k] = v
            for l in range(n_t):
                out[j, l] = np.sum(ker * np.roll(f, -l, axis=1))
        phase = np.exp(-1j * g.theta)[None, :]
        return out * phase / math.pi


def _binomials(x: np.ndarray) -> np.ndarray:
    """Generalized binomial coefficients C(x, p), p = 0..3, as rows."""
    return np.stack([np.ones_like(x), x, x * (x - 1) / 2, x * (x - 1) * (x - 2) / 6])


def kernel_table(grid: PolarGrid) -> CauchyKernelTable:
    """The kernel table of `grid`, shared by every grid of the same shape
    on the same domain (the three most recently used are kept)."""
    return _cached_table(grid.domain, grid.n_r, grid.n_theta)


@functools.lru_cache(maxsize=3)
def _cached_table(domain: Domain, n_r: int, n_theta: int) -> CauchyKernelTable:
    return CauchyKernelTable(PolarGrid(domain, n_r, n_theta))


def _require_type01(omega: OneForm, what: str) -> None:
    scale = max(np.max(np.abs(omega.c01)), 1.0)
    if np.max(np.abs(omega.c10)) > 1e-12 * scale:
        raise ValueError(f"{what} requires a pure (0,1)-form (c10 = 0)")


def dbar_inverse(omega: OneForm) -> ScalarField:
    """Right inverse of dbar: u with d_zbar u = c01 on the domain interior."""
    _require_type01(omega, "dbar_inverse")
    tbl = kernel_table(omega.grid)
    return ScalarField(omega.grid, tbl.apply(omega.c01))


def _conj_cauchy(tbl: CauchyKernelTable, f: np.ndarray) -> np.ndarray:
    """-1/2 conj(C(conj f)): the conjugate Cauchy kernel scaled by -1/2, the
    unique constant for which dbar* of the (0,1)-form with this c01 is f."""
    return -0.5 * np.conj(tbl.apply(np.conj(f)))


def dbar_star_inverse(v: ScalarField) -> OneForm:
    """Right inverse of dbar*: omega of type (0,1) with dbar* omega = v."""
    return OneForm(v.grid, np.zeros(v.grid.shape), _conj_cauchy(kernel_table(v.grid), v.values))


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


# ---------------------------------------------------------------------------
# extension machinery for the oscillatory inverses
# ---------------------------------------------------------------------------


def extend_grid(grid: PolarGrid) -> tuple[PolarGrid, slice]:
    """Enlarge a grid by `PAD_RINGS` outer rings at the same spacing.

    Returns the enlarged grid and the row slice that restricts fields on
    it back to the original rings.  An annulus is also padded inward, by
    up to `PAD_RINGS` rings as the spacing allows, so the original grid
    sits strictly inside; a disk (r_inner 0) gets no inward pad.
    """
    d = grid.domain
    dr = grid.dr
    pad_in = min(PAD_RINGS, int((d.r_inner - 0.25 * dr) / dr))
    dom = Domain(d.r_inner - pad_in * dr, d.r_outer + PAD_RINGS * dr)
    big = PolarGrid(dom, grid.n_r + PAD_RINGS + pad_in, grid.n_theta)
    return big, slice(pad_in, pad_in + grid.n_r)


def quintic_cutoff(t: np.ndarray) -> np.ndarray:
    """C^2 ramp: 1 at t <= 0 down to 0 at t >= 1 (quintic smoothstep).

    With S(x) = x^3 (10 - 15 x + 6 x^2), the ramp is 1 - S(s) for s <= 1/2
    and S(1 - s) above, so S is only taken on [0, 1/2], where its terms do
    not cancel, and 1 - s is exact; each end is then accurate to a few ulps
    and cutoff(t) + cutoff(1 - t) is 1 to 2 ulps."""
    s = np.clip(t, 0.0, 1.0)
    x = np.minimum(s, 1.0 - s)
    ramp = x**3 * (10.0 + x * (6.0 * x - 15.0))
    return np.where(s <= 0.5, 1.0 - ramp, ramp)


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
    # pad ring k = 1, 2, ... past an edge mirrors ring k in from the edge
    # ring (clamped to the grid) and is tapered by quintic_cutoff(k / pad)
    k = np.arange(1, max(n_out, lo) + 1)
    src = np.minimum(k, n_in - 1)
    above, below = values[n_in - 1 - src[:n_out]], values[src[:lo]]
    if mode == "c1":
        above, below = 2.0 * values[n_in - 1] - above, 2.0 * values[0] - below
    out[hi:] = above * quintic_cutoff(k[:n_out] / n_out)[:, None]
    out[:lo] = (below * quintic_cutoff(k[:lo] / lo)[:, None])[::-1]
    return out
