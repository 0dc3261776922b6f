import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab import geometry as geo
from dbarlab import cauchy as cau


@pytest.fixture(scope="module")
def grid():
    return geo.PolarGrid(geo.disk(1.0), 128, 128)


def rel_l2(grid, err, ref):
    num = np.sqrt(np.sum(grid.weights * np.abs(err) ** 2))
    den = np.sqrt(np.sum(grid.weights * np.abs(ref) ** 2))
    return num / den


# -- closed-form kernel integrals ----------------------------------------------


def brute_cell(w, rlo, rhi, tlo, thi, n=1200):
    r = np.linspace(rlo, rhi, n + 1)
    r = 0.5 * (r[:-1] + r[1:])
    t = np.linspace(tlo, thi, n + 1)
    t = 0.5 * (t[:-1] + t[1:])
    R, T = np.meshgrid(r, t, indexing="ij")
    Zc = R * np.exp(1j * T)
    d = w - Zc
    ok = np.abs(d) > 1e-12
    return np.sum(np.where(ok, R / np.where(ok, d, 1.0), 0.0)) * (rhi - rlo) / n * (thi - tlo) / n


@pytest.mark.parametrize(
    "case",
    [
        (0.5 + 0j, 0.49, 0.51, -0.02, 0.02),  # singular point at the node
        (0.5 + 0j, 0.51, 0.53, 0.02, 0.06),  # nearby regular cell
        (0.0078125 + 0j, 0.0, 0.0117, -0.0245, 0.0245),  # center-absorbing cell
        (1.0 + 0j, 0.99, 1.0, -0.02, 0.02),  # node on the outer arc
        (0.5545 + 0j, 0.51, 0.599, -0.3927, 0.3927),  # node between outer arc and chord
        (0.55 + 0.05j, 0.6, 1.0, -0.6, 0.6),  # point between inner arc and chord
    ],
)
def test_sector_integral_against_brute(case):
    w = case[0]
    exact = cau.sector_cauchy_integral(*case)
    b1 = brute_cell(*case, n=1000)
    b2 = brute_cell(*case, n=2000)
    # brute force converges towards the closed form
    assert abs(exact - b2) <= abs(exact - b1) + 1e-12
    assert abs(exact - b2) < 5e-5


def _edge_distance(w, r_lo, r_hi, t_edges):
    """Distance from w to the circles r_lo, r_hi and to the radial edges at
    the angles t_edges of a polar cell."""
    d = [abs(abs(w) - r_lo), abs(abs(w) - r_hi)]
    for t in t_edges:
        u = np.exp(1j * t)
        s = np.clip((np.conj(u) * w).real, r_lo, r_hi)
        d.append(abs(w - s * u))
    return min(d)


@st.composite
def _cell_and_point(draw):
    """(w, r_lo, r_hi, t_lo, t_hi): a polar cell with arcs under pi and a
    point around it, inside it, or at the center."""
    r_lo = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    r_hi = r_lo + draw(st.floats(0.01, 1.0))
    t_lo = draw(st.floats(-4.0, 4.0))
    dt = draw(st.floats(0.01, 3.0))
    # the arc terms lose about log10(r_hi/|w|) digits to cancellation as w
    # nears the center, so |w| >= 1e-3 r_hi unless w is the center
    s = draw(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)))
    w = s * r_hi * np.exp(1j * (t_lo + draw(st.floats(-0.5, 1.5)) * dt))
    return w, r_lo, r_hi, t_lo, t_lo + dt


@settings(max_examples=200, deadline=None)
@given(st.lists(_cell_and_point(), min_size=1, max_size=20))
def test_sector_integral_array_matches_scalar(cases):
    args = [np.array(a) for a in zip(*cases)]
    got = cau.sector_cauchy_integral(*args)
    want = [cau.sector_cauchy_integral(*c) for c in cases]
    assert got.shape == (len(cases),)
    # roundoff of the arc terms, which reach r_hi^2/|w| near the center
    assert np.all(np.abs(got - want) <= 1e-12 * args[2])


@settings(max_examples=300, deadline=None)
@given(_cell_and_point(), st.floats(0.05, 0.95))
def test_sector_integral_splits_in_angle(case, frac):
    w, r_lo, r_hi, t_lo, t_hi = case
    t_mid = t_lo + frac * (t_hi - t_lo)
    # keep w off every edge, where the log terms sit on their branch cut
    if _edge_distance(w, r_lo, r_hi, (t_lo, t_mid, t_hi)) < 1e-6:
        return
    whole = cau.sector_cauchy_integral(w, r_lo, r_hi, t_lo, t_hi)
    parts = cau.sector_cauchy_integral(
        w, np.array([r_lo, r_lo]), r_hi, np.array([t_lo, t_mid]), np.array([t_mid, t_hi])
    )
    assert abs(parts.sum() - whole) <= 1e-9 * (1.0 + abs(whole))


@pytest.mark.parametrize(
    "domain, n_r, n_theta, seed",
    [
        (geo.disk(1.0), 24, 32, 3),
        (geo.annulus(0.5, 1.2), 20, 32, 4),
        (geo.disk(1.0), 16, 16, 5),  # the center patch covers 10 of 16 rings
        (geo.annulus(0.05, 1.0), 16, 16, 6),  # ring 0's +-8 window spans the circle
    ],
    ids=["disk", "annulus", "disk-16", "annulus-full-circle-window"],
)
def test_fast_path_matches_direct_sum(domain, n_r, n_theta, seed):
    g = geo.PolarGrid(domain, n_r, n_theta)
    tbl = cau.CauchyKernelTable(g)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    assert np.max(np.abs(tbl.apply(f) - tbl.apply_direct(f))) < 1e-10


def test_window_wider_than_circle_corrects_each_cell_once():
    """Ring 0's window (+-8 cells) is wider than its 8-cell circle.  Each cell
    must be corrected once: a wrapped offset of +-n_theta lands on the self
    cell, where the product rule is near-singular."""
    r_in = 0.02
    g = geo.PolarGrid(geo.annulus(r_in, 1.0), 12, 8)
    tbl = cau.CauchyKernelTable(g)
    assert 2 * tbl.win_t[0] > g.n_theta
    near = tbl._near
    keys = near["tgt"] * g.n_r * g.n_theta + near["src"] * g.n_theta + near["off"]
    assert len(np.unique(keys)) == len(keys)
    # C(1)(z) = conj(z) - r_in^2 / z on the annulus
    want = np.conj(g.nodes) - r_in**2 / g.nodes
    assert np.max(np.abs(tbl.apply(np.ones(g.shape)) - want)) < 1e-2


@pytest.mark.parametrize(
    "domain, n_r, n_theta",
    [(geo.disk(1.0), 24, 32), (geo.annulus(0.5, 1.2), 20, 32)],
    ids=["disk", "annulus"],
)
def test_streamed_apply_matches_cached(monkeypatch, domain, n_r, n_theta):
    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    cached = cau.CauchyKernelTable(g)
    want = cached.apply(f)
    assert isinstance(cached._mode_tables, np.ndarray)
    # a budget below n_r^2 n_theta streams, here in blocks of 2 target rings
    monkeypatch.setattr(cau, "_CACHE_BUDGET", 16 * n_r * n_theta)
    streamed = cau.CauchyKernelTable(g)
    got = streamed.apply(f)
    assert streamed._mode_tables is False
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -- dbar_inverse -----------------------------------------------------------------


def test_dbar_inverse_zero(grid):
    om = geo.OneForm(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    assert geo.norm_l2(cau.dbar_inverse(om)) == 0.0


def test_dbar_inverse_refuses_10_part(grid):
    om = geo.OneForm(grid, np.ones(grid.shape), np.ones(grid.shape))
    with pytest.raises(ValueError):
        cau.dbar_inverse(om)


def test_disk_indicator_is_zbar(grid):
    om = geo.OneForm(grid, np.zeros(grid.shape), np.ones(grid.shape))
    u = cau.dbar_inverse(om)
    # kernel antisymmetry: value near the origin ~ 0, z bar branch elsewhere
    assert np.max(np.abs(u.values - np.conj(grid.nodes))) < 1e-3
    j = int(np.argmin(np.abs(grid.r - 0.5)))
    assert abs(u.values[j, 0] - 0.5) < 1e-3


def test_right_inverse_property(grid):
    Z = grid.nodes
    fv = np.exp(-8 * np.abs(Z - 0.2) ** 2) * (1 + 0.3j * Z)
    om = geo.OneForm(grid, np.zeros(grid.shape), fv)
    du = geo.wirtinger(cau.dbar_inverse(om), "dzbar")
    assert rel_l2(grid, du.c01 - fv, fv) < 1e-2


def test_right_inverse_refinement_order():
    errs = []
    for n in (64, 128):
        g = geo.PolarGrid(geo.disk(1.0), n, n)
        fv = np.exp(-8 * np.abs(g.nodes - 0.2) ** 2)
        om = geo.OneForm(g, np.zeros(g.shape), fv)
        du = geo.wirtinger(cau.dbar_inverse(om), "dzbar")
        errs.append(rel_l2(g, du.c01 - fv, fv))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.5


# -- dbar_star_inverse -------------------------------------------------------------


def test_dbar_star_inverse_zero(grid):
    v = geo.ScalarField(grid, np.zeros(grid.shape))
    om = cau.dbar_star_inverse(v)
    assert np.max(np.abs(om.c01)) == 0.0


def test_dbar_star_right_inverse(grid):
    v = geo.ScalarField(grid, np.exp(-6 * np.abs(grid.nodes - 0.2) ** 2))
    om = cau.dbar_star_inverse(v)
    res = geo.dbar_star(om).values - v.values
    assert rel_l2(grid, res, v.values) < 1e-3


def test_kernel_conjugacy(grid):
    """The star-inverse kernel is -1/2 times the conjugate Cauchy kernel:
    applying it to conj(v) must equal -1/2 conj(dbar_inverse on v)."""
    rng = np.random.default_rng(5)
    fv = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    om = cau.dbar_star_inverse(geo.ScalarField(grid, np.conj(fv)))
    u = cau.dbar_inverse(geo.OneForm(grid, np.zeros(grid.shape), fv))
    assert np.max(np.abs(om.c01 + 0.5 * np.conj(u.values))) < 1e-12


# -- primitives ---------------------------------------------------------------------


def test_primitive_zero(grid):
    A = geo.OneForm(grid, np.zeros(grid.shape), np.zeros(grid.shape))
    assert geo.norm_l2(cau.primitive_alpha(A)) == 0.0


def test_primitive_constant_form(grid):
    A = geo.OneForm(grid, np.zeros(grid.shape), np.ones(grid.shape))
    al = cau.primitive_alpha(A)
    holo = geo.ScalarField(grid, al.values - np.conj(grid.nodes))
    res = geo.wirtinger(holo, "dzbar")
    assert rel_l2(grid, res.c01, np.ones(grid.shape)) < 1e-3


def test_primitive_z_form(grid):
    A = geo.OneForm(grid, np.zeros(grid.shape), grid.nodes)
    al = cau.primitive_alpha(A)
    res = geo.wirtinger(al, "dzbar").c01 - grid.nodes
    assert rel_l2(grid, res, grid.nodes) < 1e-3


def test_primitive_bounded(grid):
    A = geo.OneForm(grid, np.zeros(grid.shape), np.exp(1j * grid.nodes.real))
    al = cau.primitive_alpha(A)
    assert al.max_abs() < 10.0


def test_primitive_exact_for_compact_gauge(grid):
    """For compactly supported f the primitive of dbar f is f itself."""
    Z = grid.nodes
    f = np.maximum(0.0, 1 - (np.abs(Z) / 0.8) ** 2) ** 3
    df = geo.wirtinger(geo.ScalarField(grid, f), "dzbar")
    al = cau.primitive_alpha(df)
    assert np.max(np.abs(al.values - f)) < 1e-3


# -- beurling -----------------------------------------------------------------------


def test_beurling_composition_identity():
    g = geo.PolarGrid(geo.disk(1.0), 192, 256)
    Z = g.nodes
    f = geo.ScalarField(g, (1 - np.abs(Z) ** 2) ** 2 * Z)
    om = geo.wirtinger(f, "dzbar")
    got = cau.beurling_compose(om)
    want = geo.wirtinger(f, "dz")
    assert rel_l2(g, got.c10 - want.c10, want.c10) < 1e-3


def test_beurling_indicator_holomorphic_inside(grid):
    om = geo.OneForm(grid, np.zeros(grid.shape), np.ones(grid.shape))
    b = cau.beurling_compose(om)
    inner = np.abs(b.c10[: grid.n_r - 16])
    assert inner.max() < 1e-2


def test_beurling_norm_report(grid):
    rep = cau.beurling_norm_report(grid, num_samples=8, seed=0)
    assert np.isfinite(rep["sample_max"])
    assert rep["sample_max"] < 10.0
    assert len(rep["ratios"]) == 8


def test_beurling_norm_against_matrix_oracle():
    """Power-iteration oracle on the explicitly assembled operator bounds the
    sampled ratios from above."""
    g = geo.PolarGrid(geo.disk(1.0), 16, 16)
    tbl = cau.kernel_table(g)
    n = g.n_r * g.n_theta
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        u = geo.ScalarField(g, tbl.apply(e.reshape(g.shape)))
        cols.append(geo.wirtinger(u, "dz").c10.ravel())
    B = np.array(cols).T
    w = np.sqrt(g.weights.ravel())
    Bw = (w[:, None] * B) / w[None, :]
    sig = np.linalg.svd(Bw, compute_uv=False)[0] * np.sqrt(2.0) / np.sqrt(2.0)
    rep = cau.beurling_norm_report(g, num_samples=16, seed=1)
    assert rep["sample_max"] <= sig + 1e-8


# -- extension machinery ----------------------------------------------------------


def test_extend_grid_row_slice(grid):
    big, rows = cau.extend_grid(grid, 8)
    assert big.n_r == grid.n_r + 8
    assert np.allclose(big.r[rows], grid.r)


def test_extend_grid_annulus_inward():
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 48, 64)
    big, rows = cau.extend_grid(g, 6)
    assert big.domain.r_inner < 0.5
    assert np.allclose(big.r[rows], g.r)


def test_quintic_cutoff_endpoints():
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    v = cau.quintic_cutoff(t)
    assert v[0] == 1.0 and v[1] == 1.0 and v[3] == 0.0 and v[4] == 0.0
    assert 0 < v[2] < 1


def test_reflect_extend_supported_in_pad(grid):
    big, rows = cau.extend_grid(grid, 8)
    vals = np.ones(grid.shape, dtype=complex)
    out = cau.reflect_extend(big, rows, vals, mode="c1")
    assert np.allclose(out[rows], vals)
    assert np.allclose(out[-1], 0.0)


def test_lp_boundedness_battery(grid):
    """W^{1,p}-vs-L^p ratios stay bounded on a fixed battery (p = 3, 4)."""
    Z = grid.nodes
    battery = [
        np.exp(-6 * np.abs(Z - 0.2) ** 2),
        np.exp(-10 * np.abs(Z + 0.3) ** 2) * Z,
        np.exp(-8 * np.abs(Z - 0.1j) ** 2) * (1 + np.conj(Z)),
        np.exp(-12 * np.abs(Z) ** 2) * np.sin(2 * Z.real),
    ]
    w = grid.weights
    for p in (3.0, 4.0):
        ratios = []
        for vals in battery:
            u = cau.dbar_inverse(geo.OneForm(grid, np.zeros(grid.shape), vals))
            du10 = geo.wirtinger(u, "dz").c10
            du01 = geo.wirtinger(u, "dzbar").c01
            w1p = (
                np.sum(w * np.abs(u.values) ** p)
                + np.sum(w * np.abs(du10) ** p)
                + np.sum(w * np.abs(du01) ** p)
            ) ** (1 / p)
            lp = np.sum(w * np.abs(vals) ** p) ** (1 / p)
            ratios.append(w1p / lp)
        assert max(ratios) < 20.0


def test_self_cell_correction_is_exact_sector(grid):
    tbl = cau.kernel_table(grid)
    for j in (tbl._patch_tgt + 2, grid.n_r // 2, grid.n_r - 1):
        near = tbl._near
        (got,) = near["val"][(near["tgt"] == j) & (near["src"] == j) & (near["off"] == 0)]
        want = cau.sector_cauchy_integral(
            grid.r[j],
            tbl.cell_lo[j],
            tbl.cell_hi[j],
            -0.5 * grid.dtheta,
            0.5 * grid.dtheta,
        )
        assert abs(got - want) < 1e-13
