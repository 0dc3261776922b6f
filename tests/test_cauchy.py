import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    # |w| down to 1e-300 r_hi: the arc terms pair their ~r_hi^2/|w| parts
    # through log1p, so no digits go to cancellation near the center
    s = draw(
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-300.0, -3.0).map(lambda e: 10.0**e))
    )
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


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
    st.floats(-4.0, 4.0),
    st.floats(0.01, 3.0),
    st.floats(0.0, 2.0 * np.pi),
)
def test_sector_integral_is_lipschitz_at_the_center(r_lo, width, t_lo, dt, phase):
    """A cell away from the origin: I(w) - I(0) = O(|w|) down to |w| = 1e-300,
    with the constant area / (r_lo - |w|)^2 bounding |dI/dw| (the first
    test point; 1.8e167 at w = 3.3e-184 before the arc terms used log1p)."""
    r_hi = r_lo + width
    at_zero = cau.sector_cauchy_integral(0.0, r_lo, r_hi, t_lo, t_lo + dt)
    lipschitz = 0.5 * (r_hi**2 - r_lo**2) * dt / (r_lo - 1e-3) ** 2
    for e in (3, 5, 8, 10, 16, 30, 50, 100, 184, 250, 300):
        w = 10.0**-e * np.exp(1j * phase)
        got = cau.sector_cauchy_integral(w, r_lo, r_hi, t_lo, t_lo + dt)
        assert abs(got - at_zero) <= lipschitz * abs(w) + 1e-14 * r_hi


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    st.integers(8, 96),
    st.sampled_from([8, 16, 64, 256]),
    st.data(),
)
def test_cells_mirror_in_the_real_axis(r_inner, n_r, n_theta, data):
    """Seen from a target on the positive real axis, the cell at offset
    -theta is the mirror image of the cell at +theta, so the closed-form
    sector integral, the Gauss cells and the product rule each give the
    conjugate there, and so does the table's choice between the first two:
    the mode tables are real, and the build integrates only the offsets
    0..n_theta/2.  Checked on random cells with the self cell, the offset pi
    and, on a disk, the center-patch target ring 0 and source ring 0 (the
    cell that absorbs the center) among them; the sector integral on the
    cells within 6 cell scales, where the table takes it (farther out its
    edge terms cancel and keep fewer digits)."""
    domain = geo.annulus(r_inner, 1.0) if r_inner else geo.disk(1.0)
    g = geo.PolarGrid(domain, n_r, n_theta)
    tbl = cau.CauchyKernelTable(g)
    dth = g.dtheta
    ring = st.integers(0, n_r - 1)
    j = data.draw(ring)
    srcs = np.array(data.draw(st.lists(ring, max_size=6)) + [j, 0])
    offs = [0, 1, n_theta // 2, *data.draw(st.lists(st.integers(1, n_theta // 2), max_size=6))]
    for tgt in {j, 0}:
        m, dk = (a.ravel() for a in np.meshgrid(srcs, offs, indexing="ij"))
        z, lo, hi, tc = g.r[tgt], tbl.cell_lo[m], tbl.cell_hi[m], dk * dth
        near = np.abs(z - g.r[m] * np.exp(1j * tc)) <= 6.0 * np.maximum(hi - lo, g.r[m] * dth)
        # the product rule is singular on the self node
        regular = (m != tgt) | (dk != 0)
        for rule in (
            lambda s: cau.sector_cauchy_integral(
                z, lo[near], hi[near], s * tc[near] - 0.5 * dth, s * tc[near] + 0.5 * dth
            ),
            lambda s: cau._cell_integrals_batch(z, lo, hi, s * tc, dth),
            lambda s: tbl._product_rule(z, m[regular], s * tc[regular]),
            lambda s: tbl._cell_integrals(tgt, m, s * dk),
        ):
            plus, minus = rule(1), rule(-1)
            assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12 * np.max(np.abs(plus))


@pytest.mark.parametrize(
    "domain, n_r, n_theta, seed",
    [
        (geo.disk(1.0), 24, 32, 3),
        (geo.annulus(0.5, 1.2), 20, 32, 4),
        (geo.disk(1.0), 16, 16, 5),  # the center patch covers 10 of 16 rings
        (geo.annulus(0.05, 1.0), 16, 16, 6),  # ring 0's +-8 window spans the circle
        (geo.disk(1.0), 64, 64, 7),  # 1344 of 4096 ring pairs in the far field
        (geo.annulus(0.1, 1.0), 48, 64, 8),  # 576 of 2304 ring pairs in the far field
    ],
    ids=["disk", "annulus", "disk-16", "annulus-full-circle-window", "disk-far", "annulus-far"],
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
    for j in range(g.n_r):
        src, off, _ = tbl._near_field(j)
        keys = src * g.n_theta + off
        assert len(np.unique(keys)) == len(keys)
    # C(1)(z) = conj(z) - r_in^2 / z on the annulus
    want = np.conj(g.nodes) - r_in**2 / g.nodes
    assert np.max(np.abs(tbl.apply(np.ones(g.shape)) - want)) < 1e-2


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    st.integers(8, 64),
    st.sampled_from([8, 16, 32, 64, 128, 256]),
    st.data(),
)
def test_far_field_modes_are_separable(r_inner, n_r, n_theta, data):
    """Beyond a target ring's window, each angular mode of the product rule
    is the source ring's far-field weight times a power of the radius ratio:
    (r_m/r_j)^(q+1) with q = -n mod n_theta inside the target circle,
    (r_j/r_m)^s with s = (n - 1) mod n_theta outside it."""
    domain = geo.annulus(r_inner, 1.0) if r_inner else geo.disk(1.0)
    g = geo.PolarGrid(domain, n_r, n_theta)
    tbl = cau.CauchyKernelTable(g)
    j = data.draw(st.integers(0, n_r - 1))
    start, stop = tbl._start[j], tbl._start[j] + tbl._width[j]
    n = np.arange(n_theta)
    r = g.r
    for m in [*range(start), *range(stop, n_r)]:
        got = n_theta * np.fft.ifft(tbl._product_rule(r[j], m, g.theta))
        if m < j:
            want = tbl._w_in[m] * (r[m] / r[j]) ** ((-n) % n_theta + 1)
        else:
            want = tbl._w_out[m] * (r[j] / r[m]) ** ((n - 1) % n_theta)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    st.integers(8, 96),
    st.sampled_from([8, 16, 32, 64, 128, 256]),
)
def test_window_covers_ratio_range_and_near_field(r_inner, n_r, n_theta):
    """Each target ring's own window is exactly the source rings within a
    radius ratio of e^(+-L/n_theta), L = -ln(eps), and every source ring of
    its near field, and its table is one (width_j, n_theta) block, so the
    tables hold sum_j width_j * n_theta entries."""
    domain = geo.annulus(r_inner, 1.0) if r_inner else geo.disk(1.0)
    g = geo.PolarGrid(domain, n_r, n_theta)
    tbl = cau.CauchyKernelTable(g)
    start, stop = tbl._start, tbl._start + tbl._width
    assert np.all(start >= 0) and np.all(stop <= n_r)
    m = np.arange(n_r)
    log_ratio = np.abs(np.log(g.r[None, :] / g.r[:, None]))
    ratio = log_ratio <= -np.log(np.finfo(float).eps) / n_theta
    for j in range(n_r):
        covered = ratio[j].copy()
        covered[tbl._near_field(j)[0]] = True
        assert np.array_equal(m[covered], np.arange(start[j], stop[j]))
        assert tbl._tables[j].shape == (tbl._width[j], n_theta)
    assert sum(t.size for t in tbl._tables) == tbl._width.sum() * n_theta


@pytest.mark.parametrize(
    "grid",
    [
        geo.PolarGrid(geo.disk(1.0), 352, 256),  # the widest grid of the right-inverse ladder
        cau.extend_grid(geo.PolarGrid(geo.disk(0.5), 144, 1024))[0],  # criterion 4's CGO grid
    ],
    ids=["352x256", "152x1024"],
)
def test_table_bytes_held(grid):
    """Real mode tables over per-ring windows keep these tables under 48 MiB
    (74 MiB as complex tables; about 124 and 140 MiB when every ring stored
    the widest window)."""
    tbl = cau.kernel_table(grid)
    assert all(t.dtype == np.float64 for t in tbl._tables)
    assert sum(t.nbytes for t in tbl._tables) < tbl.nbytes <= 48 * 2**20


def test_table_build_peak():
    """Each window offset's near cells go straight into its own tables, so
    the build holds little beyond the tables (4.5x nbytes here when a flat
    list of every correction was built first)."""
    g = geo.PolarGrid(geo.disk(1.0), 64, 512)
    tracemalloc.start()
    try:
        tbl = cau.CauchyKernelTable(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * tbl.nbytes


def test_apply_from_two_threads_matches_serial():
    """One cached table applied from two threads at once gives each thread
    the serial transform bit for bit: apply holds the table's scratch arrays
    for the whole call."""
    g = geo.PolarGrid(geo.disk(1.0), 72, 256)
    tbl = cau.kernel_table(g)
    rng = np.random.default_rng(0)
    data = [rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape) for _ in range(2)]
    want = [tbl.apply(f) for f in data]
    start = threading.Barrier(2)

    def worker(i):
        start.wait()
        return sum(np.array_equal(tbl.apply(data[i]), want[i]) for _ in range(100))

    with ThreadPoolExecutor(2) as pool:
        assert list(pool.map(worker, range(2))) == [100, 100]


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
    big, rows = cau.extend_grid(grid)
    assert big.n_r == grid.n_r + cau.PAD_RINGS == grid.n_r + 8
    assert np.allclose(big.r[rows], grid.r)


def test_extend_grid_annulus_inward():
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 48, 64)
    big, rows = cau.extend_grid(g)
    assert big.domain.r_inner < 0.5
    assert rows.start == cau.PAD_RINGS
    assert np.allclose(big.r[rows], g.r)


def test_quintic_cutoff_endpoints():
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    v = cau.quintic_cutoff(t)
    assert v[0] == 1.0 and v[1] == 1.0 and v[3] == 0.0 and v[4] == 0.0
    assert 0 < v[2] < 1


# one unit in the last place of 1
_ULP_1 = np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5), st.floats(0.0, 1.0))
def test_quintic_cutoff_is_a_monotone_symmetric_c2_ramp(a, b, eps):
    lo, hi = min(a, b), max(a, b)
    c_lo, c_hi, c_t, c_mirror, c_eps, c_one_minus_eps = cau.quintic_cutoff(
        np.array([lo, hi, a, 1.0 - a, eps, 1.0 - eps])
    )
    assert 0.0 <= c_hi <= c_lo <= 1.0
    assert abs(c_t + c_mirror - 1.0) <= 2 * _ULP_1
    # C^2 at both ends: the ramp leaves 1 and reaches 0 like eps^3
    assert abs(c_eps - 1.0) <= 10.0 * eps**3 + _ULP_1
    assert abs(c_one_minus_eps) <= 10.0 * eps**3 + _ULP_1


def test_quintic_cutoff_near_its_ends():
    """Dense neighbours of t = 0, 1/2 and 1: no step the wrong way, never
    outside [0, 1], and cutoff(t) + cutoff(1 - t) within 2 ulps of 1 (the
    unsplit formula dipped to -1.55e-15 near 1 and missed 1 by 8 ulps)."""
    for start in (0.0, 0.5 - 2e-12, 1.0 - 1e-4, 1.0 - 2e-12):
        t = start + np.arange(200_000) * np.spacing(max(start, 1e-12))
        c = cau.quintic_cutoff(t)
        assert np.all(np.diff(c) <= 0.0)
        assert c.min() >= 0.0 and c.max() <= 1.0
        assert np.max(np.abs(c + cau.quintic_cutoff(1.0 - t) - 1.0)) <= 2 * _ULP_1
    assert cau.quintic_cutoff(np.array([1.0 - 2.0**-52]))[0] >= 0.0


def test_reflect_extend_supported_in_pad(grid):
    big, rows = cau.extend_grid(grid)
    vals = np.ones(grid.shape, dtype=complex)
    out = cau.reflect_extend(big, rows, vals, mode="c1")
    assert np.allclose(out[rows], vals)
    assert np.allclose(out[-1], 0.0)


@pytest.mark.parametrize("mode", ["even", "c1"])
@pytest.mark.parametrize(
    "domain, n_r, pad",
    [(geo.disk(1.0), 6, 8), (geo.annulus(0.5, 1.0), 32, 3)],
    ids=["disk-clamped", "annulus-both-sides"],
)
def test_reflect_extend_mirrors_each_pad_ring(domain, n_r, pad, mode, monkeypatch):
    """Pad ring k past an edge holds ring min(k, n_r - 1) in from that edge
    (for c1, twice the edge ring minus it), tapered by quintic_cutoff(k / pad)."""
    monkeypatch.setattr(cau, "PAD_RINGS", pad)
    g = geo.PolarGrid(domain, n_r, 16)
    big, rows = cau.extend_grid(g)
    vals = np.random.default_rng(0).standard_normal(g.shape)
    out = cau.reflect_extend(big, rows, vals, mode)
    assert np.array_equal(out[rows], vals)
    for edge, step, n_pad in ((rows.stop - 1, 1, big.n_r - rows.stop), (rows.start, -1, rows.start)):
        for k in range(1, n_pad + 1):
            mirror = out[edge - step * min(k, n_r - 1)]
            want = 2.0 * out[edge] - mirror if mode == "c1" else mirror
            assert np.allclose(out[edge + step * k], want * cau.quintic_cutoff(k / n_pad))


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
        src, off, val = tbl._near_field(j)
        (got,) = val[(src == j) & (off == 0)]
        want = cau.sector_cauchy_integral(
            grid.r[j],
            tbl.cell_lo[j],
            tbl.cell_hi[j],
            -0.5 * grid.dtheta,
            0.5 * grid.dtheta,
        )
        assert abs(got - want) < 1e-13


@pytest.mark.parametrize("n_r, n_theta", [(96, 128), (352, 256)], ids=["96x128", "352x256"])
def test_center_table_cells_are_sector_integrals(n_r, n_theta):
    """The tables hold each near cell's accurate integral itself, not the
    product rule plus a difference: on rings 0-5 of the disk, every cell
    within 6 cell scales of the target, read back from the mode tables as
    fft(table row) / n_theta, is its closed-form sector integral."""
    g = geo.PolarGrid(geo.disk(1.0), n_r, n_theta)
    tbl = cau.kernel_table(g)
    dth = g.dtheta
    dks = np.arange(-(n_theta // 2), n_theta // 2)
    tc = dks * dth
    got, want = [], []
    for j in range(6):
        for k in range(tbl._width[j]):
            m = tbl._start[j] + k
            row = np.fft.fft(tbl._tables[j][k]) / n_theta
            lo, hi = tbl.cell_lo[m], tbl.cell_hi[m]
            near = np.abs(g.r[j] - g.r[m] * np.exp(1j * tc)) <= 6.0 * max(hi - lo, g.r[m] * dth)
            got.append(row[dks[near] % n_theta])
            want.append(
                cau.sector_cauchy_integral(
                    g.r[j], lo, hi, tc[near] - 0.5 * dth, tc[near] + 0.5 * dth
                )
            )
    got, want = np.concatenate(got), np.concatenate(want)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
