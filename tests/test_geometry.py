import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarlab import geometry as geo


@pytest.fixture(scope="module")
def disk_grid():
    return geo.PolarGrid(geo.disk(1.0), 128, 256)


@pytest.fixture(scope="module")
def ann_grid():
    return geo.PolarGrid(geo.annulus(1.0, 2.0), 96, 256)


def test_domain_validation():
    with pytest.raises(geo.GridError, match="annulus requires r_inner > 0"):
        geo.annulus(0.0, 1.0)
    for r_inner, r_outer in ((1.0, 0.5), (-0.1, 1.0), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(geo.GridError, match="need 0 <= r_inner < r_outer < inf"):
            geo.Domain(r_inner, r_outer)
    assert geo.Domain(0.0, 1.0).kind == "disk" and geo.Domain(0.5, 1.0).kind == "annulus"


def test_grid_requires_power_of_two_angles():
    # so n_theta is even wherever the Cauchy table halves the angle range
    for n_theta in (48, 15):
        with pytest.raises(geo.GridError):
            geo.PolarGrid(geo.disk(1.0), 32, n_theta)


def test_annulus_needs_six_rings():
    # the 6-point radial stencil would wrap onto repeated nodes
    for n_r in (4, 5):
        with pytest.raises(geo.GridError):
            geo.PolarGrid(geo.annulus(0.5, 1.0), n_r, 16)
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 6, 16)
    r = np.broadcast_to(g.r[:, None], g.shape)
    assert np.allclose(g.diff_r(r**5), 5 * r**4, rtol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-8, 8), min_size=2, max_size=7, unique=True),
    st.floats(0.01, 2.0),
    st.floats(-8.0, 8.0),
    st.integers(0, 2),
    st.data(),
)
def test_fornberg_weights_exact_on_polynomials(ks, h, k0, m, data):
    """Weights for the m-th derivative reproduce it on (x - x0)^d for every
    degree d <= len(x) - 1, up to roundoff in the weighted sum."""
    x = h * np.array(sorted(ks), dtype=float)
    x0 = h * k0
    m = min(m, len(x) - 1)
    d = data.draw(st.integers(0, len(x) - 1))
    w = geo._fornberg_weights(x0, x, m)[:, m]
    terms = w * (x - x0) ** d
    want = math.factorial(m) if d == m else 0.0
    assert abs(terms.sum() - want) <= 1e-12 * max(np.abs(terms).sum(), 1.0)


def _dense_diff_r(g, values, order):
    """Reference radial derivative: a dense (n_r x n_nodes) matrix of the
    6-point Fornberg stencils, on the disk over the rings continued through
    the center, value at (-r, t) = value at (r, t + pi)."""
    if g.domain.kind == "disk":
        x = np.concatenate([-g.r[3::-1], g.r])
        ghosts = np.roll(values[3::-1], g.n_theta // 2, axis=1)
        values = np.concatenate([ghosts, values])
    else:
        x = g.r
    off = len(x) - g.n_r
    mat = np.zeros((g.n_r, len(x)))
    for i in range(g.n_r):
        lo = min(max(i + off - 3, 0), len(x) - 6)
        mat[i, lo : lo + 6] = geo._fornberg_weights(x[i + off], x[lo : lo + 6], order)[:, order]
    return mat @ values


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    st.integers(6, 300),
    st.sampled_from([8, 16, 32]),
    st.sampled_from([1, 2]),
    st.integers(0, 2**32 - 1),
)
def test_banded_diff_r_matches_dense_stencils(r_inner, n_r, n_theta, order, seed):
    domain = geo.annulus(r_inner, 1.0) if r_inner else geo.disk(1.0)
    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    want = _dense_diff_r(g, f, order)
    got = g.diff_r(f, order)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(0.05, 0.8)),
    st.integers(4, 200),
    st.sampled_from([8, 16, 32]),
    st.sampled_from([1, 5]),
    st.integers(0, 2**32 - 1),
)
def test_boundary_jet_matches_diff_r(r_inner, n_r, n_theta, batch, seed):
    """Disks of 4-5 rings take the through-centre stencil, like `diff_r`."""
    domain = geo.annulus(r_inner, 1.0) if r_inner else geo.disk(1.0)
    g = geo.PolarGrid(domain, max(n_r, 6) if r_inner else n_r, n_theta)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape + (batch,)) + 1j * rng.standard_normal(g.shape + (batch,))
    trace, d_r = g.boundary_jet(f)
    rings = list(g.boundary_rings)
    assert np.array_equal(trace, f[rings])
    want = np.stack([g.diff_r(f[:, :, k])[rings] for k in range(batch)], axis=-1)
    assert d_r.shape == want.shape == (len(rings), n_theta, batch)
    assert np.array_equal(d_r, want)


@pytest.mark.parametrize(
    "domain, n_r, n_theta",
    [(geo.disk(1.0), 4, 16), (geo.disk(1.0), 5, 16), (geo.disk(1.0), 96, 128),
     (geo.annulus(0.5, 1.0), 6, 16), (geo.annulus(0.5, 1.0), 96, 128)],
)
def test_batched_derivatives_match_columns(domain, n_r, n_theta):
    """Derivatives of a stack (n_r, n_theta, K) are the per-column
    derivatives, bit for bit."""
    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(n_r)
    f = rng.standard_normal(g.shape + (3,)) + 1j * rng.standard_normal(g.shape + (3,))
    for op in (g.diff_r, g.diff_theta):
        for order in (1, 2):
            want = np.stack([op(f[:, :, k], order) for k in range(3)], axis=-1)
            assert np.array_equal(op(f, order), want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 200),
    st.sampled_from([8, 16, 64, 128]),
    st.sampled_from([geo.disk(1.0), geo.disk(0.7)]),
    st.integers(0, 2**32 - 1),
)
def test_center_value_is_the_column_mean(n_r, n_theta, domain, seed):
    """The centre value is the mean over the n_theta columns of the cubic
    spline through each column, extended through the centre, at r = 0, for
    each of a stack of fields."""
    from scipy.interpolate import make_interp_spline

    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape + (3,)) + 1j * rng.standard_normal(g.shape + (3,))
    got = g.center_value(f)
    want = make_interp_spline(g._ghost_radii(), g._ghost_extend(f), k=3)(0.0).mean(axis=0)
    assert got.shape == (3,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(f))
    with pytest.raises(geo.GridError):
        geo.PolarGrid(geo.annulus(0.5, 1.0), n_r, n_theta).center_value(f)


@pytest.mark.parametrize("dom", [geo.disk(1.0), geo.annulus(0.5, 1.5), geo.disk(0.7)])
def test_quadrature_weights_match_area(dom):
    g = geo.PolarGrid(dom, 256, 256)
    area = math.pi * (dom.r_outer**2 - dom.r_inner**2)
    assert abs(g.weights.sum() - area) / area < 1e-12


def test_boundary_circles_are_grid_lines():
    g = geo.PolarGrid(geo.annulus(0.5, 1.5), 64, 64)
    assert g.r[0] == 0.5 and g.r[-1] == 1.5
    gd = geo.PolarGrid(geo.disk(2.0), 64, 64)
    assert gd.r[-1] == 2.0


def test_field_rejects_nan(disk_grid):
    vals = np.ones(disk_grid.shape, dtype=complex)
    vals[3, 4] = np.nan
    with pytest.raises(geo.GridError):
        geo.ScalarField(disk_grid, vals)


# -- wirtinger ---------------------------------------------------------------


def test_wirtinger_dzbar_of_zbar_is_one(disk_grid):
    f = geo.ScalarField(disk_grid, np.conj(disk_grid.nodes))
    w = geo.wirtinger(f, "dzbar")
    assert np.max(np.abs(w.c01 - 1.0)) < 1e-10
    assert np.max(np.abs(w.c10)) == 0.0


def test_wirtinger_kills_holomorphic(disk_grid):
    f = geo.ScalarField(disk_grid, disk_grid.nodes)
    w = geo.wirtinger(f, "dzbar")
    assert np.max(np.abs(w.c01)) < 1e-10


def test_wirtinger_modulus_squared(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, np.abs(Z) ** 2)
    w = geo.wirtinger(f, "dz")
    assert np.max(np.abs(w.c10 - np.conj(Z))) < 1e-8


def test_wirtinger_exact_on_degree_three(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, Z**2 * np.conj(Z) + 3 * Z - 1j * np.conj(Z) ** 3)
    w10 = geo.wirtinger(f, "dz")
    w01 = geo.wirtinger(f, "dzbar")
    assert np.max(np.abs(w10.c10 - (2 * Z * np.conj(Z) + 3))) < 1e-8
    assert np.max(np.abs(w01.c01 - (Z**2 - 3j * np.conj(Z) ** 2))) < 1e-8


def test_wirtinger_refuses_coarse_grid():
    g = geo.PolarGrid(geo.disk(1.0), 6, 8)
    f = geo.ScalarField(g, np.ones(g.shape))
    with pytest.raises(geo.GridError):
        geo.wirtinger(f, "dzbar")


# -- hodge star and projections ----------------------------------------------


def test_hodge_star_on_dz(disk_grid):
    dz = geo.OneForm(disk_grid, np.ones(disk_grid.shape), np.zeros(disk_grid.shape))
    s = geo.hodge_star(dz)
    assert np.allclose(s.c10, -1j) and np.allclose(s.c01, 0)
    ss = geo.hodge_star(s)
    assert np.allclose(ss.c10, -1.0)


def test_hodge_star_eigenvalue_on_01(disk_grid):
    rng = np.random.default_rng(0)
    om = geo.OneForm(disk_grid, np.zeros(disk_grid.shape), rng.standard_normal(disk_grid.shape))
    s = geo.hodge_star(om)
    assert np.allclose(s.c01, 1j * om.c01)


def test_hodge_star_zero_form_integrates_to_area(disk_grid):
    """The area form (i/2) dz ^ dz_bar integrates to the area and its star
    is the function 1; the star of a function is not defined here."""
    vol = geo.TwoForm(disk_grid, np.full(disk_grid.shape, 0.5j))
    assert abs(vol.integrate() - np.pi) < 1e-12
    back = geo.hodge_star(vol)
    assert np.allclose(back.values, 1.0)
    with pytest.raises(TypeError, match="cannot apply hodge star to ScalarField"):
        geo.hodge_star(back)


def test_projections_complementary(disk_grid):
    rng = np.random.default_rng(1)
    om = geo.OneForm(
        disk_grid,
        rng.standard_normal(disk_grid.shape) + 1j * rng.standard_normal(disk_grid.shape),
        rng.standard_normal(disk_grid.shape),
    )
    p10 = geo.OneForm(disk_grid, om.c10, np.zeros(disk_grid.shape))
    p01 = geo.project(om)
    assert np.allclose(p10.c10 + p01.c10, om.c10)
    assert np.allclose(p10.c01 + p01.c01, om.c01)
    again = geo.project(p01)
    assert np.allclose(again.c01, p01.c01)


def test_project_dx(disk_grid):
    # dx = (dz + dzbar)/2
    dx = geo.OneForm(disk_grid, 0.5 * np.ones(disk_grid.shape), 0.5 * np.ones(disk_grid.shape))
    p = geo.project(dx)
    assert np.allclose(p.c01, 0.5) and np.allclose(p.c10, 0.0)


def test_real_one_form_predicate(disk_grid):
    Z = disk_grid.nodes
    X = geo.OneForm(disk_grid, np.conj(Z) ** 2, Z**2)
    assert X.is_real
    A = geo.project(X)
    B = geo.OneForm(disk_grid, X.c10, np.zeros(disk_grid.shape))
    assert np.allclose(np.conj(A.c01), B.c10)


# -- exterior calculus ---------------------------------------------------------


def test_d_of_x_dy(disk_grid):
    x = disk_grid.nodes.real
    xdy = geo.OneForm(disk_grid, x / 2j, -x / 2j)
    d = geo.exterior_d(xdy)
    assert np.max(np.abs(d.c - 0.5j)) < 1e-10


def test_d_of_dtheta_vanishes(ann_grid):
    Z = ann_grid.nodes
    dth = geo.OneForm(ann_grid, 1 / (2j * Z), -1 / (2j * np.conj(Z)))
    d = geo.exterior_d(dth)
    assert np.max(np.abs(d.c)) < 1e-8


def test_dd_zero_on_scalars(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, np.sin(Z.real) * np.exp(0.2 * Z.imag))
    dd = geo.exterior_d(geo.exterior_d(f))
    assert geo.norm_l2(dd) < 1e-4 * geo.norm_l2(f)


def test_wedge_antisymmetric(disk_grid):
    rng = np.random.default_rng(2)
    a = geo.OneForm(disk_grid, rng.standard_normal(disk_grid.shape), rng.standard_normal(disk_grid.shape))
    b = geo.OneForm(disk_grid, rng.standard_normal(disk_grid.shape), rng.standard_normal(disk_grid.shape))
    ab = geo.wedge(a, b)
    ba = geo.wedge(b, a)
    assert np.allclose(ab.c, -ba.c)
    assert np.max(np.abs(geo.wedge(a, a).c)) == 0.0


# -- inner products and laplacian ----------------------------------------------


def test_inner_products(disk_grid):
    one = geo.ScalarField(disk_grid, np.ones(disk_grid.shape))
    assert abs(geo.inner_l2(one, one) - np.pi) < 1e-10
    dz = geo.OneForm(disk_grid, np.ones(disk_grid.shape), np.zeros(disk_grid.shape))
    assert abs(geo.inner_l2(dz, dz) - 2 * np.pi) < 1e-10
    t = disk_grid.theta[None, :] * np.ones(disk_grid.shape)
    e1 = geo.ScalarField(disk_grid, np.exp(1j * t))
    e2 = geo.ScalarField(disk_grid, np.exp(2j * t))
    assert abs(geo.inner_l2(e1, e2)) < 1e-12


def test_inner_product_conjugate_linear_second_slot(disk_grid):
    f = geo.ScalarField(disk_grid, disk_grid.nodes)
    g = geo.ScalarField(disk_grid, np.conj(disk_grid.nodes) + 1)
    lhs = geo.inner_l2(f, g * (2 + 1j))
    rhs = np.conj(2 + 1j) * geo.inner_l2(f, g)
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_polynomial(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, Z.real**2 + Z.imag**2)
    lap = geo.laplacian(f)
    assert np.max(np.abs(lap.values + 4.0)) < 1e-8


def test_laplacian_harmonic(disk_grid):
    f = geo.ScalarField(disk_grid, (disk_grid.nodes**3).real)
    assert np.max(np.abs(geo.laplacian(f).values)) < 1e-8


def test_laplacian_exponential_and_routes(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, np.exp(Z.real))
    lap = geo.laplacian(f)
    assert np.max(np.abs(lap.values + np.exp(Z.real))) < 1e-6
    comp = geo.hodge_star(geo.exterior_d(geo.wirtinger(f, "dzbar"))) * (-2j)
    assert np.max(np.abs(lap.values - comp.values)) < 1e-6


def test_codiff_of_df_is_laplacian(disk_grid):
    Z = disk_grid.nodes
    f = geo.ScalarField(disk_grid, np.exp(0.5 * Z.real) * np.cos(Z.imag))
    delta_d = geo.codiff(geo.exterior_d(f))
    lap = geo.laplacian(f)
    assert np.max(np.abs(delta_d.values - lap.values)) < 1e-6


def test_green_identity_compact_support(disk_grid):
    Z = disk_grid.nodes
    bump = np.exp(-14 * np.abs(Z - 0.2) ** 2)
    f = geo.ScalarField(disk_grid, bump * Z)
    om = geo.OneForm(disk_grid, np.zeros(disk_grid.shape), bump * np.conj(Z) ** 2)
    lhs = geo.inner_l2(geo.wirtinger(f, "dzbar"), om)
    rhs = geo.inner_l2(f, geo.dbar_star(om))
    scale = geo.norm_l2(f) * geo.norm_l2(om)
    assert abs(lhs - rhs) < 1e-4 * scale


# -- loops ---------------------------------------------------------------------


def test_loop_requires_closure():
    with pytest.raises(geo.GridError):
        geo.Loop(np.array([0.0, 1.0, 1.0 + 1j, 0.5j]))


def test_loop_quadrature_dtheta(ann_grid):
    Z = ann_grid.nodes
    dth = geo.OneForm(ann_grid, 1 / (2j * Z), -1 / (2j * np.conj(Z)))
    loop = geo.circle_loop(1.5, 1024)
    val = geo.loop_quadrature(loop, dth)
    assert abs(val - 2 * np.pi) < 1e-6


def test_loop_quadrature_exact_form(ann_grid):
    dz = geo.OneForm(ann_grid, np.ones(ann_grid.shape), np.zeros(ann_grid.shape))
    loop = geo.circle_loop(1.3, 600)
    assert abs(geo.loop_quadrature(loop, dz)) < 1e-6


def test_loop_quadrature_df(ann_grid):
    Z = ann_grid.nodes
    f = geo.ScalarField(ann_grid, np.sin(Z.real) * np.exp(0.3 * Z.imag))
    df = geo.exterior_d(f)
    loop = geo.circle_loop(1.4, 800)
    assert abs(geo.loop_quadrature(loop, df)) < 1e-4


def test_loop_quadrature_real_form_gives_real(ann_grid):
    Z = ann_grid.nodes
    A = np.exp(1j * np.angle(Z)) / np.abs(Z)
    X = geo.OneForm(ann_grid, np.conj(A), A)
    assert X.is_real
    loop = geo.circle_loop(1.5, 1024)
    val = geo.loop_quadrature(loop, X)
    assert abs(val.imag) < 1e-8 * max(abs(val), 1.0)


def test_loop_exits_domain(ann_grid):
    dz = geo.OneForm(ann_grid, np.ones(ann_grid.shape), np.zeros(ann_grid.shape))
    with pytest.raises(geo.GridError):
        geo.loop_quadrature(geo.circle_loop(0.5, 64), dz)


def test_interpolator_matches_smooth_field(disk_grid):
    Z = disk_grid.nodes
    f = np.exp(Z * 0.7) * np.cos(Z.real)
    interp = geo.Interpolator(disk_grid, f)
    pts = np.array([0.3 + 0.4j, -0.111 + 0.05j, 0.001 + 0.002j, 0.9j])
    truth = np.exp(pts * 0.7) * np.cos(pts.real)
    assert np.max(np.abs(interp(pts) - truth)) < 1e-6


def _fitpack_interpolant(grid, values):
    """The bicubic interpolant as FITPACK builds it: `RectBivariateSpline`
    on the real and imaginary parts of the same ghost-ringed, wrapped data."""
    from scipy.interpolate import RectBivariateSpline

    w = geo.Interpolator._WRAP
    v, r = values, grid.r
    if grid.domain.kind == "disk":
        v, r = grid._ghost_extend(values), grid._ghost_radii()
    theta = np.concatenate([grid.theta[-w:] - 2 * math.pi, grid.theta, grid.theta[:w] + 2 * math.pi])
    v = np.concatenate([v[:, -w:], v, v[:, :w]], axis=1)
    re = RectBivariateSpline(r, theta, v.real, kx=3, ky=3)
    im = RectBivariateSpline(r, theta, v.imag, kx=3, ky=3)

    def evaluate(z):
        rr = np.clip(np.abs(z), grid.domain.r_inner, grid.domain.r_outer)
        t = np.mod(np.angle(z), 2 * math.pi)
        return re(rr, t, grid=False) + 1j * im(rr, t, grid=False)

    return evaluate


@pytest.mark.parametrize(
    "domain, n_r, n_theta",
    [
        (geo.disk(1.0), 96, 128),
        (geo.disk(0.7), 8, 16),
        (geo.annulus(0.5, 1.0), 96, 128),
        (geo.annulus(1.0, 2.0), 6, 8),
    ],
)
def test_interpolator_matches_fitpack(domain, n_r, n_theta):
    """The in-house not-a-knot spline is FITPACK's interpolating bicubic
    spline, including across a disk's centre gap (ghost radii -dr ... dr)
    and on the boundary circles; on a disk the centre value is the mean of
    `make_interp_spline`'s over the columns."""
    from scipy.interpolate import make_interp_spline

    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(n_r)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    rr = domain.r_inner + (domain.r_outer - domain.r_inner) * rng.random(500)
    rr[:50] = domain.r_inner + rng.random(50) * g.dr  # a disk's centre gap, an annulus's inner ring
    rr[50:60] = [domain.r_inner, domain.r_outer] * 5
    z = rr * np.exp(2j * math.pi * rng.random(500))
    got = geo.Interpolator(g, f)(z)
    assert np.max(np.abs(got - _fitpack_interpolant(g, f)(z))) <= 1e-13 * np.max(np.abs(f))
    if domain.kind == "disk":
        stack = np.stack([f, np.conj(f), 1j * f], axis=-1)
        want = make_interp_spline(g._ghost_radii(), g._ghost_extend(stack), k=3)(0.0).mean(axis=0)
        assert np.max(np.abs(g.center_value(stack) - want)) <= 1e-13 * np.max(np.abs(f))


def _spline_1d(x, y, xq):
    i, w = geo._spline_weights(x, xq)
    c = (y, geo._spline_curvatures(x, y))
    return sum(w[p, s] * c[p][i + s] for p in range(2) for s in range(2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 64),
    st.sampled_from([8, 16, 64]),
    st.sampled_from([geo.disk(1.0), geo.disk(0.7), geo.annulus(0.4, 1.3)]),
    st.integers(0, 2**32 - 1),
)
def test_spline_reproduces_cubics(n_r, n_theta, domain, seed):
    """Not-a-knot is exact on cubics: a cubic in r on the radial nodes
    (with a disk's ghost rings) or in theta on the wrapped angles comes
    back to roundoff anywhere between the nodes; so does a cubic
    polynomial in x and y, read by `Interpolator` on the rays of the grid
    (on a disk, a cubic along each full diameter) and by `center_value`."""
    if domain.kind == "annulus":
        n_r = max(n_r, 6)
    g = geo.PolarGrid(domain, n_r, n_theta)
    rng = np.random.default_rng(seed)
    w = geo.Interpolator._WRAP
    theta = np.concatenate([g.theta[-w:] - 2 * math.pi, g.theta, g.theta[:w] + 2 * math.pi])
    radii = g._ghost_radii() if domain.kind == "disk" else g.r
    coef = rng.standard_normal((4, 2)) @ [1.0, 1.0j]
    for x in (radii, theta):
        xq = rng.uniform(x[0], x[-1], 64)
        got = _spline_1d(x, np.polyval(coef, x), xq)
        want = np.polyval(coef, xq)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(np.polyval(np.abs(coef), np.abs(x))))

    cxy = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    cxy[np.add.outer(np.arange(4), np.arange(4)) > 3] = 0.0

    def poly(z):
        return np.polynomial.polynomial.polyval2d(z.real, z.imag, cxy)

    k = rng.integers(0, n_theta, 64)
    rr = domain.r_inner + (domain.r_outer - domain.r_inner) * rng.random(64)
    pts = rr * np.exp(1j * g.theta[k])
    scale = np.max(np.abs(poly(g.nodes))) + np.max(np.abs(cxy))
    got = geo.Interpolator(g, poly(g.nodes))(pts)
    assert np.max(np.abs(got - poly(pts))) <= 1e-12 * scale
    if domain.kind == "disk":
        assert abs(g.center_value(poly(g.nodes)) - cxy[0, 0]) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(
    st.integers(4, 60),
    st.sampled_from([(), (3,), (2, 5)]),
    st.integers(0, 2**32 - 1),
)
def test_spline_curvatures_match_dense_solve(n, batch, seed):
    """The banded not-a-knot solve agrees with `np.linalg.solve` on the
    dense n x n system, for random increasing knots whose neighbouring
    spacings lie within a factor 4 of each other and random complex data."""
    rng = np.random.default_rng(seed)
    spacing = 10.0 ** rng.uniform(-3, 3) * rng.uniform(1.0, 4.0, n - 1)
    x = rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(spacing)])
    y = rng.standard_normal((n,) + batch) + 1j * rng.standard_normal((n,) + batch)
    h = np.diff(x)
    A = np.zeros((n, n))
    A[0, :3] = h[1], -(h[0] + h[1]), h[0]
    A[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    for i in range(1, n - 1):
        A[i, i - 1 : i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
    slope = np.diff(y, axis=0) / h.reshape((-1,) + (1,) * len(batch))
    rhs = np.zeros_like(y)
    rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
    want = np.linalg.solve(A, rhs.reshape(n, -1)).reshape(y.shape)
    got = geo._spline_curvatures(x, y)
    assert got.shape == y.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# -- snapshots -------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["oneform"])
def test_snapshot_roundtrip(tmp_path, ann_grid, kind):
    """A snapshot of the one kind there is comes back bit for bit."""
    Z = ann_grid.nodes
    obj = geo.OneForm(ann_grid, Z, np.conj(Z) ** 2)
    path = tmp_path / "field.txt"
    geo.save_snapshot(path, obj)
    assert path.read_text().split(maxsplit=3)[2] == kind
    back = geo.load_snapshot(path)
    assert back.grid.same_as(ann_grid)
    assert np.array_equal(back.c10, obj.c10) and np.array_equal(back.c01, obj.c01)


@pytest.mark.parametrize("kind", ["scalar", "twoform"])
def test_snapshot_refuses_other_kinds(tmp_path, ann_grid, kind):
    """Snapshots hold connection 1-forms only; a header naming another kind
    is refused by that kind, before its values are read."""
    path = tmp_path / "field.txt"
    geo.save_snapshot(path, geo.OneForm(ann_grid, ann_grid.nodes, ann_grid.nodes))
    path.write_text(path.read_text().replace("oneform", kind, 1))
    with pytest.raises(geo.GridError, match=f"bad snapshot kind '{kind}'"):
        geo.load_snapshot(path)


def test_snapshot_header_format(tmp_path, disk_grid):
    zeros = np.zeros(disk_grid.shape)
    path = tmp_path / "field.txt"
    geo.save_snapshot(path, geo.OneForm(disk_grid, zeros, zeros))
    header = path.read_text().splitlines()[0].split()
    assert header[:3] == ["FIELD", "v1", "oneform"]
    assert header[3:5] == ["128", "256"]
    assert header[5:] == ["0", "1", "0", "0"]


@pytest.mark.parametrize("center", ["1 0", "nan 0", "0 inf"])
def test_snapshot_refuses_off_origin_center(tmp_path, center):
    """Every domain is centred at 0, so a header whose center fields read
    anything else is refused by name instead of loading a shifted grid."""
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 6, 8)
    path = tmp_path / "field.txt"
    geo.save_snapshot(path, geo.OneForm(g, np.ones(g.shape), np.ones(g.shape)))
    # the data lines read "1 0", so only the header ends in " 0 0"
    path.write_text(path.read_text().replace(" 0 0\n", f" {center}\n"))
    with pytest.raises(geo.GridError, match=f"snapshot center must be 0 0, got {center}"):
        geo.load_snapshot(path)


@pytest.mark.parametrize("radii", ["0.5 inf", "nan 1"])
def test_snapshot_refuses_non_finite_radii(tmp_path, radii):
    """A header radius that is not finite is refused instead of loading a
    grid whose nodes are all non-finite."""
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 6, 8)
    path = tmp_path / "field.txt"
    geo.save_snapshot(path, geo.OneForm(g, np.ones(g.shape), np.ones(g.shape)))
    path.write_text(path.read_text().replace(" 0.5 1 0 0\n", f" {radii} 0 0\n", 1))
    with pytest.raises(geo.GridError, match="need 0 <= r_inner < r_outer < inf"):
        geo.load_snapshot(path)
