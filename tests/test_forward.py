import numpy as np
import pytest
from scipy.special import hyp1f1, jv, jvp

from dbarlab import geometry as geo
from dbarlab import experiments as ex
from dbarlab import forward as fw
from dbarlab import metrics as me


@pytest.fixture(scope="module")
def grid():
    return geo.PolarGrid(geo.disk(1.0), 96, 64)


@pytest.fixture(scope="module")
def zero_pot(grid):
    z = np.zeros(grid.shape)
    return fw.PotentialPair(geo.OneForm(grid, z, z), geo.ScalarField(grid, z))


def smooth_real_connection(grid, scale=0.25):
    Z = grid.nodes
    alpha = scale * np.exp(-2 * np.abs(Z) ** 2) * Z
    A = geo.wirtinger(geo.ScalarField(grid, alpha), "dzbar")
    return geo.OneForm(grid, np.conj(A.c01), A.c01), alpha


def test_potential_pair_requires_real_X(grid):
    z = np.zeros(grid.shape)
    X = geo.OneForm(grid, np.ones(grid.shape), z)  # not real
    with pytest.raises(ValueError):
        fw.PotentialPair(X, geo.ScalarField(grid, z))


def test_apriori_report(grid):
    X, _ = smooth_real_connection(grid)
    q = geo.ScalarField(grid, np.exp(-np.abs(grid.nodes) ** 2))
    rep = fw.PotentialPair(X, q).apriori_report()
    assert rep["q_w1p"] > 0 and rep["X_w2p"] > 0 and np.isfinite(rep["X_w2p"])


def test_magnetic_apply_plain_laplacian(grid, zero_pot):
    Z = grid.nodes
    u = geo.ScalarField(grid, Z.real**2 + Z.imag**2)
    out = fw.magnetic_apply(zero_pot, u)
    assert np.max(np.abs(out.values + 4.0)) < 1e-8


def test_magnetic_apply_q_constant(grid):
    z = np.zeros(grid.shape)
    pot = fw.PotentialPair(geo.OneForm(grid, z, z), geo.ScalarField(grid, np.ones(grid.shape)))
    u = geo.ScalarField(grid, np.full(grid.shape, 2.0 + 1.0j))
    out = fw.magnetic_apply(pot, u)
    assert np.max(np.abs(out.values - u.values)) < 1e-8


def test_gauge_covariance_of_apply(grid):
    rng = np.random.default_rng(3)
    Z = grid.nodes
    for _ in range(10):
        c = rng.standard_normal(3)
        fg = (1 - np.abs(Z) ** 2) ** 2 * (c[0] + c[1] * Z.real + c[2] * Z.imag)
        df = geo.exterior_d(geo.ScalarField(grid, fg + 0j))
        pot = fw.PotentialPair(df, geo.ScalarField(grid, np.zeros(grid.shape)))
        v = geo.ScalarField(grid, np.exp(0.3 * Z.real) + rng.standard_normal() * Z.imag)
        lhs = fw.magnetic_apply(pot, geo.ScalarField(grid, np.exp(-1j * fg) * v.values))
        rhs = geo.ScalarField(grid, np.exp(-1j * fg) * geo.laplacian(v).values)
        assert geo.norm_l2(lhs - rhs) < 1e-3 * max(geo.norm_l2(rhs), 1.0)


def test_expansion_matches_factored_form(grid):
    rng = np.random.default_rng(4)
    Z = grid.nodes
    for _ in range(5):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        alpha = 0.2 * np.exp(-np.abs(Z) ** 2) * (c[0] * Z + c[1] * np.conj(Z) ** 2) * 0.5
        A = geo.wirtinger(geo.ScalarField(grid, alpha), "dzbar")
        X = geo.OneForm(grid, np.conj(A.c01), A.c01)
        q = geo.ScalarField(grid, 0.3 * np.exp(-2 * np.abs(Z - 0.2) ** 2))
        pot = fw.PotentialPair(X, q)
        F = geo.ScalarField(grid, np.exp(1j * alpha))
        v = geo.ScalarField(grid, c[2] + np.exp(0.3 * Z.imag) + c[3] * Z * np.conj(Z))
        e1 = fw.magnetic_apply(pot, v)
        e2 = fw.magnetic_apply_factored(pot, v, F)
        assert geo.norm_l2(e1 - e2) < 1e-3 * geo.norm_l2(e1)


def test_solve_harmonic_extension(grid, zero_pot):
    u = fw.MagneticOperator(zero_pot).solve(np.cos(grid.theta))
    assert np.max(np.abs(u - grid.nodes.real)) < 1e-6


def test_solve_constant(grid, zero_pot):
    u = fw.MagneticOperator(zero_pot).solve(np.ones(grid.n_theta))
    assert np.max(np.abs(u - 1.0)) < 1e-10


def test_solve_manufactured(grid):
    X, _ = smooth_real_connection(grid)
    Z = grid.nodes
    ustar = geo.ScalarField(grid, np.exp(0.3 * Z) + 2.0)
    pot = fw.manufactured_potential(ustar, X)
    u = fw.MagneticOperator(pot).solve(ustar.values[-1])
    assert np.max(np.abs(u - ustar.values)) < 1e-4


def test_discrete_residual_small(grid):
    X, _ = smooth_real_connection(grid)
    q = geo.ScalarField(grid, 0.2 * np.exp(-np.abs(grid.nodes) ** 2))
    pot = fw.PotentialPair(X, q)
    op = fw.MagneticOperator(pot)
    u = op.solve(np.exp(1j * grid.theta))
    assert op.residual(u) < 1e-8


def test_residual_independent_of_later_solves():
    """The residual of a solution does not depend on what the operator
    solved afterwards."""
    g = geo.PolarGrid(geo.disk(1.0), 48, 64)
    X, _ = smooth_real_connection(g)
    q = geo.ScalarField(g, 0.2 * np.exp(-np.abs(g.nodes) ** 2))
    op = fw.MagneticOperator(fw.PotentialPair(X, q))
    u1 = op.solve(np.exp(1j * g.theta))
    op.solve(3.0 + np.cos(3 * g.theta))
    assert op.residual(u1) < 1e-8


@pytest.mark.parametrize("domain", [geo.disk(1.0), geo.annulus(0.5, 1.5)], ids=["disk", "annulus"])
def test_solve_matches_dense_system(domain):
    """The block sweep against a dense solve of the unreduced interior
    equations (on a disk with the center unknown and its equation), and
    the one-solve pair builder's DtN against the single builder."""
    g = geo.PolarGrid(domain, 10, 16)
    X, alpha = smooth_real_connection(g)
    q = geo.ScalarField(g, 0.3 * np.exp(-2 * np.abs(g.nodes - 0.2) ** 2))
    pot = fw.PotentialPair(X, q)
    op = fw.MagneticOperator(pot)
    n_t = g.n_theta
    rng = np.random.default_rng(3)
    f = np.stack([
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t) for _ in g.boundary_rings
    ])
    want = _dense_solve(op, f)
    got = op.solve(f)
    assert np.max(np.abs(got[op.int_rings] - want)) <= 1e-12 * np.max(np.abs(want))
    for i, r in enumerate(g.boundary_rings):
        assert np.array_equal(got[r], f[i])

    F = geo.ScalarField(g, np.exp(1j * alpha))
    d, _ = fw.dtn_and_diagonalized_system_dtn(pot, F, 4)
    assert np.array_equal(d.matrix, fw.dtn(pot, 4).matrix)


def test_solve_annulus_harmonic():
    g = geo.PolarGrid(geo.annulus(0.5, 1.5), 96, 64)
    z = np.zeros(g.shape)
    pot = fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, z))
    # harmonic log|z| scaled: boundary data log(r)
    f_in = np.full(g.n_theta, np.log(0.5), dtype=complex)
    f_out = np.full(g.n_theta, np.log(1.5), dtype=complex)
    u = fw.MagneticOperator(pot).solve(np.stack([f_in, f_out]))
    assert np.max(np.abs(u - np.log(np.abs(g.nodes)))) < 1e-5


def test_neumann_data_trivial(grid, zero_pot):
    u = fw.MagneticOperator(zero_pot).solve(np.ones(grid.n_theta))
    nd = fw._magnetic_normal(zero_pot, *grid.boundary_jet(u[:, :, None]))[:, :, 0]
    assert np.max(np.abs(nd[-1])) < 1e-8


def test_neumann_dtheta_connection_on_annulus():
    """X = c dtheta is tangent to the boundary circles, so f = 1 picks up
    only the plain radial derivative."""
    g = geo.PolarGrid(geo.annulus(0.5, 1.5), 96, 64)
    Z = g.nodes
    dth = geo.OneForm(g, 1 / (2j * Z), -1 / (2j * np.conj(Z)))
    pot = fw.PotentialPair(dth, geo.ScalarField(g, np.zeros(g.shape)))
    u = fw.MagneticOperator(pot).solve(np.ones((2, g.n_theta)))
    nd = fw._magnetic_normal(pot, *g.boundary_jet(u[:, :, None]))[:, :, 0]
    for row in nd:
        assert np.max(np.abs(row.imag)) < 1e-8


def test_dtn_diagonal_zero_potential():
    g = geo.PolarGrid(geo.disk(1.0), 384, 64)
    z = np.zeros(g.shape)
    pot = fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, z))
    d = fw.dtn(pot, 8)
    n = np.arange(-8, 9)
    assert np.max(np.abs(np.diag(d.matrix) - np.abs(n))) < 1e-4
    off = d.matrix - np.diag(np.diag(d.matrix))
    assert np.max(np.abs(off)) < 1e-10


def test_dtn_symmetry_for_real_potentials(grid):
    X, _ = smooth_real_connection(grid)
    q = geo.ScalarField(grid, 0.3 * np.exp(-2 * np.abs(grid.nodes) ** 2))
    d = fw.dtn(fw.PotentialPair(X, q), 6)
    # self-adjointness: Hermitian symmetry of the coefficient matrix
    M = d.matrix
    assert np.max(np.abs(M - M.conj().T)) < 1e-3 * max(np.max(np.abs(M)), 1.0)
    # bilinear transpose pairs with the reversed connection
    Xm = geo.OneForm(grid, -X.c10, -X.c01)
    dm = fw.dtn(fw.PotentialPair(Xm, q), 6)
    assert np.max(np.abs(M - dm.matrix[::-1, ::-1].T)) < 1e-3 * max(np.max(np.abs(M)), 1.0)


def test_gauge_transform_identity(grid):
    X, _ = smooth_real_connection(grid)
    pot = fw.PotentialPair(X, geo.ScalarField(grid, np.zeros(grid.shape)))
    out = fw.gauge_transform(pot, geo.ScalarField(grid, np.zeros(grid.shape)))
    assert np.allclose(out.X.c01, pot.X.c01)


def test_gauge_transform_trace_check(grid):
    X, _ = smooth_real_connection(grid)
    pot = fw.PotentialPair(X, geo.ScalarField(grid, np.zeros(grid.shape)))
    bad = geo.ScalarField(grid, np.abs(grid.nodes) ** 2)
    with pytest.raises(ValueError):
        fw.gauge_transform(pot, bad)
    ok = geo.ScalarField(grid, (1 - np.abs(grid.nodes) ** 2) ** 2)
    out = fw.gauge_transform(pot, ok)
    assert out.X.is_real


def test_dtn_gauge_invariance(grid):
    X, _ = smooth_real_connection(grid)
    q = geo.ScalarField(grid, 0.3 * np.exp(-2 * np.abs(grid.nodes) ** 2))
    pot = fw.PotentialPair(X, q)
    fg = geo.ScalarField(grid, (1 - np.abs(grid.nodes) ** 2) ** 2)
    d1 = fw.dtn(pot, 6)
    d2 = fw.dtn(fw.gauge_transform(pot, fg), 6)
    rel = me.ensemble_distance(d1, d2) / np.linalg.norm(d1.matrix, 2)
    assert rel < 1e-3


def test_selfadjoint_green_identity(grid):
    X, _ = smooth_real_connection(grid)
    q = geo.ScalarField(grid, 0.2 * np.exp(-np.abs(grid.nodes) ** 2))  # real q
    pot = fw.PotentialPair(X, q)
    Z = grid.nodes
    bump = np.exp(-10 * np.abs(Z - 0.1) ** 2)
    u = geo.ScalarField(grid, bump * (1 + Z))
    v = geo.ScalarField(grid, bump * np.conj(Z) ** 2)
    lhs = geo.inner_l2(fw.magnetic_apply(pot, u), v)
    rhs = geo.inner_l2(u, fw.magnetic_apply(pot, v))
    scale = geo.norm_l2(u) * geo.norm_l2(v)
    assert abs(lhs - rhs) < 1e-4 * scale


# Exact identities of the discrete DtN map: they hold on the grid itself, for
# any potential, so each is checked to roundoff (1e-12 of max |Lambda|), far
# below the O(dr^2) error of the closed-form oracles
_ID_ORDER = 6
_ID_GRIDS = pytest.mark.parametrize("n_r, n_theta", [(24, 32), (48, 64)])
_ID_ANNULUS = geo.annulus(0.5, 1.0)


def _pair(g, c10, c01, q):
    return fw.PotentialPair(geo.OneForm(g, c10, c01), geo.ScalarField(g, q))


def _identity_pot(domain, n_r, n_theta):
    """The default family's t = 0.64 pair with 0.2i|z|^2 added to q, so that
    q is complex."""
    g = geo.PolarGrid(domain, n_r, n_theta)
    pot, _ = ex.default_potentials(ex.ExperimentConfig(), g).reduction(0.64)
    return _pair(g, pot.X.c10, pot.X.c01, pot.q.values + 0.2j * np.abs(g.nodes) ** 2)


def _circle_blocks(pot):
    """The DtN matrix indexed [circle i, mode m, circle j, mode n]."""
    d = fw.dtn(pot, _ID_ORDER)
    n_c, n_m = len(d.circles), 2 * _ID_ORDER + 1
    return d.matrix.reshape(n_c, n_m, n_c, n_m)


@_ID_GRIDS
@pytest.mark.parametrize("domain", [geo.disk(1.0), _ID_ANNULUS], ids=["disk", "annulus"])
def test_dtn_conjugation_identity(domain, n_r, n_theta):
    """Lambda_{-X, conj q}[m, n] = conj Lambda_{X, q}[-m, -n] in each circle block."""
    pot = _identity_pot(domain, n_r, n_theta)
    lam = _circle_blocks(pot)
    conj = _circle_blocks(_pair(pot.grid, -pot.X.c10, -pot.X.c01, np.conj(pot.q.values)))
    assert np.max(np.abs(conj - np.conj(lam[:, ::-1, :, ::-1]))) <= 1e-12 * np.max(np.abs(lam))


@_ID_GRIDS
@pytest.mark.parametrize("domain", [geo.disk(1.0), _ID_ANNULUS], ids=["disk", "annulus"])
def test_dtn_rotation_identity(domain, n_r, n_theta):
    """X and q rolled by one grid angle alpha (c10 e^{-i alpha}, c01 e^{i alpha})
    give Lambda_rot[m, n] = e^{-i alpha (m - n)} Lambda[m, n]."""
    pot = _identity_pot(domain, n_r, n_theta)
    g = pot.grid
    alpha = 2 * np.pi / n_theta
    c10, c01, q = (np.roll(v, 1, axis=1) for v in (pot.X.c10, pot.X.c01, pot.q.values))
    rot = _pair(g, c10 * np.exp(-1j * alpha), c01 * np.exp(1j * alpha), q)
    lam = _circle_blocks(pot)
    m = np.arange(-_ID_ORDER, _ID_ORDER + 1)
    phase = np.exp(-1j * alpha * (m[:, None] - m[None, :]))[None, :, None, :]
    assert np.max(np.abs(_circle_blocks(rot) - phase * lam)) <= 1e-12 * np.max(np.abs(lam))


@_ID_GRIDS
@pytest.mark.parametrize("k", [1, 2])
def test_dtn_integer_flux_identity_on_annulus(n_r, n_theta, k):
    """Adding k dtheta (c10 = 1/(2iz), c01 = conj c10) to X shifts the DtN
    map by k modes: Lambda_{X + k dtheta}[m, n] = Lambda_X[m + k, n + k] on
    the modes both matrices hold."""
    pot = _identity_pot(_ID_ANNULUS, n_r, n_theta)
    g = pot.grid
    dtheta = 1 / (2j * g.nodes)
    flux = _pair(g, pot.X.c10 + k * dtheta, pot.X.c01 + k * np.conj(dtheta), pot.q.values)
    lam = _circle_blocks(pot)
    n_m = lam.shape[1]
    shifted = _circle_blocks(flux)[:, : n_m - k, :, : n_m - k]
    assert np.max(np.abs(shifted - lam[:, k:, :, k:])) <= 1e-12 * np.max(np.abs(lam))


def _oracle_matrices(pot, F, order, op):
    """The three DtN matrices from their definitions: one solve per unit
    Fourier datum, then the Neumann data or the omega_01 trace and an FFT."""
    g = pot.grid
    rings = g.boundary_rings
    n_t = g.n_theta
    eit = np.exp(1j * g.theta)
    A01 = geo.project(pot.X).c01

    def column(samples_by_ring):
        c = [np.fft.fft(s) / n_t for s in samples_by_ring]
        return np.concatenate([[ci[m % n_t] for m in range(-order, order + 1)] for ci in c])

    cols = {"dtn": [], "system": [], "F": [], "G": []}
    for j in range(len(rings)):
        for n in range(-order, order + 1):
            boundary = np.zeros((len(rings), n_t), dtype=complex)
            boundary[j] = np.exp(1j * n * g.theta)
            u = geo.ScalarField(g, op.solve(boundary))
            nd = fw._magnetic_normal(pot, *g.boundary_jet(u.values[:, :, None]))[:, :, 0]
            om01 = g.d_zbar(u.values) + 1j * A01 * u.values
            lam = [om01[r] * np.conj(eit) for r in rings]
            cols["dtn"].append(column(nd))
            cols["system"].append(column(lam))
            cols["F"].append(column([F.values[r] * u.values[r] for r in rings]))
            cols["G"].append(column([x / np.conj(F.values[r]) for x, r in zip(lam, rings)]))
    mats = {k: np.array(v).T for k, v in cols.items()}
    return mats["dtn"], mats["system"], mats["G"] @ np.linalg.inv(mats["F"])


@pytest.mark.parametrize("domain", [geo.disk(1.0), geo.annulus(0.5, 1.5)])
def test_dtn_builders_match_column_oracle(domain):
    g = geo.PolarGrid(domain, 32, 32)
    X, alpha = smooth_real_connection(g)
    q = geo.ScalarField(g, 0.3 * np.exp(-2 * np.abs(g.nodes - 0.2) ** 2))
    pot = fw.PotentialPair(X, q)
    F = geo.ScalarField(g, np.exp(1j * alpha))
    op = fw.MagneticOperator(pot)
    order = 4
    built = (
        fw.dtn(pot, order),
        fw.system_dtn(pot, order),
        fw.dtn_and_diagonalized_system_dtn(pot, F, order)[1],
    )
    for d, ref in zip(built, _oracle_matrices(pot, F, order, op)):
        assert d.matrix.shape == ref.shape == (len(g.boundary_rings) * 9,) * 2
        assert d.circles == tuple(float(g.r[r]) for r in g.boundary_rings)
        assert np.max(np.abs(d.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dtn_order_must_fit_angular_bandwidth(monkeypatch):
    """2 order + 1 Fourier modes need n_theta samples; past that the top
    and bottom modes alias, and a negative order has no modes at all.  The
    builders refuse both before the operator is built."""
    g = geo.PolarGrid(geo.disk(1.0), 16, 16)
    X, alpha = smooth_real_connection(g)
    pot = fw.PotentialPair(X, geo.ScalarField(g, 0.3 * np.exp(-2 * np.abs(g.nodes) ** 2)))
    F = geo.ScalarField(g, np.exp(1j * alpha))
    builders = (
        lambda order: fw.dtn(pot, order),
        lambda order: fw.system_dtn(pot, order),
        lambda order: fw.dtn_and_diagonalized_system_dtn(pot, F, order)[1],
    )

    def no_factoring(*args, **kwargs):
        raise AssertionError("factored before the order check")

    monkeypatch.setattr(fw, "MagneticOperator", no_factoring)
    for build in builders:
        with pytest.raises(ValueError, match="order exceeds the sample bandwidth"):
            build(8)
        with pytest.raises(ValueError, match="order must be non-negative"):
            build(-1)
    monkeypatch.undo()
    for build in builders:
        d = build(7)
        assert d.matrix.shape == (15, 15) and np.all(np.isfinite(d.matrix))


# closed-form DtN oracles, n_theta 64, order 8: the solver is second order
# in dr, so the error falls by about 4 per doubling of n_r; the error is the
# largest one on entries pairing a mode with itself (on an annulus, the
# inner/outer block of each mode), relative to the largest exact entry


def _assert_second_order(pot_on, exact):
    errs = []
    for n_r in (48, 96, 192):
        d = fw.dtn(pot_on(n_r), 8)
        mode = np.arange(d.matrix.shape[0]) % 17
        same = mode[:, None] == mode[None, :]
        errs.append(np.max(np.abs(d.matrix - exact)[same]) / np.max(np.abs(exact)))
        assert np.max(np.abs(d.matrix[~same])) <= 1e-11
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_dtn_disk_helmholtz_oracle():
    """X = 0, q = -k^2 on the unit disk: Lambda_nn = k J_n'(k) / J_n(k)."""
    k = 2.0
    n = np.arange(-8, 9)

    def pot_on(n_r):
        g = geo.PolarGrid(geo.disk(1.0), n_r, 64)
        z = np.zeros(g.shape)
        return fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, z - k**2))

    _assert_second_order(pot_on, np.diag(k * jvp(n, k) / jv(n, k)))


def test_dtn_constant_field_oracle():
    """Constant field B on the unit disk, X_10 = -iB zbar/4, X_01 = iB z/4
    (so X(d_r) = 0), q = 0: Lambda_nn = R_n'(1)/R_n(1) with
    R_n = r^|n| e^{-B r^2/4} M(a, b, B r^2/2), a = (|n| + n + 1)/2,
    b = |n| + 1 and M Kummer's function."""
    B = 1.5
    n = np.arange(-8, 9)
    a, b = (np.abs(n) + n + 1) / 2, np.abs(n) + 1.0
    lam = np.abs(n) - B / 2 + B * (a / b) * hyp1f1(a + 1, b + 1, B / 2) / hyp1f1(a, b, B / 2)

    def pot_on(n_r):
        g = geo.PolarGrid(geo.disk(1.0), n_r, 64)
        Z = g.nodes
        X = geo.OneForm(g, -1j * B * np.conj(Z) / 4, 1j * B * Z / 4)
        return fw.PotentialPair(X, geo.ScalarField(g, np.zeros(g.shape)))

    _assert_second_order(pot_on, np.diag(lam))


def test_dtn_annulus_harmonic_oracle():
    """X = 0, q = 0 on the (0.5, 1) annulus: per mode, the 2x2 inner/outer
    block from the solutions r^|n|, r^-|n| (1, log r for n = 0), with the
    inner circle's normal pointing into the hole."""
    rho = 0.5
    exact = np.zeros((34, 34))
    for k, n in enumerate(range(-8, 9)):
        m = abs(n)
        if m == 0:
            V = [[1.0, np.log(rho)], [1.0, 0.0]]
            D = [[0.0, -1.0 / rho], [0.0, 1.0]]
        else:
            V = [[rho**m, rho**-m], [1.0, 1.0]]
            D = [[-m * rho ** (m - 1), m * rho ** (-m - 1)], [m, -m]]
        exact[np.ix_([k, 17 + k], [k, 17 + k])] = np.array(D) @ np.linalg.inv(V)

    def pot_on(n_r):
        g = geo.PolarGrid(geo.annulus(rho, 1.0), n_r, 64)
        assert tuple(g.r[r] for r in g.boundary_rings) == (rho, 1.0)
        z = np.zeros(g.shape)
        return fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, z))

    _assert_second_order(pot_on, exact)


def test_dtn_csv_roundtrip(tmp_path, grid):
    X, _ = smooth_real_connection(grid)
    pot = fw.PotentialPair(X, geo.ScalarField(grid, np.zeros(grid.shape)))
    d = fw.dtn(pot, 4)
    path = tmp_path / "dtn.csv"
    fw.save_dtn_csv(path, d)
    back = fw.load_dtn_csv(path)
    assert back.order == 4 and back.circles == d.circles
    assert np.max(np.abs(back.matrix - d.matrix)) < 1e-15


@pytest.mark.parametrize(
    "edit, message",
    [
        ("drop", "missing"),
        ("duplicate", "duplicate"),
        ("outside", "outside"),
        ("nan", "non-finite DtN entry"),
        ("nan radius", "non-finite DtN circle radius"),
        ("short header", "bad DtN header"),
        ("negative order", "bad DtN header: order -1"),
    ],
)
def test_dtn_csv_rejects_incomplete_file(tmp_path, edit, message):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    path = tmp_path / "dtn.csv"
    fw.save_dtn_csv(path, fw.DtnMatrix(order=1, circles=(0.5, 1.5), matrix=m))
    lines = path.read_text().splitlines()
    head = {
        "nan radius": [lines[0], "0.5,nan"],
        "short header": ["DTN v1", lines[1]],
        "negative order": ["DTN v1 -1 2", lines[1]],
    }.get(edit, lines[:2])
    entries = {
        "drop": lines[2:-1],
        "duplicate": lines[2:] + [lines[9]],
        "outside": lines[2:] + ["6,0,1.0,0.0"],
        "nan": lines[2:-1] + ["5,5,nan,0.0"],
    }.get(edit, lines[2:])
    path.write_text("\n".join(head + entries) + "\n")
    with pytest.raises(ValueError, match=message):
        fw.load_dtn_csv(path)


def test_eigenvalue_collision_perturbation(monkeypatch):
    """The operator refuses a Dirichlet eigenvalue of the disk problem: the
    continuum one under a tightened condition limit, the discrete one
    (found by the secant method) under the default limit."""
    g = geo.PolarGrid(geo.disk(1.0), 96, 16)
    z = np.zeros(g.shape)

    def pot_at(lam):
        return fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, np.full(g.shape, -lam)))

    # lowest Dirichlet eigenvalue of the unit disk: j_{0,1}^2 = 5.7832...
    lam = 5.783185962946785
    with monkeypatch.context() as m:
        m.setattr(fw, "CONDITION_LIMIT", 1e8)
        with pytest.raises(fw.EigenvalueCollision):
            fw.MagneticOperator(pot_at(lam))

    # the discrete eigenvalue: a simple pole of the solution for f = 1, so
    # the secant method on its reciprocal converges in a few steps
    def inv_value(lam):
        op = fw.MagneticOperator(pot_at(lam))
        return 1.0 / op.solve(np.ones(g.n_theta))[0, 0].real

    a, b = lam, lam + 1e-3
    with monkeypatch.context() as m:
        m.setattr(fw, "CONDITION_LIMIT", np.inf)
        fa = inv_value(a)
        for _ in range(3):
            fb = inv_value(b)
            a, fa, b = b, fb, b - fb * (b - a) / (fb - fa)
    with pytest.raises(fw.EigenvalueCollision):
        fw.MagneticOperator(pot_at(b)).solve(np.ones(g.n_theta))


def _small_pot(domain, n_theta=16):
    g = geo.PolarGrid(domain, 10, n_theta)
    X, _ = smooth_real_connection(g)
    q = geo.ScalarField(g, 0.3 * np.exp(-2 * np.abs(g.nodes - 0.2) ** 2))
    return fw.PotentialPair(X, q)


def _dense_solve(op, f):
    """Interior values from a dense solve of the unreduced interior
    equations (on a disk with the center unknown and its equation) for the
    boundary samples f of shape (n_boundary_rings, n_theta, ...)."""
    g = op.grid
    batch = f.shape[2:]
    f = f.reshape(f.shape[:2] + (-1,))
    n_t, J = g.n_theta, len(op.int_rings)
    disk = g.domain.kind == "disk"
    c = 1 if disk else 0  # dense index of ring block a starts at c + a n_t
    A = np.zeros((c + J * n_t,) * 2, dtype=complex)
    b = np.zeros((c + J * n_t, f.shape[2]), dtype=complex)
    for a in range(J):
        rows = slice(c + a * n_t, c + (a + 1) * n_t)
        A[rows, rows] = op._block(a)
        if a > 0:
            A[rows, c + (a - 1) * n_t : c + a * n_t] = np.diag(op.lo[a])
        elif disk:
            A[rows, 0] = op.lo[0]
        else:
            b[rows] -= op.lo[0][:, None] * f[0]
        if a < J - 1:
            A[rows, c + (a + 1) * n_t : c + (a + 2) * n_t] = np.diag(op.hi[a])
        else:
            b[rows] -= op.hi[a][:, None] * f[-1]
    if disk:
        A[0, 0] = op.center_diag
        A[0, 1 : 1 + n_t] = op.center_row
    return np.linalg.solve(A, b)[c:].reshape((J, n_t) + batch)


@pytest.mark.parametrize("domain", [geo.disk(1.0), geo.annulus(0.5, 1.5)], ids=["disk", "annulus"])
def test_batched_solve_columns_match_dense_system(domain):
    """The forward elimination carries only the columns with inner-circle
    data; every column of a mixed batch still matches its own dense solve.
    The disk batch holds the condition probe's random column."""
    pot = _small_pot(domain)
    g = pot.grid
    op = fw.MagneticOperator(pot)
    n_t = g.n_theta
    rng = np.random.default_rng(0)
    probe = np.stack([
        rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t) for _ in g.boundary_rings
    ])
    if domain.kind == "disk":
        cols = [probe, np.exp(2j * g.theta)[None], np.ones((1, n_t))]
    else:
        inner, outer = np.exp(-1j * g.theta), 1.0 + np.cos(3 * g.theta)
        zero = np.zeros(n_t)
        cols = [np.stack([inner, zero]), np.stack([zero, outer]), probe]
    f = np.stack(cols, axis=-1).astype(complex)
    got = op.solve(f)
    for k in range(f.shape[-1]):
        want = _dense_solve(op, f[:, :, k])
        assert np.max(np.abs(got[op.int_rings, :, k] - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got[list(g.boundary_rings), :, k], f[:, :, k])


@pytest.mark.parametrize(
    "domain, scale, n_r, n_theta",
    [
        (geo.disk(1.0), 1.0, 24, 32),
        (geo.annulus(0.5, 1.5), 3.3, 24, 32),
        (geo.disk(1.0), 1.0, 10, 128),
        (geo.annulus(0.5, 1.5), 3.3, 10, 128),
    ],
    ids=["disk", "annulus", "disk-split", "annulus-split"],
)
def test_sweep_matches_dense_near_resonance(domain, scale, n_r, n_theta, monkeypatch):
    """The sweep on explicit ring inverses stays accurate on a q = -lambda
    ladder through the first Dirichlet eigenvalue (j_{0,1}^2 = 5.7832 on
    the unit disk) and beyond it.  At n_theta = 32 each ring inverse is one
    pivoted leaf; at 128 it is split twice (128 -> 64 -> 32), and the split
    does not pivot across its halves."""
    g = geo.PolarGrid(domain, n_r, n_theta)
    X, _ = smooth_real_connection(g, scale=0.05)
    rng = np.random.default_rng(5)
    n_c = len(g.boundary_rings)
    f = rng.standard_normal((n_c, g.n_theta, 3)) + 1j * rng.standard_normal((n_c, g.n_theta, 3))
    monkeypatch.setattr(fw, "CONDITION_LIMIT", np.inf)
    for lam in (0.0, 3.0, 5.0, 5.7, 5.78, 5.7832, 6.5, 20.0):
        q = geo.ScalarField(g, np.full(g.shape, -lam * scale))
        op = fw.MagneticOperator(fw.PotentialPair(X, q))
        got = op.solve(f)
        want = _dense_solve(op, f)
        for k in range(f.shape[-1]):
            err = np.max(np.abs(got[op.int_rings, :, k] - want[:, :, k]))
            assert err <= 1e-10 * np.max(np.abs(want[:, :, k])), (lam, k)


def test_singular_block_names_its_ring(monkeypatch):
    """An exactly singular ring block is refused by name, not left to the
    condition probe.  Ring 0 of an annulus carries no Schur or center term,
    so a zero row there makes its factor singular: at n_theta = 16 in a
    pivoted leaf, at 64 in the trailing half's Schur complement of the
    block recursion."""
    block = fw.MagneticOperator._block
    for n_theta, row in ((16, 3), (64, 40)):

        def zero_row(self, a, row=row):
            B = block(self, a)
            if a == 0:
                B[row] = 0.0
            return B

        pot = _small_pot(geo.annulus(0.5, 1.5), n_theta)
        monkeypatch.setattr(fw.MagneticOperator, "_block", zero_row)
        with pytest.raises(fw.EigenvalueCollision, match="singular block at interior ring 0"):
            fw.MagneticOperator(pot)


@pytest.mark.parametrize("domain", [geo.disk(1.0), geo.annulus(0.5, 1.5)], ids=["disk", "annulus"])
def test_assemble_rejects_overflowing_coefficients(domain):
    """|X|^2 overflows for X = 1e200; the assembled coefficients are refused."""
    g = geo.PolarGrid(domain, 10, 16)
    X = geo.OneForm(g, np.full(g.shape, 1e200 + 0j), np.full(g.shape, 1e200 + 0j))
    pot = fw.PotentialPair(X, geo.ScalarField(g, np.zeros(g.shape)))
    with pytest.raises(ValueError):
        fw.MagneticOperator(pot)


def test_numpy_floating_point_warnings_stay_on():
    """No test module switches numpy's floating-point warnings off for the
    whole run, so under `filterwarnings = ["error"]` an overflow or invalid
    value fails its test unless the lab handles it where it arises."""
    assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore", "invalid": "warn"}


def test_solve_rejects_nonfinite_boundary_data():
    pot = _small_pot(geo.annulus(0.5, 1.5))
    op = fw.MagneticOperator(pot)
    f = np.ones((2, pot.grid.n_theta))
    f[0, 5] = np.nan
    with pytest.raises(ValueError):
        op.solve(f)


@pytest.mark.parametrize("domain", [geo.disk(1.0), geo.annulus(0.5, 1.5)], ids=["disk", "annulus"])
def test_solve_rejects_misshapen_boundary_data(domain):
    """Boundary samples must have one row per boundary circle and n_theta
    columns; anything else is refused by shape, not broadcast or dropped."""
    pot = _small_pot(domain)
    op = fw.MagneticOperator(pot)
    n_t = pot.grid.n_theta
    if domain.kind == "disk":
        bad = [np.ones((2, n_t)), np.ones(n_t - 4)]
    else:
        bad = [np.ones((1, n_t)), np.ones((3, n_t)), np.ones(n_t), np.ones((2, n_t - 4))]
    for f in bad:
        with pytest.raises(ValueError, match="boundary samples must have shape"):
            op.solve(f)
