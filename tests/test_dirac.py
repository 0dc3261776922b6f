import numpy as np
import pytest

from dbarlab import geometry as geo
from dbarlab import forward as fw
from dbarlab import dirac as dc
from dbarlab import phases as ph


@pytest.fixture(scope="module")
def grid():
    return geo.PolarGrid(geo.disk(0.5), 96, 128)


@pytest.fixture(scope="module")
def manufactured(grid):
    """Exact potential pair + section built from a closed-form primitive."""
    Z = grid.nodes
    alpha = 0.3 * np.exp(-6 * np.abs(Z) ** 2) * Z
    A = geo.wirtinger(geo.ScalarField(grid, alpha), "dzbar")
    X = geo.OneForm(grid, np.conj(A.c01), A.c01)
    ustar = geo.ScalarField(grid, np.exp(0.4 * Z) + 2.0)
    pot = fw.manufactured_potential(ustar, X)
    V, red = dc.reduce_schrodinger(pot, alpha=geo.ScalarField(grid, alpha))
    om = geo.OneForm(
        grid,
        np.zeros(grid.shape),
        geo.wirtinger(ustar, "dzbar").c01 + 1j * A.c01 * ustar.values,
    )
    return pot, V, red, dc.SigmaSection(ustar, om)


def test_dirac_kills_holomorphic(grid):
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    V0 = dc.PotentialMatrix.zero(grid)
    U = dc.SigmaSection(geo.ScalarField(grid, Z**2 + 1), geo.OneForm(grid, zeros, zeros))
    out = dc.dirac_apply(V0, U)
    assert geo.norm_l2(out.u) < 1e-10 and geo.norm_l2(out.omega) < 1e-10


def test_dirac_kills_antiholomorphic(grid):
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    V0 = dc.PotentialMatrix.zero(grid)
    U = dc.SigmaSection(
        geo.ScalarField(grid, zeros), geo.OneForm(grid, zeros, np.conj(Z) ** 2 + 0.5)
    )
    out = dc.dirac_apply(V0, U)
    assert geo.norm_l2(out.u) < 1e-10 and geo.norm_l2(out.omega) < 1e-10


def test_sigma_section_refuses_10_part(grid):
    """The second component is pure (0,1) under `dbar_inverse`'s rule: a
    (1,0) part above 1e-12 max(max|c01|, 1) is refused, not dropped."""
    u = geo.ScalarField(grid, np.zeros(grid.shape))
    c01 = np.full(grid.shape, 3.0)
    dc.SigmaSection(u, geo.OneForm(grid, np.full(grid.shape, 2.9e-12), c01))
    with pytest.raises(ValueError, match="SigmaSection requires a pure \\(0,1\\)-form"):
        dc.SigmaSection(u, geo.OneForm(grid, np.full(grid.shape, 3.1e-12), c01))


def test_reduction_consistency(manufactured):
    _, V, _, U = manufactured
    resid = dc.dirac_apply(V, U)
    scale = dc.h1_norm_section(U)
    assert (geo.norm_l2(resid.u) + geo.norm_l2(resid.omega)) < 1e-3 * scale


def test_reduce_trivials(grid):
    zeros = np.zeros(grid.shape)
    q = geo.ScalarField(grid, 0.3 * np.exp(-np.abs(grid.nodes) ** 2))
    V, red = dc.reduce_schrodinger(fw.PotentialPair(geo.OneForm(grid, zeros, zeros), q))
    assert np.max(np.abs(red.F.values - 1.0)) < 1e-12
    assert np.max(np.abs(red.Q.values - q.values)) < 1e-12


def test_reduce_closed_connection_kills_Q(grid):
    # X = df has dX = 0, so Q = q = 0
    Z = grid.nodes
    f = (0.25 - np.abs(Z) ** 2) ** 2
    df = geo.exterior_d(geo.ScalarField(grid, f + 0j))
    pot = fw.PotentialPair(df, geo.ScalarField(grid, np.zeros(grid.shape)))
    _, red = dc.reduce_schrodinger(pot)
    assert np.max(np.abs(red.Q.values)) < 1e-6


def test_reduce_generic_Q_matches_direct(manufactured, grid):
    pot, _, red, _ = manufactured
    direct = -geo.hodge_star(geo.exterior_d(pot.X)).values + pot.q.values
    assert np.max(np.abs(red.Q.values - direct)) < 1e-4


def test_diagonalize_roundtrip(manufactured):
    _, _, red, U = manufactured
    Ut = dc.transform_section(U, red.F)
    back = dc.undiagonalize(Ut, red.F)
    assert np.max(np.abs(back.u.values - U.u.values)) < 1e-10
    assert np.max(np.abs(back.omega.c01 - U.omega.c01)) < 1e-10


def test_diagonalize_formula(manufactured):
    _, _, red, _ = manufactured
    d = dc.diagonalize(red)
    expected = red.Q.values / (2 * np.abs(red.F.values) ** 2)
    assert np.max(np.abs(d.Qtilde.values - expected)) < 1e-12
    assert np.max(np.abs(d.Ftilde.values + np.abs(red.F.values) ** 2)) < 1e-12


def test_diagonal_system_equivalence(manufactured, grid):
    _, _, red, U = manufactured
    d = dc.diagonalize(red)
    Ut = dc.transform_section(U, red.F)
    zeros = np.zeros(grid.shape)
    Vt = dc.PotentialMatrix(
        d.Qtilde, geo.OneForm(grid, zeros, zeros), geo.OneForm(grid, zeros, zeros), d.Ftilde
    )
    resid = dc.dirac_apply(Vt, Ut)
    assert (geo.norm_l2(resid.u) + geo.norm_l2(resid.omega)) < 1e-3 * dc.h1_norm_section(Ut)


# -- oscillatory inverses -------------------------------------------------------


def test_oscillatory_zero(grid):
    zeros = np.zeros(grid.shape)
    base = ph.base_phase(0.0)
    out = dc.OscillatoryCauchy(grid, base, 0.1).dbar_inv(geo.OneForm(grid, zeros, zeros))
    assert geo.norm_l2(out) == 0.0


def test_oscillatory_refuses_10_part(grid):
    """P, like `dbar_inverse`, takes pure (0,1)-forms only: a (1,0) part is
    refused, not dropped."""
    om = geo.OneForm(grid, np.exp(-np.abs(grid.nodes) ** 2), np.zeros(grid.shape))
    with pytest.raises(ValueError, match="pure \\(0,1\\)-form"):
        dc.OscillatoryCauchy(grid, ph.base_phase(0.0), 0.1).dbar_inv(om)


def test_oscillatory_requires_positive_h(grid):
    base = ph.base_phase(0.0)
    with pytest.raises(ValueError):
        dc.OscillatoryCauchy(grid, base, -1.0)


def test_oscillatory_requires_phase_object(grid):
    psi = geo.ScalarField(grid, grid.nodes.imag)
    with pytest.raises(TypeError):
        dc.OscillatoryCauchy(grid, psi, 0.1)


def test_oscillatory_decay_slopes(grid):
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    base = ph.base_phase(0.0)
    om = geo.OneForm(grid, zeros, np.exp(-6 * np.abs(Z - 0.1) ** 2) * (1 + Z))
    hs = [0.2, 0.1, 0.05, 0.025, 0.0125]
    l2, l4 = [], []
    for h in hs:
        u = dc.OscillatoryCauchy(grid, base, h).dbar_inv(om)
        l2.append(geo.norm_l2(u))
        l4.append(float(np.sum(grid.weights * np.abs(u.values) ** 4) ** 0.25))
    assert ph.fit_loglog_slope(hs, l2) >= 0.5
    assert ph.fit_loglog_slope(hs, l4) >= 0.25


def test_oscillatory_star_variant(grid):
    Z = grid.nodes
    base = ph.base_phase(0.0)
    v = geo.ScalarField(grid, np.exp(-6 * np.abs(Z - 0.05) ** 2))
    hs = [0.2, 0.1, 0.05, 0.025]
    norms = [geo.norm_l2(dc.OscillatoryCauchy(grid, base, h).dbar_star_inv(v)) for h in hs]
    assert ph.fit_loglog_slope(hs, norms) >= 0.5


# -- Neumann series CGO ----------------------------------------------------------


def test_cgo_zero_potential(grid):
    zeros = np.zeros(grid.shape)
    V0 = dc.DiagonalPotential(geo.ScalarField(grid, zeros), geo.ScalarField(grid, zeros))
    sol = dc.neumann_cgo(V0, ph.base_phase(0.0), 0.1)
    assert geo.norm_l2(sol.r_h) == 0.0 and geo.norm_l2(sol.s_h) == 0.0
    assert sol.contraction_estimate == 0.0


@pytest.fixture(scope="module")
def small_diag(grid):
    Z = grid.nodes
    Qt = geo.ScalarField(grid, 0.5 * np.exp(-8 * np.abs(Z - 0.05) ** 2))
    Ft = geo.ScalarField(grid, -(1 + 0.2 * np.exp(-6 * np.abs(Z + 0.1) ** 2)))
    return dc.DiagonalPotential(Qt, Ft)


def test_cgo_residuals_and_seeds(small_diag):
    for kind, coeffs in (("b", (1.0, 0.5)), ("a", (1.0, 0.0, 0.3))):
        sol = dc.neumann_cgo(small_diag, ph.base_phase(0.0), 0.05, seed_kind=kind, seed_coeffs=coeffs)
        assert max(sol.residuals) < 1e-8
        assert sol.contraction_estimate < 0.9
        assert sol.norms["norm_r_l2"] > 0 and sol.norms["norm_s_l2"] > 0


@pytest.mark.parametrize("kind", ["a", "b"])
def test_cgo_stopping_rule_is_relative(kind):
    """The series stops relative to its first term, so the residual does
    not depend on the seed's scale."""
    g = geo.PolarGrid(geo.disk(0.5), 32, 64)
    Z = g.nodes
    Vt = dc.DiagonalPotential(
        geo.ScalarField(g, 0.5 * np.exp(-8 * np.abs(Z - 0.05) ** 2)),
        geo.ScalarField(g, -(1 + 0.2 * np.exp(-6 * np.abs(Z + 0.1) ** 2))),
    )
    for scale in (1.0, 1e-6, 1e-10):
        sol = dc.neumann_cgo(Vt, ph.base_phase(0.0), 0.2, seed_kind=kind, seed_coeffs=(scale,))
        assert sol.residuals[0] < 1e-12, (scale, sol.residuals)


def test_cgo_contraction_refusal(grid):
    Z = grid.nodes
    huge = dc.DiagonalPotential(
        geo.ScalarField(grid, 3e3 * np.ones(grid.shape)),
        geo.ScalarField(grid, -3e3 * np.ones(grid.shape)),
    )
    with pytest.raises(dc.ContractionError):
        dc.neumann_cgo(huge, ph.base_phase(0.0), 0.2)


@pytest.mark.parametrize("kind", ["a", "b"])
def test_cgo_refusal_boundary(small_diag, kind):
    """Scaling the potential by s scales S by s^2.  s = 5 converges.  From
    s = 7.05 the terms shrink too slowly to meet the stop within the term
    cap, so a term ratio reaches the limit and the series is refused."""
    base = ph.base_phase(0.0)

    def scaled(s):
        return dc.DiagonalPotential(small_diag.Qtilde * s, small_diag.Ftilde * s)

    sol = dc.neumann_cgo(scaled(5.0), base, 0.2, seed_kind=kind)
    assert sol.terms_used < dc.MAX_TERMS
    assert sol.residuals[0] < 1e-12
    assert sol.contraction_estimate < dc.CONTRACTION_LIMIT
    with pytest.raises(dc.ContractionError):
        dc.neumann_cgo(scaled(7.05), base, 0.2, seed_kind=kind)
    for s in (7.2, 8.0):
        with pytest.raises(dc.ContractionError, match=r"term ratio \S+ >= "):
            dc.neumann_cgo(scaled(s), base, 0.2, seed_kind=kind)


def test_cgo_matches_dense_solve():
    """Dense LU on the discretized integral equation agrees with the series."""
    g = geo.PolarGrid(geo.disk(0.5), 32, 32)
    Z = g.nodes
    zeros = np.zeros(g.shape)
    Qt = geo.ScalarField(g, 0.5 * np.exp(-8 * np.abs(Z - 0.05) ** 2))
    Ft = geo.ScalarField(g, -(1 + 0.2 * np.exp(-6 * np.abs(Z + 0.1) ** 2)))
    Vt = dc.DiagonalPotential(Qt, Ft)
    h = 0.1
    base = ph.base_phase(0.0)
    sol = dc.neumann_cgo(Vt, base, h, seed_kind="b", seed_coeffs=(1.0,))
    op = dc.OscillatoryCauchy(g, base, h)

    def S_vals(x):
        s = op.dbar_star_inv(geo.ScalarField(g, Qt.values * x))
        return op.dbar_inv(geo.OneForm(g, zeros, Ft.values * s.c01)).values

    n = g.n_r * g.n_theta
    cols = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols[:, k] = S_vals(e.reshape(g.shape)).ravel()
    A = np.eye(n, dtype=complex) - cols
    rhs = -op.dbar_inv(geo.OneForm(g, zeros, Ft.values * np.ones(g.shape))).values.ravel()
    r_dense = np.linalg.solve(A, rhs).reshape(g.shape)
    diff = np.sqrt(np.sum(g.weights * np.abs(r_dense - sol.r_h.values) ** 2))
    assert diff < 1e-6


def test_cgo_section_solves_diagonal_system(small_diag, grid):
    """The assembled CGO section satisfies the system in the quadrature-
    consistent sense: the remainder equations hold to series tolerance."""
    sol = dc.neumann_cgo(small_diag, ph.base_phase(0.0), 0.05)
    assert max(sol.residuals) < 1e-8
    sec = dc.cgo_section(sol)
    assert np.all(np.isfinite(sec.u.values))


# -- pairings ----------------------------------------------------------------------


def test_boundary_pairing_zero_cases(grid):
    zeros = np.zeros(grid.shape)
    Z = grid.nodes
    U0 = dc.SigmaSection(geo.ScalarField(grid, zeros), geo.OneForm(grid, zeros, zeros))
    U1 = dc.SigmaSection(geo.ScalarField(grid, Z), geo.OneForm(grid, zeros, np.conj(Z)))
    assert dc.boundary_pairing(U0, U1) == 0.0
    aonly = dc.SigmaSection(geo.ScalarField(grid, Z**2), geo.OneForm(grid, zeros, zeros))
    aonly2 = dc.SigmaSection(geo.ScalarField(grid, Z + 1), geo.OneForm(grid, zeros, zeros))
    assert abs(dc.boundary_pairing(aonly, aonly2)) < 1e-12


def test_green_identity_random_sections(manufactured, grid):
    _, V, _, _ = manufactured
    rng = np.random.default_rng(5)
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    for _ in range(5):
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        u = c[0] + c[1] * Z + c[2] * Z * np.conj(Z)
        w = c[3] + c[4] * np.conj(Z) + c[5] * Z**2
        U = dc.SigmaSection(geo.ScalarField(grid, u), geo.OneForm(grid, zeros, w))
        u2 = c[5] + c[0] * np.conj(Z) ** 2 + c[2] * Z
        w2 = c[1] * Z * np.conj(Z) + c[3]
        Up = dc.SigmaSection(geo.ScalarField(grid, u2), geo.OneForm(grid, zeros, w2))
        rep = dc.verify_green(V, U, Up)
        scale = dc.h1_norm_section(U) * dc.h1_norm_section(Up)
        assert rep["residual"] < 1e-3 * scale


def test_green_identity_with_adjoint_solution(grid):
    """With real q and X the reduction potential is self-adjoint, so a
    gauge-covariant derivative of a solved field gives an adjoint solution
    and the one-sided boundary identity holds."""
    Z = grid.nodes
    alpha = 0.2 * np.exp(-6 * np.abs(Z) ** 2) * Z
    A = geo.wirtinger(geo.ScalarField(grid, alpha), "dzbar")
    X = geo.OneForm(grid, np.conj(A.c01), A.c01)
    q = geo.ScalarField(grid, 0.3 * np.exp(-4 * np.abs(Z) ** 2))  # real
    pot = fw.PotentialPair(X, q)
    V, _ = dc.reduce_schrodinger(pot, alpha=geo.ScalarField(grid, alpha))
    Vadj = dc.adjoint_matrix(V)
    assert np.max(np.abs(Vadj.Qplus.values - V.Qplus.values)) < 1e-12
    u = fw.solve_dirichlet(pot, np.exp(1j * grid.theta))
    om = geo.OneForm(grid, np.zeros(grid.shape), geo.wirtinger(u, "dzbar").c01 + 1j * A.c01 * u.values)
    Uprime = dc.SigmaSection(u, om)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    U = dc.SigmaSection(
        geo.ScalarField(grid, c[0] + c[1] * Z),
        geo.OneForm(grid, np.zeros(grid.shape), c[2] * np.conj(Z) + c[3]),
    )
    lhs = dc.inner_sigma(dc.dirac_apply(V, U), Uprime)
    bd = dc.boundary_pairing(U, Uprime)
    scale = dc.h1_norm_section(U) * dc.h1_norm_section(Uprime)
    assert abs(lhs - bd) < 1e-3 * scale


def test_auxiliary_functional(manufactured, grid):
    _, _, red, _ = manufactured
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    alpha2 = red.alpha.values + 0.1 * np.conj(Z) * np.exp(-4 * np.abs(Z) ** 2)
    F2 = geo.ScalarField(grid, np.exp(1j * alpha2))
    a = geo.ScalarField(grid, Z + 2)
    b = geo.OneForm(grid, zeros, np.conj(Z) + 1)
    rep = dc.auxiliary_functional(red.F, F2, a, b)
    assert rep["difference"] < 1e-3 * max(abs(rep["interior"]), 1e-12)
    # A1 = A2 kills the interior form
    rep0 = dc.auxiliary_functional(red.F, red.F, a, b, A1=red.A, A2=red.A)
    assert abs(rep0["interior"]) < 1e-12
    # zero seeds kill everything
    rep1 = dc.auxiliary_functional(
        red.F, F2, geo.ScalarField(grid, zeros), b
    )
    assert abs(rep1["interior"]) < 1e-12 and abs(rep1["boundary"]) < 1e-12


def test_section_inner_product_via_geometry(grid):
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    U = dc.SigmaSection(geo.ScalarField(grid, Z), geo.OneForm(grid, zeros, np.conj(Z)))
    got = dc.inner_sigma(U, U)
    want = geo.inner_l2(U.u, U.u) + geo.inner_l2(U.omega, U.omega)
    assert abs(got - want) < 1e-12
    assert got.real > 0


def test_contraction_estimate_decreases_with_h(small_diag):
    hs = [0.2, 0.1, 0.05, 0.025]
    ests = []
    for h in hs:
        sol = dc.neumann_cgo(small_diag, ph.base_phase(0.0), h)
        ests.append(sol.contraction_estimate)
    assert all(b < a for a, b in zip(ests, ests[1:]))
    assert ph.fit_loglog_slope(hs, ests) >= 0.4


def test_h1_growth_bounded(small_diag):
    """h * log of the assembled solution's H1 size stays bounded over the
    sweep (exponential-in-1/h growth envelope)."""
    hs = [0.2, 0.1, 0.05, 0.025]
    vals = []
    for h in hs:
        sol = dc.neumann_cgo(small_diag, ph.base_phase(0.0), h)
        sec = dc.cgo_section(sol)
        vals.append(h * np.log(max(dc.h1_norm_section(sec), 1e-300)))
    assert max(vals) < 10.0
    assert vals[-1] <= max(vals[0], 1.0) + 1.0
