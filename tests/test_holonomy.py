import numpy as np
import pytest

from dbarlab import geometry as geo
from dbarlab import holonomy as ho


@pytest.fixture(scope="module")
def grid():
    return geo.PolarGrid(geo.annulus(0.5, 2.0), 128, 256)


@pytest.fixture(scope="module")
def loop():
    return geo.circle_loop(1.2, 1024)


def dtheta_form(grid, n=1):
    Z = grid.nodes
    return geo.OneForm(grid, n / (2j * Z), -n / (2j * np.conj(Z)))


def test_defect_identical_forms(grid, loop):
    X = dtheta_form(grid)
    rep = ho.holonomy_defect(X, X, loop)
    assert rep.defect == 0.0 and rep.nearest_k == 0


def test_defect_integer_periods(grid, loop):
    zeros = np.zeros(grid.shape)
    X2 = geo.OneForm(grid, zeros, zeros)
    for n in (1, 2, 3):
        rep = ho.holonomy_defect(dtheta_form(grid, n), X2, loop)
        assert rep.nearest_k == n
        assert rep.defect < 1e-6
        assert abs(abs(rep.transport) - 1.0) < 1e-6


def test_defect_arithmetic():
    # integral 6.4 sits nearest the k=1 lattice point
    assert abs((6.4 - 2 * np.pi) - 0.11681469282) < 1e-9
    k = int(round(6.4 / (2 * np.pi)))
    assert k == 1


def _theta_sup(F1, F2):
    """Sup of theta = conj(F1 / F2)^{-1} - F1 / F2, the ratio's deviation
    from unimodularity."""
    ratio = F1.values / F2.values
    return float(np.max(np.abs(1.0 / np.conj(ratio) - ratio)))


def test_theta_field_trivial(grid):
    F = geo.ScalarField(grid, np.exp(1j * grid.nodes.real))
    assert _theta_sup(F, F) < 1e-12


def test_theta_unimodular_modulus(grid):
    # equal moduli force the perturbation to vanish identically
    Z = grid.nodes
    F1 = geo.ScalarField(grid, np.exp(1j * Z.real))
    F2 = geo.ScalarField(grid, np.exp(1j * (Z.real + 0.3 * Z.imag)))
    assert _theta_sup(F1, F2) < 1e-12


def test_theta_perturbation_bound(grid):
    Z = grid.nodes
    m = 0.1 * np.exp(-np.abs(Z - 1.2) ** 2)
    F1 = geo.ScalarField(grid, (1 + m) * np.exp(1j * Z.real))
    F2 = geo.ScalarField(grid, np.exp(1j * Z.real))
    sup = _theta_sup(F1, F2)
    mod_gap = np.abs(np.abs(F1.values) ** 2 - np.abs(F2.values) ** 2)
    C = float(np.max(1.0 / np.abs(np.conj(F1.values) * F2.values)))
    assert sup <= C * np.max(mod_gap) + 1e-12


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_winding_integer_powers(grid, loop, k):
    Z = grid.nodes
    th = geo.ScalarField(grid, Z**k * np.exp(np.sin(0.3 * Z)))
    rep = ho.winding_integral(th, loop)
    assert rep["winding"] == k
    assert rep["distance"] < 1e-3


def test_winding_exact_logarithm(grid, loop):
    Z = grid.nodes
    th = geo.ScalarField(grid, np.exp(np.cos(Z)))
    rep = ho.winding_integral(th, loop)
    assert rep["winding"] == 0
    assert abs(rep["value"]) < 1e-6


def test_winding_z_exp_sin(grid, loop):
    Z = grid.nodes
    th = geo.ScalarField(grid, Z * np.exp(np.sin(Z)))
    rep = ho.winding_integral(th, loop)
    assert rep["winding"] == 1
    assert rep["distance"] < 1e-6


def test_winding_rejects_vanishing(grid, loop):
    Z = grid.nodes
    th = geo.ScalarField(grid, Z - 1.2)  # zero on the loop
    with pytest.raises(ValueError):
        ho.winding_integral(th, loop)


def test_winding_randomized_battery(grid):
    rng = np.random.default_rng(3)
    Z = grid.nodes
    for trial in range(20):
        k = int(rng.integers(-2, 3))
        c = rng.standard_normal(3) * 0.3
        g_smooth = c[0] * np.sin(0.4 * Z) + c[1] * np.cos(0.3 * Z) + 1j * c[2] * Z / 2
        th = geo.ScalarField(grid, Z**k * np.exp(g_smooth))
        radius = float(rng.uniform(0.8, 1.7))
        rep = ho.winding_integral(th, geo.circle_loop(radius, 512))
        assert rep["winding"] == k
        assert rep["distance"] < 1e-3


def _gauge_residual_sup(X1, X2, theta_ratio):
    """Sup of |i(X1 - X2) - d(ratio)/ratio|_g, with |dz|^2 = 2."""
    d = geo.exterior_d(theta_ratio)
    r10 = 1j * (X1.c10 - X2.c10) - d.c10 / theta_ratio.values
    r01 = 1j * (X1.c01 - X2.c01) - d.c01 / theta_ratio.values
    return float(np.max(np.sqrt(2.0 * (np.abs(r10) ** 2 + np.abs(r01) ** 2))))


def test_gauge_residual_trivial(grid):
    X = dtheta_form(grid)
    one = geo.ScalarField(grid, np.ones(grid.shape))
    assert _gauge_residual_sup(X, X, one) < 1e-12


def test_gauge_residual_exact_gauge(grid):
    Z = grid.nodes
    alpha = 0.2 * np.exp(-2 * np.abs(Z - 1.2) ** 2) * Z
    A = geo.wirtinger(geo.ScalarField(grid, alpha), "dzbar")
    X1 = geo.OneForm(grid, np.conj(A.c01), A.c01)
    f = np.maximum(0.0, 1 - ((np.abs(Z) - 1.25) / 0.5) ** 2) ** 3
    X2 = X1 + geo.exterior_d(geo.ScalarField(grid, f + 0j))
    theta_ratio = geo.ScalarField(grid, np.exp(-1j * f))
    assert _gauge_residual_sup(X1, X2, theta_ratio) < 1e-3


def test_defect_invariant_under_exact_gauge(grid, loop):
    Z = grid.nodes
    zeros = np.zeros(grid.shape)
    X1 = dtheta_form(grid, 2)
    X2 = geo.OneForm(grid, zeros, zeros)
    base = ho.holonomy_defect(X1, X2, loop)
    f = np.maximum(0.0, 1 - ((np.abs(Z) - 1.25) / 0.5) ** 2) ** 3
    X2g = X2 + geo.exterior_d(geo.ScalarField(grid, f + 0j))
    shifted = ho.holonomy_defect(X1, X2g, loop)
    assert abs(shifted.defect - base.defect) < 1e-4
    assert shifted.nearest_k == base.nearest_k


def test_loop_refinement_stability(grid):
    X1 = dtheta_form(grid, 1)
    zeros = np.zeros(grid.shape)
    X2 = geo.OneForm(grid, zeros, zeros)
    l1 = geo.circle_loop(1.3, 512)
    l2 = geo.circle_loop(1.3, 1024)
    r1 = ho.holonomy_defect(X1, X2, l1)
    r2 = ho.holonomy_defect(X1, X2, l2)
    assert abs(r1.integral - r2.integral) < 1e-6 * abs(r2.integral)


@pytest.mark.parametrize("k, doublings", [(-3, 1), (3, 1), (5, 2)])
def test_winding_refines_coarse_loop(k, doublings, monkeypatch):
    """On an 8-sample loop some log increments of z^k e^{sin z} exceed
    pi/2, so the loop is doubled until none does; the winding is still k
    and the value matches a 1024-sample loop."""
    g = geo.PolarGrid(geo.annulus(0.5, 1.0), 48, 64)
    Z = g.nodes
    th = geo.ScalarField(g, Z**k * np.exp(np.sin(Z)))
    refine, sizes = geo.Loop.refine, []

    def counted(self):
        sizes.append(len(self.samples))
        return refine(self)

    monkeypatch.setattr(geo.Loop, "refine", counted)
    rep = ho.winding_integral(th, geo.circle_loop(0.75, 8))
    assert sizes == [9, 17, 33][:doublings]
    assert rep["winding"] == k
    fine = ho.winding_integral(th, geo.circle_loop(0.75, 1024))
    assert len(sizes) == doublings
    assert abs(rep["value"] - fine["value"]) <= 1e-13
