import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbarlab import geometry as geo
from dbarlab import metrics as me


def trace_of(vals, order=8):
    return me.trace_from_samples(np.asarray(vals, dtype=complex), order)


def test_trace_from_samples_roundtrip():
    theta = 2 * np.pi * np.arange(64) / 64
    f = 2.0 + np.exp(1j * theta) - 0.5j * np.exp(-3j * theta)
    t = trace_of(f, order=4)
    assert abs(t.coeffs[0, 4] - 2.0) < 1e-12
    assert abs(t.coeffs[0, 5] - 1.0) < 1e-12
    assert abs(t.coeffs[0, 1] + 0.5j) < 1e-12


@settings(max_examples=50, deadline=None)
@given(n=st.integers(8, 256), data=st.data())
def test_trace_round_trip(n, data):
    """Coefficients of order N <= (n_theta - 1) / 2, sampled on n_theta
    points, come back from trace_from_samples; order N + 1 and a negative
    order raise."""
    limit = (n - 1) // 2
    N = data.draw(st.integers(0, limit))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal((2, 2 * N + 1)) + 1j * rng.standard_normal((2, 2 * N + 1))
    theta = 2 * np.pi * np.arange(n) / n
    samples = coeffs @ np.exp(1j * np.outer(np.arange(-N, N + 1), theta))
    t = me.trace_from_samples(samples, N)
    assert t.order == N
    assert np.max(np.abs(t.coeffs - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
    with pytest.raises(ValueError, match="order exceeds the sample bandwidth"):
        me.trace_from_samples(samples, limit + 1)
    with pytest.raises(ValueError, match="order must be non-negative"):
        me.trace_from_samples(samples, -1)


class _Dtn:
    def __init__(self, order, matrix, circles=(1.0,)):
        self.order = order
        self.matrix = matrix
        self.circles = circles


def random_dtn(order, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n = 2 * order + 1
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _Dtn(order, scale * m)


def test_ensemble_distance_identical():
    d = random_dtn(6, 0)
    assert me.ensemble_distance(d, d) < 1e-12
    assert me.ensemble_distance(d, d, mode="sup_inf") < 1e-6


def test_sup_inf_below_surrogate():
    for seed in range(20):
        d1 = random_dtn(5, seed)
        d2 = random_dtn(5, 100 + seed)
        si = me.ensemble_distance(d1, d2, mode="sup_inf")
        su = me.ensemble_distance(d1, d2, mode="surrogate")
        assert si <= su + 1e-9


def test_ensemble_distance_symmetric_max():
    d1 = random_dtn(5, 1)
    d2 = random_dtn(5, 2)
    assert me.ensemble_distance(d1, d2) == me.ensemble_distance(d2, d1)


def test_ensemble_distance_truncation_mismatch():
    with pytest.raises(ValueError):
        me.ensemble_distance(random_dtn(4, 0), random_dtn(5, 0))


# -- holomorphic defect --------------------------------------------------------


def test_defect_of_holomorphic_trace():
    theta = 2 * np.pi * np.arange(64) / 64
    t = trace_of(np.exp(2j * theta))  # boundary values of z^2
    assert me.holomorphic_defect(t) < 1e-14


def test_defect_single_negative_mode():
    theta = 2 * np.pi * np.arange(64) / 64
    t = trace_of(np.exp(-1j * theta))
    assert abs(me.holomorphic_defect(t) - 1.0) < 1e-12


def test_defect_of_random_holomorphic_polynomials():
    rng = np.random.default_rng(2)
    theta = 2 * np.pi * np.arange(128) / 128
    for _ in range(10):
        coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vals = sum(c * np.exp(1j * k * theta) for k, c in enumerate(coeffs))
        assert me.holomorphic_defect(trace_of(vals, order=16)) < 1e-10


def test_defect_refuses_annulus():
    t = me.BoundaryTrace(4, np.ones((2, 9)))
    with pytest.raises(ValueError):
        me.holomorphic_defect(t)


def test_holo_project():
    theta = 2 * np.pi * np.arange(64) / 64
    vals = np.exp(2j * theta) + 0.3 * np.exp(-1j * theta) + 1.5
    t = trace_of(vals, order=8)
    proj = me.holo_project(t)
    assert me.holomorphic_defect(proj) < 1e-14
    # extension matches the retained power series on the boundary
    z = np.exp(1j * theta)
    expect = 1.5 + z**2
    G = np.polynomial.polynomial.polyval(z, proj.coeffs[0, 8:])
    assert np.max(np.abs(G - expect)) < 1e-12


def test_holo_project_on_grid():
    g = geo.PolarGrid(geo.disk(1.0), 32, 64)
    theta = g.theta
    t = trace_of(np.exp(1j * theta) + 0.2 * np.exp(-2j * theta), order=8)
    proj = me.holo_project(t)
    G = np.polynomial.polynomial.polyval(g.nodes, proj.coeffs[0, 8:])
    assert np.max(np.abs(G - g.nodes)) < 1e-10


def test_defect_of_pipeline_gauge_equivalent_pair():
    """Factor ratio of a gauge-equivalent pair built through the transform
    pipeline is holomorphic on the boundary up to quadrature error."""
    from dbarlab import cauchy as cau
    from dbarlab import forward as fw
    from dbarlab import dirac as dc

    g = geo.PolarGrid(geo.disk(1.0), 128, 128)
    Z = g.nodes
    alpha = 0.25 * np.exp(-2 * np.abs(Z) ** 2) * (Z + 0.3 * np.conj(Z) ** 2)
    A = geo.wirtinger(geo.ScalarField(g, alpha), "dzbar")
    X = geo.OneForm(g, np.conj(A.c01), A.c01)
    pot1 = fw.PotentialPair(X, geo.ScalarField(g, np.zeros(g.shape)))
    f = np.maximum(0.0, 1 - (np.abs(Z) / 0.8) ** 2) ** 3
    pot2 = fw.gauge_transform(pot1, geo.ScalarField(g, f))
    _, red1 = dc.reduce_schrodinger(pot1, cau.primitive_alpha(geo.project(pot1.X, "p01")))
    _, red2 = dc.reduce_schrodinger(pot2, cau.primitive_alpha(geo.project(pot2.X, "p01")))
    ratio = red2.F.values / red1.F.values
    trace = me.trace_from_samples(ratio[g.boundary_rings[-1]], 16)
    assert me.holomorphic_defect(trace) < 1e-3
