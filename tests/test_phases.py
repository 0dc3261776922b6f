import numpy as np
import pytest

from dbarlab import geometry as geo
from dbarlab import phases as ph


def test_base_phase_critical_data():
    b = ph.base_phase(0.0)
    assert b.critical_points == (0j,)
    assert b.hessians == (2.0 + 0j,)
    b2 = ph.base_phase(0.3 + 0.1j)
    assert abs(b2.critical_points[0] - (0.3 + 0.1j)) < 1e-14
    # derivative of the square: d/dz (z-a)^2 at a+1 is 2
    assert abs(b2.d1(b2.critical_points[0] + 1.0) - 2.0) < 1e-14


def test_squared_phase_example():
    b = ph.base_phase(0.0)
    sq = ph.squared_phase(b, 0.5, 0.04)
    pts = sorted(sq.critical_points, key=lambda z: z.real)
    assert np.allclose(pts, [-0.5, 0.0, 0.5], atol=1e-10)
    hess = {complex(p): h for p, h in zip(sq.critical_points, sq.hessians)}
    assert abs(hess[0.5 + 0j] - 2.0) < 1e-10
    assert abs(hess[-0.5 + 0j] - 2.0) < 1e-10
    assert abs(hess[0j] + 1.0) < 1e-10


def test_exclusion_set_geometry():
    b = ph.base_phase(0.0)
    ex = ph.exclusion_set(b, 0.04)
    assert ex.centers == (0j,)
    # the one radius is sqrt(delta) = 0.2
    assert ex.contains(0.1) and ex.contains(0.2 - 1e-12)
    assert not ex.contains(0.2 + 1e-12) and not ex.contains(0.3)


def test_exclusion_contains_is_elementwise():
    """One call on the grid nodes gives the per-node mask, with one, two or
    no centres."""
    g = geo.PolarGrid(geo.disk(1.0), 96, 128)
    ex = ph.exclusion_set(ph.base_phase(0.0), 0.05)
    two = ph.ExclusionSet(ex.centers + (0.5 + 0.3j,), ex.delta)
    for s in (ex, two, ph.ExclusionSet((), ex.delta)):
        mask = s.contains(g.nodes)
        assert mask.shape == g.shape
        assert np.array_equal(mask, [[bool(s.contains(z)) for z in row] for row in g.nodes])
    assert ex.contains(g.nodes).any() and not ex.contains(g.nodes).all()


def test_squared_phase_refuses_inside_exclusion():
    b = ph.base_phase(0.0)
    with pytest.raises(ph.ExclusionError, match=r"the balls around 0j \(radius 0\.2\)"):
        ph.squared_phase(b, 0.1, 0.04)


def test_morse_certificate_and_fd_hessian():
    rng = np.random.default_rng(7)
    b = ph.base_phase(0.1 - 0.2j)
    for _ in range(20):
        p_hat = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        delta = 0.05
        if ph.exclusion_set(b, delta).contains(p_hat):
            continue
        sq = ph.squared_phase(b, p_hat, delta)
        for p, h in zip(sq.critical_points, sq.hessians):
            assert abs(sq.d1(p)) <= 1e-10
            eps = 1e-6
            fd = (sq.d1(p + eps) - sq.d1(p - eps)) / (2 * eps)
            assert abs(fd - h) <= 1e-6 * max(abs(h), 1.0)


def test_hessian_floor_scaling():
    """Minimum critical Hessian stays above a single c * delta^4 across
    sampled anchors; the fitted exponent is far below the 4.2 cap."""
    rng = np.random.default_rng(11)
    b = ph.base_phase(0.0)
    deltas = [0.2, 0.1, 0.05]
    mins = []
    ratios = []
    for d in deltas:
        ex = ph.exclusion_set(b, d)
        worst = np.inf
        n = 0
        while n < 40:
            p_hat = 0.9 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if ex.contains(p_hat):
                continue
            sq = ph.squared_phase(b, p_hat, d)
            worst = min(worst, sq.min_hessian())
            ratios.append(sq.min_hessian() / d**4)
            n += 1
        mins.append(worst)
    c = min(ratios)
    assert c > 0
    expo = ph.fit_loglog_slope(deltas, mins)
    assert expo <= 4.2


def test_stationary_phase_requires_compact_support():
    g = geo.PolarGrid(geo.disk(1.0), 64, 64)
    u = geo.ScalarField(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        ph.OscillatoryIntegral(u, ph.base_phase(0.0)).eval(0.1)


def test_stationary_phase_rejects_bad_h():
    g = geo.PolarGrid(geo.disk(1.0), 64, 64)
    u = ph.bump_window(g, 0.0, 0.5)
    with pytest.raises(ValueError):
        ph.OscillatoryIntegral(u, ph.base_phase(0.0)).eval(-0.1)


def test_stationary_phase_refuses_multiple_critical_points():
    g = geo.PolarGrid(geo.disk(1.0), 128, 128)
    b = ph.base_phase(0.0)
    sq = ph.squared_phase(b, 0.45, 0.03)
    u = ph.bump_window(g, 0.0, 0.85)  # support holds all three critical points
    with pytest.raises(ValueError):
        ph.OscillatoryIntegral(u, sq).eval(0.1)


def test_stationary_phase_vanishing_amplitude():
    g = geo.PolarGrid(geo.disk(1.0), 256, 256)
    Z = g.nodes
    base = ph.base_phase(0.0)
    win = ph.bump_window(g, 0.0, 0.6)
    u = geo.ScalarField(g, Z * np.exp(-4 * np.abs(Z - 0.1 - 0.05j) ** 2)) * win
    r = ph.OscillatoryIntegral(u, base).eval(0.05)
    assert abs(r.leading) < 1e-8
    r2 = ph.OscillatoryIntegral(u, base).eval(0.025)
    # integral is second order once the leading term vanishes
    assert abs(r2.integral) < 0.5 * abs(r.integral)


def test_leading_coefficient_calibration():
    """Brute-force oracle on the reference phase: the integral divided by
    h u(0)/|psi''| converges to the frozen constant pi/2."""
    g = geo.PolarGrid(geo.disk(1.0), 384, 512)
    Z = g.nodes
    win = ph.bump_window(g, 0.0, 0.6)
    u = geo.ScalarField(g, np.exp(-4 * np.abs(Z) ** 2)) * win
    r = ph.OscillatoryIntegral(u, ph.base_phase(0.0)).eval(0.005)
    assert abs(r.integral / 0.005 - ph.LEADING_COEFFICIENT) < 1e-3


def test_slopes_on_reference_phase():
    g = geo.PolarGrid(geo.disk(1.0), 384, 512)
    Z = g.nodes
    base = ph.base_phase(0.0)
    win = ph.bump_window(g, 0.0, 0.6)
    u = geo.ScalarField(g, np.exp(-6 * np.abs(Z - 0.15 - 0.08j) ** 2)) * win
    hs = [0.2, 0.1, 0.05, 0.025]
    ints, resids = [], []
    for h in hs:
        r = ph.OscillatoryIntegral(u, base).eval(h)
        assert abs(r.integral) <= r.bound
        ints.append(abs(r.integral))
        resids.append(r.residual)
    assert 0.8 <= ph.fit_loglog_slope(hs, ints) <= 1.2
    assert 1.7 <= ph.fit_loglog_slope(hs, resids) <= 2.3


def test_oscillatory_integral_matches_single_eval():
    """One OscillatoryIntegral serves every h and gives bit for bit what a
    fresh one gives for each h on its own."""
    g = geo.PolarGrid(geo.disk(1.0), 128, 128)
    base = ph.base_phase(0.0)
    win = ph.bump_window(g, 0.0, 0.6)
    u = geo.ScalarField(g, np.exp(-6 * np.abs(g.nodes - 0.15 - 0.08j) ** 2)) * win
    osc = ph.OscillatoryIntegral(u, base)
    for h in (0.2, 0.1, 0.05, 0.025):
        want = ph.OscillatoryIntegral(u, base).eval(h)
        assert repr(osc.eval(h)) == repr(want)
    with pytest.raises(ValueError):
        osc.eval(0.0)


def test_oscillatory_integral_refuses_sampled_psi():
    """psi comes only from a phase object; samples of it are refused before
    any grid work."""
    g = geo.PolarGrid(geo.disk(1.0), 64, 64)
    psi = geo.ScalarField(g, (g.nodes**2).imag + 0j)
    u = ph.bump_window(g, 0.0, 0.5)
    with pytest.raises(TypeError, match="HolomorphicPhase"):
        ph.OscillatoryIntegral(u, psi)


def test_critical_point_and_hessian_from_phase_object():
    """z_hat and |psi''(z_hat)| are the phase's own data, exactly."""
    g = geo.PolarGrid(geo.disk(1.0), 128, 128)
    for a in (0.0, 0.1 - 0.05j):
        u = ph.bump_window(g, a, 0.5)
        osc = ph.OscillatoryIntegral(u, ph.base_phase(a))
        assert osc.z_hat == a
        assert osc.hessian == 1.0
        r = osc.eval(0.05)
        assert (r.z_hat, r.hessian) == (a, 1.0)
    sq = ph.squared_phase(ph.base_phase(0.0), 0.5, 0.04)
    u = ph.bump_window(g, 0.5, 0.35)  # holds only the critical point near 0.5
    osc = ph.OscillatoryIntegral(u, sq)
    hess = dict(zip(sq.critical_points, sq.hessians))
    assert abs(osc.z_hat - 0.5) < 1e-12
    assert osc.hessian == abs(hess[osc.z_hat]) / 2


def test_integral_slope_uniform_over_anchors():
    """First-order decay of the oscillatory integral holds uniformly as the
    critical point moves (10 sampled anchors)."""
    g = geo.PolarGrid(geo.disk(1.0), 256, 256)
    Z = g.nodes
    rng = np.random.default_rng(13)
    hs = [0.2, 0.1, 0.05, 0.025]
    for _ in range(10):
        zhat = 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        base = ph.base_phase(zhat)
        win = ph.bump_window(g, zhat, 0.55)
        u = geo.ScalarField(g, np.exp(-6 * np.abs(Z - zhat - 0.1) ** 2)) * win
        ints = [
            abs(ph.OscillatoryIntegral(u, base).eval(h).integral) for h in hs
        ]
        slope = ph.fit_loglog_slope(hs, ints)
        assert 0.75 <= slope <= 1.25
