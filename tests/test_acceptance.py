"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers.  Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the reports.
"""

import time

import numpy as np

from dbarlab import geometry as geo
from dbarlab import cauchy as cau
from dbarlab import phases as ph
from dbarlab import forward as fw
from dbarlab import dirac as dc
from dbarlab import metrics as me
from dbarlab import holonomy as ho
from dbarlab import experiments as ex

np.seterr(all="ignore")


def report(num, text):
    print(f"\nACCEPT pass criterion {num}: {text}")


def rel_l2(grid, err, ref):
    num = np.sqrt(np.sum(grid.weights * np.abs(err) ** 2))
    den = np.sqrt(np.sum(grid.weights * np.abs(ref) ** 2))
    return num / den


def smooth_battery(grid, count=10):
    """Smooth (0,1)-data decaying at the boundary, as fed to the inverse
    throughout the pipeline (the extension operators cut all inputs off)."""
    rng = np.random.default_rng(42)
    Z = grid.nodes
    fields = []
    for _ in range(count):
        c = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
        w = rng.uniform(6.0, 14.0)
        mod = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vals = np.exp(-w * np.abs(Z - c[0]) ** 2) * (
            mod[0] + mod[1] * Z + mod[2] * np.conj(Z - c[1])
        )
        fields.append(vals)
    return fields


def test_criterion_01_right_inverse():
    t0 = time.time()
    g = geo.PolarGrid(geo.disk(1.0), 256, 256)
    tbl = cau.kernel_table(g)
    errs = []
    for vals in smooth_battery(g, 10):
        om = geo.OneForm(g, np.zeros(g.shape), vals)
        du = geo.wirtinger(geo.ScalarField(g, tbl.apply(vals)), "dzbar")
        errs.append(rel_l2(g, du.c01 - vals, vals))
    assert max(errs) <= 1e-2

    g2 = geo.PolarGrid(geo.disk(1.0), 512, 512)
    vals2 = smooth_battery(g2, 1)[0]
    du2 = geo.wirtinger(
        geo.ScalarField(g2, cau.CauchyKernelTable(g2).apply(vals2)), "dzbar"
    )
    err_fine = rel_l2(g2, du2.c01 - vals2, vals2)
    ratio = errs[0] / err_fine
    elapsed = time.time() - t0
    assert ratio >= 2.8
    assert elapsed <= 60.0
    report(
        1,
        f"right-inverse rel L2 max {max(errs):.2e} (10 fields, 256x256), "
        f"doubling ratio {ratio:.2f} >= 2.8, runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_02_stationary_phase():
    t0 = time.time()
    g = geo.PolarGrid(geo.disk(1.0), 384, 512)
    Z = g.nodes
    phase = ph.base_phase(0.0)
    win = ph.bump_window(g, 0.0, 0.6)
    u = geo.ScalarField(g, np.exp(-6 * np.abs(Z - 0.15 - 0.08j) ** 2)) * win
    hs = [0.2, 0.1, 0.05, 0.025, 0.0125]
    ints, resids = [], []
    for h in hs:
        r = ph.OscillatoryIntegral(u, phase).eval(h)
        ints.append(abs(r.integral))
        resids.append(r.residual)
    slope_i = ph.fit_loglog_slope(hs, ints)
    slope_r = ph.fit_loglog_slope(hs, resids)

    # vanishing-amplitude variant: the leading term drops out and the
    # integral is second order (reported; see the decisions ledger for the
    # criterion's internally-crossed clause)
    u0 = geo.ScalarField(g, Z * np.exp(-4 * np.abs(Z - 0.1 - 0.05j) ** 2)) * win
    v = [abs(ph.OscillatoryIntegral(u0, phase).eval(h).integral) for h in hs]
    slope_vanish = ph.fit_loglog_slope(hs, v)

    elapsed = time.time() - t0
    assert 0.9 - 0.1 <= slope_i <= 1.1 + 0.1
    assert 1.8 - 0.1 <= slope_r <= 2.2 + 0.1
    assert elapsed <= 120.0
    report(
        2,
        f"|integral| slope {slope_i:.3f} in [0.8,1.2], residual slope "
        f"{slope_r:.3f} in [1.7,2.3]; vanishing-amplitude slope {slope_vanish:.2f} "
        f"(reported), runtime {elapsed:.1f}s <= 120s",
    )


def test_criterion_03_phase_factory():
    rng = np.random.default_rng(11)
    base = ph.base_phase(0.0)
    deltas = [0.2, 0.1, 0.05]
    mins = []
    all_ratios = []
    for d in deltas:
        ex_set = ph.exclusion_set(base, d)
        worst = np.inf
        n = 0
        while n < 100:
            p_hat = 0.95 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            if abs(p_hat) > 0.95 or ex_set.contains(p_hat):
                continue
            sq = ph.squared_phase(base, p_hat, d)
            for p, h in zip(sq.critical_points, sq.hessians):
                assert abs(sq.d1(p)) <= 1e-10
            m = sq.min_hessian()
            worst = min(worst, m)
            all_ratios.append(m / d**4)
            n += 1
        mins.append(worst)
    c_fit = min(all_ratios)
    expo = ph.fit_loglog_slope(deltas, mins)
    assert c_fit > 0
    assert expo <= 4.2
    report(
        3,
        f"min Hessian >= c delta^4 with fitted c {c_fit:.3f} over 300 anchors, "
        f"fitted exponent {expo:.2f} <= 4.2",
    )


def test_criterion_04_cgo_remainders():
    t0 = time.time()
    cfg = ex.ExperimentConfig()
    g = geo.PolarGrid(geo.disk(0.5), cfg.cgo_n_r, cfg.cgo_n_theta)
    base = ph.base_phase(0.0)
    fam = ex.default_potentials(cfg, g)
    hs = cfg.cgo_h_list
    slopes = {}
    for tag, t in (("pair1", 0.0), ("pair2", 0.64)):
        _, red = fam.reduction(t)
        diag = dc.diagonalize(red)
        rn, sn = [], []
        for h in hs:
            sol = dc.neumann_cgo(diag, base, h, seed_coeffs=(1.0, 0.25))
            rn.append(sol.norms["norm_r_l2"])
            sn.append(sol.norms["norm_s_l2"])
        slopes[tag] = (ph.fit_loglog_slope(hs, rn), ph.fit_loglog_slope(hs, sn))
        assert slopes[tag][0] >= 0.5 - 0.05
        assert slopes[tag][1] >= 0.5 - 0.05

    # dense-solve oracle on a 64x64 instance
    g2 = geo.PolarGrid(geo.disk(0.5), 64, 64)
    Z = g2.nodes
    zeros = np.zeros(g2.shape)
    Qt = geo.ScalarField(g2, 0.5 * np.exp(-8 * np.abs(Z - 0.05) ** 2))
    Ft = geo.ScalarField(g2, -(1 + 0.2 * np.exp(-6 * np.abs(Z + 0.1) ** 2)))
    Vt = dc.DiagonalPotential(Qt, Ft)
    h = 0.1
    sol = dc.neumann_cgo(Vt, base, h, seed_coeffs=(1.0,))
    op = dc.OscillatoryCauchy(g2, base, h)

    def S_vals(x):
        s = op.dbar_star_inv(geo.ScalarField(g2, Qt.values * x))
        return op.dbar_inv(geo.OneForm(g2, zeros, Ft.values * s.c01)).values

    n = g2.n_r * g2.n_theta
    cols = np.empty((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        cols[:, k] = S_vals(e.reshape(g2.shape)).ravel()
    A = np.eye(n, dtype=complex) - cols
    rhs = -op.dbar_inv(geo.OneForm(g2, zeros, Ft.values * np.ones(g2.shape))).values.ravel()
    r_dense = np.linalg.solve(A, rhs).reshape(g2.shape)
    oracle_gap = np.sqrt(np.sum(g2.weights * np.abs(r_dense - sol.r_h.values) ** 2))
    elapsed = time.time() - t0
    assert oracle_gap <= 1e-6
    assert elapsed <= 600.0
    report(
        4,
        f"decay slopes r/s: pair1 {slopes['pair1'][0]:.2f}/{slopes['pair1'][1]:.2f}, "
        f"pair2 {slopes['pair2'][0]:.2f}/{slopes['pair2'][1]:.2f} (all >= 0.45); "
        f"dense oracle gap {oracle_gap:.1e} <= 1e-6; runtime {elapsed:.0f}s <= 600s",
    )


def test_criterion_05_boundary_identity():
    g = geo.PolarGrid(geo.disk(0.5), 96, 128)
    Z = g.nodes
    zeros = np.zeros(g.shape)
    alpha = 0.3 * np.exp(-6 * np.abs(Z) ** 2) * Z
    A = geo.wirtinger(geo.ScalarField(g, alpha), "dzbar")
    X = geo.OneForm(g, np.conj(A.c01), A.c01)
    q = geo.ScalarField(g, 0.4 * np.exp(-4 * np.abs(Z - 0.1) ** 2))
    V, _ = dc.reduce_schrodinger(fw.PotentialPair(X, q), alpha=geo.ScalarField(g, alpha))
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        U = dc.SigmaSection(
            geo.ScalarField(g, c[0] + c[1] * Z + c[2] * Z * np.conj(Z)),
            geo.OneForm(g, zeros, c[3] + c[4] * np.conj(Z) ** 2),
        )
        Up = dc.SigmaSection(
            geo.ScalarField(g, c[5] + c[6] * np.conj(Z)),
            geo.OneForm(g, zeros, c[7] * Z + c[0]),
        )
        rep = dc.verify_green(V, U, Up)
        worst = max(worst, rep["residual"] / (dc.h1_norm_section(U) * dc.h1_norm_section(Up)))
    assert worst <= 1e-3
    report(5, f"Green-identity residual max {worst:.2e} <= 1e-3 over 10 manufactured pairs")


def test_criterion_06_reduction_equivalence():
    g = geo.PolarGrid(geo.disk(0.5), 96, 128)
    Z = g.nodes
    zeros = np.zeros(g.shape)
    rng = np.random.default_rng(23)
    worst_res, worst_rt = 0.0, 0.0
    for _ in range(5):
        c = rng.standard_normal(2) * 0.2
        alpha = (0.25 + c[0]) * np.exp(-6 * np.abs(Z) ** 2) * (Z + c[1] * np.conj(Z) ** 2)
        A = geo.wirtinger(geo.ScalarField(g, alpha), "dzbar")
        X = geo.OneForm(g, np.conj(A.c01), A.c01)
        ustar = geo.ScalarField(g, np.exp(0.4 * Z) + 2.0)
        pot = fw.manufactured_potential(ustar, X)
        V, red = dc.reduce_schrodinger(pot, alpha=geo.ScalarField(g, alpha))
        om = geo.OneForm(
            g, zeros, geo.wirtinger(ustar, "dzbar").c01 + 1j * A.c01 * ustar.values
        )
        U = dc.SigmaSection(ustar, om)
        resid = dc.dirac_apply(V, U)
        worst_res = max(
            worst_res,
            (geo.norm_l2(resid.u) + geo.norm_l2(resid.omega)) / dc.h1_norm_section(U),
        )
        Ut = dc.transform_section(U, red.F)
        back = dc.undiagonalize(Ut, red.F)
        worst_rt = max(
            worst_rt,
            np.max(np.abs(back.u.values - U.u.values)),
            np.max(np.abs(back.omega.c01 - U.omega.c01)),
        )
    assert worst_res <= 1e-3
    assert worst_rt <= 1e-10
    report(
        6,
        f"system residual max {worst_res:.2e} <= 1e-3 (H1-normalized), "
        f"diagonalization round-trip max {worst_rt:.1e} <= 1e-10",
    )


def test_criterion_07_dtn_sanity():
    g = geo.PolarGrid(geo.disk(1.0), 2048, 64)
    z = np.zeros(g.shape)
    pot = fw.PotentialPair(geo.OneForm(g, z, z), geo.ScalarField(g, z))
    d = fw.dtn(pot, 16)
    n = np.arange(-16, 17)
    err = np.max(np.abs(np.diag(d.matrix) - np.abs(n)))
    assert err <= 1e-4
    report(7, f"disk DtN diagonal max |Lambda[n,n] - |n|| = {err:.2e} <= 1e-4 for |n| <= 16")


def test_criterion_08_gauge_invariance(tmp_path):
    cfg = ex.ExperimentConfig(n_r=96, n_theta=128, order=8)
    res = ex.run_gauge_check(cfg, out=tmp_path)
    assert res["gauge_over_floor"] <= 10.0
    assert res["control_over_floor"] >= 100.0
    report(
        8,
        f"gauge distance {res['gauge_distance']:.2e} = {res['gauge_over_floor']:.1f}x floor "
        f"(<= 10x); negative control {res['control_over_floor']:.0f}x floor (>= 100x)",
    )


def test_criterion_09_distance_inequality():
    g = geo.PolarGrid(geo.disk(1.0), 64, 64)
    cfg = ex.ExperimentConfig(n_r=64, n_theta=64, order=6)
    fam = ex.default_potentials(cfg, g)
    pot1, _ = fam.reduction(0.0)
    d1 = fw.dtn(pot1, cfg.order)
    s1 = fw.system_dtn(pot1, cfg.order)
    rng = np.random.default_rng(31)
    worst_gap = -np.inf
    for _ in range(20):
        t = float(rng.uniform(0.05, 0.6))
        pot2, _ = fam.reduction(t)
        d2 = fw.dtn(pot2, cfg.order)
        s2 = fw.system_dtn(pot2, cfg.order)
        d_scalar = me.ensemble_distance(d1, d2, mode="sup_inf")
        d_system = me.ensemble_distance(s1, s2, mode="sup_inf")
        worst_gap = max(worst_gap, d_system - d_scalar)
        assert d_system <= d_scalar + 1e-6
    report(9, f"d' <= d + 1e-6 on 20 sampled pairs (worst d' - d = {worst_gap:.2e})")


def test_criterion_10_boundary_defect_chain():
    cfg = ex.ExperimentConfig(n_r=96, n_theta=128, order=16)
    g = cfg.grid()
    fam = ex.default_potentials(cfg, g)
    _, red1 = fam.reduction(0.0)
    defects = []
    for t in cfg.t_list:
        _, red2 = fam.reduction(t)
        ratio = red2.F.values / red1.F.values
        trace = me.trace_from_samples(ratio[g.boundary_rings[-1]], cfg.order)
        defects.append(me.holomorphic_defect(trace))
    assert all(b > a for a, b in zip(defects, defects[1:]))

    ratio0 = red1.F.values / red1.F.values
    trace0 = me.trace_from_samples(ratio0[g.boundary_rings[-1]], cfg.order)
    proj = me.holo_project(trace0)
    d0 = me.holomorphic_defect(proj)
    assert d0 <= 1e-10
    report(
        10,
        f"defect decreases monotonically towards t=0 "
        f"({defects[-1]:.2e} down to {defects[0]:.2e} over 6 points); "
        f"projected exact-data defect {d0:.1e} <= 1e-10",
    )


def test_criterion_11_winding_integrality():
    g = geo.PolarGrid(geo.annulus(0.5, 2.0), 128, 256)
    Z = g.nodes
    radii = [0.7, 1.0, 1.3, 1.6, 1.9]
    worst = 0.0
    checked = 0
    for k in range(-2, 3):
        theta = geo.ScalarField(g, Z**k * np.exp(np.sin(0.4 * Z)))
        for rad in radii:
            rep = ho.winding_integral(theta, geo.circle_loop(rad, 1024))
            assert rep["winding"] == k
            gap = abs(rep["value"] / (2j * np.pi) - k)
            worst = max(worst, gap)
            checked += 1
            assert gap <= 1e-3
    report(
        11,
        f"winding integrality: {checked} loop/field combinations, "
        f"max |integral/(2 pi i) - k| = {worst:.1e} <= 1e-3",
    )


def test_criterion_12_curvature_identity():
    cfg = ex.ExperimentConfig(n_r=128, n_theta=128)
    g = cfg.grid()
    fam = ex.default_potentials(cfg, g)
    pot1, red1 = fam.reduction(0.0)
    worst = 0.0
    for t in (0.2, 0.5, 1.0):
        pot2, red2 = fam.reduction(t)
        res = ex.curvature_difference_residual(red1, red2, pot1.X, pot2.X)
        worst = max(worst, res)
    assert worst <= 1e-3
    report(12, f"curvature-difference identity residual max {worst:.2e} <= 1e-3")


def test_criterion_13_stability_trend(tmp_path):
    cfg = ex.ExperimentConfig(n_r=96, n_theta=128, order=8)
    recs = ex.run_stability_sweep(cfg, out=tmp_path)
    interior = [r.q_diff_l2 + r.dX_diff_l2 for r in recs]
    distance = [r.d_surrogate for r in recs]
    assert all(b > a for a, b in zip(interior, interior[1:]))
    assert all(b > a for a, b in zip(distance, distance[1:]))
    rho = ex._spearman(interior, distance)
    assert rho == 1.0
    rate = ph.fit_loglog_slope(distance, interior)
    report(
        13,
        f"interior difference and data distance strictly increasing over "
        f"6-point sweep, Spearman rho = {rho:.0f}; fitted interior-vs-distance "
        f"rate {rate:.2f} (reported, not asserted)",
    )
