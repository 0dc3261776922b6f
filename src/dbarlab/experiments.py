"""Configuration-driven experiment harness tying the modules into
reproducible end-to-end studies with tabular output.

Every study consumes an :class:`ExperimentConfig`, writes CSV tables plus
a JSON manifest (config hash, library versions, fitted constants), and
returns its headline numbers as a dict.  Identical config and seed give
byte-identical output.  Check failures raise :class:`CheckFailure`
carrying a stable anchor string naming the violated check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry as geo
from . import phases as ph
from . import forward as fw
from . import dirac as dc
from . import metrics as me
from . import holonomy as ho

__all__ = [
    "ExperimentConfig",
    "CheckFailure",
    "StabilityRecord",
    "default_potentials",
    "curvature_difference_residual",
    "run_gauge_check",
    "run_stability_sweep",
    "run_cgo_decay",
    "run_stationary_phase",
    "run_boundary_defect",
    "run_holonomy_study",
]

# fixed constants of the stability estimates: the a-priori bound, the exclusion
# radius and the log-log schedule h = c / (alpha |log d|), delta = (log |log d|)^(-eps)
APRIORI_K = 2.0
EXCLUSION_DELTA = 0.05
H_SCHEDULE_C = 1.0
H_SCHEDULE_ALPHA = 0.75
DELTA_SCHEDULE_EPS = 0.25


class CheckFailure(AssertionError):
    """A study-level check failed; `anchor` names the violated property."""

    def __init__(self, anchor: str, message: str):
        self.anchor = anchor
        super().__init__(f"[{anchor}] {message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the studies; see README for the file schema."""

    domain_kind: str = "disk"
    r_inner: float = 0.0
    r_outer: float = 1.0
    n_r: int = 96
    n_theta: int = 128
    order: int = 8
    h_list: tuple = (0.2, 0.1, 0.05, 0.025, 0.0125)
    t_list: tuple = (0.02, 0.04, 0.08, 0.16, 0.32, 0.64)
    seed: int = 0
    amplitude: float = 0.3
    # CGO decay study: the sweep must be oscillatory at its coarse end
    # (h <= radius^2/pi) and resolved at its fine end, which needs an
    # angularly balanced grid (n_theta ~ 2 pi n_r)
    cgo_h_list: tuple = (0.08, 0.04, 0.02, 0.01, 0.005)
    cgo_n_r: int = 144
    cgo_n_theta: int = 1024

    def __post_init__(self):
        # JSON types first: each number or list must be of its field's type
        # (domain_kind is checked by `domain` below)
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and not _is_int(v):
                raise ValueError(f"{f.name} must be an integer, got {v!r}")
            if f.type == "float" and not _is_real(v):
                raise ValueError(f"{f.name} must be a finite real, got {v!r}")
            if f.type == "tuple" and not (
                isinstance(v, (tuple, list)) and all(map(_is_real, v))
            ):
                raise ValueError(f"{f.name} must be a list of finite reals, got {v!r}")
        # the config checks the domain kind; geometry checks the radii and grids
        self.domain()
        for keys, grid in (("n_r, n_theta", self.grid), ("cgo_n_r, cgo_n_theta", self.cgo_grid)):
            try:
                grid()
            except geo.GridError as exc:
                raise ValueError(f"{keys}: {exc}") from None
        for name in ("h_list", "cgo_h_list", "t_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("h_list", "cgo_h_list"):
            hs = getattr(self, name)
            if any(h <= 0 for h in hs):
                raise ValueError(f"{name} values must be positive")
            if list(hs) != sorted(hs, reverse=True):
                raise ValueError(f"{name} must be descending")
        if any(t < 0 for t in self.t_list):
            raise ValueError("t_list values must be non-negative")
        if not _is_increasing(self.t_list):
            raise ValueError("t_list must be ascending")
        me.truncation_modes(self.order, self.n_theta)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        dom = d.get("domain", {})
        if not isinstance(dom, dict):
            raise ValueError(f"domain must be an object, got {dom!r}")
        flat = sorted({"domain_kind", "r_inner", "r_outer"} & set(d))
        if "domain" in d and flat:
            raise ValueError(f"domain given twice: a domain object and {', '.join(flat)}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)} - {"domain"})
        unknown += sorted(f"domain.{k}" for k in set(dom) - {"kind", "r_inner", "r_outer"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        kw = {k: v for k, v in d.items() if k != "domain"}
        for key, v in kw.items():
            if isinstance(v, list):
                kw[key] = tuple(v)
        if dom:
            kw["domain_kind"] = dom.get("kind", "disk")
            kw["r_inner"] = dom.get("r_inner", 0.0)
            kw["r_outer"] = dom.get("r_outer", 1.0)
        return cls(**kw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def domain(self) -> geo.Domain:
        if self.domain_kind not in ("disk", "annulus"):
            raise geo.GridError(f"unknown domain kind {self.domain_kind!r}")
        if self.domain_kind == "annulus":
            return geo.annulus(float(self.r_inner), float(self.r_outer))
        if self.r_inner != 0:
            raise geo.GridError("disk requires r_inner == 0")
        return geo.disk(float(self.r_outer))

    def grid(self) -> geo.PolarGrid:
        return geo.PolarGrid(self.domain(), self.n_r, self.n_theta)

    def cgo_grid(self) -> geo.PolarGrid:
        """Grid of the CGO decay study: the disk of half the outer radius."""
        return geo.PolarGrid(geo.disk(0.5 * self.r_outer), self.cgo_n_r, self.cgo_n_theta)

    def canonical(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (_is_int(v) or isinstance(v, (float, np.floating))) and math.isfinite(v)


@dataclass(frozen=True)
class StabilityRecord:
    t: float
    d_surrogate: float
    d_sup_inf: float
    q_diff_l2: float
    dX_diff_l2: float
    modF_diff_l2: float
    qt_max_off: float
    ft_max_off: float
    boundary_defect: float
    dxid_residual: float
    h_schedule: float
    delta_schedule: float


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12e}"


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    # the output directory is made only now, so a refused input leaves none
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


# recorded, not set: the lab leaves the BLAS thread count to the environment
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_build(module) -> dict:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def write_manifest(path, cfg: ExperimentConfig, study: str, extras: dict) -> None:
    manifest = {
        "study": study,
        "config_sha256": cfg.digest(),
        "config": json.loads(cfg.canonical()),
        "versions": {
            "dbarlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "numpy_blas": _blas_build(np),
            **{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        },
        "results": extras,
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# potential factory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialFamily:
    """Base pair plus a perturbation direction, parametrized through a
    closed-form primitive so the integrating factors are exact."""

    grid: geo.PolarGrid
    alpha1: np.ndarray
    dalpha: np.ndarray
    q1: np.ndarray
    dq: np.ndarray

    def reduction(self, t: float):
        g = self.grid
        alpha = self.alpha1 + t * self.dalpha
        A = geo.wirtinger(geo.ScalarField(g, alpha), "dzbar")
        X = geo.OneForm(g, np.conj(A.c01), A.c01)
        q = geo.ScalarField(g, self.q1 + t * self.dq)
        pot = fw.PotentialPair(X, q)
        _, red = dc.reduce_schrodinger(pot, alpha=geo.ScalarField(g, alpha))
        return pot, red


def default_potentials(cfg: ExperimentConfig, grid=None) -> PotentialFamily:
    """Smooth interior-supported default family: Gaussian profiles in the
    radius, low angular order, scaled to sit inside the a-priori class."""
    g = grid if grid is not None else cfg.grid()
    Z = g.nodes
    R = g.domain.r_outer
    if g.domain.kind == "disk":
        envelope = np.exp(-6.0 * (np.abs(Z) / R) ** 2)
    else:
        mid = 0.5 * (g.domain.r_inner + g.domain.r_outer)
        wid = 0.25 * (g.domain.r_outer - g.domain.r_inner)
        envelope = np.exp(-(((np.abs(Z) - mid) / wid) ** 2))
    a = cfg.amplitude
    alpha1 = a * envelope * (Z / R + 0.4 * (np.conj(Z) / R) ** 2)
    dalpha = a * envelope * (
        0.7 * (Z / R) ** 2 + 0.3j * Z / R + 0.5 * np.conj(Z) / R + 0.25j * (np.conj(Z) / R) ** 2
    )
    q1 = a * envelope * (1.0 + 0.5 * (Z / R).real)
    dq = a * envelope * (0.6 - 0.8 * (Z / R).imag)
    return PotentialFamily(grid=g, alpha1=alpha1, dalpha=dalpha, q1=q1, dq=dq)


# ---------------------------------------------------------------------------
# the curvature-difference identity
# ---------------------------------------------------------------------------


def curvature_difference_residual(red1, red2, X1: geo.OneForm, X2: geo.OneForm) -> float:
    """Relative residual of the identity expressing d(X1 - X2) through the
    moduli of the integrating factors:

        d(X1-X2) = -i |F1|^{-2} del dbar(|F1|^2 - |F2|^2)
                   - |F1|^{-2} (|F1|^2 - |F2|^2) dX2
                   + 4i |F1|^{-2} (d|F1| ^ dbar|F1| - d|F2| ^ dbar|F2|)

    (del/dbar acting as the (1,0)/(0,1) Wirtinger pieces).
    """
    g = X1.grid
    m1 = np.abs(red1.F.values) ** 2
    m2 = np.abs(red2.F.values) ** 2
    diff = geo.ScalarField(g, m1 - m2)
    # del dbar of the modulus difference
    dbar_diff = geo.wirtinger(diff, "dzbar")
    del_dbar = geo.TwoForm(g, g.d_z(dbar_diff.c01))
    dX2 = geo.exterior_d(X2)

    def grad_pieces(mods):
        f = geo.ScalarField(g, np.sqrt(mods))
        return geo.wirtinger(f, "dz"), geo.wirtinger(f, "dzbar")

    p1, b1 = grad_pieces(m1)
    p2, b2 = grad_pieces(m2)
    wedge1 = geo.wedge(p1, b1)
    wedge2 = geo.wedge(p2, b2)

    rhs_c = (
        -1j / m1 * del_dbar.c
        - (m1 - m2) / m1 * dX2.c
        + 4j / m1 * (wedge1.c - wedge2.c)
    )
    lhs = geo.exterior_d(X1 - X2)
    scale = max(
        float(np.max(np.abs(lhs.c))),
        float(np.max(np.abs(del_dbar.c / m1))),
        1e-300,
    )
    return float(np.max(np.abs(lhs.c - rhs_c))) / scale


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def run_gauge_check(cfg: ExperimentConfig, out="out") -> dict:
    """Gauge invariance of the Cauchy data: distance between the data of
    (X, q) and (X + df, q) with zero-trace f sits at the discretization
    floor; a trace-violating control exceeds it by orders of magnitude."""
    outdir = Path(out)
    g = cfg.grid()
    Z = g.nodes
    R = g.domain.r_outer
    fam = default_potentials(cfg, g)
    pot, _ = fam.reduction(0.0)

    d_base = fw.dtn(pot, cfg.order)

    # discretization floor: the same potential at doubled radial resolution,
    # Richardson-corrected for the 2nd-order scheme (true error of the
    # coarse matrix is ~ 4/3 of the cross-resolution gap)
    g2 = geo.PolarGrid(g.domain, 2 * cfg.n_r, cfg.n_theta)
    fam2 = default_potentials(cfg, g2)
    pot2, _ = fam2.reduction(0.0)
    d_fine = fw.dtn(pot2, cfg.order)
    floor = (4.0 / 3.0) * me.ensemble_distance(d_base, d_fine)

    if g.domain.kind == "disk":
        fg = (1 - (np.abs(Z) / R) ** 2) ** 2
    else:
        ri = g.domain.r_inner
        fg = ((np.abs(Z) - ri) * (R - np.abs(Z)) / (R - ri) ** 2) ** 2
    gauge_pot = fw.gauge_transform(pot, geo.ScalarField(g, fg.astype(complex)))
    d_gauge = fw.dtn(gauge_pot, cfg.order)
    dist_gauge = me.ensemble_distance(d_base, d_gauge)

    bad = geo.ScalarField(g, (0.5 * Z.real / R).astype(complex))
    control_pot = fw.gauge_transform(pot, bad, require_zero_trace=False)
    d_control = fw.dtn(control_pot, cfg.order)
    dist_control = me.ensemble_distance(d_base, d_control)

    results = {
        "floor": floor,
        "gauge_distance": dist_gauge,
        "control_distance": dist_control,
        "gauge_over_floor": dist_gauge / max(floor, 1e-300),
        "control_over_floor": dist_control / max(floor, 1e-300),
    }
    write_manifest(outdir / "gauge_check.json", cfg, "gauge-check", results)
    if dist_gauge > 10.0 * floor:
        raise CheckFailure(
            "gauge-invariance-floor",
            f"gauge distance {dist_gauge:.3e} exceeds 10x floor {floor:.3e}",
        )
    if dist_control < 100.0 * floor:
        raise CheckFailure(
            "gauge-negative-control",
            f"control distance {dist_control:.3e} below 100x floor {floor:.3e}",
        )
    return results


def run_stability_sweep(cfg: ExperimentConfig, out="out") -> list[StabilityRecord]:
    """Perturbation sweep: boundary-data distances against the interior
    differences they control, plus the pointwise and identity checks."""
    outdir = Path(out)
    g = cfg.grid()
    fam = default_potentials(cfg, g)
    pot1, red1 = fam.reduction(0.0)
    d1, dsys1 = fw.dtn_and_diagonalized_system_dtn(pot1, red1.F, cfg.order)
    base = ph.base_phase(0.0 + 0.0j)
    excl = ph.exclusion_set(base, EXCLUSION_DELTA)
    off_mask = ~excl.contains(g.nodes)

    # diagonalized-system distances vs the log-augmented scalar distance:
    # the fitted envelope constant is recorded, not asserted
    records = []
    syst_ratios = []
    for t in cfg.t_list:
        pot2, red2 = fam.reduction(t)
        d2, dsys2 = fw.dtn_and_diagonalized_system_dtn(pot2, red2.F, cfg.order)
        d_sur = me.ensemble_distance(d1, d2)
        d_si = me.ensemble_distance(d1, d2, mode="sup_inf")
        qd = geo.norm_l2(pot1.q - pot2.q)
        dXd = geo.norm_l2(geo.exterior_d(pot1.X - pot2.X))
        modF = geo.norm_l2(
            geo.ScalarField(g, np.abs(red1.F.values) - np.abs(red2.F.values))
        )
        dpot = dc.difference_potential(red1, red2)
        qt_max = float(np.max(np.abs(dpot.Qtilde.values[off_mask])))
        ft_max = float(np.max(np.abs(dpot.Ftilde.values[off_mask])))
        defect = _ratio_defect(red1, red2, cfg.order) if g.domain.kind == "disk" else float("nan")
        dxid = curvature_difference_residual(red1, red2, pot1.X, pot2.X)
        d_clip = min(max(d_sur, 1e-300), 0.3678794411714423)  # below 1/e
        h_sched = H_SCHEDULE_C / (H_SCHEDULE_ALPHA * abs(math.log(d_clip)))
        del_sched = (math.log(abs(math.log(d_clip)))) ** (-DELTA_SCHEDULE_EPS) if abs(
            math.log(d_clip)
        ) > 1 else float("nan")
        records.append(
            StabilityRecord(
                t=t,
                d_surrogate=d_sur,
                d_sup_inf=d_si,
                q_diff_l2=qd,
                dX_diff_l2=dXd,
                modF_diff_l2=modF,
                qt_max_off=qt_max,
                ft_max_off=ft_max,
                boundary_defect=defect,
                dxid_residual=dxid,
                h_schedule=h_sched,
                delta_schedule=del_sched,
            )
        )
        dprime = me.ensemble_distance(dsys1, dsys2, mode="sup_inf")
        d = max(d_sur, 1e-300)
        envelope = d + 1.0 / max(abs(math.log(d)), 1.0) ** 0.5
        syst_ratios.append(dprime / envelope)
    fitted_c = max(syst_ratios)

    header = list(StabilityRecord.__dataclass_fields__)
    write_csv(outdir / "stability_sweep.csv", header, [
        [getattr(r, k) for k in header] for r in records
    ])
    write_manifest(
        outdir / "stability_sweep.json",
        cfg,
        "stability-sweep",
        {
            "monotone_interior": _is_increasing([r.q_diff_l2 + r.dX_diff_l2 for r in records]),
            "monotone_distance": _is_increasing([r.d_surrogate for r in records]),
            "spearman": _spearman(
                [r.q_diff_l2 + r.dX_diff_l2 for r in records],
                [r.d_surrogate for r in records],
            ),
            "max_dxid_residual": max(r.dxid_residual for r in records),
            "syst_cauchy_fitted_C": fitted_c,
            "syst_cauchy_ratios": syst_ratios,
            "apriori": dict(pot1.apriori_report(), K=APRIORI_K),
        },
    )
    for r in records:
        if r.dxid_residual > 1e-3:
            raise CheckFailure(
                "curvature-difference-identity",
                f"identity residual {r.dxid_residual:.2e} at t={r.t}",
            )
    interior = [r.q_diff_l2 + r.dX_diff_l2 for r in records]
    if not _is_increasing(interior):
        raise CheckFailure("stability-interior-monotone", f"values {interior}")
    if not _is_increasing([r.d_surrogate for r in records]):
        raise CheckFailure(
            "stability-distance-monotone", f"values {[r.d_surrogate for r in records]}"
        )
    return records


def _ratio_defect(red1, red2, order: int) -> float:
    """Holomorphic defect of the factor ratio F2/F1 on the outer boundary circle."""
    ratio = (red2.F.values / red1.F.values)[red1.F.grid.boundary_rings[-1]]
    return me.holomorphic_defect(me.trace_from_samples(ratio, order))


def _is_increasing(vals) -> bool:
    return all(b > a for a, b in zip(vals[:-1], vals[1:]))


def _spearman(x, y) -> float:
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.sum(rx**2) * np.sum(ry**2)))
    return float(np.sum(rx * ry)) / denom if denom else float("nan")


def run_cgo_decay(cfg: ExperimentConfig, out="out") -> dict:
    """Remainder decay of the Neumann-series CGO solutions for two
    potential pairs, with the dense-solve cross-check left to the tests."""
    outdir = Path(out)
    g = cfg.cgo_grid()
    base = ph.base_phase(0.0 + 0.0j)
    fam = default_potentials(cfg, g)
    rows = []
    slopes = {}
    hs = cfg.cgo_h_list
    for tag, t in (("pair1", 0.0), ("pair2", cfg.t_list[-1])):
        _, red = fam.reduction(t)
        diag = dc.diagonalize(red)
        rn, sn = [], []
        for h in hs:
            sol = dc.neumann_cgo(diag, base, h, seed_kind="b", seed_coeffs=(1.0, 0.25))
            rows.append(
                [
                    h,
                    1.0,
                    sol.norms["norm_r_l2"],
                    sol.norms["norm_s_l2"],
                    sol.contraction_estimate,
                    sol.terms_used,
                    max(sol.residuals),
                ]
            )
            rn.append(sol.norms["norm_r_l2"])
            sn.append(sol.norms["norm_s_l2"])
        slopes[tag] = {
            "slope_r": ph.fit_loglog_slope(hs, rn),
            "slope_s": ph.fit_loglog_slope(hs, sn),
        }
    write_csv(
        outdir / "cgo_decay.csv",
        ["h", "delta", "norm_r", "norm_s", "S_term_ratio", "terms_used", "residual"],
        rows,
    )
    write_manifest(outdir / "cgo_decay.json", cfg, "cgo-decay", slopes)
    return slopes


def run_stationary_phase(cfg: ExperimentConfig, out="out") -> dict:
    """Oscillatory-integral scaling study on the reference phase."""
    outdir = Path(out)
    g = geo.PolarGrid(geo.disk(cfg.r_outer), max(cfg.n_r, 256), max(cfg.n_theta, 256))
    Z = g.nodes
    win = ph.bump_window(g, 0.0, 0.6 * cfg.r_outer)
    u = geo.ScalarField(
        g, np.exp(-6 * np.abs(Z - (0.15 + 0.08j) * cfg.r_outer) ** 2 / cfg.r_outer**2)
    ) * win
    osc = ph.OscillatoryIntegral(u, ph.base_phase(0.0))
    rows = []
    ints, resids = [], []
    for h in cfg.h_list:
        r = osc.eval(h)
        rows.append(
            [
                h,
                math.sqrt(abs(r.hessian)),
                r.integral.real,
                r.integral.imag,
                r.leading.real,
                r.leading.imag,
                r.residual,
                r.bound,
            ]
        )
        ints.append(abs(r.integral))
        resids.append(r.residual)
    write_csv(
        outdir / "stationary_phase.csv",
        ["h", "delta", "integral_re", "integral_im", "leading_re", "leading_im", "residual", "bound"],
        rows,
    )
    results = {
        "slope_integral": ph.fit_loglog_slope(cfg.h_list, ints),
        "slope_residual": ph.fit_loglog_slope(cfg.h_list, resids),
    }
    write_manifest(outdir / "stationary_phase.json", cfg, "stationary-phase", results)
    return results


def run_boundary_defect(cfg: ExperimentConfig, out="out") -> dict:
    """Boundary functional over a basis of seed pairs plus the holomorphic
    defect of the factor ratio, swept over the perturbation scale."""
    if cfg.domain_kind != "disk":
        raise ValueError(f"boundary-defect needs a disk domain, got {cfg.domain_kind}")
    outdir = Path(out)
    g = cfg.grid()
    Z = g.nodes
    fam = default_potentials(cfg, g)
    _, red1 = fam.reduction(0.0)
    rows = []
    defects = []
    zeros = np.zeros(g.shape)
    seeds = [(i, j) for i in range(2) for j in range(2)]
    for t in cfg.t_list:
        _, red2 = fam.reduction(t)
        defect = _ratio_defect(red1, red2, cfg.order)
        defects.append(defect)
        for (i, j) in seeds:
            a = geo.ScalarField(g, Z**i)
            b = geo.OneForm(g, zeros, np.conj(Z) ** j)
            af = dc.auxiliary_functional(red1.F, red2.F, a, b, A1=red1.A, A2=red2.A)
            rows.append(
                [t, i, j, af["boundary"].real, af["boundary"].imag, af["difference"], defect]
            )
    write_csv(
        outdir / "boundary_defect.csv",
        ["t", "a_degree", "b_degree", "boundary_re", "boundary_im", "green_gap", "defect"],
        rows,
    )
    results = {"defects": dict(zip(map(str, cfg.t_list), defects))}
    write_manifest(outdir / "boundary_defect.json", cfg, "boundary-defect", results)
    if not _is_increasing(defects):
        raise CheckFailure(
            "boundary-defect-monotone", f"defect not increasing with t: {defects}"
        )
    return results


def run_holonomy_study(cfg: ExperimentConfig, out="out") -> dict:
    """Annulus pipeline: winding integrality on synthetic ratio fields and
    the holonomy defect of gauge-perturbed pairs against the data distance."""
    outdir = Path(out)
    dom = geo.annulus(max(cfg.r_inner, 0.5 * cfg.r_outer), cfg.r_outer)
    g = geo.PolarGrid(dom, cfg.n_r, cfg.n_theta)
    Z = g.nodes
    mid = 0.5 * (dom.r_inner + dom.r_outer)
    loop = geo.circle_loop(mid, 8 * cfg.n_theta)

    rows = []
    for k in range(-2, 3):
        theta = geo.ScalarField(g, Z**k * np.exp(np.sin(Z / cfg.r_outer)))
        w = ho.winding_integral(theta, loop)
        rows.append([k, w["winding"], w["distance"]])

    fam = default_potentials(cfg, g)
    pot1, red1 = fam.reduction(0.0)
    d1 = fw.dtn(pot1, cfg.order)
    wid = 0.25 * (dom.r_outer - dom.r_inner)
    f_comp = np.maximum(0.0, 1 - ((np.abs(Z) - mid) / (2 * wid)) ** 2) ** 3
    table = []
    for t in cfg.t_list:
        pot2 = fw.gauge_transform(pot1, geo.ScalarField(g, t * f_comp))
        rep = ho.holonomy_defect(pot1.X, pot2.X, loop)
        d2 = fw.dtn(pot2, cfg.order)
        dist = me.ensemble_distance(d1, d2)
        table.append([t, rep.integral, rep.nearest_k, rep.defect, dist])
    write_csv(outdir / "holonomy_winding.csv", ["k", "winding", "distance"], rows)
    write_csv(
        outdir / "holonomy_defect.csv",
        ["t", "integral", "nearest_k", "defect", "d_surrogate"],
        table,
    )
    results = {
        "max_gauge_defect": max(r[3] for r in table),
        "windings_checked": len(rows),
    }
    write_manifest(outdir / "holonomy.json", cfg, "holonomy", results)
    for k, winding, distance in rows:
        if winding != k or distance > 1e-3:
            raise CheckFailure(
                "winding-integrality",
                f"winding of z^{k} e^g gave {winding} at distance {distance:.2e}",
            )
    for t, _, _, defect, _ in table:
        if defect > 1e-4:
            raise CheckFailure(
                "holonomy-gauge-invariance", f"defect {defect:.2e} for an exact gauge at t={t}"
            )
    return results
