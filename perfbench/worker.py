"""Run one operation of a benchmark workload in a fresh process.

An operation is one study call (or the right-inverse ladder), the way a
user runs the lab: one study per process, from a config file, with the
study's own checks on.  Usage (run.py writes the spec file):

    python3 perfbench/worker.py SPEC.json

The last line of standard output is one JSON object: set-up and work time,
peak resident memory, the outputs that reference.json pins, the lab
identities checked on any seed, and the spans when the spec asks for a
trace.  Exit code 3 means the lab could not be imported.
"""

import time

T_BEGIN = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# criterion 1 bound on the right-inverse residual (tests/test_acceptance.py)
RIGHT_INVERSE_TOL = 1e-2
# criterion 2 bands on the stationary-phase slopes
SLOPE_INTEGRAL = (0.8, 1.2)
SLOPE_RESIDUAL = (1.7, 2.3)
# bound on the relative residuals of the two CGO remainder equations (the
# summed series reaches about 1e-14)
CGO_RESIDUAL_TOL = 1e-10
# neumann_cgo's default term cap; a series that reaches it did not converge
CGO_MAX_TERMS = 200


def _flat(values) -> list:
    """Floats of a scalar/array, complex entries as (re, im) pairs."""
    import numpy as np

    a = np.asarray(values).ravel()
    if np.iscomplexobj(a):
        a = np.column_stack([a.real, a.imag]).ravel()
    return [float(x) for x in a]


def _csv_columns(path) -> dict:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return {h: [r[i] for r in rows] for i, h in enumerate(header)}


class Op:
    """One operation: `prepare` builds the inputs (set-up), `run` is the
    timed work, `collect` reads outputs and checks identities afterwards."""

    def __init__(self, spec):
        self.spec = spec
        self.out = Path(spec["out"])
        self.checks = []

    def check(self, name, value, lo=None, hi=None):
        ok = (lo is None or value >= lo) and (hi is None or value <= hi)
        self.checks.append({"name": name, "value": value, "lo": lo, "hi": hi, "ok": bool(ok)})


class Study(Op):
    """One study of `dbarlab.experiments`, called with a config file."""

    def prepare(self):
        from dbarlab.experiments import ExperimentConfig

        self.cfg = ExperimentConfig.from_json(self.spec["config"])

    def run(self):
        from dbarlab import experiments

        fn = getattr(experiments, "run_" + self.spec["op"].replace("-", "_"))
        self.result = fn(self.cfg, out=self.out)

    def collect(self) -> dict:
        return getattr(self, "outputs_" + self.spec["op"].replace("-", "_"))()

    def work(self) -> dict:
        c, op = self.cfg, self.spec["op"]
        if op == "cgo-decay":
            return {"grid": f"{c.cgo_n_r}x{c.cgo_n_theta}", "h": len(c.cgo_h_list)}
        if op == "stationary-phase":
            return {"grid": f"{max(c.n_r, 256)}x{max(c.n_theta, 256)}", "h": len(c.h_list)}
        work = {"grid": f"{c.n_r}x{c.n_theta}", "order": c.order}
        if op == "gauge-check":
            work["fine_grid"] = f"{2 * c.n_r}x{c.n_theta}"
        if op in ("stability-sweep", "holonomy-study"):
            work["t"] = len(c.t_list)
        return work

    def outputs_stability_sweep(self):
        recs = self.result
        fields = ("d_surrogate", "d_sup_inf", "q_diff_l2", "dX_diff_l2", "modF_diff_l2",
                  "qt_max_off", "ft_max_off", "boundary_defect")
        return {f: [getattr(r, f) for r in recs] for f in fields}

    def outputs_gauge_check(self):
        r = self.result
        return {"floor": [r["floor"]], "distances": [r["gauge_distance"], r["control_distance"]]}

    def outputs_cgo_decay(self):
        cols = _csv_columns(self.out / "cgo_decay.csv")
        for i, (res, terms) in enumerate(zip(cols["residual"], cols["terms_used"])):
            self.check(f"cgo_residual[{i}]", res, hi=CGO_RESIDUAL_TOL)
            self.check(f"cgo_terms[{i}]", terms, hi=CGO_MAX_TERMS - 1)
        return {"norm_r": cols["norm_r"], "norm_s": cols["norm_s"]}

    def outputs_holonomy_study(self):
        wind = _csv_columns(self.out / "holonomy_winding.csv")
        table = _csv_columns(self.out / "holonomy_defect.csv")
        # the loop integrals of exact gauges sit at roundoff (~1e-16), so
        # only their lattice point is pinned; the study bounds their defect
        return {
            "winding": wind["winding"],
            "nearest_k": table["nearest_k"],
            "d_surrogate": table["d_surrogate"],
        }

    def outputs_stationary_phase(self):
        self.check("slope_integral", self.result["slope_integral"], *SLOPE_INTEGRAL)
        self.check("slope_residual", self.result["slope_residual"], *SLOPE_RESIDUAL)
        cols = _csv_columns(self.out / "stationary_phase.csv")
        return {
            "integral": cols["integral_re"] + cols["integral_im"],
            "leading": cols["leading_re"] + cols["leading_im"],
            "residual": cols["residual"],
        }


class Forward(Study):
    """`dbarlab forward`: the CLI command that exports one DtN matrix."""

    def prepare(self):
        super().prepare()
        self.argv = ["forward", "--config", self.spec["config"], "--out", str(self.out)]

    def run(self):
        from dbarlab import cli

        if cli.main(self.argv) != 0:
            raise RuntimeError("dbarlab forward failed")

    def collect(self):
        from dbarlab import forward

        d = forward.load_dtn_csv(self.out / "dtn.csv")
        return {"dtn": _flat(d.matrix)}


class Ladder(Op):
    """Right inverses of dbar and dbar* and the Cauchy primitive over a
    battery of smooth (0,1)-data on a ladder of fresh disk grids.  Each rung
    is [n_r, n_theta, fields, entry points]."""

    def prepare(self):
        import numpy as np
        from dbarlab import geometry as geo

        self.rungs = []
        for k, (n_r, n_t, count, entries) in enumerate(self.spec["grids"]):
            g = geo.PolarGrid(geo.disk(1.0), n_r, n_t)
            rng = np.random.default_rng([self.spec["seed"], k])
            Z = g.nodes
            fields = []
            for _ in range(count):
                c = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.4, 0.4, 2)
                w = rng.uniform(6.0, 14.0)
                mod = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                vals = np.exp(-w * np.abs(Z - c[0]) ** 2) * (
                    mod[0] + mod[1] * Z + mod[2] * np.conj(Z - c[1])
                )
                om = geo.OneForm(g, np.zeros(g.shape), vals)
                fields.append(
                    {
                        "dbar_inverse": om,
                        "primitive_alpha": om,
                        "dbar_star_inverse": geo.ScalarField(g, vals),
                        "data": vals,
                    }
                )
            self.rungs.append((g, fields, entries))

    def work(self) -> dict:
        return {"grids": [f"{g.n_r}x{g.n_theta}:{len(f)}x{'+'.join(e)}" for g, f, e in self.rungs]}

    def run(self):
        from dbarlab import cauchy

        self.results = [
            [(entry, getattr(cauchy, entry)(f[entry])) for f in fields for entry in entries]
            for _, fields, entries in self.rungs
        ]

    def collect(self):
        import numpy as np
        from dbarlab import cauchy, geometry as geo

        def rel_err(g, value, ref):
            w = g.weights
            return float(np.sqrt(np.sum(w * np.abs(value - ref) ** 2) / np.sum(w * np.abs(ref) ** 2)))

        outputs = {}
        for (g, fields, entries), res in zip(self.rungs, self.results):
            tag = f"{g.n_r}x{g.n_theta}"
            errs, norms = [], []
            for i, (entry, x) in enumerate(res):
                ref = fields[i // len(entries)]["data"]
                if entry == "dbar_star_inverse":
                    back = geo.dbar_star(x).values
                else:
                    back = geo.wirtinger(x, "dzbar").c01
                errs.append(rel_err(g, back, ref))
                norms.append(geo.norm_l2(x))
                self.check(f"{entry}[{tag}][{i // len(entries)}]", errs[-1], hi=RIGHT_INVERSE_TOL)
            outputs[f"errors_{tag}"] = errs
            outputs[f"norms_{tag}"] = norms
        # the streaming switch is internal to the kernel table, so it is
        # read back, not predicted; None when the table no longer exposes it
        mode_tables = getattr(cauchy.kernel_table(self.rungs[-1][0]), "_mode_tables", None)
        self.streams = None if mode_tables is None else mode_tables is False
        return outputs


OPS = {
    "forward": Forward,
    "right-inverse-ladder": Ladder,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    try:
        import numpy as np
        import scipy
        import dbarlab  # noqa: F401
        from dbarlab import cli, experiments  # noqa: F401  (imports every module)
    except ImportError:
        traceback.print_exc()
        return 3
    if not Path(dbarlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"dbarlab imported from {dbarlab.__file__}, not from ./src", file=sys.stderr)
        return 3

    op = OPS.get(spec["op"], Study)(spec)
    op.out.mkdir(parents=True, exist_ok=True)
    result = {"ok": False, "error": None, "outputs": {}, "checks": op.checks}
    tracer = None
    try:
        op.prepare()
        result["setup_s"] = time.perf_counter() - T_BEGIN
        result["work"] = op.work()
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                op.run()
            finally:
                result["wall_s"] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
        result["outputs"] = op.collect()
        result["ok"] = True
    except Exception as exc:  # a failed operation is counted, not fatal
        result["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["streams"] = getattr(op, "streams", None)
    if tracer is not None:
        result["spans"] = tracer.spans
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
