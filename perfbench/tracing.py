"""Span tracing of dbarlab's public entry points, installed from outside.

The lab itself carries no instrumentation.  `Tracer.install` replaces each
entry point listed in `ENTRY_POINTS` with a wrapper that records a span
(name, start, end, parent, run id, attributes) and `Tracer.uninstall` puts
the originals back.  Methods are wrapped on their class.  A module function
is re-bound in every dbarlab module that holds it, because
``from .geometry import wirtinger`` copies the binding into the importing
module.

`round_layers` turns the spans of one round of operations into the
per-module metrics that BENCHMARK.json names.  It needs no numpy, so the
parent process of the benchmark can call it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute path, span name).  Span names start with the module
# that owns the entry point; `round_layers` relies on that prefix.
ENTRY_POINTS = [
    ("geometry", "wirtinger", "geometry.wirtinger"),
    ("geometry", "exterior_d", "geometry.exterior_d"),
    ("cauchy", "kernel_table", "cauchy.kernel_table"),
    ("cauchy", "CauchyKernelTable.__init__", "cauchy.table_build"),
    ("cauchy", "CauchyKernelTable.apply", "cauchy.apply"),
    ("cauchy", "dbar_inverse", "cauchy.dbar_inverse"),
    ("cauchy", "dbar_star_inverse", "cauchy.dbar_star_inverse"),
    ("cauchy", "primitive_alpha", "cauchy.primitive_alpha"),
    ("phases", "stationary_phase_eval", "phases.stationary_phase_eval"),
    ("phases", "exclusion_set", "phases.exclusion_set"),
    ("phases", "ExclusionSet.contains", "phases.exclusion_contains"),
    ("forward", "MagneticOperator.__init__", "forward.assemble"),
    ("forward", "MagneticOperator.solve", "forward.solve"),
    ("forward", "dtn", "forward.dtn"),
    ("forward", "system_dtn", "forward.system_dtn"),
    ("forward", "diagonalized_system_dtn", "forward.diagonalized_system_dtn"),
    ("forward", "gauge_transform", "forward.gauge_transform"),
    ("dirac", "reduce_schrodinger", "dirac.reduce_schrodinger"),
    ("dirac", "diagonalize", "dirac.diagonalize"),
    ("dirac", "difference_potential", "dirac.difference_potential"),
    ("dirac", "neumann_cgo", "dirac.neumann_cgo"),
    ("metrics", "ensemble_distance", "metrics.ensemble_distance"),
    ("metrics", "system_distance", "metrics.system_distance"),
    ("metrics", "holomorphic_defect", "metrics.holomorphic_defect"),
    ("holonomy", "winding_integral", "holonomy.winding_integral"),
    ("holonomy", "holonomy_defect", "holonomy.holonomy_defect"),
    ("experiments", "run_stability_sweep", "experiments.run_stability_sweep"),
    ("experiments", "run_gauge_check", "experiments.run_gauge_check"),
    ("experiments", "run_cgo_decay", "experiments.run_cgo_decay"),
    ("experiments", "run_holonomy_study", "experiments.run_holonomy_study"),
    ("experiments", "run_stationary_phase", "experiments.run_stationary_phase"),
    ("experiments", "default_potentials", "experiments.default_potentials"),
    (
        "experiments",
        "curvature_difference_residual",
        "experiments.curvature_difference_residual",
    ),
]

MODULES = ("geometry", "cauchy", "phases", "forward", "dirac", "metrics", "holonomy", "experiments")
STUDIES = ("stability_sweep", "gauge_check", "cgo_decay", "holonomy_study", "stationary_phase")

DTN_SPANS = ("forward.dtn", "forward.system_dtn", "forward.diagonalized_system_dtn")

# span record layout
NAME, START, END, PARENT, RUN, ATTRS = range(6)


class Tracer:
    """Records spans in memory while installed; one instance per operation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # id() of a kernel table -> serial number of its build; a freed
        # table's id can be reused by the next one
        self._tables: dict[int, int] = {}

    def _attrs(self, name, args, kwargs, result):
        """Attributes that the metrics need and the span itself does not show."""
        if name == "cauchy.table_build":
            g = args[1] if len(args) > 1 else kwargs["grid"]
            self._tables[id(args[0])] = len(self._tables)
            return {"table": self._tables[id(args[0])], "size": g.n_r * g.n_theta}
        if name == "cauchy.apply":
            g = args[0].grid
            return {"table": self._tables.get(id(args[0]), -1), "size": g.n_r * g.n_theta}
        if name in DTN_SPANS:
            return {"columns": int(result.matrix.shape[1])}
        if name == "dirac.neumann_cgo":
            return {"terms": int(result.terms_used), "residual": float(max(result.residuals))}
        return None

    def _wrap(self, name, fn):
        spans, stack, run_id, attrs = self.spans, self._stack, self.run_id, self._attrs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = time.perf_counter()
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            else:
                rec[END] = time.perf_counter()
                rec[ATTRS] = attrs(name, args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "dbarlab" and v}
        for mod_name, path, span_name in ENTRY_POINTS:
            owner = mods["dbarlab." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            # an entry point that a later version removed reads as zero
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                continue
            wrapper = self._wrap(span_name, orig)
            if cls_path:
                self._bind(owner, attr, orig, wrapper)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._bind(mod, key, orig, wrapper)

    def _bind(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# per-module metrics from spans
# ---------------------------------------------------------------------------


def _p(samples, q):
    """q-th percentile (q in 10..90, step 10) by linear interpolation."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[q // 10 - 1]


def round_layers(op_spans) -> dict:
    """Per-module metrics of one round; `op_spans` holds one span list per
    operation process (parent indices are local to each list)."""
    dur = {}
    count = {}
    self_s = {m: 0.0 for m in MODULES}
    apply_ms, solve_ms = [], []
    first_apply_s = 0.0
    applies_in_cgo = 0
    series_terms = 0
    max_residual = 0.0
    finest = (0, [])
    refusals = assemble_failures = dtn_columns = cache_hits = 0
    top_distances = 0
    distance_s = 0.0

    for spans in op_spans:
        child_time = [0.0] * len(spans)
        in_cgo = [False] * len(spans)
        built = [False] * len(spans)  # a kernel_table call that built its table
        applied_tables = set()
        for i, s in enumerate(spans):
            d = s[END] - s[START]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += d
                in_cgo[i] = in_cgo[s[PARENT]] or spans[s[PARENT]][NAME] == "dirac.neumann_cgo"
                built[s[PARENT]] |= s[NAME] == "cauchy.table_build"
        for i, s in enumerate(spans):
            name, attrs = s[NAME], s[ATTRS] or {}
            d = s[END] - s[START]
            dur[name] = dur.get(name, 0.0) + d
            count[name] = count.get(name, 0) + 1
            self_s[name.split(".")[0]] += d - child_time[i]
            error = attrs.get("error")
            if name == "cauchy.apply":
                if attrs["table"] in applied_tables:
                    apply_ms.append(1e3 * d)
                else:
                    applied_tables.add(attrs["table"])
                    first_apply_s += d
                applies_in_cgo += in_cgo[i]
                if attrs["size"] > finest[0]:
                    finest = (attrs["size"], [])
                if attrs["size"] == finest[0]:
                    finest[1].append(d)
            elif name == "forward.solve":
                solve_ms.append(1e3 * d)
            elif name == "forward.assemble" and error == "EigenvalueCollision":
                assemble_failures += 1
            elif name in DTN_SPANS:
                dtn_columns += attrs.get("columns", 0)
            elif name == "dirac.neumann_cgo":
                if error == "ContractionError":
                    refusals += 1
                series_terms += attrs.get("terms", 0)
                max_residual = max(max_residual, attrs.get("residual", 0.0))
            elif name == "cauchy.kernel_table":
                cache_hits += not built[i]
            elif name in ("metrics.ensemble_distance", "metrics.system_distance"):
                parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
                if not parent.startswith("metrics."):
                    top_distances += 1
                    distance_s += d

    def t(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def c(*names):
        return sum(count.get(n, 0) for n in names)

    cgo_solves = c("dirac.neumann_cgo")
    out = {
        "cauchy.applies": c("cauchy.apply"),
        "cauchy.warm_apply_s": 1e-3 * sum(apply_ms),
        "cauchy.apply_ms_p50": _p(apply_ms, 50),
        "cauchy.apply_ms_p90": _p(apply_ms, 90),
        "cauchy.table_builds": c("cauchy.table_build"),
        "cauchy.table_cache_hits": cache_hits,
        "cauchy.table_build_s": t("cauchy.table_build"),
        "cauchy.first_apply_s": first_apply_s,
        "cauchy.finest_grid_apply_s": statistics.median(finest[1]) if finest[1] else 0.0,
        "forward.assembles": c("forward.assemble"),
        "forward.assemble_s": t("forward.assemble"),
        "forward.assemble_failures": assemble_failures,
        "forward.solve_calls": c("forward.solve"),
        "forward.solve_s": t("forward.solve"),
        "forward.solve_ms_p50": _p(solve_ms, 50),
        "forward.dtn_s": t(*DTN_SPANS),
        "forward.dtn_matrices": c(*DTN_SPANS),
        "forward.dtn_columns": dtn_columns,
        "dirac.cgo_solves": cgo_solves,
        "dirac.cgo_s": t("dirac.neumann_cgo"),
        "dirac.series_terms": series_terms,
        "dirac.applies_per_cgo": applies_in_cgo / cgo_solves if cgo_solves else 0.0,
        "dirac.contraction_refusals": refusals,
        "dirac.max_residual": max_residual,
        "dirac.reduce_s": t("dirac.reduce_schrodinger", "dirac.diagonalize", "dirac.difference_potential"),
        "metrics.distances": top_distances,
        "metrics.distance_s": distance_s,
        "holonomy.windings": c("holonomy.winding_integral"),
        "holonomy.winding_s": t("holonomy.winding_integral"),
        "holonomy.defect_s": t("holonomy.holonomy_defect"),
        "phases.evals": c("phases.stationary_phase_eval"),
        "phases.stationary_phase_s": t("phases.stationary_phase_eval"),
        "phases.exclusion_s": t("phases.exclusion_set", "phases.exclusion_contains"),
        "geometry.wirtinger_calls": c("geometry.wirtinger"),
        "geometry.wirtinger_s": t("geometry.wirtinger"),
        "geometry.exterior_d_calls": c("geometry.exterior_d"),
        "geometry.exterior_d_s": t("geometry.exterior_d"),
    }
    for study in STUDIES:
        out[f"experiments.{study}_s"] = t(f"experiments.run_{study}")
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_s[mod]
    out["trace.spans"] = sum(len(s) for s in op_spans)
    return out
