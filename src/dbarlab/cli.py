"""Command-line interface: forward solves, data distances, and the
experiment studies, all driven by a JSON config file.

Subcommands: forward, distance, cgo-decay, stationary-phase,
boundary-defect, stability-sweep, gauge-check, holonomy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import geometry as geo
from . import forward as fw
from . import metrics as me
from . import holonomy as ho
from .experiments import (
    CheckFailure,
    ExperimentConfig,
    default_potentials,
    run_boundary_defect,
    run_cgo_decay,
    run_gauge_check,
    run_holonomy_study,
    run_stability_sweep,
    run_stationary_phase,
)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        return ExperimentConfig.from_json(args.config)
    return ExperimentConfig()


def _cmd_forward(args) -> int:
    cfg = _load_config(args)
    order = args.order if args.order is not None else cfg.order
    fam = default_potentials(cfg)
    pot, _ = fam.reduction(args.t)
    d = fw.dtn(pot, order)
    # made only now, so a refused order leaves no directory behind
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dtn.csv"
    fw.save_dtn_csv(path, d)
    print(f"wrote {path} (order {order}, circles {d.circles})")
    return 0


def _cmd_distance(args) -> int:
    d1 = fw.load_dtn_csv(args.dtn_a)
    d2 = fw.load_dtn_csv(args.dtn_b)
    result = {
        "surrogate": me.ensemble_distance(d1, d2, mode="surrogate"),
        "sup_inf": me.ensemble_distance(d1, d2, mode="sup_inf"),
        "truncation": d1.order,
    }
    text = json.dumps(result, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "distance.json").write_text(text + "\n")
    print(text)
    return 0


def _cmd_holonomy(args) -> int:
    x1 = geo.load_snapshot(args.field_a)
    x2 = geo.load_snapshot(args.field_b)
    if not isinstance(x1, geo.OneForm) or not isinstance(x2, geo.OneForm):
        raise ValueError("holonomy expects oneform snapshots")
    if args.loop_file:
        data = np.loadtxt(args.loop_file)
        pts = data[:, 0] + 1j * data[:, 1] if data.ndim == 2 else data.astype(complex)
        loop = geo.Loop(pts)
    else:
        loop = geo.circle_loop(args.circle, args.loop_samples)
    rep = ho.holonomy_defect(x1, x2, loop)
    result = {
        "integral": rep.integral,
        "nearest_k": rep.nearest_k,
        "defect": rep.defect,
        "transport_re": rep.transport.real,
        "transport_im": rep.transport.imag,
        "loop_length": rep.loop.length,
    }
    text = json.dumps(result, sort_keys=True, indent=1)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        (Path(args.out) / "holonomy_report.json").write_text(text + "\n")
    print(text)
    return 0


_STUDIES = {
    "cgo-decay": run_cgo_decay,
    "stationary-phase": run_stationary_phase,
    "boundary-defect": run_boundary_defect,
    "stability-sweep": run_stability_sweep,
    "gauge-check": run_gauge_check,
    "holonomy-study": run_holonomy_study,
}


def _cmd_study(name):
    def run(args) -> int:
        result = _STUDIES[name](_load_config(args), out=args.out)
        if isinstance(result, list):
            result = {"records": len(result)}
        print(json.dumps(result, sort_keys=True, default=str, indent=1))
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dbarlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file", default=None)
    common.add_argument("--out", help="output directory", default="out")

    fwd = sub.add_parser("forward", parents=[common], help="solve and export a DtN matrix")
    fwd.add_argument("--order", type=int, default=None, help="Fourier truncation")
    fwd.add_argument("--t", type=float, default=0.0, help="perturbation scale")
    fwd.set_defaults(func=_cmd_forward)

    dist = sub.add_parser("distance", help="distance between two DtN CSV files")
    dist.add_argument("dtn_a")
    dist.add_argument("dtn_b")
    dist.add_argument("--out", default=None)
    dist.set_defaults(func=_cmd_distance)

    hol = sub.add_parser("holonomy", help="holonomy report for two connection snapshots")
    hol.add_argument("field_a")
    hol.add_argument("field_b")
    hol.add_argument("--circle", type=float, default=1.0, help="loop radius")
    hol.add_argument("--loop-file", default=None, help="polyline file of complex samples")
    hol.add_argument("--loop-samples", type=int, default=1024)
    hol.add_argument("--out", default=None)
    hol.set_defaults(func=_cmd_holonomy)

    for name in _STUDIES:
        sp = sub.add_parser(
            name, parents=[common], help=f"run the {name.removesuffix('-study')} study"
        )
        sp.set_defaults(func=_cmd_study(name))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"CHECK FAILED {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"dbarlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
