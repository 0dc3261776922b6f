"""Benchmark of the dbarlab lab: two study workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats rounds of the workload
until the next round would end after S seconds; a round runs each
operation of the workload once, in its own process (perfbench/worker.py),
and two clients take the round's operations in turn.  The inputs come from
the seed; the outputs are checked by the lab's identities on every seed
and against reference.json on the pinned seeds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-module ones: it alternates untraced and traced rounds, takes the module
metrics from the traced rounds and the tracing overhead from the
difference.  The last line of output is one JSON object; the line before
it describes the environment and the work done.

    python3 perfbench/run.py --workload NAME --seed N --seconds 1 --pin

re-pins the reference outputs of one workload at one seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import round_layers  # noqa: E402

REFERENCE = HERE / "reference.json"
# agreement with the pinned outputs, relative to the largest pinned value
# of each output group; room for roundoff-level changes such as a
# reordered sum, none for a change of discretization
REF_RTOL = 1e-8
# BLAS threads of every operation process; one thread keeps the results
# bit-identical from run to run
BLAS_THREADS = "1"
# the run must end within 180 s; the last round gets what remains of this
RUN_DEADLINE_S = 170.0
# closed-loop clients, one per CPU, that take a round's operations in
# turn: on a shared box each CPU's speed drifts on its own, and two clients
# fit more rounds, so more samples of each operation, into a run
CLIENTS = min(2, len(os.sched_getaffinity(0)))

T_LIST = (0.02, 0.04, 0.08, 0.16, 0.32, 0.64)
H_LIST = (0.2, 0.1, 0.05, 0.025, 0.0125)
CGO_H_LIST = (0.08, 0.04, 0.02)
# right-inverse ladder rungs: [n_r, n_theta, fields, entry points].  The
# last grid is just over the kernel-table memory budget (n_r^2 n_theta >
# 3e7 entries), so each of its applies rebuilds the kernel in blocks.
ALL_INVERSES = ["dbar_inverse", "dbar_star_inverse", "primitive_alpha"]
LADDER = [
    [64, 128, 4, ALL_INVERSES],
    [96, 128, 4, ALL_INVERSES],
    [128, 256, 3, ALL_INVERSES],
    [352, 256, 1, ["dbar_inverse"]],
]


def _jitter(rng: random.Random, x: float, frac: float) -> float:
    return x * (1.0 + frac * (2.0 * rng.random() - 1.0))


def workload_ops(name: str, seed: int) -> list[dict]:
    """The operations of one round, with inputs drawn from the seed.  Both
    workloads draw the same inputs for a seed."""
    rng = random.Random(seed)
    # seeds handed to the lab (CGO power iteration, battery fields) must be
    # non-negative; draw them instead of passing --seed through
    lab_seed = rng.getrandbits(31)
    base = {
        "seed": lab_seed,
        "amplitude": _jitter(rng, 0.3, 0.05),
        "t_list": [_jitter(rng, t, 0.04) for t in T_LIST],
    }
    cgo = dict(base, cgo_n_r=64, cgo_n_theta=256,
               cgo_h_list=[_jitter(rng, h, 0.04) for h in CGO_H_LIST])
    phase = {"n_r": 384, "n_theta": 512, "h_list": [_jitter(rng, h, 0.04) for h in H_LIST]}
    if name == "forward_studies":
        return [
            {"op": "forward", "config": base},
            {"op": "stability-sweep", "config": base},
            {"op": "gauge-check", "config": base},
            {"op": "holonomy-study", "config": base},
        ]
    if name == "cauchy_studies":
        return [
            {"op": "cgo-decay", "config": cgo},
            {"op": "right-inverse-ladder", "grids": LADDER, "seed": lab_seed},
            {"op": "stationary-phase", "config": phase},
        ]
    raise ValueError(name)


WORKLOADS = ("forward_studies", "cauchy_studies")


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    """The lab could not be run at all; no result is printed."""


def run_op(op: dict, opdir: Path, traced: bool, run_id: str, deadline: float) -> dict:
    """One operation in a fresh process, killed at `deadline` (monotonic)."""
    opdir.mkdir(parents=True)
    spec = {k: v for k, v in op.items() if k != "config"}
    if "config" in op:
        cfg_path = opdir / "config.json"
        cfg_path.write_text(json.dumps(op["config"]))
        spec["config"] = str(cfg_path)
    spec.update(out=str(opdir / "out"), trace=traced, run_id=run_id)
    spec_path = opdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports the lab from ./src only
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s", "timed_out": True}
    (opdir / "stderr.txt").write_text(proc.stderr)
    if proc.returncode == 3:
        raise SetupError(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "import failed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "error": tail[0]}
    return json.loads(lines[-1])


def compare(outputs: dict, ref: dict) -> list[str]:
    """Names of pinned output groups that moved by more than roundoff."""
    bad = []
    for key, want in ref.items():
        got = outputs.get(key)
        if got is None or len(got) != len(want):
            bad.append(key)
            continue
        scale = max((abs(x) for x in want if not math.isnan(x)), default=0.0) or 1.0
        for a, b in zip(got, want):
            if not (abs(a - b) <= REF_RTOL * scale or (math.isnan(a) and math.isnan(b))):
                bad.append(key)
                break
    return bad


def failures(res: dict, ref: dict | None) -> list[str]:
    """Reasons an operation failed: an exception (a study CheckFailure, a
    ContractionError, an EigenvalueCollision, ...), an identity over its
    tolerance, or an output that moved away from the pinned reference."""
    if not res.get("ok"):
        return [res.get("error") or "failed"]
    reasons = [f"identity {c['name']} = {c['value']:.3e}" for c in res["checks"] if not c["ok"]]
    if ref is not None:
        reasons += [f"reference mismatch in {k}" for k in compare(res["outputs"], ref)]
    return reasons


def write_references(references: dict) -> None:
    """reference.json with one line per output group."""
    lines = []
    for w in sorted(references):
        seeds = []
        for seed in sorted(references[w], key=int):
            ops = []
            for op in sorted(references[w][seed]):
                groups = [f"     {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(references[w][seed][op].items())]
                ops.append(f"   {json.dumps(op)}: {{\n" + ",\n".join(groups) + "}")
            seeds.append(f"  {json.dumps(seed)}: {{\n" + ",\n".join(ops) + "}")
        lines.append(f" {json.dumps(w)}: {{\n" + ",\n".join(seeds) + "}")
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="record this run's outputs as the reference")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "dbarlab" / "__init__.py").is_file():
        print("perfbench: no src/dbarlab here; run from the root of a dbarlab checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    pinned = None if args.pin else references.get(args.workload, {}).get(str(args.seed))

    ops = workload_ops(args.workload, args.seed)
    rundir = root / ".perfbench" / args.workload
    shutil.rmtree(rundir, ignore_errors=True)

    def start(i: int, traced: bool):
        run_id = f"{args.workload}/s{args.seed}/r{len(rounds)}/{i}-{ops[i]['op']}"
        opdir = rundir / f"r{len(rounds)}-{i}"
        return run_id, pool.submit(run_op, ops[i], opdir, traced, run_id, t_start + RUN_DEADLINE_S)

    t_start = time.monotonic()
    rounds = []  # {"traced", "results", "elapsed"}
    attempted = failed = 0
    problems = []
    timed_out = False
    pool = ThreadPoolExecutor(max_workers=CLIENTS)
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t_round = time.monotonic()
        started = [start(i, traced) for i in range(len(ops))]
        results = []
        for op, (run_id, future) in zip(ops, started):
            try:
                res = future.result()
            except SetupError as exc:
                pool.shutdown(wait=True, cancel_futures=True)
                print(f"perfbench: cannot run the lab: {exc}", file=sys.stderr)
                return 2
            reasons = failures(res, None if pinned is None else pinned.get(op["op"]))
            attempted += 1
            failed += bool(reasons)
            problems += [f"{run_id}: {r}" for r in reasons]
            results.append(res)
            timed_out |= bool(res.get("timed_out"))
        rounds.append({"traced": traced, "results": results,
                       "elapsed": time.monotonic() - t_round})
        # start another round only if it is expected to end in time
        elapsed = time.monotonic() - t_start
        per_round = statistics.median(r["elapsed"] for r in rounds)
        enough = len(rounds) >= (2 if args.trace else 1)
        limit = min(args.seconds, RUN_DEADLINE_S) if enough else RUN_DEADLINE_S
        if timed_out or elapsed + per_round > limit:
            break
    pool.shutdown(wait=True)

    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    if args.pin:
        if problems:
            print("perfbench: not pinning a failing run", file=sys.stderr)
            return 1
        references.setdefault(args.workload, {})[str(args.seed)] = {
            op["op"]: res["outputs"] for op, res in zip(ops, rounds[0]["results"])
        }
        write_references(references)

    def op_median(key, traced=False):
        """Per operation, the median over rounds; one value per operation."""
        vals = []
        for i in range(len(ops)):
            xs = [r["results"][i][key] for r in rounds
                  if r["traced"] == traced and key in r["results"][i]]
            vals.append(statistics.median(xs) if xs else 0.0)
        return vals

    untraced_wall = sum(op_median("wall_s"))
    values = {
        "wall_s": untraced_wall,
        "setup_s": sum(op_median("setup_s")),
        "peak_rss_mb": max(op_median("peak_rss_mb")),
        "ok_frac": (attempted - failed) / attempted,
    }
    traced_rounds = [r for r in rounds if r["traced"]]
    if traced_rounds:
        layers = [round_layers([res.get("spans", []) for res in r["results"]]) for r in traced_rounds]
        for key in layers[0]:
            values[key] = statistics.median(lay[key] for lay in layers)
        traced_wall = sum(op_median("wall_s", traced=True))
        values["trace.wall_s"] = traced_wall
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        spans = [span for r in traced_rounds for res in r["results"] for span in res.get("spans", [])]
        (rundir / "spans.json").write_text(json.dumps(spans))

    first = next((res for r in rounds for res in r["results"] if "env" in res), {})
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **first.get("env", {}),
        "rounds_untraced": len(rounds) - len(traced_rounds),
        "rounds_traced": len(traced_rounds),
        "clients": CLIENTS,
        "ops": [dict(op=op["op"], **res.get("work", {})) for op, res in zip(ops, rounds[0]["results"])],
        "reference_checked": pinned is not None,
        "op_wall_s": [[round(res["wall_s"], 3) if "wall_s" in res else None
                       for res in r["results"]] for r in rounds],
    }
    streams = [res["streams"] for res in rounds[0]["results"] if res.get("streams") is not None]
    if streams:
        env["finest_ladder_grid_streams"] = streams[0]
    if traced_rounds:
        env["calls_per_round"] = {k: v for k, v in layers[0].items()
                                  if k.endswith(("applies", "calls", "builds", "hits", "assembles",
                                                 "matrices", "columns", "solves", "distances",
                                                 "windings", "evals", "terms"))}
    print("perfbench env " + json.dumps(env, sort_keys=True))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
