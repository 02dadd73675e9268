"""whergo benchmark: one run of one workload.

    python3 perfbench/run.py --workload point --seed 1 --seconds 28 --trace 0

Run from the root of a whergo checkout (the sources under src/ are used
directly, nothing is installed).  Each run first checks the benchmark's own
failure rule (selftest.py), then times whergo's set-up in several fresh
processes, then runs the workload in one more fresh process with BLAS pinned
to one thread.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones.  The line before it is a report with every metric of the workload,
the environment and the first failures.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7
DEADLINE_S = 170.0              # the whole run, probes included

UNITS = {"setup_s": "s", "setup_raw_s": "s", "wall_s": "s", "wall_raw_s": "s",
         "calib_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB",
         "point_p50_ms": "ms", "point_tail_ms": "ms", "point_tail_percentile": "%",
         "point_samples": "count", "curve_s": "s", "scaling_eff": "ratio",
         "fail_share": "ratio", "rounds": "count"}


class BenchError(Exception):
    pass


def _child(argv, env, timeout):
    """Run worker.py (or selftest.py) to completion; its last stdout line."""
    try:
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(argv[0])} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(argv)} printed nothing")
    return lines[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "whergo", "__init__.py")):
        raise BenchError(f"no whergo sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    _child([os.path.join(HERE, "selftest.py")], env, 60)
    worker = os.path.join(HERE, "worker.py")
    probes = [json.loads(_child([worker, "--workload", args.workload, "--setup-only"],
                                env, 60))
              for _ in range(SETUP_PROBES)]
    left = DEADLINE_S - (time.monotonic() - t_start)
    res = json.loads(_child([worker, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, left))

    report = res["report"]
    report["setup_s"] = statistics.median([p["setup_s"] for p in probes] + [report["setup_s"]])
    report["setup_raw_s"] = statistics.median(p["setup_raw_s"] for p in probes)
    if args.trace:
        wanted = spec["per_layer"]
        values = res["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = report
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"workload {args.workload} produced no {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())

    for name, value in report.items():
        print(f"{args.workload:10s} {name:22s} {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in report.items()},
        "setup_probes": probes, "attempted": res["attempted"], "failed": res["failed"],
        "gated_failed": res["gated_failed"], "failures": res["failures"], "env": res["env"],
        **{k: res[k] for k in ("absent_layers", "missing_targets", "traced_rounds",
                                "spans_file") if k in res}}))
    print(json.dumps({"correct": res["gated_failed"] == 0 and finite,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
