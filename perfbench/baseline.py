"""Run every workload on several seeds and summarise, e.g. to record a baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline-head.json

For each workload of BENCHMARK.json and each seed it runs run.py with
tracing off, then one traced run on the first seed.  It prints every
metric of the report by name and unit with its median over the seeds and
the spread (q3 - q1) / median, marks an end-to-end spread above its bound
in BENCHMARK.json with "!", and writes all runs to --out as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            report, last = _run(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
                         "failed": last["failed"], "metrics": report["metrics"]})
            doc["env"] = report["env"]
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  f"failed {last['failed']}/{last['attempted']}", flush=True)
        entry = {"runs": runs, "summary": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            s = summary(values)
            s["unit"] = runs[0]["metrics"][name]["unit"]
            entry["summary"][name] = s
            flag = "!" if name in bounds and s["spread"] > bounds[name] else " "
            print(f"  {workload:10s} {name:22s} {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.3f}{flag}", flush=True)
        report, last = _run(workload, _seeds(args.seeds)[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: m["value"] for k, m in last["metrics"].items()}
        entry["absent_layers"] = report.get("absent_layers", [])
        for name, value in entry["per_layer"].items():
            print(f"  {workload:10s} {name:42s} {value:.6g}", flush=True)
        doc["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
