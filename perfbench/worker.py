"""One benchmark process: set up whergo, run rounds for the run length, report.

    python3 perfbench/worker.py --workload point --seed 1 --seconds 28 --trace 0
    python3 perfbench/worker.py --workload point --setup-only

run.py starts this in a fresh process for every run and every set-up probe,
so that whergo's module-level caches never carry over.  It prints one JSON
object on its last line.
"""
import os
import sys
import time

# BLAS threads are pinned before numpy is first imported (here, via whergo)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

REF_POINT = (2.5, 0.3)          # off every failure curve, for the first calls


def setup(workload: str, tmpdir: str):
    """Import whergo, build the workload's models and make the first call for
    each (model, branches) pair, which fills the selection, common-denominator
    and worker-model caches.  Returns the modules and models for the run."""
    from whergo import catalog, cli, engine, geometry, spectral

    ctx = types.SimpleNamespace(catalog=catalog, cli=cli, engine=engine, geometry=geometry,
                                spectral=spectral, tmpdir=tmpdir)
    builders = {"kerr": catalog.model_kerr, "mp5d": catalog.model_mp5d,
                "mvc5d": catalog.model_mvc5d}
    needs = {"point": (("kerr", None), ("mp5d", None), ("mvc5d", None)),
             "trace5d": (("mp5d", None), ("mvc5d", None)),
             "kerr_grid": (("kerr", None), ("kerr", ("plus", "minus"))),
             "sweep5d": ()}[workload]
    ctx.models = {mid: builders[mid](2.0, 1.0) for mid in dict(needs)}
    for mid, branches in needs:
        engine.factorise(ctx.models[mid], *REF_POINT, branches)
    sweeps = {"kerr_grid": "kerr", "sweep5d": "mvc5d"}
    if workload in sweeps:
        cli.main(["sweep", "--model", sweeps[workload], "--grid", "2:3:2,0:1:2",
                  "--out", os.path.join(tmpdir, "setup.csv")])
    return ctx


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else 0.0), 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def summarise(rounds) -> dict:
    """Medians over rounds of each round's times at the reference speed."""
    from workloads import CALIB_REF_S

    med = statistics.median

    def scaled(rnd, part=None):
        return sum(t * k for name, (t, k) in rnd.parts.items() if part in (None, name))

    last = rounds[-1]
    out = {"wall_s": med(scaled(r) for r in rounds),
           "points_per_s": med(r.points / scaled(r, r.points_part) for r in rounds)}
    if last.good_curves:
        out["curve_s"] = med(med(scaled(r, c) for r in rounds) for c in last.good_curves)
    if "jobs2" in last.parts:
        out["scaling_eff"] = med(r.parts["jobs1"][0] / (2.0 * r.parts["jobs2"][0])
                                 for r in rounds)
    latencies = [x for r in rounds for x in r.latencies_ms]
    if latencies:
        value, pct, n = tail(latencies)
        out.update(point_p50_ms=med(latencies), point_tail_ms=value,
                   point_tail_percentile=pct, point_samples=n)
    out["wall_raw_s"] = med(sum(t for t, _ in r.parts.values()) for r in rounds)
    out["calib_s"] = CALIB_REF_S / med(k for r in rounds for _, k in r.parts.values())
    return out


def environment() -> dict:
    import multiprocessing
    import platform

    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "mp_start_method": multiprocessing.get_start_method()}


def run(args, ctx, setup_s: float) -> dict:
    import workloads
    from oracles import Tally
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
    tally = Tally()
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    clock = workloads.Clock()
    deadline = time.perf_counter() + args.seconds
    while True:
        # a traced run alternates untraced and traced rounds, for the overhead
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rnd = wl.run_round(tally, clock)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(rnd)
        now = time.perf_counter()
        if now + (now - t0) > deadline and (tracer is None or traced):
            break

    report = {"setup_s": setup_s, **summarise(plain),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "fail_share": tally.failed / max(tally.attempted, 1),
              "rounds": len(plain)}
    result = {"report": report, "attempted": tally.attempted, "failed": tally.failed,
              "gated_failed": len(tally.gated_failures),
              "failures": [[repr(k), v] for k, v in list(tally.failures.items())[:12]],
              "env": environment()}
    if tracer is not None:
        overhead = summarise(traced)["wall_s"] - report["wall_s"]
        result["per_layer"] = tracer.layer_metrics(len(traced), overhead)
        result["absent_layers"] = tracer.absent
        result["missing_targets"] = tracer.missing
        result["traced_rounds"] = len(traced)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(path)
        result["spans_file"] = os.path.relpath(path, ROOT)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("point", "trace5d", "kerr_grid", "sweep5d"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        ctx = setup(args.workload, tmpdir)
        setup_raw = time.perf_counter() - t0
        from workloads import CALIB_REF_S, calibrate

        setup_s = setup_raw * CALIB_REF_S / calibrate()
        if args.setup_only:
            result = {"setup_s": setup_s, "setup_raw_s": setup_raw}
        else:
            result = run(args, ctx, setup_s)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
