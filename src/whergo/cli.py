"""Command-line front end: factorize, sweep, curve, verify, catalog."""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .catalog import (MODEL_BUILDERS, RationalMatrixOmega, _is_number, load_model_json,
                      model_identity)
from .engine import DEFAULT_TOL, _plan_for, check_tol, evaluate_points, factorise
from .errors import NoCurveFound, NonPhysicalM, WhergoError
from .geometry import check_step, classify_curve, extract_metric, trace_curve

SCHEMA_VERSION = 1
DEFAULT_PARAMS = {"m": 2.0, "a": 1.0}       # a run's model parameters where it sets none

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCANONICAL = 3


@dataclass
class RunConfig:
    """Execution settings; every given CLI flag overrides its config-file field."""

    model: str = "kerr"
    model_json: str | None = None
    params: dict = field(default_factory=lambda: dict(DEFAULT_PARAMS))
    branches: list | None = None
    grid: dict = field(default_factory=lambda: {"rho": [0.05, 4.0, 40],
                                                "v": [-4.0, 4.0, 40]})
    tol: float | None = None
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    step: float = 0.01

    def tolerance(self) -> float:
        """The rank tolerance: tol, else DEFAULT_TOL; ValueError unless it
        lies in (0, 1)."""
        return DEFAULT_TOL if self.tol is None else check_tol(self.tol)

    def validate(self):
        for key in ("rho", "v"):
            lo, hi, n = self.grid[key]
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{key} range bounds must be finite, got {lo}:{hi}")
            if n < 2:
                raise ValueError(f"grid resolution for {key} must be >= 2")
            if key == "rho" and lo <= 0:
                raise ValueError("rho range must be strictly positive")
            if hi <= lo:
                raise ValueError(f"empty {key} range")
        check_step(self.step)
        self.tolerance()
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ValueError(f"jobs must be an integer >= 1, got {self.jobs!r}")


def build_model(cfg: RunConfig) -> RationalMatrixOmega:
    if cfg.model_json:
        return load_model_json(cfg.model_json)
    if cfg.model == "identity":
        return model_identity(2)
    if cfg.model not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {cfg.model!r}; see `whergo catalog`")
    return MODEL_BUILDERS[cfg.model](cfg.params.get("m", 2.0), cfg.params.get("a", 1.0))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_null(x: float):
    """x, or None (JSON null) where it is not finite: strict JSON (RFC 8259)
    has no NaN or Infinity."""
    return x if math.isfinite(x) else None


def _write_text(path, *texts: str):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


def cmd_factorize(cfg: RunConfig, rho: float, v: float) -> int:
    model = build_model(cfg)
    out = factorise(model, rho, v, cfg.branches, cfg.tolerance())
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model": model.model_id,
        "params": model.params,
        "branches": list(cfg.branches or model.default_branches),
        "rho": rho,
        "v": v,
        "status": out.status.value,
        "D": [_finite_or_null(out.D_value.real), _finite_or_null(out.D_value.imag)],
        "D_normalised": _finite_or_null(abs(out.D_value) / out.D_scale),
        "kernel_dim": out.kernel_dim,
    }
    if out.canonical:
        payload["M_limit"] = out.M_limit.real.tolist()
        try:
            payload["metric"] = asdict(extract_metric(out.M_limit))
        except NonPhysicalM as exc:
            payload["metric"] = {"error": str(exc)}
        r = out.residual_report
        payload["residuals"] = {
            "factorisation": r.factorisation,
            "x_at_zero": r.x_at_zero,
            "pole_cancellation": r.pole_cancellation,
        }
    _write_text(cfg.out, json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return EXIT_OK if out.canonical else EXIT_NONCANONICAL


# grid points per sweep chunk, rounded to whole rho rows: fixed by the grid,
# never by --jobs, so that serial and parallel sweeps compute the same chunks
SWEEP_CHUNK_POINTS = 2048


# one CSV row: rho and v come formatted; a blank g_tt is formatted as nan,
# which _csv_chunk then cuts
_CSV_ROW = "%s,%s,%.17g,%.17g,%d,%.17g\n"


def _sweep_chunks(cfg: RunConfig, model: RationalMatrixOmega):
    """(rho_vals, v_vals, columns) per chunk of whole rho rows, in grid
    order; every chunk spans the whole v grid, and its columns are
    _chunk_columns's."""
    lo_r, hi_r, n_r = cfg.grid["rho"]
    lo_v, hi_v, n_v = cfg.grid["v"]
    rho_vals = np.linspace(lo_r, hi_r, int(n_r))
    v_vals = np.linspace(lo_v, hi_v, int(n_v))
    step = max(1, SWEEP_CHUNK_POINTS // int(n_v))
    chunks = [(rho_vals[i:i + step], v_vals) for i in range(0, int(n_r), step)]
    return [chunk + (cols,) for chunk, cols in zip(chunks, _map_points(cfg, model, chunks))]


def _chunk_columns(cfg: RunConfig, model: RationalMatrixOmega, rho_vals, v_vals):
    """Sweep columns (re D-hat, im D-hat, kernel_dim, g_tt) of the grid
    rho_vals x v_vals, row-major in rho, with factorise's kernel dimension
    and verdict (PointBatch.canonical) at every point: D-hat is factorise's
    normalised D, g_tt is factorize's where canonical and NaN elsewhere and
    where the extractor refuses M."""
    R, V = (x.ravel() for x in np.meshgrid(rho_vals, v_vals, indexing="ij"))
    batch = evaluate_points(model, R, V, cfg.branches, cfg.tolerance())
    gtt = np.where(batch.canonical, extract_metric(batch.M_limit).g_tt, np.nan)
    dhat = batch.D_value / batch.D_scale
    return dhat.real, dhat.imag, batch.kernel_dim, gtt


_WORKER: tuple = ()     # a pool worker's (cfg, model), handed over once


def _init_worker(cfg: RunConfig, model: RationalMatrixOmega):
    global _WORKER
    _WORKER = (cfg, model)


def _chunk_job(chunk):
    with np.errstate(all="ignore"):     # as main's: extreme points print no warnings
        return _chunk_columns(*_WORKER, *chunk)


def _map_points(cfg: RunConfig, model: RationalMatrixOmega, chunks):
    """Sweep columns of every (rho_vals, v_vals) chunk, in chunk order: in
    min(--jobs, chunks) worker processes, each handed cfg and model once, or
    here with no pool where that is one.  The plan is compiled first, so no
    worker compiles it and a model without one fails before any process."""
    _plan_for(model, cfg.branches)
    workers = min(cfg.jobs, len(chunks))
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers, _init_worker, (cfg, model)) as pool:
            return pool.map(_chunk_job, chunks)
    return [_chunk_columns(cfg, model, *chunk) for chunk in chunks]


def _chunk_table(rho_cells, v_cells, columns):
    """(points, 6) object table of one chunk, row-major in rho: each rho
    cell over every v cell, then the chunk's four columns."""
    table = np.empty((len(rho_cells), len(v_cells), 6), dtype=object)
    table[..., 0] = np.asarray(rho_cells, dtype=object)[:, None]
    table[..., 1] = np.asarray(v_cells, dtype=object)
    for j, col in enumerate(columns, 2):
        table[..., j] = col.reshape(table.shape[:2])
    return table.reshape(-1, 6)


def _csv_chunk(rho_cells, v_cells, columns) -> str:
    """The CSV lines of one chunk; rho_cells and v_cells are formatted."""
    table = _chunk_table(rho_cells, v_cells, columns)
    text = (_CSV_ROW * len(table)) % tuple(table.ravel().tolist())
    return text.replace(",nan\n", ",\n")     # g_tt, the only column that ends a line


def _json_rows(rho_vals, v_vals, columns) -> list:
    """The JSON rows of one chunk, null for every non-finite number: strict
    JSON (RFC 8259) has no NaN or Infinity."""
    table = _chunk_table(rho_vals, v_vals, columns)
    floats = [0, 1, 2, 3, 5]
    finite = np.isfinite(table[:, floats].astype(float))
    table[:, floats] = np.where(finite, table[:, floats], None)
    return table.tolist()


def cmd_sweep(cfg: RunConfig) -> int:
    """Sweep the grid; the output is built chunk by chunk and written only
    once every chunk has been evaluated, so a failing sweep writes nothing."""
    cfg.validate()
    model = build_model(cfg)
    chunks = _sweep_chunks(cfg, model)
    if cfg.fmt == "json":
        doc = {"schema_version": SCHEMA_VERSION, "model": model.model_id,
               "params": model.params,
               "columns": ["rho", "v", "re_D", "im_D", "kernel_dim", "g_tt"],
               "rows": [row for chunk in chunks for row in _json_rows(*chunk)]}
        _write_text(cfg.out, json.dumps(doc, indent=2, allow_nan=False) + "\n")
        return EXIT_OK
    head = (f"# whergo sweep schema_version={SCHEMA_VERSION}\n"
            f"# model={model.model_id} params={json.dumps(model.params, sort_keys=True)}\n"
            f"# branches={','.join(cfg.branches or model.default_branches)}\n"
            "rho,v,re_D,im_D,kernel_dim,g_tt\n")
    v_cells = [_fmt(v) for v in chunks[0][1].tolist()]     # one v grid for every chunk
    texts = [_csv_chunk([_fmt(r) for r in rho_vals.tolist()], v_cells, cols)
             for rho_vals, _, cols in chunks]
    _write_text(cfg.out, head, *texts)
    return EXIT_OK


def cmd_curve(cfg: RunConfig) -> int:
    cfg.validate()
    model = build_model(cfg)
    lo_r, hi_r, n_r = cfg.grid["rho"]
    lo_v, hi_v, n_v = cfg.grid["v"]
    try:
        poly = trace_curve(model, cfg.branches, box=(lo_r, hi_r, lo_v, hi_v),
                           grid=(int(n_r), int(n_v)), step=cfg.step)
    except NoCurveFound as exc:
        print(f"no curve: {exc}", file=sys.stderr)
        return EXIT_NONCANONICAL
    poly = classify_curve(model, poly, cfg.branches, tol=cfg.tolerance())
    lines = [f"# whergo curve schema_version={SCHEMA_VERSION}",
             f"# model={model.model_id} params={json.dumps(model.params, sort_keys=True)}",
             f"# branches={','.join(cfg.branches or model.default_branches)}",
             f"# tag={poly.tag}",
             "rho,v,absD"]
    for (r, v), res in zip(poly.samples, poly.residuals):
        lines.append(f"{_fmt(r)},{_fmt(v)},{_fmt(res)}")
    _write_text(cfg.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_catalog(cfg: RunConfig) -> int:
    entries = [
        ("kerr", "2x2 non-extremal Kerr; params m > a >= 0"),
        ("mp5d", "3x3 Myers-Perry (one angular momentum); 2m - a^2 > 0;"
                 " failure curve = ergosurface"),
        ("mvc5d", "3x3 Myers-Perry variant; 2m - a^2 > 0;"
                  " failure curve is not the ergosurface"),
        ("identity", "2x2 identity (trivial factorisation)"),
    ]
    for name, desc in entries:
        print(f"{name:10s} {desc}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, suites=None) -> int:
    from .verify import run_suites

    if cfg.model_json:
        build_model(cfg)  # surfaces InvariantViolation/SchemaError as exit 1
    results = run_suites(suites)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  max_residual={r.residual:.3e}  tol={r.tol:.1e}")
        failed = failed or not r.passed
    if cfg.out:
        doc = {"schema_version": SCHEMA_VERSION,
               "suites": [{"name": r.name, "passed": r.passed,
                           "max_residual": r.residual, "tol": r.tol} for r in results]}
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return EXIT_ERROR if failed else EXIT_OK


def _parse_grid(text: str) -> dict:
    try:
        part_r, part_v = text.split(",")
        lo_r, hi_r, n_r = part_r.split(":")
        lo_v, hi_v, n_v = part_v.split(":")
        return {"rho": [float(lo_r), float(hi_r), int(n_r)],
                "v": [float(lo_v), float(hi_v), int(n_v)]}
    except ValueError as exc:
        raise ValueError(f"bad --grid spec {text!r}; expected rmin:rmax:n,vmin:vmax:n") from exc


def _is_grid(x) -> bool:
    return isinstance(x, dict) and all(
        isinstance(x.get(key), list) and len(x[key]) == 3 and all(map(_is_number, x[key]))
        and float(x[key][2]).is_integer() for key in ("rho", "v"))


# every config-file field: (its type test, what the error says it must be)
_CONFIG_TYPES = {
    "model": (lambda x: isinstance(x, str), "a string"),
    "model_json": (lambda x: x is None or isinstance(x, str), "a string or null"),
    "params": (lambda x: isinstance(x, dict) and set(x) <= {"m", "a"}
               and all(map(_is_number, x.values())), 'an object {"m": number, "a": number}'),
    "branches": (lambda x: x is None or isinstance(x, list) and all(
        isinstance(b, str) for b in x), "a list of strings or null"),
    "grid": (_is_grid, '{"rho": [min, max, n], "v": [min, max, n]} with whole n'),
    "tol": (lambda x: x is None or _is_number(x), "a number or null"),
    "out": (lambda x: x is None or isinstance(x, str), "a string or null"),
    "fmt": (lambda x: x in ("csv", "json"), '"csv" or "json"'),
    "jobs": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "step": (_is_number, "a number"),
}


def _load_config(path) -> dict:
    """The fields of a JSON config file; ValueError naming the first that
    is unknown or not of its type."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(_CONFIG_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        ok, what = _CONFIG_TYPES[key]
        if not ok(value):
            raise ValueError(f"config field {key!r} must be {what}, got {value!r}")
    return doc


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="whergo",
                                description="Canonical factorisation of rational "
                                            "monodromy matrices and failure-curve tools")
    p.add_argument("--version", action="version", version=f"whergo {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no prefix matching: `verify --model` must not be read as --model-json
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def model_flags(sp):
        sp.add_argument("--config", help="JSON config file; flags override its fields")
        sp.add_argument("--model", help="catalog model id (kerr, mp5d, mvc5d, identity)")
        sp.add_argument("--model-json", help="path to a JSON model file")
        sp.add_argument("--m", type=float, help="mass parameter")
        sp.add_argument("--a", type=float, help="rotation parameter")
        sp.add_argument("--branches", help="comma-separated pair branches, e.g. minus,minus")
        sp.add_argument("--tol", type=float, help="rank tolerance in (0, 1): a kernel where "
                                                  "sigma_min/sigma_max of the equilibrated "
                                                  "system is at most tol "
                                                  "(default 1e-9)")
        sp.add_argument("--out", help="output file (default stdout)")

    sp = command("factorize", "factorise at one Weyl point")
    model_flags(sp)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)

    sp = command("sweep", "D/kernel/g_tt over a Weyl grid (CSV)")
    model_flags(sp)
    sp.add_argument("--grid", help="rmin:rmax:n,vmin:vmax:n")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
    sp.add_argument("--jobs", type=int, help="worker processes (at least 1)")

    sp = command("curve", "trace the D = 0 locus (CSV polyline)")
    model_flags(sp)
    sp.add_argument("--grid", help="scan grid rmin:rmax:n,vmin:vmax:n")
    sp.add_argument("--step", type=float, help="maximum polyline spacing")

    sp = command("verify", "run the invariant/oracle suites")
    sp.add_argument("--config", help="JSON config file; flags override its fields")
    sp.add_argument("--model-json", help="path to a JSON model file to check on load")
    sp.add_argument("--out", help="JSON report file")
    sp.add_argument("--suite", action="append", help="run a single named suite")

    command("catalog", "list built-in models")
    return p


def _config_from_args(args) -> RunConfig:
    """The config file's fields with every given flag (not None, not "") in place."""
    given = {k: x for k, x in vars(args).items() if x is not None and x != ""}
    doc = _load_config(given["config"]) if "config" in given else {}
    params = {k: given[k] for k in ("m", "a") if k in given}
    if params:
        doc["params"] = {**doc.get("params", DEFAULT_PARAMS), **params}
    if "branches" in given:
        doc["branches"] = given["branches"].split(",")
    if "grid" in given:
        doc["grid"] = _parse_grid(given["grid"])
    doc.update((k, given[k]) for k in ("model", "model_json", "tol", "out", "fmt", "jobs", "step")
               if k in given)
    return RunConfig(**doc)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        # overflow and NaN at extreme points end in UNRESOLVED or a blank
        # cell, never in an answer, so numpy's warnings about them are noise
        with np.errstate(all="ignore"):
            if args.command == "factorize":
                return cmd_factorize(cfg, args.rho, args.v)
            if args.command == "sweep":
                return cmd_sweep(cfg)
            if args.command == "curve":
                return cmd_curve(cfg)
            if args.command == "verify":
                return cmd_verify(cfg, getattr(args, "suite", None))
            if args.command == "catalog":
                return cmd_catalog(cfg)
        raise ValueError(f"unknown command {args.command}")
    except (WhergoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
