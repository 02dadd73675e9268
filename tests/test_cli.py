import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import kerr_delta_closed_form
from whergo.cli import main

RUN = lambda *argv: main(list(argv))  # noqa: E731


def run_capture(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factorize_off_curve(capsys):
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--m", "2", "--a", "1", "--rho", "3", "--v", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "canonical"
    assert doc["kernel_dim"] == 0
    assert doc["schema_version"] == 1
    assert doc["metric"]["Delta"] == pytest.approx(1.0 / doc["M_limit"][1][1])
    assert doc["residuals"]["factorisation"] <= 1e-9


def test_factorize_on_curve_exit_3(capsys):
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--m", "2", "--a", "1", "--rho", "1", "--v", "0")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "degenerate"
    assert doc["kernel_dim"] == 1
    assert "M_limit" not in doc


def test_factorize_far_out_is_unresolved_exit_3(capsys):
    # the system overflows at v = 1e160: an undecided point, not an SVD error
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--m", "2", "--a", "1", "--rho", "1", "--v", "1e160")
    assert code == 3
    assert json.loads(out)["status"] == "unresolved"


@pytest.mark.parametrize("rho, v", [("1e-300", "0"), ("1", "1e300")])
def test_extreme_points_print_no_warnings(capfd, rho, v):
    # overflow and NaN at the extremes end in UNRESOLVED, exit 3, and numpy
    # says nothing about them (pytest would turn its RuntimeWarning into an error)
    code = RUN("factorize", "--rho", rho, "--v", v)
    out, err = capfd.readouterr()
    assert code == 3 and json.loads(out)["status"] == "unresolved" and err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_extreme_sweep_prints_no_warnings(capfd, monkeypatch, pool_sizes, jobs):
    # two chunks of one rho row: with --jobs 2 the workers run them, and
    # they too print no warning; every g_tt cell is blank
    import whergo.cli as cli

    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 2)
    code = RUN("sweep", "--model", "mp5d", "--grid", "1e-300:2e-300:2,1e300:2e300:2",
               "--jobs", jobs)
    out, err = capfd.readouterr()
    rows = out.splitlines()[4:]
    assert code == 0 and err == "" and len(rows) == 4
    assert all(row.endswith(",") for row in rows)
    assert pool_sizes == ([2] if jobs == "2" else [])


def test_pool_job_sets_its_own_errstate(monkeypatch, mp5d):
    # a spawned worker does not inherit main's np.errstate: the job itself
    # keeps the extreme points quiet
    import whergo.cli as cli

    monkeypatch.setattr(cli, "_WORKER", (cli.RunConfig(model="mp5d"), mp5d))
    cols = cli._chunk_job((np.array([1e-300]), np.array([1e300, 2e300])))
    assert np.isnan(cols[3]).all()


def test_factorize_identity(capsys):
    code, out, _ = run_capture(capsys, "factorize", "--model", "identity",
                               "--rho", "1.3", "--v", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["M_limit"], np.eye(2))


def test_factorize_bad_model(capsys):
    code, _, err = run_capture(capsys, "factorize", "--model", "nope",
                               "--rho", "1", "--v", "0")
    assert code == 1
    assert "unknown model" in err


def test_sweep_deterministic(tmp_path):
    args = ["sweep", "--model", "kerr", "--grid", "0.5:3.5:8,-2:2:7"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert RUN(*args, "--out", str(p1)) == 0
    assert RUN(*args, "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_contains_kernel_transition(tmp_path):
    # 10x10 grid straddling the Kerr curve; (rho, v) = (1, 0) on the curve
    out = tmp_path / "sweep.csv"
    assert RUN("sweep", "--model", "kerr", "--grid", "0.2:2.0:10,-0.8:0.8:9",
               "--out", str(out)) == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    head, rows = lines[0], lines[1:]
    assert head == "rho,v,re_D,im_D,kernel_dim,g_tt"
    assert len(rows) == 90
    kdims = {int(r.split(",")[4]) for r in rows}
    assert 0 in kdims and 1 in kdims
    for r in rows:
        cols = r.split(",")
        if cols[4] != "0":
            assert cols[5] == ""   # blank g_tt at degenerate points


def _sweep_rows_of(path):
    rows = [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]
    return [r.split(",") for r in rows]


def _assert_sweep_matches_factorise(capsys, monkeypatch, model, argv, rows):
    # row by row the sweep must carry `whergo factorize`'s answer: its
    # kernel dimension, and the g_tt of its metric to 1e-10, blank exactly
    # where factorize reports none
    import whergo.cli as cli

    monkeypatch.setattr(cli, "build_model", lambda cfg: model)   # plan compiled once
    for cols in rows:
        code, out, _ = run_capture(capsys, "factorize", *argv, "--rho", cols[0], "--v", cols[1])
        doc = json.loads(out)
        assert doc["kernel_dim"] == int(cols[4]), cols
        expect = doc.get("metric", {}).get("g_tt")
        assert (expect is None) == (cols[5] == ""), (cols, doc["status"])
        if expect is not None:
            assert abs(float(cols[5]) - expect) <= 1e-10 * max(abs(expect), 1e-3), cols


@pytest.mark.parametrize("branches", [None, "plus,minus", "minus,plus", "plus,plus"])
def test_sweep_agrees_with_factorise(tmp_path, capsys, monkeypatch, kerr, branches):
    out = tmp_path / "sweep.csv"
    argv = ["--model", "kerr"] + (["--branches", branches] if branches else [])
    assert RUN("sweep", *argv, "--grid", "0.2:2.0:10,-0.8:0.8:9", "--out", str(out)) == 0
    rows = _sweep_rows_of(out)
    assert len(rows) == 90
    if branches is None:        # the grid crosses the ergosurface
        assert any(c[5] and float(c[5]) > 0 for c in rows)
    _assert_sweep_matches_factorise(capsys, monkeypatch, kerr, argv, rows)


@pytest.mark.parametrize("name, grid, first_row_kernels", [
    ("mp5d", "0.3:2.0:7,-1.0:1.0:9", None),
    # the first rho row runs through the mvc5d failure curve at v = 0
    ("mvc5d", f"{0.75 / 3.0 ** 0.5!r}:1.2:4,-0.4:0.4:5", [0, 0, 1, 0, 0]),
    # 8 of these 20 points lie inside the mvc5d failure curve, where M11 < 0
    ("mvc5d", "0.05:0.9:4,-0.6:0.6:5", None)], ids=["mp5d", "mvc5d", "mvc5d-inside"])
def test_sweep_agrees_with_factorise_5d(tmp_path, capsys, monkeypatch, mp5d, mvc5d, name, grid,
                                        first_row_kernels):
    out = tmp_path / "sweep.csv"
    assert RUN("sweep", "--model", name, "--grid", grid, "--out", str(out)) == 0
    rows = _sweep_rows_of(out)
    _assert_sweep_matches_factorise(capsys, monkeypatch, {"mp5d": mp5d, "mvc5d": mvc5d}[name],
                                    ["--model", name], rows)
    if first_row_kernels:
        assert [int(c[4]) for c in rows[:5]] == first_row_kernels
    # every canonical row carries g_tt, on either side of the failure curve
    assert all(c[5] != "" for c in rows if c[4] == "0")


def test_factorize_reports_the_metric_inside_the_ergoregion(capsys):
    # Kerr (m = 2, a = 1) at (0.3, 0) lies inside the ergoregion: M22 < 0,
    # and g_tt > 0 is the Boyer-Lindquist value there
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--rho", "0.3", "--v", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["M_limit"][1][1] < 0
    expect = -kerr_delta_closed_form(0.3, 0.0)
    assert expect > 0
    assert abs(doc["metric"]["g_tt"] - expect) <= 1e-10 * abs(expect)


def test_sweep_jobs_byte_identical_over_chunks(tmp_path):
    # a Kerr grid of several chunks and more rho rows than jobs: the chunks
    # are fixed by the grid, so --jobs changes nothing in the output
    from whergo.cli import SWEEP_CHUNK_POINTS

    grid = f"0.3:3.0:5,-2.0:2.0:{SWEEP_CHUNK_POINTS // 2}"
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert RUN("sweep", "--model", "kerr", "--grid", grid, "--jobs", "1", "--out", str(p1)) == 0
    assert RUN("sweep", "--model", "kerr", "--grid", grid, "--jobs", "2", "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_after_warm_up_evaluates_the_plan_once_per_chunk(kerr, mvc5d, monkeypatch):
    # once the plan exists a sweep is batched: no per-point factorisation,
    # composition or polynomial product, and one plan evaluation for each
    # chunk of rho rows
    import whergo.cli as cli
    import whergo.engine as engine
    import whergo.poly as poly

    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 8)    # 4 x 4 grid: chunks of 2 rows
    for model in (kerr, mvc5d):
        cfg = cli.RunConfig(model=model.model_id, grid={"rho": [0.5, 2.0, 4], "v": [-1.0, 1.0, 4]})
        cli._sweep_chunks(cfg, model)
        calls = []
        real = engine._plan_spec
        with monkeypatch.context() as m:
            def forbidden(*args, **kwargs):
                raise AssertionError("per-point work in a batched sweep")
            for module, name in ((poly, "poly_mul"), (np, "roots"),
                                 (engine, "factorise"), (cli, "factorise")):
                m.setattr(module, name, forbidden)
            m.setattr(engine, "_plan_spec", lambda *a, **k: calls.append(1) or real(*a, **k))
            chunks = cli._sweep_chunks(cfg, model)
        assert sum(columns[0].size for *_, columns in chunks) == 16 and len(calls) == 2


def _per_row_sweep(cfg, model):
    """The sweep output as the per-row writer made it: one tuple per grid
    point over the same chunks, each value formatted on its own row; JSON
    with null for every non-finite number."""
    import whergo.cli as cli
    from whergo.engine import evaluate_points
    from whergo.geometry import extract_metric

    lo_r, hi_r, n_r = cfg.grid["rho"]
    lo_v, hi_v, n_v = cfg.grid["v"]
    rho_vals = np.linspace(lo_r, hi_r, int(n_r))
    v_vals = np.linspace(lo_v, hi_v, int(n_v))
    step = max(1, cli.SWEEP_CHUNK_POINTS // int(n_v))
    rows = []
    for i in range(0, int(n_r), step):
        R, V = (x.ravel() for x in np.meshgrid(rho_vals[i:i + step], v_vals, indexing="ij"))
        batch = evaluate_points(model, R, V, cfg.branches, cfg.tolerance())
        gtt = np.where(batch.canonical, extract_metric(batch.M_limit).g_tt, np.nan)
        dhat = batch.D_value / batch.D_scale
        rows += [(r, v, d.real, d.imag, k, None if math.isnan(g) else g)
                 for r, v, d, k, g in zip(R.tolist(), V.tolist(), dhat.tolist(),
                                          batch.kernel_dim.tolist(), gtt.tolist())]
    if cfg.fmt == "json":
        doc = {"schema_version": 1, "model": model.model_id, "params": model.params,
               "columns": ["rho", "v", "re_D", "im_D", "kernel_dim", "g_tt"],
               "rows": [[None if isinstance(x, float) and not math.isfinite(x) else x
                         for x in r] for r in rows]}
        return json.dumps(doc, indent=2) + "\n"
    fmt = lambda x: f"{x:.17g}"  # noqa: E731
    lines = ["# whergo sweep schema_version=1",
             f"# model={model.model_id} params={json.dumps(model.params, sort_keys=True)}",
             f"# branches={','.join(cfg.branches or model.default_branches)}",
             "rho,v,re_D,im_D,kernel_dim,g_tt"]
    for r in rows:
        gtt = "" if r[5] is None else fmt(r[5])
        lines.append(f"{fmt(r[0])},{fmt(r[1])},{fmt(r[2])},{fmt(r[3])},{r[4]},{gtt}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid, chunk_points, jobs", [
    ("0.5:1.5:3,-1:1:3", None, "1"),         # (1, 0) lies on the Kerr curve: blank g_tt
    ("0.5:1:2,1e159:1e160:2", None, "1"),    # far out: D-hat is not finite
    ("0.3:3.0:7,-2.0:2.0:4", 8, "1"),        # four chunks of up to two rho rows
    ("0.3:3.0:7,-2.0:2.0:4", 8, "2")], ids=["curve", "far", "chunks-jobs1", "chunks-jobs2"])
def test_sweep_output_is_the_per_row_writer_bytewise(tmp_path, capsys, monkeypatch, kerr,
                                                     grid, chunk_points, jobs, fmt):
    # the chunked writer formats columns, not rows: its CSV and JSON, to a
    # file and to stdout, are the per-row writer's byte for byte
    import whergo.cli as cli

    if chunk_points:
        monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", chunk_points)
    argv = ["sweep", "--model", "kerr", "--grid", grid, "--format", fmt, "--jobs", jobs]
    path = tmp_path / f"sweep.{fmt}"
    assert RUN(*argv, "--out", str(path)) == 0
    code, out, _ = run_capture(capsys, *argv)
    with np.errstate(all="ignore"):
        expect = _per_row_sweep(cli.RunConfig(grid=cli._parse_grid(grid), fmt=fmt), kerr)
    assert code == 0
    assert path.read_bytes() == expect.encode() and out == expect
    csv = fmt == "csv"
    if grid.startswith("0.5:1.5"):               # a degenerate row, g_tt blank
        assert (",1,\n" if csv else "1,\n      null\n") in expect
    if "e160" in grid:                           # re D-hat not finite
        assert (",nan," if csv else "1e+159,\n      null,") in expect


def test_failing_sweep_writes_nothing(tmp_path, capsys, monkeypatch):
    # the second of two chunks fails: no partial file is left behind
    import whergo.cli as cli
    from whergo.errors import NonSquareSystem

    real = cli._chunk_columns
    seen = []

    def second_fails(cfg, model, rho_vals, v_vals):
        seen.append(1)
        if len(seen) == 2:
            raise NonSquareSystem("second chunk")
        return real(cfg, model, rho_vals, v_vals)
    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 8)     # 4 x 4 grid: two chunks
    monkeypatch.setattr(cli, "_chunk_columns", second_fails)
    path = tmp_path / "sweep.csv"
    code, out, err = run_capture(capsys, "sweep", "--model", "kerr",
                                 "--grid", "0.5:2:4,-1:1:4", "--out", str(path))
    assert code == 1 and "second chunk" in err and len(seen) == 2
    assert not path.exists() and out == ""


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_json_writes_null_for_non_finite_numbers(capsys):
    # the system overflows at v ~ 1e160: D is NaN there, which strict JSON
    # cannot carry, so factorize and sweep write null
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--rho", "1", "--v", "1e160")
    doc = _strict_json(out)
    assert code == 3 and doc["D"][0] is None and doc["D_normalised"] is None
    code, out, _ = run_capture(capsys, "sweep", "--model", "kerr", "--format", "json",
                               "--grid", "0.5:1:2,1e159:1e160:2")
    rows = _strict_json(out)["rows"]
    assert code == 0 and len(rows) == 4 and all(r[2] is None for r in rows)


def test_sweep_row_major_order(tmp_path):
    out = tmp_path / "sweep.csv"
    assert RUN("sweep", "--model", "identity", "--grid", "1:2:2,0:1:2",
               "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
    got = [tuple(float(x) for x in r.split(",")[:2]) for r in rows]
    assert got == [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)]


def test_sweep_empty_grid_usage_error(capsys):
    code, _, err = run_capture(capsys, "sweep", "--model", "kerr",
                               "--grid", "1:2:1,0:1:5")
    assert code == 1
    assert "resolution" in err


def test_sweep_bad_grid_spec(capsys):
    code, _, err = run_capture(capsys, "sweep", "--model", "kerr", "--grid", "oops")
    assert code == 1
    assert "--grid" in err


@pytest.mark.parametrize("argv", [
    ["curve", "--model", "kerr", "--format", "json"],
    ["curve", "--model", "kerr", "--jobs", "2"],
    ["factorize", "--rho", "3", "--v", "0", "--jobs", "2"],
    ["factorize", "--rho", "3", "--v", "0", "--format", "json"],
    ["verify", "--tol", "2"],
    ["verify", "--model", "kerr"],    # not a prefix of --model-json
    ["verify", "--m", "2"],
    ["verify", "--a", "1"],
    ["sweep", "--model", "kerr", "--form", "json"],
    ["verify", "--branches", "plus,plus"],
    ["catalog", "--model", "kerr"],
    ["catalog", "--out", "catalog.txt"],
    ["catalog", "--config", "run.json"],
])
def test_subcommands_refuse_flags_they_do_not_read(capsys, argv):
    # a flag the subcommand would ignore is a malformed command line: exit 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    out = tmp_path / "s.csv"
    code, _, err = run_capture(capsys, "sweep", "--model", "kerr", "--grid", "2:3:2,0:1:2",
                               "--jobs", jobs, "--out", str(out))
    assert code == 1 and "jobs must be an integer >= 1" in err
    assert not out.exists()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"jobs": int(jobs)}))
    code, _, err = run_capture(capsys, "curve", "--config", str(cfg), "--model", "kerr")
    assert code == 1 and "jobs must be an integer >= 1" in err


def test_curve_kerr_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = RUN("curve", "--model", "kerr", "--grid", "0.05:1.6:60,-2:2:60",
               "--step", "0.05", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "# tag=ergosurface" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) > 30
    for r in rows[:10]:
        rho, v, absd = (float(x) for x in r.split(","))
        assert rho > 0 and absd <= 1e-8


def test_curve_none_found_exit_3(capsys):
    code, _, err = run_capture(capsys, "curve", "--model", "kerr", "--m", "2",
                               "--a", "0", "--grid", "0.3:3:25,-2:2:25")
    assert code == 3
    assert "no curve" in err


def test_curve_tag_reads_the_rank_tolerance(capsys):
    # --tol reaches the probes that tag the curve: at 0.5 no probe beside
    # the Kerr ergosurface is canonical, so no g_tt vouches for the tag
    grid = ("--grid", "0.05:2:30,-2:2:30")
    code, out, _ = run_capture(capsys, "curve", "--model", "kerr", *grid)
    assert code == 0 and "# tag=ergosurface" in out.splitlines()
    code, out, _ = run_capture(capsys, "curve", "--model", "kerr", *grid, "--tol", "0.5")
    assert code == 0 and "# tag=factorisation-failure" in out.splitlines()


def test_catalog_lists_models(capsys):
    code, out, _ = run_capture(capsys, "catalog")
    assert code == 0
    for name in ("kerr", "mp5d", "mvc5d", "identity"):
        assert name in out


def test_verify_single_suite(capsys):
    code, out, _ = run_capture(capsys, "verify", "--suite", "vieta")
    assert code == 0
    assert "vieta-pairs" in out and "pass" in out


def test_verify_bad_json_model_exit_1(tmp_path, capsys):
    doc = {"n": 2, "eta": [1, 1],
           "entries": [[{"num": [[1, 0]], "den": [[1, 0]]},
                        {"num": [[0, 0]], "den": [[1, 0]]}],
                       [{"num": [[0, 0]], "den": [[1, 0]]},
                        {"num": [[2, 0]], "den": [[1, 0]]}]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_capture(capsys, "verify", "--model-json", str(path),
                               "--suite", "vieta")
    assert code == 1
    assert "det" in err


def _identity_doc(n, cell=None):
    """The n x n identity as a model document, entry (0, 0) replaced by cell."""
    one, zero = {"num": [[1, 0]], "den": [[1, 0]]}, {"num": [[0, 0]], "den": [[1, 0]]}
    entries = [[one if i == j else zero for j in range(n)] for i in range(n)]
    if cell is not None:
        entries[0][0] = cell
    return {"n": n, "eta": [1] * n, "entries": entries}


@pytest.mark.parametrize("doc, why", [
    (_identity_doc(2, {"num": [[math.nan, 0]], "den": [[1, 0]]}), "finite"),
    (_identity_doc(2, {"num": [[1, 0]], "den": [[1, math.nan]]}), "finite"),
    (_identity_doc(2, {"num": [[math.inf, 0], [1, 0]], "den": [[1, 0]]}), "finite"),
    (_identity_doc(2, {"num": [[10 ** 400, 0]], "den": [[1, 0]]}), "double-range"),
    (_identity_doc(2, {"num": [[None, 0]], "den": [[1, 0]]}), "double-range"),
    (_identity_doc(4), "n must be 2 or 3")],
    ids=["nan-num", "nan-den", "inf", "huge-int", "null", "n4"])
@pytest.mark.parametrize("command", [["factorize", "--rho", "2", "--v", "0.5"],
                                     ["verify", "--suite", "vieta"]], ids=["factorize", "verify"])
def test_model_json_refuses_non_finite_coefficients_and_other_n(tmp_path, capsys, doc, why,
                                                                  command):
    # a NaN, infinite or non-numeric coefficient, or a size the engine has
    # no adjugate for, is a malformed model file: exit 1 with one error
    # line, no traceback
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))          # NaN and Infinity as Python's json writes them
    code, out, err = run_capture(capsys, *command, "--model-json", str(path))
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and why in err


def test_make_model_refuses_a_nan_determinant():
    # a NaN in M makes det M NaN, which must fail the det = 1 check
    from whergo.catalog import make_model
    from whergo.errors import InvariantViolation

    with pytest.raises(InvariantViolation, match="det"), np.errstate(invalid="ignore"):
        make_model([[([math.nan], [1.0]), ([0.0], [1.0])], [([0.0], [1.0]), ([1.0], [1.0])]])


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"model": "kerr", "params": {"m": 2.0, "a": 1.0},
           "grid": {"rho": [0.5, 2.0, 3], "v": [-1.0, 1.0, 3]}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.csv"
    code = RUN("sweep", "--config", str(path), "--out", str(out_path))
    assert code == 0
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 9
    # flag overrides the config grid
    code = RUN("sweep", "--config", str(path), "--grid", "0.5:2:2,-1:1:2",
               "--out", str(out_path))
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")][1:]
    assert code == 0 and len(rows) == 4


def test_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"modle": "kerr"}))
    code, _, err = run_capture(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert "unknown config keys" in err


@pytest.mark.parametrize("doc, field", [
    ({"grid": {"rho": [0.1, 1, 10]}}, "grid"),
    ({"grid": {"rho": [0.1, 1, 10], "v": [-1, 1, "10"]}}, "grid"),
    ({"tol": "0.1"}, "tol"),
    ({"step": "a"}, "step"),
    ({"params": {"m": "x"}}, "params"),
    ({"params": {"m": 10 ** 400}}, "params"),
    ({"params": {"mass": 5.0}}, "params"),          # read by no model: m stayed 2
    ({"branches": "minus,minus"}, "branches"),
    ({"jobs": 2.0}, "jobs"),
    ({"fmt": ["csv"]}, "fmt"),
])
def test_config_field_of_the_wrong_type_exits_1(tmp_path, capsys, doc, field):
    # a config field of another type is refused at load, with one error
    # line naming the field: no traceback, and no string split into tags
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_capture(capsys, "sweep", "--config", str(path),
                                 "--out", str(tmp_path / "s.csv"))
    assert code == 1 and out == "" and not (tmp_path / "s.csv").exists()
    assert len(err.splitlines()) == 1 and err.startswith(f"error: config field {field!r}")


def test_env_tolerance_is_ignored(monkeypatch, capsys):
    # --tol, else the config's tol, else 1e-9 sets the rank tolerance; the
    # environment does not (a tolerance of 0.5 would call this point degenerate)
    monkeypatch.setenv("WH_ERGO_TOL", "0.5")
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--rho", "3", "--v", "0")
    assert code == 0
    assert json.loads(out)["status"] == "canonical"


@pytest.mark.parametrize("command", [
    ["factorize", "--rho", "1", "--v", "0"],              # on the Kerr curve
    ["sweep", "--grid", "0.9:1.1:2,-0.1:0.1:2"],
    ["curve", "--grid", "0.5:1.5:6,-0.5:0.5:6"]], ids=["factorize", "sweep", "curve"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("tol", ["-1", "0", "1", "nan"])
def test_tolerance_outside_zero_one_exits_1(tmp_path, capsys, command, source, tol):
    # a rank tolerance must be a number in (0, 1), whichever way it is set;
    # factorize used to report the curve point canonical under --tol -1
    argv = command + ["--model", "kerr"]
    if source == "flag":
        argv.append(f"--tol={tol}")
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tol": float(tol)}))
        argv += ["--config", str(path)]
    code, out, err = run_capture(capsys, *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert "tolerance must be a number in (0, 1)" in err


def test_tol_sets_one_rank_tolerance_for_factorize_and_sweep(tmp_path, capsys):
    # 2e-5 beyond the Kerr curve at v = 0, where the equilibrated system's
    # sigma_min/sigma_max lies between 1e-6 and 1e-5: --tol 1e-5 finds a
    # kernel there, and both commands take the rank at that tolerance
    rho = "1.0000199998500034"
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr", "--tol", "1e-5",
                               "--rho", rho, "--v", "0")
    assert code == 3
    assert json.loads(out)["kernel_dim"] == 1
    path = tmp_path / "sweep.csv"
    assert RUN("sweep", "--model", "kerr", "--tol", "1e-5", "--grid", f"{rho}:1.1:2,0:1:2",
               "--out", str(path)) == 0
    first = _sweep_rows_of(path)[0]
    assert (first[0], first[1], first[4]) == (rho, "0", "1")


def test_branches_flag(capsys):
    code, out, _ = run_capture(capsys, "factorize", "--model", "kerr",
                               "--rho", "3", "--v", "0",
                               "--branches", "plus,plus")
    assert code == 0
    assert json.loads(out)["branches"] == ["plus", "plus"]


@pytest.mark.parametrize("model, branches, count", [
    ("kerr", "minus", 2), ("kerr", "minus,plus,plus", 2), ("mvc5d", "plus", 2),
    ("mp5d", "minus,minus,minus", 2), ("kerr", "minus,sideways", 2)])
def test_branches_need_one_tag_per_omega_pole(capsys, model, branches, count):
    # a wrong tuple is a usage error that names the expected count, not a
    # failed plan compile
    code, out, err = run_capture(capsys, "factorize", "--model", model,
                                 "--rho", "2", "--v", "0.5", "--branches", branches)
    assert code == 1 and out == ""
    assert f"one tag per omega pole of model {model} ({count} in all)" in err
    assert "reference point" not in err


def test_mp5d_at_a_zero_answers(capsys):
    # a = 0, the 5D Schwarzschild-Tangherlini limit: the poles -alpha and
    # alpha are distinct, and the point factorises
    code, out, err = run_capture(capsys, "factorize", "--model", "mp5d", "--m", "2", "--a", "0",
                                 "--rho", "2", "--v", "0.5")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["status"] == "canonical" and report["branches"] == ["minus", "minus"]


@pytest.mark.parametrize("model", ["kerr", "mp5d", "mvc5d"])
@pytest.mark.parametrize("name, shown", [("m", "inf"), ("a", "nan"), ("a", "-inf")])
def test_non_finite_model_parameters_exit_1(capsys, model, name, shown):
    # refused by the model's builder, naming the value, before any root is found
    code, out, err = run_capture(capsys, "factorize", "--model", model, f"--{name}={shown}",
                                 "--rho", "1", "--v", "0.5")
    assert code == 1 and out == ""
    assert err == f"error: model parameter {name} must be finite, got {name}={shown}\n"


@pytest.mark.parametrize("argv, bad", [
    (["factorize", "--rho", "1", "--v", "nan"], "(1.0, nan)"),
    (["factorize", "--rho", "inf", "--v", "0.5"], "(inf, 0.5)"),
    (["factorize", "--rho", "nan", "--v", "0.5"], "nan"),
    (["sweep", "--grid", "1:2:2,nan:1:2"], "v range bounds must be finite"),
    (["sweep", "--grid", "1:inf:2,0:1:2"], "rho range bounds must be finite"),
    (["curve", "--grid", "0.1:2:10,nan:2:10"], "v range bounds must be finite"),
    (["curve", "--grid", "0.05:2:10,-2:2:10", "--step", "0"], "step must be a finite number > 0"),
    (["curve", "--grid", "0.05:2:10,-2:2:10", "--step", "-1"], "step must be a finite number > 0"),
    (["curve", "--grid", "0.05:2:10,-2:2:10", "--step", "nan"], "step must be a finite number > 0"),
])
def test_invalid_points_and_steps_exit_1(capsys, argv, bad):
    # a point or grid bound that is not finite, or a step that is not a
    # positive number, is invalid input: exit 1 with a message naming it,
    # never a RuntimeWarning, an SVD failure or "no curve"
    code, out, err = run_capture(capsys, *argv, "--model", "kerr")
    assert code == 1 and out == ""
    assert bad in err


def _run_python(*argv):
    """`python *argv` in a child pointed at these sources: it does not
    inherit pytest's sys.path."""
    import whergo

    src = os.path.dirname(os.path.dirname(os.path.abspath(whergo.__file__)))
    path = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))


def _run_module(*argv):
    """`python -m *argv` in a child pointed at these sources."""
    return _run_python("-m", *argv)


def test_console_script_entrypoint():
    proc = _run_module("whergo.cli", "--version")
    assert proc.returncode == 0
    assert "whergo" in proc.stdout


def test_package_runs_as_module():
    proc = _run_module("whergo", "catalog")
    assert proc.returncode == 0
    assert proc.stdout.split()[0] == "kerr"


def test_building_models_and_running_the_cli_imports_no_numpy_random(tmp_path):
    # numpy.random costs more to import than a model costs to build,
    # numpy.polynomial some milliseconds of every process that builds mvc5d,
    # and numpy.ma (which np.unique loads on its first call) some of every
    # process that compiles a plan and traces a curve
    script = f"""
import sys
import whergo
from whergo import cli, geometry
models = [build(2.0, 1.0) for build in (whergo.model_kerr, whergo.model_mp5d, whergo.model_mvc5d)]
whergo.factorise(models[0], 2.5, 0.3)
assert cli.main(["sweep", "--model", "kerr", "--grid", "2:3:2,0:1:2",
                 "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
curve = geometry.trace_curve(models[1], box=(0.6, 0.74, -0.0759, 0.0641), grid=(5, 5),
                             step=0.015, residual_tol=1e-11)
geometry.classify_curve(models[1], curve)
print(*(name in sys.modules for name in ("numpy.random", "numpy.polynomial", "numpy.ma")))
"""
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert RUN("sweep", "--model", "identity", "--grid", "1:2:2,0:1:2",
               "--format", "json", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["columns"][:2] == ["rho", "v"]
    assert len(doc["rows"]) == 4


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The process count of every multiprocessing.Pool started, in order."""
    import multiprocessing

    sizes, real = [], multiprocessing.Pool
    monkeypatch.setattr(multiprocessing, "Pool",
                        lambda processes, *a, **k: sizes.append(processes) or real(processes, *a, **k))
    return sizes


def test_jobs_parallel_sweep_matches_serial(tmp_path, monkeypatch, pool_sizes):
    # two chunks of one rho row each, so that 3x3 rows cross a real pool
    import whergo.cli as cli

    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 2)
    args = ["sweep", "--model", "mvc5d", "--grid", "0.8:1.2:2,0:0.4:2"]
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert RUN(*args, "--jobs", "1", "--out", str(p1)) == 0
    assert RUN(*args, "--jobs", "2", "--out", str(p2)) == 0
    assert p1.read_text() == p2.read_text() and pool_sizes == [2]


def test_one_chunk_sweep_starts_no_pool(tmp_path, monkeypatch):
    # the CLI's default grid is one chunk: --jobs 4 evaluates it in process
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool for a one-chunk grid")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    p1, p4 = tmp_path / "s1.csv", tmp_path / "s4.csv"
    assert RUN("sweep", "--model", "kerr", "--jobs", "1", "--out", str(p1)) == 0
    assert RUN("sweep", "--model", "kerr", "--jobs", "4", "--out", str(p4)) == 0
    assert p1.read_bytes() == p4.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_jobs_above_the_chunk_count_start_one_worker_per_chunk(tmp_path, monkeypatch,
                                                               pool_sizes, fmt):
    # three chunks of two rho rows: --jobs 8 starts three workers, no idle one
    import whergo.cli as cli

    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 8)
    args = ["sweep", "--model", "mp5d", "--grid", "0.5:2.5:6,-1:1:4", "--format", fmt]
    p1, p8 = tmp_path / "s1", tmp_path / "s8"
    assert RUN(*args, "--jobs", "1", "--out", str(p1)) == 0
    assert RUN(*args, "--jobs", "8", "--out", str(p8)) == 0
    assert p1.read_bytes() == p8.read_bytes() and pool_sizes == [3]


def test_pool_workers_build_no_model_and_compile_no_plan(tmp_path, monkeypatch, pool_sizes):
    # the workers are handed the parent's model with its plan: building a
    # model or compiling a plan anywhere but in the parent fails the sweep
    import whergo.cli as cli
    import whergo.engine as engine

    parent = os.getpid()

    def parent_only(real):
        def guarded(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"{real.__name__} in a worker")
            return real(*args, **kwargs)
        return guarded
    monkeypatch.setattr(cli, "build_model", parent_only(cli.build_model))
    monkeypatch.setattr(engine, "_compile_plan", parent_only(engine._compile_plan))
    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 4)
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--model", "mvc5d", "--grid", "0.8:1.2:4,0:0.4:4"]
    assert RUN(*args, "--jobs", "1", "--out", str(p1)) == 0
    assert RUN(*args, "--jobs", "2", "--out", str(p2)) == 0
    assert p1.read_bytes() == p2.read_bytes() and pool_sizes == [2]


def test_sweep_without_a_plan_fails_before_any_pool(capsys, monkeypatch, pool_sizes):
    # no reference point serves Kerr at m = 200: the parent's compile fails,
    # and --jobs 2 exits as the serial sweep does, having started nothing
    import whergo.cli as cli

    monkeypatch.setattr(cli, "SWEEP_CHUNK_POINTS", 2)
    argv = ["sweep", "--model", "kerr", "--m", "200", "--a", "100", "--grid", "1:2:2,0:1:2"]
    serial = run_capture(capsys, *argv, "--jobs", "1")
    assert run_capture(capsys, *argv, "--jobs", "2") == serial
    assert serial[0] == 1 and "no usable reference point" in serial[2] and pool_sizes == []


def test_model_with_its_plan_survives_pickling(kerr, mp5d, mvc5d, monkeypatch):
    # a spawn pool pickles the parent's model once per worker: the copy
    # keeps the compiled plan and evaluates bitwise as the original does
    import pickle

    import whergo.engine as engine
    from whergo.engine import evaluate_points

    R, V = (x.ravel() for x in np.meshgrid([0.3, 0.9, 2.0], [-1.0, 0.1, 1.5], indexing="ij"))
    for model in (kerr, mp5d, mvc5d):
        ref = evaluate_points(model, R, V)
        copy = pickle.loads(pickle.dumps(model))
        with monkeypatch.context() as m:
            m.setattr(engine, "_compile_plan", lambda *a, **k: pytest.fail("plan recompiled"))
            got = evaluate_points(copy, R, V)
        assert copy is not model and list(copy.plans) == list(model.plans)
        for name in ("solution", "D_value", "D_scale", "consistent", "kernel_dim"):
            a, b = getattr(ref, name), getattr(got, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (model.model_id, name)


def test_sweep_3x3_with_degenerate_row(tmp_path):
    # the first grid point sits machine-exactly on the mvc failure curve
    # (v = 0, rho = alpha/sqrt(3)): blank g_tt and kernel_dim 1 there
    rho_star = 0.75 / np.sqrt(3.0)
    out = tmp_path / "mvc.csv"
    assert RUN("sweep", "--model", "mvc5d",
               "--grid", f"{rho_star:.17g}:0.6:2,0:0.1:2", "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 4
    cols = [r.split(",") for r in rows]
    on_curve = cols[0]            # (rho_star, 0)
    assert on_curve[5] == "" and int(on_curve[4]) == 1
    others = cols[1:]
    assert all(c[5] != "" and int(c[4]) == 0 for c in others)


def test_sweep_model_json(tmp_path, kerr):
    import json as _json

    from whergo.catalog import model_to_dict

    path = tmp_path / "kerr.json"
    path.write_text(_json.dumps(model_to_dict(kerr)))
    out = tmp_path / "sweep.csv"
    assert RUN("sweep", "--model-json", str(path), "--grid", "2:3:2,0:1:2",
               "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 4


def test_verify_unknown_suite(capsys):
    for suite in ("nope", "kerr-det", "compose"):
        code, _, err = run_capture(capsys, "verify", "--suite", suite)
        assert code == 1
        assert "unknown suites" in err
        assert ("available ['involution', 'models', 'residual', 'roundtrip', 'sigma', 'vieta']"
                in err)
