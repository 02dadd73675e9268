"""Print one `name sha256` line per whergo output, to compare two trees.

A change meant to keep every output bit for bit is checked by running
this script against each tree and comparing the two outputs:

    PYTHONPATH=<parent>/src python tools/digest.py > parent.txt
    PYTHONPATH=src python tools/digest.py > change.txt
    diff parent.txt change.txt

The artefacts, all at m = 2, a = 1:
- factorise/<model>: `factorise` at the 300 draws (per model, one
  `default_rng(1)` draws 300 rho log-uniform over 1e-3..20, then 300 v
  uniform over -4..4): status, kernel_dim, the bytes of D and D_scale, and
  where canonical the M_limit bytes, the residual report and the factors'
  tables (numerators, denominator roots and their mask);
- assemble_M/<model>: `assemble_M` of every canonical answer, or the name
  of the error it raises;
- extract/<model>: `extract_metric` of the M_limit of every canonical
  answer: the bytes of every field, a marker for a field that is None, or
  the name of the NonPhysicalM it raises;
- evaluate_points/<model>: `evaluate_points` over the same draws as one
  batch;
- sweep/..., curve/...: the bytes the CLI writes; the curve/...-small
  lines trace the 5 x 5 scans of perfbench's trace5d boxes at seed 1;
- verify: the stdout of `whergo verify`;
- plan/<model>: the model's entries (numerators, denominators and their
  roots) and omega poles, and every array and table of its compiled plan
  for the given branches, the layout's `segments` tuple and the D layout
  (`d_layout`, the D rows alone) included, or the error (name and message)
  the compile raises.  Besides the four models above, mp5d, mvc5d and
  Kerr at m = 2 and a in {0.01, 0.5, 1.9}, and the JSON round trip of
  each built-in model at m = 2, a = 1.
The plan/ lines read the plan that whergo.engine._plan_for compiles: they
hash its fields, and those of its layouts, by name in declaration order, so
a change that removes a field moves every plan/ line.  To check such a
change, compare against a copy of the parent's digest whose `_update`
skips that field name; every other line must match as it is.  Every other
line uses numpy and whergo's public functions only.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import tempfile

import numpy as np

from whergo import assemble_M, extract_metric, factorise, model_kerr, model_mp5d, model_mvc5d
from whergo.catalog import model_from_dict, model_to_dict
from whergo.cli import main
from whergo.engine import _plan_for, evaluate_points
from whergo.errors import NonPhysicalM, WhergoError

MODELS = (
    ("kerr", model_kerr, None),
    ("kerr-plus-minus", model_kerr, ("plus", "minus")),
    ("mp5d", model_mp5d, None),
    ("mvc5d", model_mvc5d, None),
)

SWEEPS = (
    ("sweep/kerr", ["--model", "kerr", "--grid", "0.05:4:200,-4:4:200"]),
    ("sweep/kerr-plus-minus", ["--model", "kerr", "--branches", "plus,minus",
                               "--grid", "0.05:4:60,-4:4:60"]),
    ("sweep/mvc5d", ["--model", "mvc5d", "--grid", "0.02:0.9:10,-0.9:0.9:10"]),
    ("sweep/mp5d-json", ["--model", "mp5d", "--grid", "0.02:0.9:10,-0.9:0.9:10",
                         "--format", "json"]),
)

BOX_5D = "0.05:2.5:80,-2.5:2.5:80"
CURVES = (
    ("curve/kerr", ["--model", "kerr", "--grid", "0.02:4:200,-4:4:200", "--step", "0.01"]),
    ("curve/kerr-plus-minus", ["--model", "kerr", "--branches", "plus,minus",
                               "--grid", "0.05:3.6:160,-2.6:2.6:160", "--step", "0.01"]),
    ("curve/mp5d", ["--model", "mp5d", "--grid", BOX_5D, "--step", "0.015"]),
    ("curve/mvc5d", ["--model", "mvc5d", "--grid", BOX_5D, "--step", "0.015"]),
    # the seed-1 boxes of perfbench's trace5d workload, rounded: the small scans it times
    ("curve/mp5d-small", ["--model", "mp5d", "--grid", "0.6:0.74:5,-0.0759:0.0641:5",
                          "--step", "0.015"]),
    ("curve/mvc5d-small", ["--model", "mvc5d", "--grid", "0.3584:0.4984:5,-0.0327:0.1073:5",
                           "--step", "0.015"]),
)


BUILT_IN = (("kerr", model_kerr), ("mp5d", model_mp5d), ("mvc5d", model_mvc5d))


def draws():
    rng = np.random.default_rng(1)
    rho = 10.0 ** rng.uniform(-3.0, np.log10(20.0), 300)
    return rho, rng.uniform(-4.0, 4.0, 300)


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _factor_tables(f) -> bytes:
    return _bytes(f.nums, f.den_roots, f.den_on)


def _metric_bytes(M) -> bytes:
    """The fields of extract_metric(M) in order, b"None" for a field that
    is None, or the name of the NonPhysicalM it raises."""
    try:
        scalars = extract_metric(M)
    except NonPhysicalM as exc:
        return type(exc).__name__.encode()
    return b"".join(b"None" if value is None else np.float64(value).tobytes()
                    for value in dataclasses.astuple(scalars))


def point_digests(build, branches):
    """(factorise, assemble_M, extract, evaluate_points) digests of one
    model."""
    model = build(2.0, 1.0)
    rho, v = draws()
    fact, limit, metric = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for r, w in zip(rho, v):
        out = factorise(model, float(r), float(w), branches)
        fact.update(f"{out.status.value} {out.kernel_dim}".encode())
        fact.update(_bytes(np.complex128(out.D_value), np.float64(out.D_scale)))
        if not out.canonical:
            continue
        rep = out.residual_report
        fact.update(_bytes(out.M_limit, np.array([rep.factorisation, rep.x_at_zero,
                                                  rep.pole_cancellation])))
        fact.update(_bytes(np.array(rep.check_points, dtype=complex)))
        fact.update(_factor_tables(out.X) + _factor_tables(out.M_minus))
        try:
            limit.update(_bytes(assemble_M(out)))
        except ArithmeticError as exc:
            limit.update(type(exc).__name__.encode())
        metric.update(_metric_bytes(out.M_limit))
    batch = evaluate_points(model, rho, v, branches)
    whole = hashlib.sha256(_bytes(batch.D_value, batch.D_scale, batch.kernel_dim,
                                  batch.consistent, batch.solution))
    return fact.hexdigest(), limit.hexdigest(), metric.hexdigest(), whole.hexdigest()


def _update(h, value):
    """Feed a plan field to h: arrays with their dtype and shape, tuples
    and dataclasses item by item, anything else by its repr."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype} {value.shape}".encode() + _bytes(value))
    elif isinstance(value, tuple):
        h.update(f"tuple {len(value)}".encode())
        for item in value:
            _update(h, item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _update(h, getattr(value, f.name))
    else:
        h.update(repr(value).encode())


def plan_digest(model, branches) -> str:
    """The sha256 of the model's entries, denominator roots and omega poles
    and of its compiled plan for branches."""
    h = hashlib.sha256()
    for e in (e for row in model.entries for e in row):
        _update(h, (e.num, e.den, np.array(e.den_roots, dtype=complex)))
    _update(h, (np.array(model.omega_poles, dtype=complex), model.eta, model.default_branches))
    try:
        _update(h, _plan_for(model, branches))
    except WhergoError as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def cli_digest(command, argv, tmp):
    """The sha256 of the file that `whergo <command> ... --out` writes."""
    path = os.path.join(tmp, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, *argv, "--out", path])
    with open(path, "rb") as fh:
        return hashlib.sha256(f"exit {code}\n".encode() + fh.read()).hexdigest()


def main_digest():
    for name, build, branches in MODELS:
        fact, limit, metric, whole = point_digests(build, branches)
        print(f"factorise/{name} {fact}")
        print(f"assemble_M/{name} {limit}")
        print(f"extract/{name} {metric}")
        print(f"evaluate_points/{name} {whole}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in SWEEPS:
            print(f"{name} {cli_digest('sweep', argv, tmp)}")
        for name, argv in CURVES:
            print(f"{name} {cli_digest('curve', argv, tmp)}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    print(f"verify {hashlib.sha256(f'exit {code}'.encode() + out.getvalue().encode()).hexdigest()}")
    for name, build, branches in MODELS:
        print(f"plan/{name} {plan_digest(build(2.0, 1.0), branches)}")
    for name, build in BUILT_IN:
        for a in (0.01, 0.5, 1.9):
            print(f"plan/{name}-a{a} {plan_digest(build(2.0, a), None)}")
    for name, build in BUILT_IN:
        model = model_from_dict(model_to_dict(build(2.0, 1.0)))
        print(f"plan/{name}-json {plan_digest(model, None)}")


if __name__ == "__main__":
    main_digest()
