"""Spans around the calls into each whergo module, installed from outside.

`from .x import y` binds a separate name in every importing module, so each
layer lists every (module, attribute) pair the pipeline calls it through.
Wrappers replace those attributes while a traced round runs and are removed
afterwards, so untraced rounds run the unmodified code.  Spans stay in
memory; `write_spans` stores them when the run ends.

A target that does not exist (a helper deleted by a refactor) is skipped; a
layer with no target left is reported absent instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import time


def _points(res):
    arr = res[0] if isinstance(res, tuple) else res
    return {"points": int(arr.size)}


def _status(res):
    return {"status": res.status.value}


def _samples(res):
    return {"samples": len(res)}


E, G, C = "whergo.engine", "whergo.geometry", "whergo.cli"

# layer name -> ((module, attribute), ...), attribute recorder
LAYERS = {
    "catalog.compose_monodromy": (((E, "compose_monodromy"), (G, "compose_monodromy"),
                                   (C, "compose_monodromy")), None),
    "spectral.build_partition": (((E, "build_partition"), (G, "build_partition"),
                                  (C, "build_partition")), None),
    "engine.factorise": (((E, "factorise"), (C, "factorise")), _status),
    "engine.d_test": (((E, "_d_with_scale"), (G, "_d_with_scale")), None),
    "engine.grid_D_2x2": (((E, "grid_D_2x2"), (G, "grid_D_2x2")), _points),
    "engine.grid_delta_2x2": (((E, "grid_delta_2x2"), (C, "grid_delta_2x2")), _points),
    "engine.factor_build": (((E, "solve_factor_columns_2x2"), (E, "solve_factor_columns_generic"),
                             (E, "_solve_diagonal_2x2"), (E, "scalar_factorise"),
                             (E, "_symbolic_factors")), None),
    "engine.residual_report": (((E, "_residual_report"),), None),
    "engine.toeplitz_kernel_dim": (((E, "toeplitz_kernel_dim"), (C, "toeplitz_kernel_dim")), None),
    "engine.assemble_M": (((E, "assemble_M"),), None),
    "poly.dense_det": (((E, "dense_det"),), None),
    "poly.numerical_nullity": (((E, "numerical_nullity"),), None),
    "geometry.trace_curve": (((G, "trace_curve"), (C, "trace_curve")), _samples),
    "geometry.classify_curve": (((G, "classify_curve"), (C, "classify_curve")), None),
    "geometry.extract": (((G, "extract_4d"), (G, "extract_5d"),
                          (C, "extract_4d"), (C, "extract_5d")), None),
    "cli.map_points": (((C, "_map_points"),), None),
    "cli.sweep": (((C, "cmd_sweep"),), None),
}

# the tracer's normalised-D factory: wrapped only to count D evaluations
D_FACTORY = (G, "_d_hat_function")


class Tracer:
    """Records spans [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []
        self.d_evals = 0
        self.missing: list = []       # "module.attr" targets not found
        self.absent: list = []        # layers with no target found

    def _wrap(self, name, fn, recorder):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if recorder is not None:
                span[4] = recorder(res)
            return res
        return wrapper

    def _count_d(self, factory):
        tracer = self

        @functools.wraps(factory)
        def counted_factory(*args, **kwargs):
            f, fgrid = factory(*args, **kwargs)

            def f_counted(*a, **k):
                tracer.d_evals += 1
                return f(*a, **k)

            def fgrid_counted(R, V):
                out = fgrid(R, V)
                tracer.d_evals += int(out.size)
                return out
            return f_counted, fgrid_counted
        return counted_factory

    def install(self):
        missing, absent = [], []
        for layer, (targets, recorder) in LAYERS.items():
            found = 0
            for mod_name, attr in targets:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{mod_name}.{attr}")
                    continue
                found += 1
                self._installed.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(layer, fn, recorder))
            if not found:
                absent.append(layer)
        mod = importlib.import_module(D_FACTORY[0])
        factory = getattr(mod, D_FACTORY[1], None)
        if factory is None:
            missing.append(".".join(D_FACTORY))
            absent.append("geometry.trace_curve.d_evals")
        else:
            self._installed.append((mod, D_FACTORY[1], factory))
            setattr(mod, D_FACTORY[1], self._count_d(factory))
        self.missing, self.absent = missing, absent

    def uninstall(self):
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def layer_metrics(self, rounds: int, overhead_s: float) -> dict:
        """Per-layer metrics by name, per traced round (shares and ratios
        over all traced rounds): `<layer>.calls` and `<layer>.self_s` for
        every layer, plus the counts the layers record."""
        n = len(self.spans)
        child_time = [0.0] * n
        sweep_inner = [0.0] * n     # pool map and batched 2x2 solve inside a sweep
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name in ("cli.map_points", "engine.grid_delta_2x2"):
                    sweep_inner[parent] += t1 - t0
        calls, self_s, attrs = {}, {}, {}
        for i, (name, t0, t1, parent, at) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
            bucket = attrs.setdefault(name, {})
            for key, val in (at or {}).items():
                # string attributes are counted per value, numbers are summed
                k = (key, val) if isinstance(val, str) else key
                bucket[k] = bucket.get(k, 0) + (1 if isinstance(val, str) else val)
        fact_calls = calls.get("engine.factorise", 0)
        status = attrs.get("engine.factorise", {})
        classify_factorise = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "engine.factorise" and parent >= 0
            and self.spans[parent][0] == "geometry.classify_curve")
        sweep_other = sum(t1 - t0 - sweep_inner[i]
                          for i, (name, t0, t1, _, _) in enumerate(self.spans)
                          if name == "cli.sweep")
        map_points = sum(s[2] - s[1] for s in self.spans if s[0] == "cli.map_points")
        samples = attrs.get("geometry.trace_curve", {}).get("samples", 0)
        r = max(rounds, 1)
        raw = {
            "engine.factorise.canonical_share":
                status.get(("status", "canonical"), 0) / fact_calls if fact_calls else 0.0,
            "engine.factorise.degenerate_share":
                status.get(("status", "degenerate"), 0) / fact_calls if fact_calls else 0.0,
            "engine.grid_D_2x2.points": attrs.get("engine.grid_D_2x2", {}).get("points", 0) / r,
            "engine.grid_delta_2x2.points":
                attrs.get("engine.grid_delta_2x2", {}).get("points", 0) / r,
            "geometry.trace_curve.d_evals": self.d_evals / r,
            "geometry.trace_curve.samples": samples / r,
            "geometry.trace_curve.d_evals_per_sample": self.d_evals / samples if samples else 0.0,
            "geometry.classify_curve.factorise_calls": classify_factorise / r,
            "geometry.extract.nonphysical":
                attrs.get("geometry.extract", {}).get(("error", "NonPhysicalM"), 0) / r,
            "cli.map_points_s": map_points / r,
            "cli.sweep_other_s": sweep_other / r,
            "trace.overhead_s": overhead_s,
        }
        for layer in LAYERS:
            raw[f"{layer}.calls"] = calls.get(layer, 0) / r
            raw[f"{layer}.self_s"] = self_s.get(layer, 0.0) / r
        return raw

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, at in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "attrs": at}) + "\n")
