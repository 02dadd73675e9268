"""The four seeded workloads: inputs from the seed, one timed round, checks.

A round is the workload's fixed set of operations; the worker repeats it
for the run length.  Every operation is checked against its closed-form
oracle after it is timed, and the checks never run inside a timed region.

The host's speed drifts by up to a factor 2 for minutes at a time, in wall
and CPU time alike.  Each timed part of a round (the point stream, a curve,
a sweep) is therefore bracketed by calibrations: a fixed mix of small numpy
and Python work, close to whergo's own and independent of it, which takes
CALIB_REF_S on an undisturbed 2-core host.  A part's time multiplied by
CALIB_REF_S over the mean of its two calibrations is its time at that
reference speed.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from oracles import (
    AL_P,
    C_P,
    CurveOutcome,
    PointOutcome,
    SweepRow,
    curve_failures,
    kerr_delta,
    mp_gtt,
    point_failures,
    point_oracle,
    sweep_row_failures,
)

PARAMS = {"m": 2.0, "a": 1.0}
ORACLE_YS = np.linspace(-0.99, 0.99, 900)
CURVE_MARGIN = 0.05
CALIB_REF_S = 0.04
CALIB_REPS = 400


def calibrate() -> float:
    """Seconds for the fixed calibration mix at the host's current speed."""
    a = np.array([1.0 + 0j, 2.0, 3.0, 4.0])
    b = np.array([0.5, 1.5 + 1j, 2.0])
    t0 = time.perf_counter()
    for i in range(CALIB_REPS):
        c = np.convolve(a, b)
        np.polyval(c, 0.3 + 0.1j * i)
        roots = np.roots(c)
        m = np.outer(c, c)[:4, :4] + np.eye(4)
        np.linalg.det(m)
        np.linalg.solve(m, c[:4])
        squares = {k: k * k for k in range(30)}
        sum(squares.values())
        sorted(roots, key=abs)
    return time.perf_counter() - t0


class Clock:
    """Times the parts of a round, each between two calibrations."""

    def __init__(self):
        self.last = calibrate()

    def run(self, fn):
        """(fn(), seconds, scale to the reference speed)."""
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        after = calibrate()
        scale = CALIB_REF_S / (0.5 * (self.last + after))
        self.last = after
        return res, dt, scale


@dataclass
class Round:
    parts: dict                 # name -> (seconds in whergo calls, scale)
    points: int                 # Weyl points answered by `points_part`,
                                # fixed by the inputs
    points_part: str | None     # None: the whole round
    good_curves: tuple = ()     # parts that are curves which passed their gate
    latencies_ms: list = field(default_factory=list)    # scaled


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"[:160]


def _weyl(ctx, model_id: str, u: float, y: float) -> tuple[float, float]:
    """(rho, v) of the prolate point (u, y) in the model's chart."""
    if model_id.startswith("kerr"):
        return ctx.spectral.weyl_from_prolate_4d(u, y, C_P)
    return ctx.spectral.weyl_from_prolate_5d(u, y, AL_P)


# ---------------------------------------------------------------------------
# point: a stream of factorise calls
# ---------------------------------------------------------------------------

POINT_MODELS = ("kerr", "mp5d", "mvc5d")
# points per model and round
POINT_MIX = (("exterior", 40), ("near", 8), ("on", 8), ("wide", 4))
# wide-range probes where ROADMAP item 3 measured wrong answers; kept in
# every round so that the known defects always show in the failure count
KNOWN_DEFECTS = {"kerr": ((1e-3, 5.0), (0.5, 160.0)),
                 "mp5d": ((50.0, 0.0), (1000.0, 100.0)),
                 "mvc5d": ((1e-6, 0.3), (0.5, 1000.0))}


class PointWorkload:
    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        inputs = []
        for mid in POINT_MODELS:
            for kind, count in POINT_MIX:
                for k in range(count):
                    q = (k + rng.uniform()) / count     # stratified in [0, 1)
                    inputs.append((mid, kind) + self._draw(ctx, rng, mid, kind, q))
            inputs += [(mid, "wide", rho, v) for rho, v in KNOWN_DEFECTS[mid]]
        self.inputs = [inputs[i] for i in rng.permutation(len(inputs))]
        self.oracles = [point_oracle(mid, rho, v, kind == "on")
                        for mid, kind, rho, v in self.inputs]

    @staticmethod
    def _draw(ctx, rng, mid, kind, q):
        """One point of `kind`; the stratified `q` places the draws of a kind
        evenly over its range, so that every seed costs about the same."""
        if kind == "wide":          # rho in 1e-6..1e3, |v| in 1e-3..1e3, log-uniform
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            return 10.0 ** (-6.0 + 9.0 * q), sign * 10.0 ** rng.uniform(-3, 3)
        y = rng.uniform(-0.85, 0.85)
        u = ctx.geometry.ergosurface_closed_form(mid, PARAMS, y)
        if kind == "exterior":      # as tests/test_acceptance.py::off_curve_point
            u += rng.uniform(0.08, 2.08)
        elif kind == "near":        # 1e-4..1e-2 beyond the curve
            u += 10.0 ** (-4.0 + 2.0 * q)
        return _weyl(ctx, mid, u, y)

    def _answer(self, model, rho, v) -> PointOutcome:
        engine, geometry = self.ctx.engine, self.ctx.geometry
        try:
            out = engine.factorise(model, rho, v)
            if not out.canonical:
                return PointOutcome(out.status.value, out.kernel_dim)
            M = engine.assemble_M(out, check=True)
            extract = geometry.extract_4d if model.n == 2 else geometry.extract_5d
            gtt = extract(M).g_tt
            rep = out.residual_report
            return PointOutcome(out.status.value, out.kernel_dim, rep.factorisation,
                                rep.x_at_zero, M, gtt)
        except Exception as exc:    # a raise is a counted failure, not a crash
            return PointOutcome(None, error=_error(exc))

    def _stream(self):
        lat, outcomes = [], []
        for mid, _, rho, v in self.inputs:
            model = self.ctx.models[mid]
            t0 = time.perf_counter()
            outcomes.append(self._answer(model, rho, v))
            lat.append(time.perf_counter() - t0)
        return lat, outcomes

    def run_round(self, tally, clock) -> Round:
        (lat, outcomes), _, scale = clock.run(self._stream)
        tally.record_points((key, key[1], point_failures(oracle, out), out.error is not None)
                            for key, oracle, out in zip(self.inputs, self.oracles, outcomes))
        return Round({"calls": (sum(lat), scale)}, len(lat), "calls",
                     latencies_ms=[x * 1e3 * scale for x in lat])


# ---------------------------------------------------------------------------
# curves: trace_curve + classify_curve on seeded boxes around the locus
# ---------------------------------------------------------------------------


@dataclass
class CurveJob:
    model_id: str
    oracle_id: str              # closed-form curve (ergosurface_closed_form id)
    branches: tuple | None
    tag: str | None             # expected tag; None where no oracle exists
    box: tuple
    grid: tuple
    step: float
    residual_tol: float
    oracle: np.ndarray = None


def _curve_box(rng, ctx, oracle_id, half, y_jitter):
    """A box of half-width `half` centred near the closed-form locus."""
    y0 = rng.uniform(-y_jitter, y_jitter)
    u0 = ctx.geometry.ergosurface_closed_form(oracle_id, PARAMS, y0)
    rho0, v0 = _weyl(ctx, oracle_id, u0, y0)
    rho0 += rng.uniform(-0.01, 0.01)
    v0 += rng.uniform(-0.01, 0.01)
    return (max(0.02, rho0 - half), rho0 + half, v0 - half, v0 + half)


def _run_curve(ctx, job: CurveJob, clock):
    """((seconds, scale), outcome) of one traced and classified curve."""
    geometry = ctx.geometry
    model = ctx.models[job.model_id]

    def attempt():
        try:
            poly = geometry.trace_curve(model, branches=job.branches, box=job.box,
                                        grid=job.grid, step=job.step,
                                        residual_tol=job.residual_tol)
            return geometry.classify_curve(model, poly, job.branches)
        except Exception as exc:    # a raise is a counted failure, not a crash
            return exc

    poly, dt, scale = clock.run(attempt)
    if isinstance(poly, Exception):
        return (dt, scale), CurveOutcome(None, None, error=_error(poly))
    dist = geometry.curve_match_distance(poly.samples, job.oracle, job.box, margin=CURVE_MARGIN)
    return (dt, scale), CurveOutcome(dist, poly.tag)


def _curves_round(ctx, jobs, tally, clock) -> tuple[dict, tuple]:
    """({"curve:<i>": (seconds, scale)}, passing curve names)."""
    parts, good = {}, []
    for i, job in enumerate(jobs):
        timing, out = _run_curve(ctx, job, clock)
        why = curve_failures(job.tag, out)
        tally.record(("curve", job.model_id, job.branches, job.box), why, gated=True)
        parts[f"curve:{i}"] = timing
        if not why:
            good.append(f"curve:{i}")
    return parts, tuple(good)


def _with_oracle(ctx, job: CurveJob) -> CurveJob:
    job.oracle = ctx.geometry.closed_form_curve_weyl(job.oracle_id, PARAMS, ORACLE_YS)
    return job


class Trace5dWorkload:
    """Acceptance criteria 4 and 5 (step 0.015, residual_tol 1e-11, a scan
    spacing within theirs) on a 0.14 x 0.14 box around a seeded point of
    each 5D locus."""

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        self.jobs = [
            _with_oracle(ctx, CurveJob(mid, mid, None, tag,
                                       _curve_box(rng, ctx, mid, 0.07, 0.05),
                                       (5, 5), 0.015, 1e-11))
            for mid, tag in (("mp5d", "ergosurface"), ("mvc5d", "factorisation-failure"))]
        # closed-form curve points inside the boxes: fixed by the seed, not
        # by how densely the tracer samples the curve
        self.points = sum(int(np.sum((job.oracle[:, 0] >= job.box[0])
                                     & (job.oracle[:, 0] <= job.box[1])
                                     & (job.oracle[:, 1] >= job.box[2])
                                     & (job.oracle[:, 1] <= job.box[3])))
                          for job in self.jobs)

    def run_round(self, tally, clock) -> Round:
        parts, good = _curves_round(self.ctx, self.jobs, tally, clock)
        return Round(parts, self.points, None, good)


# ---------------------------------------------------------------------------
# sweeps through the CLI
# ---------------------------------------------------------------------------


SWEEP_HEADER_LINES = 4             # three comment lines and the column names


def _parse_sweep(text: str) -> list[SweepRow]:
    rows = []
    for line in text.splitlines()[SWEEP_HEADER_LINES:]:
        rho, v, _, _, kdim, gtt = line.split(",")
        rows.append(SweepRow(float(rho), float(v), int(kdim), float(gtt) if gtt else None))
    return rows


def _grid_spec(rng, rho_lo, rho_hi, v_abs, n, jitter):
    r0 = rho_lo + rng.uniform(0, jitter)
    r1 = rho_hi - rng.uniform(0, jitter)
    v1 = v_abs - rng.uniform(0, jitter)
    return f"{r0!r}:{r1!r}:{n},{-v1!r}:{v1!r}:{n}"


class Sweep:
    """One `whergo sweep` invocation through whergo.cli.main.

    Its first output is checked row by row: against the closed-form g_tt
    (a wrong row is gated if `rows_gated`), or for byte identity with a
    `reference` output of the same grid.  Every later output must equal the
    first.
    """

    def __init__(self, ctx, name, argv, gtt_oracle, rows_gated):
        self.ctx, self.name = ctx, name
        self.path = os.path.join(ctx.tmpdir, f"{name}.csv")
        self.argv = argv + ["--out", self.path]
        self.gtt_oracle = gtt_oracle
        self.rows_gated = rows_gated
        self.first = None

    def _main(self):
        try:
            return self.ctx.cli.main(self.argv)
        except Exception as exc:    # a raise is a counted failure, not a crash
            return _error(exc)

    def run(self, tally, clock, reference: str | None = None):
        """Returns ((seconds, scale), rows, text)."""
        code, dt, scale = clock.run(self._main)
        if code != 0:
            tally.record((self.name, "exit"), [f"exit {code}"], gated=True)
            return (dt, scale), 0, None
        with open(self.path, encoding="utf-8") as fh:
            text = fh.read()
        if self.first is None:
            self.first = text
            if reference is None:
                self._check_oracle(tally, _parse_sweep(text))
            else:
                self._check_identity(tally, text, reference)
        elif text != self.first:
            tally.record((self.name, "rerun"), ["rerun output differs"], gated=True)
        return (dt, scale), text.count("\n") - SWEEP_HEADER_LINES, text

    def _check_oracle(self, tally, rows):
        rho = np.array([r.rho for r in rows])
        v = np.array([r.v for r in rows])
        gtt = self.gtt_oracle(rho, v)
        for i, row in enumerate(rows):
            tally.record((self.name, i), sweep_row_failures(float(gtt[i]), row),
                         gated=self.rows_gated)

    def _check_identity(self, tally, text, reference):
        lines = text.splitlines()[SWEEP_HEADER_LINES:]
        ref = reference.splitlines()[SWEEP_HEADER_LINES:]
        if len(lines) != len(ref):
            tally.record((self.name, "rows"), [f"{len(lines)} rows, reference {len(ref)}"],
                         gated=True)
        for i, (line, ref_line) in enumerate(zip(lines, ref)):
            tally.record((self.name, i), [] if line == ref_line else ["differs from --jobs 1"],
                         gated=True)


class KerrGridWorkload:
    """The batched 2x2 path: a 200x200 Kerr sweep, the standard-contour trace
    (criterion 1 scan spacing, step 0.01) and the plus,minus contour trace
    (criterion 9) on seeded 0.6 x 0.6 boxes."""

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        spec = _grid_spec(rng, 0.05, 4.0, 4.0, 200, 0.02)
        self.sweep = Sweep(ctx, "kerr_sweep", ["sweep", "--model", "kerr", "--grid", spec],
                           lambda r, v: -kerr_delta(r, v), rows_gated=True)
        self.jobs = [
            _with_oracle(ctx, CurveJob("kerr", "kerr", None, "ergosurface",
                                       _curve_box(rng, ctx, "kerr", 0.3, 0.1),
                                       (30, 30), 0.01, 1e-8)),
            # no closed form says which tag the alternate contour's own
            # solution should carry, so only its locus is checked
            _with_oracle(ctx, CurveJob("kerr", "kerr-alt", ("plus", "minus"), None,
                                       _curve_box(rng, ctx, "kerr-alt", 0.3, 0.1),
                                       (30, 30), 0.01, 1e-8)),
        ]

    def run_round(self, tally, clock) -> Round:
        sweep, rows, _ = self.sweep.run(tally, clock)
        parts, good = _curves_round(self.ctx, self.jobs, tally, clock)
        return Round({"sweep": sweep, **parts}, rows, "sweep", good)


class Sweep5dWorkload:
    """mvc5d sweep over the criterion-5 box, serial and with two jobs; the
    two outputs must be byte-identical."""

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        spec = _grid_spec(rng, 0.02, 0.9, 0.9, 10, 0.02)
        jobs = min(2, os.cpu_count() or 1)
        base = ["sweep", "--model", "mvc5d", "--grid", spec, "--jobs"]
        # rows inside the mvc5d curve come back blank today: counted only
        self.serial = Sweep(ctx, "mvc5d_jobs1", base + ["1"], mp_gtt, rows_gated=False)
        self.parallel = Sweep(ctx, "mvc5d_jobs2", base + [str(jobs)], mp_gtt, rows_gated=False)

    def run_round(self, tally, clock) -> Round:
        serial, rows, text = self.serial.run(tally, clock)
        parallel, _, _ = self.parallel.run(tally, clock, reference=text)
        return Round({"jobs1": serial, "jobs2": parallel}, rows, "jobs2")


WORKLOADS = {
    "point": PointWorkload,
    "trace5d": Trace5dWorkload,
    "kerr_grid": KerrGridWorkload,
    "sweep5d": Sweep5dWorkload,
}
