"""Closed-form oracles and the failure rule for every benchmark operation.

The formulas are those of tests/conftest.py (Kerr Delta, the mp5d solution
matrix, the mvc5d solution matrix) plus the Myers-Perry g_tt, evaluated in
mpmath at 40 digits so that the oracle stays exact at the wide-range points
(rho down to 1e-6, |v| up to 1e3) where float cancellation would otherwise
flag correct answers.  This module imports nothing from whergo, so the
failure rule can be checked on synthetic outcomes (see selftest.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf

mp.dps = 40

M_P, A_P = 2.0, 1.0
C_P = math.sqrt(M_P ** 2 - A_P ** 2)          # Kerr rod half-length
AL_P = (2.0 * M_P - A_P ** 2) / 4.0            # 5D rod parameter alpha

# acceptance bounds (ROADMAP guardrails)
RESIDUAL_TOL = 1e-9
X0_TOL = 1e-10
ORACLE_REL = 1e-8
HAUSDORFF_TOL = 1e-4


# ---------------------------------------------------------------------------
# closed forms, generic in the number type: mpmath scalars at the points,
# float64 arrays on sweep grids (which stay in the benign domain)
# ---------------------------------------------------------------------------


def _lift(x, like):
    """`x` in the number type of `like` (mpf or array), so that m, a and
    their square roots carry the oracle's full precision."""
    return x + 0 * like


def kerr_delta(rho, v, m=M_P, a=A_P):
    """Boyer-Lindquist Delta = 1/M22 of Kerr in Weyl coordinates."""
    m, a = _lift(m, rho), _lift(a, rho)
    c = (m * m - a * a) ** 0.5
    rp = (rho ** 2 + (v + c) ** 2) ** 0.5
    rm = (rho ** 2 + (v - c) ** 2) ** 0.5
    u = (rp + rm) / 2
    y = (rp - rm) / (2 * c)
    r = u + m
    return (r * r - 2 * m * r + a * a * y * y) / (r * r + a * a * y * y)


def mp5d_solution(rho, v, m=M_P, a=A_P) -> np.ndarray:
    m, a = _lift(m, rho), _lift(a, rho)
    al = (2 * m - a * a) / 4
    rp = (rho ** 2 + (v + al) ** 2) ** 0.5
    rm = (rho ** 2 + (v - al) ** 2) ** 0.5
    e2s2 = rp + v + al
    den = rp + rm * (1 - a * a / m) + 2 * al
    e2s3 = (rp + rm * (1 - a * a / m) - 2 * al) / den
    e2s1 = 1 / (e2s2 * e2s3)
    chi3 = a * (rp - rm + 2 * al) / den
    return np.array([[e2s1, 0, e2s1 * chi3],
                     [0, e2s2, 0],
                     [e2s1 * chi3, 0, e2s3 + e2s1 * chi3 ** 2]], dtype=object)


def mvc_solution(rho, v, m=M_P, a=A_P) -> np.ndarray:
    m, a = _lift(m, rho), _lift(a, rho)
    al = (2 * m - a * a) / 4
    ta = (v - al + ((v - al) ** 2 + rho ** 2) ** 0.5) / rho
    tma = (v + al + ((v + al) ** 2 + rho ** 2) ** 0.5) / rho
    tta, ttma = -1 / ta, -1 / tma
    D = (tma / rho) * (2 / (tma - ttma)
                       - (a * a / m) * (ta - tta) / ((ta - ttma) * (tma - tta)))
    A11 = (4 * tma * (ta - tta) / (m * rho ** 2 * (tma - ttma) * (ta - ttma) * D)
           * (2 * m / (ta - tta) - a * a / (tma - tta)))
    A31 = (-4 * a * tma / (rho ** 2 * (tma - tta) * D)
           * (1 / (tma - ttma) - 1 / (ta - ttma)))
    A13 = A31
    A33 = (1 / (m * rho * D)
           * ((2 * m / (tma - ttma)) * (ta - a * a * tma / (rho * (tma - tta)))
              - (a * a * tma / ((tma - tta) * (ta - ttma))) * (ta - tta - 2 * m / rho)))
    A12 = 1 + (m / 4) * A11 - (a / 2) * A31
    A32 = a / 2 + (m / 4) * A13 - (a / 2) * A33
    return np.array([
        [A11, A12, A13],
        [-1 - (m / 4) * A11 + (a / 2) * A31,
         m / 4 - (m / 4) * A12 + (a / 2) * A32,
         -a / 2 - (m / 4) * A13 + (a / 2) * A33],
        [A31, A32, A33]], dtype=object)


def mp_gtt(rho, v, m=M_P, a=A_P):
    """Myers-Perry g_tt = -(1 - 2m / (r^2 + a^2 cos^2 theta)) from Weyl (rho, v)."""
    m, a = _lift(m, rho), _lift(a, rho)
    al = (2 * m - a * a) / 4
    rp = (rho ** 2 + (v + al) ** 2) ** 0.5
    rm = (rho ** 2 + (v - al) ** 2) ** 0.5
    u = (rp + rm) / (2 * al)
    y = (rp - rm) / (2 * al)
    r2 = 2 * al * (u + 1)
    cos2 = (y + 1) / 2
    return -(1 - 2 * m / (r2 + a * a * cos2))


@dataclass(frozen=True)
class PointOracle:
    """What a correct factorisation at (rho, v) returns."""

    canonical: bool
    M: np.ndarray | None = None      # full solution matrix (5D models)
    delta: float | None = None       # Kerr Delta = 1/M22
    gtt: float | None = None


def point_oracle(model_id: str, rho: float, v: float, on_curve: bool) -> PointOracle:
    if on_curve:
        return PointOracle(canonical=False)
    rho, v = mpf(rho), mpf(v)
    if model_id == "kerr":
        d = float(kerr_delta(rho, v))
        return PointOracle(True, delta=d, gtt=-d)
    if model_id == "mp5d":
        M = mp5d_solution(rho, v)
        gtt = -(M[2, 2] - M[0, 2] ** 2 / M[0, 0])
        return PointOracle(True, M=M.astype(float), gtt=float(gtt))
    return PointOracle(True, M=mvc_solution(rho, v).astype(float), gtt=float(mp_gtt(rho, v)))


# ---------------------------------------------------------------------------
# failure rule
# ---------------------------------------------------------------------------


@dataclass
class PointOutcome:
    """What whergo answered at one point, in plain numbers."""

    status: str | None               # "canonical", "degenerate", ... ; None if raised
    kernel_dim: int | None = None
    residual: float | None = None    # factorisation residual
    x_at_zero: float | None = None
    M: np.ndarray | None = None      # M_limit (after assemble_M)
    gtt: float | None = None         # from extract_4d / extract_5d
    error: str | None = None         # exception type if anything raised


def point_failures(oracle: PointOracle, out: PointOutcome) -> list[str]:
    """Reasons why the answer is wrong; empty when it passes every gate."""
    if out.error is not None:
        return [f"raised {out.error}"]
    canonical = out.status == "canonical"
    if canonical != oracle.canonical:
        return [f"status {out.status} on the {'off' if oracle.canonical else 'on'}-curve side"]
    if not canonical:
        return [] if out.kernel_dim == 1 else [f"kernel_dim {out.kernel_dim} on the curve"]
    why = []
    if not out.residual <= RESIDUAL_TOL:
        why.append(f"factorisation residual {out.residual:.1e}")
    if not out.x_at_zero <= X0_TOL:
        why.append(f"|X(0)-I| {out.x_at_zero:.1e}")
    M = np.real(np.asarray(out.M))
    if oracle.M is not None:
        err = np.max(np.abs(M - oracle.M)) / np.max(np.abs(oracle.M))
        if not err <= ORACLE_REL:
            why.append(f"M_limit off by {err:.1e}")
    if oracle.delta is not None:
        err = abs(1.0 / M[1, 1] - oracle.delta) / abs(oracle.delta)
        if not err <= ORACLE_REL:
            why.append(f"Delta off by {err:.1e}")
    if not abs(out.gtt - oracle.gtt) <= ORACLE_REL * max(abs(oracle.gtt), 1e-3):
        why.append(f"g_tt {out.gtt:.6g} vs {oracle.gtt:.6g}")
    return why


@dataclass
class CurveOutcome:
    distance: float | None           # curve_match_distance to the closed form
    tag: str | None
    error: str | None = None


def curve_failures(expected_tag: str | None, out: CurveOutcome) -> list[str]:
    """`expected_tag` None: no oracle for the tag, only the locus is checked."""
    if out.error is not None:
        return [f"raised {out.error}"]
    why = []
    if not out.distance <= HAUSDORFF_TOL:
        why.append(f"Hausdorff {out.distance:.1e}")
    if expected_tag is not None and out.tag != expected_tag:
        why.append(f"tag {out.tag!r}, expected {expected_tag!r}")
    return why


@dataclass
class SweepRow:
    """One CSV row of `whergo sweep`: g_tt is None where the cell is blank."""

    rho: float
    v: float
    kernel_dim: int
    gtt: float | None


def sweep_row_failures(gtt_oracle: float, row: SweepRow) -> list[str]:
    """Grid points never sit on the curve, so every row must carry g_tt."""
    if row.gtt is None:
        return [f"blank g_tt, kernel_dim {row.kernel_dim}"]
    if not abs(row.gtt - gtt_oracle) <= ORACLE_REL * max(abs(gtt_oracle), 1e-3):
        return [f"g_tt {row.gtt:.6g} vs {gtt_oracle:.6g}"]
    return []


# point kinds inside the domain of the acceptance tests, where whergo's
# answers are gated; "near" and "wide" points are counted only
GATED_KINDS = ("exterior", "on")
# the share of exterior points that may raise before the run is incorrect
EXTERIOR_RAISE_CAP = 0.05


@dataclass
class Tally:
    """Distinct operations attempted and the failing ones, with reasons.

    Every wrong answer counts as failed.  A *gated* failure also makes the
    run incorrect: it breaks a guarantee that whergo's own acceptance tests
    pin in the same configuration (a wrong answer at an exterior or
    on-curve point, a traced curve off its closed form or with the wrong
    tag, a wrong Kerr sweep row, a sweep that is not reproducible or whose
    --jobs 2 output differs).  Near-curve and wide-range points and mvc5d
    sweep rows are counted only: whergo is known to answer some of them
    wrongly today.
    """

    seen: set = field(default_factory=set)
    failures: dict = field(default_factory=dict)
    gated_failures: set = field(default_factory=set)

    def record(self, key, reasons: list[str], gated: bool = False):
        """Count `key` once however many rounds repeat it; keep any failure."""
        self.seen.add(key)
        if reasons:
            self.failures.setdefault(key, reasons)
            if gated:
                self.gated_failures.add(key)

    def record_points(self, checked):
        """`checked`: (key, kind, reasons, raised) of each point of a stream.

        A wrong answer at a point of a GATED_KINDS kind is gated.  A raise at
        an exterior point is counted only, as long as at most
        EXTERIOR_RAISE_CAP of the exterior points raise: whergo's own
        assemble_M cross-check rejects a few of them today.
        """
        exterior = raises = 0
        for key, kind, reasons, raised in checked:
            self.record(key, reasons, gated=kind in GATED_KINDS
                        and not (kind == "exterior" and raised))
            if kind == "exterior":
                exterior += 1
                raises += bool(reasons) and raised
        if raises > EXTERIOR_RAISE_CAP * exterior:
            self.gated_failures.add(("exterior raises", raises, exterior))

    @property
    def attempted(self) -> int:
        return len(self.seen)

    @property
    def failed(self) -> int:
        return len(self.failures)
