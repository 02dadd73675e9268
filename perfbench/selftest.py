"""Self-test of the benchmark's failure rule on synthetic outcomes.

    python3 perfbench/selftest.py

Exits 1 and names the check when a wrong answer would be counted as
correct, or a right one as failed.  Needs numpy and mpmath, not whergo, so
it never depends on how whergo behaves at any point.  run.py runs it before
every benchmark run.
"""
import os
import sys

import numpy as np
from mpmath import mpf

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    EXTERIOR_RAISE_CAP,
    CurveOutcome,
    PointOracle,
    PointOutcome,
    SweepRow,
    Tally,
    curve_failures,
    mp5d_solution,
    mvc_solution,
    point_failures,
    point_oracle,
    sweep_row_failures,
)
from worker import tail  # noqa: E402

PROBLEMS = []


def check(ok, label):
    if not ok:
        PROBLEMS.append(label)


def main() -> int:
    # the copied closed forms: det M = 1 and eta-symmetry eta M^T eta = M
    # with eta = diag(1, -1, 1), at an exterior point, to mpmath precision
    eta = np.diag([1, -1, 1]).astype(object)
    for name, fn in (("mp5d", mp5d_solution), ("mvc5d", mvc_solution)):
        M = fn(mpf("1.3"), mpf("0.4"))
        det = (M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
               - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
               + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0]))
        check(abs(det - 1) < 1e-30, f"{name} closed form: det M = {det}")
        sym = eta.dot(M.T).dot(eta) - M
        check(max(abs(x) for x in sym.flat) < 1e-30, f"{name} closed form not eta-symmetric")

    oracle = point_oracle("mvc5d", 1.3, 0.4, on_curve=False)
    healthy = PointOutcome("canonical", 0, 1e-13, 1e-15, oracle.M.copy(), oracle.gtt)
    check(point_failures(oracle, healthy) == [], "healthy canonical outcome counted as failed")
    bad_residual = PointOutcome("canonical", 0, 1.0, 1e-15, oracle.M.copy(), oracle.gtt)
    check(point_failures(oracle, bad_residual) != [], "CANONICAL with residual 1.0 passed")
    bad_x0 = PointOutcome("canonical", 0, 1e-13, 1.0, oracle.M.copy(), oracle.gtt)
    check(point_failures(oracle, bad_x0) != [], "CANONICAL with |X(0)-I| = 1 passed")
    bad_m = PointOutcome("canonical", 0, 1e-13, 1e-15, oracle.M * (1 + 1e-6), oracle.gtt)
    check(point_failures(oracle, bad_m) != [], "M_limit off by 1e-6 passed")
    bad_gtt = PointOutcome("canonical", 0, 1e-13, 1e-15, oracle.M.copy(), oracle.gtt + 1e-3)
    check(point_failures(oracle, bad_gtt) != [], "g_tt off by 1e-3 passed")
    false_degenerate = PointOutcome("degenerate", 0)
    check(point_failures(oracle, false_degenerate) != [], "false DEGENERATE passed")
    raised = PointOutcome(None, error="ArithmeticError: limit cross-check failed")
    check(point_failures(oracle, raised) != [], "an exception passed")

    kerr = point_oracle("kerr", 3.0, 0.2, on_curve=False)
    M = np.array([[0.0, 0.0], [0.0, 1.0 / kerr.delta]])
    check(point_failures(kerr, PointOutcome("canonical", 0, 1e-13, 1e-15, M, kerr.gtt)) == [],
          "healthy Kerr outcome counted as failed")
    M_bad = np.array([[0.0, 0.0], [0.0, 1.01 / kerr.delta]])
    check(point_failures(kerr, PointOutcome("canonical", 0, 1e-13, 1e-15, M_bad, kerr.gtt)) != [],
          "Kerr Delta off by 1 % passed")

    on_curve = PointOracle(canonical=False)
    check(point_failures(on_curve, PointOutcome("degenerate", 1)) == [],
          "on-curve DEGENERATE with kernel 1 counted as failed")
    check(point_failures(on_curve, PointOutcome("non-canonical", 1)) == [],
          "on-curve NON_CANONICAL with kernel 1 counted as failed")
    check(point_failures(on_curve, PointOutcome("degenerate", 0)) != [],
          "on-curve kernel_dim 0 passed")
    check(point_failures(on_curve, healthy) != [], "CANONICAL on the curve passed")

    check(curve_failures("ergosurface", CurveOutcome(2e-5, "ergosurface")) == [],
          "healthy curve counted as failed")
    check(curve_failures("ergosurface", CurveOutcome(2e-5, "factorisation-failure")) != [],
          "curve with the wrong tag passed")
    check(curve_failures("ergosurface", CurveOutcome(1e-3, "ergosurface")) != [],
          "curve 1e-3 off its closed form passed")
    check(curve_failures(None, CurveOutcome(2e-5, "ergosurface")) == [],
          "untagged curve job checked its tag")

    check(sweep_row_failures(-0.5, SweepRow(1.0, 0.0, 0, -0.5)) == [],
          "healthy sweep row counted as failed")
    check(sweep_row_failures(-0.5, SweepRow(1.0, 0.0, 0, None)) != [], "blank g_tt row passed")
    check(sweep_row_failures(-0.5, SweepRow(1.0, 0.0, 0, -0.49)) != [], "wrong g_tt row passed")

    tally = Tally()
    for _ in range(3):                # repeated rounds count each operation once
        tally.record("a", [])
        tally.record("b", ["wrong"])
        tally.record("c", ["wrong"], gated=True)
    check((tally.attempted, tally.failed, len(tally.gated_failures)) == (3, 2, 1),
          f"tally counts {tally.attempted}/{tally.failed}/{len(tally.gated_failures)}")

    # a wrong answer at an exterior or on-curve point is gated, one at a
    # near-curve or wide-range point counted only
    tally = Tally()
    tally.record_points([(("kerr", "exterior", 1), "exterior", ["g_tt off"], False),
                         (("kerr", "on", 2), "on", ["kernel_dim 0 on the curve"], False),
                         (("kerr", "near", 3), "near", ["g_tt off"], False),
                         (("kerr", "wide", 4), "wide", ["raised ValueError"], True)])
    check(tally.failed == 4 and tally.gated_failures == {("kerr", "exterior", 1),
                                                         ("kerr", "on", 2)},
          f"point gating: {tally.failed} failed, gated {tally.gated_failures}")

    # raises at exterior points are counted, and gated beyond the cap
    def exterior_raises(count):
        tally = Tally()
        tally.record_points((("mp5d", "exterior", i), "exterior",
                             ["raised ArithmeticError"] if i < count else [], i < count)
                            for i in range(100))
        return tally.failed, bool(tally.gated_failures)

    allowed = int(EXTERIOR_RAISE_CAP * 100)
    check(exterior_raises(allowed) == (allowed, False),
          f"{allowed} exterior raises in 100 made the run incorrect")
    check(exterior_raises(allowed + 1) == (allowed + 1, True),
          f"{allowed + 1} exterior raises in 100 left the run correct")

    value, pct, n = tail([float(i) for i in range(100)])
    check((value, pct, n) == (89.0, 90.0, 100), f"tail of 0..99 is {value}, p{pct}, n={n}")

    for label in PROBLEMS:
        print(f"selftest FAILED: {label}", file=sys.stderr)
    print(f"selftest: {'FAILED' if PROBLEMS else 'ok'}")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
