"""Exact invariances of the physics as whole-range oracles.

Scaling by lambda leaves g_tt unchanged: Kerr (m, a, rho, v) ->
lambda (m, a, rho, v), and the 5D models (m, a, rho, v) ->
(lambda^2 m, lambda a, lambda^2 rho, lambda^2 v).  Reflection v -> -v
leaves Kerr and mvc5d alike in status and kernel dimension, and Kerr also
in g_tt (mvc5d's g_tt is not reflection-symmetric: its closed form gives
0.01071 at (0.1419, 0.6118) and 0.2591 at (0.1419, -0.6118)).  None of
this needs a closed form, so the draws cover rho log-uniform over
1e-2..20 and v over -4..4, not only the acceptance boxes.
"""
import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from whergo.catalog import model_kerr, model_mp5d, model_mvc5d
from whergo.engine import Status, evaluate_points, factorise
from whergo.geometry import extract_metric

M, A = 2.0, 1.0
BUILDERS = {"kerr": model_kerr, "mp5d": model_mp5d, "mvc5d": model_mvc5d}
BASE = {name: build(M, A) for name, build in BUILDERS.items()}
REFLECTS = ("kerr", "mvc5d")            # status and kernel_dim under v -> -v
GTT_REFLECTS = ("kerr",)                # g_tt under v -> -v as well


def _scaled(name, q):
    """(model, point map) at the scale fraction q in [0, 1]: Kerr lambda
    log-uniform over 1e-3..30, the 5D models lambda^2 over 0.1..10."""
    if name == "kerr":
        lam = 10.0 ** (-3.0 + q * math.log10(3e4))
        return model_kerr(lam * M, lam * A), lam
    lam2 = 10.0 ** (-1.0 + 2.0 * q)
    return BUILDERS[name](lam2 * M, math.sqrt(lam2) * A), lam2


def _gated(out) -> bool:
    """CANONICAL with factors that pass every residual gate of factorise."""
    if not out.canonical:
        return False
    r = out.residual_report
    return r.factorisation <= 1e-9 and r.x_at_zero <= 1e-10 and r.pole_cancellation <= 1e-9


def _same(a, b):
    assert (a.status, a.kernel_dim) == (b.status, b.kernel_dim)
    if _gated(a) and _gated(b):
        g_a, g_b = (extract_metric(o.M_limit).g_tt for o in (a, b))
        assert abs(g_a - g_b) <= 1e-8 * max(abs(g_a), 1e-3)


points = st.lists(st.tuples(st.floats(-2.0, math.log10(20.0)), st.floats(-4.0, 4.0)),
                  min_size=2, max_size=8)


@seed(20261019)
@settings(max_examples=12, deadline=None, database=None)
@given(q=st.floats(0.0, 1.0), draws=points)
def test_scaling_and_reflection_leave_the_answer_unchanged(q, draws):
    # every model at every drawn point: evaluate_points over the batch is
    # factorise at each point, and the scaled and reflected points agree
    rho = np.array([10.0 ** x for x, _ in draws])
    v = np.array([v for _, v in draws])
    for name, base in BASE.items():
        scaled, k = _scaled(name, q)
        batch = evaluate_points(base, rho, v)
        for i, (r, w) in enumerate(zip(rho, v)):
            out = factorise(base, r, w)
            want = (Status.CANONICAL if batch.canonical[i]
                    else Status.DEGENERATE if batch.kernel_dim[i] else Status.UNRESOLVED)
            assert (out.status, out.kernel_dim) == (want, batch.kernel_dim[i])
            _same(out, factorise(scaled, k * r, k * w))
            if name in REFLECTS:
                mirror = factorise(base, r, -w)
                if name in GTT_REFLECTS:
                    _same(out, mirror)
                else:
                    assert (out.status, out.kernel_dim) == (mirror.status, mirror.kernel_dim)
