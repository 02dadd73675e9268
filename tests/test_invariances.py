"""Exact invariances of the physics as whole-range oracles.

Scaling by lambda leaves g_tt unchanged: Kerr (m, a, rho, v) ->
lambda (m, a, rho, v), and the 5D models (m, a, rho, v) ->
(lambda^2 m, lambda a, lambda^2 rho, lambda^2 v).  Reflection v -> -v
leaves Kerr and mvc5d alike in status and kernel dimension, and Kerr also
in g_tt (mvc5d's g_tt is not reflection-symmetric: its closed form gives
0.01071 at (0.1419, 0.6118) and 0.2591 at (0.1419, -0.6118)).  None of
this needs a closed form, so the draws cover rho log-uniform over
1e-2..20 and v over -4..4, not only the acceptance boxes.  Congruence
and translation, at the end, move the model instead of the point.
"""
import functools
import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from whergo.catalog import make_model, model_kerr, model_mp5d, model_mvc5d
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


# Covariances move the model, not the point.  Congruence: for a constant G
# with det G = 1 that commutes with eta, G^T M G is a model whose factors
# are G^T M_minus G and G^-1 X G, so its M_limit is G^T M_limit G.
# Translation: M(omega - c) answers at (rho, v + c) what M answers at
# (rho, v).  Both copies are built through make_model, with the base
# model's pole order (shifted by c) and its default branches.
CONGRUENCES = {
    2: (np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([[2.0, 1.0], [1.0, 1.0]])),
    3: (np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.3, 0.0, 0.5]])),
}
SHIFTS = (-10.0, 10.0, 30.0)
COPIES = [(name, g) for name in BUILDERS for g in range(2)] + [
    (name, c) for name in BUILDERS for c in SHIFTS]


def _congruent(base, G):
    """G^T M G, every entry over the product of (omega - p) over M's poles."""
    n = base.n
    d = npoly.polyfromroots(base.omega_poles)
    nums = [[npoly.polymul(e.num, npoly.polydiv(d, e.den)[0]) for e in row]
            for row in base.entries]
    width = max(x.size for row in nums for x in row)
    stack = np.zeros((n, n, width), dtype=complex)
    for i, row in enumerate(nums):
        for j, x in enumerate(row):
            stack[i, j, :x.size] = x
    out = np.einsum("ki,klc,lj->ijc", G, stack, G)
    return make_model([[(out[i, j], d) for j in range(n)] for i in range(n)],
                      eta=base.eta, params=base.params, model_id=f"{base.model_id}-congruent",
                      omega_poles=base.omega_poles, default_branches=base.default_branches)


def _translated(base, c):
    """M(omega - c): each numerator and denominator composed with omega - c."""
    shift = Polynomial([-c, 1.0])

    def moved(p):
        return Polynomial(np.asarray(p, dtype=complex))(shift).coef

    return make_model([[(moved(e.num), moved(e.den)) for e in row] for row in base.entries],
                      eta=base.eta, params=base.params, model_id=f"{base.model_id}-shifted",
                      omega_poles=tuple(p + c for p in base.omega_poles),
                      default_branches=base.default_branches)


def _draws():
    rng = np.random.default_rng(28)
    return 10.0 ** rng.uniform(-3.0, math.log10(20.0), 60), rng.uniform(-4.0, 4.0, 60)


@functools.lru_cache(maxsize=None)
def _base_outcomes(name):
    rho, v = _draws()
    return [factorise(BASE[name], r, w) for r, w in zip(rho, v)]


@pytest.mark.parametrize("name, which", COPIES, ids=[
    f"{name}-G{which + 1}" if isinstance(which, int) else f"{name}-c={which:g}"
    for name, which in COPIES])
def test_congruent_and_translated_models_give_the_same_answers(name, which):
    # two ways of computing the same answer agree at every draw: the same
    # status and kernel_dim, and where both sides pass every gate the
    # copy's M_limit within 1e-8 relative of the covariant image of the
    # base's (when this test was written, every draw was canonical and the
    # worst gaps were 1.2e-12 for congruence, Kerr G1, and 1.5e-10 for
    # translation, mp5d at c = -10)
    base = BASE[name]
    if isinstance(which, int):
        G = CONGRUENCES[base.n][which]
        eta = np.diag(base.eta)
        assert abs(np.linalg.det(G) - 1.0) <= 1e-15 and np.array_equal(G @ eta, eta @ G)
        assert np.linalg.cond(G) <= 7.0
        copy, shift = _congruent(base, G), 0.0
    else:
        G, copy, shift = np.eye(base.n), _translated(base, which), which
    rho, v = _draws()
    for r, w, want in zip(rho, v, _base_outcomes(name)):
        got = factorise(copy, r, w + shift)
        assert (got.status, got.kernel_dim) == (want.status, want.kernel_dim), (r, w)
        if _gated(got) and _gated(want):
            image = G.T @ want.M_limit @ G
            assert np.abs(got.M_limit - image).max() <= 1e-8 * np.abs(image).max(), (r, w)
