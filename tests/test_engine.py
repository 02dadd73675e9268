import dataclasses
import itertools
from collections import Counter

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (compiled_labels, kerr_delta_closed_form, kerr_fh,
                      mp5d_solution_closed_form, mvc_closed_form, mvc_closed_form_D)
from tau_route import (
    Classification,
    DegenerateZeros,
    DegreeTable,
    FactoredRational,
    _adjugate_fr,
    _multiset_minus,
    _root_lcm,
    classify_2x2,
    compose_monodromy,
    degree_table,
    existence_system_2x2,
    poly_scale,
    zero_pair_for,
)
from whergo.catalog import (
    make_model,
    model_identity,
    model_kerr,
    model_mp5d,
    model_mvc5d,
)
import whergo.engine as engine
from whergo.engine import (
    Status,
    _assemble_inhomogeneous,
    _assemble_rows,
    _d_with_scale,
    assemble_M,
    evaluate_points,
    factorise,
    toeplitz_kernel_dim,
)
from whergo.errors import InvariantViolation, NonSquareSystem, NotCanonical
from whergo.poly import (
    equilibrate,
    numerical_nullity,
    poly_deflate,
    poly_eval,
    poly_from_roots,
    poly_mul,
)
from whergo.spectral import SpectralPoint, spectral_map, weyl_from_prolate_4d, weyl_from_prolate_5d

M_K, A_K = 2.0, 1.0
C_K = np.sqrt(M_K ** 2 - A_K ** 2)


def _setup(model, rho, v, branches=None):
    """(branches, the inside zero of each pair in the model's pole order, the
    composed monodromy) at (rho, v)."""
    pt = SpectralPoint(rho, v)
    branches = tuple(branches or model.default_branches)
    inside = tuple(zero_pair_for(pt, w, b).tau_in for w, b in zip(model.omega_poles, branches))
    return branches, inside, compose_monodromy(model, pt)


def _plan_spec_at(model, rho, v, branches=None):
    """The plan's AnsatzSpec at (rho, v)."""
    plan = engine._plan_for(model, branches or model.default_branches)
    return engine._plan_spec(plan, rho, v)


def _d(model, rho, v, branches=None):
    """D at one point, as a complex number."""
    return complex(_d_with_scale(model, rho, v, branches)[0])


def synthetic_chain_model():
    """k11 = 3 > k12 = 2 > k22 = 1 with q^2 + p12^2 split over C into
    degree-3 and degree-1 factors (complex coefficients, still symmetric)."""
    q = np.array([-1.0, 0.0, 1.0])
    p12 = np.array([2.0, 0.0, 1.0])
    tot = np.polynomial.polynomial.polyadd(np.convolve(q, q), np.convolve(p12, p12))
    roots = sorted(np.roots(tot[::-1]), key=lambda z: (z.real, z.imag))
    p11 = poly_from_roots(roots[:3], tot[-1])
    p22 = poly_from_roots(roots[3:], 1.0)
    return make_model([[(p11, q), (p12, q)], [(p12, q), (p22, q)]],
                      eta=(1.0, 1.0), model_id="synthetic-chain")


def nilpotent_models():
    """I + f(omega) N0 with N0 = [[1, i], [i, -1]], so N0^2 = 0 and det = 1
    for any f: f = omega and f = omega^3 / (omega^2 - 1).  Their 2x2 normal
    forms have N1 + N2 > 2n without a chain inequality."""
    models = []
    for num, den in (([0.0, 1.0], [1.0]), ([0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 1.0])):
        plus, minus = npoly.polyadd(den, num), npoly.polysub(den, num)
        off = 1j * np.asarray(num)
        models.append(make_model([[(plus, den), (off, den)], [(off, den), (minus, den)]],
                                 eta=(1.0, 1.0)))
    return models


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_kerr_is_determinant_test(kerr):
    _, _, mono = _setup(kerr, 1.1, 0.4)
    res = classify_2x2(mono.degree_table)
    assert res.kind is Classification.DETERMINANT_TEST
    assert res.N1 + res.N2 == res.two_n == 4


def test_classify_chain_is_reducible():
    model = synthetic_chain_model()
    _, _, mono = _setup(model, 1.3, 0.4)
    res = classify_2x2(mono.degree_table)
    assert res.kind is Classification.REDUCIBLE_CASE
    assert res.transcript and "tau = 0" in res.transcript
    assert (res.N1, res.N2, res.two_n) == (3, 2, 4)


def test_classify_diagonal_is_determinant_test():
    model = model_kerr(2.0, 0.0)
    _, _, mono = _setup(model, 1.5, 0.2)
    res = classify_2x2(mono.degree_table)
    assert res.kind is Classification.DETERMINANT_TEST


def test_classify_always_canonical_stub():
    # N1 + N2 < 2n is unreachable for a valid model (det M = 1 forces
    # N1 + N2 >= 2n, see test_always_canonical_degrees_violate_det_one);
    # a degree-table stub exercises that branch of the trichotomy
    res = classify_2x2(DegreeTable(k11=1, k12=0, k22=1, n=2))
    assert res.kind is Classification.ALWAYS_CANONICAL
    assert (res.N1, res.N2, res.two_n) == (1, 1, 4)


# ---------------------------------------------------------------------------
# existence system and D
# ---------------------------------------------------------------------------


def test_existence_system_on_curve_singular(kerr):
    # u(0) = m = 2 maps to (rho, v) = (1, 0) for m=2, a=1
    u = np.sqrt(M_K ** 2)
    assert weyl_from_prolate_4d(u, 0.0, C_K) == pytest.approx((1.0, 0.0))
    branches, _, mono = _setup(kerr, 1.0, 0.0)
    A = existence_system_2x2(mono, branches)
    assert A.shape == (4, 4)
    assert numerical_nullity(A) == 1


def test_existence_system_off_curve_regular(kerr):
    # u = sqrt(9 + 3) = 2 sqrt(3) > 2 = u_ergo(0)
    branches, _, mono = _setup(kerr, 3.0, 0.0)
    A = existence_system_2x2(mono, branches)
    assert numerical_nullity(A) == 0


def test_existence_system_det_equals_fh(kerr, rng):
    for _ in range(20):
        rho = rng.uniform(0.3, 4.0)
        v = rng.uniform(-3.0, 3.0)
        branches, _, mono = _setup(kerr, rho, v)
        d_val = np.linalg.det(existence_system_2x2(mono, branches))
        fh = kerr_fh(rho, v)
        assert abs(d_val - fh) <= 1e-8 * abs(fh)


def test_existence_system_degenerate_zeros(kerr):
    # far out near the axis the inside zeros of Kerr's two pairs,
    # -1.0035e-9 and -0.9965e-9, coincide within 1e-10: the value-and-
    # derivative system has a repeated row pair there (the composition's own
    # check fails this far out, so it is skipped)
    pt = SpectralPoint(1e-6, 500.0)
    t1, t2 = (zero_pair_for(pt, w, "minus").tau_in for w in kerr.omega_poles)
    assert abs(t1 - t2) < 1e-10
    with pytest.raises(DegenerateZeros):
        existence_system_2x2(compose_monodromy(kerr, pt, check=False))


@pytest.mark.parametrize("branches", [("minus",), ("minus", "minus", "plus"),
                                      ("minus", "sideways")])
def test_existence_system_rejects_bad_branches(kerr, branches):
    # one tag per omega pole, each "minus" or "plus", as for the plan
    _, _, mono = _setup(kerr, 1.1, 0.3)
    with pytest.raises(ValueError, match="one tag per omega pole"):
        existence_system_2x2(mono, branches)


def test_compute_d_sign_change_across_curve(kerr):
    assert _d(kerr, 0.8, 0.0).real * _d(kerr, 1.2, 0.0).real < 0.0


def test_compute_d_identity_model():
    model = model_identity(2)
    assert _d(model, 1.3, 0.2) == pytest.approx(1.0)
    assert toeplitz_kernel_dim(model, 1.3, 0.2) == 0
    # identity plus a nilpotent: outside the paper's degree trichotomy, yet
    # canonical, and toeplitz_kernel_dim is the batch's kernel_dim there too
    for model in nilpotent_models():
        with pytest.raises(ValueError, match="without a chain inequality"):
            classify_2x2(degree_table(model))
        for rho, v in ((1.3, 0.2), (0.5, -1.7), (3.0, 2.0)):
            out = factorise(model, rho, v)
            assert out.status is Status.CANONICAL
            assert out.residual_report.factorisation <= 1e-9
            assert toeplitz_kernel_dim(model, rho, v) == evaluate_points(model, rho, v).kernel_dim == 0


def test_mp5d_d_vanishes_on_ergosurface_line(mp5d):
    al, L = mp5d.params["alpha"], mp5d.params["L"]
    for y in (-0.6, 0.0, 0.7):
        u = (2.0 - L * y) / (2.0 - L)
        rho, v = weyl_from_prolate_5d(u, y, al)
        assert toeplitz_kernel_dim(mp5d, rho, v) == 1
        rho2, v2 = weyl_from_prolate_5d(1.06 * u, y, al)
        assert toeplitz_kernel_dim(mp5d, rho2, v2) == 0


def test_mvc5d_d_vanishes_on_condition_curve(mvc5d):
    m, a = mvc5d.params["m"], mvc5d.params["a"]
    al = mvc5d.params["alpha"]
    for y in (-0.5, 0.0, 0.4):
        u = np.sqrt(y * y + (m / (2 * al)) * (1 - y * y))
        rho, v = weyl_from_prolate_5d(u, y, al)
        assert toeplitz_kernel_dim(mvc5d, rho, v) == 1


def test_mvc5d_loci_match_reference_subsystem(mvc5d):
    # engine D and the reference constants-subsystem determinant vanish together
    al = mvc5d.params["alpha"]
    m = mvc5d.params["m"]
    for k in range(50):
        y = -0.9 + 1.8 * k / 49.0
        u_on = np.sqrt(y * y + (m / (2 * al)) * (1 - y * y))
        for u, expect_zero in ((u_on, True), (u_on * 1.08, False)):
            rho, v = weyl_from_prolate_5d(u, y, al)
            d_val, scale = _d_with_scale(mvc5d, rho, v)
            d_ref = mvc_closed_form_D(rho, v)
            if expect_zero:
                assert abs(d_val) / scale < 1e-12
                assert abs(d_ref) < 1e-10
            else:
                assert abs(d_val) / scale > 1e-9
                assert abs(d_ref) > 1e-6


def test_mvc5d_local_proportionality(mvc5d):
    # engine D / reference D is constant along short probe segments
    for rho, v in ((1.1, 0.25), (0.9, -0.4), (1.6, 0.8)):
        ratios = []
        for ds in (0.0, 1e-7, 2e-7):
            d_val, _ = _d_with_scale(mvc5d, rho + ds, v + ds)
            d_ref = mvc_closed_form_D(rho + ds, v + ds)
            ratios.append((d_val / d_ref).real)
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread <= 1e-6


def test_reducible_system_square_and_regular():
    # the chain (reducible) case goes through the generic system like every
    # other model: the selected rows form a regular square matrix
    model = synthetic_chain_model()
    spec = _plan_spec_at(model, 1.3, 0.4)
    A = _assemble_rows(spec)[..., spec.layout.hom][engine._plan_for(model).selected_rows, :]
    assert A.shape[0] == A.shape[1] > 0
    assert numerical_nullity(A) == 0
    assert abs(_d(model, 1.3, 0.4)) > 0


def _on_curve_points(kerr, mp5d, mvc5d, ys, du=0.0):
    """Closed-form failure-curve points: Kerr ergosurface, mp5d ergosurface
    line, mvc5d condition curve; with du > 0 (one per y, or one for all) the
    points u - u_c = du beyond the curve."""
    al, L = mp5d.params["alpha"], mp5d.params["L"]
    al_v, m_v = mvc5d.params["alpha"], mvc5d.params["m"]
    yu = list(zip(ys, np.broadcast_to(du, np.shape(ys))))
    return {
        "kerr": [weyl_from_prolate_4d(np.sqrt(M_K ** 2 - A_K ** 2 * y * y) + d, y, C_K)
                 for y, d in yu],
        "mp5d": [weyl_from_prolate_5d((2.0 - L * y) / (2.0 - L) + d, y, al) for y, d in yu],
        "mvc5d": [weyl_from_prolate_5d(np.sqrt(y * y + (m_v / (2 * al_v)) * (1 - y * y)) + d,
                                       y, al_v) for y, d in yu],
    }


def test_factorise_d_matches_homogeneous_assembly(kerr, mp5d, mvc5d, rng):
    # factorise takes D and the kernel from its full system; the D-only
    # callers assemble the D rows alone; both must agree exactly.
    # factorise is evaluate_points at one point: D, its scale and M agree
    # bitwise with the batch
    on_curve = _on_curve_points(kerr, mp5d, mvc5d, (-0.6, 0.1, 0.7))
    for name, model in (("kerr", kerr), ("mp5d", mp5d), ("mvc5d", mvc5d)):
        off_curve = [(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0)) for _ in range(6)]
        canonical = 0
        for rho, v in off_curve + on_curve[name]:
            out = factorise(model, rho, v)
            assert (out.D_value, out.D_scale) == _d_with_scale(model, rho, v)
            batch = evaluate_points(model, rho, v)
            assert (out.D_value, out.D_scale) == (batch.D_value, batch.D_scale)
            if out.canonical:
                canonical += 1
                assert np.array_equal(out.M_limit, batch.M_limit)
            if (rho, v) in on_curve[name]:
                assert out.status is Status.DEGENERATE
                assert out.kernel_dim == toeplitz_kernel_dim(model, rho, v) == 1
        assert canonical >= 3


def _d_from_every_row(model, rho, v, branches=None):
    """(D, scale) from the full layout: every analyticity row assembled,
    the homogeneous columns and then the D rows taken."""
    plan = engine._plan_for(model, branches)
    a0 = _assemble_rows(engine._plan_spec(plan, rho, v))[..., plan.layout.hom]
    return engine._det_with_scale(a0[..., plan.selected_rows, :])


D_LAYOUT_CASES = ([("kerr", model_kerr, 1.0, None), ("kerr", model_kerr, 1.0, ("plus", "minus"))]
                  + [(name, build, a, None)
                     for name, build in (("mp5d", model_mp5d), ("mvc5d", model_mvc5d))
                     for a in (0.01, 0.5, 1.0, 1.9)]
                  + [(f"nilpotent{i}", lambda m, a, i=i: nilpotent_models()[i], None, None)
                     for i in range(2)]
                  + [("identity", lambda m, a: model_identity(2), None, None)])


@pytest.mark.parametrize("name, build, a, branches", D_LAYOUT_CASES,
                         ids=[f"{c[0]}-{c[2]}-{c[3] and ','.join(c[3])}" for c in D_LAYOUT_CASES])
def test_d_layout_gives_the_d_rows_of_the_full_system_bit_for_bit(name, build, a, branches):
    # the tracer's D assembles only the D rows, over the inside groups they
    # use (the plan's d_layout); D and its scale are those of the D rows of
    # the full system, byte for byte, over the 300 draws as one batch and
    # at single points.  The identity has no inside group and D = 1
    model = build(2.0, a)
    plan = engine._plan_for(model, branches)
    assert np.array_equal(plan.d_layout.gk, plan.layout.gk[np.unique(
        plan.layout.tgroup[plan.selected_rows])])
    rho, v = _the_300_draws()
    got, want = _d_with_scale(model, rho, v, branches), _d_from_every_row(model, rho, v, branches)
    assert [x.dtype for x in got] == [x.dtype for x in want]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    for r, w in zip(rho[::15], v[::15]):
        got, want = _d_with_scale(model, r, w, branches), _d_from_every_row(model, r, w, branches)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
    if name == "identity":
        assert plan.layout.gk.size == plan.d_layout.gk.size == 0
        assert np.all(got[0] == 1.0) and np.all(got[1] == 1.0)


def test_a_point_reads_the_same_in_a_small_and_a_large_batch(kerr, mvc5d):
    # numpy switches to a SIMD kernel for large arrays; a point's D and
    # solution must not depend on how many points share its batch
    rng = np.random.default_rng(7)
    rho, v = rng.uniform(0.05, 4.0, 40000), rng.uniform(-4.0, 4.0, 40000)
    for model in (kerr, mvc5d):
        large = evaluate_points(model, rho, v)
        small = evaluate_points(model, rho[:300], v[:300])
        assert np.array_equal(large.D_value[:300], small.D_value, equal_nan=True)
        assert np.array_equal(large.solution[:300], small.solution, equal_nan=True)


def test_factorise_builds_one_system(kerr, mp5d, mvc5d, monkeypatch):
    # model constants and the ansatz plan are computed once per model; each
    # call then compiles no plan, assembles one system from the plan and
    # finds no omega-plane roots
    on_curve = _on_curve_points(kerr, mp5d, mvc5d, (0.3,))
    cases = ((kerr, (2.1, 0.6), Status.CANONICAL, False),
             (kerr, on_curve["kerr"][0], Status.DEGENERATE, False),
             (mvc5d, (1.4, 0.2), Status.CANONICAL, False),
             (mvc5d, on_curve["mvc5d"][0], Status.DEGENERATE, False),
             # a zero solution fails the residual check, so the point is not
             # consistent; with a trivial kernel the engine cannot decide
             (kerr, (2.1, 0.6), Status.UNRESOLVED, True))
    for model, (rho, v), status, solve_raises in cases:
        factorise(model, rho, v)
        if solve_raises:
            monkeypatch.setattr(engine, "_solve_stack", lambda a, b: np.zeros_like(b))
        counts = {"_compile_plan": 0, "_assemble_rows": 0, "roots": 0}
        for module, name in ((engine, "_compile_plan"), (engine, "_assemble_rows"),
                             (np, "roots")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        out = factorise(model, rho, v)
        monkeypatch.undo()
        assert out.status is status
        assert out.kernel_dim == (status is Status.DEGENERATE)
        assert counts == {"_compile_plan": 0, "_assemble_rows": 1, "roots": 0}


@pytest.mark.parametrize("entry", [factorise, toeplitz_kernel_dim])
def test_one_point_entries_refuse_an_array_of_points(entry, kerr, monkeypatch):
    # factorise and toeplitz_kernel_dim take one Weyl point: more than one
    # is a ValueError naming evaluate_points, raised before any evaluation;
    # an array of one number is that number
    want = entry(kerr, 2.1, 0.6)
    got = entry(kerr, np.array([2.1]), [0.6])
    if entry is factorise:
        assert got.status is want.status is Status.CANONICAL
        assert got.M_limit.tobytes() == want.M_limit.tobytes()
        assert assemble_M(got).tobytes() == assemble_M(want).tobytes()
    else:
        assert got == want == 0
    monkeypatch.setattr(engine, "evaluate_points", None)
    for rho, v in ((np.array([1.0, 2.0]), 0.3), (2.1, [0.3, 0.4]), (np.ones((1, 2)), 0.3)):
        with pytest.raises(ValueError, match="one Weyl point.*evaluate_points"):
            entry(kerr, rho, v)


# ---------------------------------------------------------------------------
# kernel dimension
# ---------------------------------------------------------------------------


def test_kernel_dim_kerr_20_points(kerr, rng):
    for _ in range(20):
        rho = rng.uniform(1.2, 4.0)
        v = rng.uniform(-3.0, 3.0)
        assert toeplitz_kernel_dim(kerr, rho, v) == 0
    for y in (-0.8, -0.3, 0.0, 0.5, 0.9):
        u = np.sqrt(M_K ** 2 - A_K ** 2 * y * y)
        rho, v = weyl_from_prolate_4d(u, y, C_K)
        assert toeplitz_kernel_dim(kerr, rho, v) == 1


# ---------------------------------------------------------------------------
# one rank decision: status and kernel dimension
# ---------------------------------------------------------------------------


def _batch_status(batch, i):
    """The status factorise gives at index i of an evaluate_points batch."""
    if batch.kernel_dim[i]:
        return Status.DEGENERATE
    return Status.CANONICAL if batch.canonical[i] else Status.UNRESOLVED


_RHO = st.floats(-6.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["kerr", "mp5d", "mvc5d"]),
       points=st.lists(st.tuples(_RHO, st.floats(-1e3, 1e3)), min_size=1, max_size=6))
# Kerr points that were DEGENERATE with kernel_dim 0 under the old |D| test
@example(name="kerr", points=[(0.5, 160.0), (1e-4, 5.0), (0.5, 1000.0), (1e-3, -3.0)])
def test_factorise_is_the_batch_verdict_over_the_half_plane(name, points, kerr, mp5d, mvc5d):
    # over the whole Weyl half-plane factorise's status and kernel dimension
    # are those of one evaluate_points call on all the points, and the
    # status follows the kernel: DEGENERATE exactly where kernel_dim >= 1
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d}[name]
    rho, v = (np.array(x) for x in zip(*points))
    batch = evaluate_points(model, rho, v)
    for i, (r, w) in enumerate(points):
        out = factorise(model, r, w)
        assert (out.status, out.kernel_dim) == (_batch_status(batch, i), batch.kernel_dim[i])
        assert (out.status is Status.DEGENERATE) == (out.kernel_dim >= 1)


@pytest.mark.parametrize("rho, v", [(1.0, np.nan), (np.inf, 0.5), (-1.0, 0.5),
                                    ([1.0, 2.0], [0.5, np.nan])])
def test_evaluate_points_rejects_points_that_are_not_finite(kerr, rho, v):
    # a NaN or infinite coordinate never reaches the linear algebra, and
    # factorise refuses a point by the same one check
    with pytest.raises(ValueError, match="finite v and finite rho > 0"):
        evaluate_points(kerr, np.asarray(rho), np.asarray(v))
    if np.ndim(rho) == 0:
        with pytest.raises(ValueError, match="finite v and finite rho > 0"):
            factorise(kerr, rho, v)


@pytest.mark.parametrize("name, rho, v", [("kerr", 1.0, 1e160), ("kerr", 1e-300, 0.3),
                                          ("mvc5d", 1.0, 1e100)])
def test_points_with_a_system_beyond_double_range_are_unresolved(name, rho, v, kerr, mvc5d):
    # the system overflows to inf and NaN there: no SVD is attempted, no
    # solution is consistent, and the engine says it cannot decide
    model = {"kerr": kerr, "mvc5d": mvc5d}[name]
    with np.errstate(all="ignore"):
        out = factorise(model, rho, v)
        batch = evaluate_points(model, np.array([rho, 2.0]), np.array([v, 0.5]))
    assert out.status is Status.UNRESOLVED and out.kernel_dim == 0
    assert [_batch_status(batch, i) for i in range(2)] == [Status.UNRESOLVED, Status.CANONICAL]


@pytest.mark.parametrize("rho, v", [(0.5, 160.0), (1e-4, 5.0), (0.5, 1000.0)])
def test_kerr_far_points_are_canonical(kerr, rho, v):
    # D-hat is 8.6e-10, 1.8e-11 and 5.8e-13 here, below the old |D| test's
    # 1e-9, yet the equilibrated system has full rank and the factors are right
    out = factorise(kerr, rho, v)
    assert out.status is Status.CANONICAL and out.kernel_dim == 0
    r = out.residual_report
    assert r.factorisation <= 1e-9 and r.x_at_zero <= 1e-10 and r.pole_cancellation <= 1e-9
    assert abs(1.0 / out.M_limit[1, 1].real - kerr_delta_closed_form(rho, v)) <= 1e-13


def _assert_gates(out):
    r = out.residual_report
    assert r.factorisation <= 1e-9 and r.x_at_zero <= 1e-10 and r.pole_cancellation <= 1e-9


def test_kerr_near_axis_point_is_not_degenerate(kerr):
    # the kernel is trivial at (1e-3, -3), and the factors, built from
    # untrimmed numerators, pass every residual gate
    out = factorise(kerr, 1e-3, -3.0)
    assert out.status is Status.CANONICAL and out.kernel_dim == 0
    _assert_gates(out)


@pytest.mark.parametrize("name, rho, v", [
    ("kerr", 1e-6, 500.0),     # the two pairs' inside points lie 7e-12 apart
    ("mvc5d", 0.5, 1000.0),    # numerator coefficients over more than 14 decades
    ("mvc5d", 1e-6, 0.3),
    ("mp5d", 1e-5, 500.0),     # L_k roots within 1e-8 of tau = 0
])
def test_far_and_near_axis_points_pass_every_gate(name, rho, v, kerr, mp5d, mvc5d):
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d}[name]
    out = factorise(model, rho, v)
    assert out.status is Status.CANONICAL and out.kernel_dim == 0
    _assert_gates(out)
    m = out.M_limit.real
    if name == "kerr":
        assert abs(1.0 / m[1, 1] - kerr_delta_closed_form(rho, v)) <= 1e-10
    elif name == "mp5d":
        want = mp5d_solution_closed_form(rho, v)
        assert np.max(np.abs(m - want)) <= 1e-10 * np.max(np.abs(want))
    elif rho > 1e-3:      # the float closed form itself is off by 6e-8 at (1e-6, 0.3)
        want = mvc_closed_form(rho, v)[0]
        assert np.max(np.abs(m - want)) <= 1e-10 * np.max(np.abs(want))


# Known wrong answers, one strict xfail per point: each flips alone, and
# fails the suite, the day its ROADMAP item mends it.
def _known_wrong(items, what):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP {items}: {what}")


_ROD_END = "CANONICAL with factors that miss their gates at the horizon-rod end"


@pytest.mark.parametrize("rho, v", [
    # factorisation residual 2.0e-7, |X(0) - I| 2.2e-6
    pytest.param(1e-4, np.sqrt(3.0), marks=_known_wrong("items 1 and 3", _ROD_END)),
    # |X(0) - I| 1.5e3
    pytest.param(1e-4, -np.sqrt(3.0), marks=_known_wrong("items 1 and 3", _ROD_END)),
    # factorisation residual 4.2e-3, |X(0) - I| 1.8e-2
    pytest.param(1e-6, np.sqrt(3.0), marks=_known_wrong("items 1 and 3", _ROD_END)),
    # factorisation residual 4.5e-3, |X(0) - I| 1.3e9
    pytest.param(1e-6, -np.sqrt(3.0), marks=_known_wrong("items 1 and 3", _ROD_END)),
])
def test_kerr_near_the_rod_ends_is_canonical_only_within_its_gates(kerr, rho, v):
    out = factorise(kerr, rho, v)
    assert out.canonical
    _assert_gates(out)


_FAR_OUT = "DEGENERATE far out along v, where the closed form is regular"


@pytest.mark.parametrize("name, rho, v", [
    pytest.param("kerr", 1.0, 1e12, marks=_known_wrong("item 9", _FAR_OUT)),
    pytest.param("kerr", 1.0, 1e14, marks=_known_wrong("item 9", _FAR_OUT)),
    pytest.param("mp5d", 1.0, 1e10, marks=_known_wrong("item 9", _FAR_OUT)),
    pytest.param("mp5d", 1.0, 1e12, marks=_known_wrong("item 9", _FAR_OUT)),
])
def test_far_out_points_are_not_degenerate(name, rho, v, kerr, mp5d):
    out = factorise({"kerr": kerr, "mp5d": mp5d}[name], rho, v)
    assert out.status is not Status.DEGENERATE


@pytest.mark.parametrize("a", [0.0, 0.001, 0.002, 0.005, 0.01, 0.1, 0.5, 1.9])
def test_mp5d_matches_its_closed_form_down_to_a_zero(a):
    # the rotation family at m = 2 down to the 5D Schwarzschild-Tangherlini
    # limit a = 0: every draw canonical, M within 1e-8 of the closed form
    rng = np.random.default_rng(1)
    rho, v = 10.0 ** rng.uniform(-2.0, np.log10(20.0), 40), rng.uniform(-4.0, 4.0, 40)
    batch = evaluate_points(model_mp5d(2.0, a), rho, v)
    assert batch.canonical.all()
    for got, r, w in zip(batch.M_limit, rho, v):
        want = mp5d_solution_closed_form(r, w, 2.0, a)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def _kerr_plus_one(kerr):
    """Kerr + 1: the Kerr entries in a 3x3 block with a unit (3, 3) entry."""
    zero, one = ([0.0], [1.0]), ([1.0], [1.0])
    (k11, k12), (k21, k22) = kerr.entries
    return make_model([[k11, k12, zero], [k21, k22, zero], [zero, zero, one]],
                      eta=(1.0, 1.0, 1.0), params=kerr.params, model_id="kerr+1",
                      omega_poles=kerr.omega_poles, default_branches=kerr.default_branches)


def test_kerr_plus_one_agrees_with_kerr(kerr, mp5d, mvc5d):
    # n = 3 against n = 2: the block sum has Kerr's status, kernel dimension
    # and M, and a one-dimensional kernel on the Kerr curve
    model = _kerr_plus_one(kerr)
    rng = np.random.default_rng(11)
    for _ in range(40):
        rho, v = 10.0 ** rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0)
        want, got = factorise(kerr, rho, v), factorise(model, rho, v)
        assert (got.status, got.kernel_dim) == (want.status, want.kernel_dim) \
            == (Status.CANONICAL, 0)
        expect = np.eye(3)
        expect[:2, :2] = want.M_limit.real
        assert np.max(np.abs(got.M_limit - expect)) <= 1e-12 * np.max(np.abs(expect))
    for rho, v in _on_curve_points(kerr, mp5d, mvc5d, (-0.6, 0.0, 0.5))["kerr"]:
        out = factorise(model, rho, v)
        assert (out.status, out.kernel_dim) == (Status.DEGENERATE, 1)


# ---------------------------------------------------------------------------
# factor construction
# ---------------------------------------------------------------------------


def test_factorise_identity():
    out = factorise(model_identity(2), 1.7, -0.4)
    assert out.status is Status.CANONICAL
    assert np.allclose(out.M_limit, np.eye(2))
    assert np.allclose(out.X.eval(0.33 + 0.1j), np.eye(2))
    assert np.allclose(out.M_minus.eval(5.0), np.eye(2))


def test_factorise_identity_3x3():
    model = model_identity(3)
    out = factorise(model, 1.3, 0.2)
    assert out.status is Status.CANONICAL
    assert np.allclose(out.M_limit, np.eye(3))
    assert _d(model, 1.3, 0.2) == pytest.approx(1.0)
    assert toeplitz_kernel_dim(model, 1.3, 0.2) == 0


def test_factorise_kerr_residuals(kerr, rng):
    for _ in range(5):
        rho = rng.uniform(1.3, 3.5)
        v = rng.uniform(-2.0, 2.0)
        out = factorise(kerr, rho, v)
        assert out.status is Status.CANONICAL
        r = out.residual_report
        assert r.factorisation <= 1e-9
        assert r.x_at_zero <= 1e-10
        assert r.pole_cancellation <= 1e-9
        M = out.M_limit
        assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))
        assert abs(np.linalg.det(M) - 1.0) <= 1e-9 * np.max(np.abs(M)) ** 2
        assert M[1, 1].real > 0.0


def test_factorise_kerr_matches_closed_form_delta(kerr, rng):
    for _ in range(8):
        rho = rng.uniform(0.4, 3.5)
        v = rng.uniform(-2.5, 2.5)
        out = factorise(kerr, rho, v)
        if out.status is not Status.CANONICAL:
            continue
        delta = 1.0 / out.M_limit[1, 1].real
        assert delta == pytest.approx(kerr_delta_closed_form(rho, v), rel=1e-10)


def test_factorise_det_factors_one(kerr):
    out = factorise(kerr, 2.1, 0.6)
    for tau in (1.1 + 0.2j, -0.8 + 0.5j):
        assert abs(np.linalg.det(out.X.eval(tau)) - 1.0) <= 1e-9
        assert abs(np.linalg.det(out.M_minus.eval(tau)) - 1.0) <= 1e-9


def test_factorise_kerr_a0_diagonal():
    model = model_kerr(2.0, 0.0)
    out = factorise(model, 2.5, 0.7)
    assert out.status is Status.CANONICAL
    M = out.M_limit
    assert np.max(np.abs(M - np.diag(np.diag(M)))) <= 1e-10
    # Schwarzschild in Weyl coordinates
    assert 1.0 / M[1, 1].real == pytest.approx(kerr_delta_closed_form(2.5, 0.7, a=0.0), rel=1e-12)
    assert out.residual_report.factorisation <= 1e-12


def test_factorise_on_curve_degenerate(kerr):
    out = factorise(kerr, 1.0, 0.0)
    assert out.status is Status.DEGENERATE
    assert out.kernel_dim == 1
    assert out.M_limit is None
    with pytest.raises(NotCanonical):
        assemble_M(out)


def test_factorise_chain_model_generic_route():
    model = synthetic_chain_model()
    out = factorise(model, 1.3, 0.4)
    assert out.status is Status.CANONICAL
    # the classification is per model, not per point: its degree table alone gives it
    assert classify_2x2(degree_table(model)).kind is Classification.REDUCIBLE_CASE
    assert not hasattr(out, "classification")
    assert out.residual_report.factorisation <= 1e-9
    assert abs(np.linalg.det(out.M_limit) - 1.0) <= 1e-9 * np.max(np.abs(out.M_limit)) ** 2


def test_pole_cancellation_is_scale_free_at_tau_zero(mp5d):
    # mp5d and the synthetic chain have a pole at tau = 0, where the
    # cancelled numerator value is rounding noise; measured against the
    # terms it sums, pole cancellation must be as small as the
    # factorisation residual says it is
    rng = np.random.default_rng(7)
    for model in (mp5d, synthetic_chain_model()):
        count = 0
        for _ in range(12):
            out = factorise(model, 10.0 ** rng.uniform(-0.5, 1.0), rng.uniform(-3.0, 3.0))
            if out.canonical and out.residual_report.factorisation <= 1e-9:
                count += 1
                assert out.residual_report.pole_cancellation <= 1e-9
        assert count >= 8


def test_solve_stack_marks_singular_systems():
    # a stack with an exactly singular matrix still solves the others; the
    # singular one reads NaN, which evaluate_points counts as inconsistent
    a = np.array([[[2.0, 0.0], [0.0, 4.0]], [[1.0, 2.0], [2.0, 4.0]]])
    b = np.array([[[2.0], [8.0]], [[1.0], [1.0]]])
    sol = engine._solve_stack(a, b)
    assert np.allclose(sol[0], [[1.0], [2.0]]) and np.all(np.isnan(sol[1]))


def test_assemble_m_richardson(kerr):
    out = factorise(kerr, 2.8, -0.9)
    M = assemble_M(out, check=True)
    assert np.array_equal(M, out.M_limit)


@pytest.mark.parametrize("point", [(0.4090974066222354, -1.4335124397770158),
                                   (0.7318409783108428, -1.837649440686218)])
def test_assemble_m_richardson_scales_with_the_poles_of_m_minus(kerr, point):
    # M_minus has a pole of modulus 15.5 (9.9) here: unscaled, the
    # extrapolation's own error exceeded the tolerance on right factors
    out = factorise(kerr, *point)
    assert out.residual_report.factorisation <= 1e-9
    assert np.array_equal(assemble_M(out, check=True), out.M_limit)
    # the cross-check still catches a limit that is off by 1e-6
    wrong = dataclasses.replace(out, M_limit=out.M_limit * (1 + 1e-6))
    with pytest.raises(ArithmeticError):
        assemble_M(wrong, check=True)


def test_mp5d_matches_reference_closed_form(mp5d, rng):
    for _ in range(10):
        rho = rng.uniform(0.8, 3.0)
        v = rng.uniform(-1.5, 1.5)
        out = factorise(mp5d, rho, v)
        if out.status is not Status.CANONICAL:
            continue
        expect = mp5d_solution_closed_form(rho, v)
        assert np.max(np.abs(out.M_limit - expect)) <= 1e-8 * np.max(np.abs(expect))


def test_mvc5d_matches_reference_closed_form(mvc5d, rng):
    for _ in range(10):
        rho = rng.uniform(0.8, 2.5)
        v = rng.uniform(-1.2, 1.2)
        out = factorise(mvc5d, rho, v)
        if out.status is not Status.CANONICAL:
            continue
        expect, _ = mvc_closed_form(rho, v)
        assert np.max(np.abs(out.M_limit - expect)) <= 1e-8 * np.max(np.abs(expect))


def test_5d_eta_coset_property(mp5d, mvc5d):
    eta = np.diag([1.0, -1.0, 1.0])
    for model in (mp5d, mvc5d):
        out = factorise(model, 1.7, 0.3)
        M = out.M_limit
        scale = np.max(np.abs(M))
        assert np.max(np.abs(eta @ M.T @ eta - M)) <= 1e-9 * scale
        assert abs(np.linalg.det(M) - 1.0) <= 1e-9 * scale ** 3


def test_index_balance(kerr, mp5d, mvc5d):
    # independent homogeneous constraints match unknowns (Fredholm index 0)
    branches, _, mono = _setup(kerr, 1.9, 0.4)
    A = existence_system_2x2(mono, branches)
    assert A.shape[0] == A.shape[1]
    for model in (mp5d, mvc5d):
        spec = _plan_spec_at(model, 1.9, 0.4)
        a0 = _assemble_rows(spec)[..., spec.layout.hom]
        u = spec.layout.hom.size
        assert engine._plan_for(model).selected_rows.size == u
        assert a0.shape[1] == u
        assert u - numerical_nullity(a0) == u  # full column rank off-curve


def _full_system(spec):
    """(A, B) of the full system: B, one right-hand side per factor column,
    holds l0 in the normalisation rows."""
    A, l0 = _assemble_inhomogeneous(spec, engine._assemble_rows(spec))
    return A, engine._right_hand_sides(l0, A.shape[-2], A.dtype)


def test_uniqueness_probe(mvc5d, rng):
    spec = _plan_spec_at(mvc5d, 1.4, 0.2)
    A, B = _full_system(spec)
    sol, *_ = np.linalg.lstsq(A, B, rcond=None)
    assert np.max(np.abs(A @ sol - B)) <= 1e-9 * max(1.0, np.max(np.abs(B)))
    for _ in range(5):
        d = rng.normal(size=sol.shape[0]) + 1j * rng.normal(size=sol.shape[0])
        d /= np.linalg.norm(d)
        pert = sol[:, 0] + 1e-6 * d
        assert np.max(np.abs(A @ pert - B[:, 0])) >= 1e-7


def test_solve_columns_kerr_psi_structure(kerr):
    _, inside, _ = _setup(kerr, 2.0, 1.0)
    out = factorise(kerr, 2.0, 1.0)
    assert out.residual_report.pole_cancellation <= 1e-10
    inside = list(inside) + [0.0]

    def is_inside(r):
        return any(abs(r - t) <= 1e-8 * max(1.0, abs(t)) for t in inside)

    # psi_+ analytic inside: no row denominator of X = adj(Psi_+) holds an
    # inside point
    for roots in out.X.den_roots:
        assert not any(is_inside(r) for r in roots)
    # psi_- analytic outside: M_minus has poles only at inside points
    for roots in out.M_minus.den_roots:
        assert all(is_inside(r) for r in roots)


def test_inverse_delta_blowup_near_curve(kerr):
    # 1/Delta = M22 grows by >= 10x per decade approaching the curve
    y = 0.3
    u0 = np.sqrt(M_K ** 2 - A_K ** 2 * y * y)
    vals = []
    for d in (1e-2, 1e-3, 1e-4):
        rho, v = weyl_from_prolate_4d(u0 + d, y, C_K)
        out = factorise(kerr, rho, v)
        vals.append(out.M_limit[1, 1].real)
    assert vals[1] / vals[0] >= 5.0
    assert vals[2] / vals[1] >= 5.0


def _eta_asym_model():
    """eta = (1, -1): eta-symmetric but not plain-symmetric."""
    q1 = np.array([1.0, 0.0, 1.0])
    q2 = np.array([2.0, 0.0, 1.0])
    d_num = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    return make_model(
        [[([2.0, 0.0, 1.0], q1), ([0.0, 1.0], q1)],
         [([0.0, -1.0], q1), (d_num, poly_mul(q1, q2))]],
        eta=(1.0, -1.0), model_id="eta-asym")


def test_eta_asymmetric_2x2_routes_generic():
    # eta = (1, -1): no 2x2 normal form; the generic route factorises it
    model = _eta_asym_model()
    mono = compose_monodromy(model, SpectralPoint(1.2, 0.4))
    assert mono.degree_table is None
    out = factorise(model, 1.2, 0.4)
    assert out.status is Status.CANONICAL
    assert out.residual_report.factorisation <= 1e-9
    eta = np.diag([1.0, -1.0])
    M = out.M_limit
    assert np.max(np.abs(eta @ M.T @ eta - M)) <= 1e-9 * np.max(np.abs(M))
    assert abs(np.linalg.det(M) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# compiled ansatz plan
# ---------------------------------------------------------------------------


def _group_roots(roots):
    """Multiset -> ordered list of (root, multiplicity)."""
    out = []
    for r in sorted((complex(x) for x in roots), key=engine._root_sort_key):
        if out and abs(out[-1][0] - r) <= 1e-8 * max(1.0, abs(r)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return out


def _is_inside_root(r, inside) -> bool:
    if abs(r) < 1e-10:
        return True
    return any(abs(r - t) <= 1e-8 * max(1.0, abs(r)) for t in inside)


def _row_inside_poles(mono, inside):
    """Per-row multiset {tau: multiplicity} of the inside poles of the
    composed monodromy, read off its entries' denominator roots: tau = 0
    and the inside member of each zero pair (zero_pair_for's value)."""
    rows = []
    for row in mono.entries:
        poles = {}
        for fr in row:
            mult = Counter()
            for r in fr.den_roots:
                if abs(r) < 1e-12:
                    mult[0j] += 1
                else:
                    mult.update(t for t in inside
                                if abs(t - r) <= 1e-8 * max(1.0, abs(t), abs(r)))
            for t, m in mult.items():
                poles[t] = max(poles.get(t, 0), m)
        rows.append(poles)
    return rows


def build_ansatz(mono, inside):
    """AnsatzSpec at one point from the composed monodromy and the inside
    zero of each pair, by symbolic rational arithmetic in tau: the reference
    the compiled plan is checked against."""
    n = mono.n
    rows_inside = _row_inside_poles(mono, inside)
    pi_roots = []
    for row in rows_inside:
        roots = []
        for r, mult in sorted(row.items(), key=lambda kv: engine._root_sort_key(kv[0])):
            roots.extend([complex(r)] * mult)
        pi_roots.append(tuple(roots))
    adj = _adjugate_fr(mono.entries, n)
    base_polys = [[None] * n for _ in range(n)]
    lk_roots, inside_groups = [], []
    for k in range(n):
        dens = [tuple(adj[k][j].den_roots) + pi_roots[j] for j in range(n)]
        lk = ()
        for d in dens:
            lk, _, _ = _root_lcm(lk, d)
        for j in range(n):
            if adj[k][j].is_zero():
                base_polys[k][j] = np.zeros(1, dtype=complex)
                continue
            cof = _multiset_minus(lk, dens[j])
            base_polys[k][j] = poly_scale(
                poly_mul(adj[k][j].num, poly_from_roots(cof)), 1.0 / adj[k][j].den_lc)
        lk_roots.append(tuple(lk))
        inside_groups.append([(r, m) for r, m in _group_roots(lk) if _is_inside_root(r, inside)])
    base = np.zeros((n, n, max(p.size for row in base_polys for p in row)), dtype=complex)
    for k in range(n):
        for j in range(n):
            base[k, j, :base_polys[k][j].size] = base_polys[k][j]
    # the spec names every root by its index: 0 is tau = 0, then each
    # distinct root in the order first met
    roots = [0j]

    def index(r):
        if abs(r) < 1e-10:
            return 0
        for i, s in enumerate(roots):
            if i and abs(r - s) <= 1e-8 * max(1.0, abs(r)):
                return i
        roots.append(complex(r))
        return len(roots) - 1
    pi = [[index(r) for r in rs] for rs in pi_roots]
    lk = [sorted(index(r) for r in rs) for rs in lk_roots]
    groups = [[(index(r), m) for r, m in g] for g in inside_groups]
    layout = engine._row_layout(base.shape[-1], pi, lk, groups, np.full((n, n, 0), -1))
    return engine.AnsatzSpec(base, np.array(roots), layout)


def _reference_system(model, rho, v, branches):
    """(build_ansatz at the point itself, the plan's D-row selection)."""
    _, inside, mono = _setup(model, rho, v, branches)
    return build_ansatz(mono, inside), engine._plan_for(model, branches).selected_rows


def _d_hat(spec, sel):
    a0 = _assemble_rows(spec)[..., spec.layout.hom]
    d, scale = engine._det_with_scale(a0[sel, :])
    return abs(d) / scale


PLAN_CASES = [("kerr", None), ("kerr", ("plus", "minus")), ("kerr", ("minus", "plus")),
              ("kerr", ("plus", "plus")), ("mp5d", None), ("mvc5d", None),
              ("chain", None), ("identity3", None), ("kerr+1", None), ("eta-asym", None)]


@pytest.mark.parametrize("name, branches", PLAN_CASES)
def test_plan_matches_build_ansatz(name, branches, kerr, mp5d, mvc5d):
    # two independent constructions of one system: the plan, compiled from
    # the model's pole labels, and build_ansatz, symbolic in tau at the
    # point.  Every entry of [A | B] agrees within 1e-12 of its row norm,
    # D-hat within 1e-11, at random points and at the compile's reference
    # points.  A row the plan assembles as exact zeros is the condition at a
    # root of L_k that A_kj itself carries (a spurious pole of the symbolic
    # tau-plane adjugate); build_ansatz has rounding noise there, which must
    # stay small.  Where the adjugate keeps such a root in its numerator
    # (eta-asym), the plan has rounding noise in that row as well: a row
    # within 1e-14 of the largest row norm in both systems is such a row.
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model(),
             "identity3": model_identity(3), "kerr+1": _kerr_plus_one(kerr),
             "eta-asym": _eta_asym_model()}[name]
    branches = branches or model.default_branches
    rng = np.random.default_rng(4)
    points = [(10.0 ** rng.uniform(-3.0, np.log10(20.0)), rng.uniform(-4.0, 4.0))
              for _ in range(12)]
    for rho, v in points + list(engine._REFERENCE_POINTS):
        ref, sel = _reference_system(model, rho, v, branches)
        plan = engine._plan_spec(engine._plan_for(model, branches), rho, v)
        want, got = (np.hstack(_full_system(s)) for s in (ref, plan))
        assert got.shape == want.shape
        norms = np.linalg.norm(want, axis=1)
        top = np.max(norms, initial=0.0)
        noise = np.maximum(norms, np.linalg.norm(got, axis=1)) <= 1e-14 * top
        real = np.any(got != 0, axis=1) & ~noise
        assert np.all(norms[~real] <= 1e-8 * top)
        assert np.all(np.max(np.abs(got - want), axis=1)[real] <= 1e-12 * norms[real])
        d_ref = _d_hat(ref, sel)
        assert abs(_d_hat(plan, sel) - d_ref) <= 1e-11 * d_ref


def test_d_evaluation_after_warm_up_skips_symbolic_work(mp5d, mvc5d, monkeypatch):
    # once the plan is compiled, D (single point, grid and a whole trace
    # alike) needs no monodromy composition, no polynomial product and no
    # root finding
    from whergo import geometry, poly

    # each box straddles the model's failure curve at y = 0
    for model, box in ((mp5d, (0.55, 0.75, -0.1, 0.1)), (mvc5d, (0.3, 0.5, -0.1, 0.1))):
        f, fgrid = geometry._d_hat_function(model, None)
        f(1.1, 0.2)
        _d(model, 1.3, 0.4)

        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic work after warm-up")
        for module, name in ((poly, "poly_mul"), (np, "roots")):
            monkeypatch.setattr(module, name, forbidden)
        R, V = np.meshgrid(np.linspace(0.3, 2.0, 4), np.linspace(-1.0, 1.0, 3), indexing="ij")
        grid = fgrid(R, V)
        assert grid[2, 1] == pytest.approx(f(R[2, 1], V[2, 1]), rel=1e-12)
        assert _d(model, 1.3, 0.4) != 0
        curve = geometry.trace_curve(model, box=box, grid=(5, 5), step=0.05, residual_tol=1e-11)
        assert len(curve) > 2
        monkeypatch.undo()


def _factored_adjugate(model):
    """adj M(omega) of the model by FactoredRational arithmetic on its
    entries' own polished roots: (uncancelled, cancelled)."""
    entries = [[FactoredRational(e.num, e.den[-1], e.den_roots) for e in row]
               for row in model.entries]
    adj = _adjugate_fr(entries, model.n)
    return adj, [[a.simplified() for a in row] for row in adj]


def _pole_counts(model, roots):
    """The multiset of omega-pole indices of roots, each root matched to its
    nearest omega pole."""
    poles = np.array(model.omega_poles, dtype=complex)
    counts = Counter()
    for r in roots:
        p = int(np.argmin(np.abs(poles - r)))
        assert abs(poles[p] - r) <= 1e-8 * max(1.0, abs(r))
        counts[p] += 1
    return counts


@pytest.mark.parametrize("name, params", [
    (name, params) for name in ("kerr", "mp5d", "mvc5d")
    for params in ((2.0, 1.0), (2.0, 0.3), (5.0, 1.7), (2.0, 1.9))]
    + [(name, None) for name in ("identity", "identity3", "eta-asym", "chain")])
def test_omega_adjugate_is_the_factored_rational_adjugate(name, params):
    # the one cofactor expansion keyed by pole index against the adjugate of
    # FactoredRational entries: the labels are the uncancelled denominators
    # (both members of each pole's pair, once per root; tau = 0 as often as
    # in the adjugate of the composed monodromy), the surviving poles those
    # that simplified() keeps, and numerator and leading coefficient agree
    # within 1e-14 relative
    model = {"kerr": model_kerr, "mp5d": model_mp5d, "mvc5d": model_mvc5d,
             "identity": model_identity, "identity3": lambda: model_identity(3),
             "eta-asym": _eta_asym_model, "chain": synthetic_chain_model}[name](*(params or ()))
    n = model.n
    _, adj = engine._omega_adjugate(model)
    uncancelled, cancelled = _factored_adjugate(model)
    tau_adj = _adjugate_fr(compose_monodromy(model, SpectralPoint(1.3, 0.4)).entries, n)
    for i in range(n):
        for j in range(n):
            num, lc, counts, kept = adj[i][j]
            labels = +Counter(dict(enumerate(counts)))      # counts are indexed by label
            poles = _pole_counts(model, uncancelled[i][j].den_roots)
            assert labels - Counter({0: labels[0]}) == Counter(
                {1 + 2 * p + side: m for p, m in poles.items() for side in (0, 1)})
            assert labels[0] == sum(r == 0 for r in tau_adj[i][j].den_roots)
            want = cancelled[i][j]
            assert Counter(kept) == _pole_counts(model, want.den_roots)
            assert num.size == want.num.size
            top = np.max(np.abs(want.num))
            assert np.max(np.abs(num - want.num)) <= 1e-14 * top
            if top:
                assert abs(lc - want.den_lc) <= 1e-14 * abs(want.den_lc)


@pytest.mark.parametrize("zero_den", [[-4.0, 0.0, 1.0], [1.0, -2.0, 1.0]])
def test_zero_entry_has_no_omega_poles(zero_den):
    # an identically zero entry is 0/1 whatever its denominator: 0/(w^2 - 4)
    # and 0/(w - 1)^2 add no omega pole, and the model factorises as the one
    # written with 0/1
    def model(den):
        return make_model([[([-1.0, 1.0], [1.0, 1.0]), ([0.0], den)],
                           [([0.0], [1.0]), ([1.0, 1.0], [-1.0, 1.0])]], eta=(1.0, 1.0))
    plain, written = model([1.0]), model(zero_den)
    assert plain.omega_poles == written.omega_poles == (-1.0, 1.0)
    for branches in (None, ("plus", "minus"), ("minus", "plus")):
        for rho, v in ((2.6, 1.9), (0.7, -0.4), (1.5, 0.2)):
            want, got = (factorise(m, rho, v, branches) for m in (plain, written))
            assert want.status is got.status
            assert (want.D_value, want.kernel_dim) == (got.D_value, got.kernel_dim)
            if want.canonical:
                assert np.array_equal(want.M_limit, got.M_limit)
    assert factorise(plain, 2.6, 1.9).canonical


def test_plan_compile_needs_no_tau_plane_work(monkeypatch):
    # the compile reads its labels from the model's omega poles: it composes
    # no monodromy and finds no root
    for build in (model_kerr, model_mp5d, model_mvc5d):
        model = build(2.0, 1.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("tau-plane work in the plan compile")
        with monkeypatch.context() as m:
            m.setattr(np, "roots", forbidden)
            plan = engine._plan_for(model, model.default_branches)
        assert model.plans[model.default_branches] is plan


def _flip_pi_label(real, label):
    """_plan_labels with the first `label` of pi_0 (an inside member) turned
    into its outside member."""
    def flipped(*args):
        pi, lk, groups = real(*args)
        row = list(pi[0])
        row[row.index(label)] = label + 1
        return (tuple(row),) + pi[1:], lk, groups
    return flipped


@pytest.mark.parametrize("build", [model_kerr, model_mp5d, model_mvc5d])
def test_plan_compile_rejects_a_wrong_label(build, monkeypatch):
    # with one pi_0 label on the wrong side of the contour, no reference
    # point yields a plan, and none is stored.  Kerr and mvc5d fail the
    # structural check (L_k / pi_j leaves a pole uncancelled); for mp5d
    # the structure holds and the plan's own factorisation at the reference
    # point misses its residual gates
    monkeypatch.setattr(engine, "_plan_labels", _flip_pi_label(engine._plan_labels, 1))
    model = build(2.0, 1.0)
    with pytest.raises(NonSquareSystem) as info:
        engine._plan_for(model, model.default_branches)
    assert not model.plans
    if model.model_id == "mp5d":
        assert "does not factorise" in str(info.value)


@pytest.mark.parametrize("first_degenerate", [False, True], ids=["first", "second"])
def test_plan_compile_assembles_once_per_reference_point(first_degenerate, monkeypatch):
    # on a fresh model the compile evaluates the plan's spec and assembles
    # its rows once at each reference point it tries: the D-row selection
    # and the plan's own factorisation there read the same rows.  With the
    # first reference point degenerate, the compile tries two
    counts = dict.fromkeys(("_compile_plan", "_plan_spec", "_assemble_rows"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(engine, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(engine, name, counted)
    real = engine._greedy_rows

    def greedy(a, k):
        sel, margin = real(a, k)
        return sel, (1e-9 if first_degenerate and counts["_compile_plan"] == 1 else margin)
    monkeypatch.setattr(engine, "_greedy_rows", greedy)
    for build in (model_kerr, model_mp5d, model_mvc5d):
        counts.update(dict.fromkeys(counts, 0))
        model = build(2.0, 1.0)
        engine._plan_for(model)
        tried = 2 if first_degenerate else 1
        assert counts == dict.fromkeys(counts, tried), build.__name__


def test_plan_compile_skips_degenerate_reference_points(monkeypatch):
    # a reference point where the homogeneous system has no row selection
    # with margin 1e-8 is skipped for the next; an error of any other kind
    # is a bug and propagates, and no plan is stored
    real = engine._greedy_rows
    refs = []
    real_compile = engine._compile_plan

    def recorded(model, branches, adj, rho_ref, v_ref):
        refs.append((rho_ref, v_ref))
        return real_compile(model, branches, adj, rho_ref, v_ref)

    def first_degenerate(a, k):
        sel, margin = real(a, k)
        return sel, (1e-9 if len(refs) == 1 else margin)
    monkeypatch.setattr(engine, "_compile_plan", recorded)
    monkeypatch.setattr(engine, "_greedy_rows", first_degenerate)
    model = model_kerr(2.0, 1.0)
    plan = engine._plan_for(model, model.default_branches)
    assert refs == list(engine._REFERENCE_POINTS[:2])
    assert model.plans[model.default_branches] is plan
    assert factorise(model, 2.1, 0.6).canonical

    for exc in (TypeError("bug"), DegenerateZeros("coincident inside zeros")):
        def broken(a, k, _exc=exc):
            raise _exc
        monkeypatch.setattr(engine, "_greedy_rows", broken)
        fresh = model_kerr(2.0, 1.0)
        with pytest.raises(type(exc)):
            engine._plan_for(fresh, fresh.default_branches)
        assert not fresh.plans


def test_check_taus_falls_back_to_the_farthest_radius():
    # every candidate circle carries a pole; the fallback must take the
    # circle whose samples stay farthest from all poles (1.17 here), not the last
    first = np.exp(2j * np.pi * 0.37 / 12)            # angle of the first sample
    gaps = {1.0: 0.01, 1.17: 0.05, 0.83: 0.02, 1.31: 0.03, 0.67: 0.04}
    poles = np.array([(r + g) * first for r, g in gaps.items()])
    taus = engine._CHECK_CIRCLES[engine._check_circle(poles)]
    assert np.allclose(np.abs(taus), 1.17)
    assert taus == engine._CHECK_CIRCLES[engine._check_circle(poles)]


def _check_taus_loop(poles, count=12):
    """The check circle tried one radius at a time: the rule _check_circle
    applies to its module constants."""
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    best, best_gap = None, -1.0
    for radius in (1.0, 1.17, 0.83, 1.31, 0.67):
        taus = tuple(radius * np.exp(2j * np.pi * (k + 0.37) / count) for k in range(count))
        gap = float(np.min(np.abs(np.array(taus)[:, None] - poles), initial=np.inf))
        if gap > 0.08:
            return taus
        if gap > best_gap:
            best, best_gap = taus, gap
    return best


def _monodromy_check_taus(mono):
    """The check points picked from the poles of the composed monodromy's
    entries (tau = 0 and both members of every zero pair): the rule
    factorise applied before it read the poles off the plan."""
    return list(_check_taus_loop([r for row in mono.entries for fr in row for r in fr.den_roots]))


def _taylor_rows_loop(groups, width):
    """Rows taking the coefficients of a polynomial (`width` of them) to its
    Taylor coefficients of orders o < m at every (root, m) of groups, one
    root at a time: the reference for the layout's Taylor tables."""
    t = np.arange(width)
    rows = []
    for root, mult in groups:
        comb = np.ones(width)                      # C(t, o), zero for t < o
        for o in range(mult):
            rows.append(comb * complex(root) ** np.maximum(t - o, 0))
            comb = comb * (t - o) / (o + 1)
    return np.array(rows).reshape(-1, width)


def _root_lists(labels, roots):
    """(pi_roots, lk_roots, inside_groups) at one point: the label tuples
    with each label replaced by its root in roots (the spec's label
    values), one Python value per root."""
    pi, lk, groups = labels
    return ([tuple(roots[lab] for lab in ls) for ls in pi],
            [tuple(roots[lab] for lab in ls) for ls in lk],
            [[(roots[lab], m) for lab, m in g] for g in groups])


def _den_rows(factor):
    """The row denominators of a factor as one tuple of roots per row, in
    slot order."""
    return tuple(tuple(row[on]) for row, on in zip(factor.den_roots, factor.den_on))


def _factors_loop(spec, sol, lists):
    """_factors with the Taylor rows built one root at a time and NUM_k
    deflated one component, one column and one root at a time, and with X's row
    denominators L_k's roots (lists: _root_lists's) with each inside root
    removed from them in turn; returns (X numerators, X row denominators,
    M_minus numerators, pole_resid)."""
    _, lk_roots, inside_groups = lists
    n, lay, base = spec.n, spec.layout, spec.base_polys
    shift = np.arange(lay.cmax - 1 + base.shape[2])[:, None] - lay.ccol
    conv = np.where((shift >= 0) & (shift < base.shape[2]),
                    base[:, lay.jcol, np.clip(shift, 0, base.shape[2] - 1)], 0.0)
    nums = conv @ sol
    poles = [rm for g in inside_groups for rm in g]
    owner = [k for k, g in enumerate(inside_groups) for _, m in g for _ in range(m)]
    values = np.einsum("rt,rti->ri", _taylor_rows_loop(poles, shift.shape[0]), nums[owner])
    terms = (_taylor_rows_loop([(max(1.0, abs(r)), m) for r, m in poles], shift.shape[0]).real
             @ (np.abs(conv) @ np.abs(sol)).max(axis=0))
    pole_resid = float(np.max(np.abs(values) / np.maximum(terms, 1e-300), initial=0.0))
    minus = np.zeros((n, n, lay.cmax), dtype=complex)
    minus[lay.jcol, :, lay.ccol] = sol
    plus = np.zeros((n, n, shift.shape[0]), dtype=complex)
    den_plus = []
    for k, groups in enumerate(inside_groups):
        cols, den = list(nums[k].T), list(lk_roots[k])
        for root, mult in groups:
            for _ in range(mult):
                cols = [poly_deflate(c, root) for c in cols]
                den.remove(root)
        plus[k, :, :cols[0].size] = cols
        den_plus.append(tuple(den))
    return plus, tuple(den_plus), minus, pole_resid


def _tau_eval_loop(nums, den_roots, adjugate, t):
    """RationalMatrixTau.eval at an array t, one row denominator and one
    root at a time."""
    val = nums[..., -1, None] + 0.0 * t
    for k in range(nums.shape[-1] - 2, -1, -1):
        val = nums[..., k, None] + val * t
    for r, roots in enumerate(den_roots):
        den = np.ones_like(t)
        for root in roots:
            den = den * (t - root)
        val[r] = val[r] / den
    val = np.moveaxis(val, -1, 0)
    return engine._adjugate(val) if adjugate else val


def _report_loop(model, rho, v, pi_roots, factors):
    """The residual report from the per-root factors (M_minus over the
    roots pi_roots): the check circle tried one radius at a time, M(tau)
    entry by entry, X evaluated apart at the check points and at tau = 0."""
    plus, den_plus, minus, pole_resid = factors
    plan = engine._plan_for(model, model.default_branches)
    poles = engine._label_values(plan.omega_poles, plan.plus, np.array([rho]), np.array([v]))
    taus = _check_taus_loop(poles)
    t = np.array(taus)
    omega = v + 0.5 * rho * (1.0 - t * t) / t
    m_val = np.moveaxis(np.array([[poly_eval(e.num, omega) / poly_eval(e.den, omega)
                                   for e in row] for row in model.entries]), -1, 0)
    scale = np.maximum(1.0, np.max(np.abs(m_val), axis=(-2, -1)))
    prod = _tau_eval_loop(minus, pi_roots, False, t) @ _tau_eval_loop(plus, den_plus, True, t)
    x0 = _tau_eval_loop(plus, den_plus, True, np.zeros(1, dtype=complex))[0]
    return engine.ResidualReport(
        float(np.max(np.max(np.abs(m_val - prod), axis=(-2, -1)) / scale)),
        float(np.max(np.abs(x0 - np.eye(model.n)))), taus, pole_resid)


@pytest.mark.parametrize("name", ["kerr", "mp5d", "mvc5d", "chain"])
def test_factors_are_the_per_root_loops_bitwise(name, kerr, mp5d, mvc5d):
    # the plan's Taylor tables, the deflation by root position, the masked
    # row denominators and the stacked Horner pass of model.eval compute
    # what the per-root loops compute, bit for bit: the factors' numerators
    # (X's at the xwidth coefficients the deflation can fill, the loops'
    # beyond them all zero) and denominators and every field of the
    # residual report, at canonical draws and at points 1e-4..1e-2 beyond
    # the failure curve
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model()}[name]
    plan, labels = compiled_labels(model)
    points = [(rho, v) for rho, v, _ in _canonical_draws(model, 12, seed=62)]
    if name != "chain":
        rng = np.random.default_rng(63)
        ys = rng.uniform(-0.85, 0.85, 12)
        du = 10.0 ** rng.uniform(-4.0, -2.0, 12)
        points += _on_curve_points(kerr, mp5d, mvc5d, ys, du)[name]
    compared = 0
    for rho, v in points:
        out = factorise(model, rho, v)
        if not out.canonical:
            continue
        spec = engine._plan_spec(plan, rho, v)
        lists = _root_lists(labels, spec.roots)
        ref = _factors_loop(spec, evaluate_points(model, rho, v).solution, lists)
        width = spec.layout.xwidth
        assert np.array_equal(out.X.nums, ref[0][..., :width]) and _den_rows(out.X) == ref[1]
        assert not ref[0][..., width:].any()
        assert np.array_equal(out.M_minus.nums, ref[2]) and list(_den_rows(out.M_minus)) == lists[0]
        assert out.residual_report == _report_loop(model, rho, v, lists[0], ref)
        compared += 1
    assert compared >= (12 if name == "chain" else 20)


# inside groups (label, multiplicity) per component: component 0 leaves
# the deflation stack after the first position, component 1 after the
# third, so that every segment of positions but the first starts where
# components leave
_LEAVING_GROUPS = (((1, 1),), ((1, 2), (3, 1)), ((3, 2), (5, 2)))
_LEAVING_ROOTS = (0.0, 1.0, -1j, 0.6 - 0.3j, -0.9, 1.1 + 0.9j, -40.0, 3.0, 2.5 - 1.5j)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_LEAVING_ROOTS), min_size=5, max_size=5),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example([0.6 - 0.3j, 0.0, 1.0, -0.9, -1j], False, 1)
@example([3.0, -40.0, 1.1 + 0.9j, 2.5 - 1.5j, -40.0], True, 2)
def test_deflation_with_components_leaving_is_poly_deflate_root_by_root_bitwise(roots, real, seed):
    # _deflated_numerators divides NUM_k of every column by the roots of
    # component k's inside groups, whatever the recurrences of the roots at
    # each position, components leaving the stack on the way, as
    # poly_deflate divides each column root by root, bit for bit (-0.0
    # coefficients and real numerators included)
    lk = [(0, 1, 2), (1, 1, 3, 4), (3, 3, 5, 5, 6)]
    lay = engine._row_layout(6, [(1,), (1, 3), (3, 5)], lk, _LEAVING_GROUPS,
                             np.full((3, 3, 0), -1, dtype=int))
    assert [seg[0].size for seg in lay.segments] == [0, 1, 1]
    rng = np.random.default_rng(seed)
    size = lay.gather.shape[0]
    nums = rng.normal(size=(3, size, 3))
    if not real:
        nums = nums + 1j * rng.normal(size=nums.shape)
    nums[rng.random(nums.shape) < 0.15] = -0.0
    inside = np.array(roots, dtype=complex)           # one root per inside group
    plus = engine._deflated_numerators(lay, nums, inside)
    assert plus.shape == (3, 3, lay.xwidth)
    group = 0
    for k, groups in enumerate(_LEAVING_GROUPS):
        order = [g for g, (_, m) in enumerate(groups, start=group) for _ in range(m)]
        group += len(groups)
        for c in range(3):
            col = nums[k, :, c].astype(complex)
            for g in order:
                col = poly_deflate(col, inside[g])
            assert plus[k, c, :col.size].tobytes() == col.tobytes()
            assert not plus[k, c, col.size:].any()


def _factor_columns_loop(spec, sol, lists):
    """The psi_+ and psi_- columns of the solved ansatz at one point, one
    column and one inside root at a time, as FactoredRational entries
    (lists: _root_lists's)."""
    pi_roots, lk_roots, inside_groups = lists
    n, base = spec.n, spec.base_polys
    cols_plus, cols_minus = [], []
    for i in range(n):
        s = [sol[spec.layout.jcol == j, i] for j in range(n)]
        cols_minus.append([FactoredRational(s[j], 1.0, tuple(pi_roots[j]))
                           for j in range(n)])
        plus = []
        for k in range(n):
            num = np.zeros(base.shape[2] + max(map(len, s)) - 1, dtype=complex)
            for j in range(n):
                term = np.convolve(base[k, j], s[j])
                num[:term.size] += term
            den = list(lk_roots[k])
            for root, mult in inside_groups[k]:
                for _ in range(mult):
                    num = poly_deflate(num, root)
                    den.remove(root)
            plus.append(FactoredRational(num, 1.0, tuple(den)))
        cols_plus.append(plus)
    return cols_plus, cols_minus


def _canonical_draws(model, count, seed):
    rng = np.random.default_rng(seed)
    while count:
        rho, v = 10.0 ** rng.uniform(np.log10(0.3), 1.0), rng.uniform(-4.0, 4.0)
        out = factorise(model, rho, v)
        if out.canonical:
            count -= 1
            yield rho, v, out


@pytest.mark.parametrize("name", ["kerr", "mp5d", "mvc5d", "chain"])
def test_numeric_factors_match_the_symbolic_construction(name, kerr, mp5d, mvc5d):
    # X and M_minus evaluate an array of tau as the stack of scalar calls,
    # bitwise; both match the symbolic adjugate of the solved columns, built
    # one column and one root at a time, on the check circle, and the check
    # circle is the one the composed monodromy's poles pick
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model()}[name]
    n = model.n
    plan, labels = compiled_labels(model)
    for rho, v, out in _canonical_draws(model, 20, seed=61):
        _, _, mono = _setup(model, rho, v)
        taus = np.array(out.residual_report.check_points)
        assert list(out.residual_report.check_points) == _monodromy_check_taus(mono)
        for factor in (out.X, out.M_minus):
            got = factor.eval(taus)
            assert got.shape == (taus.size, n, n)
            assert np.array_equal(got, np.stack([factor.eval(t) for t in taus]))
        spec = engine._plan_spec(plan, rho, v)
        cols_plus, cols_minus = _factor_columns_loop(
            spec, evaluate_points(model, rho, v).solution, _root_lists(labels, spec.roots))
        x_sym = _adjugate_fr([[cols_plus[i][k] for i in range(n)] for k in range(n)], n)
        for factor, entries in ((out.X, x_sym),
                                (out.M_minus, [[cols_minus[i][j] for i in range(n)]
                                               for j in range(n)])):
            want = np.moveaxis(np.array([[e(taus) for e in row] for row in entries]), -1, 0)
            err = np.max(np.abs(factor.eval(taus) - want), axis=(1, 2))
            assert np.all(err <= 1e-10 * np.max(np.abs(want), axis=(1, 2)))


@pytest.mark.parametrize("kept", [(2, 1), (0, 2), (1, 0)])
def test_deflation_by_root_position_with_fewer_roots_in_a_component(kept, kerr):
    # a component with fewer inside roots than another leaves the deflation
    # early and keeps its longer quotient: Kerr's spec with only the first
    # kept[k] groups of component k, against the per-root loops, whose
    # numerators are zero beyond the xwidth coefficients X keeps
    plan, (pi, lk, groups) = compiled_labels(kerr)
    spec = engine._plan_spec(plan, 2.1, 0.6)
    groups = [g[:keep] for g, keep in zip(groups, kept)]
    layout = engine._row_layout(spec.num_polys.shape[2], pi, lk, groups, plan.layout.extras)
    short = dataclasses.replace(spec, layout=layout)
    sol = evaluate_points(kerr, 2.1, 0.6).solution
    X, M_minus, pole_resid = engine._factors(short, sol)
    plus, den_plus, minus, want_resid = _factors_loop(
        short, sol, _root_lists((pi, lk, groups), spec.roots))
    assert np.array_equal(X.nums, plus[..., :layout.xwidth]) and _den_rows(X) == den_plus
    assert not plus[..., layout.xwidth:].any()
    assert np.array_equal(M_minus.nums, minus) and pole_resid == want_resid


@pytest.mark.parametrize("name, branches", [
    ("kerr", ("minus", "minus")), ("kerr", ("plus", "minus")), ("kerr", ("minus", "plus")),
    ("kerr", ("plus", "plus")), ("mp5d", None), ("mvc5d", None), ("chain", None)])
def test_layout_root_tables_are_the_label_multisets(name, branches, kerr, mp5d, mvc5d,
                                                    monkeypatch):
    # the root tables the layout compiles once, against the label tuples of
    # the compile: X's row denominators are L_k's labels with every inside
    # root removed one at a time, M_minus's are pi_j's labels, and L_k's
    # labels other than tau = 0 are the l0 table.  None
    # is the model's default branch tuple, resolved by _plan_for: one plan
    # and one compile serve both
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model()}[name]
    plan, (pi, lk, groups) = compiled_labels(model, branches)
    lay = plan.layout

    def rows(table):
        return [row[row >= 0].tolist() for row in table]
    xden = []
    for labels, inside in zip(lk, groups):
        den = list(labels)
        for lab, mult in inside:
            for _ in range(mult):
                den.remove(lab)
        xden.append(den)
    assert rows(lay.xden) == xden
    assert rows(lay.pi) == [list(labels) for labels in pi]
    assert rows(lay.l0) == [[lab for lab in labels if lab] for labels in lk]
    assert lay.groot.tolist() == [lab for inside in groups for lab, _ in inside]

    fresh = dataclasses.replace(model)
    compiled = []
    monkeypatch.setattr(engine, "_compile_plan", lambda *args, _real=engine._compile_plan:
                        compiled.append(args[1]) or _real(*args))
    assert engine._plan_for(fresh, None) is engine._plan_for(fresh, fresh.default_branches)
    assert compiled == [fresh.default_branches]


def test_factorise_after_warm_up_skips_symbolic_work(kerr, mp5d, mvc5d, monkeypatch):
    # once the model's plan is compiled, a factorisation (canonical or on the
    # curve) composes no monodromy, builds no symbolic adjugate, multiplies
    # no polynomials and finds no roots; a canonical one and assemble_M
    # evaluate no polynomial entry by entry, and deflate in one pass per run
    # of root positions whose roots take one recurrence, not once per root
    # or per position
    from whergo import catalog, poly

    on_curve = _on_curve_points(kerr, mp5d, mvc5d, (0.2,))
    cases = ((kerr, (2.1, 0.6), on_curve["kerr"][0]),
             (mp5d, (1.7, 0.3), on_curve["mp5d"][0]),
             (mvc5d, (1.4, 0.2), on_curve["mvc5d"][0]))
    for model, canonical, curve in cases:
        for point in (canonical, curve):
            factorise(model, *point)
        groups = compiled_labels(model)[1][2]

        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic work after warm-up")
        for module, name in ((engine, "_omega_adjugate"), (poly, "poly_mul"), (np, "roots"),
                             (poly, "poly_eval"), (catalog, "poly_eval")):
            monkeypatch.setattr(module, name, forbidden)
        deflations, passes = [], []

        def deflate(p, root, _real=engine.deflate_positions):
            deflations.append((np.abs(root) <= 1.0).tolist())
            return _real(p, root)
        monkeypatch.setattr(engine, "deflate_positions", deflate)
        for name in ("_quotients_forward", "_quotients_reversed"):
            def one_pass(p, root, _real=getattr(poly, name)):
                passes.append(len(root))
                return _real(p, root)
            monkeypatch.setattr(poly, name, one_pass)
        out = factorise(model, *canonical)
        assert out.canonical and out.residual_report.factorisation <= 1e-9
        assemble_M(out, check=True)
        # one call per segment of positions (no component leaves the stack
        # here), one pass per run of positions of one recurrence (the
        # components divide by one label at each position)
        positions = [row for call in deflations for row in call]
        assert len(positions) == max(sum(m for _, m in g) for g in groups)
        assert len(deflations) == len(engine._plan_for(model).layout.segments) == 1
        assert all(len(set(row)) == 1 for row in positions)
        runs = [len(list(run)) for call in deflations
                for _, run in itertools.groupby(row[0] for row in call)]
        assert passes == runs
        assert factorise(model, *curve).status is Status.DEGENERATE
        monkeypatch.undo()


def test_residual_report_checks_det_m_at_the_check_points(kerr, monkeypatch):
    # det M = 1 is enforced where M is evaluated for the residual check
    out = factorise(kerr, 2.1, 0.6)
    assert out.canonical
    real_eval = type(kerr).eval
    monkeypatch.setattr(type(kerr), "eval", lambda self, w: 1.001 * real_eval(self, w))
    with pytest.raises(InvariantViolation):
        factorise(kerr, 2.1, 0.6)


# ---------------------------------------------------------------------------
# the compiled one-point tables against the per-call arithmetic they replace
# ---------------------------------------------------------------------------

TABLE_CASES = [(builder, branches, m, a)
               for builder, branches in ((model_kerr, None), (model_kerr, ("plus", "minus")),
                                         (model_mp5d, None), (model_mvc5d, None))
               for m, a in ((2.0, 1.0), (5.0, 1.7))]


def _the_300_draws():
    rng = np.random.default_rng(1)
    rho = 10.0 ** rng.uniform(-3.0, np.log10(20.0), 300)
    return rho, rng.uniform(-4.0, 4.0, 300)


def _per_call_system(spec, m0):
    """(normalisation rows, l0, B) as the assembly built them at every call
    before the layout compiled its tables: index arithmetic on m0 (the
    multiplicity of tau = 0 in each L_k) and ccol, the roots extended by a
    row of ones, and a zero B filled by fancy index."""
    lay, n = spec.layout, spec.n
    base = engine._flat(spec.base_polys, 3)
    idx = m0[:, None] - lay.ccol
    norm = (base[np.arange(n)[:, None], lay.jcol, np.clip(idx, 0, base.shape[2] - 1)]
            * ((idx >= 0) & (idx < base.shape[2]))[..., None])
    roots = engine._flat(spec.roots, 1)
    l0 = np.prod(np.concatenate([-roots, np.ones((1, roots.shape[1]))])[lay.l0], axis=1)
    rows = lay.cell.shape[0] + n
    B = np.zeros(spec.batch + (rows, n), dtype=np.result_type(base, roots))
    B[..., rows - n + np.arange(n), np.arange(n)] = l0.T.reshape(spec.batch + (n,))
    return engine._batch_first(norm, spec.batch), l0.T.reshape(spec.batch + (n,)), B


def _per_call_residual(A, B, sol):
    """_system_residual as it read the full B."""
    def largest(x):
        square = x.real * x.real
        if np.iscomplexobj(x):
            square += x.imag * x.imag
        return np.sqrt(square.max(axis=(-2, -1)))
    scale = np.maximum(np.maximum(1.0, largest(B)), largest(A) * np.maximum(1.0, largest(sol)))
    return largest(A @ sol - B), scale


@pytest.mark.parametrize("builder, branches, m, a", TABLE_CASES)
def test_compiled_tables_are_the_per_call_arithmetic_bitwise(builder, branches, m, a):
    # the normalisation gather and mask, the l0 table, the square-system row
    # order, the right-hand sides and the residual read from l0 reproduce
    # the arithmetic they replace bit for bit, at the 300 draws as one batch
    # and at single points; the column norms of _kernel_dim are
    # equilibrate's
    model = builder(m, a)
    plan, (_, lk, _) = compiled_labels(model, branches)
    m0 = np.array([labels.count(0) for labels in lk])
    rho, v = _the_300_draws()
    for at in [(rho, v)] + [(rho[i], v[i]) for i in range(0, 300, 30)]:
        spec = engine._plan_spec(plan, *at)
        n = spec.n
        A, l0 = _assemble_inhomogeneous(spec, engine._assemble_rows(spec))
        norm, want_l0, B = _per_call_system(spec, m0)
        assert A[..., -n:, :].tobytes() == norm.tobytes()
        assert l0.tobytes() == want_l0.tobytes()
        top = A.shape[-2]
        assert np.array_equal(plan.square_rows,
                              np.concatenate([plan.selected_rows, np.arange(top - n, top)]))
        rows = plan.square_rows
        assert (engine._right_hand_sides(l0, rows.size, A.dtype).tobytes()
                == B[..., rows, :].tobytes())
        sol = engine._evaluate(plan, spec, A, l0, 1e-9).solution
        assert all(x.tobytes() == y.tobytes() for x, y in
                   zip(engine._system_residual(A, l0, sol), _per_call_residual(A, B, sol)))
        a0 = A[..., :-n, spec.layout.hom]
        assert engine.row_scaled(a0)[1].tobytes() == equilibrate(a0)[1].tobytes()


@pytest.mark.parametrize("name", ["kerr", "mp5d", "mvc5d", "chain"])
def test_factor_values_are_the_factors_evals_bitwise(name, kerr, mp5d, mvc5d):
    # the residual report reads the factors through their own eval: its
    # factorisation residual and X(0) gap are those of X.eval and
    # M_minus.eval at the check points and at tau = 0, X holds the xwidth
    # coefficients the deflation can fill, and the Richardson estimate is
    # the one assemble_M took from M_minus.eval at the two large taus, bit
    # for bit
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model()}[name]
    plan = engine._plan_for(model)
    for rho, v, out in _canonical_draws(model, 12, seed=64):
        report = out.residual_report
        assert out.X.nums.shape == (model.n, model.n, plan.layout.xwidth)
        taus = np.array(report.check_points)
        m_val = model.eval(spectral_map(SpectralPoint(rho, v), taus)).transpose(2, 0, 1)
        scale = np.maximum(1.0, np.abs(m_val).max(axis=(-2, -1)))
        resid = np.abs(m_val - out.M_minus.eval(taus) @ out.X.eval(taus)).max(axis=(-2, -1))
        assert report.factorisation == float((resid / scale).max())
        assert report.x_at_zero == float(np.abs(out.X.eval(0.0) - np.eye(model.n)).max())
        pole = np.abs(out.M_minus.den_roots[out.M_minus.den_on]).max(initial=1.0)
        far = pole * np.array([1e4, 1e6])
        vals = out.M_minus.eval(far)
        extrapolated = (far[1] * vals[1] - far[0] * vals[0]) / (far[1] - far[0])
        assert out.M_richardson.tobytes() == extrapolated.tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_an_empty_batch_is_an_empty_point_batch(shape, kerr, mp5d, mvc5d):
    # no points: every field of the batch, and the tracer's D and scale,
    # carry the input's batch shape
    for model in (kerr, mp5d, mvc5d):
        rho, v = np.ones(shape), np.zeros(shape)
        batch = evaluate_points(model, rho, v)
        assert (batch.D_value.shape == batch.D_scale.shape == batch.kernel_dim.shape
                == batch.consistent.shape == batch.canonical.shape == shape)
        assert batch.M_limit.shape == shape + (model.n, model.n)
        d, scale = _d_with_scale(model, rho, v)
        assert d.shape == scale.shape == shape
    assert evaluate_points(kerr, [], []).D_value.shape == (0,)
