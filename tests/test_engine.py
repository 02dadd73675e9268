import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (kerr_delta_closed_form, kerr_fh, mp5d_solution_closed_form,
                      mvc_closed_form, mvc_closed_form_D)
from whergo.catalog import (
    DegreeTable,
    MonodromyMatrixTau,
    compose_monodromy,
    make_model,
    model_identity,
    model_kerr,
)
import whergo.engine as engine
from whergo.engine import (
    Classification,
    Status,
    _assemble_homogeneous,
    _assemble_inhomogeneous,
    _d_with_scale,
    assemble_M,
    build_ansatz,
    classify_2x2,
    compute_D,
    evaluate_points,
    existence_system_2x2,
    factorise,
    toeplitz_kernel_dim,
)
from whergo.errors import DegenerateZeros, InvariantViolation, NotCanonical
from whergo.poly import FactoredRational, dense_det, numerical_nullity, poly_deflate, poly_from_roots
from whergo.spectral import SpectralPoint, build_partition, weyl_from_prolate_4d, weyl_from_prolate_5d

M_K, A_K = 2.0, 1.0
C_K = np.sqrt(M_K ** 2 - A_K ** 2)


def _setup(model, rho, v, branches=None):
    pt = SpectralPoint(rho, v)
    part = build_partition(pt, model.omega_poles, branches or model.default_branches)
    mono = compose_monodromy(model, pt)
    return pt, part, mono


def _plan_spec_at(mono, part):
    """The plan's AnsatzSpec at the monodromy's Weyl point."""
    plan = engine._plan_for(mono.model, engine._branches_of(mono.model, part))
    return engine._plan_spec(plan, mono.pt.rho, mono.pt.v)


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


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_kerr_is_determinant_test(kerr):
    _, _, mono = _setup(kerr, 1.1, 0.4)
    res = classify_2x2(mono)
    assert res.kind is Classification.DETERMINANT_TEST
    assert res.N1 + res.N2 == res.two_n == 4


def test_classify_chain_is_reducible():
    model = synthetic_chain_model()
    _, _, mono = _setup(model, 1.3, 0.4)
    res = classify_2x2(mono)
    assert res.kind is Classification.REDUCIBLE_CASE
    assert res.transcript and "tau = 0" in res.transcript
    assert (res.N1, res.N2, res.two_n) == (3, 2, 4)


def test_classify_diagonal_is_determinant_test():
    model = model_kerr(2.0, 0.0)
    _, _, mono = _setup(model, 1.5, 0.2)
    res = classify_2x2(mono)
    assert res.kind is Classification.DETERMINANT_TEST


def test_classify_always_canonical_stub():
    # N1 + N2 < 2n is unreachable for composed monodromies (the degree
    # bookkeeping forces N1 + N2 >= 2n); a degree-table stub exercises the
    # fast path, which must not touch entries at all
    stub = MonodromyMatrixTau(2, SpectralPoint(1.0, 0.0), None, None, (),
                              DegreeTable(k11=1, k12=0, k22=1, n=2))
    res = classify_2x2(stub)
    assert res.kind is Classification.ALWAYS_CANONICAL
    assert toeplitz_kernel_dim(stub, None) == 0   # fast path, no solve


# ---------------------------------------------------------------------------
# existence system and D
# ---------------------------------------------------------------------------


def test_existence_system_on_curve_singular(kerr):
    # u(0) = m = 2 maps to (rho, v) = (1, 0) for m=2, a=1
    u = np.sqrt(M_K ** 2)
    assert weyl_from_prolate_4d(u, 0.0, C_K) == pytest.approx((1.0, 0.0))
    _, part, mono = _setup(kerr, 1.0, 0.0)
    A = existence_system_2x2(mono, part)
    assert A.shape == (4, 4)
    assert numerical_nullity(A) == 1


def test_existence_system_off_curve_regular(kerr):
    # u = sqrt(9 + 3) = 2 sqrt(3) > 2 = u_ergo(0)
    _, part, mono = _setup(kerr, 3.0, 0.0)
    A = existence_system_2x2(mono, part)
    assert numerical_nullity(A) == 0


def test_existence_system_det_equals_fh(kerr, rng):
    for _ in range(20):
        rho = rng.uniform(0.3, 4.0)
        v = rng.uniform(-3.0, 3.0)
        _, part, mono = _setup(kerr, rho, v)
        d_val = dense_det(existence_system_2x2(mono, part))
        fh = kerr_fh(rho, v)
        assert abs(d_val - fh) <= 1e-8 * abs(fh)


def test_existence_system_degenerate_zeros(kerr):
    from whergo.spectral import PolePartition, ZeroPair, zero_pair_for
    pt, _, mono = _setup(kerr, 1.1, 0.3)
    zp1 = zero_pair_for(pt, C_K, "minus")
    # fabricate a second pair whose inside member collides with the first
    t_in = zp1.tau_in + 1e-12
    zp2 = ZeroPair(t_in, -1.0 / t_in, -C_K, "minus")
    bad = PolePartition((zp1, zp2), 1)
    with pytest.raises(DegenerateZeros):
        existence_system_2x2(mono, bad)


def test_build_partition_rejects_duplicate_insides():
    with pytest.raises(Exception):
        build_partition(SpectralPoint(1.1, 0.3), [C_K, C_K], ["minus", "minus"])


def test_compute_d_sign_change_across_curve(kerr):
    _, part_lo, mono_lo = _setup(kerr, 0.8, 0.0)
    _, part_hi, mono_hi = _setup(kerr, 1.2, 0.0)
    d_lo = compute_D(mono_lo, part_lo)
    d_hi = compute_D(mono_hi, part_hi)
    assert d_lo.real * d_hi.real < 0.0


def test_compute_d_identity_model():
    model = model_identity(2)
    _, part, mono = _setup(model, 1.3, 0.2)
    assert compute_D(mono, part) == pytest.approx(1.0)
    assert toeplitz_kernel_dim(mono, part) == 0


def test_mp5d_d_vanishes_on_ergosurface_line(mp5d):
    al, L = mp5d.params["alpha"], mp5d.params["L"]
    for y in (-0.6, 0.0, 0.7):
        u = (2.0 - L * y) / (2.0 - L)
        rho, v = weyl_from_prolate_5d(u, y, al)
        _, part, mono = _setup(mp5d, rho, v)
        assert toeplitz_kernel_dim(mono, part) == 1
        rho2, v2 = weyl_from_prolate_5d(1.06 * u, y, al)
        _, part2, mono2 = _setup(mp5d, rho2, v2)
        assert toeplitz_kernel_dim(mono2, part2) == 0


def test_mvc5d_d_vanishes_on_condition_curve(mvc5d):
    m, a = mvc5d.params["m"], mvc5d.params["a"]
    al = mvc5d.params["alpha"]
    for y in (-0.5, 0.0, 0.4):
        u = np.sqrt(y * y + (m / (2 * al)) * (1 - y * y))
        rho, v = weyl_from_prolate_5d(u, y, al)
        _, part, mono = _setup(mvc5d, rho, v)
        assert toeplitz_kernel_dim(mono, part) == 1


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
    _, part, mono = _setup(model, 1.3, 0.4)
    spec = _plan_spec_at(mono, part)
    A = _assemble_homogeneous(spec)[spec.selected_rows, :]
    assert A.shape[0] == A.shape[1] > 0
    assert numerical_nullity(A) == 0
    assert abs(compute_D(mono, part)) > 0


def _on_curve_points(kerr, mp5d, mvc5d, ys):
    """Closed-form failure-curve points: Kerr ergosurface, mp5d ergosurface
    line, mvc5d condition curve."""
    al, L = mp5d.params["alpha"], mp5d.params["L"]
    al_v, m_v = mvc5d.params["alpha"], mvc5d.params["m"]
    return {
        "kerr": [weyl_from_prolate_4d(np.sqrt(M_K ** 2 - A_K ** 2 * y * y), y, C_K)
                 for y in ys],
        "mp5d": [weyl_from_prolate_5d((2.0 - L * y) / (2.0 - L), y, al) for y in ys],
        "mvc5d": [weyl_from_prolate_5d(np.sqrt(y * y + (m_v / (2 * al_v)) * (1 - y * y)),
                                       y, al_v) for y in ys],
    }


def test_factorise_d_matches_homogeneous_assembly(kerr, mp5d, mvc5d, rng):
    # factorise takes D and the kernel from its full system; the D-only
    # callers assemble the homogeneous system alone; both must agree exactly.
    # factorise is evaluate_points at one point: D, its scale and M agree
    # bitwise with the batch
    on_curve = _on_curve_points(kerr, mp5d, mvc5d, (-0.6, 0.1, 0.7))
    for name, model in (("kerr", kerr), ("mp5d", mp5d), ("mvc5d", mvc5d)):
        off_curve = [(rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0)) for _ in range(6)]
        canonical = 0
        for rho, v in off_curve + on_curve[name]:
            out = factorise(model, rho, v)
            _, part, mono = _setup(model, rho, v)
            assert (out.D_value, out.D_scale) == _d_with_scale(model, rho, v)
            batch = evaluate_points(model, rho, v)
            assert (out.D_value, out.D_scale) == (batch.D_value, batch.D_scale)
            if out.canonical:
                canonical += 1
                assert np.array_equal(out.M_limit, batch.M_limit)
            if (rho, v) in on_curve[name]:
                assert out.status is Status.DEGENERATE
                assert out.kernel_dim == toeplitz_kernel_dim(mono, part) == 1
        assert canonical >= 3


def test_factorise_builds_one_system(kerr, mp5d, mvc5d, monkeypatch):
    # model constants and the ansatz plan are computed once per model; each
    # call then builds no ansatz, assembles one system from the plan and
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
        counts = {"build_ansatz": 0, "_assemble_rows": 0, "roots": 0}
        for module, name in ((engine, "build_ansatz"), (engine, "_assemble_rows"),
                             (np, "roots")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        out = factorise(model, rho, v)
        monkeypatch.undo()
        assert out.status is status
        assert out.kernel_dim == (status is Status.DEGENERATE)
        assert counts == {"build_ansatz": 0, "_assemble_rows": 1, "roots": 0}


# ---------------------------------------------------------------------------
# kernel dimension
# ---------------------------------------------------------------------------


def test_kernel_dim_kerr_20_points(kerr, rng):
    for _ in range(20):
        rho = rng.uniform(1.2, 4.0)
        v = rng.uniform(-3.0, 3.0)
        _, part, mono = _setup(kerr, rho, v)
        assert toeplitz_kernel_dim(mono, part) == 0
    for y in (-0.8, -0.3, 0.0, 0.5, 0.9):
        u = np.sqrt(M_K ** 2 - A_K ** 2 * y * y)
        rho, v = weyl_from_prolate_4d(u, y, C_K)
        _, part, mono = _setup(kerr, rho, v)
        assert toeplitz_kernel_dim(mono, part) == 1


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
    ("kerr", 1e-6, 500.0),     # inside points 7e-12 apart: no partition could be built
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
    _, part, mono = _setup(model, 1.3, 0.2)
    assert compute_D(mono, part) == pytest.approx(1.0)
    assert toeplitz_kernel_dim(mono, part) == 0


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
    assert out.classification.kind is Classification.REDUCIBLE_CASE
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
    _, part, mono = _setup(kerr, 1.9, 0.4)
    A = existence_system_2x2(mono, part)
    assert A.shape[0] == A.shape[1]
    for model in (mp5d, mvc5d):
        _, part, mono = _setup(model, 1.9, 0.4)
        spec = _plan_spec_at(mono, part)
        a0 = _assemble_homogeneous(spec)
        u = spec.hom_unknowns()
        assert spec.selected_rows.size == u
        assert a0.shape[1] == u
        assert u - numerical_nullity(a0) == u  # full column rank off-curve


def test_uniqueness_probe(mvc5d, rng):
    _, part, mono = _setup(mvc5d, 1.4, 0.2)
    spec = _plan_spec_at(mono, part)
    A, B = _assemble_inhomogeneous(spec)
    sol, *_ = np.linalg.lstsq(A, B, rcond=None)
    assert np.max(np.abs(A @ sol - B)) <= 1e-9 * max(1.0, np.max(np.abs(B)))
    for _ in range(5):
        d = rng.normal(size=sol.shape[0]) + 1j * rng.normal(size=sol.shape[0])
        d /= np.linalg.norm(d)
        pert = sol[:, 0] + 1e-6 * d
        assert np.max(np.abs(A @ pert - B[:, 0])) >= 1e-7


def test_solve_columns_kerr_psi_structure(kerr):
    _, part, _ = _setup(kerr, 2.0, 1.0)
    out = factorise(kerr, 2.0, 1.0)
    assert out.residual_report.pole_cancellation <= 1e-10
    inside = list(part.inside()) + [0.0]

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


def test_eta_asymmetric_2x2_routes_generic():
    # eta = (1, -1): eta-symmetric but not plain-symmetric, so no 2x2
    # normal form; the generic route factorises it
    from whergo.poly import poly_mul

    q1 = np.array([1.0, 0.0, 1.0])
    q2 = np.array([2.0, 0.0, 1.0])
    d_num = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
    model = make_model(
        [[([2.0, 0.0, 1.0], q1), ([0.0, 1.0], q1)],
         [([0.0, -1.0], q1), (d_num, poly_mul(q1, q2))]],
        eta=(1.0, -1.0), model_id="eta-asym")
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


def _reference_system(model, rho, v, branches):
    """build_ansatz at the point itself, with the plan's D-row selection."""
    pt = SpectralPoint(rho, v)
    part = build_partition(pt, model.omega_poles, branches)
    spec = build_ansatz(compose_monodromy(model, pt), part)
    spec.selected_rows = engine._plan_for(model, branches).selected_rows
    return spec


def _d_hat(spec):
    d, scale = engine._det_with_scale(_assemble_homogeneous(spec)[spec.selected_rows, :])
    return abs(d) / scale


PLAN_CASES = [("kerr", None), ("kerr", ("plus", "minus")), ("kerr", ("minus", "plus")),
              ("kerr", ("plus", "plus")), ("mp5d", None), ("mvc5d", None),
              ("chain", None), ("identity3", None)]


@pytest.mark.parametrize("name, branches", PLAN_CASES)
def test_plan_matches_build_ansatz(name, branches, kerr, mp5d, mvc5d):
    # the plan's system equals the one build_ansatz assembles at the point:
    # every entry of [A | B] within 1e-12 of its row norm, D-hat within 1e-11.
    # A row the plan assembles as exact zeros is the condition at a root of
    # L_k that A_kj itself carries (a spurious pole of the symbolic tau-plane
    # adjugate); build_ansatz has rounding noise there, which must stay small.
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model(),
             "identity3": model_identity(3)}[name]
    branches = branches or model.default_branches
    rng = np.random.default_rng(4)
    for _ in range(12):
        rho, v = 10.0 ** rng.uniform(-3.0, np.log10(20.0)), rng.uniform(-4.0, 4.0)
        ref = _reference_system(model, rho, v, branches)
        plan = engine._plan_spec(engine._plan_for(model, branches), rho, v)
        want, got = (np.hstack(_assemble_inhomogeneous(s)) for s in (ref, plan))
        assert got.shape == want.shape
        norms = np.linalg.norm(want, axis=1)
        real = np.any(got != 0, axis=1)
        assert np.all(norms[~real] <= 1e-8 * np.max(norms, initial=0.0))
        assert np.all(np.max(np.abs(got - want), axis=1)[real] <= 1e-12 * norms[real])
        d_ref = _d_hat(ref)
        assert abs(_d_hat(plan) - d_ref) <= 1e-11 * d_ref


def test_d_evaluation_after_warm_up_skips_symbolic_work(mp5d, mvc5d, monkeypatch):
    # once the plan is compiled, D (single point and grid alike) needs no
    # ansatz build, no monodromy composition and no root finding
    from whergo import catalog, geometry

    for model in (mp5d, mvc5d):
        f, fgrid = geometry._d_hat_function(model, None)
        f(1.1, 0.2)
        _, part, mono = _setup(model, 1.3, 0.4)

        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic work after warm-up")
        for module, name in ((engine, "build_ansatz"), (engine, "compose_monodromy"),
                             (catalog, "compose_monodromy"), (np, "roots")):
            monkeypatch.setattr(module, name, forbidden)
        R, V = np.meshgrid(np.linspace(0.3, 2.0, 4), np.linspace(-1.0, 1.0, 3), indexing="ij")
        grid = fgrid(R, V)
        assert grid[2, 1] == pytest.approx(f(R[2, 1], V[2, 1]), rel=1e-12)
        assert compute_D(mono, part) != 0
        monkeypatch.undo()


def test_plan_compile_skips_degenerate_reference_points(monkeypatch):
    # a reference point that raises a degenerate-point error is skipped; an
    # error of any other kind is a bug and propagates
    real = engine.build_ansatz
    calls = []

    def first_degenerate(mono, partition):
        calls.append(mono.pt)
        if len(calls) == 1:
            raise DegenerateZeros("coincident inside zeros")
        return real(mono, partition)
    monkeypatch.setattr(engine, "build_ansatz", first_degenerate)
    model = model_kerr(2.0, 1.0)
    plan = engine._plan_for(model, model.default_branches)
    assert len(calls) == 2 and calls[1].rho == engine._REFERENCE_POINTS[1][0]
    assert model.plans[model.default_branches] is plan

    def broken(mono, partition):
        raise TypeError("bug")
    monkeypatch.setattr(engine, "build_ansatz", broken)
    fresh = model_kerr(2.0, 1.0)
    with pytest.raises(TypeError):
        engine._plan_for(fresh, fresh.default_branches)


def test_check_taus_falls_back_to_the_farthest_radius():
    # every candidate circle carries a pole; the fallback must take the
    # circle whose samples stay farthest from all poles (1.17 here), not the last
    first = np.exp(2j * np.pi * 0.37 / 12)            # angle of the first sample
    gaps = {1.0: 0.01, 1.17: 0.05, 0.83: 0.02, 1.31: 0.03, 0.67: 0.04}
    poles = np.array([(r + g) * first for r, g in gaps.items()])
    taus = engine._check_taus(poles)
    assert np.allclose(np.abs(taus), 1.17)
    assert taus == engine._check_taus(poles)


def _ledger_check_taus(mono, count=12):
    """The check points picked from the composed monodromy's pole ledger:
    the rule factorise applied before it read the poles off the plan."""
    poles = [rec.tau for rec in mono.ledger] + [rec.partner for rec in mono.ledger
                                                if rec.partner is not None]
    best, best_gap = None, -1.0
    for radius in (1.0, 1.17, 0.83, 1.31, 0.67):
        taus = [radius * np.exp(2j * np.pi * (k + 0.37) / count) for k in range(count)]
        gap = min((abs(t - p) for t in taus for p in poles), default=np.inf)
        if gap > 0.08:
            return taus
        if gap > best_gap:
            best, best_gap = taus, gap
    return best


def _factor_columns_loop(spec, sol):
    """The psi_+ and psi_- columns of the solved ansatz at one point, one
    column and one inside root at a time, as FactoredRational entries."""
    n, base = spec.n, spec.base_polys
    cols_plus, cols_minus = [], []
    for i in range(n):
        s = [sol[spec.layout.jcol == j, i] for j in range(n)]
        cols_minus.append([FactoredRational(s[j], 1.0, tuple(spec.pi_roots[j]))
                           for j in range(n)])
        plus = []
        for k in range(n):
            num = np.zeros(base.shape[2] + max(map(len, s)) - 1, dtype=complex)
            for j in range(n):
                term = np.convolve(base[k, j], s[j])
                num[:term.size] += term
            den = list(spec.lk_roots[k])
            for root, mult in spec.inside_groups[k]:
                for _ in range(mult):
                    num, _ = poly_deflate(num, root)
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
    # circle is the one the pole ledger picks
    model = {"kerr": kerr, "mp5d": mp5d, "mvc5d": mvc5d, "chain": synthetic_chain_model()}[name]
    n = model.n
    for rho, v, out in _canonical_draws(model, 20, seed=61):
        _, part, mono = _setup(model, rho, v)
        taus = np.array(out.residual_report.check_points)
        assert list(out.residual_report.check_points) == _ledger_check_taus(mono)
        for factor in (out.X, out.M_minus):
            got = factor.eval(taus)
            assert got.shape == (taus.size, n, n)
            assert np.array_equal(got, np.stack([factor.eval(t) for t in taus]))
        spec = _plan_spec_at(mono, part)
        cols_plus, cols_minus = _factor_columns_loop(
            spec, evaluate_points(model, rho, v).solution)
        x_sym = engine._adjugate_fr([[cols_plus[i][k] for i in range(n)] for k in range(n)], n)
        for factor, entries in ((out.X, x_sym),
                                (out.M_minus, [[cols_minus[i][j] for i in range(n)]
                                               for j in range(n)])):
            want = np.moveaxis(np.array([[e(taus) for e in row] for row in entries]), -1, 0)
            err = np.max(np.abs(factor.eval(taus) - want), axis=(1, 2))
            assert np.all(err <= 1e-10 * np.max(np.abs(want), axis=(1, 2)))


def test_factorise_after_warm_up_skips_symbolic_work(kerr, mp5d, mvc5d, monkeypatch):
    # once the model's plan is compiled, a factorisation (canonical or on the
    # curve) composes no monodromy, builds no symbolic adjugate, multiplies
    # no polynomials and finds no roots
    from whergo import catalog, poly

    on_curve = _on_curve_points(kerr, mp5d, mvc5d, (0.2,))
    cases = ((kerr, (2.1, 0.6), on_curve["kerr"][0]),
             (mp5d, (1.7, 0.3), on_curve["mp5d"][0]),
             (mvc5d, (1.4, 0.2), on_curve["mvc5d"][0]))
    for model, canonical, curve in cases:
        for point in (canonical, curve):
            factorise(model, *point)

        def forbidden(*args, **kwargs):
            raise AssertionError("symbolic work after warm-up")
        for module, name in ((engine, "compose_monodromy"), (catalog, "compose_monodromy"),
                             (engine, "_adjugate_fr"), (poly, "poly_mul"),
                             (engine, "poly_mul"), (np, "roots")):
            monkeypatch.setattr(module, name, forbidden)
        out = factorise(model, *canonical)
        assert out.canonical and out.residual_report.factorisation <= 1e-9
        assemble_M(out, check=True)
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
