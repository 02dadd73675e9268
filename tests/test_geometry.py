import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mvc_closed_form
from whergo.catalog import model_kerr
from whergo.engine import Status, factorise
from whergo.errors import NoCurveFound, NonPhysicalM, NoRealSolution
from whergo.geometry import (
    CurvePolyline,
    bl_from_prolate_4d,
    classify_curve,
    closed_form_curve_weyl,
    curve_match_distance,
    ergosurface_closed_form,
    extract_4d,
    extract_5d,
    kerr_gtt_bl,
    mp_gtt_spherical,
    polyline_hausdorff,
    spherical_from_prolate_5d,
    trace_curve,
)
from whergo.spectral import weyl_from_prolate_4d, weyl_from_prolate_5d

M_K, A_K = 2.0, 1.0
C_K = np.sqrt(3.0)
PARAMS = {"m": M_K, "a": A_K}


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_4d_identity():
    s = extract_4d(np.eye(2))
    assert (s.Delta, s.Btilde, s.g_tt) == (1.0, 0.0, -1.0)


def test_extract_4d_roundtrip():
    delta, btilde = 2.0, 3.0
    M = np.array([[delta + btilde ** 2 / delta, btilde / delta],
                  [btilde / delta, 1.0 / delta]])
    s = extract_4d(M)
    assert (s.Delta, s.Btilde) == pytest.approx((2.0, 3.0))
    assert np.allclose(s.rebuild_M(), M)


def test_extract_4d_rejects_bad_input():
    # M22 < 0 is the far side of the Kerr ergosurface, where g_tt > 0
    s = extract_4d(np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert (s.Delta, s.Btilde, s.g_tt) == (-0.5, 0.0, 0.5)
    with pytest.raises(NonPhysicalM):
        extract_4d(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(NonPhysicalM):
        extract_4d(np.eye(2) + 1e-3j * np.ones((2, 2)))
    # in a stack the refused entries are NaN, the others as alone
    stack = extract_4d(np.array([[[1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, 0.0]]]))
    assert stack.g_tt[0] == 0.5 and np.isnan(stack.g_tt[1])


def test_extract_4d_kerr_ergosurface_point(kerr):
    # Boyer-Lindquist theta = pi/2, r = 2m lies on the ergosurface: g_tt = 0
    u = 2.0 * M_K - M_K          # u = r - m
    y = 0.0                      # y = cos(theta)
    rho, v = weyl_from_prolate_4d(u, y, C_K)
    out = factorise(kerr, rho, v)
    if out.status is Status.CANONICAL:
        s = extract_4d(out.M_limit)
        assert abs(s.g_tt) < 1e-6
    assert kerr_gtt_bl(2.0 * M_K, np.pi / 2, M_K, A_K) == pytest.approx(0.0, abs=1e-15)


def test_extract_5d_identity():
    s = extract_5d(np.eye(3))
    assert (s.Sigma1, s.Sigma2, s.Sigma3) == (0.0, 0.0, 0.0)
    assert (s.chi1, s.chi2, s.chi3) == (0.0, 0.0, 0.0)
    assert s.g_tt == -1.0


def test_extract_5d_roundtrip(rng):
    for _ in range(10):
        sig1, sig2 = rng.normal(scale=0.4), rng.normal(scale=0.4)
        sig3 = -sig1 - sig2
        chi = rng.normal(scale=0.5, size=3)
        M = None
        from whergo.geometry import MetricScalars5D
        ref = MetricScalars5D(sig1, sig2, sig3, chi[0], chi[1], chi[2], 0.0)
        M = ref.rebuild_M()
        s = extract_5d(M)
        assert (s.Sigma1, s.Sigma2, s.Sigma3) == pytest.approx((sig1, sig2, sig3), abs=1e-10)
        assert (s.chi1, s.chi2, s.chi3) == pytest.approx(tuple(chi), abs=1e-10)
        assert np.max(np.abs(s.rebuild_M() - M)) <= 1e-10 * max(1, np.max(np.abs(M)))


def _coset_5d(e1, e2, e3, c1, c2, c3):
    """The 3x3 coset form from exp(2 Sigma_i) = e_i of any sign, stacked."""
    return np.moveaxis(np.array([
        [e1, e1 * c2, e1 * c3],
        [-e1 * c2, -e1 * c2 * c2 + e2, -e1 * c2 * c3 + e2 * c1],
        [e1 * c3, e1 * c2 * c3 - e2 * c1, -e2 * c1 * c1 + e1 * c3 * c3 + e3]]), (0, 1), (-2, -1))


_finite = st.floats(-1.5, 1.5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_finite, _finite, _finite, _finite, _finite,
                          st.booleans(), st.booleans()), min_size=1, max_size=12))
def test_extract_5d_stack_is_bitwise_the_single_matrix_extraction(draws):
    # one path for sweep (stacks) and factorize (one matrix): entry for
    # entry the same bits, on either side of a failure curve (e1 or e3 < 0)
    sig1, sig2, c1, c2, c3, flip1, flip3 = (np.array(x) for x in zip(*draws))
    e1 = np.where(flip1, -1.0, 1.0) * np.exp(2 * sig1)
    e3 = np.where(flip3, -1.0, 1.0) * np.exp(-2 * (sig1 + sig2))
    M = _coset_5d(e1, np.exp(2 * sig2), e3, c1, c2, c3)
    stack = extract_5d(M)
    for k in range(len(draws)):
        alone = extract_5d(M[k])
        for name, value in vars(alone).items():
            got = getattr(stack, name)[k]
            assert (value is None and np.isnan(got)) or value == got, name
        if flip1[k] or flip3[k]:
            assert (alone.Sigma1 is None) == flip1[k] and (alone.Sigma3 is None) == flip3[k]
            with pytest.raises(NonPhysicalM):
                alone.rebuild_M()
        else:
            assert np.max(np.abs(alone.rebuild_M() - M[k])) <= 1e-10 * np.max(np.abs(M[k]))
        assert alone.g_tt == pytest.approx(-e3[k] + np.exp(2 * sig2[k]) * c1[k] ** 2,
                                           rel=1e-9, abs=1e-9)


def test_extract_5d_mp_block_structure(mp5d):
    out = factorise(mp5d, 1.8, 0.4)
    s = extract_5d(out.M_limit)
    assert abs(s.chi1) < 1e-10 and abs(s.chi2) < 1e-10
    e3 = np.exp(2 * s.Sigma3)
    assert s.g_tt == pytest.approx(-e3)
    assert abs(s.Sigma1 + s.Sigma2 + s.Sigma3) <= 1e-9


def test_extract_5d_sigma_sum(mp5d, mvc5d, rng):
    for model in (mp5d, mvc5d):
        for _ in range(5):
            out = factorise(model, rng.uniform(1.0, 2.5), rng.uniform(-1.0, 1.0))
            if out.status is not Status.CANONICAL:
                continue
            s = extract_5d(out.M_limit)
            assert abs(s.Sigma1 + s.Sigma2 + s.Sigma3) <= 1e-9


# ---------------------------------------------------------------------------
# closed-form curves and chart maps
# ---------------------------------------------------------------------------


def test_ergosurface_closed_form_kerr():
    assert ergosurface_closed_form("kerr", PARAMS, 0.0) == pytest.approx(2.0)
    y = 0.5
    assert ergosurface_closed_form("kerr", PARAMS, y) == pytest.approx(
        np.sqrt(M_K ** 2 - A_K ** 2 * y * y))


def test_ergosurface_closed_form_mp_endpoint():
    # 2 + (L-2)u - L = 0 at y = 1 gives u = 1 for any admissible L
    L = A_K ** 2 / M_K
    u = (2.0 - L * 0.999999) / (2.0 - L)
    assert ergosurface_closed_form("mp5d", PARAMS, 0.999999) == pytest.approx(u)
    assert ergosurface_closed_form("mp5d", PARAMS, 0.999999) == pytest.approx(1.0, abs=1e-5)


def test_ergosurface_closed_form_mvc():
    al = (2 * M_K - A_K ** 2) / 4.0
    assert ergosurface_closed_form("mvc5d", PARAMS, 0.0) == pytest.approx(
        np.sqrt(M_K / (2 * al)))


def test_ergosurface_closed_form_errors():
    with pytest.raises(NoRealSolution):
        ergosurface_closed_form("kerr", PARAMS, 1.5)
    with pytest.raises(NoRealSolution):
        ergosurface_closed_form("kerr-alt", {"m": 2.0, "a": 0.0}, 0.3)
    with pytest.raises(NoRealSolution):
        ergosurface_closed_form("nope", PARAMS, 0.0)


def test_bl_maps():
    assert bl_from_prolate_4d(2.0, 1.0, 2.0) == pytest.approx((4.0, 0.0))
    r, th = spherical_from_prolate_5d(1.0, 1.0, 1.0)
    assert (r, th) == pytest.approx((2.0, 0.0))


def test_mp_gtt_oracle_matches_extraction(mp5d, rng):
    al = mp5d.params["alpha"]
    for _ in range(6):
        u = rng.uniform(1.3, 3.0)
        y = rng.uniform(-0.9, 0.9)
        rho, v = weyl_from_prolate_5d(u, y, al)
        out = factorise(mp5d, rho, v)
        if out.status is not Status.CANONICAL:
            continue
        s = extract_5d(out.M_limit)
        r, th = spherical_from_prolate_5d(u, y, al)
        assert s.g_tt == pytest.approx(mp_gtt_spherical(r, th, M_K, A_K), rel=1e-8)


def test_mvc_gtt_oracle_matches_extraction(mvc5d, rng):
    al = mvc5d.params["alpha"]
    for _ in range(10):
        u = rng.uniform(1.25, 3.0)
        y = rng.uniform(-0.9, 0.9)
        rho, v = weyl_from_prolate_5d(u, y, al)
        out = factorise(mvc5d, rho, v)
        if out.status is not Status.CANONICAL:
            continue
        s = extract_5d(out.M_limit)
        r, th = spherical_from_prolate_5d(u, y, al)
        assert s.g_tt == pytest.approx(mp_gtt_spherical(r, th, M_K, A_K), rel=1e-8)


@pytest.mark.parametrize("y", [-0.5, 0.0, 0.4])
def test_mvc_metric_stays_finite_across_the_failure_curve(mvc5d, y):
    # the paper's claim: M blows up on the failure curve (M11 ~ 1/(u - u_c),
    # changing sign across it) while g_tt stays finite and right on both
    # sides.  Not gated on the factorisation residual, which misses 1e-9 this
    # close to the curve.
    al = mvc5d.params["alpha"]
    u_c = ergosurface_closed_form("mvc5d", PARAMS, y)
    products = []
    for offset in (1e-3, -1e-3, 1e-4, -1e-4, 1e-5, -1e-5):
        rho, v = weyl_from_prolate_5d(u_c + offset, y, al)
        out = factorise(mvc5d, rho, v)
        assert out.status is Status.CANONICAL
        expect, _ = mvc_closed_form(rho, v)
        assert np.max(np.abs(out.M_limit - expect)) <= 1e-8 * np.max(np.abs(expect))
        products.append(out.M_limit[0, 0] * offset)
        r, th = spherical_from_prolate_5d(u_c + offset, y, al)
        assert extract_5d(out.M_limit).g_tt == pytest.approx(
            mp_gtt_spherical(r, th, M_K, A_K), rel=1e-8)
    products = np.array(products)
    assert np.all(products > 0)
    assert np.ptp(products) <= 1e-3 * np.max(products)


# ---------------------------------------------------------------------------
# curve tracing
# ---------------------------------------------------------------------------


def test_trace_kerr_matches_oracle(kerr):
    box = (0.01, 4.0, -4.0, 4.0)
    poly = trace_curve(kerr, box=box, grid=(120, 120), step=0.02)
    assert np.max(poly.residuals) <= 1e-8
    ys = np.linspace(-0.99, 0.99, 900)
    oracle = closed_form_curve_weyl("kerr", PARAMS, ys)
    assert curve_match_distance(poly.samples, oracle, box, margin=0.05) <= 1e-4


def test_trace_kerr_a0_no_curve():
    # a = 0: the curve collapses onto the chart boundary u = m = c
    model = model_kerr(2.0, 0.0)
    with pytest.raises(NoCurveFound):
        trace_curve(model, box=(0.2, 4.0, -3.0, 3.0), grid=(40, 40), step=0.05)


def test_classify_curve_tags(kerr):
    poly = trace_curve(kerr, box=(0.05, 2.0, -2.0, 2.0), grid=(60, 60), step=0.05)
    tagged = classify_curve(kerr, poly)
    assert tagged.tag == "ergosurface"


def test_polyline_hausdorff_basic():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.1], [1.0, 0.1]])
    assert polyline_hausdorff(a, b) == pytest.approx(0.1)
    assert polyline_hausdorff(a, a) == 0.0


def test_curve_polyline_len():
    poly = CurvePolyline(np.zeros((5, 2)), np.zeros(5))
    assert len(poly) == 5


def test_classify_curve_propagates_unexpected_errors(kerr, monkeypatch):
    # probes that the batch calls non-canonical are skipped; an exception
    # raised while evaluating the batch is a bug and must not be swallowed
    import dataclasses

    import whergo.geometry as geometry

    poly = CurvePolyline(np.array([[1.0, -0.1], [1.0, 0.0], [1.0, 0.1]]), np.zeros(3))
    real = geometry.evaluate_points

    def degenerate(*args, **kwargs):
        batch = real(*args, **kwargs)
        return dataclasses.replace(batch, kernel_dim=np.ones_like(batch.kernel_dim))
    monkeypatch.setattr(geometry, "evaluate_points", degenerate)
    assert classify_curve(kerr, poly).tag == "factorisation-failure"

    def broken(*args, **kwargs):
        raise TypeError("bug")
    monkeypatch.setattr(geometry, "evaluate_points", broken)
    with pytest.raises(TypeError):
        classify_curve(kerr, poly)


def _chain_points_loop(pts):
    """The tracer's nearest-neighbour chaining as a plain Python loop."""
    pts = list(map(np.asarray, pts))
    start = min(range(len(pts)), key=lambda i: (pts[i][1], pts[i][0]))
    order = [start]
    used = {start}
    while len(order) < len(pts):
        last = pts[order[-1]]
        best, bd = None, np.inf
        for i, p in enumerate(pts):
            if i in used:
                continue
            d = np.hypot(*(p - last))
            if d < bd:
                best, bd = i, d
        order.append(best)
        used.add(best)
    return np.array([pts[i] for i in order])


def _sign_change_edges_loop(sign):
    """The tracer's sign-change edges as a plain Python double loop."""
    edges = []
    for i in range(sign.shape[0]):
        for j in range(sign.shape[1]):
            if i + 1 < sign.shape[0] and sign[i, j] * sign[i + 1, j] < 0:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < sign.shape[1] and sign[i, j] * sign[i, j + 1] < 0:
                edges.append(((i, j), (i, j + 1)))
    return np.array(edges, dtype=int).reshape(-1, 2, 2)


def test_vectorised_tracer_loops_match_the_python_loops(kerr, monkeypatch):
    from whergo import geometry

    # a lattice cloud has exact distance ties (and a tie for the start point)
    rng = np.random.default_rng(29)
    cloud = rng.integers(0, 6, size=(60, 2)).astype(float) * 0.25
    assert np.array_equal(geometry._chain_points(cloud), _chain_points_loop(cloud))
    sign = np.sign(rng.normal(size=(9, 7)))
    assert np.array_equal(geometry._sign_change_edges(sign), _sign_change_edges_loop(sign))
    # the Kerr box and scan of acceptance criterion 1
    kwargs = dict(box=(0.02, 4.0, -4.0, 4.0), grid=(200, 200), step=0.01)
    new = trace_curve(kerr, **kwargs)
    monkeypatch.setattr(geometry, "_chain_points", _chain_points_loop)
    monkeypatch.setattr(geometry, "_sign_change_edges", _sign_change_edges_loop)
    old = trace_curve(kerr, **kwargs)
    assert np.array_equal(new.samples, old.samples)
    assert np.array_equal(new.residuals, old.residuals)
