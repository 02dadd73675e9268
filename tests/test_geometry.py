import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kerr_delta_closed_form, mvc_closed_form
from whergo.catalog import MODEL_BUILDERS, model_kerr
from whergo.engine import Status, factorise
from whergo.errors import NoCurveFound, NonPhysicalM, NoRealSolution
from whergo.geometry import (
    CurvePolyline,
    classify_curve,
    closed_form_curve_weyl,
    curve_match_distance,
    ergosurface_closed_form,
    extract_4d,
    extract_5d,
    extract_metric,
    mp_gtt_spherical,
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


# matrices that one-matrix extraction refuses, by size n
_REFUSED = {
    2: ([[1.0, 0.5], [0.5, 0.0]],                                   # M22 = 0
        [[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]),  # not finite
    3: ([[0.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],        # e1 = 0
        [[1.0, 1.0, 0.5], [-1.0, -1.0, 0.3], [0.5, 0.2, 1.0]],      # e2 = 0
        [[1.0, 0.0, 0.0], [0.0, 1.0, np.nan], [0.0, 0.0, 1.0]]),    # not finite
}


def _assert_one_is_stack_element(one, stack, k):
    """Every field of one matrix's scalars is the stack's element k, bit
    for bit, and a Sigma_i is None exactly where the stack reads NaN."""
    for name, value in vars(one).items():
        got = getattr(stack, name)[k]
        if value is None:
            assert np.isnan(got), name
        else:
            assert np.float64(value).tobytes() == np.float64(got).tobytes(), name


@pytest.mark.parametrize("model_id", ["kerr", "mp5d", "mvc5d"])
def test_one_matrix_extraction_is_the_stack_element_bitwise(model_id):
    # one matrix runs the coset formulas on Python floats, a stack on
    # arrays: the same bits at canonical M(rho, v), the same refusals
    # (NonPhysicalM alone, NaN in every field of a stack) where M22, e1 or
    # e2 vanishes, an entry is not finite or Im M exceeds REALITY_REL
    model = MODEL_BUILDERS[model_id](M_K, A_K)
    rng = np.random.default_rng(71)
    rho, v = 10.0 ** rng.uniform(-3.0, np.log10(20.0), 60), rng.uniform(-4.0, 4.0, 60)
    limits = [out.M_limit for out in (factorise(model, r, w) for r, w in zip(rho, v))
              if out.canonical]
    n = model.n
    refused = [np.array(m) for m in _REFUSED[n]]
    complex_refused = [np.eye(n) + 2e-9j, np.eye(n) + 1j * np.inf]
    for matrices, bad in ((limits + refused, len(refused)),
                          ([m.astype(complex) for m in limits] + complex_refused,
                           len(complex_refused))):
        stack = extract_metric(np.array(matrices))
        good = len(matrices) - bad
        for k, M in enumerate(matrices):
            if k < good:
                _assert_one_is_stack_element(extract_metric(M), stack, k)
                continue
            with pytest.raises(NonPhysicalM):
                extract_metric(M)
            assert all(np.isnan(getattr(stack, name)[k]) for name in vars(stack))
    assert len(limits) >= 40
    if n == 3:      # Sigma_i is None at some canonical draws: exp(2 Sigma_i) < 0
        assert np.isnan(extract_metric(np.array(limits)).Sigma1).any()


def test_extract_4d_kerr_ergosurface_point(kerr):
    # Boyer-Lindquist theta = pi/2, r = 2m lies on the ergosurface: g_tt = 0
    u = 2.0 * M_K - M_K          # u = r - m
    y = 0.0                      # y = cos(theta)
    rho, v = weyl_from_prolate_4d(u, y, C_K)
    out = factorise(kerr, rho, v)
    if out.status is Status.CANONICAL:
        s = extract_4d(out.M_limit)
        assert abs(s.g_tt) < 1e-6
    assert kerr_delta_closed_form(rho, v) == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
def test_trace_rejects_a_step_that_is_not_positive(kerr, step):
    with pytest.raises(ValueError, match="step must be a finite number > 0"):
        trace_curve(kerr, box=(0.05, 2.0, -2.0, 2.0), grid=(10, 10), step=step)


@pytest.mark.parametrize("residual_tol", [-1.0, float("nan"), float("inf")])
def test_trace_rejects_a_residual_tol_that_is_not_finite_and_non_negative(kerr, residual_tol):
    with pytest.raises(ValueError, match="residual_tol must be a finite number >= 0"):
        trace_curve(kerr, box=(0.3, 0.9, 1.0, 1.6), grid=(20, 20), residual_tol=residual_tol)


@pytest.mark.parametrize("bad, message", [
    ({"box": (1.0, 0.5, -4.0, 4.0)}, "box must have rmin < rmax and vmin < vmax"),
    ({"box": (0.05, 0.05, -4.0, 4.0)}, "box must have rmin < rmax and vmin < vmax"),
    ({"box": (0.05, 4.0, 4.0, -4.0)}, "box must have rmin < rmax and vmin < vmax"),
    ({"box": (0.05, float("inf"), -4.0, 4.0)}, "box bounds must be finite"),
    ({"box": (0.05, 4.0, float("nan"), 4.0)}, "box bounds must be finite"),
    ({"grid": (0, 0)}, "grid must be two integers >= 2"),
    ({"grid": (1, 80)}, "grid must be two integers >= 2"),
    ({"grid": (2.5, 3)}, "grid must be two integers >= 2"),
    ({"grid": (80,)}, "grid must be two integers >= 2"),
])
def test_trace_rejects_a_box_or_grid_the_cli_refuses(kerr, bad, message):
    # the scan cell that bounds the refinement's targets needs two grid
    # points per axis; an infinite bound must not reach the engine
    kwargs = {"box": (0.05, 4.0, -4.0, 4.0), "grid": (20, 20), **bad}
    with pytest.raises(ValueError, match=message):
        trace_curve(kerr, **kwargs)


def test_classify_curve_tags(kerr):
    poly = trace_curve(kerr, box=(0.05, 2.0, -2.0, 2.0), grid=(60, 60), step=0.05)
    tagged = classify_curve(kerr, poly)
    assert tagged.tag == "ergosurface"


# the tag each model's curve carries at a = 1 (criteria 1, 4 and 5)
FAMILY_TAGS = {"kerr": "ergosurface", "mp5d": "ergosurface", "mvc5d": "factorisation-failure"}


def _family_xfail(item, defect):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {defect}")


@pytest.mark.parametrize("model_id, a", [
    ("kerr", 0.1),
    ("kerr", 0.5),
    pytest.param("kerr", 1.5, marks=_family_xfail(
        12, "the chain starts mid-curve and leaves a stretch by the rod end unrefined")),
    ("mp5d", 0.01),
    ("mp5d", 0.1),
    ("mp5d", 0.5),
    ("mp5d", 1.5),
    ("mp5d", 1.9),
    pytest.param("mvc5d", 0.5, marks=_family_xfail(11, "spurious failure arcs off the curve")),
    pytest.param("mvc5d", 1.9, marks=_family_xfail(12, "oracle points missed by 1.4e-4")),
])
def test_traced_curve_over_the_rotation_family(model_id, a):
    # the traced curve at m = 2 and a != 1 against the closed form: Kerr at
    # criterion 1's box, scan and step (a coarser scan happens to hide the
    # a = 1.5 defect), the 5D models in one box scaled to their curves; mp5d
    # at a = 0.01 lies at rho <= 0.0077, so its box and margin are on that scale
    model, margin = MODEL_BUILDERS[model_id](M_K, a), 0.05
    if model_id == "kerr":
        box, kwargs = (0.02, 4.0, -4.0, 4.0), {"grid": (200, 200), "step": 0.01}
    else:
        box = (0.02, 2.5, -2.5, 2.5)
        kwargs = {"grid": (80, 80), "step": 0.015, "residual_tol": 1e-11}
    if a == 0.01:
        box, margin = (0.001, 1.5, -1.5, 1.5), 5e-4
    poly = classify_curve(model, trace_curve(model, box=box, **kwargs))
    oracle = closed_form_curve_weyl(model_id, {"m": M_K, "a": a}, np.linspace(-0.99, 0.99, 1500))
    assert poly.tag == FAMILY_TAGS[model_id]
    assert curve_match_distance(poly.samples, oracle, box, margin=margin) <= 1e-4


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


def _chain_order_loop(pts):
    """The tracer's nearest-neighbour chain order as a plain Python loop."""
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
    return order


def _chain_points_loop(pts):
    """The chained points, in the order of _chain_order_loop."""
    return np.array([pts[i] for i in _chain_order_loop(pts)])


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


def _inside_point_loop(a, b, t, ok=True):
    """a + t (b - a) on the segment a-b, or its midpoint where ok is False
    or the point is not strictly inside the segment."""
    with np.errstate(all="ignore"):
        x = a + t * (b - a)
    if ok and 0 < t < 1 and np.any(x != a) and np.any(x != b):
        return x
    return 0.5 * (a + b)


def _secant_point_loop(a, b, fa, fb):
    """The secant root on the segment a-b, or its midpoint where the root is
    not strictly inside the segment."""
    with np.errstate(all="ignore"):
        return _inside_point_loop(a, b, fa / (fa - fb))


def _false_position_edge_loop(f, p0, p1, f0, f1, tol: float, max_iter: int = 80):
    """Chandrupatla's safeguarded inverse quadratic interpolation along the
    segment p0-p1 for a sign change of Re f, f0 and f1 the values at its
    ends: the tracer's root search for one segment, one point per call of
    f."""
    a, b = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    fa, fb = f0, f1
    c, fc = a, fa                      # the point dropped last
    width0 = np.hypot(*(b - a))
    for level in range(max_iter + 1):
        width = np.hypot(*(b - a))
        if level == 0:
            x = _secant_point_loop(a, b, fa, fb)
        else:
            with np.errstate(all="ignore"):
                xi, phi = width / np.hypot(*(c - b)), (fa - fb) / (fc - fb)
                alpha = np.sum((c - a) * (b - a)) / np.sum((b - a) * (b - a))
                t = fa / (fb - fa) * (fc / (fb - fc)) + alpha * (fa / (fc - fa)) * (fb / (fc - fb))
            x = _inside_point_loop(a, b, t, phi * phi < xi and (1 - phi) ** 2 < 1 - xi
                                   and width <= width0 * 2.0 ** (2 - 0.5 * level))
        fx = f(x[0], x[1]).real
        if abs(fx) <= tol or width < 1e-13 or level == max_iter:
            return x, abs(fx)
        if (fa < 0) == (fx < 0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx


def _trace_curve_loop(model, branches=None, box=(0.05, 4.0, -4.0, 4.0), grid=(80, 80),
                      step=0.01, residual_tol=1e-10):
    """The sequential tracer, one D-hat point per call of the scalar f and
    one gap at a time, depth first: the reference for trace_curve below its
    MAX_SAMPLES cap.  Returns the polyline and the number of chained edge
    points, which it evaluates a second time."""
    from whergo.geometry import _d_hat_function

    rmin, rmax, vmin, vmax = box
    if rmin <= 0:
        raise ValueError("box must lie in the rho > 0 half-plane")
    f_raw, fgrid = _d_hat_function(model, branches)
    rho_vals = np.linspace(rmin, rmax, grid[0])
    v_vals = np.linspace(vmin, vmax, grid[1])
    R, V = np.meshgrid(rho_vals, v_vals, indexing="ij")
    D = fgrid(R, V)
    ref = D.flat[int(np.argmax(np.abs(D)))]
    if ref == 0:
        raise NoCurveFound("D vanishes identically on the scan grid")
    phase = ref / abs(ref)

    def f(rho, v):
        return f_raw(rho, v) * np.conj(phase)

    Dn = (D * np.conj(phase)).real
    edges = [(np.array([R[a], V[a]]), np.array([R[b], V[b]]), Dn[a], Dn[b])
             for a, b in (map(tuple, edge) for edge in _sign_change_edges_loop(np.sign(Dn)))]
    if not edges:
        raise NoCurveFound(f"no D = 0 locus found in box {box}")
    pts = [_false_position_edge_loop(f, *edge, residual_tol)[0] for edge in edges]
    cell = np.hypot((rmax - rmin) / (grid[0] - 1), (vmax - vmin) / (grid[1] - 1))

    def correct(mid, n_hat, h):
        # both probes keep rho >= rho(mid) / 2
        if h * abs(n_hat[0]) > 0.5 * mid[0]:
            h = 0.5 * mid[0] / abs(n_hat[0])
        a = mid + h * n_hat
        b = mid - h * n_hat
        fa, fb = f(a[0], a[1]).real, f(b[0], b[1]).real
        if (fa < 0) != (fb < 0):
            return _false_position_edge_loop(f, a, b, fa, fb, residual_tol)
        return None

    def roots(p, q):
        """The (sample, residual) pairs the targets of the gap p-q give."""
        length = np.hypot(*(q - p))
        if length <= step:
            return []
        parts = int(np.ceil(length / step))
        spacing = length / parts
        direction = (q - p) / length
        n_hat = np.array([-direction[1], direction[0]])
        got = [correct(p + (k / parts) * (q - p), n_hat, 0.5 * spacing)
               for k in range(1, parts) if min(k, parts - k) * spacing <= max(cell, spacing)]
        return [x for x in got if x is not None]

    def refine(p, q, new):
        """The (sample, residual) pairs the gap p-q gains with the roots new
        of its targets, in order: those roots, each sub-gap refined in turn
        once any was found."""
        if not new:
            return []
        out = []
        for start, (x, r) in zip([p] + [x for x, _ in new], new):
            out += refine(start, x, roots(start, x)) + [(x, r)]
        return out + refine(new[-1][0], q, roots(new[-1][0], q))

    # the speculative round: one probe per target of the provisional chain,
    # its roots kept where the edge roots chain in the provisional order
    provisional = [_secant_point_loop(*edge) for edge in edges]
    guess = _chain_order_loop(provisional)
    order = _chain_order_loop(pts)
    gains = [roots(provisional[g], provisional[h]) for g, h in zip(guess, guess[1:])]
    if order != guess:
        gains = [[] for _ in gains]

    ordered = [pts[i] for i in order]
    out = [ordered[0]]
    res_out = [abs(f(ordered[0][0], ordered[0][1]).real)]
    for nxt, gained in zip(ordered[1:], gains):
        # a gap without speculative samples is refined from its edge roots
        for x, r in refine(out[-1], nxt, gained or roots(out[-1], nxt)):
            out.append(x)
            res_out.append(r)
        out.append(nxt)
        res_out.append(abs(f(nxt[0], nxt[1]).real))
    return CurvePolyline(np.array(out), np.array(res_out)), len(ordered)


@pytest.fixture()
def d_hat_calls(monkeypatch):
    """Counts of the tracer's D-hat evaluations: calls and points."""
    from whergo import geometry

    count = {"calls": 0, "points": 0}
    d_with_scale = geometry._d_with_scale

    def counted(model, R, V, branches=None):
        count["calls"] += 1
        count["points"] += np.size(R)
        return d_with_scale(model, R, V, branches)
    monkeypatch.setattr(geometry, "_d_with_scale", counted)
    return count


# the Kerr box and scan of acceptance criterion 1, the mvc5d box of 5
CRITERION_1 = dict(box=(0.02, 4.0, -4.0, 4.0), grid=(200, 200), step=0.01)
CRITERION_5 = dict(box=(0.02, 0.9, -0.9, 0.9), grid=(36, 36), step=0.015, residual_tol=1e-11)


def test_vectorised_tracer_loops_match_the_python_loops(kerr, mvc5d, d_hat_calls):
    from whergo import geometry

    # a lattice cloud has exact distance ties (and a tie for the start point)
    rng = np.random.default_rng(29)
    cloud = rng.integers(0, 6, size=(60, 2)).astype(float) * 0.25
    assert np.array_equal(cloud[geometry._chain_order(cloud)], _chain_points_loop(cloud))
    sign = np.sign(rng.normal(size=(9, 7)))
    assert np.array_equal(geometry._sign_change_edges(sign), _sign_change_edges_loop(sign))

    def traced(tracer, *args, **kwargs):
        d_hat_calls.update(calls=0, points=0)
        return tracer(*args, **kwargs), dict(d_hat_calls)

    # on Kerr a = 1.5 the edge roots chain in another order than their first
    # secant points, so the speculative samples are dropped
    for model, kwargs in ((kerr, CRITERION_1), (mvc5d, CRITERION_5),
                          (model_kerr(M_K, 1.5), CRITERION_1)):
        new, new_count = traced(trace_curve, model, **kwargs)
        (old, chained), old_count = traced(_trace_curve_loop, model, **kwargs)
        assert len(new) == len(old)
        assert np.max(np.abs(new.samples - old.samples)) <= 1e-12
        assert np.max(np.abs(new.residuals - old.residuals)) <= 1e-12
        # the same D-hat points, less the second evaluation of each chained
        # point, in batches
        assert new_count["points"] == old_count["points"] - chained
        assert new_count["calls"] * 20 < old_count["calls"]


# the trace5d workload's seed-1 boxes: a 5 x 5 scan of a 0.14 x 0.14 box
TRACE5D_SEED_1 = dict(grid=(5, 5), step=0.015, residual_tol=1e-11)


# criterion 9's alternate contours, plus,minus and minus,plus
CRITERION_9_ALTERNATE = dict(box=(0.05, 3.6, -2.6, 2.6), grid=(160, 160), step=0.01)


# D-hat calls allowed per trace; a case's test id is its name alone, so
# that a tighter budget keeps the id
CALL_BUDGETS = {
    "criterion 1": 14, "criterion 5": 13,
    "criterion 9 plus,minus": 80, "criterion 9 minus,plus": 80,
    "criterion 9 plus,minus, step wider than a scan cell": 24,
    "trace5d seed 1 mp5d": 7, "trace5d seed 1 mvc5d": 7}


@pytest.mark.parametrize("case", CALL_BUDGETS)
def test_trace_curve_d_hat_call_budget(kerr, mp5d, mvc5d, d_hat_calls, case):
    # the first refinement round is placed from the scan edges' first secant
    # points and solved with the edges; later rounds give every open gap all
    # of its targets at once and probe each target's normal once, so the
    # calls follow the rounds and the levels of the root search: 12, 11, 66,
    # 75, 22, 5 and 6 calls on these boxes.
    # With a step of 0.1 no target lies within a scan cell (0.04) of a gap's
    # end; the first target from each end still closes the gap about 1 long.
    alternate = CRITERION_9_ALTERNATE
    model, branches, kwargs = {
        "criterion 1": (kerr, None, CRITERION_1),
        "criterion 5": (mvc5d, None, CRITERION_5),
        "criterion 9 plus,minus": (kerr, ("plus", "minus"), alternate),
        "criterion 9 minus,plus": (kerr, ("minus", "plus"), alternate),
        "criterion 9 plus,minus, step wider than a scan cell": (
            kerr, ("plus", "minus"), {**alternate, "step": 0.1}),
        "trace5d seed 1 mp5d": (
            mp5d, None, {**TRACE5D_SEED_1, "box": (0.6, 0.74, -0.0759, 0.0641)}),
        "trace5d seed 1 mvc5d": (
            mvc5d, None, {**TRACE5D_SEED_1, "box": (0.3584, 0.4984, -0.0327, 0.1073)}),
    }[case]
    poly = trace_curve(model, branches, **kwargs)
    assert d_hat_calls["calls"] <= CALL_BUDGETS[case]
    assert np.max(np.hypot(*np.diff(poly.samples, axis=0).T)) <= kwargs["step"]


@pytest.mark.parametrize("branches", [("plus", "minus"), ("minus", "plus")],
                         ids=["plus,minus", "minus,plus"])
def test_trace_curve_alternate_contour_call_budget(kerr, d_hat_calls, branches):
    # these contours took 509 calls when a normal was searched by up to 24
    # tries; probed once per target they took 107, and with Chandrupatla's
    # inverse quadratic step in the root search 66 (plus,minus) and 75
    trace_curve(kerr, branches, **CRITERION_9_ALTERNATE)
    assert d_hat_calls["calls"] <= 80


def test_a_round_whose_probes_bracket_nothing_costs_one_d_hat_call(kerr, d_hat_calls):
    from whergo.geometry import _brackets, _d_hat_function

    _, fgrid = _d_hat_function(kerr, None)
    # a gap 1 long at v = 3, far off the Kerr curve (rho <= 1, |v| <= 2):
    # its 99 targets are probed in one call and none brackets D = 0
    gap = np.array([[2.0, 3.0], [3.0, 3.0]])
    at, a, b, fa, fb = _brackets(lambda p: fgrid(p[:, 0], p[:, 1]).real, gap, np.array([0]),
                                 0.01, 0.5, 1000)
    assert len(at) == len(a) == 0
    assert d_hat_calls == {"calls": 1, "points": 2 * 99}


def test_trace_curve_keeps_its_probes_off_the_axis():
    # Kerr at small a on a box reaching rho = 0.0043: near the axis the
    # probes of 24 targets would come within half the target's rho of the
    # axis at half the target spacing, and are cut to stay that far off it
    model, params = model_kerr(M_K, 0.063), {"m": M_K, "a": 0.063}
    box = (0.0043, 2.86, -3.597, 0.338)
    poly = trace_curve(model, box=box, grid=(70, 70), step=0.0198)
    oracle = closed_form_curve_weyl("kerr", params, np.linspace(-0.99, 0.99, 1500))
    assert curve_match_distance(poly.samples, oracle, box, margin=0.05) <= 1e-4


def test_trace_curve_max_samples_cap(kerr, monkeypatch):
    from whergo import geometry

    # no insertion: the chained scan points alone
    monkeypatch.setattr(geometry, "MAX_SAMPLES", 0)
    chained = trace_curve(kerr, **CRITERION_1).samples
    monkeypatch.setattr(geometry, "MAX_SAMPLES", len(chained))
    assert np.array_equal(trace_curve(kerr, **CRITERION_1).samples, chained)
    for extra in (1, 40):
        cap = len(chained) + extra
        monkeypatch.setattr(geometry, "MAX_SAMPLES", cap)
        samples = trace_curve(kerr, **CRITERION_1).samples
        assert len(chained) < len(samples) <= cap
        # the chained points keep their order, and the targets cut are the
        # ones late in chain order: nothing is inserted after the first gaps
        at = np.array([np.flatnonzero((samples == c).all(axis=1))[0] for c in chained])
        assert np.all(np.diff(at) > 0)
        inserted = np.setdiff1d(np.arange(len(samples)), at)
        assert inserted.max() < at[extra + 1]


@pytest.mark.parametrize("step", [1e-300, 1e-12])
def test_trace_curve_at_a_tiny_step_keeps_to_max_samples(kerr, step):
    # a round generates only the targets it keeps, at most MAX_SAMPLES: the
    # gap / step targets of such a step would not fit in memory
    from whergo.geometry import MAX_SAMPLES

    poly = trace_curve(kerr, box=(0.1, 1.0, -1.0, 1.0), grid=(2, 2), step=step)
    assert 0 < len(poly) <= MAX_SAMPLES


def _bisection_evaluations(g, lo: float, hi: float, tol: float) -> int:
    """Evaluations bisection takes on lo-hi under the root search's rule."""
    a, b, ga = lo, hi, g(lo)
    for level in range(81):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) <= tol or b - a < 1e-13 or level == 80:
            return level + 1
        if (ga < 0) != (gm < 0):
            b = mid
        else:
            a, ga = mid, gm


def test_false_position_retires_stacked_segments_within_twice_bisection():
    from whergo.geometry import _false_position

    # simple, triple and ninth-order roots, a jump and a steep exponential,
    # each on two segments along rho, segment k at v = k
    funcs = [lambda x: 3.0 * x, lambda x: x ** 3, lambda x: np.sign(x) * np.abs(x) ** 9,
             lambda x: np.where(x < 0, -1.0, 2.0), lambda x: np.expm1(20.0 * x)]
    spans = [(-0.3, 1.0), (-1.0, 0.7)]
    cases = [(g, lo, hi) for g in funcs for lo, hi in spans]
    tol = 1e-10
    evals = np.zeros(len(cases), dtype=int)

    def fn(p):
        k = p[:, 1].astype(int)
        np.add.at(evals, k, 1)
        return np.array([cases[i][0](x) for i, x in zip(k, p[:, 0])], dtype=float)

    v = np.arange(len(cases), dtype=float)
    a = np.stack([[lo for _, lo, _ in cases], v], axis=1)
    b = np.stack([[hi for _, _, hi in cases], v], axis=1)
    fa = np.array([g(lo) for g, lo, _ in cases], dtype=float)
    fb = np.array([g(hi) for g, _, hi in cases], dtype=float)
    pts, res = _false_position(fn, a, b, fa, fb, tol)
    for k, (g, lo, hi) in enumerate(cases):
        # on its segment
        assert pts[k, 1] == k and lo <= pts[k, 0] <= hi
        assert res[k] == abs(g(pts[k, 0]))
        # retired by the rule: |fn| <= tol, or (the jump) a bracket under
        # 1e-13 around the root, never by the 81-point cap
        assert res[k] <= tol or abs(pts[k, 0]) < 1e-13
        assert evals[k] < 81
        assert evals[k] <= 2 * _bisection_evaluations(g, lo, hi, tol)
    # the simple roots and the exponential take under half of bisection's
    for k in (0, 1, 8, 9):
        assert 2 * evals[k] < _bisection_evaluations(*cases[k], tol)
    # the inverse quadratic step retires the steep exponential in at most 11
    # evaluations on each segment (a secant step with Illinois' halving took
    # 14 and 13)
    assert evals[8] <= 11 and evals[9] <= 11
