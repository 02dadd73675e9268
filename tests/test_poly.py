import math

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tau_route import (DegenerateCoefficient, FactoredRational, poly_add, poly_degree, poly_scale,
                       quadratic_roots)
from whergo.poly import (
    TRIM_REL,
    as_poly,
    deflate_positions,
    equilibrate,
    newton_polish,
    numerical_nullity,
    poly_deflate,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_is_zero,
    poly_mul,
    poly_sub,
    poly_trim,
    row_scaled,
)

# q4 of the Kerr composition at rho=1, v=0, c=sqrt(3): hand-expanded
KERR_Q4_RHO1_V0 = np.array([0.25, 0.0, -3.5, 0.0, 0.25])


def test_eval_constant_term():
    rho, dv = 1.4, 0.3
    p = [rho / 2.0, dv, -rho / 2.0]
    assert poly_eval(p, 0.0) == rho / 2.0


def test_eval_at_root():
    assert poly_eval([-1.0, 0.0, 1.0], 1.0) == 0.0


def test_eval_kerr_q4_at_one():
    # 1/4 [0 + 4(0 - 3) + 0] = -3, hand evaluation of the quartic
    assert poly_eval(KERR_Q4_RHO1_V0, 1.0) == pytest.approx(-3.0, abs=1e-14)


def test_derivative_constant_and_square():
    assert np.array_equal(poly_derivative([3.7]), [0.0])
    assert np.array_equal(poly_derivative([0.0, 0.0, 1.0]), [0.0, 2.0])


def test_derivative_vs_finite_differences(rng):
    for _ in range(10):
        deg = rng.integers(1, 9)
        p = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        dp = poly_derivative(p)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        h = 1e-6
        fd = (poly_eval(p, z + h) - poly_eval(p, z - h)) / (2 * h)
        assert abs(poly_eval(dp, z) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_derivative_nonzero_at_simple_roots():
    dq = poly_derivative(KERR_Q4_RHO1_V0)
    for r in np.roots(KERR_Q4_RHO1_V0[::-1]):
        assert abs(poly_eval(dq, r)) > 1e-3


def test_mul_add_basic():
    a, b = 1.3 + 0.2j, -0.7
    prod = poly_mul([-a, 1.0], [-b, 1.0])
    assert np.allclose(prod, [a * b, -(a + b), 1.0])
    assert np.array_equal(poly_mul([1.0, 2.0], [0.0]), [0.0])
    assert np.allclose(poly_add([1.0, 1.0], [1.0, -1.0]), [2.0])


def test_root_factor_reconstruction():
    roots = np.roots(KERR_Q4_RHO1_V0[::-1])
    roots = [newton_polish(KERR_Q4_RHO1_V0, r) for r in roots]
    rebuilt = poly_from_roots(roots, KERR_Q4_RHO1_V0[-1])
    assert np.max(np.abs(rebuilt - KERR_Q4_RHO1_V0)) <= 1e-12 * np.max(np.abs(KERR_Q4_RHO1_V0))


def test_trim_and_degree():
    assert poly_degree([1.0, 0.0, 0.0]) == 0
    assert poly_degree([0.0]) == -1
    assert poly_trim([1.0, 1e-20, 0.0]).size == 1


def test_deflate():
    p = poly_from_roots([2.0, -1.0, 0.5])
    assert np.allclose(poly_deflate(p, 2.0), poly_from_roots([-1.0, 0.5]))


@pytest.mark.parametrize("root", [0.6 - 0.3j, -1.0, 2.5 + 1.5j, -40.0])
def test_deflate_stack_is_the_columns_bitwise(root):
    # a stack (coefficients on axis 0) of one row, as _factors divides it,
    # divides every column as poly_deflate divides it alone, on the forward
    # (|root| <= 1) and the reversed recurrence
    rng = np.random.default_rng(5)
    p = rng.normal(size=(6, 1, 4)) + 1j * rng.normal(size=(6, 1, 4))
    q = deflate_positions(p, np.array([[complex(root)]]))
    assert q.shape == (5, 1, 4)
    for i in range(4):
        assert q[:, 0, i].tobytes() == poly_deflate(p[:, 0, i], root).tobytes()


def _deflate_reference(p, root):
    """The quotient of one polynomial by (tau - root), one coefficient at a
    time with a Python scalar root."""
    p, root, n = np.asarray(p, dtype=complex).reshape(-1, 1), complex(root), len(p) - 1
    q = np.empty((n, 1), dtype=complex)
    if abs(root) <= 1.0:
        acc = p[n]
        for k in range(n - 1, -1, -1):
            q[k] = acc
            acc = p[k] + acc * root
        return q[:, 0]
    inv = 1.0 / root
    acc = -p[0] * inv
    for k in range(n):
        q[k] = acc
        acc = (q[k] - p[k + 1]) * inv
    return q[:, 0]


@pytest.mark.parametrize("root", [0.6 - 0.3j, -1.0, 0.25, 1.1 + 0.9j, -40.0, 3.0])
def test_deflate_scalar_root_is_the_plain_recurrence_bitwise(root):
    rng = np.random.default_rng(6)
    p = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    for c in (*p.T, p[:, 1].real):
        assert np.array_equal(poly_deflate(c, root), _deflate_reference(c, root))


@pytest.mark.parametrize("roots", [
    [0.6 - 0.3j, -0.9, 0.25, 1.0],
    [1.1 + 0.9j, -40.0, 3.0, -1.5j],
    [0.6 - 0.3j, 1.1 + 0.9j, -0.9, -40.0],
    [0.0, 2.5 + 1.5j, 0.0, -0.5],
], ids=["forward", "reversed", "mixed", "zero-root"])
def test_deflate_quotients_are_poly_deflate_bitwise(roots):
    # the quotient-only recurrence at one root position, each row by its
    # own root, gives poly_deflate's quotients bit for bit (a -0.0 keeps
    # its sign), on every row the recurrence of that row alone; a root at 0
    # is forward
    rng = np.random.default_rng(9)
    p = rng.normal(size=(7, 4, 3)) + 1j * rng.normal(size=(7, 4, 3))
    p[-1, :, 0] = -0.0
    p[2, 1, 1] = complex(-0.0, -0.0)
    q = deflate_positions(p, np.array([roots], dtype=complex))
    assert q.shape == (6, 4, 3)
    for i, r in enumerate(roots):
        for j in range(3):
            assert q[:, i, j].tobytes() == poly_deflate(p[:, i, j], r).tobytes()
            assert q[:, i, j].tobytes() == _deflate_reference(p[:, i, j], r).tobytes()


# roots that take the forward recurrence (|root| <= 1, 0 and the unit
# circle included) and roots that take the reversed one
_FORWARD_ROOTS = (0.0, 1.0, -1.0, 1j, (0.6 - 0.8j), 0.6 - 0.3j, -0.9, 0.25)
_REVERSED_ROOTS = (1.1 + 0.9j, -40.0, 3.0, -1.5j, 2.5 + 1.5j, 1.0 + 1e-12)
_ROWS = 3


def _position(choices):
    return st.lists(st.sampled_from(choices), min_size=_ROWS, max_size=_ROWS)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(_position(_FORWARD_ROOTS), _position(_REVERSED_ROOTS),
                          _position(_FORWARD_ROOTS + _REVERSED_ROOTS)), min_size=1, max_size=6),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@example([[0.25, 1.0, 0.0]] * 3 + [[3.0, -40.0, -1.5j]] * 2 + [[0.6 - 0.3j, 3.0, 1j]], 3, 7)
def test_deflate_positions_are_one_position_after_another_bitwise(positions, cols, seed):
    # the run-wise deflation (one pass per run of positions whose roots all
    # take one recurrence, a position that mixes the two row by row) gives
    # deflate_positions one position at a time, and poly_deflate and the
    # plain recurrence root by root, bit for bit, -0.0 coefficients included
    rng = np.random.default_rng(seed)
    m = len(positions)
    p = rng.normal(size=(m + 4, _ROWS, cols)) + 1j * rng.normal(size=(m + 4, _ROWS, cols))
    p[rng.random(p.shape) < 0.15] = complex(-0.0, -0.0)
    p[rng.random(p.shape) < 0.15] = complex(0.0, -0.0)
    p[-1, 0] = -0.0
    root = np.array(positions, dtype=complex)                     # (position, row)
    got = deflate_positions(p, root)
    want = p
    for j in range(m):
        want = deflate_positions(want, root[j:j + 1])
    assert got.shape == want.shape == (4, _ROWS, cols)
    assert got.tobytes() == want.tobytes()
    for i in range(_ROWS):
        for c in range(cols):
            alone = plain = p[:, i, c]
            for r in root[:, i]:
                alone, plain = poly_deflate(alone, r), _deflate_reference(plain, r)
            assert got[:, i, c].tobytes() == alone.tobytes() == plain.tobytes()


def test_row_scaled_column_norms_are_equilibrate_s_bitwise():
    # _kernel_dim reads the column norms of the row-scaled system alone:
    # they are equilibrate's, and the norms of the rows scaled as it scales
    # them, for one matrix and a stack, real and complex, zero rows included
    rng = np.random.default_rng(10)
    for a in (rng.normal(size=(9, 4)), rng.normal(size=(5, 9, 4)) + 1j * rng.normal(size=(5, 9, 4))):
        a[..., 3, :] = 0.0
        rows = np.linalg.norm(a, axis=-1, keepdims=True)
        want = np.linalg.norm(a / np.where(rows > 0, rows, 1.0), axis=-2)
        scaled, cols = row_scaled(a)
        assert cols.tobytes() == equilibrate(a)[1].tobytes() == want.tobytes()
        assert scaled.tobytes() == (a / np.where(rows > 0, rows, 1.0)).tobytes()


def test_quadratic_roots_symmetric_pair():
    r1, r2 = quadratic_roots(-0.5, 0.0, 0.5)
    assert sorted([r1.real, r2.real]) == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_quadratic_roots_vieta_product():
    # pair form {tau0, -1/tau0}: product is c/a = -1
    r1, r2 = quadratic_roots(-0.5, 0.7, 0.5)
    assert abs(r1 * r2 + 1.0) <= 1e-12


def test_quadratic_roots_kerr_case():
    # rho=1, v=2, omega0=sqrt(3): direct formula of the pair members
    dv = 2.0 - np.sqrt(3.0)
    r1, r2 = quadratic_roots(-0.5, dv, 0.5)
    expected = {(dv + np.sqrt(dv * dv + 1.0)), (dv - np.sqrt(dv * dv + 1.0))}
    got = sorted([r1.real, r2.real])
    assert got == pytest.approx(sorted(expected), rel=1e-12)


def test_quadratic_roots_residual_bound(rng):
    for _ in range(30):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(scale=100.0), rng.normal())
        c = complex(rng.normal(), rng.normal())
        for r in quadratic_roots(a, b, c):
            resid = abs(a * r * r + b * r + c)
            assert resid <= 1e-12 * max(abs(a), abs(b), abs(c)) * max(1.0, abs(r)) ** 2


def test_quadratic_degenerate_raises():
    with pytest.raises(DegenerateCoefficient):
        quadratic_roots(0.0, 1.0, 2.0)


def test_nullity_basic():
    assert numerical_nullity(np.eye(4)) == 0
    assert numerical_nullity(np.zeros((3, 3))) == 3


def test_nullity_row_scaling_invariance(rng):
    # rank decisions are robust under mild row scaling
    A = rng.normal(size=(5, 5))
    A[4] = A[0] + A[1]  # rank 4
    base = numerical_nullity(A)
    assert base == 1
    for _ in range(10):
        s = rng.uniform(0.5, 2.0, size=5)
        assert numerical_nullity(A * s[:, None]) == base


def test_factored_rational_arithmetic(rng):
    f = FactoredRational(np.array([1.0, 1.0]), 1.0, (2.0,))
    g = FactoredRational(np.array([0.0, 1.0]), 2.0, (2.0, -0.5))
    t = 1.3 + 0.4j
    assert abs(f.add(g)(t) - (f(t) + g(t))) < 1e-14
    assert abs(f.mul(g)(t) - f(t) * g(t)) < 1e-14
    assert abs(f.sub(g)(t) - (f(t) - g(t))) < 1e-14


def test_factored_rational_simplify():
    # (tau - 2)(tau + 1) / (tau - 2) cancels exactly
    fr = FactoredRational(poly_mul([-2.0, 1.0], [1.0, 1.0]), 1.0, (2.0, 0.5))
    s = fr.simplified()
    assert len(s.den_roots) == 1
    assert abs(s.den_roots[0] - 0.5) < 1e-12
    assert abs(s(1.1) - fr(1.1)) < 1e-12


def test_scale_neg():
    fr = FactoredRational(np.array([1.0, 2.0]))
    assert np.allclose(poly_scale(fr.neg().num, -1.0), fr.num)


# The coefficient helpers as numpy's wrappers computed them; the fast paths
# must return the same bits.


def _as_poly_reference(c):
    a = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    if a.size == 0:
        return np.zeros(1, dtype=complex)
    return a


def _poly_trim_reference(c, rel=TRIM_REL):
    p = _as_poly_reference(c)
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    k = p.size - 1
    while k > 0 and abs(p[k]) <= rel * scale:
        k -= 1
    return p[: k + 1].copy()


def _poly_degree_reference(c):
    p = _poly_trim_reference(c)
    if p.size == 1 and p[0] == 0:
        return -1
    return p.size - 1


def _poly_is_zero_reference(c):
    return np.max(np.abs(_as_poly_reference(c))) == 0.0


def _poly_add_reference(a, b):
    return _poly_trim_reference(npoly.polyadd(_as_poly_reference(a), _as_poly_reference(b)))


_PARTS = [0.0, -0.0, 1.0, -1.0, 2.0, TRIM_REL, -TRIM_REL, 2.0 * TRIM_REL,
          float(np.nextafter(TRIM_REL, 0.0)), float(np.nextafter(TRIM_REL, 1.0)),
          1e-300, 1e300, math.nan, -math.nan, math.inf, -math.inf]
_part = st.one_of(st.sampled_from(_PARTS), st.floats(-5.0, 5.0))
_FORMS = ("list", "reals", "ints", "array", "strided", "scalar", "0-d", "2-d")


@st.composite
def poly_inputs(draw):
    """Coefficients in every form the helpers take: lists, real and int
    arrays, 1-d complex arrays (contiguous or not), scalars, 0-d and 2-d
    arrays, empty ones included; NaN of both signs, inf, -0.0 and
    TRIM_REL-boundary parts."""
    re = draw(st.lists(_part, max_size=6))
    im = draw(st.lists(_part, min_size=len(re), max_size=len(re)))
    z = [complex(x, y) for x, y in zip(re, im)]
    form = draw(st.sampled_from(_FORMS))
    if form == "list":
        return z
    if form == "reals":
        return np.array(re, dtype=float)
    if form == "ints":
        return np.array(draw(st.lists(st.integers(-3, 3), max_size=6)), dtype=int)
    if form == "array":
        return np.array(z, dtype=complex)
    if form == "strided":
        return np.repeat(np.array(z, dtype=complex), 2)[::2]
    if form == "scalar":
        return z[0] if z else (re or [0.0])[0]
    if form == "0-d":
        return np.array(z[0] if z else 0.0)
    return np.array(z, dtype=complex).reshape((1, -1) if draw(st.booleans()) else (-1, 1))


def _same_bits(got, want):
    assert type(got) is np.ndarray and got.dtype == want.dtype
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@seed(20261020)
@settings(max_examples=400, deadline=None, database=None)
@given(a=poly_inputs(), b=poly_inputs())
@example(a=[1.0, TRIM_REL], b=[1.0, float(np.nextafter(TRIM_REL, 1.0))])
@example(a=np.array([2.0, 0.0, 2.0 * TRIM_REL]), b=[0.0, -0.0])
@example(a=[1.0, 0.0], b=np.array([1.0, complex(-0.0, -0.0), 1.0]))
@example(a=[0.0, math.inf], b=[math.nan])
@example(a=[-math.nan, 1.0], b=[math.nan, 1.0])
def test_coefficient_helpers_are_their_reference_definitions_bitwise(a, b):
    with np.errstate(all="ignore"):          # inf - inf and the like, on both sides
        for c in (a, b):
            _same_bits(as_poly(c), _as_poly_reference(c))
            if type(c) is np.ndarray and c.ndim == 1 and c.dtype == complex and c.size:
                assert as_poly(c) is c           # a 1-d complex array is taken as it is
            trimmed = poly_trim(c)
            _same_bits(trimmed, _poly_trim_reference(c))
            assert not (isinstance(c, np.ndarray) and np.shares_memory(trimmed, c))
            assert poly_degree(c) == _poly_degree_reference(c)
            assert poly_is_zero(c) == bool(_poly_is_zero_reference(c))
        _same_bits(poly_add(a, b), _poly_add_reference(a, b))
        _same_bits(poly_add(b, a), _poly_add_reference(b, a))
        # poly_sub takes polynomials as poly_trim leaves finite ones
        ta, tb = poly_trim(a), poly_trim(b)
        if np.isfinite(ta).all() and np.isfinite(tb).all():
            for x, y in ((ta, tb), (tb, ta)):
                _same_bits(poly_sub(x, y), _poly_trim_reference(npoly.polysub(x, y)))
        for z in (0.7 - 1.3j, 2.5, -0.0, np.complex128(-1.1 + 0.4j), np.float64(3.0),
                  np.array(0.5 + 2j), np.array([0.3, -2.0 + 1j, 0.0]), [1.5, -0.25],
                  (2j, -1.0), np.array([[0.9, -1.7j], [3.0, 0.0]])):
            got, want = poly_eval(a, z), npoly.polyval(z, _as_poly_reference(a))
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
