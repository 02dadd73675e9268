import numpy as np
import pytest

from whergo.errors import DegenerateCoefficient
from whergo.poly import (
    FactoredRational,
    dense_det,
    newton_polish,
    numerical_nullity,
    poly_add,
    poly_deflate,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_scale,
    poly_trim,
    quadratic_roots,
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
    q, rem = poly_deflate(p, 2.0)
    assert rem < 1e-14
    assert np.allclose(q, poly_from_roots([-1.0, 0.5]))


@pytest.mark.parametrize("root", [0.6 - 0.3j, -1.0, 2.5 + 1.5j, -40.0])
def test_deflate_stack_is_the_columns_bitwise(root):
    # a stack (coefficients on axis 0) divides every column as it would be
    # divided alone, on the forward (|root| <= 1) and the reversed recurrence
    rng = np.random.default_rng(5)
    p = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    q, rem = poly_deflate(p, root)
    assert q.shape == (5, 4) and rem.shape == (4,)
    for i in range(4):
        qi, ri = poly_deflate(p[:, i], root)
        assert np.array_equal(q[:, i], qi) and rem[i] == ri


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


def test_dense_det():
    assert dense_det(np.eye(3)) == pytest.approx(1.0)
    A = np.outer([1.0, 2.0], [3.0, 4.0])
    assert abs(dense_det(A)) <= 1e-14 * np.max(np.abs(A)) ** 2


def test_det_times_det_inverse(rng):
    for _ in range(5):
        A = rng.normal(size=(6, 6)) + np.eye(6) * 3.0
        val = dense_det(A) * dense_det(np.linalg.inv(A))
        assert abs(val - 1.0) <= 1e-10


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


def test_factored_rational_limit():
    fr = FactoredRational(np.array([0.0, 3.0]), 2.0, (1.5,))
    assert fr.limit_at_infinity() == pytest.approx(1.5)
    fr = FactoredRational(np.array([1.0]), 1.0, (1.5,))
    assert fr.limit_at_infinity() == 0.0


def test_scale_neg():
    fr = FactoredRational(np.array([1.0, 2.0]))
    assert np.allclose(poly_scale(fr.neg().num, -1.0), fr.num)
