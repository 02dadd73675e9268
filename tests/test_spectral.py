import numpy as np
import pytest

from tau_route import DegeneratePair, compose_polynomial, pair_quadratic, zero_pair_for
from whergo.errors import OutOfChart, ZeroTau
from whergo.poly import poly_eval, poly_mul
from whergo.spectral import (
    SpectralPoint,
    prolate_from_weyl_4d,
    prolate_from_weyl_5d,
    spectral_map,
    weyl_from_prolate_4d,
    weyl_from_prolate_5d,
)

C_KERR = np.sqrt(3.0)


def test_point_validation():
    with pytest.raises(ValueError):
        SpectralPoint(0.0, 1.0)


def test_spectral_map_tau_one_gives_v():
    for v in (-2.0, 0.0, 3.5):
        assert spectral_map(SpectralPoint(1.7, v), 1.0) == pytest.approx(v)


def test_spectral_map_hand_value():
    # rho=2, v=1, tau=2 -> 1 + (1/2)*2*(1-4)/2 = -0.5
    assert spectral_map(SpectralPoint(2.0, 1.0), 2.0) == pytest.approx(-0.5)


def test_spectral_map_zero_tau():
    with pytest.raises(ZeroTau):
        spectral_map(SpectralPoint(1.0, 0.0), 0.0)
    with pytest.raises(ZeroTau):
        spectral_map(SpectralPoint(1.0, 0.0), np.array([1.0, 0.0]))


def test_spectral_map_takes_an_array_of_tau(rng):
    pt = SpectralPoint(1.3, -0.4)
    taus = rng.uniform(0.2, 2.0, (3, 4)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (3, 4)))
    omega = spectral_map(pt, taus)
    assert omega.shape == taus.shape
    for tau, w in zip(taus.ravel(), omega.ravel()):
        assert w == pytest.approx(spectral_map(pt, tau), rel=1e-14)


def test_spectral_map_involution(rng):
    for _ in range(20):
        pt = SpectralPoint(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        tau = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(tau) < 0.05:
            continue
        lhs = spectral_map(pt, tau)
        rhs = spectral_map(pt, -1.0 / tau)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_zero_pair_symmetric_case():
    zp = zero_pair_for(SpectralPoint(1.0, 0.7), 0.7, "minus")
    assert zp.tau_in == pytest.approx(-1.0)
    assert zp.tau_out == pytest.approx(1.0)


def test_zero_pair_kerr_value():
    # rho=1, v=0, omega0=c=sqrt(3), minus branch: tau1 = -sqrt(3) - 2
    zp = zero_pair_for(SpectralPoint(1.0, 0.0), C_KERR, "minus")
    assert zp.tau_in == pytest.approx(-C_KERR - 2.0, rel=1e-14)
    assert zp.tau_out == pytest.approx(-1.0 / (-C_KERR - 2.0), rel=1e-14)


def test_zero_pair_product_and_residual(rng):
    for _ in range(20):
        pt = SpectralPoint(rng.uniform(0.2, 3.0), rng.uniform(-3, 3))
        w0 = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        branch = "minus" if rng.random() < 0.5 else "plus"
        zp = zero_pair_for(pt, w0, branch)
        prod = zp.tau_in * zp.tau_out
        assert abs(prod + 1.0) <= 1e-12 * abs(prod)
        q = pair_quadratic(pt, w0)
        scale = np.max(np.abs(q))
        for t in (zp.tau_in, zp.tau_out):
            assert abs(poly_eval(q, t)) <= 1e-12 * scale * max(1.0, abs(t)) ** 2


def test_zero_pair_branches_multiply_to_minus_one():
    pt = SpectralPoint(1.3, 0.4)
    zm = zero_pair_for(pt, 1.1, "minus")
    zp = zero_pair_for(pt, 1.1, "plus")
    assert abs(zm.tau_in * zp.tau_in + 1.0) < 1e-12


def test_zero_pair_degenerate():
    # v +- i rho coincides with the omega zero
    with pytest.raises(DegeneratePair):
        zero_pair_for(SpectralPoint(1.0, 0.5), 0.5 + 1.0j, "minus")


def test_compose_constant():
    p, k = compose_polynomial(SpectralPoint(1.0, 0.0), [5.0])
    assert k == 0 and np.array_equal(p, [5.0])


def test_compose_linear_is_pair_quadratic():
    pt = SpectralPoint(1.7, -0.6)
    w0 = 0.9 + 0.1j
    p, k = compose_polynomial(pt, [-w0, 1.0])
    assert k == 1
    assert np.allclose(p, pair_quadratic(pt, w0))


def test_compose_kerr_denominator():
    pt = SpectralPoint(1.0, 0.0)
    q4, k = compose_polynomial(pt, [-3.0, 0.0, 1.0])
    assert k == 2
    assert np.allclose(q4, [0.25, 0.0, -3.5, 0.0, 0.25])


def test_compose_matches_direct_evaluation(rng):
    for _ in range(5):
        pt = SpectralPoint(rng.uniform(0.3, 2.5), rng.uniform(-2, 2))
        p = rng.normal(size=4).astype(complex)
        pc, k = compose_polynomial(pt, p)
        tau = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        lhs = poly_eval(p, spectral_map(pt, tau))
        rhs = poly_eval(pc, tau) / tau ** k
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_compose_multiplicative(rng):
    for _ in range(10):
        pt = SpectralPoint(rng.uniform(0.3, 2.5), rng.uniform(-2, 2))
        p = rng.normal(size=3).astype(complex)
        q = rng.normal(size=4).astype(complex)
        cp, kp = compose_polynomial(pt, p)
        cq, kq = compose_polynomial(pt, q)
        cpq, kpq = compose_polynomial(pt, poly_mul(p, q))
        assert kpq == kp + kq
        prod = poly_mul(cp, cq)
        scale = np.max(np.abs(prod))
        assert np.max(np.abs(prod - cpq)) <= 1e-10 * scale


def _insides(pt, omega_zeros, branches):
    """The inside member of each zero pair, one branch tag per omega zero."""
    return [zero_pair_for(pt, w, b).tau_in for w, b in zip(omega_zeros, branches)]


def test_build_partition_kerr_insides(kerr):
    # the inside set a branch tuple selects (the pole partition of the paper)
    pt = SpectralPoint(1.0, 0.0)
    inside = _insides(pt, kerr.omega_poles, ("minus", "minus"))
    t1 = (0 - C_KERR - np.sqrt(3.0 + 1.0)) / 1.0
    t2 = (0 + C_KERR - np.sqrt(3.0 + 1.0)) / 1.0
    assert sorted(x.real for x in inside) == pytest.approx(sorted([t1, t2]), rel=1e-12)
    # swapping both branches lands on the tilde points
    inside_sw = _insides(pt, kerr.omega_poles, ("plus", "plus"))
    assert sorted(x.real for x in inside_sw) == pytest.approx(
        sorted([-1.0 / t1, -1.0 / t2]), rel=1e-12)


def test_build_partition_four_branch_choices_distinct(kerr):
    pt = SpectralPoint(0.9, 0.3)
    seen = set()
    for b1 in ("minus", "plus"):
        for b2 in ("minus", "plus"):
            inside = _insides(pt, kerr.omega_poles, (b1, b2))
            seen.add(tuple(round(t.real, 10) for t in sorted(inside, key=lambda z: z.real)))
    assert len(seen) == 4


def test_build_partition_single_pair_symmetric():
    pt = SpectralPoint(1.0, 0.4)
    zp = zero_pair_for(pt, 0.4, "minus")
    assert sorted(t.real for t in (zp.tau_in, zp.tau_out)) == pytest.approx([-1.0, 1.0])
    assert zero_pair_for(pt, 0.4, "plus").tau_in == pytest.approx(1.0)


def test_prolate_4d_examples():
    rho, v = weyl_from_prolate_4d(2.0, 0.0, C_KERR)
    assert (rho, v) == pytest.approx((1.0, 0.0))
    # y = 0 gives v = 0 for any u
    for u in (1.9, 2.7, 5.0):
        assert weyl_from_prolate_4d(u, 0.0, C_KERR)[1] == 0.0


def test_prolate_4d_roundtrip(rng):
    for _ in range(20):
        u = rng.uniform(C_KERR + 0.05, 6.0)
        y = rng.uniform(-0.95, 0.95)
        rho, v = weyl_from_prolate_4d(u, y, C_KERR)
        u2, y2 = prolate_from_weyl_4d(rho, v, C_KERR)
        assert (u2, y2) == pytest.approx((u, y), abs=1e-10)


def test_prolate_5d_example_and_roundtrip(rng):
    rho, v = weyl_from_prolate_5d(2.0, 0.0, 1.0)
    assert (rho, v) == pytest.approx((np.sqrt(3.0), 0.0))
    for _ in range(20):
        u = rng.uniform(1.05, 5.0)
        y = rng.uniform(-0.95, 0.95)
        rho, v = weyl_from_prolate_5d(u, y, 0.75)
        u2, y2 = prolate_from_weyl_5d(rho, v, 0.75)
        assert (u2, y2) == pytest.approx((u, y), abs=1e-10)


def test_prolate_out_of_chart():
    with pytest.raises(OutOfChart):
        weyl_from_prolate_4d(1.0, 0.5, C_KERR)  # u < c
    with pytest.raises(OutOfChart):
        weyl_from_prolate_5d(2.0, 1.3, 0.75)    # |y| >= 1

