"""The paper's tau-plane route, kept as a test oracle.

M(omega) composed with the spectral relation gives a monodromy matrix in
tau.  For 2x2 models of the common-denominator form, the value-and-
derivative system at the inside zeros is the paper's existence system; for
Kerr its determinant is f*h, which vanishes on the ergosurface.  The library
computes every answer from the plan compiled per (model, branches) and
composes no monodromy; the tests check it against this route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from whergo.catalog import DegreeTable, RationalEntry, RationalMatrixOmega
from whergo.engine import Classification, _check_branches, classify_2x2
from whergo.errors import InvariantViolation, WhergoError
from whergo.poly import (
    FactoredRational,
    as_poly,
    poly_degree,
    poly_derivative,
    poly_eval,
    poly_is_zero,
    poly_mul,
    poly_scale,
    poly_trim,
)
from whergo.spectral import BRANCH_MINUS, SpectralPoint, spectral_map, zero_pair_for

_MONODROMY_SEED = 40923


class DegenerateZeros(WhergoError):
    """Two inside zeros coincide within tolerance."""


def poly_shift(a, k: int) -> np.ndarray:
    """Multiply by tau**k (coefficient shift)."""
    p = as_poly(a)
    if k == 0 or poly_is_zero(p):
        return p.copy()
    return np.concatenate([np.zeros(k, dtype=complex), p])


def compose_polynomial(pt: SpectralPoint, coeffs) -> tuple[np.ndarray, int]:
    """Compose p(omega) with the spectral relation.

    Returns (ptilde, k) with p(omega(tau)) = ptilde(tau) / tau^k and
    deg ptilde = 2k for a degree-k input.  Only lambda = +1 is supported.
    """
    if pt.lam != 1:
        raise ValueError("composition implemented for lambda = +1 only")
    p = poly_trim(coeffs)
    k = p.size - 1
    # W(tau) = tau * omega(tau) = rho/2 + v*tau - (rho/2) tau^2
    w = np.array([pt.rho / 2.0, pt.v, -pt.rho / 2.0], dtype=complex)
    acc = np.zeros(2 * k + 1, dtype=complex)
    wpow = np.ones(1, dtype=complex)
    for j in range(k + 1):
        if p[j] != 0:
            term = poly_shift(wpow * p[j], k - j)
            acc[: term.size] += term
        if j < k:
            wpow = poly_mul(wpow, w)
    return poly_trim(acc), k


# ---------------------------------------------------------------------------
# monodromy composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonodromyMatrixTau:
    """Composed monodromy matrix: rational entries in tau plus bookkeeping.

    Each entry lists its tau-plane poles: both members of the zero pair of
    every omega pole of the entry, and tau = 0 where it grows at infinity.
    For 2x2 models of the common-denominator form the model's degree table
    is attached, together with the composed denominator q_2n and numerator
    polynomials ptilde at this point; they feed the existence system.
    """

    n: int
    pt: SpectralPoint
    entries: tuple                  # n x n of FactoredRational in tau
    model: RationalMatrixOmega
    degree_table: DegreeTable | None = None
    q2n: np.ndarray | None = None   # composed denominator polynomial (2x2)
    ptilde: tuple | None = None     # ((p11~, p12~), (p12~, p22~)) numerators (2x2)

    def eval(self, tau) -> np.ndarray:
        return np.array([[self.entries[i][j](tau) for j in range(self.n)]
                         for i in range(self.n)])


def _close(a, b, rel=1e-8):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _compose_entry(entry: RationalEntry, pt: SpectralPoint, root_hints):
    """Compose num/den with the spectral relation, attaching exact den roots.

    root_hints maps each omega-plane pole to its tau pair (both members), so
    the composed denominator is stored in factored form.
    """
    kn = poly_degree(entry.num)
    kd = poly_degree(entry.den)
    if kn < 0:  # zero numerator
        return FactoredRational(as_poly([0.0]))
    num_t, _ = compose_polynomial(pt, entry.num)
    den_t, _ = compose_polynomial(pt, entry.den)
    den_lc = den_t[-1]
    roots = []
    for r in entry.den_roots:
        roots.extend(root_hints(r))
    shift = kd - kn
    if shift >= 0:
        num_t = poly_shift(num_t, shift)
    else:
        roots.extend([0.0 + 0j] * (-shift))
    return FactoredRational(poly_trim(num_t), den_lc, tuple(roots))


def compose_monodromy(model: RationalMatrixOmega, pt: SpectralPoint,
                      check: bool = True) -> MonodromyMatrixTau:
    """Compose M(omega) with the spectral relation at the given Weyl point.

    Only what moves with (rho, v) is computed here: the tau-plane pair of
    each omega-plane pole and the composed polynomials.  The entry
    denominator roots, the 2x2 normal form and its degree table are read
    from the model, which computes each of them once.  check=False skips
    the sample-point consistency validation."""
    if pt.lam != 1:
        raise ValueError("the factorisation engine is restricted to lambda = +1")
    pair_cache: dict[complex, tuple] = {}

    def hints(omega0):
        for key, val in pair_cache.items():
            if _close(key, omega0):
                return val
        zp = zero_pair_for(pt, omega0, BRANCH_MINUS)
        pair_cache[complex(omega0)] = (zp.tau_in, zp.tau_out)
        return pair_cache[complex(omega0)]

    entries = tuple(tuple(_compose_entry(model.entry(i, j), pt, hints)
                          for j in range(model.n)) for i in range(model.n))

    degree_table = model.degree_table
    q2n = None
    ptilde = None
    if degree_table is not None:
        q, p = model.common_denominator_form
        q2n, _ = compose_polynomial(pt, q)
        pt11, _ = compose_polynomial(pt, p[0][0])
        pt12, _ = compose_polynomial(pt, p[0][1])
        pt22, _ = compose_polynomial(pt, p[1][1])
        ptilde = ((pt11, pt12), (pt12, pt22))
    mono = MonodromyMatrixTau(model.n, pt, entries, model, degree_table, q2n, ptilde)
    if check:
        _check_monodromy(mono)
    return mono


def _check_monodromy(mono: MonodromyMatrixTau):
    """The composed entries equal M(omega(tau)) to 1e-10 of max(1, |M|), and
    det = 1, at seeded tau."""
    rng = np.random.default_rng(_MONODROMY_SEED)
    for _ in range(7):
        tau = complex(rng.uniform(0.3, 1.8), rng.uniform(-1.2, 1.2))
        w = spectral_map(mono.pt, tau)
        direct = mono.model.eval(w)
        composed = mono.eval(tau)
        scale = max(1.0, np.max(np.abs(direct)))
        if np.max(np.abs(direct - composed)) > 1e-10 * scale:
            raise InvariantViolation(
                f"composed monodromy mismatch {np.max(np.abs(direct - composed)):.2e} at tau={tau}")
        det = np.linalg.det(composed)
        if abs(det - 1.0) > 1e-8 * scale ** mono.n:
            raise InvariantViolation(f"det of composed monodromy is {det} at tau={tau}")


# ---------------------------------------------------------------------------
# existence system
# ---------------------------------------------------------------------------


def _inside_zeros(mono: MonodromyMatrixTau, branches):
    """Inside zeros tau_i of q_2n in the model's declared pole order."""
    model = mono.model
    taus = [zero_pair_for(mono.pt, w, b).tau_in
            for w, b in zip(model.omega_poles, _check_branches(model, branches))]
    for i in range(len(taus)):
        for j in range(i + 1, len(taus)):
            if abs(taus[i] - taus[j]) < 1e-10 * max(1.0, abs(taus[i])):
                raise DegenerateZeros(f"inside zeros {taus[i]} and {taus[j]} coincide")
    return taus


def _normal_form_gpair(mono: MonodromyMatrixTau):
    """g2 = tau^(N2-k22) p22~ and g1 = tau^(N1-k12) p12~ of the existence system."""
    dt = mono.degree_table
    p12t = mono.ptilde[0][1]
    p22t = mono.ptilde[1][1]
    g2 = poly_shift(p22t, dt.N2 - dt.k22)
    g1 = poly_shift(p12t, dt.N1 - dt.k12)
    return g1, g2


def existence_system_2x2(mono: MonodromyMatrixTau, branches=None) -> np.ndarray:
    """Value-and-derivative system at the inside zeros (homogeneous form),
    the paper's reference D for the 2x2 normal form.

    branches picks the inside member of each zero pair, one tag per omega
    pole (default: the model's).  Unknown order (alpha_0, .., alpha_{N1-1},
    beta_0, .., beta_{N2-1}); row order value-then-derivative per inside
    zero, in the model's declared pole order.
    """
    dt = mono.degree_table
    cls = classify_2x2(mono)
    if cls.kind is not Classification.DETERMINANT_TEST:
        raise ValueError(f"existence system defined for the determinant-test case, got {cls.kind}")
    taus = _inside_zeros(mono, branches)
    g1, g2 = _normal_form_gpair(mono)
    # rows of alpha(tau) * g2 - beta(tau) * g1
    return _block_rows_at_zero(taus, g2, poly_scale(g1, -1.0), dt.N1, dt.N2)


def _block_rows_at_zero(taus, poly_alpha, poly_beta, n_alpha, n_beta):
    """Value and derivative rows of alpha(tau)*poly_alpha + beta(tau)*poly_beta
    at each tau_i, where alpha/beta are unknown-coefficient polynomials."""
    da, db = poly_derivative(poly_alpha), poly_derivative(poly_beta)
    rows = []
    for t in taus:
        va, via = poly_eval(poly_alpha, t), poly_eval(da, t)
        vb, vib = poly_eval(poly_beta, t), poly_eval(db, t)
        pw_a = np.array([t ** c for c in range(n_alpha)])
        pw_b = np.array([t ** c for c in range(n_beta)])
        dpw_a = np.array([c * t ** (c - 1) if c > 0 else 0.0 for c in range(n_alpha)])
        dpw_b = np.array([c * t ** (c - 1) if c > 0 else 0.0 for c in range(n_beta)])
        rows.append(np.concatenate([pw_a * va, pw_b * vb]))
        rows.append(np.concatenate([dpw_a * va + pw_a * via, dpw_b * vb + pw_b * vib]))
    return np.array(rows)
