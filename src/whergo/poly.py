"""Dense complex polynomials, factored rationals and small dense linear algebra.

Polynomials are 1-d complex arrays of coefficients in ascending power order,
kept in trimmed canonical form (nonzero leading coefficient unless the
polynomial is identically zero).  Matrices are plain numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .errors import DegenerateCoefficient

# Coefficients below TRIM_REL * max|coeff| are treated as arithmetic noise.
TRIM_REL = 1e-14

# The one rank tolerance: a matrix is rank deficient where, with its rows and
# then its columns scaled to unit norm, sigma_min / sigma_max <= DEFAULT_TOL.
DEFAULT_TOL = 1e-9


def as_poly(c) -> np.ndarray:
    a = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    if a.size == 0:
        return np.zeros(1, dtype=complex)
    return a


def poly_trim(c, rel: float = TRIM_REL) -> np.ndarray:
    p = as_poly(c)
    scale = np.max(np.abs(p))
    if scale == 0.0:
        return np.zeros(1, dtype=complex)
    k = p.size - 1
    while k > 0 and abs(p[k]) <= rel * scale:
        k -= 1
    return p[: k + 1].copy()


def poly_degree(c) -> int:
    p = poly_trim(c)
    if p.size == 1 and p[0] == 0:
        return -1
    return p.size - 1


def poly_is_zero(c) -> bool:
    """True when every coefficient is exactly zero (no noise threshold)."""
    return np.max(np.abs(as_poly(c))) == 0.0


def poly_eval(c, z):
    """Horner evaluation; `z` may be a scalar or an array."""
    return npoly.polyval(z, as_poly(c))


def poly_derivative(c) -> np.ndarray:
    p = as_poly(c)
    if p.size == 1:
        return np.zeros(1, dtype=complex)
    return poly_trim(p[1:] * np.arange(1, p.size))


def poly_add(a, b) -> np.ndarray:
    return poly_trim(npoly.polyadd(as_poly(a), as_poly(b)))


def poly_mul(a, b) -> np.ndarray:
    pa, pb = as_poly(a), as_poly(b)
    if poly_is_zero(pa) or poly_is_zero(pb):
        return np.zeros(1, dtype=complex)
    return poly_trim(np.convolve(pa, pb))


def poly_scale(a, s) -> np.ndarray:
    return poly_trim(as_poly(a) * complex(s))


def poly_shift(a, k: int) -> np.ndarray:
    """Multiply by tau**k (coefficient shift)."""
    p = as_poly(a)
    if k == 0 or poly_is_zero(p):
        return p.copy()
    return np.concatenate([np.zeros(k, dtype=complex), p])


def poly_from_roots(roots, lc=1.0) -> np.ndarray:
    p = np.array([complex(lc)])
    for r in roots:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return p


def poly_deflate(c, root) -> tuple[np.ndarray, float]:
    """Synthetic division by (tau - root); returns (quotient, |remainder|).

    c is one polynomial or a stack of them with the coefficients on axis 0
    (the quotients then share that layout, the remainders the trailing
    shape).  Forward recurrence for |root| <= 1, reversed-coefficient
    recurrence for |root| > 1 (equivalent to deflating the reversed
    polynomial at 1/root), which keeps the division backward-stable for any
    root magnitude.  One polynomial runs as a stack of one, so that every
    column of a stack is divided bitwise as it would be alone.
    """
    p = np.asarray(c, dtype=complex)
    if p.ndim == 0 or p.size == 0:
        p = as_poly(p)
    stack, n = p.shape[1:], p.shape[0] - 1
    p = np.ascontiguousarray(p.reshape(n + 1, -1))
    if n < 1:
        return np.zeros((1,) + stack, dtype=complex), np.abs(p[0]).reshape(stack)[()]
    root = complex(root)
    q = np.empty((n, p.shape[1]), dtype=complex)
    if abs(root) <= 1.0:
        acc = p[n]
        for k in range(n - 1, -1, -1):
            q[k] = acc
            acc = p[k] + acc * root
        rem = np.abs(acc)
    else:
        inv = 1.0 / root
        acc = -p[0] * inv
        for k in range(n):
            q[k] = acc
            acc = (q[k] - p[k + 1]) * inv
        # final defect is -p(root)/root^(n+1)
        rem = np.abs(acc) * abs(root) ** (n + 1)
    return q.reshape((n,) + stack), rem.reshape(stack)[()]


def newton_polish(c, z, steps: int = 1):
    """Refine a root of the polynomial by one or more Newton steps."""
    p = as_poly(c)
    dp = poly_derivative(p)
    for _ in range(steps):
        d = poly_eval(dp, z)
        if d == 0:
            break
        step = poly_eval(p, z) / d
        if not np.isfinite(step):
            break
        z = z - step
    return z


def quadratic_roots(a, b, c) -> tuple[complex, complex]:
    """Both roots of a*t^2 + b*t + c, large-magnitude root computed first.

    The second root comes from the product c/a, which avoids cancellation
    when |b| dominates.  Each root gets one Newton polish on the full
    quadratic.
    """
    a, b, c = complex(a), complex(b), complex(c)
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0 or abs(a) <= 1e-300 or abs(a) < 1e-15 * scale:
        raise DegenerateCoefficient("quadratic leading coefficient is zero")
    disc = np.sqrt(b * b - 4.0 * a * c + 0j)
    # pick the sign that adds constructively to -b
    if (b.conjugate() * disc).real > 0.0:
        disc = -disc
    r1 = (-b + disc) / (2.0 * a)
    if r1 == 0:
        r2 = -b / a
    else:
        r2 = (c / a) / r1
    p = np.array([c, b, a])
    return newton_polish(p, r1), newton_polish(p, r2)


# ---------------------------------------------------------------------------
# factored rationals in tau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactoredRational:
    """num(tau) / (den_lc * prod (tau - r)) with denominator roots listed
    explicitly (with multiplicity).  All pole locations are tracked exactly,
    which lets rational arithmetic cancel shared factors reliably."""

    num: np.ndarray
    den_lc: complex = 1.0
    den_roots: tuple = ()

    @staticmethod
    def from_const(c) -> "FactoredRational":
        return FactoredRational(as_poly([c]))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=complex)
        den = np.full(tau.shape, complex(self.den_lc))
        for r in self.den_roots:
            den = den * (tau - r)
        val = poly_eval(self.num, tau) / den
        if val.shape == ():
            return complex(val)
        return val

    def is_zero(self) -> bool:
        return poly_is_zero(self.num)

    def scale(self, s) -> "FactoredRational":
        return FactoredRational(poly_scale(self.num, s), self.den_lc, self.den_roots)

    def neg(self) -> "FactoredRational":
        return self.scale(-1.0)

    def mul(self, other: "FactoredRational") -> "FactoredRational":
        return FactoredRational(
            poly_mul(self.num, other.num),
            self.den_lc * other.den_lc,
            self.den_roots + other.den_roots,
        )

    def add(self, other: "FactoredRational") -> "FactoredRational":
        """Sum over the root-multiset lcm denominator; no cancellation is
        attempted (call simplified() explicitly), so the denominator
        structure stays stable under parameter sweeps."""
        lcm, cof_a, cof_b = _root_lcm(self.den_roots, other.den_roots)
        num = poly_add(
            poly_mul(poly_scale(self.num, other.den_lc), poly_from_roots(cof_a)),
            poly_mul(poly_scale(other.num, self.den_lc), poly_from_roots(cof_b)),
        )
        return FactoredRational(num, self.den_lc * other.den_lc, lcm)

    def sub(self, other: "FactoredRational") -> "FactoredRational":
        return self.add(other.neg())

    def simplified(self, rel: float = 1e-9) -> "FactoredRational":
        """Cancel denominator roots at which the numerator vanishes."""
        num = poly_trim(self.num)
        if poly_is_zero(num):
            return FactoredRational(num, 1.0, ())
        keep = []
        for r in self.den_roots:
            scale = np.max(np.abs(num)) * max(1.0, abs(r)) ** max(num.size - 1, 0)
            if abs(poly_eval(num, r)) <= rel * scale:
                num, _ = poly_deflate(num, r)
            else:
                keep.append(r)
        return FactoredRational(poly_trim(num), self.den_lc, tuple(keep))

    def limit_at_infinity(self) -> complex:
        """Finite limit as tau -> oo (0 if numerator degree is smaller)."""
        dn, dd = poly_degree(self.num), len(self.den_roots)
        if dn > dd:
            raise ValueError("rational function unbounded at infinity")
        if dn < dd:
            return 0.0
        return complex(self.num[-1] / self.den_lc)


def _root_match(a, b, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _multiset_minus(roots_a, roots_b):
    """Roots of a left over after removing one match per root of b."""
    rem = list(roots_a)
    for s in roots_b:
        for i, r in enumerate(rem):
            if _root_match(s, r):
                rem.pop(i)
                break
    return rem


def _root_lcm(roots_a, roots_b):
    """Root-multiset lcm; returns (lcm, cofactor_a, cofactor_b) with
    cofactor_x = lcm / roots_x."""
    cof_a = _multiset_minus(roots_b, roots_a)
    cof_b = _multiset_minus(roots_a, roots_b)
    lcm = list(roots_a) + cof_a
    return tuple(lcm), tuple(cof_a), tuple(cof_b)


# ---------------------------------------------------------------------------
# small dense linear algebra
# ---------------------------------------------------------------------------


def _lu_decompose(A, piv_rel: float = 1e-15):
    """LU with partial pivoting; returns (LU, sign of the row permutation).
    A pivot at or below piv_rel * max|A| eliminates nothing below it."""
    A = np.array(A, dtype=complex)
    n, m = A.shape
    if n != m:
        raise ValueError("square matrix required")
    scale = np.max(np.abs(A)) or 1.0
    sign = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if p != k:
            A[[k, p]] = A[[p, k]]
            sign = -sign
        piv = A[k, k]
        if abs(piv) <= piv_rel * scale:
            continue
        A[k + 1:, k] /= piv
        A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
    return A, sign


def dense_det(A) -> complex:
    """Determinant via LU; permutation sign tracked exactly."""
    A = np.asarray(A, dtype=complex)
    if A.shape[0] == 0:
        return 1.0 + 0j
    LU, sign = _lu_decompose(A.copy())
    return complex(sign * np.prod(np.diag(LU)))


def equilibrate(A):
    """(A with its rows and then its columns scaled to unit 2-norm, the
    column norms of the row-scaled A), for one matrix (m, u) or a stack
    (..., m, u).  Zero rows and columns stay zero (van der Sluis 1969:
    this scaling takes the condition number to within a factor sqrt(u) of
    its minimum over all column scalings)."""
    A = np.asarray(A)
    rows = np.linalg.norm(A, axis=-1, keepdims=True)
    A = A / np.where(rows > 0, rows, 1.0)
    cols = np.linalg.norm(A, axis=-2)
    return A / np.where(cols > 0, cols, 1.0)[..., None, :], cols


def numerical_nullity(A, tol: float = DEFAULT_TOL):
    """Kernel dimension of a matrix (m, u), m >= u, or of each matrix of a
    stack (..., m, u): the number of singular values <= tol * sigma_max
    once the rows and then the columns are scaled to unit norm, so that no
    row or column scaling changes the count.  A zero matrix counts all of
    them.  Returns an int, or an int array of the stack's shape."""
    s = np.linalg.svd(equilibrate(A)[0], compute_uv=False)
    count = np.sum(s <= tol * s[..., :1], axis=-1)
    return int(count) if count.ndim == 0 else count
