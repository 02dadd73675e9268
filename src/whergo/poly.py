"""Dense complex polynomials, factored rationals and small dense linear algebra.

Polynomials are 1-d complex arrays of coefficients in ascending power order,
kept in trimmed canonical form (nonzero leading coefficient unless the
polynomial is identically zero).  Matrices are plain numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

# Coefficients below TRIM_REL * max|coeff| are treated as arithmetic noise.
TRIM_REL = 1e-14

# The one rank tolerance: a matrix is rank deficient where, with its rows and
# then its columns scaled to unit norm, sigma_min / sigma_max <= DEFAULT_TOL.
DEFAULT_TOL = 1e-9


def as_poly(c) -> np.ndarray:
    """c as a 1-d complex array, [0] where it is empty; a non-empty 1-d
    complex array is returned as it is."""
    if type(c) is np.ndarray and c.ndim == 1 and c.dtype == complex and c.size:
        return c
    a = np.atleast_1d(np.asarray(c, dtype=complex)).ravel()
    if a.size == 0:
        return np.zeros(1, dtype=complex)
    return a


def _trimmed_size(p: np.ndarray, rel: float = TRIM_REL) -> int:
    """Number of coefficients of p that poly_trim keeps, 0 where p is
    identically zero."""
    scale = np.abs(p).max()
    if scale == 0.0:
        return 0
    k = p.size - 1
    while k > 0 and abs(p[k]) <= rel * scale:
        k -= 1
    return k + 1


def poly_trim(c, rel: float = TRIM_REL) -> np.ndarray:
    p = as_poly(c)
    k = _trimmed_size(p, rel)
    return p[:k].copy() if k else np.zeros(1, dtype=complex)


def poly_degree(c) -> int:
    p = as_poly(c)
    k = _trimmed_size(p)
    # an infinite coefficient trims every finite one, p[0] = 0 included
    return -1 if k == 1 and p[0] == 0 else k - 1


def poly_is_zero(c) -> bool:
    """True when every coefficient is exactly zero (no noise threshold)."""
    return not as_poly(c).any()


def poly_eval(c, z):
    """Horner evaluation; `z` may be a scalar or an array."""
    return npoly.polyval(z, as_poly(c))


def poly_eval_stack(c, z) -> np.ndarray:
    """Horner values of a stack of polynomials c (..., coefficient), all
    ascending and zero-padded to one length, at z of any shape; returns
    shape c.shape[:-1] + z.shape.  Each value is poly_eval's at an array of
    z, bitwise (leading zero coefficients change no value); a scalar z runs
    as an array of one, so that it too is taken in numpy's array arithmetic."""
    z = np.asarray(z)
    x = z.reshape(-1)
    val = c[..., -1, None] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        val = c[..., k, None] + val * x
    return val.reshape(c.shape[:-1] + z.shape)


def poly_derivative(c) -> np.ndarray:
    p = as_poly(c)
    if p.size == 1:
        return np.zeros(1, dtype=complex)
    return poly_trim(p[1:] * np.arange(1, p.size))


def poly_add(a, b) -> np.ndarray:
    # npoly.polyadd's sum, bitwise: exact trailing zeros dropped first (they
    # would turn a -0.0 of the other term into +0.0), then the shorter term,
    # or a where the lengths are equal, added into a copy of the other
    pa, pb = (_exact_trim(as_poly(x)) for x in (a, b))
    if pa.size <= pb.size:
        pa, pb = pb, pa
    out = pa.copy()
    out[:pb.size] += pb
    return poly_trim(out)


def _exact_trim(p: np.ndarray) -> np.ndarray:
    """p without its exactly zero trailing coefficients, p[0] always kept."""
    k = p.size
    while k > 1 and p[k - 1] == 0:
        k -= 1
    return p[:k]


def poly_mul(a, b) -> np.ndarray:
    pa, pb = as_poly(a), as_poly(b)
    if poly_is_zero(pa) or poly_is_zero(pb):
        return np.zeros(1, dtype=complex)
    return poly_trim(np.convolve(pa, pb))


def poly_scale(a, s) -> np.ndarray:
    return poly_trim(as_poly(a) * complex(s))


def poly_from_roots(roots, lc=1.0) -> np.ndarray:
    p = np.array([complex(lc)])
    for r in roots:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return p


def poly_deflate(c, root) -> tuple[np.ndarray, float]:
    """Synthetic division by (tau - root); returns (quotient, |remainder|).

    c is one polynomial or a stack of them with the coefficients on axis 0
    (the quotients then share that layout, the remainders the trailing
    shape).  root is one root for the whole stack, or an array of roots, one
    per row of the stack: root.shape leads the stack's shape, and each root
    divides the polynomials of its row.  Forward recurrence for |root| <= 1,
    reversed-coefficient recurrence for |root| > 1 (equivalent to deflating
    the reversed polynomial at 1/root), chosen per root, which keeps the
    division backward-stable for any root magnitude.  One polynomial runs
    as a stack of one, so that every column of a stack, and every row with
    its own root, is divided bitwise as it would be alone.
    """
    p = np.asarray(c, dtype=complex)
    if p.ndim == 0 or p.size == 0:
        p = as_poly(p)
    stack, n = p.shape[1:], p.shape[0] - 1
    root = np.asarray(root, dtype=complex).reshape(-1, 1)
    p = np.ascontiguousarray(p.reshape(n + 1, root.shape[0], -1))    # (coefficient, row, column)
    if n < 1:
        return np.zeros((1,) + stack, dtype=complex), np.abs(p[0]).reshape(stack)[()]
    small = np.abs(root[:, 0]) <= 1.0
    if small.all() or not small.any():      # one recurrence serves every row: no copies
        q, rem = (_deflate_forward if small.all() else _deflate_reversed)(p, root)
    else:
        q, rem = np.empty((n,) + p.shape[1:], dtype=complex), np.empty(p.shape[1:])
        for recurrence, rows in ((_deflate_forward, small), (_deflate_reversed, ~small)):
            q[:, rows], rem[rows] = recurrence(p[:, rows], root[rows])
    return q.reshape((n,) + stack), rem.reshape(stack)[()]


def _deflate_forward(p, root):
    """poly_deflate's recurrence for |root| <= 1 on a stack (coefficient,
    row, column) with one root per row, root (row, 1)."""
    n = p.shape[0] - 1
    q = np.empty((n,) + p.shape[1:], dtype=complex)
    acc = p[n]
    for k in range(n - 1, -1, -1):
        q[k] = acc
        acc = p[k] + acc * root
    return q, np.abs(acc)


def _deflate_reversed(p, root):
    """poly_deflate's recurrence for |root| > 1, on the reversed coefficients."""
    n = p.shape[0] - 1
    # Python's complex division: numpy's differs from it in the last bit
    inv = np.array([[1.0 / complex(r)] for r in root[:, 0]])
    q = np.empty((n,) + p.shape[1:], dtype=complex)
    acc = -p[0] * inv
    for k in range(n):
        q[k] = acc
        acc = (q[k] - p[k + 1]) * inv
    # final defect is -p(root)/root^(n+1)
    return q, np.abs(acc) * np.array([[abs(complex(r)) ** (n + 1)] for r in root[:, 0]])


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
            scale = np.abs(num).max() * max(1.0, abs(r)) ** max(num.size - 1, 0)
            if abs(poly_eval(num, r)) <= rel * scale:
                num, _ = poly_deflate(num, r)
            else:
                keep.append(r)
        return FactoredRational(poly_trim(num), self.den_lc, tuple(keep))


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
