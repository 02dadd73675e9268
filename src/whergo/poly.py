"""Dense complex polynomials and small dense linear algebra.

Polynomials are 1-d complex arrays of coefficients in ascending power order,
kept in trimmed canonical form (nonzero leading coefficient unless the
polynomial is identically zero).  Matrices are plain numpy arrays.
"""
from __future__ import annotations

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


def poly_mul(a, b) -> np.ndarray:
    pa, pb = as_poly(a), as_poly(b)
    if poly_is_zero(pa) or poly_is_zero(pb):
        return np.zeros(1, dtype=complex)
    return poly_trim(np.convolve(pa, pb))


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
