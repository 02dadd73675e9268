"""Dense complex polynomials and small dense linear algebra.

Polynomials are 1-d complex arrays of coefficients in ascending power order,
kept in trimmed canonical form (nonzero leading coefficient unless the
polynomial is identically zero).  Matrices are plain numpy arrays.
"""
from __future__ import annotations

import numpy as np

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


def _trimmed_size(p: np.ndarray) -> int:
    """Number of coefficients of p that poly_trim keeps, 0 where p is
    identically zero."""
    scale = np.abs(p).max()
    if scale == 0.0:
        return 0
    k = p.size - 1
    while k > 0 and abs(p[k]) <= TRIM_REL * scale:
        k -= 1
    return k + 1


def poly_trim(c) -> np.ndarray:
    p = as_poly(c)
    k = _trimmed_size(p)
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
    """Horner evaluation; `z` may be a scalar or an array, a tuple or list
    taken as one: numpy's polyval, bit for bit."""
    p = as_poly(c)
    if isinstance(z, (tuple, list)):
        z = np.asarray(z)
    val = p[-1] + z * 0
    for k in range(p.size - 2, -1, -1):
        val = p[k] + val * z
    return val


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


def poly_sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a - b, trimmed, of two complex polynomials as poly_trim leaves finite
    ones ([0], or a non-zero leading coefficient): the values of
    poly_trim(numpy.polynomial.polynomial.polysub(a, b)) bit for bit, its
    coefficients beyond the shorter operand a's, or b's negated."""
    if a.size > b.size:
        d = a.copy()
        d[:b.size] -= b
    else:
        d = -b
        d[:a.size] += a
    return poly_trim(d)


def poly_from_roots(roots, lc=1.0) -> np.ndarray:
    p = np.array([complex(lc)])
    for r in roots:
        p = np.convolve(p, np.array([-complex(r), 1.0]))
    return p


def poly_deflate(c, root) -> np.ndarray:
    """The quotient of one polynomial c by (tau - root), [0] where c is a
    constant; no remainder is formed.  The forward recurrence for |root| <=
    1, the reversed-coefficient one for |root| > 1 (deflating the reversed
    polynomial at 1/root), keep it backward-stable for any root magnitude:
    deflate_quotients on a stack of one, bitwise a stack row's quotient."""
    p = as_poly(c)
    if p.size < 2:
        return np.zeros(1, dtype=complex)
    root = np.array([[complex(root)]])
    small = np.abs(root[:, 0]) <= 1.0
    return deflate_quotients(p.reshape(-1, 1, 1), root, small,
                             reversed_inverses(root[:, 0], small)).reshape(-1)


def reversed_inverses(root: np.ndarray, small: np.ndarray) -> np.ndarray:
    """1 / root for the roots that the reversed recurrence divides by (not
    small, |root| > 1), 0 for the others, shape (row, 1): Python's complex
    division, as numpy's differs from it in the last bit.  A root at 0 is
    small and gets no inverse."""
    return np.array([0j if s else 1.0 / complex(r) for r, s in zip(root, small)],
                    dtype=complex).reshape(-1, 1)


def deflate_quotients(p: np.ndarray, root: np.ndarray, small: np.ndarray,
                      inv: np.ndarray) -> np.ndarray:
    """The quotients of a complex stack p (coefficient, row, column)
    divided by (tau - root), each row by its own root, root (row, 1), on
    poly_deflate's recurrence for it: small (row,) is |root| <= 1 and inv
    (row, 1) is reversed_inverses(root, small).  No remainder is formed and
    nothing is copied where every row takes one recurrence."""
    if small.all():
        return _quotients_forward(p, root)
    if not small.any():
        return _quotients_reversed(p, inv)
    q = np.empty((p.shape[0] - 1,) + p.shape[1:], dtype=complex)
    q[:, small] = _quotients_forward(p[:, small], root[small])
    q[:, ~small] = _quotients_reversed(p[:, ~small], inv[~small])
    return q


def _quotients_forward(p, root):
    """The recurrence for |root| <= 1: q_(k-1) = p_k + root q_k from the
    top coefficient down."""
    n = p.shape[0] - 1
    q = np.empty((n,) + p.shape[1:], dtype=complex)
    if n:
        q[n - 1] = p[n]
    for k in range(n - 1, 0, -1):
        np.multiply(q[k], root, out=q[k - 1])
        q[k - 1] += p[k]
    return q


def _quotients_reversed(p, inv):
    """The recurrence for |root| > 1 on the reversed coefficients: q_k =
    (q_(k-1) - p_k) / root from the constant term up, inv = 1 / root."""
    n = p.shape[0] - 1
    q = np.empty((n,) + p.shape[1:], dtype=complex)
    if n:
        np.multiply(-p[0], inv, out=q[0])
    for k in range(1, n):
        np.multiply(q[k - 1] - p[k], inv, out=q[k])
    return q


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


def row_scaled(A):
    """(A with its rows scaled to unit 2-norm, the column norms of that),
    for one matrix (m, u) or a stack (..., m, u); zero rows stay zero."""
    A = np.asarray(A)
    rows = np.linalg.norm(A, axis=-1, keepdims=True)
    A = A / np.where(rows > 0, rows, 1.0)
    return A, np.linalg.norm(A, axis=-2)


def equilibrate(A):
    """(A with its rows and then its columns scaled to unit 2-norm, the
    column norms of the row-scaled A), for one matrix (m, u) or a stack
    (..., m, u).  Zero rows and columns stay zero (van der Sluis 1969:
    this scaling takes the condition number to within a factor sqrt(u) of
    its minimum over all column scalings)."""
    A, cols = row_scaled(A)
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
