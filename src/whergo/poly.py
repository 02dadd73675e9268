"""Dense complex polynomials and small dense linear algebra.

Polynomials are 1-d complex arrays of coefficients in ascending power order,
kept in trimmed canonical form (nonzero leading coefficient unless the
polynomial is identically zero).  Matrices are plain numpy arrays.
"""
from __future__ import annotations

import itertools

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
    as an array of one, so that it too is taken in numpy's array arithmetic.
    The coefficients and the points are laid out (coefficient, row, point)
    and (row, point) first, so that each step multiplies and adds operands
    of one shape, each contiguous: numpy's fast loop, the same arithmetic."""
    z = np.asarray(z)
    x = z.reshape(-1)
    size = c.shape[-1]
    rows = c.size // size
    dtype = np.result_type(c, x)
    coef = np.empty((size, rows, x.size), dtype=dtype)
    coef[...] = c.reshape(rows, size).T[..., None]
    at = np.empty((rows, x.size), dtype=dtype)
    at[...] = x
    val = coef[-1] + x * 0
    for k in range(size - 2, -1, -1):
        val = val * at
        val += coef[k]
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
    constant; no remainder is formed: deflate_positions at one root, on a
    stack of one."""
    p = as_poly(c)
    if p.size < 2:
        return np.zeros(1, dtype=complex)
    return deflate_positions(p.reshape(-1, 1, 1), np.array([[complex(root)]])).reshape(-1)


def deflate_positions(p: np.ndarray, root) -> np.ndarray:
    """The quotients of a complex stack p (coefficient, row, column) divided
    by prod (tau - root[j, i]) over the positions j, row i by its own root
    at each, root (position, row): bit for bit those of one position after
    another; no remainder is formed.  A root takes the forward recurrence
    where |root| <= 1 and the reversed-coefficient one at 1 / root (Python's
    complex division: numpy's differs in the last bit) beyond, which keeps
    the quotient backward-stable at any root magnitude.  Roots and inverses
    are repeated over the columns, so that every step reads contiguous
    blocks.  Consecutive positions whose roots all take one recurrence
    share one pass over the coefficients; a position that mixes the two
    splits its rows."""
    root = np.asarray(root, dtype=complex)
    small = np.abs(root) <= 1.0
    flat = zip(root.ravel().tolist(), small.ravel().tolist())
    inv = np.array([0j if s else 1.0 / r for r, s in flat], dtype=complex).reshape(root.shape)
    cols = p.shape[2]
    root, inv = root[..., None].repeat(cols, 2), inv[..., None].repeat(cols, 2)
    kinds = [row[0] if row.count(row[0]) == len(row) else None for row in small.tolist()]
    pos = 0
    for kind, run in itertools.groupby(kinds):
        m = len(list(run))
        if kind is None:            # one recurrence per row, a position at a time
            for j in range(pos, pos + m):
                s = small[j]
                q = np.empty((p.shape[0] - 1,) + p.shape[1:], dtype=complex)
                q[:, s] = _quotients_forward(p[:, s], root[j:j + 1, s])
                q[:, ~s] = _quotients_reversed(p[:, ~s], inv[j:j + 1, ~s])
                p = q
        elif kind:
            p = _quotients_forward(p, root[pos:pos + m])
        else:
            p = _quotients_reversed(p, inv[pos:pos + m])
        pos += m
    return p


def _quotients_forward(p, root):
    """The recurrence for |root| <= 1, q_(k-1) = p_k + root q_k from the
    top coefficient down, for the roots (position, row, column) in turn.
    Every quotient takes the same coefficient k - 1 at the same step, that
    of position j from coefficient k of the one before it (of p for the
    first): q[:, j + 1] starts a step after q[:, j], with its top
    coefficient copied, and each step after the first m is one product
    and one sum over the contiguous block q[k - 1, 1:] of all positions."""
    m, n = root.shape[0], p.shape[0]
    q = np.empty((n, m + 1) + p.shape[1:], dtype=complex)
    q[:, 0] = p
    new, old = q[:, 1:], q[:, :-1]          # each quotient, and the one it divides
    for step in range(n - 1):
        k, on = n - 1 - step, min(step, m)
        if on == m:
            out = new[k - 1]
            np.multiply(new[k], root, out)
            np.add(out, old[k], out)
            continue
        if on:
            out = new[k - 1, :on]
            np.multiply(new[k, :on], root[:on], out)
            np.add(out, old[k, :on], out)
        q[k - 1, on + 1] = q[k, on]
    return q[:n - m, m]


def _quotients_reversed(p, inv):
    """The recurrence for |root| > 1 on the reversed coefficients, q_k =
    (q_(k-1) - p_k) / root from the constant term up, inv = 1 / root
    (position, row, column), for the roots in turn.  The quotient of
    position j is stored j + 1 places up (q[k + j + 1, j + 1] is its
    coefficient k), so that every quotient takes one storage index at the
    same step, a step after the one before it starts."""
    m, n = inv.shape[0], p.shape[0]
    q = np.empty((n, m + 1) + p.shape[1:], dtype=complex)
    q[:, 0] = p
    new, old = q[:, 1:], q[:, :-1]
    diff = np.empty(inv.shape, dtype=complex)
    for t in range(1, n):
        on = min(t - 1, m)
        # the product is not taken in place: numpy rounds that differently
        if on == m:
            np.subtract(new[t - 1], old[t - 1], diff)
            np.multiply(diff, inv, new[t])
            continue
        if on:
            np.subtract(new[t - 1, :on], old[t - 1, :on], diff[:on])
            np.multiply(diff[:on], inv[:on], new[t, :on])
        np.multiply(-q[t - 1, t - 1], inv[t - 1], q[t, t])
    return q[m:, m]


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
