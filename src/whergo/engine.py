"""Existence test and construction of canonical factorisations.

One route serves every n: the minus columns are parametrised by rational
functions with prescribed inside poles, mapped through the adjugate, and
pole cancellation plus the normalisation at tau = 0 fix their
coefficients.  The homogeneous part of that system is the Toeplitz kernel;
a fixed square row subset of it gives D(rho, v).  The route returns the
factors X (plus factor, X(0) = I), M_minus and the solution matrix
M(rho, v) = lim M_minus(tau).

The structure of the constraint system is fixed by (model, branches) and is
compiled once into an AnsatzPlan kept on the model: the omega-plane
adjugate, the column degrees, the D rows and the layout, whose index tables
name every root by its label (tau = 0, or the inside or outside member of
a zero pair): those of pi_j, of L_k and of X's row denominators (L_k less
its inside groups, a multiset difference of labels).  One expansion of adj
M(omega), poles named by index, gives its numerators and, by arithmetic
on label counts, the labels; the compile finds no tau-plane roots and
checks itself by factorising at its reference point, from the one spec
and assembly of rows that also chose its D rows there.  At Weyl points an
AnsatzSpec holds only values, the label roots and the composed adjugate
numerators, and reads every root through the plan's tables; its rows are
numpy arrays over (rho, v): one evaluation serves a single point, a tracer
grid and a sweep chunk alike.  evaluate_points assembles the plan's full
system once over an array of points (one point for factorise) and solves
the square system of its D rows and normalisation rows: D, the kernel
dimension, M(rho, v) and the verdict all read that one evaluation, so
factorise, sweep, the curve classifier and toeplitz_kernel_dim cannot
disagree.  One rank test decides: the kernel dimension counts the singular
values <= tol * sigma_max of the row- then column-equilibrated homogeneous
system, and D only spares that SVD where it proves the kernel trivial.
Callers that need only D (the tracer) assemble the D rows alone, through
a second layout the plan compiles over the inside groups those rows use.

factorise is evaluate_points at one point, plus the factors and the
residual report.  It composes no monodromy, so it answers wherever the
batch does.  Every index that depends only on the plan is a table the
plan compiles once, so that a call spends its time on the point's values
alone, and every table serves a sweep chunk and a tracer batch as it
serves one point: the flat gather and mask of the normalisation rows, the
root table whose padding picks a row of ones for their right-hand sides
l0, and the row order of the square system (the D rows, then the
normalisation rows).  The system's right-hand sides are zero but for l0,
so the residual and its scale read l0 itself.  The factors come from a few
array passes over tables the plan's layout fixes once (_factors): the
flat gather that maps the solution to the numerators NUM_k, the Taylor
tables of their analyticity re-check, and the deflation order, one
poly.deflate_positions call per segment of root positions.  M_minus is
the solution scattered through the layout, S_j over pi_j; X holds the
deflated psi_+ numerators of every column, and X(tau) is the adjugate of
Psi_+(tau) taken at each evaluation.  Both evaluate at a scalar tau or an
array of them, every tau alike.  The residual report evaluates M(tau) in
one Horner pass over the model's stacked omega-coefficients at
omega(tau), and the factors by their own eval: X at the check circle and
tau = 0, M_minus there and at the two large taus of its Richardson
estimate of M(rho, v), which assemble_M checks M_limit against.  A point
whose system overflows the double range is never consistent and gets no
SVD: it is unresolved.  An empty array of points gives an empty batch.

The contour enters only as the branch tuple: one tag, "minus" or "plus",
per omega pole, naming the member of its zero pair that lies inside.
Every entry point takes it; None is the model's default, which _plan_for
resolves, and a tuple of the wrong length or with an unknown tag is a
ValueError.

The paper's own route for 2x2 models of the common-denominator form, the
degree trichotomy and the value-and-derivative system at the inside zeros
of the monodromy composed in tau, is not part of the library: the tests
keep it as the oracle whose determinant they compare with f*h.
"""
from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .catalog import RationalMatrixOmega, same_pole
from .errors import (
    InvariantViolation,
    NonSquareSystem,
    NotCanonical,
)
from .poly import (
    DEFAULT_TOL,
    deflate_positions,
    numerical_nullity,
    poly_deflate,
    poly_eval,
    poly_eval_stack,
    poly_from_roots,
    poly_sub,
    poly_trim,
    row_scaled,
)
from .spectral import BRANCH_MINUS, BRANCH_PLUS, SpectralPoint, spectral_map

# reference Weyl points used once per (model, branches) to compile the plan
# of the generic constraint system; must be off-curve, which the compile
# verifies and falls back along the list if not
_REFERENCE_POINTS = ((2.0, 0.5), (3.1, -0.7), (1.7, 1.3), (2.6, 1.9))


class Status(enum.Enum):
    CANONICAL = "canonical"
    DEGENERATE = "degenerate"        # a non-trivial Toeplitz kernel
    UNRESOLVED = "unresolved"        # no consistent solution: a trivial kernel, or a
                                     # system beyond the double range


def _check_branches(model: RationalMatrixOmega, branches) -> tuple:
    """branches as a tuple: one tag, "minus" or "plus", per omega pole of
    the model, in its order; None is the model's default.  Anything else is
    a ValueError."""
    branches = tuple(model.default_branches if branches is None else branches)
    if (len(branches) != len(model.omega_poles)
            or any(b not in (BRANCH_MINUS, BRANCH_PLUS) for b in branches)):
        raise ValueError(
            f"branches must be one tag per omega pole of model {model.model_id} "
            f"({len(model.omega_poles)} in all), each 'minus' or 'plus'; "
            f"got {','.join(map(str, branches)) or 'none'}")
    return branches


def _one_point(caller: str, rho, v) -> tuple:
    """(rho, v), an array of one number taken as that number; ValueError
    unless each is one number: an array of points is evaluate_points's."""
    if isinstance(rho, float) and isinstance(v, float):     # floats: no array to look at
        return rho, v
    if np.size(rho) != 1 or np.size(v) != 1:
        raise ValueError(f"{caller} takes one Weyl point; evaluate_points takes arrays of them")
    return np.reshape(rho, ()), np.reshape(v, ())


def toeplitz_kernel_dim(model: RationalMatrixOmega, rho: float, v: float, branches=None,
                        tol: float = DEFAULT_TOL) -> int:
    """Kernel dimension of the Toeplitz operator with this symbol: the
    kernel_dim of evaluate_points at the one point (rho, v)."""
    rho, v = _one_point("toeplitz_kernel_dim", rho, v)
    return int(evaluate_points(model, rho, v, branches, tol).kernel_dim)


# ---------------------------------------------------------------------------
# factorisation route: adjugate ansatz with explicit pole-cancellation constraints
# ---------------------------------------------------------------------------


def _root_sort_key(r):
    r = complex(r)
    return (round(r.real, 9), round(r.imag, 9))


@dataclass(frozen=True, eq=False)
class AnsatzSpec:
    """The plan's values at one Weyl point, or at an array of them (each
    with the batch shape as its trailing axes, so that the work over points
    runs along contiguous axes), and the layout they are read through.

    The values are num_polys and roots; the structure is the layout, whose
    index tables name every root by its position in roots (0 is tau = 0;
    for the plan, the positions are the labels).  A_kj = adj(M)_kj L_k /
    pi_j, with L_k the common denominator of component k, is num_polys[k,
    j, :] times prod (tau - roots[x]) over the extra roots x of
    layout.extras[k, j]: the plan keeps the labelled roots of L_k apart so
    that the rows can evaluate them in product form.
    """

    num_polys: np.ndarray     # (k, j, coefficient, ...): polynomial part of A_kj
    roots: np.ndarray         # (root, ...): every root the layout names, roots[0] = 0
    layout: _RowLayout        # index tables of the rows and the roots

    @property
    def n(self) -> int:
        return self.num_polys.shape[0]

    @property
    def batch(self) -> tuple:
        return self.num_polys.shape[3:]

    @cached_property
    def base_polys(self) -> np.ndarray:
        """Coefficients of A_kj, shape (k, j, coefficient, ...)."""
        lay, num = self.layout, _flat(self.num_polys, 3)
        base = np.concatenate([num, np.zeros(num.shape[:2] + (lay.extras.shape[-1], num.shape[3]),
                                             dtype=num.dtype)], axis=2)
        # -r, the constant term of the factor (tau - r) of every extra root;
        # 1 where there is none
        factor = np.where(lay.extras_on, -_flat(self.roots, 1)[lay.extras], 1.0)
        for x in range(factor.shape[2]):
            nxt = base * factor[:, :, x, None]
            nxt[:, :, 1:] += base[:, :, :-1] * lay.extras_on[:, :, x, None]
            base = nxt
        return base.reshape(base.shape[:3] + self.batch)


def _flat(x: np.ndarray, lead: int) -> np.ndarray:
    """x with its trailing batch axes folded into one (of length 1 when x
    holds a single point); lead = 0 folds the leading axes instead, all but
    the last."""
    if not lead:
        return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])
    return x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))


@dataclass(frozen=True, eq=False)
class _RowLayout:
    """Index tables of a constraint system, fixed by its structure alone.
    A root is named by its position in AnsatzSpec.roots; -1 pads."""

    jcol: np.ndarray          # (W,) block j of each column
    ccol: np.ndarray          # (W,) coefficient c of each column, c <= deg pi_j
    hom: np.ndarray           # columns with c < deg pi_j
    limit: np.ndarray         # (n,) column of coefficient deg pi_j of S_j: M_limit
    gk: np.ndarray            # (G,) component k of each inside group
    groot: np.ndarray         # (G,) root of each inside group
    extras: np.ndarray        # (n, n, X) roots multiplied into A_kj
    pi: np.ndarray            # (n, D) roots of pi_j: M_minus's row denominators
    xden: np.ndarray          # (n, Y) roots of L_k less its inside groups: X's rows
    l0: np.ndarray            # (n, Z) non-zero roots of L_k
    # normalisation row k, coefficient m0_k - c of A_kj in column (j, c), m0_k the count of
    # tau = 0 in L_k, as a position in A's (k, j, coefficient) axes (clipped); where it exists
    norm: np.ndarray          # (n, W)
    norm_on: np.ndarray       # (n, W, 1)
    extras_on: np.ndarray     # (n, n, X, 1) where extras[k, j, x] holds a root
    powers: int               # C: the rows use powers 0..C-1 of the group roots
    tshift: np.ndarray        # (O, C) power c - i of p in C(c, i) p^(c - i) (clipped)
    tweight: np.ndarray       # (O, C, 1) C(c, i) for c >= i, else 0
    lag: np.ndarray           # (O, O) order o - i of a for i <= o, else O (a zero)
    cmax: int                 # max deg pi_j + 1: the coefficients c of the cells
    cell: np.ndarray          # (R, W) entry of each row and column in the (g, j, o, c) cells
    # the factor build (_factors): NUM_k has T = cmax - 1 + B coefficients, B those of A_kj
    gather: np.ndarray        # (T, W) coefficient t - c of A_kj that coefficient t of
                              # NUM_k takes from column c (clipped), as a position in
                              # A_k's (j, coefficient) axes
    gmask: np.ndarray         # (T, W) where that coefficient exists
    tgroup: np.ndarray        # (R,) group g of each Taylor row (g, o)
    tpower: np.ndarray        # (R, T) power max(t - o, 0) of the group root in row (g, o)
    tcomb: np.ndarray         # (R, T) C(t, o), zero for t < o
    tcomp: np.ndarray         # (R,) component k of each Taylor row
    segments: tuple           # the deflation order, a new segment of root positions
                              # wherever components leave the stack: (those that leave
                              # before it, as stack positions and as components; those
                              # that stay, a slice where all do; its slice of dgroup)
    dgroup: np.ndarray        # the group of every root the deflation divides by
    deflated: np.ndarray      # the components still in the stack after the last position
    xwidth: int               # coefficients of X's numerators, all the deflation can
                              # fill: T less the fewest roots any component divides by


def _index_table(rows) -> np.ndarray:
    """Rows of indices padded with -1 into one table (rows, longest)."""
    table = np.full((len(rows), max(map(len, rows), default=0)), -1, dtype=int)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    return table


def _less(labels, groups) -> list:
    """labels in ascending order less the label of each (label,
    multiplicity) group, as often as its multiplicity allows."""
    left, out = dict(groups), []
    for lab in sorted(labels):
        if left.get(lab, 0):
            left[lab] -= 1
        else:
            out.append(lab)
    return out


def _row_layout(width: int, pi, lk, groups, extras: np.ndarray) -> _RowLayout:
    """Layout of the system whose roots are named by index (0 is tau = 0):
    pi[j] the roots of pi_j, lk[k] those of L_k in ascending order, both
    with multiplicity; groups[k] the (root, multiplicity) of every inside
    condition on component k; extras (n, n, X) the roots multiplied into
    A_kj (-1: none), whose polynomial part has `width` coefficients."""
    n = len(pi)
    widths = [len(p) + 1 for p in pi]
    conds = [(k, r, m) for k in range(n) for r, m in groups[k]]
    order = max((m for _, _, m in conds), default=1)
    rows = [(g, o) for g, (_, _, m) in enumerate(conds) for o in range(m)]
    jcol = np.repeat(np.arange(n), widths)
    ccol = np.concatenate([np.arange(w) for w in widths])
    gk = np.array([k for k, _, _ in conds], dtype=int)
    i, c = np.arange(order)[:, None], np.arange(max([width] + widths))
    g_r = np.array([g for g, _ in rows], dtype=int).reshape(-1, 1)
    o_r = np.array([o for _, o in rows], dtype=int).reshape(-1, 1)
    span = width + extras.shape[-1]
    t = np.arange(max(widths) - 1 + span)
    shift = t[:, None] - ccol
    m0 = np.array([ls.count(0) for ls in lk])
    norm = m0[:, None] - ccol
    # C(t, o), zero for t < o: the binomials of tweight and tcomb alike
    comb = np.array([[math.comb(x, o) for x in t] for o in range(order)], dtype=float)
    # the roots of component k in deflation order, one group index per root
    seq = [[g for g, (kg, _, m) in enumerate(conds) if kg == k for _ in range(m)]
           for k in range(n)]
    segments, active, dgroup = [], list(range(n)), []
    for pos in range(max(map(len, seq), default=0)):
        has = [len(seq[k]) > pos for k in active]
        stop = len(dgroup) + sum(has)
        if segments and all(has):       # no component leaves: the segment goes on
            segments[-1][3] = slice(segments[-1][3].start, stop)
        else:
            done = [x for x, h in enumerate(has) if not h]
            segments.append([np.array(done, dtype=int),
                             np.array([active[x] for x in done], dtype=int),
                             slice(None) if all(has) else np.flatnonzero(has),
                             slice(len(dgroup), stop)])
        active = [k for k, h in zip(active, has) if h]
        dgroup += [seq[k][pos] for k in active]
    return _RowLayout(
        jcol, ccol,
        np.flatnonzero(ccol < np.array(widths)[jcol] - 1), np.cumsum(widths) - 1,
        gk, np.array([r for _, r, _ in conds], dtype=int),
        extras, _index_table(pi),
        _index_table([_less(ls, g) for ls, g in zip(lk, groups)]),
        _index_table([[r for r in ls if r] for ls in lk]),
        (np.arange(n)[:, None] * n + jcol) * span + np.minimum(np.maximum(norm, 0), span - 1),
        ((norm >= 0) & (norm < span))[..., None],
        (extras >= 0)[..., None],
        c.size, np.maximum(c - i, 0), comb[:, :c.size, None],
        np.where(i.T <= i, i - i.T, order), max(widths),
        ((g_r * n + jcol) * order + o_r) * max(widths) + ccol,
        jcol * span + np.minimum(np.maximum(shift, 0), span - 1), (shift >= 0) & (shift < span),
        g_r[:, 0],
        np.maximum(t - o_r, 0), comb[o_r[:, 0]],
        gk[g_r[:, 0]],
        tuple(map(tuple, segments)), np.array(dgroup, dtype=int), np.array(active, dtype=int),
        t.size - min(map(len, seq), default=0))


def _assemble_rows(spec: AnsatzSpec) -> np.ndarray:
    """Analyticity rows, shape (..., rows, columns) with the batch axes first.

    For each component k and inside group (p, m) of L_k: the Taylor
    coefficients of order o < m at p of NUM_k = sum_j A_kj S_j, one column
    per coefficient c of S_j.  With a_q the Taylor coefficients of A_kj at p
    the entry is sum_i C(c, i) p^(c - i) a_(o - i).  The a_q come from those
    of the polynomial part times the factors (tau - p) + (p - r) of the extra
    roots, so a root of L_k at p itself vanishes exactly instead of cancelling.
    """
    lay = spec.layout
    num = _flat(spec.num_polys, 3)
    if not lay.gk.size:
        return np.zeros(spec.batch + (0, lay.jcol.size), dtype=num.dtype)
    roots = _flat(spec.roots, 1)
    p = np.asarray(roots[lay.groot], dtype=num.dtype)[:, None]
    pw = np.ones((p.shape[0], lay.powers, p.shape[2]), dtype=p.dtype)
    for c in range(1, lay.powers):
        np.multiply(pw[:, c - 1], p[:, 0], out=pw[:, c])
    # C(c, i) p^(c - i): Taylor coefficient i of tau^c at p, (g, i, c, point)
    taylor = lay.tweight * pw[:, lay.tshift]
    # Taylor coefficients at p_g of the polynomial part, (g, j, o, point)
    coef = (num[lay.gk, :, None] * taylor[:, None, :, :num.shape[2]]).sum(axis=3)
    on = lay.extras_on[lay.gk]
    gap = np.where(on, p[:, None] - roots[lay.extras[lay.gk]], 1.0)     # (g, j, x, point)
    for x in range(on.shape[2]):
        nxt = coef * gap[:, :, x, None]
        nxt[:, :, 1:] += coef[:, :, :-1] * on[:, :, x, None]
        coef = nxt
    # Taylor coefficient o of tau^c A_kj in every (g, j, o, c) cell
    coef = np.concatenate([coef, np.zeros_like(coef[:, :, :1])], axis=2)
    cells = (coef[:, :, lay.lag, None] * taylor[:, None, None, :, :lay.cmax]).sum(axis=3)
    return _batch_first(_flat(cells, 0)[lay.cell], spec.batch)


def _batch_first(x: np.ndarray, batch: tuple) -> np.ndarray:
    """(rows, columns, point) -> batch + (rows, columns)."""
    return x.transpose(2, 0, 1).reshape(batch + x.shape[:2])


def _assemble_inhomogeneous(spec: AnsatzSpec, a_top: np.ndarray):
    """Full system: the analyticity rows a_top (_assemble_rows(spec)) plus
    n normalisation rows at tau = 0.

    Returns (A, l0): the right-hand side of factor column k is l0[..., k]
    in normalisation row k and zero in every other row (_right_hand_sides).
    """
    lay = spec.layout
    base = _flat(spec.base_polys, 3)
    # row k: coefficient of tau^m0_k of NUM_k, i.e. A_kj[m0_k - c] per column
    norm = _flat(base, 0)[lay.norm] * lay.norm_on
    A = np.concatenate([a_top, _batch_first(norm, spec.batch)], axis=-2)
    # the leading Taylor coefficient of L_k at 0, prod (-r) over its non-zero
    # roots; -1 pads the table and picks the last row, of ones
    roots = _flat(spec.roots, 1)
    neg = np.empty((roots.shape[0] + 1, roots.shape[1]), dtype=roots.dtype)
    np.negative(roots, out=neg[:-1])
    neg[-1] = 1.0
    l0 = neg[lay.l0].prod(axis=1)
    return A, l0.T.reshape(spec.batch + (spec.n,))


def _right_hand_sides(l0: np.ndarray, rows: int, dtype) -> np.ndarray:
    """batch + (rows, n): l0[..., k] in row rows - n + k of column k, the
    normalisation rows that close a system of `rows` rows, zero elsewhere."""
    b = np.zeros(l0.shape[:-1] + (rows, l0.shape[-1]), dtype=dtype)
    _normalisation_diagonal(b)[...] = l0
    return b


def _normalisation_diagonal(x: np.ndarray) -> np.ndarray:
    """A writeable view of the entries (rows - n + k, k) of stacked systems
    x, batch + (rows, n): the diagonal of their last n rows."""
    return np.einsum("...ii->...i", x[..., -x.shape[-1]:, :])


def _greedy_rows(A: np.ndarray, k: int):
    """Deterministic greedy selection of k maximally independent rows.

    Modified Gram-Schmidt volume heuristic: repeatedly take the row with
    the largest component orthogonal to the span of those already chosen.
    The lowest index wins an exact tie only: a near-tie goes by the last
    bits of the BLAS products work @ q.conj(), which depend on the memory
    order of the work matrix, so that a copy in another order can move a
    plan's D rows.  Returns sorted indices and the smallest accepted
    residual norm relative to the largest row norm.
    """
    work = A.astype(complex, order="C")     # C order, as the BLAS products below take it
    norms0 = np.linalg.norm(A, axis=1)
    scale = float(norms0.max()) if norms0.size else 0.0
    chosen = []
    worst = np.inf
    for _ in range(k):
        norms = np.linalg.norm(work, axis=1)
        norms[chosen] = -1.0
        pick = int(norms.argmax())
        worst = min(worst, norms[pick] / scale if scale else 0.0)
        q = work[pick] / norms[pick] if norms[pick] > 0 else work[pick]
        chosen.append(pick)
        work = work - (work @ q.conj())[:, None] * q
    return np.array(sorted(chosen), dtype=int), worst


# ---------------------------------------------------------------------------
# ansatz plan: the constraint system compiled once per (model, branches)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnsatzPlan:
    """The generic constraint system of one (model, branches), compiled once.

    Every root of the system carries one of 2P + 1 labels: tau = 0 (label 0)
    or a member of the zero pair of omega pole i, inside (1 + 2i) or outside
    (2 + 2i).  The labels of L_k, pi_j and the inside groups are read from
    the one expansion of adj M(omega) (_omega_adjugate) and kept only as the
    layout's index tables; the column degrees follow from them, and the
    D-row selection from the plan's own system at a reference point.  At a
    Weyl point A_kj = adj(M)_kj(omega(tau)) L_k / pi_j is the composed
    numerator of the omega-plane adjugate entry, times a power of tau, over
    the composed denominator's leading coefficient, times the labelled roots
    of L_k that neither pi_j nor that denominator takes.  When the poles and the adjugate coefficients are
    all real, so is every entry of the system, and the plan stores them
    real: the system is then assembled, and solved, in real arithmetic.
    Two layouts serve the one assembly (_assemble_rows): layout, every
    analyticity row, for evaluate_points, whose kernel dimension and
    consistency check read them all; and d_layout, the D rows alone over
    the inside groups they use, for the tracer's D (_d_with_scale).
    """

    n: int
    omega_poles: np.ndarray   # (P,) in the model's order
    plus: np.ndarray          # (P,) True where the inside member is the plus branch
    adj_num: np.ndarray       # (n*n, K + 1) adjugate numerators in omega, entry k*n + j
    adj_lc: np.ndarray        # (n*n,) leading coefficient of each adjugate denominator
    adj_deg: np.ndarray       # (n*n,) degree of each adjugate denominator
    place: np.ndarray         # (n*n, width) row e * (2K + 2) + tau power of the composed
                              # numerators; power 2K + 1 is zero and fills the empty slots
    selected_rows: np.ndarray
    layout: _RowLayout
    square_rows: np.ndarray   # the D rows, then the n normalisation rows: the square system
    d_layout: _RowLayout      # the D rows alone, over the inside groups they use (_d_layout)


def _plan_for(model: RationalMatrixOmega, branches=None) -> AnsatzPlan:
    """The model's plan for this branch tuple, compiled on first use.

    branches holds one tag, "minus" or "plus", per omega pole in the
    model's order, None the model's default; anything else is a
    ValueError.  The plan is compiled at the first reference Weyl point
    that is off-curve (the homogeneous system has full column rank with
    margin) and where the plan factorises within the residual gates; the
    same plan, and so the same D rows, then serves every other point, so
    D(rho, v) is a continuous determinant.
    """
    branches = _check_branches(model, branches)
    plan = model.plans.get(branches)
    if plan is None:
        adj = _omega_adjugate(model)
        last_exc = None
        for rho_ref, v_ref in _REFERENCE_POINTS:
            try:
                plan = _compile_plan(model, branches, adj, rho_ref, v_ref)
                break
            except (NonSquareSystem, InvariantViolation) as exc:
                last_exc = exc      # a degenerate reference point: try the next
        else:
            raise NonSquareSystem(f"no usable reference point found: {last_exc}")
        model.plans[branches] = plan
    return plan


def _omega_adjugate(model: RationalMatrixOmega):
    """M(omega) and adj M(omega) in one cofactor expansion, as terms
    (numerator, leading coefficient of the denominator, label counts), each
    entry of adj M with the poles that survive its cancellation.

    The labels of a denominator are the pair (1 + 2p, 2 + 2p) of each pole,
    named by its index p in model.omega_poles (the one place where a float
    root becomes a label), and tau = 0 (label 0) as often as deg num exceeds
    deg den; a term's counts give the multiplicity of every label, indexed
    by label.  A product adds the counts; a difference takes their maximum,
    each numerator times (omega - omega_poles[p]) for every pole p that the
    other side adds, the poles in the order of their first appearance in
    the terms.  adj M keeps its labels uncancelled; its numerators cancel
    each pole p where they vanish to 1e-9 of their coefficients, times
    max(1, |omega_poles[p]|)^degree.
    """
    n, poles = model.n, model.omega_poles
    # while expanding, a term is (numerator, leading coefficient, tau = 0
    # count, {pole: count} in the order of first appearance)

    def read(e):
        found = {}
        for w in e.den_roots:       # make_model has checked that one pole is w
            found[next(i for i, w0 in enumerate(poles) if same_pole(w, w0))] = 1
        # make_model keeps num and den trimmed: their sizes give the degrees
        return e.num, e.den[-1], max(e.num.size - e.den.size, 0), found

    def times(x, y):
        found = dict(x[3])
        for p, m in y[3].items():
            found[p] = found.get(p, 0) + m
        # poly_mul's product: every numerator here is trimmed, so it is zero
        # where its leading coefficient is
        num = (np.zeros(1, dtype=complex) if x[0][-1] == 0 or y[0][-1] == 0
               else poly_trim(np.convolve(x[0], y[0])))
        return num, x[1] * y[1], x[2] + y[2], found

    def over(x, found, lc):         # x's numerator times lc, over the denominator of found
        if x[0][-1] == 0:
            return np.zeros(1, dtype=complex)
        rest = tuple(p for p, m in found.items() for _ in range(m - x[3].get(p, 0)))
        if rest not in factors:
            factors[rest] = poly_from_roots(poles[p] for p in rest)
        # poly_mul's product, which is zero where x[0] * lc underflows to zero
        return poly_trim(np.convolve(x[0] * lc, factors[rest]))

    others = ((1, 2), (0, 2), (0, 1))      # the rows (columns) of a 3 x 3 minor

    def minor(r, c):                # of M at (r, c)
        if n == 2:
            return ent[1 - r][1 - c]
        (r0, r1), (c0, c1) = others[r], others[c]
        ad, bc = times(ent[r0][c0], ent[r1][c1]), times(ent[r0][c1], ent[r1][c0])
        found = dict(ad[3])
        for p, m in bc[3].items():
            found[p] = max(found.get(p, 0), m)
        num = over(ad, found, bc[1])
        if bc[0][-1] != 0:          # a - 0 is a, trimmed, bit for bit
            num = poly_sub(num, over(bc, found, ad[1]))
        return num, ad[1] * bc[1], max(ad[2], bc[2]), found

    def counts(zero, found):        # label counts of a term, indexed by label
        out = [zero] + [0] * (2 * len(poles))
        for p, m in found.items():
            out[1 + 2 * p] = out[2 + 2 * p] = m
        return tuple(out)

    def cofactor(i, j):             # adj M_ij: the cofactor of (j, i), cancelled
        num, lc, zero, found = minor(j, i)
        num, kept = (-num if (i + j) % 2 else num), []
        top = np.abs(num).max()
        for p, m in found.items():
            for _ in range(m):
                scale = top * max(1.0, abs(poles[p])) ** max(num.size - 1, 0)
                if abs(poly_eval(num, poles[p])) <= 1e-9 * scale:
                    num = poly_deflate(num, poles[p])
                    top = np.abs(num).max()
                else:
                    kept.append(p)
        # trimmed where a pole cancelled; the minor's numerator already is
        trimmed = poly_trim(num) if len(kept) < sum(found.values()) else num
        return trimmed, lc, counts(zero, found), kept

    factors = {}                    # prod (omega - poles[p]) over a tuple of pole indices
    ent = [[read(e) for e in row] for row in model.entries]
    adj = [[cofactor(i, j) for j in range(n)] for i in range(n)]
    return [[(num, lc, counts(zero, found)) for num, lc, zero, found in row]
            for row in ent], adj


def _plan_labels(ent, adj, values):
    """(pi_labels, lk_labels, groups) of the plan, read from the label
    counts of the terms of M (ent) and adj M (adj) that _omega_adjugate
    gives: no monodromy is composed, no root is found and no adjugate is
    expanded.

    A sum of counts is a product of denominators, their maximum the lcm.
    pi_j is the lcm over row j of M of its inside labels (0 and odd), L_k
    the lcm over j of adj_kj's uncancelled labels times pi_j.  pi_j and the
    groups are ordered by the roots of their labels at the reference point
    (values).
    """
    inside = np.ones(len(values), dtype=bool)
    inside[2::2] = False
    pi = (np.array([[e[2] for e in row] for row in ent]) * inside).max(axis=1)
    lk = (np.array([[a[2] for a in row] for row in adj]) + pi).max(axis=1).tolist()
    pi = pi.tolist()
    ordered = sorted(range(len(values)), key=lambda lab: (_root_sort_key(values[lab]), lab))
    return (tuple(tuple(lab for lab in ordered for _ in range(c[lab])) for c in pi),
            tuple(tuple(lab for lab, m in enumerate(c) for _ in range(m)) for c in lk),
            tuple(tuple((lab, c[lab]) for lab in ordered if inside[lab] and c[lab])
                  for c in lk))


def _label_counts(labels, size: int) -> np.ndarray:
    """(len(labels), size): how often each of the labels 0..size-1 occurs in
    each label tuple of `labels`."""
    return np.array([[ls.count(lab) for lab in range(size)] for ls in labels],
                    dtype=int).reshape(len(labels), size)


def _compile_plan(model, branches, adj, rho_ref, v_ref) -> AnsatzPlan:
    """The plan of (model, branches) from _omega_adjugate's terms adj,
    compiled at the reference Weyl point (rho_ref, v_ref).

    The labels give the layout of the full system; a plan with no rows gives
    the spec there, the greedy selection on its homogeneous rows the D rows,
    and one replace adds them, the square rows and _d_layout's layout of the
    D rows alone.  The plan must factorise there within the residual gates;
    a NonSquareSystem or InvariantViolation sends _plan_for to the next one.
    """
    n = model.n
    ent, adj = adj                  # _omega_adjugate's terms of M and adj M
    flat = [a for row in adj for a in row]
    # every numerator is trimmed: zero where its leading coefficient is
    degs = np.array([num.size - 1 if num[-1] else -1 for num, _, _, _ in flat])
    top = int(max(degs.max(), 0))
    size = n * n
    adj_num = np.zeros((size, top + 1), dtype=complex)
    adj_lc = np.ones(size, dtype=complex)
    adj_deg = np.zeros(size, dtype=int)
    for e, (num, lc, _, kept) in enumerate(flat):
        if degs[e] >= 0:
            adj_num[e, :degs[e] + 1] = num
            adj_lc[e], adj_deg[e] = lc, len(kept)
    poles = np.array(model.omega_poles, dtype=complex)
    if not (poles.imag.any() or adj_num.imag.any() or adj_lc.imag.any()):
        poles, adj_num, adj_lc = poles.real, adj_num.real, adj_lc.real
    plus = np.array([b == BRANCH_PLUS for b in branches], dtype=bool)
    values = _label_values(poles, plus, np.array([rho_ref]), np.array([v_ref]))[:, 0]
    pi_labels, lk_labels, groups = _plan_labels(ent, adj, values)
    # the labels of L_k / pi_j that adj_kj's denominator (the labels of its
    # kept poles) does not take, for every entry e = (k, j); label 0 gives
    # its tau power
    labels = values.size
    den_labels = np.array([[0] + [a[3].count(p) for p in range(poles.size) for _ in (0, 1)]
                           for a in flat])
    rest = (_label_counts(lk_labels, labels)[:, None]
            - _label_counts(pi_labels, labels)).reshape(size, labels) - den_labels
    # A_kj carries tau^(m0_k - deg_0 pi_j + deg den - deg num)
    tau_power = rest[:, 0] + adj_deg - degs
    live = degs >= 0
    bad = live & ((tau_power < 0) | (rest[:, 1:] < 0).any(axis=1))
    if bad.any():
        k, j = divmod(int(np.argmax(bad)), n)
        raise NonSquareSystem(f"adjugate entry ({k}, {j}) has a pole that "
                              f"L_{k} / pi_{j} does not cancel")
    # the composition carries tau^(K - deg num)
    shifts = np.where(live, tau_power - (top - degs), 0)
    span = int((shifts + 2 * top + 1)[live].max(initial=1))
    src = np.arange(span) - shifts[:, None]
    mask = (src >= 0) & (src <= 2 * top) & live[:, None]
    place = np.arange(size)[:, None] * (2 * top + 2) + np.where(mask, src, 2 * top + 1)
    extra = _index_table([[lab for lab in range(1, labels) for _ in range(r[lab])] if on else ()
                          for r, on in zip(rest.tolist(), live.tolist())])
    layout = _row_layout(span, pi_labels, lk_labels, groups, extra.reshape(n, n, -1))
    none = np.zeros(0, dtype=int)   # the rows, until the selection below
    plan = AnsatzPlan(n, poles, plus, adj_num, adj_lc, adj_deg, place, none, layout, none, layout)

    # one spec and one assembly of its rows at the reference point serve
    # the D-row selection and the plan's own factorisation there
    spec = _plan_spec(plan, rho_ref, v_ref)
    rows = _assemble_rows(spec)
    a0 = rows[..., layout.hom]
    u = layout.hom.size
    if a0.shape[0] < u:
        raise NonSquareSystem("fewer constraints than unknowns in homogeneous system")
    sel, margin = _greedy_rows(a0, u)
    if margin < 1e-8:
        raise NonSquareSystem(
            f"homogeneous system rank-deficient at reference point "
            f"({rho_ref}, {v_ref}); smallest accepted pivot {margin:.2e}")
    plan = replace(plan, selected_rows=sel, d_layout=_d_layout(layout, sel),
                   square_rows=np.concatenate([sel, a0.shape[0] + np.arange(n)]))
    # the plan factorises at its reference point within the residual gates:
    # a wrong label leaves a pole that no solution cancels
    batch = _evaluate(plan, spec, *_assemble_inhomogeneous(spec, rows), DEFAULT_TOL)
    if not batch.canonical:
        raise InvariantViolation(f"the plan is not canonical at its reference point "
                                 f"({rho_ref}, {v_ref})")
    r = _checked_factors(model, batch, SpectralPoint(rho_ref, v_ref))[2]
    if not (r.factorisation <= 1e-9 and r.x_at_zero <= 1e-10 and r.pole_cancellation <= 1e-9):
        raise InvariantViolation(
            f"the plan does not factorise at its reference point ({rho_ref}, {v_ref}): "
            f"factorisation {r.factorisation:.1e}, X(0) {r.x_at_zero:.1e}, "
            f"pole cancellation {r.pole_cancellation:.1e}")
    return plan


def _d_layout(layout: _RowLayout, sel: np.ndarray) -> _RowLayout:
    """The layout of the analyticity rows sel of `layout` alone, in their
    order: the inside groups those rows use, and their cells re-indexed to
    the kept groups.  The Taylor tables and the extras are layout's own, so
    every cell is computed by the same arithmetic, bit for bit."""
    groups = layout.tgroup[sel]
    # np.unique would import numpy.ma on its first call
    keep = np.flatnonzero(np.bincount(groups, minlength=layout.gk.size))
    new = np.zeros(layout.gk.size, dtype=int)
    new[keep] = np.arange(keep.size)
    # a group's cells are a block of n * O * cmax entries: (g, j, o, c)
    block = layout.limit.size * layout.lag.shape[0] * layout.cmax
    return replace(layout, gk=layout.gk[keep], groot=layout.groot[keep],
                   cell=layout.cell[sel] + ((new[groups] - groups) * block)[:, None])


def _label_values(poles: np.ndarray, plus: np.ndarray, rho, v) -> np.ndarray:
    """Root of every label at Weyl points (rho, v) of shape (N,), for the
    omega poles `poles` (P,) with the plus branch inside where `plus`;
    returns shape (2P + 1, N).

    The inside member is (v - w +- sqrt((v - w)^2 + rho^2)) / rho, a zero
    of omega(tau) - w, with + for the plus branch; it is taken from the
    product -rho^2 of the two numerators where it would cancel.  The
    outside member is -1/tau_in.
    """
    dv = v - poles[:, None]
    s = np.sqrt(dv * dv + rho * rho)
    s = np.where(plus[:, None], s, -s)      # + for the plus branch, - for the minus
    a, b = dv + s, dv - s
    big = np.abs(a) >= np.abs(b)            # b may vanish far out, where a is kept
    t_in = np.where(big, a, -rho) / np.where(big, rho, b)
    lab = np.zeros((1 + 2 * plus.size,) + rho.shape, dtype=t_in.dtype)
    lab[1::2] = t_in
    lab[2::2] = -1.0 / t_in
    return lab


def _plan_spec(plan: AnsatzPlan, rho, v) -> AnsatzSpec:
    """The plan's AnsatzSpec at Weyl points (rho, v) of any common shape."""
    rho, v = np.asarray(rho, dtype=float), np.asarray(v, dtype=float)
    if rho.shape != v.shape:
        rho, v = np.broadcast_arrays(rho, v)
    batch = rho.shape
    rho, v = rho.reshape(-1), v.reshape(-1)
    good = rho > 0.0
    good &= np.isfinite(rho)
    good &= np.isfinite(v)
    if not good.all():
        i = int(np.argmin(good))
        raise ValueError(f"a Weyl point needs finite v and finite rho > 0, "
                         f"got (rho, v) = ({rho[i]}, {v[i]})")
    lab = _label_values(plan.omega_poles, plan.plus, rho, v)
    half = -0.5 * rho                            # tau^2 coefficient of W = tau omega(tau)
    top = plan.adj_num.shape[1] - 1
    # rows W^i tau^(K - i), i = 0..K, built as W^i tau^(K - i) = (W / tau) W^(i-1) tau^(K-i+1);
    # one more coefficient column stays zero
    powers = np.zeros((top + 1, 2 * top + 2, rho.size), dtype=plan.adj_num.dtype)
    poly = powers[:, :-1]
    poly[0, top] = 1.0
    for i in range(1, top + 1):
        prev = poly[i - 1]
        step = half * prev
        poly[i, :-1] -= step[1:]
        poly[i] += v * prev
        poly[i, 1:] += step[:-1]
    composed = (plan.adj_num @ powers.reshape(top + 1, -1)).reshape(
        plan.adj_num.shape[0] * (2 * top + 2), rho.size)
    # half^d by repeated products, one sequential product along d: numpy's
    # pow of a negative base rounds differently below and above its SIMD
    # batch size
    half_pw = np.empty((plan.adj_deg.max() + 1, rho.size))
    half_pw[0] = 1.0
    half_pw[1:] = half
    np.multiply.accumulate(half_pw, axis=0, out=half_pw)
    scale = 1.0 / (plan.adj_lc[:, None] * half_pw[plan.adj_deg])
    num = composed[plan.place] * scale[:, None]
    return AnsatzSpec(num.reshape((plan.n, plan.n, num.shape[1]) + batch),
                      lab.reshape(lab.shape[:1] + batch), plan.layout)


# ---------------------------------------------------------------------------
# factors and outcome
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RationalMatrixTau:
    """n x n matrix of rational functions of tau (factor output).

    Entry (r, c) is the polynomial nums[r, c] (ascending coefficients) over
    the row denominator prod (tau - den_roots[r, x]) over the slots x with
    den_on[r, x].  With adjugate=True the matrix is the adjugate of that
    quotient, taken at each tau: X = adj Psi_+ since det Psi_+ = 1.  eval
    takes a scalar tau, giving (n, n), or an array of them, giving (..., n,
    n); each tau is evaluated alike, so an array gives the stacked scalar
    values.  It is the factors' one evaluation: the residual report and its
    Richardson estimate of M(rho, v) read them through it.
    """

    nums: np.ndarray          # (n, n, coefficient)
    den_roots: np.ndarray     # (n, slot): roots of each row's denominator
    den_on: np.ndarray        # (n, slot): which slots hold a root
    adjugate: bool = False

    @property
    def n(self) -> int:
        return self.nums.shape[0]

    def eval(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=complex)
        t = tau.reshape(-1)
        # the masked product of each row's factors (tau - root), the padding
        # multiplying by 1.0; slot by slot, as np.prod would take another
        # order for another number of taus, and every tau must evaluate alike
        factor = np.where(self.den_on[..., None], t - self.den_roots[..., None], 1.0)
        den = factor[:, 0] if factor.shape[1] else np.ones((self.n, t.size), dtype=complex)
        for x in range(1, factor.shape[1]):
            den = den * factor[:, x]
        val = (poly_eval_stack(self.nums, t) / den[:, None]).transpose(2, 0, 1)
        return (_adjugate(val) if self.adjugate else val).reshape(tau.shape + val.shape[-2:])


# entry (i, j) of a 3 x 3 adjugate is the cofactor of (j, i): the minor of
# rows _REST[j] and columns _REST[i], with the sign _COFACTOR_SIGN[i, j]
_REST = np.array([[1, 2], [0, 2], [0, 1]])
_MINOR_ROWS, _MINOR_COLS = _REST[None, :, :, None], _REST[:, None, None, :]
_COFACTOR_SIGN = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate of stacked n x n matrices (..., n, n), n = 2 or 3, from the
    cofactors."""
    if a.shape[-1] == 2:
        return np.stack([np.stack([a[..., 1, 1], -a[..., 0, 1]], axis=-1),
                         np.stack([-a[..., 1, 0], a[..., 0, 0]], axis=-1)], axis=-2)
    sub = a[..., _MINOR_ROWS, _MINOR_COLS]                  # (..., i, j, 2, 2)
    minor = sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    return minor * _COFACTOR_SIGN


@dataclass(frozen=True)
class ResidualReport:
    factorisation: float      # max rel |M - M_minus X| over check points
    x_at_zero: float          # |X(0) - I|_inf
    check_points: tuple
    pole_cancellation: float  # worst deflation residual (analyticity check)


@dataclass(frozen=True)
class FactorisationOutcome:
    status: Status
    D_value: complex
    D_scale: float
    kernel_dim: int
    X: RationalMatrixTau | None = None
    M_minus: RationalMatrixTau | None = None
    M_limit: np.ndarray | None = None
    residual_report: ResidualReport | None = None
    # (n, n): M_minus extrapolated to infinity from two large taus, which
    # assemble_M checks M_limit against (_residual_report)
    M_richardson: np.ndarray | None = None

    @property
    def canonical(self) -> bool:
        return self.status is Status.CANONICAL


# the candidate check circles of the residual report, in the order tried,
# and their points as arrays, each followed by tau = 0
_CHECK_CIRCLES = tuple(tuple(radius * np.exp(2j * np.pi * (k + 0.37) / 12) for k in range(12))
                       for radius in (1.0, 1.17, 0.83, 1.31, 0.67))
_CHECK_TAUS = np.array([circle + (0j,) for circle in _CHECK_CIRCLES])
# the large taus of the Richardson estimate of M(rho, v) from M_minus, in
# units of max(1, |pole|) over the poles of M_minus
_RICHARDSON_TAUS = np.array([1e4, 1e6])


def _check_circle(poles) -> int:
    """The check circle for the residual checks, as an index into
    _CHECK_CIRCLES, nudged off every pole in `poles`.

    Pair radii have geometric mean 1, so the unit circle is the natural
    spot-check contour; the radius is bumped when a pole sits too close:
    the first circle all of whose points keep 0.08 off every pole, else the
    one farthest off.
    """
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    gaps = []
    for i, taus in enumerate(_CHECK_TAUS[:, :-1]):
        gaps.append(np.abs(taus[:, None] - poles).min(initial=np.inf))
        if gaps[-1] > 0.08:
            return i
    return int(np.argmax(gaps))


def _residual_report(model: RationalMatrixOmega, pt: SpectralPoint, spec: AnsatzSpec,
                     X: RationalMatrixTau, M_minus: RationalMatrixTau, pole_resid):
    """Pointwise check of M = M_minus * X and X(0) = I over the check circle
    of the point's roots (spec.roots); returns (report, M_richardson).

    M(tau) comes from the model's omega-entries at omega(tau), the factors
    from the solved columns, so the check is independent of the solve.  At
    the same points det M(tau) = 1 must hold to 1e-8 * max(1, |M|)^n.  The
    same evaluation of M_minus gives its Richardson estimate of M(rho, v)
    from two large taus, which assemble_M checks M_limit against.  The
    extrapolation's own error grows like pole^2 / (tau1 tau2) with the
    largest pole of M_minus, so both taus are scaled by max(1, |pole|).
    """
    circle = _check_circle(spec.roots)
    taus, t0 = _CHECK_CIRCLES[circle], _CHECK_TAUS[circle]
    t = t0[:-1]
    m_val = model.eval(spectral_map(pt, t)).transpose(2, 0, 1)
    scale = np.maximum(1.0, np.abs(m_val).max(axis=(-2, -1)))
    det = np.linalg.det(m_val)
    bad = np.abs(det - 1.0) > 1e-8 * scale ** model.n
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantViolation(f"det M(omega(tau)) is {det[k]} at tau={taus[k]}")
    far = np.abs(M_minus.den_roots[M_minus.den_on]).max(initial=1.0) * _RICHARDSON_TAUS
    x_val = X.eval(t0)                              # X also at tau = 0
    minus_val = M_minus.eval(np.concatenate((t, far)))
    resid = np.abs(m_val - minus_val[:t.size] @ x_val[:-1]).max(axis=(-2, -1))
    x0_resid = float(np.abs(x_val[-1] - np.eye(model.n)).max())
    vals = minus_val[t.size:]
    return (ResidualReport(float((resid / scale).max()), x0_resid, taus, float(pole_resid)),
            (far[1] * vals[1] - far[0] * vals[0]) / (far[1] - far[0]))


def _factors(spec: AnsatzSpec, sol: np.ndarray):
    """The factors of the adjugate ansatz (any n with det = 1) from its
    solved coefficients at one point; returns (X, M_minus, pole_resid).

    psi_j- = S_j / pi_j with deg S_j <= deg pi_j, so M_minus is sol
    scattered through the layout, one factor column per column of sol.
    psi_+ = adj(M) psi_- must lose every inside pole, which together with
    psi_+(0) = e_i fixes the coefficients, as evaluate_points solves them.
    Analyticity is re-verified at every inside pole, where psi_+'s numerator
    NUM_k must vanish to the pole's order relative to the terms it sums.
    Then NUM_k of every column is deflated by the inside roots of L_k, a
    segment of root positions at a time for all components at once, on
    the recurrence deflate_positions picks for each root, untrimmed
    (_deflated_numerators); X's row k keeps the other roots of L_k as its
    denominator.  X = Psi_+^{-1} = adj(Psi_+); the entries of a row share
    their denominator.  Every table indexed here is the plan's layout, and
    every root is read from spec.roots by its index.
    """
    n, lay, base = spec.n, spec.layout, spec.base_polys
    # NUM_k = sum_j A_kj S_j of every factor column, as a map from sol
    conv = np.where(lay.gmask, base.reshape(n, -1)[:, lay.gather], 0.0)
    nums = conv @ sol                               # (k, coefficient, column)
    # every NUM_k vanishes to the pole order at each inside pole, relative to
    # the terms of its column before they cancel (coefficient-wise bound,
    # taken at max(1, |root|)): a component that vanishes identically is
    # rounding noise relative to its own terms.  Row (g, o) of a Taylor table
    # takes coefficients to the Taylor coefficient o at the root of group g
    # (table 0), or at max(1, |root|) (table 1).
    roots = np.asarray(spec.roots, dtype=complex)
    inside = roots[lay.groot]
    at = np.empty((2,) + inside.shape, dtype=complex)
    at[0] = inside
    np.maximum(1.0, np.abs(inside), out=at[1])
    taylor = lay.tcomb * at[:, lay.tgroup, None] ** lay.tpower
    values = np.einsum("rt,rti->ri", taylor[0], nums[lay.tcomp])
    terms = taylor[1].real @ (np.abs(conv) @ np.abs(sol)).max(axis=0)
    pole_resid = float((np.abs(values) / np.maximum(terms, 1e-300)).max(initial=0.0))
    minus = np.zeros((n, n, lay.cmax), dtype=complex)
    minus[lay.jcol, :, lay.ccol] = sol
    return (RationalMatrixTau(_deflated_numerators(lay, nums, inside),
                              roots[lay.xden], lay.xden >= 0, adjugate=True),
            RationalMatrixTau(minus, roots[lay.pi], lay.pi >= 0), pole_resid)


def _deflated_numerators(lay: _RowLayout, nums: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """X's numerators, (k, column, coefficient) zero-padded to xwidth:
    NUM_k of every column (nums, (k, coefficient, column)) divided by the
    roots of component k's inside groups (inside, one root per group) in
    the layout's deflation order, untrimmed: poly_deflate's quotients,
    bitwise.  deflate_positions takes the numerators to complex first, as
    poly_deflate does, so that a -0.0 keeps its sign."""
    n = nums.shape[0]
    plus = np.zeros((n, n, lay.xwidth), dtype=complex)
    root = inside[lay.dgroup]                       # every root in deflation order
    num = nums.transpose(1, 0, 2)                   # (coefficient, k, column)
    for done, done_k, keep, part in lay.segments:
        if done.size:       # components whose roots are all divided out
            plus[done_k, :, :num.shape[0]] = num[:, done].transpose(1, 2, 0)
        num = num[:, keep]
        num = deflate_positions(num, root[part].reshape(-1, num.shape[1]))
    plus[lay.deflated, :, :num.shape[0]] = num.transpose(1, 2, 0)
    return plus


def _checked_factors(model: RationalMatrixOmega, batch: PointBatch, pt: SpectralPoint):
    """(X, M_minus, residual report, M_richardson) of the canonical
    one-point batch of the model's plan at pt."""
    X, M_minus, pole_resid = _factors(batch.spec, batch.solution)
    return X, M_minus, *_residual_report(model, pt, batch.spec, X, M_minus, pole_resid)


def _d_with_scale(model: RationalMatrixOmega, rho, v, branches=None):
    """(D, Hadamard row-norm bound) at Weyl points (rho, v) of any common
    shape, so |D|/scale is a unit-free singularity measure.  Assembles the
    plan's D rows alone, through its D layout: no monodromy, no other
    analyticity row and no normalisation row.  The values are those of the
    D rows of the full system, bit for bit."""
    plan = _plan_for(model, branches)
    spec = replace(_plan_spec(plan, rho, v), layout=plan.d_layout)
    return _det_with_scale(_assemble_rows(spec)[..., plan.d_layout.hom])


def _det_with_scale(a: np.ndarray):
    """(det a, Hadamard bound prod |row|) of stacked square D rows.

    The rows span many orders of magnitude, so the determinant is taken of
    the rows scaled to unit norm (whose LU is well conditioned) and scaled
    back."""
    norms = np.linalg.norm(a, axis=-1)
    full = (norms > 0).all(axis=-1)
    unit = np.where(full[..., None], norms, 1.0)
    scale = np.where(full, norms.prod(axis=-1), 1.0)
    return np.linalg.det(a / unit[..., None]) * unit.prod(axis=-1), np.maximum(scale, 1e-300)


def _system_residual(A, l0, sol):
    """(max |A sol - B|, scale of the system) over stacked systems, B the
    right-hand sides of l0 (_assemble_inhomogeneous); evaluate_points calls
    sol consistent where the residual is at most 1e-8 of the scale."""
    def largest(x, axes=(-2, -1)):  # max |x| per system, from squares: one square root each
        square = x.real * x.real
        if np.iscomplexobj(x):
            square += x.imag * x.imag
        return np.sqrt(square.max(axis=axes))

    # B is zero but for l0: its largest entry is l0's, and subtracting it
    # touches only the normalisation rows (x - 0 is x)
    scale = np.maximum(np.maximum(1.0, largest(l0, -1)), largest(A) * np.maximum(1.0, largest(sol)))
    r = A @ sol
    _normalisation_diagonal(r)[...] -= l0
    return largest(r), scale


def check_tol(tol: float) -> float:
    """tol itself if it is a rank tolerance, a number in (0, 1); else ValueError."""
    if not 0.0 < tol < 1.0:          # NaN fails the comparison too
        raise ValueError(f"tolerance must be a number in (0, 1), got {tol!r}")
    return tol


def _kernel_dim(a0: np.ndarray, d_hat: np.ndarray, tol: float) -> np.ndarray:
    """numerical_nullity of every homogeneous system of a0, batch + (rows, u),
    at tol; d_hat is D over its Hadamard bound, batch.

    The SVD runs only where D-hat does not prove the kernel trivial.  Let
    A~ be a0 with its rows and then its columns scaled to unit norm, and S
    the D rows.  Every column of A~ has unit norm, so sigma_max(A~) <=
    |A~|_F = sqrt(u), and so does sigma_max(A~_S); with |det A~_S| <=
    sigma_min(A~_S) sigma_max(A~_S)^(u - 1) and sigma_min(A~) >=
    sigma_min(A~_S) (S is a subset of the rows), sigma_min(A~) >=
    |det A~_S| / u^((u - 1) / 2).  det A~_S is D-hat over the product of
    the column norms c_j of the row-scaled a0, so sigma_min / sigma_max >
    tol, a trivial kernel, wherever |D-hat| > tol u^(u/2) prod c_j.
    """
    u = a0.shape[-1]
    cols = row_scaled(a0)[1]           # equilibrate's column norms, bitwise
    clear = np.abs(d_hat) > tol * u ** (u / 2) * cols.prod(axis=-1)
    kernel = np.zeros(clear.shape, dtype=int)
    if not clear.all():
        rest = a0[~clear]
        # a system with a non-finite entry has no SVD: its kernel stays 0 and
        # _evaluate finds no consistent solution there, so it is unresolved
        finite = np.all(np.isfinite(rest), axis=(-2, -1))
        dims = np.zeros(finite.shape, dtype=int)
        if np.any(finite):
            dims[finite] = numerical_nullity(rest[finite], tol)
        kernel[~clear] = dims
    return kernel


@dataclass(frozen=True)
class PointBatch:
    """The plan's system evaluated and solved at an array of Weyl points:
    everything factorise decides from.  factorise reads it at one point
    and builds the factors from spec and solution; sweep reads it over a
    grid chunk."""

    spec: AnsatzSpec              # the plan's spec at the points
    solution: np.ndarray          # batch + (unknowns, n): coefficients of the S_j;
                                  # NaN where the square system is singular
    D_value: np.ndarray           # batch
    D_scale: np.ndarray           # batch: Hadamard bound of D
    consistent: np.ndarray        # batch: solution satisfies every row of the full system
    kernel_dim: np.ndarray        # batch: Toeplitz kernel dimension at the batch's tol

    @property
    def M_limit(self) -> np.ndarray:
        """batch + (n, n): M(rho, v) = lim M_minus, the coefficient deg pi_j of S_j."""
        return self.solution[..., self.spec.layout.limit, :]

    @property
    def canonical(self) -> np.ndarray:
        """The verdict of factorise and sweep: a trivial kernel and a
        consistent solution."""
        return (self.kernel_dim == 0) & self.consistent


def evaluate_points(model: RationalMatrixOmega, rho, v, branches=None,
                    tol: float = DEFAULT_TOL) -> PointBatch:
    """The plan's system at Weyl points (rho, v) of any common shape, from
    one evaluation: factorise's D, kernel dimension, solution and verdict.

    D and its scale come from the fixed D rows of the homogeneous part, the
    kernel dimension from the whole homogeneous part at the rank tolerance
    tol (check_tol).  The coefficients solve the square system of the D
    rows and the n normalisation rows; a point is consistent where that
    solution satisfies every row of the full system to 1e-8 of the system's
    scale.
    """
    check_tol(tol)
    plan = _plan_for(model, branches)
    spec = _plan_spec(plan, rho, v)
    return _evaluate(plan, spec, *_assemble_inhomogeneous(spec, _assemble_rows(spec)), tol)


def _evaluate(plan: AnsatzPlan, spec: AnsatzSpec, A: np.ndarray, l0: np.ndarray,
              tol: float) -> PointBatch:
    """evaluate_points on the plan's spec at its points, from its full system
    (A, l0) (_assemble_inhomogeneous) and the plan's D rows and square rows."""
    a0 = A[..., :-spec.n, spec.layout.hom]          # the homogeneous part: c < deg pi_j
    d_val, d_scale = _det_with_scale(a0[..., plan.selected_rows, :])
    rows = plan.square_rows
    sol = _solve_stack(A[..., rows, :], _right_hand_sides(l0, rows.size, A.dtype))
    resid, scale = _system_residual(A, l0, sol)
    # a finite scale bounds the residual too: inf <= inf must not pass
    return PointBatch(spec, sol, d_val, d_scale, (resid <= 1e-8 * scale) & np.isfinite(scale),
                      _kernel_dim(a0, d_val / d_scale, tol))


def _solve_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-equilibrated solve of stacked square systems; NaN where a matrix
    is exactly singular."""
    norms = np.linalg.norm(a, axis=-1, keepdims=True)
    norms = np.where(norms > 0, norms, 1.0)
    a, b = a / norms, b / norms
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:          # some matrix of the stack is singular
        out = np.full(b.shape, np.nan, dtype=b.dtype)
        for index in np.ndindex(a.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[index] = np.linalg.solve(a[index], b[index])
        return out


def factorise(model: RationalMatrixOmega, rho: float, v: float,
              branches=None, tol: float = DEFAULT_TOL) -> FactorisationOutcome:
    """Full pipeline at one Weyl point: evaluate_points at that point (rank
    tolerance tol), then the factors and the residual check where its
    verdict is canonical.

    Everything is read from the model's compiled plan: no monodromy is
    composed.  Returns a CANONICAL outcome with factors and M(rho, v); a
    DEGENERATE one (kernel_dim >= 1); or an UNRESOLVED one, whose kernel is
    trivial but whose solution misses a row of the system.  The last two
    carry D and the kernel dimension.  More than one point is a ValueError.
    """
    rho, v = _one_point("factorise", rho, v)
    batch = evaluate_points(model, rho, v, branches, tol)
    d_val, d_scale = complex(batch.D_value.item()), batch.D_scale.item()
    kdim = int(batch.kernel_dim)
    if batch.canonical:
        X, M_minus, report, richardson = _checked_factors(model, batch, SpectralPoint(rho, v))
        return FactorisationOutcome(Status.CANONICAL, d_val, d_scale, 0,
                                    X, M_minus, batch.M_limit, report, richardson)
    status = Status.DEGENERATE if kdim else Status.UNRESOLVED
    return FactorisationOutcome(status, d_val, d_scale, kdim)


# relative bound, of max(1, |M|), on assemble_M's Richardson cross-check
LIMIT_CHECK_REL = 1e-8


def assemble_M(outcome: FactorisationOutcome, check: bool = True) -> np.ndarray:
    """Solution matrix M(rho, v) = lim M_minus(tau), with a Richardson
    cross-check of the closed-form limit against large-tau evaluations of
    M_minus (the outcome's M_richardson, which factorise takes from the
    residual report's evaluation of M_minus)."""
    if not outcome.canonical:
        raise NotCanonical(f"no solution matrix for status {outcome.status.value}")
    m = outcome.M_limit
    if check:
        gap = np.abs(outcome.M_richardson - m).max()
        if gap > LIMIT_CHECK_REL * max(1.0, float(np.abs(m).max())):
            raise ArithmeticError(
                f"limit cross-check failed: |extrapolated - closed form| = {gap:.2e}")
    return m
