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
adjugate, the label of every root (tau = 0, or the inside or outside member
of a zero pair), m0, the column degrees and the D rows.  At Weyl points the
plan needs only the zero pairs and the composed adjugate numerators, and
its rows are numpy arrays over (rho, v): one evaluation serves a single
point, a tracer grid and a sweep chunk alike.  build_ansatz, the symbolic
construction at one point, remains as the compile step and as the
reference the plan is checked against.  evaluate_points assembles the
plan's full system once over an array of points (one point for factorise)
and solves the square system of its D rows and normalisation rows: D, the
kernel dimension, M(rho, v) and the verdict all read that one evaluation,
so factorise, sweep, the curve classifier and toeplitz_kernel_dim cannot
disagree.  One rank test decides: the kernel dimension counts the singular
values <= tol * sigma_max of the row- then column-equilibrated homogeneous
system, and D only spares that SVD where it proves the kernel trivial.
Callers that need only D assemble the analyticity rows alone.

factorise is evaluate_points at one point, plus the factors and the
residual report.  It composes no monodromy and builds no pole partition, so
it answers wherever the batch does.  Its factors come from one array pass
(_factors): M_minus is the solution scattered through the layout, S_j over
pi_j; X holds the psi_+ numerators of every column, deflated at once by the
inside roots and never trimmed, and X(tau) is the adjugate of Psi_+(tau)
taken at each evaluation.  Both evaluate at a scalar tau or an array of
them.  The residual report evaluates M(tau) from the model's omega-entries
at omega(tau), and M_minus and X from the solved columns, in one batch over
the check circle, whose poles are the plan's label values.

For 2x2 models of the common-denominator form two more pieces remain: the
degree classification and the value-and-derivative existence system, which
is the reference D of the paper.  The classification's always-canonical
case N1 + N2 < 2n cannot occur for a valid model (det M = 1 gives det p =
q^2, of degree 2n, while p11 p22 - p12^2 has degree at most N1 + N2), so
only toeplitz_kernel_dim's degree-table short cut reads it.
"""
from __future__ import annotations

import contextlib
import enum
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import MonodromyMatrixTau, RationalMatrixOmega, compose_monodromy
from .errors import (
    DegeneratePair,
    DegenerateZeros,
    InadmissiblePartition,
    InvariantViolation,
    NonSquareSystem,
    NotCanonical,
    SingularSystem,
)
from .poly import (
    DEFAULT_TOL,
    FactoredRational,
    _multiset_minus,
    _root_lcm,
    equilibrate,
    numerical_nullity,
    poly_degree,
    poly_derivative,
    poly_deflate,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_scale,
    poly_shift,
)
from .spectral import BRANCH_PLUS, PolePartition, SpectralPoint, build_partition

# reference Weyl points used once per (model, branches) to compile the plan
# of the generic constraint system; must be off-curve, which the compile
# verifies and falls back along the list if not
_REFERENCE_POINTS = ((2.0, 0.5), (3.1, -0.7), (1.7, 1.3), (2.6, 1.9))


class Classification(enum.Enum):
    ALWAYS_CANONICAL = "always-canonical"
    DETERMINANT_TEST = "determinant-test"
    REDUCIBLE_CASE = "reducible-case"


class Status(enum.Enum):
    CANONICAL = "canonical"
    DEGENERATE = "degenerate"        # a non-trivial Toeplitz kernel
    UNRESOLVED = "unresolved"        # trivial kernel, yet no consistent solution


@dataclass(frozen=True)
class ClassificationResult:
    kind: Classification
    N1: int
    N2: int
    two_n: int
    transcript: str | None = None


def classify_2x2(source) -> ClassificationResult:
    """Trichotomy on N1 + N2 versus 2n for the 2x2 normal form (source: a
    model or a monodromy, both carry the degree table)."""
    dt = source.degree_table
    if dt is None:
        raise ValueError("no 2x2 normal form available for this monodromy")
    n1, n2, two_n = dt.N1, dt.N2, 2 * dt.n
    if n1 + n2 < two_n:
        return ClassificationResult(Classification.ALWAYS_CANONICAL, n1, n2, two_n)
    if n1 + n2 == two_n:
        return ClassificationResult(Classification.DETERMINANT_TEST, n1, n2, two_n)
    if dt.k11 > dt.k12 > dt.k22:
        chain = "k11 > k12 > k22"
        swap = False
    elif dt.k22 > dt.k12 > dt.k11:
        chain = "k22 > k12 > k11"
        swap = True
    else:
        raise ValueError("N1+N2 > 2n without a chain inequality; degree table inconsistent")
    d = n1 + n2 - two_n
    transcript = (
        f"chain {chain}: rearranged numerator "
        f"Q_N1-1 * tau^e2 * p22~ - Q_N2-1 * tau^e1 * p12~ with the common "
        f"factor tau^{d} divided out; {d} extra vanishing condition(s) at "
        f"tau = 0 on the second-component numerator restore a square system "
        f"of size {n1 + n2}."
        + (" Roles of rows 1 and 2 are swapped." if swap else "")
    )
    return ClassificationResult(Classification.REDUCIBLE_CASE, n1, n2, two_n, transcript)


def _inside_zeros(mono: MonodromyMatrixTau, partition: PolePartition):
    """Inside zeros tau_i of q_2n in the model's declared pole order."""
    taus = []
    for w in mono.model.omega_poles:
        taus.append(partition.pair_for(w).tau_in)
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


def existence_system_2x2(mono: MonodromyMatrixTau, partition: PolePartition) -> np.ndarray:
    """Value-and-derivative system at the inside zeros (homogeneous form).

    Unknown order (alpha_0, .., alpha_{N1-1}, beta_0, .., beta_{N2-1}); row
    order value-then-derivative per inside zero, in the model's declared
    pole order.
    """
    dt = mono.degree_table
    cls = classify_2x2(mono)
    if cls.kind is not Classification.DETERMINANT_TEST:
        raise ValueError(f"existence system defined for the determinant-test case, got {cls.kind}")
    taus = _inside_zeros(mono, partition)
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


def compute_D(mono: MonodromyMatrixTau, partition: PolePartition) -> complex:
    """Determinant of the analyticity-constraint system.

    Its vanishing locus is exactly where the canonical factorisation fails.
    The rows are a fixed square subset of the homogeneous system, chosen
    once per (model, branches).
    """
    model = mono.model
    return complex(_d_with_scale(model, mono.pt.rho, mono.pt.v,
                                 _branches_of(model, partition))[0])


def toeplitz_kernel_dim(mono: MonodromyMatrixTau, partition: PolePartition,
                        tol: float = DEFAULT_TOL) -> int:
    """Kernel dimension of the Toeplitz operator with this symbol: the
    kernel_dim of evaluate_points at the monodromy's Weyl point.

    The always-canonical classification short-circuits to 0 without
    assembling anything: every kernel element picks up a positive tau power
    and is forced to vanish at the origin, hence identically.
    """
    if (mono.degree_table is not None
            and classify_2x2(mono).kind is Classification.ALWAYS_CANONICAL):
        return 0
    model = mono.model
    return int(evaluate_points(model, mono.pt.rho, mono.pt.v,
                               _branches_of(model, partition), tol).kernel_dim)


# ---------------------------------------------------------------------------
# factorisation route: adjugate ansatz with explicit pole-cancellation constraints
# ---------------------------------------------------------------------------


def _root_sort_key(r):
    r = complex(r)
    return (round(r.real, 9), round(r.imag, 9))


def _group_roots(roots):
    """Multiset -> ordered list of (root, multiplicity)."""
    out = []
    for r in sorted((complex(x) for x in roots), key=_root_sort_key):
        if out and abs(out[-1][0] - r) <= 1e-8 * max(1.0, abs(r)):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((r, 1))
    return out


def _adjugate_fr(entries, n):
    """Adjugate of an n x n FactoredRational matrix (n = 2 or 3)."""
    if n == 2:
        return [[entries[1][1], entries[0][1].neg()],
                [entries[1][0].neg(), entries[0][0]]]
    if n == 3:
        def minor(r, c):
            rs = [i for i in range(3) if i != r]
            cs = [j for j in range(3) if j != c]
            return entries[rs[0]][cs[0]].mul(entries[rs[1]][cs[1]]).sub(
                entries[rs[0]][cs[1]].mul(entries[rs[1]][cs[0]]))

        adj = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                m = minor(j, i)          # adj = transposed cofactor matrix
                adj[i][j] = m if (i + j) % 2 == 0 else m.neg()
        return adj
    raise NotImplementedError("adjugate implemented for n <= 3")


@dataclass
class AnsatzSpec:
    """Assembly data for the generic constraint system at one Weyl point, or
    at an array of them (every value then carries the batch shape as its
    trailing axes, so that the work over points runs along contiguous axes).

    pi_roots[j] are the prescribed inside poles (with multiplicity) of the
    j-th minus component.  A_kj = adj(M)_kj L_k / pi_j, with L_k the common
    denominator of component k (roots lk_roots[k]), is num_polys[k, j, :]
    times prod (tau - r) over the extra roots r = extra_roots[k, j, x]
    with extra_on[k, j, x]: build_ansatz multiplies every root in, the plan
    keeps the labelled roots of L_k apart so that the rows can evaluate them
    in product form.  inside_groups[k] lists the (tau_star, vanishing order)
    of every condition imposed on component k.
    """

    n: int
    pi_roots: list            # per row j: tuple of inside poles with multiplicity
    num_polys: np.ndarray     # (k, j, coefficient, ...): polynomial part of A_kj
    extra_roots: np.ndarray   # (k, j, x, ...): roots multiplied into A_kj
    extra_on: np.ndarray      # (k, j, x): which of those slots hold a root
    lk_roots: list            # per component k: full denominator root multiset
    inside_groups: list       # per k: ordered [(root, mult)] of inside constraints
    m0: list                  # per k: multiplicity of tau = 0 in L_k
    l0: np.ndarray            # (k, ...): leading Taylor coefficient of L_k at 0
    layout: _RowLayout        # index tables of the rows, fixed by the structure above
    selected_rows: np.ndarray | None = None

    def hom_unknowns(self) -> int:
        return sum(len(r) for r in self.pi_roots)

    @property
    def batch(self) -> tuple:
        return self.num_polys.shape[3:]

    @cached_property
    def base_polys(self) -> np.ndarray:
        """Coefficients of A_kj, shape (k, j, coefficient, ...)."""
        num = _flat(self.num_polys, 3)
        slots = self.extra_on.shape[-1]
        base = np.concatenate([num, np.zeros(num.shape[:2] + (slots, num.shape[3]),
                                             dtype=num.dtype)], axis=2)
        roots = _flat(self.extra_roots, 3)
        for x in range(slots):
            on = self.extra_on[:, :, x, None, None]
            nxt = base * np.where(on, -roots[:, :, x, None, :], 1.0)
            nxt[:, :, 1:] += base[:, :, :-1] * on
            base = nxt
        return base.reshape(base.shape[:3] + self.batch)


def _flat(x: np.ndarray, lead: int) -> np.ndarray:
    """x with its trailing batch axes folded into one (of length 1 when x
    holds a single point)."""
    return x.reshape(x.shape[:lead] + (math.prod(x.shape[lead:]),))


def _is_inside_root(r, partition) -> bool:
    if abs(r) < 1e-10:
        return True
    for p in partition.pairs:
        if abs(r - p.tau_in) <= 1e-8 * max(1.0, abs(r)):
            return True
    return False


def build_ansatz(mono: MonodromyMatrixTau, partition: PolePartition) -> AnsatzSpec:
    """AnsatzSpec at one point from the composed monodromy, by symbolic
    rational arithmetic in tau; the plan compile reads its structure."""
    n = mono.n
    rows_inside = mono.row_inside_poles(partition)
    pi_roots = []
    for row in rows_inside:
        roots = []
        for r, mult in sorted(row.items(), key=lambda kv: _root_sort_key(kv[0])):
            roots.extend([complex(r)] * mult)
        pi_roots.append(tuple(roots))
    adj = _adjugate_fr(mono.entries, n)
    base_polys = [[None] * n for _ in range(n)]
    lk_roots, inside_groups, m0s, l0s = [], [], [], []
    for k in range(n):
        dens = [tuple(adj[k][j].den_roots) + pi_roots[j] for j in range(n)]
        lk = ()
        for d in dens:
            lk, _, _ = _root_lcm(lk, d)
        for j in range(n):
            if adj[k][j].is_zero():
                base_polys[k][j] = np.zeros(1, dtype=complex)
                continue
            cof = _multiset_minus(lk, dens[j])
            base_polys[k][j] = poly_scale(
                poly_mul(adj[k][j].num, poly_from_roots(cof)), 1.0 / adj[k][j].den_lc)
        groups = [(r, m) for r, m in _group_roots(lk) if _is_inside_root(r, partition)]
        m0 = 0
        l0 = 1.0 + 0j
        for r, m in _group_roots(lk):
            if abs(r) < 1e-10:
                m0 = m
            else:
                l0 *= (-r) ** m
        lk_roots.append(tuple(lk))
        inside_groups.append(groups)
        m0s.append(m0)
        l0s.append(l0)
    base = np.zeros((n, n, max(p.size for row in base_polys for p in row)), dtype=complex)
    for k in range(n):
        for j in range(n):
            base[k, j, :base_polys[k][j].size] = base_polys[k][j]
    layout = _row_layout(n, base.shape[-1], [len(r) for r in pi_roots],
                         [[m for _, m in g] for g in inside_groups])
    return AnsatzSpec(n, pi_roots, base, np.zeros((n, n, 0), dtype=complex),
                      np.zeros((n, n, 0), dtype=bool), lk_roots, inside_groups, m0s,
                      np.array(l0s), layout)


@dataclass(frozen=True, eq=False)
class _RowLayout:
    """Index tables of a constraint system, fixed by its structure alone."""

    jcol: np.ndarray          # (W,) block j of each column
    ccol: np.ndarray          # (W,) coefficient c of each column, c <= deg pi_j
    hom: np.ndarray           # columns with c < deg pi_j
    gk: np.ndarray            # (G,) component k of each inside group
    powers: int               # C: the rows use powers 0..C-1 of the group roots
    tshift: np.ndarray        # (O, C) power c - i of p in C(c, i) p^(c - i) (clipped)
    tweight: np.ndarray       # (O, C, 1) C(c, i) for c >= i, else 0
    lag: np.ndarray           # (O, O) order o - i of a for i <= o, else O (a zero)
    cmax: int                 # max deg pi_j + 1: the coefficients c of the cells
    cell: np.ndarray          # (R, W) entry of each row and column in the (g, j, o, c) cells


def _row_layout(n: int, width: int, degrees, mults) -> _RowLayout:
    """Layout for n components with deg pi_j = degrees[j], polynomial parts
    of `width` coefficients and inside groups of multiplicities mults[k]."""
    widths = [d + 1 for d in degrees]
    starts = np.cumsum([0] + widths[:-1])
    groups = [(k, m) for k in range(n) for m in mults[k]]
    order = max((m for _, m in groups), default=1)
    rows = [(g, o) for g, (_, m) in enumerate(groups) for o in range(m)]
    jcol = np.repeat(np.arange(n), widths)
    ccol = np.concatenate([np.arange(w) for w in widths])
    i, c = np.arange(order)[:, None], np.arange(max([width] + widths))
    g_r = np.array([g for g, _ in rows], dtype=int).reshape(-1, 1)
    o_r = np.array([o for _, o in rows], dtype=int).reshape(-1, 1)
    return _RowLayout(
        jcol, ccol,
        np.concatenate([np.arange(a, a + d) for a, d in zip(starts, degrees)]).astype(int),
        np.array([k for k, _ in groups], dtype=int), c.size, np.maximum(c - i, 0),
        np.array([[math.comb(cc, ii) if cc >= ii else 0.0 for cc in c]
                  for ii in range(order)])[..., None],
        np.where(i.T <= i, i - i.T, order), max(widths),
        ((g_r * n + jcol) * order + o_r) * max(widths) + ccol)


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
    p = np.array([r for g in spec.inside_groups for r, _ in g],
                 dtype=num.dtype).reshape(-1, 1, num.shape[3])
    pw = np.ones((p.shape[0], lay.powers, p.shape[2]), dtype=p.dtype)
    for c in range(1, lay.powers):
        np.multiply(pw[:, c - 1], p[:, 0], out=pw[:, c])
    # C(c, i) p^(c - i): Taylor coefficient i of tau^c at p, (g, i, c, point)
    taylor = lay.tweight * pw[:, lay.tshift]
    # Taylor coefficients at p_g of the polynomial part, (g, j, o, point)
    coef = (num[lay.gk, :, None] * taylor[:, None, :, :num.shape[2]]).sum(axis=3)
    on = spec.extra_on[lay.gk, :, :, None]
    gap = np.where(on, p[:, None] - _flat(spec.extra_roots, 3)[lay.gk], 1.0)   # (g, j, x, point)
    for x in range(on.shape[2]):
        nxt = coef * gap[:, :, x, None]
        nxt[:, :, 1:] += coef[:, :, :-1] * on[:, :, x, None]
        coef = nxt
    # Taylor coefficient o of tau^c A_kj in every (g, j, o, c) cell
    coef = np.concatenate([coef, np.zeros_like(coef[:, :, :1])], axis=2)
    cells = (coef[:, :, lay.lag, None] * taylor[:, None, None, :, :lay.cmax]).sum(axis=3)
    return _batch_first(cells.reshape(-1, cells.shape[-1])[lay.cell], spec.batch)


def _batch_first(x: np.ndarray, batch: tuple) -> np.ndarray:
    """(rows, columns, point) -> batch + (rows, columns)."""
    return x.transpose(2, 0, 1).reshape(batch + x.shape[:2])


def _assemble_homogeneous(spec: AnsatzSpec) -> np.ndarray:
    """Analyticity rows on the columns c <= deg pi_j - 1 of each block: phi_-
    must vanish at infinity; rows with deg pi_j = 0 contribute no unknowns."""
    return _assemble_rows(spec)[..., spec.layout.hom]


def _homogeneous_part(spec: AnsatzSpec, A: np.ndarray) -> np.ndarray:
    """The homogeneous system inside the full one: the analyticity rows of
    A restricted to the columns c < deg pi_j of each block.  Entry for entry
    equal to _assemble_homogeneous(spec), which slices the same rows."""
    return A[..., :-spec.n, spec.layout.hom]


def _assemble_inhomogeneous(spec: AnsatzSpec):
    """Full system: analyticity rows plus n normalisation rows at tau = 0.

    Returns (A, B) where B has one right-hand side per factor column.
    """
    lay = spec.layout
    a_top = _assemble_rows(spec)
    n, base = spec.n, _flat(spec.base_polys, 3)
    # row k: coefficient of tau^m0_k of NUM_k, i.e. A_kj[m0_k - c] per column
    idx = np.array(spec.m0)[:, None] - lay.ccol
    norm = (base[np.arange(n)[:, None], lay.jcol, np.clip(idx, 0, base.shape[2] - 1)]
            * ((idx >= 0) & (idx < base.shape[2]))[..., None])
    A = np.concatenate([a_top, _batch_first(norm, spec.batch)], axis=-2)
    B = np.zeros(A.shape[:-1] + (n,), dtype=A.dtype)
    B[..., a_top.shape[-2] + np.arange(n), np.arange(n)] = np.moveaxis(spec.l0, 0, -1)
    return A, B


def _greedy_rows(A: np.ndarray, k: int):
    """Deterministic greedy selection of k maximally independent rows.

    Modified Gram-Schmidt volume heuristic: repeatedly take the row with
    the largest component orthogonal to the span of those already chosen
    (lowest index wins ties).  Returns sorted indices and the smallest
    accepted residual norm relative to the largest row norm.
    """
    work = A.astype(complex).copy()
    norms0 = np.linalg.norm(A, axis=1)
    scale = float(np.max(norms0)) if norms0.size else 0.0
    chosen = []
    worst = np.inf
    for _ in range(k):
        norms = np.linalg.norm(work, axis=1)
        for idx in chosen:
            norms[idx] = -1.0
        pick = int(np.argmax(norms))
        worst = min(worst, norms[pick] / scale if scale else 0.0)
        q = work[pick] / norms[pick] if norms[pick] > 0 else work[pick]
        chosen.append(pick)
        work = work - np.outer(work @ q.conj(), q)
    return np.array(sorted(chosen), dtype=int), worst


# ---------------------------------------------------------------------------
# ansatz plan: the constraint system compiled once per (model, branches)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AnsatzPlan:
    """The generic constraint system of one (model, branches), compiled once.

    Every root of the system carries one of 2P + 1 labels: tau = 0 (label 0)
    or a member of the zero pair of omega pole i, inside (1 + 2i) or outside
    (2 + 2i).  The labels of L_k, pi_j and the inside groups, m0, the column
    degrees and the D-row selection are read from one build_ansatz run at a
    reference point.  At a Weyl point A_kj = adj(M)_kj(omega(tau)) L_k / pi_j
    is the composed numerator of the omega-plane adjugate entry, times a
    power of tau, over the composed denominator's leading coefficient, times
    the labelled roots of L_k that neither pi_j nor that denominator takes.
    When the poles and the adjugate coefficients are all real, so is every
    entry of the system, and the plan stores them real: the system is then
    assembled, and solved, in real arithmetic.
    """

    n: int
    omega_poles: np.ndarray   # (P,) in the model's order
    plus: np.ndarray          # (P,) True where the inside member is the plus branch
    adj_num: np.ndarray       # (n*n, K + 1) adjugate numerators in omega, entry k*n + j
    adj_lc: np.ndarray        # (n*n,) leading coefficient of each adjugate denominator
    adj_deg: np.ndarray       # (n*n,) degree of each adjugate denominator
    place: np.ndarray         # (n*n, width) row e * (2K + 2) + tau power of the composed
                              # numerators; power 2K + 1 is zero and fills the empty slots
    extras: np.ndarray        # (n, n, X) labels of the roots multiplied in, -1 = none
    pi_labels: tuple          # per j: labels of pi_j
    lk_labels: tuple          # per k: labels of L_k with multiplicity
    groups: tuple             # per k: ((label, mult), ...) of the inside constraints
    l0_labels: np.ndarray     # (n, X) labels of the non-zero roots of L_k, -1 = none
    m0: tuple                 # per k: multiplicity of tau = 0 in L_k
    selected_rows: np.ndarray
    layout: _RowLayout


def _plan_for(model: RationalMatrixOmega, branches) -> AnsatzPlan:
    """The model's plan for this branch tuple, compiled on first use.

    Compiled at the first reference Weyl point that is off-curve (the
    homogeneous system has full column rank with margin) and where the plan
    reproduces build_ansatz; the same plan, and so the same D rows, then
    serves every other point, so D(rho, v) is a continuous determinant.
    """
    branches = tuple(branches)
    plan = model.plans.get(branches)
    if plan is None:
        adj = _omega_adjugate(model)
        last_exc = None
        for rho_ref, v_ref in _REFERENCE_POINTS:
            try:
                plan = _compile_plan(model, branches, adj, rho_ref, v_ref)
                break
            except (NonSquareSystem, DegeneratePair, InadmissiblePartition,
                    DegenerateZeros, SingularSystem, InvariantViolation) as exc:
                last_exc = exc      # a degenerate reference point: try the next
        else:
            raise NonSquareSystem(f"no usable reference point found: {last_exc}")
        model.plans[branches] = plan
    return plan


def _omega_adjugate(model: RationalMatrixOmega):
    """adj M(omega), each entry with its shared numerator/denominator roots
    cancelled."""
    entries = [[FactoredRational(e.num, e.den[-1], e.den_roots) for e in row]
               for row in model.entries]
    return [[a if a.is_zero() else a.simplified() for a in row]
            for row in _adjugate_fr(entries, model.n)]


def _compile_plan(model, branches, adj, rho_ref, v_ref) -> AnsatzPlan:
    pt = SpectralPoint(rho_ref, v_ref)
    part = build_partition(pt, model.omega_poles, branches)
    spec = build_ansatz(compose_monodromy(model, pt), part)
    n = model.n
    pairs = [part.pair_for(w) for w in model.omega_poles]

    def label(r):
        if abs(r) < 1e-10:
            return 0
        for i, pair in enumerate(pairs):
            for side, t in enumerate((pair.tau_in, pair.tau_out)):
                if abs(r - t) <= 1e-8 * max(1.0, abs(t)):
                    return 1 + 2 * i + side
        raise NonSquareSystem(f"root {r} is neither tau = 0 nor a zero-pair member")

    def pole(w):
        for i, w0 in enumerate(model.omega_poles):
            if abs(w - w0) <= 1e-8 * max(1.0, abs(w0)):
                return i
        raise NonSquareSystem(f"adjugate pole {w} is not a pole of the model")

    pi_labels = tuple(tuple(label(r) for r in roots) for roots in spec.pi_roots)
    lk_labels = tuple(tuple(sorted(label(r) for r in roots)) for roots in spec.lk_roots)
    groups = tuple(tuple((label(r), m) for r, m in g) for g in spec.inside_groups)
    lk_count = np.zeros((n, 1 + 2 * len(pairs)), dtype=int)
    for k, ls in enumerate(lk_labels):
        lk_count[k] = np.bincount(ls, minlength=lk_count.shape[1])
    if (any(lk_count[k, lab] != m for k, g in enumerate(groups) for lab, m in g)
            or list(lk_count[:, 0]) != list(spec.m0)):
        raise NonSquareSystem("zero-pair members merge at the reference point")
    nonzero = [[lab for lab in ls if lab] for ls in lk_labels]
    l0_labels = np.full((n, max(map(len, nonzero), default=0)), -1)
    for k, ls in enumerate(nonzero):
        l0_labels[k, :len(ls)] = ls

    top = max((poly_degree(a.num) for row in adj for a in row), default=0)
    size = n * n
    adj_num = np.zeros((size, top + 1), dtype=complex)
    adj_lc = np.ones(size, dtype=complex)
    adj_deg = np.zeros(size, dtype=int)
    shifts, extras = {}, {}
    for k in range(n):
        for j in range(n):
            a = adj[k][j]
            if a.is_zero():
                continue
            e, d_num = k * n + j, poly_degree(a.num)
            adj_num[e, :d_num + 1] = a.num[:d_num + 1]
            adj_lc[e], adj_deg[e] = a.den_lc, len(a.den_roots)
            rest = Counter(lk_labels[k])
            rest.subtract(pi_labels[j])
            for w in a.den_roots:
                rest.subtract((1 + 2 * pole(w), 2 + 2 * pole(w)))
            # A_kj carries tau^(m0_k - deg_0 pi_j + deg den - deg num)
            tau_power = rest.pop(0, 0) + len(a.den_roots) - d_num
            if tau_power < 0 or min(rest.values(), default=0) < 0:
                raise NonSquareSystem(f"adjugate entry ({k}, {j}) has a pole that "
                                      f"L_{k} / pi_{j} does not cancel")
            shifts[e] = tau_power - (top - d_num)     # the composition carries tau^(K - deg num)
            extras[e] = sorted(rest.elements())
    width = max((shifts[e] + 2 * top + 1 for e in shifts), default=1)
    src = np.arange(width) - np.array([shifts.get(e, 0) for e in range(size)])[:, None]
    mask = (src >= 0) & (src <= 2 * top) & np.isin(np.arange(size), list(shifts))[:, None]
    place = np.arange(size)[:, None] * (2 * top + 2) + np.where(mask, src, 2 * top + 1)
    extra = np.full((size, max((len(x) for x in extras.values()), default=0)), -1)
    for e, x in extras.items():
        extra[e, :len(x)] = x

    a0 = _assemble_homogeneous(spec)
    u = spec.hom_unknowns()
    if a0.shape[0] < u:
        raise NonSquareSystem("fewer constraints than unknowns in homogeneous system",
                              unknowns=u, constraints=a0.shape[0])
    sel, margin = _greedy_rows(a0, u)
    if margin < 1e-8:
        raise NonSquareSystem(
            f"homogeneous system rank-deficient at reference point "
            f"({rho_ref}, {v_ref}); smallest accepted pivot {margin:.2e}",
            unknowns=u, constraints=a0.shape[0],
            certificate={"reference": (rho_ref, v_ref), "margin": margin})

    poles = np.array(model.omega_poles, dtype=complex)
    if not (np.any(poles.imag) or np.any(adj_num.imag) or np.any(adj_lc.imag)):
        poles, adj_num, adj_lc = poles.real, adj_num.real, adj_lc.real
    plan = AnsatzPlan(
        n, poles, np.array([b == BRANCH_PLUS for b in branches], dtype=bool),
        adj_num, adj_lc, adj_deg, place, extra.reshape(n, n, -1),
        pi_labels, lk_labels, groups, l0_labels, tuple(spec.m0), sel,
        _row_layout(n, width, [len(ls) for ls in pi_labels], [[m for _, m in g] for g in groups]))
    gap = _system_gap(_assemble_inhomogeneous(_plan_spec(plan, rho_ref, v_ref)),
                      _assemble_inhomogeneous(spec))
    if gap > 1e-10:
        raise InvariantViolation(f"plan system differs from build_ansatz by {gap:.2e} "
                                 f"(relative to the row norm) at ({rho_ref}, {v_ref})")
    return plan


def _system_gap(got, want) -> float:
    """Largest entry difference of two (A, B) systems relative to the row
    norm of [A | B] in `want`, over the rows that `got` assembles above 1e-8
    of that system's largest row norm.  The others are conditions at a root
    of L_k that every A_kj carries (exact zeros where `got` keeps the root in
    product form), rounding noise in both systems, which in `want` too only
    has to stay below 1e-8 of its largest row norm."""
    got, want = (np.concatenate(ab, axis=-1) for ab in (got, want))
    if got.shape != want.shape:
        return np.inf
    norms = np.linalg.norm(want, axis=-1)
    floor = 1e-8 * np.max(norms, initial=0.0)
    real = np.linalg.norm(got, axis=-1) > floor
    if np.any(norms[~real] > floor):
        return np.inf
    gap = np.max(np.abs(got - want), axis=-1, initial=0.0)[real] / norms[real]
    return float(np.max(gap, initial=0.0))


def _label_values(plan: AnsatzPlan, rho, v) -> np.ndarray:
    """Root of every label at Weyl points (rho, v) of shape (P,); returns
    shape (2P + 1, P).

    The inside member is zero_pair_for's (v - w +- sqrt((v - w)^2 + rho^2))
    / rho, taken from the product -rho^2 of the two numerators where it
    would cancel; the outside member is -1/tau_in.
    """
    dv = v - plan.omega_poles[:, None]
    s = np.sqrt(dv * dv + rho * rho)
    sign = np.where(plan.plus, 1.0, -1.0)[:, None]
    a, b = dv + sign * s, dv - sign * s
    big = np.abs(a) >= np.abs(b)            # b may vanish far out, where a is kept
    t_in = np.where(big, a, -rho) / np.where(big, rho, b)
    lab = np.zeros((1 + 2 * plan.plus.size,) + rho.shape, dtype=t_in.dtype)
    lab[1::2] = t_in
    lab[2::2] = -1.0 / t_in
    return lab


def _plan_spec(plan: AnsatzPlan, rho, v) -> AnsatzSpec:
    """The plan's AnsatzSpec at Weyl points (rho, v) of any common shape."""
    rho, v = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(v, dtype=float))
    if not np.all(rho > 0.0):
        raise ValueError("rho must be strictly positive")
    batch = rho.shape
    rho, v = rho.reshape(-1), v.reshape(-1)
    lab = _label_values(plan, rho, v)
    half = -0.5 * rho                            # tau^2 coefficient of W = tau omega(tau)
    top = plan.adj_num.shape[1] - 1
    # rows W^i tau^(K - i), i = 0..K, built as W^i tau^(K - i) = (W / tau) W^(i-1) tau^(K-i+1);
    # one more coefficient column stays zero
    powers = np.zeros((top + 1, 2 * top + 2, rho.size), dtype=plan.adj_num.dtype)
    poly = powers[:, :-1]
    poly[0, top] = 1.0
    for i in range(1, top + 1):
        prev = poly[i - 1]
        poly[i, :-1] -= half * prev[1:]
        poly[i] += v * prev
        poly[i, 1:] += half * prev[:-1]
    composed = (plan.adj_num @ powers.reshape(top + 1, -1)).reshape(-1, rho.size)
    scale = 1.0 / (plan.adj_lc[:, None] * half ** plan.adj_deg[:, None])
    num = composed[plan.place] * scale[:, None]
    # -1 pads l0_labels and picks the row of ones
    l0 = np.prod(np.concatenate([-lab, np.ones((1, rho.size))])[plan.l0_labels], axis=1)
    roots = list(lab.reshape(lab.shape[:1] + batch))
    return AnsatzSpec(
        plan.n, [tuple(roots[i] for i in ls) for ls in plan.pi_labels],
        num.reshape((plan.n, plan.n, num.shape[1]) + batch),
        lab[plan.extras].reshape(plan.extras.shape + batch), plan.extras >= 0,
        [tuple(roots[i] for i in ls) for ls in plan.lk_labels],
        [[(roots[i], m) for i, m in g] for g in plan.groups],
        list(plan.m0), l0.reshape((plan.n,) + batch), plan.layout, plan.selected_rows)


def _branches_of(model: RationalMatrixOmega, partition: PolePartition) -> tuple:
    return tuple(partition.pair_for(w).branch for w in model.omega_poles)


# ---------------------------------------------------------------------------
# factors and outcome
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RationalMatrixTau:
    """n x n matrix of rational functions of tau (factor output).

    Entry (r, c) is the polynomial nums[r, c] (ascending coefficients) over
    the row denominator prod (tau - den_roots[r][x]).  With adjugate=True the
    matrix is the adjugate of that quotient, taken at each tau: X = adj Psi_+
    since det Psi_+ = 1.  eval takes a scalar tau, giving (n, n), or an array
    of them, giving (..., n, n); each tau is evaluated alike, so an array
    gives the stacked scalar values.
    """

    nums: np.ndarray          # (n, n, coefficient)
    den_roots: tuple          # per row: roots of its denominator
    adjugate: bool = False

    @property
    def n(self) -> int:
        return self.nums.shape[0]

    def eval(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=complex)
        t = tau.reshape(-1)
        val = self.nums[..., -1, None] + 0.0 * t            # Horner, (r, c, tau)
        for k in range(self.nums.shape[-1] - 2, -1, -1):
            val = self.nums[..., k, None] + val * t
        for r, roots in enumerate(self.den_roots):
            den = np.ones_like(t)
            for root in roots:
                den = den * (t - root)
            val[r] = val[r] / den
        val = np.moveaxis(val, -1, 0)
        if self.adjugate:
            val = _adjugate(val)
        return val.reshape(tau.shape + val.shape[-2:])


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate of stacked n x n matrices (..., n, n), n = 2 or 3, from the
    cofactors."""
    n = a.shape[-1]
    if n == 2:
        return np.stack([np.stack([a[..., 1, 1], -a[..., 0, 1]], axis=-1),
                         np.stack([-a[..., 1, 0], a[..., 0, 0]], axis=-1)], axis=-2)
    if n != 3:
        raise NotImplementedError("adjugate implemented for n <= 3")
    rest = np.array([[1, 2], [0, 2], [0, 1]])
    # entry (i, j) is the cofactor of (j, i): rows rest[j], columns rest[i]
    sub = a[..., rest[None, :, :, None], rest[:, None, None, :]]     # (..., i, j, 2, 2)
    minor = sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    return minor * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])


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
    classification: ClassificationResult | None = None
    X: RationalMatrixTau | None = None
    M_minus: RationalMatrixTau | None = None
    M_limit: np.ndarray | None = None
    residual_report: ResidualReport | None = None

    @property
    def canonical(self) -> bool:
        return self.status is Status.CANONICAL


def _check_taus(poles, count: int = 12) -> tuple:
    """Sample points for residual checks, nudged off every pole in `poles`.

    Pair radii have geometric mean 1, so the unit circle is the natural
    spot-check contour; the radius is bumped when a pole sits too close.
    """
    poles = np.asarray(poles, dtype=complex).reshape(-1)
    best, best_gap = None, -1.0
    for radius in (1.0, 1.17, 0.83, 1.31, 0.67):
        taus = tuple(radius * np.exp(2j * np.pi * (k + 0.37) / count) for k in range(count))
        gap = float(np.min(np.abs(np.array(taus)[:, None] - poles), initial=np.inf))
        if gap > 0.08:
            return taus
        if gap > best_gap:       # no radius clears every pole: the one farthest off
            best, best_gap = taus, gap
    return best


def _residual_report(model: RationalMatrixOmega, pt: SpectralPoint, poles,
                     X: RationalMatrixTau, M_minus: RationalMatrixTau,
                     pole_resid, det_tol: float = 1e-8) -> ResidualReport:
    """Pointwise check of M = M_minus * X and X(0) = I over the check circle.

    M(tau) comes from the model's omega-entries at omega(tau), the factors
    from the solved columns, so the check is independent of the solve.  At
    the same points det M(tau) = 1 must hold to det_tol * max(1, |M|)^n.
    """
    taus = _check_taus(poles)
    t = np.array(taus)
    omega = pt.v + 0.5 * pt.rho * (1.0 - t * t) / t          # the spectral map, lambda = 1
    m_val = np.moveaxis(model.eval(omega), -1, 0)
    scale = np.maximum(1.0, np.max(np.abs(m_val), axis=(-2, -1)))
    det = np.linalg.det(m_val)
    bad = np.abs(det - 1.0) > det_tol * scale ** model.n
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvariantViolation(f"det M(omega(tau)) is {det[k]} at tau={taus[k]}")
    resid = np.max(np.abs(m_val - M_minus.eval(t) @ X.eval(t)), axis=(-2, -1))
    x0_resid = float(np.max(np.abs(X.eval(0.0) - np.eye(model.n))))
    return ResidualReport(float(np.max(resid / scale)), x0_resid, taus, float(pole_resid))


def _taylor_rows(groups, width: int) -> np.ndarray:
    """Rows taking the coefficients of a polynomial (`width` of them) to its
    Taylor coefficients of orders o < m at every (root, m) of groups."""
    t = np.arange(width)
    rows = []
    for root, mult in groups:
        comb = np.ones(width)                      # C(t, o), zero for t < o
        for o in range(mult):
            rows.append(comb * complex(root) ** np.maximum(t - o, 0))
            comb = comb * (t - o) / (o + 1)
    return np.array(rows).reshape(-1, width)


def _factors(spec: AnsatzSpec, sol: np.ndarray):
    """The factors of the adjugate ansatz (any n with det = 1) from its
    solved coefficients at one point; returns (X, M_minus, pole_resid).

    psi_j- = S_j / pi_j with deg S_j <= deg pi_j, so M_minus is sol
    scattered through the layout, one factor column per column of sol.
    psi_+ = adj(M) psi_- must lose every inside pole, which together with
    psi_+(0) = e_i fixes the coefficients, as evaluate_points solves them.
    Analyticity is re-verified at every inside pole, where psi_+'s numerator
    NUM_k must vanish to the pole's order relative to the terms it sums.
    Then NUM_k of every column is deflated at once by each inside root of
    L_k, untrimmed, and that root leaves L_k's roots as the identical value
    the plan gives both.  X = Psi_+^{-1} = adj(Psi_+); the entries of a row
    share their denominator.
    """
    n, lay, base = spec.n, spec.layout, spec.base_polys
    # NUM_k = sum_j A_kj S_j of every factor column, as a map from sol
    shift = np.arange(lay.cmax - 1 + base.shape[2])[:, None] - lay.ccol
    conv = np.where((shift >= 0) & (shift < base.shape[2]),
                    base[:, lay.jcol, np.clip(shift, 0, base.shape[2] - 1)], 0.0)
    nums = conv @ sol                               # (k, coefficient, column)
    # every NUM_k vanishes to the pole order at each inside pole, relative to
    # the terms of its column before they cancel (coefficient-wise bound,
    # taken at max(1, |root|)): a component that vanishes identically is
    # rounding noise relative to its own terms
    poles = [rm for g in spec.inside_groups for rm in g]
    owner = [k for k, g in enumerate(spec.inside_groups) for _, m in g for _ in range(m)]
    values = np.einsum("rt,rti->ri", _taylor_rows(poles, shift.shape[0]), nums[owner])
    terms = (_taylor_rows([(max(1.0, abs(r)), m) for r, m in poles], shift.shape[0]).real
             @ (np.abs(conv) @ np.abs(sol)).max(axis=0))
    pole_resid = float(np.max(np.abs(values) / np.maximum(terms, 1e-300), initial=0.0))
    minus = np.zeros((n, n, lay.cmax), dtype=complex)
    minus[lay.jcol, :, lay.ccol] = sol
    plus = np.zeros((n, n, shift.shape[0]), dtype=complex)
    den_plus = []
    for k, groups in enumerate(spec.inside_groups):
        num, den = nums[k], list(spec.lk_roots[k])
        for root, mult in groups:
            for _ in range(mult):
                num, _ = poly_deflate(num, root)
                den.remove(root)
        plus[k, :, :num.shape[0]] = num.T
        den_plus.append(tuple(den))
    return (RationalMatrixTau(plus, tuple(den_plus), adjugate=True),
            RationalMatrixTau(minus, tuple(spec.pi_roots)), pole_resid)


def _d_with_scale(model: RationalMatrixOmega, rho, v, branches=None):
    """(D, Hadamard row-norm bound) at Weyl points (rho, v) of any common
    shape, so |D|/scale is a unit-free singularity measure.  Evaluates the
    plan's analyticity rows only: no monodromy, no normalisation rows."""
    if branches is None:
        branches = model.default_branches
    spec = _plan_spec(_plan_for(model, branches), rho, v)
    return _det_with_scale(_assemble_homogeneous(spec)[..., spec.selected_rows, :])


def _det_with_scale(a: np.ndarray):
    """(det a, Hadamard bound prod |row|) of stacked square D rows.

    The rows span many orders of magnitude, so the determinant is taken of
    the rows scaled to unit norm (whose LU is well conditioned) and scaled
    back."""
    norms = np.linalg.norm(a, axis=-1)
    full = np.all(norms > 0, axis=-1)
    unit = np.where(full[..., None], norms, 1.0)
    scale = np.where(full, np.prod(norms, axis=-1), 1.0)
    return np.linalg.det(a / unit[..., None]) * np.prod(unit, axis=-1), np.maximum(scale, 1e-300)


def _system_residual(A, B, sol):
    """(max |A sol - B|, scale of the system) over stacked systems;
    evaluate_points calls sol consistent where the residual is at most 1e-8
    of the scale."""
    def largest(x):      # max |x| per system, from squares: one square root per system
        square = x.real * x.real
        if np.iscomplexobj(x):
            square += x.imag * x.imag
        return np.sqrt(square.max(axis=(-2, -1)))

    scale = np.maximum(np.maximum(1.0, largest(B)), largest(A) * np.maximum(1.0, largest(sol)))
    return largest(A @ sol - B), scale


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
    _, cols = equilibrate(a0)
    clear = np.abs(d_hat) > tol * u ** (u / 2) * np.prod(cols, axis=-1)
    kernel = np.zeros(clear.shape, dtype=int)
    if not np.all(clear):
        kernel[~clear] = numerical_nullity(a0[~clear], tol)
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
        ends = np.cumsum([len(r) + 1 for r in self.spec.pi_roots]) - 1
        return self.solution[..., ends, :]

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
    if branches is None:
        branches = model.default_branches
    spec = _plan_spec(_plan_for(model, branches), rho, v)
    A, B = _assemble_inhomogeneous(spec)
    a0 = _homogeneous_part(spec, A)
    d_val, d_scale = _det_with_scale(a0[..., spec.selected_rows, :])
    n, top = spec.n, A.shape[-2]
    rows = np.concatenate([spec.selected_rows, np.arange(top - n, top)])
    sol = _solve_stack(A[..., rows, :], B[..., rows, :])
    resid, scale = _system_residual(A, B, sol)
    return PointBatch(spec, sol, d_val, d_scale, resid <= 1e-8 * scale,
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
    carry D and the kernel dimension.
    """
    pt = SpectralPoint(rho, v)
    if branches is None:
        branches = model.default_branches
    classification = classify_2x2(model) if model.degree_table is not None else None
    batch = evaluate_points(model, rho, v, branches, tol)
    d_val, d_scale = complex(batch.D_value.item()), batch.D_scale.item()
    kdim = int(batch.kernel_dim)
    if batch.canonical:
        X, M_minus, pole_resid = _factors(batch.spec, batch.solution)
        poles = _label_values(_plan_for(model, branches), np.array([float(rho)]),
                              np.array([float(v)]))
        report = _residual_report(model, pt, poles, X, M_minus, pole_resid)
        return FactorisationOutcome(Status.CANONICAL, d_val, d_scale, 0, classification,
                                    X, M_minus, batch.M_limit, report)
    status = Status.DEGENERATE if kdim else Status.UNRESOLVED
    return FactorisationOutcome(status, d_val, d_scale, kdim, classification)


def assemble_M(outcome: FactorisationOutcome, check: bool = True,
               rel: float = 1e-8) -> np.ndarray:
    """Solution matrix M(rho, v) = lim M_minus(tau), with a Richardson
    cross-check of the closed-form limit against large-tau evaluations.

    The extrapolation's own error grows like pole^2 / (tau1 tau2) with the
    largest pole of M_minus, so both taus are scaled by max(1, |pole|).
    """
    if not outcome.canonical:
        raise NotCanonical(f"no solution matrix for status {outcome.status.value}")
    m = outcome.M_limit
    if check:
        poles = [abs(r) for roots in outcome.M_minus.den_roots for r in roots]
        taus = max([1.0, *poles]) * np.array([1e4, 1e6])
        vals = outcome.M_minus.eval(taus)
        extr = (taus[1] * vals[1] - taus[0] * vals[0]) / (taus[1] - taus[0])
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(extr - m)) > rel * scale:
            raise ArithmeticError(
                f"limit cross-check failed: |extrapolated - closed form| = "
                f"{np.max(np.abs(extr - m)):.2e}")
    return m
