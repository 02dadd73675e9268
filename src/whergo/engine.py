"""Existence test and construction of canonical factorisations.

One per-point route serves every n: the minus columns are parametrised by
rational functions with prescribed inside poles, mapped through the
adjugate, and pole cancellation plus the normalisation at tau = 0 fix
their coefficients.  The homogeneous part of that system is the Toeplitz
kernel; a fixed square row subset of it gives D(rho, v).  The route
returns the factors X (plus factor, X(0) = I), M_minus and the solution
matrix M(rho, v) = lim M_minus(tau).

Structure fixed by the model is held on the model object: the 2x2 normal
form read by the batched grid, and the row subset that gives D, chosen once
per branch tuple.  Each factorise call builds the ansatz and assembles its
constraint system once; D, the kernel dimension and the factor solve all
read that system.  Callers that need only D or the kernel dimension
assemble the smaller homogeneous system alone.

For 2x2 models of the common-denominator form two more pieces remain: the
degree classification (whose always-canonical case needs no system at
all) and the value-and-derivative existence system, which is the
reference D of the paper and backs the batched grid evaluation.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .catalog import MonodromyMatrixTau, RationalMatrixOmega, compose_monodromy
from .errors import (
    DegenerateZeros,
    NonSquareSystem,
    NotCanonical,
    SingularSystem,
)
from .poly import (
    FactoredRational,
    dense_det,
    numerical_nullity,
    poly_add,
    poly_degree,
    poly_derivative,
    poly_deflate,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_trim,
)
from .spectral import PolePartition, SpectralPoint, build_partition, compose_polynomial_batch

DEFAULT_D_TOL = 1e-9

# reference Weyl points used once per (model, branches) to fix the row
# selection of the generic constraint system; must be off-curve, which the
# builder verifies and falls back along the list if not
_REFERENCE_POINTS = ((2.0, 0.5), (3.1, -0.7), (1.7, 1.3), (2.6, 1.9))


class Classification(enum.Enum):
    ALWAYS_CANONICAL = "always-canonical"
    DETERMINANT_TEST = "determinant-test"
    REDUCIBLE_CASE = "reducible-case"


class Status(enum.Enum):
    CANONICAL = "canonical"
    NON_CANONICAL = "non-canonical"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ClassificationResult:
    kind: Classification
    N1: int
    N2: int
    two_n: int
    transcript: str | None = None


def classify_2x2(mono: MonodromyMatrixTau) -> ClassificationResult:
    """Trichotomy on N1 + N2 versus 2n for the 2x2 normal form."""
    dt = mono.degree_table
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


def _always_canonical(mono: MonodromyMatrixTau) -> bool:
    """The degree classification settles existence with no system at all."""
    return (mono.degree_table is not None
            and classify_2x2(mono).kind is Classification.ALWAYS_CANONICAL)


def compute_D(mono: MonodromyMatrixTau, partition: PolePartition) -> complex:
    """Determinant of the analyticity-constraint system.

    Its vanishing locus is exactly where the canonical factorisation fails.
    The rows are a fixed square subset of the homogeneous system, chosen
    once per (model, branches).
    """
    return _d_with_scale(mono, partition)[0]


def toeplitz_kernel_dim(mono: MonodromyMatrixTau, partition: PolePartition,
                        rel_tol: float = 1e-9) -> int:
    """Kernel dimension of the Toeplitz operator with this symbol.

    The always-canonical classification short-circuits to 0 without
    assembling anything: every kernel element picks up a positive tau power
    and is forced to vanish at the origin, hence identically.
    """
    if _always_canonical(mono):
        return 0
    return numerical_nullity(_assemble_homogeneous(_ansatz_for(mono, partition)), rel_tol)


# ---------------------------------------------------------------------------
# factorisation route: adjugate ansatz with explicit pole-cancellation constraints
# ---------------------------------------------------------------------------

from .poly import _multiset_minus, _root_lcm  # noqa: E402  (module-internal helpers)


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
    """Assembly data for the generic constraint system at one Weyl point.

    pi_roots[j] are the prescribed inside poles (with multiplicity) of the
    j-th minus component; base_polys[k][j] collects adj(M)_kj over the
    common denominator of component k; inside_groups[k] lists the
    (tau_star, vanishing order) of every condition imposed on component k.
    """

    mono: MonodromyMatrixTau
    partition: PolePartition
    pi_roots: list            # per row j: tuple of inside poles with multiplicity
    base_polys: list          # [k][j] numerator polynomial A_kj
    lk_roots: list            # per component k: full denominator root multiset
    inside_groups: list       # per k: ordered [(root, mult)] of inside constraints
    m0: list                  # per k: multiplicity of tau = 0 in L_k
    l0: list                  # per k: leading Taylor coefficient of L_k at 0
    selected_rows: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.mono.n

    def hom_unknowns(self) -> int:
        return sum(len(r) for r in self.pi_roots)


def _is_inside_root(r, partition) -> bool:
    if abs(r) < 1e-10:
        return True
    for p in partition.pairs:
        if abs(r - p.tau_in) <= 1e-8 * max(1.0, abs(r)):
            return True
    return False


def build_ansatz(mono: MonodromyMatrixTau, partition: PolePartition) -> AnsatzSpec:
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
    return AnsatzSpec(mono, partition, pi_roots, base_polys, lk_roots,
                      inside_groups, m0s, l0s)


def _row_for(spec: AnsatzSpec, k: int, p: complex, order: int, degrees, deriv_cache):
    """One analyticity row: d^order/dtau^order of NUM_k at p, per column (j, c)."""
    cols = []
    for j, dj in enumerate(degrees):
        chain = deriv_cache[(k, j)]
        for c in range(dj + 1):
            val = 0.0 + 0j
            for i in range(min(c, order) + 1):
                a_der = chain[order - i] if order - i < len(chain) else None
                if a_der is None:
                    continue
                perm = 1.0
                for t in range(i):
                    perm *= (c - t)
                val += math.comb(order, i) * perm * p ** (c - i) * poly_eval(a_der, p)
            cols.append(val)
    return np.array(cols)


def _deriv_cache(spec: AnsatzSpec, max_order: int):
    cache = {}
    for k in range(spec.n):
        for j in range(spec.n):
            chain = [spec.base_polys[k][j]]
            for _ in range(max_order):
                chain.append(poly_derivative(chain[-1]))
            cache[(k, j)] = chain
    return cache


def _assemble_rows(spec: AnsatzSpec, degrees):
    max_order = max((m for groups in spec.inside_groups for _, m in groups), default=1)
    cache = _deriv_cache(spec, max_order)
    rows = []
    for k in range(spec.n):
        for root, mult in spec.inside_groups[k]:
            for order in range(mult):
                rows.append(_row_for(spec, k, root, order, degrees, cache))
    if rows:
        return np.array(rows)
    width = sum(d + 1 for d in degrees)
    return np.zeros((0, width), dtype=complex)


def _assemble_homogeneous(spec: AnsatzSpec) -> np.ndarray:
    # columns c <= deg pi_j - 1: phi_- must vanish at infinity; rows with
    # deg pi_j = 0 contribute no unknowns (their block is empty)
    return _assemble_rows(spec, [len(r) - 1 for r in spec.pi_roots])


def _homogeneous_part(spec: AnsatzSpec, A: np.ndarray) -> np.ndarray:
    """The homogeneous system inside the full one: the analyticity rows of
    A restricted to the columns c < deg pi_j of each block.  Entry for entry
    equal to _assemble_homogeneous(spec), whose rows are built the same way."""
    keep, col = [], 0
    for r in spec.pi_roots:
        keep.extend(range(col, col + len(r)))
        col += len(r) + 1
    return A[:-spec.n, keep]


def _assemble_inhomogeneous(spec: AnsatzSpec):
    """Full system: analyticity rows plus n normalisation rows at tau = 0.

    Returns (A, B) where B has one right-hand side per factor column.
    """
    degrees = [len(r) for r in spec.pi_roots]    # deg S_j <= deg pi_j
    a_top = _assemble_rows(spec, degrees)
    n = spec.n
    width = sum(d + 1 for d in degrees)
    norm = np.zeros((n, width), dtype=complex)
    for k in range(n):
        col = 0
        for j, dj in enumerate(degrees):
            base = spec.base_polys[k][j]
            for c in range(dj + 1):
                idx = spec.m0[k] - c
                if 0 <= idx < base.size:
                    norm[k, col] = base[idx]
                col += 1
    A = np.vstack([a_top, norm])
    B = np.zeros((A.shape[0], n), dtype=complex)
    for i in range(n):
        B[a_top.shape[0] + i, i] = spec.l0[i]
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


def _branch_signature(partition: PolePartition):
    return tuple(p.branch for p in partition.pairs)


def _selection_for(model: RationalMatrixOmega, branches) -> np.ndarray:
    """Row selection for the generic D, fixed once per (model, branches).

    Computed at the first reference Weyl point where the homogeneous system
    has full column rank with margin and stored in model.row_selections;
    reused at every other point so that D(rho, v) is a continuous
    determinant of the same constraint subset.
    """
    branches = tuple(branches)
    if branches in model.row_selections:
        return model.row_selections[branches]
    last_exc = None
    for rho_ref, v_ref in _REFERENCE_POINTS:
        try:
            pt = SpectralPoint(rho_ref, v_ref)
            part = build_partition(pt, model.omega_poles, branches)
            mono = compose_monodromy(model, pt)
            spec = build_ansatz(mono, part)
            a0 = _assemble_homogeneous(spec)
            u = spec.hom_unknowns()
            if a0.shape[0] < u:
                raise NonSquareSystem(
                    "fewer constraints than unknowns in homogeneous system",
                    unknowns=u, constraints=a0.shape[0])
            sel, margin = _greedy_rows(a0, u)
            if margin < 1e-8:
                raise NonSquareSystem(
                    f"homogeneous system rank-deficient at reference point "
                    f"({rho_ref}, {v_ref}); smallest accepted pivot {margin:.2e}",
                    unknowns=u, constraints=a0.shape[0],
                    certificate={"reference": (rho_ref, v_ref), "margin": margin})
            model.row_selections[branches] = sel
            return sel
        except Exception as exc:  # degenerate reference point, try the next
            last_exc = exc
            continue
    raise NonSquareSystem(f"no usable reference point found: {last_exc}")


def _ansatz_for(mono: MonodromyMatrixTau, partition: PolePartition) -> AnsatzSpec:
    spec = build_ansatz(mono, partition)
    sel = _selection_for(mono.model, _branch_signature(partition))
    a0_rows = sum(m for groups in spec.inside_groups for _, m in groups)
    if sel.size and (sel.max() >= a0_rows):
        raise NonSquareSystem(
            "constraint structure changed between reference and target point",
            unknowns=spec.hom_unknowns(), constraints=a0_rows)
    spec.selected_rows = sel
    return spec


# ---------------------------------------------------------------------------
# factors and outcome
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalMatrixTau:
    """Plain rational matrix in tau (factor output)."""

    n: int
    entries: tuple

    def eval(self, tau) -> np.ndarray:
        return np.array([[self.entries[i][j](tau) for j in range(self.n)]
                         for i in range(self.n)])


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


def _check_taus(mono: MonodromyMatrixTau, count: int = 12):
    """Sample points for residual checks, nudged off every ledger pole.

    Pair radii have geometric mean 1, so the unit circle is the natural
    spot-check contour; the radius is bumped when a pole sits too close.
    """
    poles = [rec.tau for rec in mono.ledger] + [rec.partner for rec in mono.ledger
                                                if rec.partner is not None]
    for radius in (1.0, 1.17, 0.83, 1.31, 0.67):
        taus = [radius * np.exp(2j * np.pi * (k + 0.37) / count) for k in range(count)]
        ok = all(min((abs(t - p) for p in poles), default=1.0) > 0.08 for t in taus)
        if ok:
            return taus
    return taus


def _residual_report(mono, X: "RationalMatrixTau", M_minus: "RationalMatrixTau",
                     pole_resid) -> ResidualReport:
    """Pointwise check of M = M_minus * X and X(0) = I."""
    taus = _check_taus(mono)
    worst = 0.0
    for t in taus:
        m_val = mono.eval(t)
        resid = np.max(np.abs(m_val - M_minus.eval(t) @ X.eval(t)))
        worst = max(worst, resid / max(1.0, np.max(np.abs(m_val))))
    x0_resid = float(np.max(np.abs(X.eval(0.0) - np.eye(mono.n))))
    return ResidualReport(float(worst), x0_resid, tuple(taus), float(pole_resid))


def _abs_eval(coeffs, r) -> float:
    """sum |c_i| |r|^i: magnitude scale of a polynomial evaluation at r."""
    return float(np.polynomial.polynomial.polyval(abs(r), np.abs(coeffs)))


def _equilibrated_lstsq(A, B, refine: int = 2):
    """Least squares with row/column equilibration and iterative refinement.

    The constraint systems are consistent, so equilibration does not change
    the solution but it rescues several digits at extreme Weyl points where
    pair members spread over many orders of magnitude.
    """
    rn = np.linalg.norm(A, axis=1)
    # structurally-vacuous rows carry only arithmetic noise; scaling them to
    # unit norm would promote that noise to O(1) constraints
    floor = 1e-11 * (np.max(rn) if rn.size else 1.0)
    rn = np.where(rn > floor, rn, 1.0)
    As = A / rn[:, None]
    cn = np.linalg.norm(As, axis=0)
    cn[cn == 0] = 1.0
    As = As / cn[None, :]
    y, *_ = np.linalg.lstsq(As, B / rn[:, None], rcond=None)
    x = y / cn[:, None]
    for _ in range(refine):
        r = B - A @ x
        dy, *_ = np.linalg.lstsq(As, r / rn[:, None], rcond=None)
        x = x + dy / cn[:, None]
    return x


def solve_factor_columns_generic(spec: AnsatzSpec, A: np.ndarray, B: np.ndarray,
                                 verify_tol: float = 1e-8):
    """Factor columns via the adjugate ansatz (any n with det = 1).

    psi_j- = S_j / pi_j with deg S_j <= deg pi_j; psi_+ = adj(M) psi_- must
    lose every inside pole, which together with psi_+(0) = e_i fixes the
    coefficients (A, B = _assemble_inhomogeneous(spec)).  Analyticity is
    re-verified by explicit deflation at every inside pole.
    """
    n = spec.n
    sol = _equilibrated_lstsq(A, B)
    resid = np.max(np.abs(A @ sol - B))
    scale = max(1.0, np.max(np.abs(B)), np.max(np.abs(A)) * max(1.0, np.max(np.abs(sol))))
    if resid > verify_tol * scale:
        raise SingularSystem(
            f"constraint system inconsistent: residual {resid:.2e} vs scale {scale:.2e}")
    degrees = [len(r) for r in spec.pi_roots]
    cols_plus, cols_minus = [], []
    m_lim = np.zeros((n, n), dtype=complex)
    pole_resid = 0.0
    for i in range(n):
        s_polys = []
        col = 0
        for j, dj in enumerate(degrees):
            s_polys.append(sol[col: col + dj + 1, i])
            col += dj + 1
        minus = tuple(FactoredRational(np.array(s_polys[j], dtype=complex), 1.0,
                                       tuple(spec.pi_roots[j]))
                      for j in range(n))
        plus = []
        for k in range(n):
            num = np.zeros(1, dtype=complex)
            for j in range(n):
                num = poly_add(num, poly_mul(s_polys[j], spec.base_polys[k][j]))
            den_roots = list(spec.lk_roots[k])
            for root, mult in spec.inside_groups[k]:
                for _ in range(mult):
                    nscale = max(_abs_eval(num, root), 1e-300)
                    num, rem = poly_deflate(num, root)
                    pole_resid = max(pole_resid, rem / nscale)
                    for idx, r in enumerate(den_roots):
                        if abs(r - root) <= 1e-8 * max(1.0, abs(root)):
                            den_roots.pop(idx)
                            break
            plus.append(FactoredRational(poly_trim(num), 1.0, tuple(den_roots)))
        for j in range(n):
            m_lim[j, i] = s_polys[j][degrees[j]] if s_polys[j].size > degrees[j] else 0.0
        cols_plus.append(tuple(plus))
        cols_minus.append(minus)
    return cols_plus, cols_minus, m_lim, pole_resid


def _symbolic_factors(cols_plus, cols_minus, n):
    """Assemble X and M_minus from the solved psi columns.

    det Psi_+ = 1, so X = Psi_+^{-1} = adj(Psi_+).
    """
    psi_plus = [[cols_plus[i][k] for i in range(n)] for k in range(n)]
    x_entries = _adjugate_fr(psi_plus, n)
    m_entries = [[cols_minus[i][j] for i in range(n)] for j in range(n)]
    X = RationalMatrixTau(n, tuple(tuple(r) for r in x_entries))
    M_minus = RationalMatrixTau(n, tuple(tuple(r) for r in m_entries))
    return X, M_minus


def _d_with_scale(mono: MonodromyMatrixTau, partition: PolePartition):
    """(D, Hadamard row-norm bound) so |D|/scale is a unit-free singularity
    measure; assembles the homogeneous system only."""
    if _always_canonical(mono):
        return 1.0 + 0j, 1.0
    spec = _ansatz_for(mono, partition)
    return _det_with_scale(_assemble_homogeneous(spec)[spec.selected_rows, :])


def _det_with_scale(a: np.ndarray):
    """(det a, Hadamard bound prod |row|) of the square D rows."""
    if a.shape[0] == 0:
        return 1.0 + 0j, 1.0
    norms = np.linalg.norm(a, axis=1)
    scale = float(np.prod(norms)) if np.all(norms > 0) else 1.0
    return dense_det(a), max(scale, 1e-300)


def factorise(model: RationalMatrixOmega, rho: float, v: float,
              branches=None, d_tol: float | None = None,
              rank_tol: float = 1e-9) -> FactorisationOutcome:
    """Full pipeline at one Weyl point: compose, test, construct.

    Returns a Canonical outcome with factors and M(rho, v), or a
    Degenerate/NonCanonical outcome carrying D and the kernel dimension.
    """
    if d_tol is None:
        d_tol = DEFAULT_D_TOL
    pt = SpectralPoint(rho, v)
    if branches is None:
        branches = model.default_branches
    partition = build_partition(pt, model.omega_poles, branches)
    mono = compose_monodromy(model, pt)
    classification = classify_2x2(mono) if mono.degree_table is not None else None
    spec = _ansatz_for(mono, partition)
    A, B = _assemble_inhomogeneous(spec)
    if classification is not None and classification.kind is Classification.ALWAYS_CANONICAL:
        a0 = None
        d_val, d_scale = 1.0 + 0j, 1.0
    else:
        a0 = _homogeneous_part(spec, A)
        d_val, d_scale = _det_with_scale(a0[spec.selected_rows, :])
    if abs(d_val) < d_tol * d_scale:
        status = Status.DEGENERATE
    else:
        try:
            cols_plus, cols_minus, m_lim, pole_resid = solve_factor_columns_generic(spec, A, B)
        except SingularSystem:
            status = Status.NON_CANONICAL
        else:
            X, M_minus = _symbolic_factors(cols_plus, cols_minus, mono.n)
            report = _residual_report(mono, X, M_minus, pole_resid)
            return FactorisationOutcome(Status.CANONICAL, d_val, d_scale, 0, classification,
                                        X, M_minus, m_lim, report)
    kdim = 0 if a0 is None else numerical_nullity(a0, rank_tol)
    if kdim < 1:
        status = Status.DEGENERATE
    return FactorisationOutcome(status, d_val, d_scale, kdim, classification)


def assemble_M(outcome: FactorisationOutcome, check: bool = True,
               rel: float = 1e-8) -> np.ndarray:
    """Solution matrix M(rho, v) = lim M_minus(tau), with a Richardson
    cross-check of the closed-form limit against large-tau evaluations."""
    if not outcome.canonical:
        raise NotCanonical(f"no solution matrix for status {outcome.status.value}")
    m = outcome.M_limit
    if check:
        taus = [1e3, 1e4, 1e6]
        vals = [outcome.M_minus.eval(t) for t in taus]
        extr = (taus[2] * vals[2] - taus[1] * vals[1]) / (taus[2] - taus[1])
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(extr - m)) > rel * scale:
            raise ArithmeticError(
                f"limit cross-check failed: |extrapolated - closed form| = "
                f"{np.max(np.abs(extr - m)):.2e}")
    return m


# ---------------------------------------------------------------------------
# batched grid evaluation (2x2 normal-form models)
# ---------------------------------------------------------------------------


def _pairs_batch(rho, v, omega0, branch):
    """Vectorised zero-pair members for arrays of (rho, v)."""
    dv = v - omega0
    s = np.sqrt(dv * dv + rho * rho + 0j)
    t_in = (dv - s) / rho if branch == "minus" else (dv + s) / rho
    return t_in, -1.0 / t_in


def _bval(coeffs, t):
    """Horner evaluation of stacked coefficient arrays (..., deg + 1) at t."""
    acc = np.zeros_like(t)
    for c in coeffs[..., ::-1].transpose(-1, *range(coeffs.ndim - 1)):
        acc = acc * t + c
    return acc


def _bder(coeffs, t):
    """Derivative of stacked coefficient arrays (..., deg + 1) at t."""
    deg = coeffs.shape[-1] - 1
    acc = np.zeros_like(t)
    for k in range(deg, 0, -1):
        acc = acc * t + k * coeffs[..., k]
    return acc


def _grid_system_2x2(model: RationalMatrixOmega, rho, v, branches=None):
    """Stacked existence systems over a broadcast grid; shape (..., 2n, 2n).

    Mirrors existence_system_2x2 but without per-point Newton polish; the
    difference is far below every bisection tolerance used on grids.
    """
    rho = np.asarray(rho, dtype=float)
    v = np.asarray(v, dtype=float)
    if branches is None:
        branches = model.default_branches
    q, p = model.common_denominator_form
    k11, k12, k22 = (poly_degree(p[0][0]), poly_degree(p[0][1]), poly_degree(p[1][1]))
    n1, n2 = max(k11, k12), max(k12, k22)
    shape = np.broadcast(rho, v).shape
    taus = []
    for w, b in zip(model.omega_poles, branches):
        t_in, _ = _pairs_batch(rho, v, w, b)
        taus.append(np.broadcast_to(t_in, shape))
    p22b = compose_polynomial_batch(rho, v, p[1][1])
    p12b = compose_polynomial_batch(rho, v, p[0][1]) if k12 >= 0 else None
    g2 = np.concatenate([np.zeros(shape + (n2 - k22,)), p22b], axis=-1)
    if p12b is None:
        g1 = np.zeros(shape + (1,))
    else:
        g1 = np.concatenate([np.zeros(shape + (n1 - k12,)), p12b], axis=-1)
    size = n1 + n2
    out = np.zeros(shape + (size, size), dtype=complex)
    for i, t in enumerate(taus):
        v2, d2 = _bval(g2, t), _bder(g2, t)
        v1, d1 = _bval(g1, t), _bder(g1, t)
        for c in range(n1):
            out[..., 2 * i, c] = t ** c * v2
            out[..., 2 * i + 1, c] = (c * t ** (c - 1) if c else 0.0) * v2 + t ** c * d2
        for c in range(n2):
            out[..., 2 * i, n1 + c] = -(t ** c) * v1
            out[..., 2 * i + 1, n1 + c] = -((c * t ** (c - 1) if c else 0.0) * v1 + t ** c * d1)
    return out, taus, (g2, g1), (n1, n2, k11, k12, k22)


def grid_D_2x2(model: RationalMatrixOmega, rho, v, branches=None,
               normalised: bool = True):
    """D over a grid for 2x2 determinant-test models; optionally divided by
    the Hadamard row-norm bound (a unit-free singularity measure)."""
    sys_mat, *_ = _grid_system_2x2(model, rho, v, branches)
    det = np.linalg.det(sys_mat)
    if not normalised:
        return det
    norms = np.linalg.norm(sys_mat, axis=-1)
    scale = np.prod(norms, axis=-1)
    return det / np.maximum(scale, 1e-300)


def grid_delta_2x2(model: RationalMatrixOmega, rho, v, branches=None):
    """(Delta, Btilde, normalised D) over a grid, via the column-2 solve.

    Delta = 1/M_22 and Btilde = M_12/M_22 of the solution matrix; entries
    are NaN where the system is numerically singular.
    """
    sys_mat, taus, (g2, g1), (n1, n2, k11, k12, k22) = \
        _grid_system_2x2(model, rho, v, branches)
    q = model.common_denominator_form[0]
    if n1 + n2 == 0:
        # pole-free constant model: M_minus = M itself, X = I
        const = model.eval(0.0)
        shape = np.broadcast(np.asarray(rho), np.asarray(v)).shape
        ones = np.ones(shape, dtype=complex)
        return (ones / const[1, 1], ones * const[0, 1] / const[1, 1], ones)
    det = np.linalg.det(sys_mat)
    norms = np.linalg.norm(sys_mat, axis=-1)
    dnorm = det / np.maximum(np.prod(norms, axis=-1), 1e-300)
    shape = det.shape
    # normalisation constants for column 2 (psi_+(0) = e_2)
    a1 = g1[..., 0] if n1 == k12 else np.zeros(shape, dtype=complex)
    a2 = g2[..., 0] if n2 == k22 else np.zeros(shape, dtype=complex)
    rhs = np.zeros(shape + (n1 + n2,), dtype=complex)
    for i, t in enumerate(taus):
        rv = -(a1 * _bval(g2, t) - a2 * _bval(g1, t)) / t
        rd = (-rv - a1 * _bder(g2, t) + a2 * _bder(g1, t)) / t
        rhs[..., 2 * i] = rv
        rhs[..., 2 * i + 1] = rd
    good = np.abs(dnorm) > 1e-12
    sol = np.full(shape + (n1 + n2,), np.nan, dtype=complex)
    if np.any(good):
        sol[good] = np.linalg.solve(sys_mat[good], rhs[good][..., None])[..., 0]
    # s_minus(inf) = prod(tau_i) / lc(q2n); lc(q2n) = lc(q) * (-rho/2)^n
    rho_b = np.broadcast_to(np.asarray(rho, dtype=float), shape)
    nq = poly_degree(q)
    lc = q[-1] * (-rho_b / 2.0) ** nq
    s_inf = np.prod(np.stack(taus, axis=0), axis=0) / lc
    with np.errstate(invalid="ignore", divide="ignore"):
        m22 = s_inf * sol[..., n1 + n2 - 1]
        m12 = s_inf * sol[..., n1 - 1]
        delta = 1.0 / m22
        btilde = m12 / m22
    return delta, btilde, dnorm
