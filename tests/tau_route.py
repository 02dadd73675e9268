"""The paper's tau-plane route, kept as a test oracle.

M(omega) composed with the spectral relation gives a monodromy matrix in
tau.  For 2x2 models of the common-denominator form, the degree trichotomy
of that form picks the paper's case, and in its determinant-test case the
value-and-derivative system at the inside zeros is the paper's existence
system; for Kerr its determinant is f*h, which vanishes on the ergosurface.
The zero pair of an omega pole comes from the quadratic omega(tau) = omega0
solved on its own.  The library computes every answer from the plan
compiled per (model, branches), composes no monodromy and reads its zero
pairs from engine._label_values; the tests check it against this route.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from whergo.catalog import RationalEntry, RationalMatrixOmega
from whergo.engine import _check_branches
from whergo.errors import InvariantViolation, WhergoError
from whergo.poly import (
    _trimmed_size,
    as_poly,
    newton_polish,
    poly_deflate,
    poly_derivative,
    poly_eval,
    poly_from_roots,
    poly_is_zero,
    poly_mul,
    poly_trim,
)
from whergo.spectral import BRANCH_MINUS, BRANCH_PLUS, SpectralPoint, spectral_map

_MONODROMY_SEED = 40923


class DegenerateZeros(WhergoError):
    """Two inside zeros coincide within tolerance."""


class DegeneratePair(WhergoError):
    """A zero pair collapsed (double zero); the simple-zero assumption fails."""


class DegenerateCoefficient(WhergoError):
    """Leading coefficient of a quadratic is (numerically) zero."""


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
                num = poly_deflate(num, r)
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


def poly_scale(a, s) -> np.ndarray:
    return poly_trim(as_poly(a) * complex(s))


def poly_degree(c) -> int:
    p = as_poly(c)
    k = _trimmed_size(p)
    # an infinite coefficient trims every finite one, p[0] = 0 included
    return -1 if k == 1 and p[0] == 0 else k - 1


# ---------------------------------------------------------------------------
# zero pairs
# ---------------------------------------------------------------------------

PAIR_TOL = 1e-10


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


def pair_quadratic(pt: SpectralPoint, omega0) -> np.ndarray:
    """Numerator of omega(tau) - omega0 as a quadratic in tau (ascending)."""
    return np.array([pt.rho / 2.0, pt.v - complex(omega0), -pt.rho / 2.0])


@dataclass(frozen=True)
class ZeroPair:
    """One zero pair: the inside member tau_in and tau_out = -1/tau_in."""

    tau_in: complex
    tau_out: complex


def zero_pair_for(pt: SpectralPoint, omega0, branch: str = BRANCH_MINUS) -> ZeroPair:
    """Zero pair of the quadratic for omega0, with the chosen branch inside.

    branch "minus" designates (v - omega0 - sqrt((v-omega0)^2 + rho^2))/rho,
    matching the standard Kerr contour convention.  Rejects degenerate pairs,
    i.e. parameter points where v +- i*rho hits omega0.
    """
    if branch not in (BRANCH_MINUS, BRANCH_PLUS):
        raise ValueError(f"unknown branch {branch!r}")
    omega0 = complex(omega0)
    scale = max(1.0, abs(omega0), abs(pt.v), pt.rho)
    if min(abs(omega0 - (pt.v + 1j * pt.rho)), abs(omega0 - (pt.v - 1j * pt.rho))) < 1e-10 * scale:
        raise DegeneratePair(f"v +- i*rho coincides with omega-zero {omega0}")
    q = pair_quadratic(pt, omega0)
    r1, r2 = quadratic_roots(q[2], q[1], q[0])
    s = np.sqrt((pt.v - omega0) ** 2 + pt.rho ** 2 + 0j)
    target = ((pt.v - omega0) - s) / pt.rho if branch == BRANCH_MINUS else ((pt.v - omega0) + s) / pt.rho
    tau_in = r1 if abs(r1 - target) <= abs(r2 - target) else r2
    tau_out = -1.0 / tau_in
    if abs(tau_in - tau_out) < PAIR_TOL * max(1.0, abs(tau_in)):
        raise DegeneratePair(f"zero pair collapsed at tau = {tau_in}")
    return ZeroPair(tau_in, tau_out)


# ---------------------------------------------------------------------------
# the 2x2 normal form and its degree trichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeTable:
    k11: int
    k12: int
    k22: int
    n: int

    @property
    def N1(self) -> int:
        return max(self.k11, self.k12)

    @property
    def N2(self) -> int:
        return max(self.k12, self.k22)


def common_denominator_form(model: RationalMatrixOmega):
    """2x2 normal form (q, p): monic common denominator q (root-multiset
    lcm of the reduced entry denominators) and numerators
    p_ij = num * (q/den)."""
    lcm: list = []
    for i in range(2):
        for j in range(2):
            lcm = lcm + _multiset_minus(model.entry(i, j).den_roots, lcm)
    q = poly_from_roots(lcm, 1.0)
    p = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            e = model.entry(i, j)
            if poly_is_zero(e.num):
                p[i][j] = np.zeros(1, dtype=complex)
                continue
            cof = _multiset_minus(lcm, e.den_roots)
            p[i][j] = poly_trim(poly_mul(e.num, poly_from_roots(cof, 1.0 / e.den[-1])))
    return q, p


def degree_table(model: RationalMatrixOmega) -> DegreeTable | None:
    """Degrees of the 2x2 normal form, or None where that form does not
    apply: it presumes n = 2 and plain symmetry (eta = (1, 1), p21 = p12),
    so eta-symmetric but asymmetric matrices carry no degree table."""
    if model.n != 2 or any(e != 1.0 for e in model.eta):
        return None
    q, p = common_denominator_form(model)
    sym_ok = (poly_degree(p[0][1]) == poly_degree(p[1][0])
              and (poly_is_zero(p[0][1]) or
                   np.max(np.abs(p[0][1] - p[1][0])) <= 1e-10 * np.max(np.abs(p[0][1]))))
    if not sym_ok:
        return None
    return DegreeTable(k11=poly_degree(p[0][0]), k12=poly_degree(p[0][1]),
                       k22=poly_degree(p[1][1]), n=poly_degree(q))


class Classification(enum.Enum):
    ALWAYS_CANONICAL = "always-canonical"
    DETERMINANT_TEST = "determinant-test"
    REDUCIBLE_CASE = "reducible-case"


@dataclass(frozen=True)
class ClassificationResult:
    kind: Classification
    N1: int
    N2: int
    two_n: int
    transcript: str | None = None


def classify_2x2(dt: DegreeTable | None) -> ClassificationResult:
    """Trichotomy on N1 + N2 versus 2n for the 2x2 normal form of degree
    table dt.

    The always-canonical case N1 + N2 < 2n cannot occur for a valid model:
    det M = 1 gives det p = q^2, of degree 2n, while p11 p22 - p12^2 has
    degree at most N1 + N2.  Degree tables with N1 + N2 > 2n and no chain
    inequality are not the paper's and raise ValueError, although a valid
    model may have one (the engine factorises it).
    """
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


def poly_shift(a, k: int) -> np.ndarray:
    """Multiply by tau**k (coefficient shift)."""
    p = as_poly(a)
    if k == 0 or poly_is_zero(p):
        return p.copy()
    return np.concatenate([np.zeros(k, dtype=complex), p])


def compose_polynomial(pt: SpectralPoint, coeffs) -> tuple[np.ndarray, int]:
    """Compose p(omega) with the spectral relation.

    Returns (ptilde, k) with p(omega(tau)) = ptilde(tau) / tau^k and
    deg ptilde = 2k for a degree-k input.
    """
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
    denominator roots are read from the model, which finds them once.
    check=False skips the sample-point consistency validation."""
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

    dt = degree_table(model)
    q2n = None
    ptilde = None
    if dt is not None:
        q, p = common_denominator_form(model)
        q2n, _ = compose_polynomial(pt, q)
        pt11, _ = compose_polynomial(pt, p[0][0])
        pt12, _ = compose_polynomial(pt, p[0][1])
        pt22, _ = compose_polynomial(pt, p[1][1])
        ptilde = ((pt11, pt12), (pt12, pt22))
    mono = MonodromyMatrixTau(model.n, pt, entries, model, dt, q2n, ptilde)
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
    cls = classify_2x2(dt)
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
