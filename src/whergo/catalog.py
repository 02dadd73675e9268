"""Rational matrices in omega and the built-in models.

A model is an n x n matrix of rational functions of omega with det = 1 and
eta-symmetry eta M^T eta = M, built by make_model, each entry once.  It
keeps the structure fixed by the matrix alone: the entries' denominator
roots, the stacked coefficients (model.eval, the one evaluation of M) and
the plans the engine compiles from its omega-plane poles and adjugate.
"""
from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ExtremalOrOverRotating,
    InvariantViolation,
    ParameterViolation,
    SchemaError,
)
from .poly import (
    as_poly,
    newton_polish,
    poly_deflate,
    poly_eval,
    poly_eval_stack,
    poly_mul,
    poly_sub,
    poly_trim,
)
from .spectral import BRANCH_MINUS, BRANCH_PLUS

# the points omega at which _validate_matrix checks det M and eta-symmetry:
# Re omega in [-4, 4], Im omega in [0.5, 4]
_VALIDATION_POINTS = np.array([
    -0.6760059094861965 + 1.1911066192339923j,
    2.2305293302924882 + 3.7332656588140765j,
    3.7199962941442584 + 3.643961123120955j,
    1.2111740432633162 + 0.8196525562765706j,
    -3.018909550082819 + 1.3884270373773635j,
    -0.17200030578979586 + 3.4326491461881545j,
    2.767039546740068 + 3.167132571425767j,
])


@dataclass(frozen=True)
class RationalEntry:
    """num(omega)/den(omega), coefficients ascending, no root shared, and the
    polished zeros of den: make_model builds it from _cancel_shared_roots."""

    num: np.ndarray
    den: np.ndarray
    den_roots: tuple


def _polished_roots(p: np.ndarray) -> tuple:
    """The zeros of p (degree >= 1), each polished by two Newton steps."""
    return tuple(complex(newton_polish(p, r, steps=2)) for r in np.roots(p[::-1]))


@dataclass(frozen=True)
class RationalMatrixOmega:
    """Validated omega-plane matrix: det = 1, eta M^T eta = M, simple poles.

    Structure fixed by the matrix alone is computed once and kept on it
    (each entry keeps its own denominator roots): the stacked coefficients
    and, filled by the engine, the compiled plan of the generic constraint
    system per branch tuple.
    """

    n: int
    entries: tuple            # n x n nested tuple of RationalEntry
    eta: tuple                # signature diagonal, e.g. (1, -1, 1)
    params: dict = field(default_factory=dict)
    model_id: str = "custom"
    omega_poles: tuple = ()   # distinct omega-plane denominator zeros
    default_branches: tuple = ()
    # branches -> engine.AnsatzPlan, compiled once per tuple by the engine
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def entry(self, i: int, j: int) -> RationalEntry:
        return self.entries[i][j]

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The entries' numerators (index 0) and denominators (index 1),
        zero-padded into one stack (2, n, n, coefficient)."""
        polys = [[(as_poly(e.num), as_poly(e.den)) for e in row] for row in self.entries]
        width = max(p.size for row in polys for pair in row for p in pair)
        stack = np.zeros((2, self.n, self.n, width), dtype=complex)
        for i, row in enumerate(polys):
            for j, pair in enumerate(row):
                for x, p in enumerate(pair):
                    stack[x, i, j, :p.size] = p
        return stack

    def eval(self, w) -> np.ndarray:
        """M(w), shape (n, n) + w.shape: one Horner pass over the stacked
        coefficients."""
        num, den = poly_eval_stack(self.coefficients, w)
        return num / den


def _validate_matrix(m: RationalMatrixOmega):
    """m itself if det M = 1 and eta M^T eta = M hold to 1e-10 of max(1, |M|)
    at fixed points, and every entry's poles are simple; a NaN det or
    symmetry residual fails its check."""
    eta = np.diag(np.array(m.eta, dtype=float))
    # M at all seven points in one pass, each point's matrix contiguous
    vals = np.ascontiguousarray(np.moveaxis(m.eval(_VALIDATION_POINTS), -1, 0))
    scales = np.fmax(1.0, np.abs(vals).max(axis=(1, 2)))     # max(1.0, nan) is 1.0
    dets = np.linalg.det(vals)
    syms = np.abs(eta @ vals[:5].transpose(0, 2, 1) @ eta - vals[:5]).max(axis=(1, 2))
    for k, (w, det, scale) in enumerate(zip(_VALIDATION_POINTS.tolist(), dets, scales)):
        if not abs(det - 1.0) <= 1e-10 * scale ** m.n:
            raise InvariantViolation(
                f"det M({w}) = {det}, expected 1 (model {m.model_id})")
        if k < 5 and not syms[k] <= 1e-10 * scale:
            raise InvariantViolation(
                f"eta-symmetry residual {syms[k]:.2e} at omega={w}")
    # simple poles: denominator roots of every entry pairwise distinct
    for roots in (e.den_roots for row in m.entries for e in row):
        if any(same_pole(p, q) for i, p in enumerate(roots) for q in roots[i + 1:]):
            raise InvariantViolation("entry denominator has a repeated zero")
    return m


def same_pole(p, q) -> bool:
    """The one rule by which two omega poles are the same pole."""
    return abs(p - q) <= 1e-8 * max(1.0, abs(p), abs(q))


def make_model(entries, eta=None, params=None, model_id="custom",
               omega_poles=None, default_branches=None) -> RationalMatrixOmega:
    """Build and validate a RationalMatrixOmega from n x n (num, den) pairs or
    RationalEntry data, each entry once from _cancel_shared_roots.  n is 2 or
    3 and eta, if given, n numbers +-1 (no bool); omega_poles, if given, must
    be exactly the poles of M, each named once."""
    n = len(entries)
    if n not in (2, 3) or any(len(row) != n for row in entries):
        raise InvariantViolation(f"model {model_id} needs 2 x 2 or 3 x 3 entries, got rows "
                                 f"of lengths {[len(row) for row in entries]}")
    eta = (1.0,) * n if eta is None else tuple(eta) if np.iterable(eta) else (eta,)
    if len(eta) != n or not all(e in (1, -1) and not isinstance(e, (bool, np.bool_))
                                for e in eta):
        raise InvariantViolation(f"model {model_id} needs eta as {n} numbers +-1, got {eta}")
    found_roots = {}        # the polished roots of each distinct denominator, by its bytes

    def roots_of(den):
        key = den.tobytes()
        if key not in found_roots:
            found_roots[key] = _polished_roots(den)
        return found_roots[key]

    def reduced(e):
        num, den = (e.num, e.den) if isinstance(e, RationalEntry) else e
        return RationalEntry(*_cancel_shared_roots(num, den, roots_of))

    entries = tuple(tuple(reduced(e) for e in row) for row in entries)
    found = []          # the distinct denominator zeros across entries
    for r in (r for row in entries for e in row for r in e.den_roots):
        if not any(same_pole(r, s) for s in found):
            found.append(r)
    if omega_poles is None:
        omega_poles = tuple(sorted(found, key=lambda z: (round(z.real, 12), round(z.imag, 12))))
    # the declared poles are exactly the poles of M, each named once (each
    # pole has its own zero pair and labels)
    for i, p in enumerate(omega_poles):
        for q in omega_poles[i + 1:]:
            if same_pole(p, q):
                raise ParameterViolation(
                    f"omega poles {p:.17g} and {q:.17g} of model {model_id} coincide at "
                    f"params {dict(params or {})}; the factorisation needs distinct poles")
    if not (all(any(same_pole(p, r) for r in found) for p in omega_poles)
            and all(any(same_pole(r, p) for p in omega_poles) for r in found)):
        raise InvariantViolation(f"model {model_id} declares omega poles {tuple(omega_poles)}, "
                                 f"but the poles of M are {tuple(found)}")
    if default_branches is None:
        default_branches = (BRANCH_MINUS,) * len(omega_poles)
    m = RationalMatrixOmega(n, entries, eta, dict(params or {}),
                            model_id, tuple(omega_poles), tuple(default_branches))
    return _validate_matrix(m)


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------


def _check_finite(m, a):
    """ParameterViolation unless both model parameters are finite."""
    for name, x in (("m", m), ("a", a)):
        if not math.isfinite(x):
            raise ParameterViolation(f"model parameter {name} must be finite, got {name}={x}")


def model_kerr(m: float, a: float) -> RationalMatrixOmega:
    """Non-extremal Kerr 2x2 matrix; requires m > a >= 0, c = sqrt(m^2 - a^2)."""
    _check_finite(m, a)
    if not (m > a >= 0.0):
        raise ExtremalOrOverRotating(f"need m > a >= 0, got m={m}, a={a}")
    c2 = m * m - a * a
    den = [-c2, 0.0, 1.0]                       # omega^2 - c^2
    p11 = [m * m + a * a, -2.0 * m, 1.0]        # (omega - m)^2 + a^2
    p22 = [m * m + a * a, 2.0 * m, 1.0]         # (omega + m)^2 + a^2
    p12 = [2.0 * a * m]
    c = math.sqrt(c2)
    return make_model(
        [[(p11, den), (p12, den)], [(p12, den), (p22, den)]],
        eta=(1.0, 1.0),
        params={"m": m, "a": a, "c": c},
        model_id="kerr",
        omega_poles=(complex(c), complex(-c)),
        default_branches=(BRANCH_MINUS, BRANCH_MINUS),
    )


def model_identity(n: int = 2) -> RationalMatrixOmega:
    entries = [[([1.0] if i == j else [0.0], [1.0]) for j in range(n)] for i in range(n)]
    return make_model(entries, eta=(1.0,) * n, model_id="identity",
                      omega_poles=(), default_branches=())


def model_mp5d(m: float, a: float) -> RationalMatrixOmega:
    """Myers-Perry 3x3 matrix (single angular momentum), 4 alpha = 2m - a^2 > 0.

    The chosen contour puts the minus-branch points for omega0 in
    {-alpha, alpha} inside; the failure curve is the ergosurface.  The
    (3, 3) entry [(omega - alpha)^2 (omega + alpha) + a^2 m^2 / 2] /
    [(omega^2 - alpha^2)(omega - alpha + m)] has its numerator vanish at
    omega = alpha - m for every (m, a), since 4 alpha = 2m - a^2, so it is
    written reduced and alpha - m is no pole of M.  At a = 0 this is the 5D
    Schwarzschild-Tangherlini matrix.
    """
    _check_finite(m, a)
    if not 2.0 * m - a * a > 0.0:
        raise ParameterViolation(f"need 2m - a^2 > 0, got m={m}, a={a}")
    al = (2.0 * m - a * a) / 4.0
    d2 = poly_trim([-al * al, 0.0, 1.0])                    # (omega+al)(omega-al)
    e11 = ([(m - al) / 2.0, 0.5], d2)                       # (omega - al + m)/(2 (omega^2-al^2))
    e13 = ([a * m / 2.0], d2)
    e22 = ([2.0 * al, 2.0], [1.0])                          # 2 (omega + alpha)
    e33 = ([m * m - al * m - al * al, -m, 1.0], d2)         # the reduced (3, 3) entry
    z = ([0.0], [1.0])
    return make_model(
        [[e11, z, e13], [z, e22, z], [e13, z, e33]],
        eta=(1.0, -1.0, 1.0),
        params={"m": m, "a": a, "alpha": al, "L": a * a / m},
        model_id="mp5d",
        omega_poles=(complex(-al), complex(al)),
        default_branches=(BRANCH_MINUS, BRANCH_MINUS),
    )


def model_mvc5d(m: float, a: float) -> RationalMatrixOmega:
    """Second 3x3 Myers-Perry matrix (one angular momentum, a = l1 case).

    Uses the plus-branch contour for omega0 in {-alpha, alpha}; the failure
    curve differs from the ergosurface.
    """
    _check_finite(m, a)
    if not 2.0 * m - a * a > 0.0:
        raise ParameterViolation(f"need 2m - a^2 > 0, got m={m}, a={a}")
    al = (2.0 * m - a * a) / 4.0
    dp = [al, 1.0]        # omega + alpha
    dm = [-al, 1.0]       # omega - alpha
    d2 = poly_mul(dp, dm)
    e11 = ([-2.0], dp)
    e12 = ([al - m / 2.0, 1.0], dp)            # 1 - m/(2(omega+alpha))
    e21 = ([-al + m / 2.0, -1.0], dp)
    # -a^2 m/(4(omega-alpha)) + m^2/(8(omega+alpha)): the sum of the two
    # trimmed numerators as numpy's polyadd forms it (x - (-y) is x + y)
    num22 = poly_sub(poly_mul([-a * a * m / 4.0], dp), -poly_mul([m * m / 8.0], dm))
    e22 = (num22, d2)
    e23 = ([a * m / 2.0], dm)
    e32 = ([-a * m / 2.0], dm)
    e33 = ([-al + m, 1.0], dm)                 # 1 + m/(omega-alpha)
    z = ([0.0], [1.0])
    return make_model(
        [[e11, e12, z], [e21, e22, e23], [z, e32, e33]],
        eta=(1.0, -1.0, 1.0),
        params={"m": m, "a": a, "alpha": al},
        model_id="mvc5d",
        omega_poles=(complex(-al), complex(al)),
        default_branches=(BRANCH_PLUS, BRANCH_PLUS),
    )


MODEL_BUILDERS = {
    "kerr": model_kerr,
    "mp5d": model_mp5d,
    "mvc5d": model_mvc5d,
}


# ---------------------------------------------------------------------------
# JSON model ingestion
# ---------------------------------------------------------------------------

_TOP_KEYS = {"n", "eta", "entries", "params"}
_ENTRY_KEYS = {"num", "den"}


def _is_number(x) -> bool:
    """x is a JSON number a float holds: an int or a float, not a bool, and
    no integer beyond the double range."""
    return isinstance(x, float) or (isinstance(x, int) and not isinstance(x, bool)
                                    and abs(x) <= sys.float_info.max)


def _coeffs_from_json(raw, where):
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}: coefficient list required")
    out = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2 and all(map(_is_number, item))):
            raise SchemaError(f"{where}: coefficients are [re, im] pairs of double-range numbers")
        c = complex(*item)
        if not cmath.isfinite(c):
            raise SchemaError(f"{where}: coefficients must be finite, got {item}")
        out.append(c)
    return np.array(out)


def model_from_dict(doc: dict, model_id="json") -> RationalMatrixOmega:
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown keys in model document: {sorted(unknown)}")
    for key in ("n", "eta", "entries"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    n = doc["n"]
    if not (isinstance(n, int) and n in (2, 3)):
        raise SchemaError(f"n must be 2 or 3, got {n!r}")
    eta = doc["eta"]
    if not (isinstance(eta, list) and len(eta) == n
            and all(_is_number(e) and e in (1, -1) for e in eta)):
        raise SchemaError("eta must be a list of +-1 of length n")
    rows = doc["entries"]
    if not (isinstance(rows, list) and len(rows) == n):
        raise SchemaError("entries must be an n x n array of {num, den} objects")
    entries = []
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == n):
            raise SchemaError(f"entries row {i} must have {n} columns")
        out_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, dict):
                raise SchemaError(f"entry ({i},{j}) must be an object")
            unknown = set(cell) - _ENTRY_KEYS
            if unknown:
                raise SchemaError(f"entry ({i},{j}): unknown keys {sorted(unknown)}")
            out_row.append((_coeffs_from_json(cell.get("num"), f"entry ({i},{j}).num"),
                            _coeffs_from_json(cell.get("den"), f"entry ({i},{j}).den")))
        entries.append(tuple(out_row))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("params must be an object")
    for key, value in params.items():
        if not (_is_number(value) and math.isfinite(value)):
            raise SchemaError(f"params[{key!r}] must be a finite number, got {value!r}")
    return make_model(entries, eta=tuple(float(e) for e in eta),
                      params=params, model_id=model_id)


def _cancel_shared_roots(num, den, roots_of):
    """Cancel exactly-shared linear factors between num and den.

    Returns (num, den, roots): the trimmed reduced pair and den's polished
    roots (RationalEntry.den_roots), which the last pass has found, each
    pass's by roots_of (make_model's finds a denominator's roots once per
    build).  An identically zero num is 0/1: it has no poles."""
    num, den = poly_trim(num), poly_trim(den)
    # both stay trimmed: zero where the leading coefficient is, their sizes
    # giving the degrees
    if not num[-1]:
        return num, poly_trim([1.0]), ()
    while den.size > 1:
        roots = roots_of(den)
        top = np.abs(num).max()
        deg = num.size - 1
        r = next((r for r in roots
                  if abs(poly_eval(num, r)) <= 1e-12 * (top * max(1.0, abs(r)) ** deg)), None)
        if r is None:
            return num, den, roots
        num, den = (poly_trim(poly_deflate(p, r)) for p in (num, den))
    return num, den, ()


def model_to_dict(model: RationalMatrixOmega) -> dict:
    def enc(p):
        return [[float(c.real), float(c.imag)] for c in as_poly(p)]

    return {
        "n": model.n,
        "eta": [int(e) for e in model.eta],
        "entries": [[{"num": enc(model.entry(i, j).num), "den": enc(model.entry(i, j).den)}
                     for j in range(model.n)] for i in range(model.n)],
        "params": {k: float(v) for k, v in model.params.items()},
    }


def load_model_json(path) -> RationalMatrixOmega:
    """Load and validate a user model from a JSON file (strict schema)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(doc, model_id=str(path))
