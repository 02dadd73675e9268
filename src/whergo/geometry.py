"""Metric scalars from M(rho, v), ergosurface curves and D = 0 tracing."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .catalog import RationalMatrixOmega
from .engine import DEFAULT_TOL, _d_with_scale, evaluate_points
from .errors import NoCurveFound, NonPhysicalM, NoRealSolution, OutOfChart
from .spectral import weyl_from_prolate_4d, weyl_from_prolate_5d

REALITY_REL = 1e-9


def _coset_scalars(cls, M, n: int, formulas):
    """cls(*Sigma_i, *fields), (exps, fields) = formulas(R), Sigma_i = 0.5
    log exps[i], for one matrix (n, n) or a stack (..., n, n); R[i][j] is
    Re M_ij, stacked, or a Python float for one matrix.

    Refused where M is not finite and real (real: |Im M| <= REALITY_REL *
    max(1, |M|)) or a denominator vanishes, leaving an exp or a field not
    finite: NaN in every field of a stack, NonPhysicalM for one matrix.
    Sigma_i exists only where exp(2 Sigma_i) > 0: NaN in a stack, else None.
    """
    M = np.asarray(M)
    if M.shape[-2:] != (n, n):
        raise ValueError(f"{n}x{n} matrix or a stack of them required")
    if M.ndim == 2:
        return _one_coset(cls, M, formulas)
    size = np.abs(M).max(axis=(-2, -1))
    ok = np.isfinite(size)
    if np.iscomplexobj(M):
        ok &= np.abs(M.imag).max(axis=(-2, -1)) <= REALITY_REL * np.maximum(1.0, size)
    with np.errstate(all="ignore"):
        exps, fields = formulas(np.moveaxis(M.real, (-2, -1), (0, 1)))
        sigmas = [np.where(e > 0, 0.5 * np.log(e), np.nan) for e in exps]
    ok &= np.all([np.isfinite(x) for x in (*exps, *fields)], axis=0)
    return cls(*(np.where(ok, x, np.nan) for x in (*sigmas, *fields)))


def _one_coset(cls, M, formulas):
    """_coset_scalars of one matrix M (n, n): its formulas run on Python
    floats, the same IEEE operations as on a stack, bit for bit; a
    denominator that vanishes raises ZeroDivisionError there, where a
    stack reads a value that is not finite.  Sigma_i takes numpy's log, as
    a stack does."""
    R = M.real.tolist()
    if np.iscomplexobj(M):
        size = np.abs(M).max()
        ok = bool(np.isfinite(size)) and np.abs(M.imag).max() <= REALITY_REL * max(1.0, size)
    else:
        ok = all(math.isfinite(x) for row in R for x in row)
    try:
        exps, fields = formulas(R)
    except ZeroDivisionError:
        ok = False
    if not (ok and all(map(math.isfinite, (*exps, *fields)))):
        raise NonPhysicalM("M is not finite and real, or a denominator of its coset form "
                           f"vanishes: M = {M.tolist()}")
    return cls(*(float(0.5 * np.log(e)) if e > 0 else None for e in exps), *fields)


@dataclass(frozen=True)
class MetricScalars4D:
    """Norm factor Delta, twist potential Btilde and g_tt = -Delta: floats
    from one matrix, arrays from a stack."""

    Delta: float
    Btilde: float
    g_tt: float

    def rebuild_M(self) -> np.ndarray:
        d, b = self.Delta, self.Btilde
        return np.array([[d + b * b / d, b / d], [b / d, 1.0 / d]])


@dataclass(frozen=True)
class MetricScalars5D:
    """Sigma_i, chi_i and g_tt of the 3x3 coset form: floats from one
    matrix, Sigma_i None where exp(2 Sigma_i) <= 0; arrays from a stack,
    NaN there."""

    Sigma1: float | None
    Sigma2: float | None
    Sigma3: float | None
    chi1: float
    chi2: float
    chi3: float
    g_tt: float

    def rebuild_M(self) -> np.ndarray:
        sigmas = (self.Sigma1, self.Sigma2, self.Sigma3)
        if None in sigmas:
            raise NonPhysicalM("exp(2 Sigma_i) <= 0: no coset form to rebuild")
        e1, e2, e3 = np.exp(2.0 * np.array(sigmas))
        c1, c2, c3 = self.chi1, self.chi2, self.chi3
        return np.array([
            [e1, e1 * c2, e1 * c3],
            [-e1 * c2, -e1 * c2 * c2 + e2, -e1 * c2 * c3 + e2 * c1],
            [e1 * c3, e1 * c2 * c3 - e2 * c1, -e2 * c1 * c1 + e1 * c3 * c3 + e3],
        ])


def extract_4d(M) -> MetricScalars4D:
    """Invert the 2x2 coset form of one matrix or a stack (..., 2, 2):
    Delta = 1/M22, Btilde = M12/M22, g_tt = -Delta, also where M22 < 0
    (inside the Kerr ergoregion, where g_tt > 0)."""
    return _coset_scalars(MetricScalars4D, M, 2, lambda R: (
        (), (1.0 / R[1][1], R[0][1] / R[1][1], -1.0 / R[1][1])))


def _formulas_5d(R):
    e1 = R[0][0]
    chi2 = R[0][1] / e1
    chi3 = R[0][2] / e1
    e2 = R[1][1] + e1 * chi2 * chi2
    chi1 = (R[1][2] + e1 * chi2 * chi3) / e2
    e3 = R[2][2] + e2 * chi1 * chi1 - e1 * chi3 * chi3
    return (e1, e2, e3), (chi1, chi2, chi3, -e3 + e2 * chi1 * chi1)


def extract_5d(M) -> MetricScalars5D:
    """Invert the 3x3 coset form (eta = diag(1, -1, 1)) of one matrix or a
    stack (..., 3, 3) into Sigma_i, chi_i and g_tt = -e3 + e2 chi1^2, with
    e_i = exp(2 Sigma_i).  The formulas are rational in M, so they hold on
    both sides of a failure curve, where M11 passes through infinity."""
    return _coset_scalars(MetricScalars5D, M, 3, _formulas_5d)


def extract_metric(M):
    """extract_4d or extract_5d, by the size n of M (..., n, n)."""
    return extract_4d(M) if np.shape(M)[-1] == 2 else extract_5d(M)


# ---------------------------------------------------------------------------
# closed-form failure curves / ergosurfaces (prolate chart)
# ---------------------------------------------------------------------------


def ergosurface_closed_form(model_id: str, params: dict, y: float) -> float:
    """u(y) of the factorisation-failure curve for the built-in models.

    "kerr" covers the standard contour and its full swap (the ergosurface);
    "kerr-alt" the two mixed contour choices; "mp5d" the Myers-Perry
    ergosurface line; "mvc5d" the failure curve that is not an ergosurface.
    """
    if not abs(y) < 1.0:
        raise NoRealSolution(f"|y| = {abs(y)} must be < 1")
    if model_id == "kerr":
        m, a = params["m"], params["a"]
        val = m * m - a * a * y * y
        if val <= 0.0:
            raise NoRealSolution("m^2 - a^2 y^2 <= 0")
        return float(np.sqrt(val))
    if model_id == "kerr-alt":
        m, a = params["m"], params["a"]
        if a == 0.0:
            raise NoRealSolution("alternate contour curve undefined at a = 0")
        c2 = m * m - a * a
        val = m * m - c2 * y * y
        if val <= 0.0:
            raise NoRealSolution("m^2 - c^2 y^2 <= 0")
        return float(np.sqrt(c2 * val) / a)
    if model_id == "mp5d":
        m, a = params["m"], params["a"]
        L = a * a / m
        if L >= 2.0:
            raise NoRealSolution("L = a^2/m must lie in [0, 2)")
        return float((2.0 - L * y) / (2.0 - L))
    if model_id == "mvc5d":
        m, a = params["m"], params["a"]
        al = (2.0 * m - a * a) / 4.0
        val = y * y + (m / (2.0 * al)) * (1.0 - y * y)
        if val <= 0.0:
            raise NoRealSolution("curve argument non-positive")
        return float(np.sqrt(val))
    raise NoRealSolution(f"no closed-form curve for model {model_id!r}")


def closed_form_curve_weyl(model_id: str, params: dict, ys) -> np.ndarray:
    """Sample the closed-form curve into Weyl coordinates (rho, v)."""
    pts = []
    for y in ys:
        u = ergosurface_closed_form(model_id, params, float(y))
        if model_id in ("kerr", "kerr-alt"):
            c = np.sqrt(params["m"] ** 2 - params["a"] ** 2)
            rho, v = weyl_from_prolate_4d(u, float(y), c)
        else:
            al = (2.0 * params["m"] - params["a"] ** 2) / 4.0
            rho, v = weyl_from_prolate_5d(u, float(y), al)
        pts.append((rho, v))
    return np.array(pts)


# ---------------------------------------------------------------------------
# Boyer-Lindquist / spherical maps and g_tt oracles
# ---------------------------------------------------------------------------


def spherical_from_prolate_5d(u: float, y: float, alpha: float) -> tuple[float, float]:
    """r^2 = 2 alpha (u + 1), 2 cos^2(theta) = y + 1."""
    if u < -1.0 or not (-1.0 <= y <= 1.0):
        raise OutOfChart(f"(u, y) = ({u}, {y}) outside chart")
    return float(np.sqrt(2.0 * alpha * (u + 1.0))), float(np.arccos(np.sqrt((y + 1.0) / 2.0)))


def mp_gtt_spherical(r: float, theta: float, m: float, a: float) -> float:
    """Myers-Perry g_tt in spherical coordinates (one angular momentum)."""
    return -(1.0 - 2.0 * m / (r * r + a * a * np.cos(theta) ** 2))


# ---------------------------------------------------------------------------
# D = 0 curve tracing
# ---------------------------------------------------------------------------


# The refinement inserts no sample once the polyline holds this many.
MAX_SAMPLES = 20000


@dataclass(frozen=True)
class CurvePolyline:
    """Ordered samples of a factorisation-failure curve with |D| residuals."""

    samples: np.ndarray          # (N, 2) of (rho, v)
    residuals: np.ndarray        # normalised |D| at each sample
    tag: str = "factorisation-failure"

    def __len__(self) -> int:
        return len(self.samples)


def _d_hat_function(model: RationalMatrixOmega, branches):
    """Normalised-D callables (Hadamard-scaled determinant of factorise's D
    rows) at one point and over a grid."""

    def fgrid(R, V):
        d, scale = _d_with_scale(model, R, V, branches)
        return d / scale

    def f(rho, v):
        return complex(fgrid(rho, v))
    return f, fgrid


def _inside_point(a, b, t, ok=True):
    """The points a + t (b - a) on stacked segments a-b (K, 2), t (K,), or
    the midpoints where ok is False or a point is not strictly inside its
    segment (t not finite, not in (0, 1), or x rounding to an end)."""
    with np.errstate(all="ignore"):
        x = a + t[:, None] * (b - a)
    ok = ok & (t > 0) & (t < 1) & (x != a).any(axis=1) & (x != b).any(axis=1)
    return np.where(ok[:, None], x, 0.5 * (a + b))


def _secant_point(a, b, fa, fb):
    """The first points of a _false_position search on stacked segments a-b
    (K, 2) with end values fa and fb (K,): the secant roots, or the
    midpoints where a root is not strictly inside its segment."""
    with np.errstate(all="ignore"):
        return _inside_point(a, b, fa / (fa - fb))


def _false_position(fn, a, b, fa, fb, tol: float):
    """Roots of fn on stacked segments a-b (K, 2) across which it changes
    sign, fa = fn(a) and fb = fn(b), by Chandrupatla's safeguarded inverse
    quadratic interpolation (T. R. Chandrupatla, Advances in Engineering
    Software 28, 1997).

    fn maps points (k, 2) to real values (k,); each level evaluates the new
    points of all live segments in one call.  With a the bracket's newest
    end, b its other end and c the point dropped last (all on the segment's
    line), the new point is x = a + t (b - a), where t is the root of the
    inverse quadratic through the three, t = fa/(fb - fa) fc/(fb - fc) +
    alpha fa/(fc - fa) fb/(fc - fb) with alpha = (c - a)/(b - a); level 0,
    which has no c yet, takes the secant root.  x is the midpoint instead
    where a, b and c fail Chandrupatla's test for a function smooth enough
    to interpolate (multiple roots, steps), where t is not finite or not
    strictly inside (0, 1), or where the bracket is still wider than
    2^(2 - level/2) times the segment.  A segment retires at x once |fn(x)|
    <= tol, the bracket x was placed in is shorter than 1e-13, or x is its
    81st point.  Returns (points (K, 2), |fn| there (K,))."""
    pts, res = np.empty_like(a), np.empty(len(a))
    live = np.arange(len(a))
    width0 = np.hypot(*(b - a).T)
    c, fc = a, fa                           # the point dropped last
    for level in range(81):
        if not len(live):
            break
        ab = b - a
        width = np.hypot(*ab.T)
        if level:
            with np.errstate(all="ignore"):
                xi, phi = width / np.hypot(*(c - b).T), (fa - fb) / (fc - fb)
                alpha = ((c - a) * ab).sum(axis=1) / (ab * ab).sum(axis=1)
                t = fa / (fb - fa) * (fc / (fb - fc)) + alpha * (fa / (fc - fa)) * (fb / (fc - fb))
            x = _inside_point(a, b, t, (phi * phi < xi) & ((1 - phi) ** 2 < 1 - xi)
                              & (width <= width0 * 2.0 ** (2 - 0.5 * level)))
        else:
            x = _secant_point(a, b, fa, fb)
        fx = fn(x)
        done = (np.abs(fx) <= tol) | (width < 1e-13) | (level == 80)
        pts[live[done]], res[live[done]] = x[done], np.abs(fx[done])
        # x replaces a; b stays the other end unless the sign change lies in a-x
        same = ((fa < 0) == (fx < 0))[:, None]
        c, fc = np.where(same, a, b), np.where(same[:, 0], fa, fb)
        b, fb = np.where(same, b, a), np.where(same[:, 0], fb, fa)
        a, fa = x, fx
        keep = ~done
        live, a, b, c, fa, fb, fc = (live[keep], a[keep], b[keep], c[keep],
                                     fa[keep], fb[keep], fc[keep])
        width0 = width0[keep]
    return pts, res


def _brackets(fn, points, gap, step: float, cell: float, room: int):
    """A round's brackets across D = 0 for the gaps points[g]-points[g + 1],
    g in gap (in chain order).  Its targets are points spaced evenly along
    each gap's chord at most `step` apart, kept where they lie within one
    scan cell (or one spacing) of either end of the gap, the first `room`
    of them in chain order; only those are generated, so a tiny step costs
    at most `room` targets.  The chord's normal through each target is
    probed once, at +- half the spacing, cut so that both probes keep rho >=
    rho(target) / 2; all probes go into one call of fn.  Returns (the gap g
    of each target whose probes a and b change sign, a, b, fn(a), fn(b))."""
    room = max(room, 0)
    chord = points[gap + 1] - points[gap]
    length = np.hypot(*chord.T)
    parts = np.ceil(length / step)                  # a float, so that it cannot overflow
    spacing = length / parts                        # 0 where parts is inf
    reach = np.maximum(cell, spacing)
    # target k of a gap at k / parts of its chord, k = 1 .. parts - 1, is
    # kept where min(k, parts - k) * spacing <= reach, that is where
    # min(k, parts - k) <= ends (counted to at most room + 1)
    with np.errstate(divide="ignore"):
        ends = np.minimum(np.floor(reach / spacing), room)
    ends = ends + ((ends + 1) * spacing <= reach) - (ends * spacing > reach)
    ends[spacing == 0] = 0                          # coincident probes give no bracket
    lo = np.minimum(ends, parts - 1)                # k = 1 .. lo
    hi = np.minimum(ends, parts - 1 - lo)           # k = parts - hi .. parts - 1
    # the first room of these in chain order: segment 2g is gap g's lo, 2g + 1 its hi
    count = np.stack([lo, hi], axis=1).ravel()
    take = np.clip(room - (np.cumsum(count) - count), 0, count).astype(int)
    seg = np.repeat(np.arange(len(count)), take)
    i = np.arange(len(seg)) - (np.cumsum(take) - take)[seg]
    owner = seg // 2
    k = np.where(seg % 2, parts[owner] - hi[owner] + i, 1.0 + i)
    normal = (chord[owner] / length[owner, None])[:, ::-1] * [-1.0, 1.0]
    mid = points[gap[owner]] + (k / parts[owner])[:, None] * chord[owner]
    with np.errstate(divide="ignore"):
        h = np.minimum(0.5 * spacing[owner], 0.5 * mid[:, 0] / np.abs(normal[:, 0]))
    a, b = mid + h[:, None] * normal, mid - h[:, None] * normal
    f = fn(np.concatenate([a, b])) if len(mid) else np.empty(0)
    fa, fb = f[:len(mid)], f[len(mid):]
    change = (fa < 0) != (fb < 0)
    return gap[owner[change]], a[change], b[change], fa[change], fb[change]


def _chain_order(pts: np.ndarray) -> np.ndarray:
    """Nearest-neighbour order of the points, starting from the point of
    minimal v (then minimal rho); ties go to the lowest index."""
    pts = np.asarray(pts, dtype=float)
    start = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])
    order = [start]
    free = np.ones(len(pts), dtype=bool)
    free[start] = False
    for _ in range(len(pts) - 1):
        d = np.hypot(pts[:, 0] - pts[order[-1], 0], pts[:, 1] - pts[order[-1], 1])
        best = int(np.argmin(np.where(free, d, np.inf)))
        order.append(best)
        free[best] = False
    return np.array(order)


def _sign_change_edges(sign: np.ndarray) -> np.ndarray:
    """Grid edges ((i, j), (i', j')) across which sign changes, shape (E, 2, 2):
    row-major in (i, j), the rho-edge to (i + 1, j) before the v-edge to
    (i, j + 1)."""
    rho_edge = np.zeros(sign.shape, dtype=bool)
    v_edge = np.zeros(sign.shape, dtype=bool)
    rho_edge[:-1] = sign[:-1] * sign[1:] < 0
    v_edge[:, :-1] = sign[:, :-1] * sign[:, 1:] < 0
    i, j, kind = np.nonzero(np.stack([rho_edge, v_edge], axis=-1))
    start = np.stack([i, j], axis=-1)
    return np.stack([start, start + np.stack([1 - kind, kind], axis=-1)], axis=1)


def check_step(step: float) -> None:
    """ValueError unless step, a polyline spacing, is finite and > 0."""
    if not (step > 0.0 and np.isfinite(step)):          # NaN fails the comparison too
        raise ValueError(f"step must be a finite number > 0, got {step!r}")


def trace_curve(model: RationalMatrixOmega, branches=None,
                box=(0.05, 4.0, -4.0, 4.0), grid=(80, 80),
                step: float = 0.01, residual_tol: float = 1e-10) -> CurvePolyline:
    """Trace the D(rho, v) = 0 locus inside a box of the Weyl half-plane.

    D is factorise's normalised D, the Hadamard-scaled determinant of the
    plan's D rows, for every n, and every evaluation of it is one array call
    over all the work still open:

    - scan: Re of the phase-normalised D on the grid; the root on every grid
      edge with a sign change is found by Chandrupatla's safeguarded
      inverse quadratic interpolation (see _false_position), all edges
      together, down to |D| <= residual_tol (or a bracket shorter than
      1e-13, or 81 points);
    - speculative round: the first secant point of every edge (the first
      point the root search places, known without evaluating D) is chained
      in nearest-neighbour order, and the gaps of that provisional chain
      get their targets and probes by the rule of a round below, and the
      segments with a sign change are solved in the same root search as
      the edges, so the edge roots come out as without them;
    - chain: nearest-neighbour order of the edge roots, each keeping the
      residual its root search returned.  The speculative samples are
      inserted where this order is the provisional one, and dropped
      otherwise;
    - refine, in rounds: the first round takes every gap wider than `step`,
      each later one every gap still open.  A round gives each of its gaps
      all of its targets at once, points spaced evenly along the gap's
      chord at most `step` apart, kept where they lie within one scan cell
      (the diagonal of a grid cell) of either end of the gap; the first
      target from each end is always kept.  The normal through each
      target is probed once, at +- half the target spacing (less where a
      probe would come closer to the axis than half the target's rho), all
      probes in one call; the roots of the segments with a sign change are
      found together, and the new samples are inserted in chain order.  A
      gap that gained a sample stays open as its sub-gaps wider than
      `step`; a gap closes once it is at most `step` wide, or when none of
      its targets gives a sample.

    On a small box whose provisional chain lies close to the roots the
    speculative round mostly leaves no gap to refine: a 5 x 5 scan of a
    0.14 x 0.14 box on the mp5d or mvc5d curve (step 0.015) then takes 5
    or 6 array calls of D, where a first round placed from the roots took
    10 to 12.

    Once the polyline holds MAX_SAMPLES points no sample is inserted: the
    gaps still open stay as coarse as the rounds so far left them, and in
    the last round (the speculative one included) the targets late in
    chain order are the ones left out.

    ValueError unless the box bounds are finite with rmin < rmax, vmin <
    vmax and rmin > 0, and grid is two integers >= 2.

    residual_tol must be finite and >= 0 (0 stops on the bracket alone).
    Near the axis this D falls like rho^2 (see the Kerr identity D = f h),
    so a looser residual_tol stops the root search visibly off the curve
    there: on the Kerr box of acceptance criterion 1, 1e-8 leaves samples
    at rho <= 0.15 up to 9.2e-5 off the closed form, 1e-10 up to 4.1e-7.
    """
    rmin, rmax, vmin, vmax = box
    if not np.all(np.isfinite(box)):
        raise ValueError(f"box bounds must be finite, got {box!r}")
    if not (rmin < rmax and vmin < vmax):
        raise ValueError(f"box must have rmin < rmax and vmin < vmax, got {box!r}")
    if rmin <= 0:
        raise ValueError("box must lie in the rho > 0 half-plane")
    if len(grid) != 2 or not all(isinstance(n, Integral) and n >= 2 for n in grid):
        raise ValueError(f"grid must be two integers >= 2, got {grid!r}")
    check_step(step)
    if not 0.0 <= residual_tol < np.inf:                # NaN fails the comparison too
        raise ValueError(f"residual_tol must be a finite number >= 0, got {residual_tol!r}")
    _, fgrid = _d_hat_function(model, branches)
    rho_vals = np.linspace(rmin, rmax, grid[0])
    v_vals = np.linspace(vmin, vmax, grid[1])
    R, V = np.meshgrid(rho_vals, v_vals, indexing="ij")
    D = fgrid(R, V)
    # global phase normalisation from the largest-|D| grid point
    ref = D.flat[int(np.argmax(np.abs(D)))]
    if ref == 0:
        raise NoCurveFound("D vanishes identically on the scan grid")
    phase = ref / abs(ref)

    def fn(p):
        return (fgrid(p[:, 0], p[:, 1]) * np.conj(phase)).real

    Dn = (D * np.conj(phase)).real
    edges = _sign_change_edges(np.sign(Dn))
    if not len(edges):
        raise NoCurveFound(f"no D = 0 locus found in box {box}")
    i, j = edges[..., 0], edges[..., 1]
    scan = np.stack([R[i, j], V[i, j]], axis=-1)
    edge = (scan[:, 0], scan[:, 1], Dn[i[:, 0], j[:, 0]], Dn[i[:, 1], j[:, 1]])
    cell = np.hypot((rmax - rmin) / (grid[0] - 1), (vmax - vmin) / (grid[1] - 1))

    # the speculative round: targets placed from the chained provisional
    # points, probed once, their brackets solved with the edges
    provisional = _secant_point(*edge)
    guess = _chain_order(provisional)
    provisional = provisional[guess]
    gap = np.flatnonzero(np.hypot(*np.diff(provisional, axis=0).T) > step)
    at, *brackets = _brackets(fn, provisional, gap, step, cell, MAX_SAMPLES - len(scan))
    pts, res = _false_position(fn, *(np.concatenate(pair) for pair in zip(edge, brackets)),
                               residual_tol)
    order = _chain_order(pts[:len(scan)])
    points, residuals = pts[order], res[order]
    if np.array_equal(order, guess):
        points = np.insert(points, at + 1, pts[len(scan):], axis=0)
        residuals = np.insert(residuals, at + 1, res[len(scan):])

    # gap g runs from points[g] to points[g + 1]
    live = np.hypot(*np.diff(points, axis=0).T) > step
    while live.any() and len(points) < MAX_SAMPLES:
        at, *brackets = _brackets(fn, points, np.flatnonzero(live), step, cell,
                                  MAX_SAMPLES - len(points))
        p, r = _false_position(fn, *brackets, residual_tol)
        # a gap with a new sample stays open as its sub-gaps wider than step
        added = np.bincount(at, minlength=len(live))
        points = np.insert(points, at + 1, p, axis=0)
        residuals = np.insert(residuals, at + 1, r)
        live = (np.repeat(added > 0, added + 1)
                & (np.hypot(*np.diff(points, axis=0).T) > step))
    return CurvePolyline(points, residuals)


def _point_to_segments(x, q0, q1, seg, seg_len2):
    t = np.clip(np.sum((x - q0) * seg, axis=1) / np.maximum(seg_len2, 1e-300), 0.0, 1.0)
    proj = q0 + t[:, None] * seg
    d = np.hypot(*(x - proj).T)
    k = int(np.argmin(d))
    return float(d[k]), k, float(t[k])


def _directed_hausdorff(p, q, skip_overhang: bool = False):
    q = np.asarray(q, dtype=float)
    q0, q1 = q[:-1], q[1:]
    seg = q1 - q0
    seg_len2 = np.sum(seg * seg, axis=1)
    worst = 0.0
    for x in np.asarray(p, dtype=float):
        d, k, t = _point_to_segments(x, q0, q1, seg, seg_len2)
        if skip_overhang and ((k == 0 and t == 0.0) or (k == len(seg) - 1 and t == 1.0)):
            continue  # x projects beyond the target's parameter range
        worst = max(worst, d)
    return worst


def curve_match_distance(traced: np.ndarray, oracle: np.ndarray,
                         box=None, margin: float = 0.0) -> float:
    """Hausdorff-style distance that ignores parameter-range overhang.

    Traced points projecting beyond the oracle's endpoints are skipped (the
    tracer follows the full locus, the oracle is sampled on a finite y
    range); oracle points within `margin` of the search box boundary are
    skipped (the tracer cannot see them).
    """
    traced = np.asarray(traced, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    d1 = _directed_hausdorff(traced, oracle, skip_overhang=True)
    keep = np.ones(len(oracle), dtype=bool)
    if box is not None:
        rmin, rmax, vmin, vmax = box
        keep = ((oracle[:, 0] >= rmin + margin) & (oracle[:, 0] <= rmax - margin)
                & (oracle[:, 1] >= vmin + margin) & (oracle[:, 1] <= vmax - margin))
    d2 = _directed_hausdorff(oracle[keep], traced) if np.any(keep) else 0.0
    return max(d1, d2)


# |g_tt| bound for the "ergosurface" tag.  The probes sit 1e-4 off the
# curve, where a g_tt that vanishes linearly on it is still of order 1e-4
# times its normal gradient; a tighter bound would reject true
# ergosurfaces, while curves where g_tt stays O(1) keep the failure tag.
ERGO_GTT_TOL = 1e-3

# curve points probed for g_tt, spread evenly along the polyline
CURVE_PROBE_COUNT = 9


def classify_curve(model: RationalMatrixOmega, polyline: CurvePolyline,
                   branches=None, tol: float = DEFAULT_TOL) -> CurvePolyline:
    """Tag the failure curve "ergosurface" when g_tt vanishes along it.

    g_tt is sampled at small normal offsets from curve points, both sides of
    every probed point in one evaluate_points batch at rank tolerance tol;
    each point reads the first side whose verdict is canonical and whose M
    has a metric.  The tag stays "factorisation-failure" when g_tt is
    bounded away from zero (the two notions agree for some models/contours
    only).
    """
    samples = polyline.samples
    idxs = np.linspace(0, len(samples) - 1, min(CURVE_PROBE_COUNT, len(samples))).astype(int)
    owner, probes = [], []
    for i in idxs:
        d = samples[min(i + 1, len(samples) - 1)] - samples[max(i - 1, 0)]
        nrm = np.linalg.norm(d)
        if nrm == 0:
            continue
        n_hat = np.array([-d[1], d[0]]) / nrm
        for sgn in (1.0, -1.0):
            q = samples[i] + sgn * 1e-4 * n_hat
            if q[0] > 0:
                owner.append(i)
                probes.append(q)
    values = []
    if probes:
        rho, v = np.array(probes).T
        batch = evaluate_points(model, rho, v, branches, tol)
        g_tt = np.where(batch.canonical, extract_metric(batch.M_limit).g_tt, np.nan)
        owner = np.array(owner)
        for i in idxs:
            side = g_tt[(owner == i) & np.isfinite(g_tt)]
            values.extend(side[:1])
    if values and max(abs(g) for g in values) <= ERGO_GTT_TOL:
        tag = "ergosurface"
    else:
        tag = "factorisation-failure"
    return replace(polyline, tag=tag)
