"""Metric scalars from M(rho, v), ergosurface curves and D = 0 tracing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import RationalMatrixOmega
from .engine import _d_with_scale, evaluate_points
from .errors import NoCurveFound, NonPhysicalM, NoRealSolution, OutOfChart
from .spectral import weyl_from_prolate_4d, weyl_from_prolate_5d

REALITY_REL = 1e-9


def _coset_scalars(cls, M, n: int, formulas):
    """cls(*Sigma_i, *fields), (exps, fields) = formulas(Re M), Sigma_i =
    0.5 log exps[i], for one matrix (n, n) or a stack (..., n, n).

    Refused where M is not finite and real (real: |Im M| <= REALITY_REL *
    max(1, |M|)) or a denominator vanishes, leaving an exp or a field not
    finite: NaN in every field of a stack, NonPhysicalM for one matrix.
    Sigma_i exists only where exp(2 Sigma_i) > 0: NaN in a stack, else None.
    """
    M = np.asarray(M)
    if M.shape[-2:] != (n, n):
        raise ValueError(f"{n}x{n} matrix or a stack of them required")
    size = np.abs(M).max(axis=(-2, -1))
    ok = np.isfinite(size)
    if np.iscomplexobj(M):
        ok &= np.abs(M.imag).max(axis=(-2, -1)) <= REALITY_REL * np.maximum(1.0, size)
    with np.errstate(all="ignore"):
        exps, fields = formulas(M.real)
        sigmas = [np.where(e > 0, 0.5 * np.log(e), np.nan) for e in exps]
    ok &= np.all([np.isfinite(x) for x in (*exps, *fields)], axis=0)
    values = [np.where(ok, x, np.nan) for x in (*sigmas, *fields)]
    if np.ndim(ok):
        return cls(*values)
    if not ok:
        raise NonPhysicalM("M is not finite and real, or a denominator of its coset form "
                           f"vanishes: M = {M.tolist()}")
    return cls(*(None if np.isnan(x) else float(x) for x in values))


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
        (), (1.0 / R[..., 1, 1], R[..., 0, 1] / R[..., 1, 1], -1.0 / R[..., 1, 1])))


def _formulas_5d(M):
    e1 = M[..., 0, 0]
    chi2 = M[..., 0, 1] / e1
    chi3 = M[..., 0, 2] / e1
    e2 = M[..., 1, 1] + e1 * chi2 * chi2
    chi1 = (M[..., 1, 2] + e1 * chi2 * chi3) / e2
    e3 = M[..., 2, 2] + e2 * chi1 * chi1 - e1 * chi3 * chi3
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


def bl_from_prolate_4d(u: float, y: float, m: float) -> tuple[float, float]:
    """u = r - m, y = cos(theta)."""
    if not (-1.0 <= y <= 1.0):
        raise OutOfChart(f"y = {y} outside [-1, 1]")
    return u + m, float(np.arccos(y))


def spherical_from_prolate_5d(u: float, y: float, alpha: float) -> tuple[float, float]:
    """r^2 = 2 alpha (u + 1), 2 cos^2(theta) = y + 1."""
    if u < -1.0 or not (-1.0 <= y <= 1.0):
        raise OutOfChart(f"(u, y) = ({u}, {y}) outside chart")
    return float(np.sqrt(2.0 * alpha * (u + 1.0))), float(np.arccos(np.sqrt((y + 1.0) / 2.0)))


def kerr_gtt_bl(r: float, theta: float, m: float, a: float) -> float:
    """Kerr g_tt in Boyer-Lindquist coordinates."""
    c2 = np.cos(theta) ** 2
    return -(r * r - 2.0 * m * r + a * a * c2) / (r * r + a * a * c2)


def mp_gtt_spherical(r: float, theta: float, m: float, a: float) -> float:
    """Myers-Perry g_tt in spherical coordinates (one angular momentum)."""
    return -(1.0 - 2.0 * m / (r * r + a * a * np.cos(theta) ** 2))


# ---------------------------------------------------------------------------
# D = 0 curve tracing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePolyline:
    """Ordered samples of a factorisation-failure curve with |D| residuals."""

    samples: np.ndarray          # (N, 2) of (rho, v)
    residuals: np.ndarray        # normalised |D| at each sample
    parameterisation: str = "arclength"
    tag: str = "factorisation-failure"

    def __len__(self) -> int:
        return len(self.samples)


def _d_hat_function(model: RationalMatrixOmega, branches):
    """Normalised-D callables (Hadamard-scaled determinant of factorise's D
    rows) at one point and over a grid."""
    if branches is None:
        branches = model.default_branches

    def fgrid(R, V):
        d, scale = _d_with_scale(model, R, V, branches)
        return d / scale

    def f(rho, v):
        return complex(fgrid(rho, v))
    return f, fgrid


def _bisect_edge(f, p0, p1, f0, f1, tol: float, max_iter: int = 80):
    """Bisection along the segment p0-p1 for a sign change of Re f."""
    a, b = np.asarray(p0, dtype=float), np.asarray(p1, dtype=float)
    fa = f0
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = f(mid[0], mid[1]).real
        if abs(fm) <= tol or np.linalg.norm(b - a) < 1e-13:
            return mid, abs(fm)
        if (fa < 0) != (fm < 0):
            b = mid
        else:
            a, fa = mid, fm
    mid = 0.5 * (a + b)
    return mid, abs(f(mid[0], mid[1]).real)


def _chain_points(pts: np.ndarray) -> np.ndarray:
    """Nearest-neighbour ordering starting from the point of minimal v (then
    minimal rho); ties go to the lowest index."""
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
    return pts[order]


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


def trace_curve(model: RationalMatrixOmega, branches=None,
                box=(0.05, 4.0, -4.0, 4.0), grid=(80, 80),
                step: float = 0.01, residual_tol: float = 1e-10,
                max_points: int = 20000) -> CurvePolyline:
    """Trace the D(rho, v) = 0 locus inside a box of the Weyl half-plane.

    D is factorise's normalised D, the Hadamard-scaled determinant of the
    plan's D rows, for every n.  Grid scan for sign changes of the
    phase-normalised D, edge bisection down to |D| <= residual_tol,
    nearest-neighbour chaining, then midpoint refinement along local
    normals until samples are at most `step` apart.  Near the axis this D
    falls like rho^2 (see the Kerr identity D = f h), so a looser
    residual_tol stops bisection visibly off the curve there: on the Kerr
    box of acceptance criterion 1, 1e-8 leaves samples at rho <= 0.15 up to
    1.5e-4 off the closed form, 1e-10 up to 6.5e-6.
    """
    rmin, rmax, vmin, vmax = box
    if rmin <= 0:
        raise ValueError("box must lie in the rho > 0 half-plane")
    f_raw, fgrid = _d_hat_function(model, branches)
    rho_vals = np.linspace(rmin, rmax, grid[0])
    v_vals = np.linspace(vmin, vmax, grid[1])
    R, V = np.meshgrid(rho_vals, v_vals, indexing="ij")
    D = fgrid(R, V)
    # global phase normalisation from the largest-|D| grid point
    ref = D.flat[int(np.argmax(np.abs(D)))]
    if ref == 0:
        raise NoCurveFound("D vanishes identically on the scan grid")
    phase = ref / abs(ref)

    def f(rho, v):
        return f_raw(rho, v) * np.conj(phase)

    Dn = (D * np.conj(phase)).real
    pts = [_bisect_edge(f, (R[a], V[a]), (R[b], V[b]), Dn[a], Dn[b], residual_tol)[0]
           for a, b in (map(tuple, edge) for edge in _sign_change_edges(np.sign(Dn)))]
    if not pts:
        raise NoCurveFound(f"no D = 0 locus found in box {box}")
    ordered = _chain_points(np.array(pts))

    # refinement: insert corrected midpoints until spacing <= step
    def correct(pt_mid, direction, gap):
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            return None
        n_hat = np.array([-direction[1], direction[0]]) / nrm
        h = 0.5 * gap
        for _ in range(24):
            a = pt_mid + h * n_hat
            b = pt_mid - h * n_hat
            if a[0] <= 0 or b[0] <= 0:
                h *= 0.5
                continue
            fa, fb = f(a[0], a[1]).real, f(b[0], b[1]).real
            if (fa < 0) != (fb < 0):
                p, r = _bisect_edge(f, a, b, fa, fb, residual_tol)
                return p, r
            h *= 0.6
        return None

    out = [ordered[0]]
    res_out = [abs(f(ordered[0][0], ordered[0][1]).real)]
    for nxt in ordered[1:]:
        while np.hypot(*(nxt - out[-1])) > step and len(out) < max_points:
            cur = out[-1]
            gap = np.hypot(*(nxt - cur))
            direction = (nxt - cur) / gap
            target = cur + min(step, 0.5 * gap) * direction
            got = correct(target, direction, min(step, 0.5 * gap))
            if got is None:
                break
            p, r = got
            if np.hypot(*(p - cur)) < 1e-12:
                break
            out.append(p)
            res_out.append(r)
        out.append(nxt)
        res_out.append(abs(f(nxt[0], nxt[1]).real))
    samples = np.array(out)
    return CurvePolyline(samples, np.array(res_out))


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


def polyline_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two polylines (point-to-segment)."""
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))


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


def classify_curve(model: RationalMatrixOmega, polyline: CurvePolyline,
                   branches=None, probe_count: int = 9) -> CurvePolyline:
    """Tag the failure curve "ergosurface" when g_tt vanishes along it.

    g_tt is sampled at small normal offsets from curve points, both sides of
    every probed point in one evaluate_points batch; each point reads the
    first side whose verdict is canonical and whose M has a metric.  The tag
    stays "factorisation-failure" when g_tt is bounded away from zero (the
    two notions agree for some models/contours only).
    """
    samples = polyline.samples
    idxs = np.linspace(0, len(samples) - 1, min(probe_count, len(samples))).astype(int)
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
        batch = evaluate_points(model, rho, v, branches)
        g_tt = np.where(batch.canonical, extract_metric(batch.M_limit).g_tt, np.nan)
        owner = np.array(owner)
        for i in idxs:
            side = g_tt[(owner == i) & np.isfinite(g_tt)]
            values.extend(side[:1])
    if values and max(abs(g) for g in values) <= ERGO_GTT_TOL:
        tag = "ergosurface"
    else:
        tag = "factorisation-failure"
    return CurvePolyline(polyline.samples, polyline.residuals,
                         polyline.parameterisation, tag)
