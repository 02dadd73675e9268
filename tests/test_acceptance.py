"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import time

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import KERR_A, KERR_M, kerr_fh, mp5d_solution_closed_form, mvc_closed_form
from tau_route import (
    Classification,
    DegreeTable,
    classify_2x2,
    compose_monodromy,
    existence_system_2x2,
)
from whergo.engine import (
    Status,
    evaluate_points,
    factorise,
    toeplitz_kernel_dim,
)
from whergo.geometry import (
    closed_form_curve_weyl,
    curve_match_distance,
    extract_4d,
    extract_5d,
    spherical_from_prolate_5d,
    trace_curve,
)
from whergo.spectral import SpectralPoint, weyl_from_prolate_4d, weyl_from_prolate_5d

M_P, A_P = 2.0, 1.0          # reference parameters used throughout
C_P = np.sqrt(M_P ** 2 - A_P ** 2)
AL_P = (2.0 * M_P - A_P ** 2) / 4.0
PARAMS = {"m": M_P, "a": A_P}


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def off_curve_point(model_id, rng, margin=0.08):
    """Random exterior point strictly off the failure curve of the model."""
    y = rng.uniform(-0.9, 0.9)
    if model_id == "kerr":
        u_c = np.sqrt(M_P ** 2 - A_P ** 2 * y * y)
        u = u_c + rng.uniform(margin, 2.0)
        return weyl_from_prolate_4d(u, y, C_P)
    if model_id == "mp5d":
        L = A_P ** 2 / M_P
        u_c = (2.0 - L * y) / (2.0 - L)
        u = u_c + rng.uniform(margin, 2.0)
        return weyl_from_prolate_5d(u, y, AL_P)
    u_c = np.sqrt(y * y + (M_P / (2 * AL_P)) * (1 - y * y))
    u = u_c + rng.uniform(margin, 2.0)
    return weyl_from_prolate_5d(u, y, AL_P)


def test_criterion_1_kerr_existence_oracle(kerr):
    t0 = time.time()
    rho = np.linspace(0.02, 4.0, 200)
    v = np.linspace(-4.0, 4.0, 200)
    R, V = np.meshgrid(rho, v, indexing="ij")
    _ = evaluate_points(kerr, R, V)                 # the 200x200 sweep
    box = (0.02, 4.0, -4.0, 4.0)
    poly = trace_curve(kerr, box=box, grid=(200, 200), step=0.01)
    elapsed = time.time() - t0
    ys = np.linspace(-0.99, 0.99, 1500)
    oracle = closed_form_curve_weyl("kerr", PARAMS, ys)
    dist = curve_match_distance(poly.samples, oracle, box, margin=0.05)
    ok = dist <= 1e-4 and elapsed <= 30.0
    report(1, ok, f"Kerr D=0 locus vs u(y)=sqrt(m^2-a^2 y^2): Hausdorff "
                  f"{dist:.2e} (<= 1e-4), sweep+trace {elapsed:.1f}s (<= 30s)")


def test_criterion_2_kerr_determinant_identity(kerr, rng):
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(0.25, 4.0)
        v = rng.uniform(-3.0, 3.0)
        mono = compose_monodromy(kerr, SpectralPoint(r, v), check=False)
        d_val = np.linalg.det(existence_system_2x2(mono, kerr.default_branches))
        fh = kerr_fh(r, v)
        worst = max(worst, abs(d_val - fh) / abs(fh))
    report(2, worst <= 1e-8,
           f"|det(system) - f*h| <= 1e-8 relative at 100 points (worst {worst:.2e}; "
           f"no ordering sign flip needed)")


def test_criterion_3_factorisation_residuals(kerr, mp5d, mvc5d, rng):
    worst_fac, worst_x0 = 0.0, 0.0
    for model, mid in ((kerr, "kerr"), (mp5d, "mp5d"), (mvc5d, "mvc5d")):
        count = 0
        while count < 25:
            rho, v = off_curve_point(mid, rng)
            out = factorise(model, rho, v)
            if out.status is not Status.CANONICAL:
                continue
            count += 1
            worst_fac = max(worst_fac, out.residual_report.factorisation)
            worst_x0 = max(worst_x0, out.residual_report.x_at_zero)
    ok = worst_fac <= 1e-9 and worst_x0 <= 1e-10
    report(3, ok, f"75 off-curve factorisations: max |M - M_ X|/|M| = {worst_fac:.2e} "
                  f"(<= 1e-9), max |X(0)-I| = {worst_x0:.2e} (<= 1e-10)")


def test_criterion_4_mp5d_closed_form_and_curve(mp5d, rng):
    worst = 0.0
    for _ in range(10):
        rho, v = off_curve_point("mp5d", rng)
        out = factorise(mp5d, rho, v)
        expect = mp5d_solution_closed_form(rho, v)
        worst = max(worst, float(np.max(np.abs(out.M_limit - expect))
                                 / np.max(np.abs(expect))))
    box = (0.02, 1.1, -1.4, 0.9)
    poly = trace_curve(mp5d, box=box, grid=(36, 36), step=0.015, residual_tol=1e-11)
    ys = np.linspace(-0.99, 0.99, 900)
    oracle = closed_form_curve_weyl("mp5d", PARAMS, ys)
    dist = curve_match_distance(poly.samples, oracle, box, margin=0.05)
    # g_tt on the traced locus, via the closed form already matched above.
    # M diverges on the locus, so m22 - m02^2/m00 cancels ever more digits
    # the closer a sample lies: it is taken in mpmath at 40 digits.
    gtt_max = 0.0
    with mp.workdps(40):
        for rho, v in poly.samples[:: max(1, len(poly) // 40)]:
            m_closed = mp5d_solution_closed_form(mpf(rho), mpf(v), mpf(KERR_M), mpf(KERR_A),
                                                 sqrt=mp.sqrt)
            e2s3 = m_closed[2, 2] - m_closed[0, 2] ** 2 / m_closed[0, 0]
            gtt_max = max(gtt_max, float(abs(-e2s3)))
    ok = worst <= 1e-8 and dist <= 1e-4 and gtt_max <= 1e-6
    report(4, ok, f"MP: M_limit vs closed form {worst:.2e} (<= 1e-8); locus vs "
                  f"ergosurface line {dist:.2e} (<= 1e-4); |g_tt| on locus {gtt_max:.2e} (<= 1e-6)")


def test_criterion_5_mvc5d_reference_match(mvc5d, rng):
    worst_m, worst_g = 0.0, 0.0
    for _ in range(10):
        rho, v = off_curve_point("mvc5d", rng)
        out = factorise(mvc5d, rho, v)
        expect, _ = mvc_closed_form(rho, v)
        worst_m = max(worst_m, float(np.max(np.abs(out.M_limit - expect))
                                     / np.max(np.abs(expect))))
        s = extract_5d(out.M_limit)
        from whergo.spectral import prolate_from_weyl_5d
        u, y = prolate_from_weyl_5d(rho, v, AL_P)
        r_sph, th = spherical_from_prolate_5d(u, y, AL_P)
        gtt_oracle = -(1.0 - 2.0 * M_P / (r_sph ** 2 + A_P ** 2 * np.cos(th) ** 2))
        worst_g = max(worst_g, abs(s.g_tt - gtt_oracle) / max(abs(gtt_oracle), 1e-3))
    box = (0.02, 0.9, -0.9, 0.9)
    poly = trace_curve(mvc5d, box=box, grid=(36, 36), step=0.015, residual_tol=1e-11)
    ys = np.linspace(-0.99, 0.99, 900)
    oracle = closed_form_curve_weyl("mvc5d", PARAMS, ys)
    dist = curve_match_distance(poly.samples, oracle, box, margin=0.05)
    # on the locus: g_tt bounded away from zero, M11 blows up at distance
    # 1e-4.  The probe set stays at y <= 0.6: towards the axis endpoint
    # y -> 1 the failure curve tangentially meets the ergosurface, where
    # g_tt legitimately crosses zero.
    from whergo.spectral import prolate_from_weyl_5d
    gtt_min = np.inf
    m11_min = np.inf
    interior = [i for i in range(len(poly))
                if -0.9 <= prolate_from_weyl_5d(*poly.samples[i], AL_P)[1] <= 0.6]
    idxs = [interior[k] for k in
            np.linspace(0, len(interior) - 1, 12).astype(int)]
    for i in idxs:
        rho, v = poly.samples[i]
        u, y = prolate_from_weyl_5d(rho, v, AL_P)
        r_sph, th = spherical_from_prolate_5d(u, y, AL_P)
        gtt_min = min(gtt_min, abs(1.0 - 2.0 * M_P / (r_sph ** 2 + A_P ** 2 * np.cos(th) ** 2)))
        d = poly.samples[min(i + 1, len(poly) - 1)] - poly.samples[max(i - 1, 0)]
        n_hat = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        for sgn in (1.0, -1.0):
            q = poly.samples[i] + sgn * 1e-4 * n_hat
            if q[0] <= 0:
                continue
            out = factorise(mvc5d, q[0], q[1])
            if out.status is Status.CANONICAL:
                m11_min = min(m11_min, abs(out.M_limit[0, 0]))
                break
    ok = (worst_m <= 1e-8 and worst_g <= 1e-8 and dist <= 1e-4
          and gtt_min >= 0.01 and m11_min >= 1e4)
    report(5, ok, f"mvc: M vs A_ij {worst_m:.2e} (<= 1e-8); g_tt vs closed form "
                  f"{worst_g:.2e} (<= 1e-8); locus {dist:.2e} (<= 1e-4); on-locus "
                  f"|g_tt| >= {gtt_min:.3f} (>= 0.01); M11(1e-4) >= {m11_min:.2e} (>= 1e4)")


def test_criterion_6_gtt_linear_vanishing(kerr):
    ok = True
    details = []
    for y in (-0.7, -0.3, 0.0, 0.4, 0.8):
        u0 = np.sqrt(M_P ** 2 - A_P ** 2 * y * y)
        gs, deltas_inv = [], []
        for d in (1e-2, 1e-3, 1e-4):
            rho, v = weyl_from_prolate_4d(u0 + d, y, C_P)
            out = factorise(kerr, rho, v)
            s = extract_4d(out.M_limit)
            gs.append(abs(s.g_tt))
            deltas_inv.append(1.0 / s.Delta)
        r1, r2 = gs[0] / gs[1], gs[1] / gs[2]
        mono_dec = gs[0] > gs[1] > gs[2]
        mono_inc = deltas_inv[0] < deltas_inv[1] < deltas_inv[2]
        ok = ok and mono_dec and mono_inc and 5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0
        details.append(f"y={y:+.1f}: ratios {r1:.1f},{r2:.1f}")
    report(6, ok, "g_tt vanishes linearly along 5 normal rays, 1/Delta grows "
                  "(" + "; ".join(details) + ")")


def test_criterion_7_kernel_classification(kerr, mvc5d, rng):
    ok = True
    for _ in range(20):                       # off-curve: kernel 0
        rho, v = off_curve_point("kerr", rng)
        ok = ok and toeplitz_kernel_dim(kerr, rho, v, kerr.default_branches) == 0
        rho, v = off_curve_point("mvc5d", rng)
        ok = ok and toeplitz_kernel_dim(mvc5d, rho, v, mvc5d.default_branches) == 0
    for k in range(20):                       # on-curve: kernel 1
        y = -0.85 + 1.7 * k / 19.0
        u = np.sqrt(M_P ** 2 - A_P ** 2 * y * y)
        rho, v = weyl_from_prolate_4d(u, y, C_P)
        ok = ok and toeplitz_kernel_dim(kerr, rho, v, kerr.default_branches) == 1
        u = np.sqrt(y * y + (M_P / (2 * AL_P)) * (1 - y * y))
        rho, v = weyl_from_prolate_5d(u, y, AL_P)
        ok = ok and toeplitz_kernel_dim(mvc5d, rho, v, mvc5d.default_branches) == 1
    # the paper's always-canonical case N1 + N2 < 2n: a degree-table stub
    # classifies as such in the tau-plane oracle; no valid model reaches it
    # (det M = 1 forces N1 + N2 >= 2n), so the kernel dimension has no short
    # cut for it and is always the rank test's
    stub = DegreeTable(k11=1, k12=0, k22=1, n=2)
    ok = ok and classify_2x2(stub).kind is Classification.ALWAYS_CANONICAL
    report(7, ok, "kernel_dim 0 off-curve / 1 on-curve (20 Kerr + 20 mvc probes "
                  "each); an always-canonical degree table classifies as such in the "
                  "tau-plane oracle, and kernel_dim has no short cut for it")


def test_criterion_8_property_suites():
    from whergo.verify import run_suites

    results = run_suites()
    ok = all(r.passed for r in results)
    detail = ", ".join(f"{r.name}={r.residual:.1e}" for r in results)
    report(8, ok, f"all property suites pass at stated tolerances ({detail})")


def test_criterion_9_alternate_contour_cases(kerr):
    ys = np.linspace(-0.99, 0.99, 900)
    results = []
    cases = [
        (("plus", "plus"), "kerr"),       # case (i): both tildes inside
        (("plus", "minus"), "kerr-alt"),  # case (ii)
        (("minus", "plus"), "kerr-alt"),  # case (iii)
    ]
    ok = True
    for branches, which in cases:
        if which == "kerr":
            box = (0.02, 4.0, -4.0, 4.0)
        else:
            box = (0.05, 3.6, -2.6, 2.6)
        poly = trace_curve(kerr, branches=branches, box=box, grid=(160, 160), step=0.01)
        oracle = closed_form_curve_weyl(which, PARAMS, ys)
        dist = curve_match_distance(poly.samples, oracle, box, margin=0.06)
        results.append(f"{'/'.join(branches)}->{which}: {dist:.2e}")
        ok = ok and dist <= 1e-4
    report(9, ok, "alternate contour loci match their closed forms to 1e-4 ("
                  + "; ".join(results) + ")")
