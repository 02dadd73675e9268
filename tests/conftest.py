import dataclasses

import numpy as np
import pytest

import whergo.engine as engine
from whergo.catalog import model_kerr, model_mp5d, model_mvc5d

KERR_M, KERR_A = 2.0, 1.0


@pytest.fixture(scope="session")
def kerr():
    return model_kerr(KERR_M, KERR_A)


@pytest.fixture(scope="session")
def mp5d():
    return model_mp5d(KERR_M, KERR_A)


@pytest.fixture(scope="session")
def mvc5d():
    return model_mvc5d(KERR_M, KERR_A)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)


def compiled_labels(model, branches=None):
    """(plan, (pi_labels, lk_labels, groups)): the plan of a fresh copy of
    the model, compiled here, and the label tuples _plan_labels gave that
    compile, from which its layout's tables are built."""
    fresh = dataclasses.replace(model)              # the same entries, no plan yet
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_plan_labels",
                   lambda *args, _real=engine._plan_labels: seen.append(_real(*args)) or seen[-1])
        plan = engine._plan_for(fresh, branches)
    return plan, seen[-1]


def kerr_delta_closed_form(rho, v, m=KERR_M, a=KERR_A):
    """Boyer-Lindquist -Delta = g_tt of Kerr mapped to Weyl coordinates."""
    c = np.sqrt(m * m - a * a)
    rp = np.hypot(rho, v + c)
    rm = np.hypot(rho, v - c)
    u = 0.5 * (rp + rm)
    y = (rp - rm) / (2.0 * c)
    r = u + m
    return (r * r - 2.0 * m * r + a * a * y * y) / (r * r + a * a * y * y)


def mp5d_solution_closed_form(rho, v, m=KERR_M, a=KERR_A, sqrt=np.sqrt):
    """Closed-form solution matrix of the first 5D model; with mpmath
    numbers and sqrt=mpmath.sqrt, an object array in mpmath's precision."""
    al = (2.0 * m - a * a) / 4.0
    rp = sqrt(rho ** 2 + (v + al) ** 2)
    rm = sqrt(rho ** 2 + (v - al) ** 2)
    e2s2 = rp + v + al
    e2s3 = (rp + rm * (1 - a * a / m) - 2 * al) / (rp + rm * (1 - a * a / m) + 2 * al)
    e2s1 = 1.0 / (e2s2 * e2s3)
    chi3 = a * (rp - rm + 2 * al) / (rp + rm * (1 - a * a / m) + 2 * al)
    return np.array([
        [e2s1, 0.0, e2s1 * chi3],
        [0.0, e2s2, 0.0],
        [e2s1 * chi3, 0.0, e2s3 + e2s1 * chi3 ** 2]])


def mvc_closed_form_D(rho, v, m=KERR_M, a=KERR_A):
    """Reference closed-form determinant of the constants subsystem (mvc model)."""
    al = (2.0 * m - a * a) / 4.0
    ta = (v - al + np.sqrt((v - al) ** 2 + rho ** 2)) / rho
    tma = (v + al + np.sqrt((v + al) ** 2 + rho ** 2)) / rho
    tta, ttma = -1.0 / ta, -1.0 / tma
    return (tma / rho) * (2.0 / (tma - ttma)
                          - (a * a / m) * (ta - tta) / ((ta - ttma) * (tma - tta)))


def mvc_closed_form(rho, v, m=KERR_M, a=KERR_A):
    """Closed-form solution entries for the second 5D model; returns (M, D)."""
    al = (2.0 * m - a * a) / 4.0
    ta = (v - al + np.sqrt((v - al) ** 2 + rho ** 2)) / rho
    tma = (v + al + np.sqrt((v + al) ** 2 + rho ** 2)) / rho
    tta, ttma = -1.0 / ta, -1.0 / tma
    D = (tma / rho) * (2.0 / (tma - ttma)
                       - (a * a / m) * (ta - tta) / ((ta - ttma) * (tma - tta)))
    A11 = (4 * tma * (ta - tta) / (m * rho ** 2 * (tma - ttma) * (ta - ttma) * D)
           * (2 * m / (ta - tta) - a * a / (tma - tta)))
    A31 = (-4 * a * tma / (rho ** 2 * (tma - tta) * D)
           * (1.0 / (tma - ttma) - 1.0 / (ta - ttma)))
    A13 = A31
    A33 = (1.0 / (m * rho * D)
           * ((2 * m / (tma - ttma)) * (ta - a * a * tma / (rho * (tma - tta)))
              - (a * a * tma / ((tma - tta) * (ta - ttma))) * (ta - tta - 2 * m / rho)))
    A12 = 1 + (m / 4) * A11 - (a / 2) * A31
    A32 = a / 2 + (m / 4) * A13 - (a / 2) * A33
    M = np.array([
        [A11, A12, A13],
        [-1 - (m / 4) * A11 + (a / 2) * A31,
         m / 4 - (m / 4) * A12 + (a / 2) * A32,
         -a / 2 - (m / 4) * A13 + (a / 2) * A33],
        [A31, A32, A33]])
    return M, D


def kerr_fh(rho, v, m=KERR_M, a=KERR_A):
    """Closed-form D = f*h of the Kerr existence system."""
    c = np.sqrt(m * m - a * a)
    t1 = ((v - c) - np.sqrt((v - c) ** 2 + rho ** 2)) / rho
    t2 = ((v + c) - np.sqrt((v + c) ** 2 + rho ** 2)) / rho
    f = (a * a * m * m / 4.0) * rho * rho * (t1 - t2) ** 4
    h = (-16 * (m - v) ** 2 * t1 ** 2 * t2 ** 2
         + rho ** 2 * (1 + 4 * t1 ** 3 * t2 + 6 * t1 ** 2 * t2 ** 2
                       + 4 * t1 * t2 ** 3 + t1 ** 4 * t2 ** 4)
         - 8 * rho * (m - v) * t1 * t2 * (-t1 - t2 + t1 ** 2 * t2 + t1 * t2 ** 2))
    return f * h
