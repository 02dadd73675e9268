"""Spectral relation, paired zeros in the tau plane and prolate charts.

The contour Gamma is never represented geometrically: every statement used
by the factorisation engine depends only on which member of each zero pair
{tau0, -1/tau0} is designated "inside".  A branch tuple, one tag "minus" or
"plus" per omega pole of the model, records exactly that choice;
zero_pair_for gives the inside member for one tag.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePair, OutOfChart, ZeroTau
from .poly import quadratic_roots

PAIR_TOL = 1e-10

BRANCH_MINUS = "minus"
BRANCH_PLUS = "plus"


@dataclass(frozen=True)
class SpectralPoint:
    """Weyl coordinates (rho > 0, v) plus the signature flag lambda."""

    rho: float
    v: float
    lam: int = 1

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be strictly positive, got {self.rho}")
        if self.lam not in (1, -1):
            raise ValueError("lambda must be +1 or -1")


def spectral_map(pt: SpectralPoint, tau) -> complex:
    """omega = v + (lam/2) * rho * (lam - tau^2) / tau."""
    tau = complex(tau)
    if tau == 0:
        raise ZeroTau("spectral map undefined at tau = 0")
    return pt.v + 0.5 * pt.lam * pt.rho * (pt.lam - tau * tau) / tau


def pair_quadratic(pt: SpectralPoint, omega0) -> np.ndarray:
    """Numerator of omega(tau) - omega0 as a quadratic in tau (ascending)."""
    return np.array([pt.rho / 2.0, pt.v - complex(omega0), -pt.rho / 2.0])


@dataclass(frozen=True)
class ZeroPair:
    """One zero pair: the inside member tau_in and tau_out = -lam/tau_in."""

    tau_in: complex
    tau_out: complex


def zero_pair_for(pt: SpectralPoint, omega0, branch: str = BRANCH_MINUS) -> ZeroPair:
    """Zero pair of the quadratic for omega0, with the chosen branch inside.

    branch "minus" designates (v - omega0 - sqrt((v-omega0)^2 + rho^2))/rho,
    matching the standard Kerr contour convention.  Rejects degenerate pairs,
    i.e. parameter points where v +- i*rho hits omega0.
    """
    if pt.lam != 1:
        raise ValueError("zero pairs are defined for lambda = +1 only")
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
# prolate spheroidal charts
# ---------------------------------------------------------------------------


def weyl_from_prolate_4d(u: float, y: float, c: float) -> tuple[float, float]:
    """v = u y, rho = sqrt((u^2 - c^2)(1 - y^2)); exterior chart u > c, |y| < 1."""
    if not (u > c and abs(y) < 1.0):
        raise OutOfChart(f"(u, y) = ({u}, {y}) outside exterior chart (c = {c})")
    return float(np.sqrt((u * u - c * c) * (1.0 - y * y))), u * y


def prolate_from_weyl_4d(rho: float, v: float, c: float) -> tuple[float, float]:
    rp = np.hypot(rho, v + c)
    rm = np.hypot(rho, v - c)
    u = 0.5 * (rp + rm)
    y = (rp - rm) / (2.0 * c)
    if not (u > c and abs(y) < 1.0):
        raise OutOfChart(f"(rho, v) = ({rho}, {v}) outside exterior chart")
    return float(u), float(y)


def weyl_from_prolate_5d(u: float, y: float, alpha: float) -> tuple[float, float]:
    """v = alpha u y, rho = alpha sqrt((u^2 - 1)(1 - y^2)); chart u > 1, |y| < 1."""
    if not (u > 1.0 and abs(y) < 1.0):
        raise OutOfChart(f"(u, y) = ({u}, {y}) outside exterior chart")
    return float(alpha * np.sqrt((u * u - 1.0) * (1.0 - y * y))), alpha * u * y


def prolate_from_weyl_5d(rho: float, v: float, alpha: float) -> tuple[float, float]:
    rp = np.hypot(rho, v + alpha)
    rm = np.hypot(rho, v - alpha)
    u = (rp + rm) / (2.0 * alpha)
    y = (rp - rm) / (2.0 * alpha)
    if not (u > 1.0 and abs(y) < 1.0):
        raise OutOfChart(f"(rho, v) = ({rho}, {v}) outside exterior chart")
    return float(u), float(y)
