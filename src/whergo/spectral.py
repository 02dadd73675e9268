"""Spectral relation and prolate charts.

The contour Gamma is never represented geometrically: every statement used
by the factorisation engine depends only on which member of each zero pair
{tau0, -1/tau0} is designated "inside".  A branch tuple, one tag "minus" or
"plus" per omega pole of the model, records exactly that choice; the
engine's _label_values gives both members for every tag.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfChart, ZeroTau

BRANCH_MINUS = "minus"
BRANCH_PLUS = "plus"


@dataclass(frozen=True)
class SpectralPoint:
    """Weyl coordinates (rho > 0, v)."""

    rho: float
    v: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError(f"rho must be strictly positive, got {self.rho}")


def spectral_map(pt: SpectralPoint, tau):
    """omega = v + (rho/2) * (1 - tau^2) / tau at a tau, a complex number,
    or elementwise at an array of them."""
    tau = complex(tau) if np.ndim(tau) == 0 else np.asarray(tau, dtype=complex)
    if np.any(tau == 0):
        raise ZeroTau("spectral map undefined at tau = 0")
    return pt.v + 0.5 * pt.rho * (1.0 - tau * tau) / tau


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
