"""Named invariant/oracle suites behind `whergo verify`."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .catalog import model_kerr, model_mp5d, model_mvc5d
from .geometry import extract_4d, extract_5d
from .spectral import SpectralPoint, spectral_map


@dataclass(frozen=True)
class SuiteResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _suite_vieta(rng) -> SuiteResult:
    """The engine's zero pairs (engine._label_values): both members of the
    pair of omega0 map to omega0, relative to max(1, |omega0|, |v|, rho),
    and their product is -1."""
    worst = 0.0
    for _ in range(50):
        pt = SpectralPoint(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        w0 = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
        plus = np.array([rng.random() >= 0.5])
        _, t_in, t_out = engine._label_values(np.array([w0]), plus, np.array([pt.rho]),
                                              np.array([pt.v]))[:, 0]
        scale = max(1.0, abs(w0), abs(pt.v), pt.rho)
        worst = max(worst, abs(t_in * t_out + 1.0),
                    *(abs(spectral_map(pt, t) - w0) / scale for t in (t_in, t_out)))
    return SuiteResult("vieta-pairs", worst, 1e-12)


def _suite_involution(rng) -> SuiteResult:
    worst = 0.0
    for _ in range(100):
        pt = SpectralPoint(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(tau) < 0.05:
            continue
        lhs = spectral_map(pt, tau)
        rhs = spectral_map(pt, -1.0 / tau)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return SuiteResult("spectral-involution", worst, 1e-11)


def _suite_models(rng) -> SuiteResult:
    worst = 0.0
    for model in (model_kerr(2.0, 1.0), model_mp5d(2.0, 1.0), model_mvc5d(2.0, 1.0)):
        eta = np.diag(np.array(model.eta))
        for _ in range(50):
            w = complex(rng.uniform(-4.0, 4.0), rng.uniform(0.3, 3.0))
            val = model.eval(w)
            scale = max(1.0, float(np.max(np.abs(val))))
            worst = max(worst, abs(np.linalg.det(val) - 1.0) / scale ** model.n)
            worst = max(worst, float(np.max(np.abs(eta @ val.T @ eta - val))) / scale)
    return SuiteResult("model-det-eta", worst, 1e-10)


def _suite_residual(rng) -> SuiteResult:
    """The residual gates of every canonical answer, each as a multiple of
    1e-9: factorisation residual <= 1e-9, |X(0) - I| <= 1e-10 and pole
    cancellation <= 1e-9."""
    worst = 0.0
    for model in (model_kerr(2.0, 1.0), model_mp5d(2.0, 1.0), model_mvc5d(2.0, 1.0)):
        for _ in range(3):
            rho = rng.uniform(1.4, 3.0)
            v = rng.uniform(-1.0, 1.0)
            out = engine.factorise(model, rho, v)
            if not out.canonical:
                continue
            r = out.residual_report
            worst = max(worst, r.factorisation, r.x_at_zero / 0.1, r.pole_cancellation)
    return SuiteResult("factorisation-residual", worst, 1e-9)


def _suite_sigma(rng) -> SuiteResult:
    worst = 0.0
    for model in (model_mp5d(2.0, 1.0), model_mvc5d(2.0, 1.0)):
        for _ in range(4):
            out = engine.factorise(model, rng.uniform(1.2, 3.0), rng.uniform(-1.0, 1.0))
            if not out.canonical:
                continue
            s = extract_5d(out.M_limit)
            worst = max(worst, abs(s.Sigma1 + s.Sigma2 + s.Sigma3))
    return SuiteResult("sigma-sum", worst, 1e-9)


def _suite_roundtrip(rng) -> SuiteResult:
    """M rebuilt from its extracted metric scalars, at canonical answers."""
    kerr, mvc5d = model_kerr(2.0, 1.0), model_mvc5d(2.0, 1.0)
    worst = 0.0
    for _ in range(4):
        for model, rho, v, extract in (
                (kerr, rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0), extract_4d),
                (mvc5d, rng.uniform(1.2, 2.5), rng.uniform(-0.8, 0.8), extract_5d)):
            out = engine.factorise(model, rho, v)
            if not out.canonical:
                continue
            M = out.M_limit.real
            worst = max(worst, float(np.max(np.abs(extract(M).rebuild_M() - M)))
                        / max(1.0, np.max(np.abs(M))))
    return SuiteResult("extraction-roundtrip", worst, 1e-10)


SUITES = {
    "vieta": _suite_vieta,
    "involution": _suite_involution,
    "models": _suite_models,
    "residual": _suite_residual,
    "sigma": _suite_sigma,
    "roundtrip": _suite_roundtrip,
}


def run_suites(names=None):
    selected = list(SUITES) if not names else [n for n in names if n in SUITES]
    if names and len(selected) != len(names):
        unknown = set(names) - set(SUITES)
        raise ValueError(f"unknown suites: {sorted(unknown)}; available {sorted(SUITES)}")
    results = []
    for name in selected:
        rng = np.random.default_rng(20260808)     # each suite from one fixed seed
        results.append(SUITES[name](rng))
    return results
