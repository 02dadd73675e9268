"""Canonical Wiener-Hopf factorisation of rational monodromy matrices.

Takes a rational matrix M(omega) through the spectral relation, tests for
existence of a canonical factorisation (D(rho, v), Toeplitz kernel
dimension), constructs the factors and the solution matrix M(rho, v), and
reconstructs metric scalars and factorisation-failure curves for the
built-in black-hole models.
"""

__version__ = "0.1.0"

from . import errors
from .catalog import (
    RationalMatrixOmega,
    load_model_json,
    make_model,
    model_identity,
    model_kerr,
    model_mp5d,
    model_mvc5d,
)
from .engine import (
    FactorisationOutcome,
    Status,
    assemble_M,
    factorise,
    toeplitz_kernel_dim,
)
from .geometry import (
    CurvePolyline,
    MetricScalars4D,
    MetricScalars5D,
    ergosurface_closed_form,
    extract_4d,
    extract_5d,
    extract_metric,
    trace_curve,
)
from .spectral import SpectralPoint, spectral_map

__all__ = [
    "errors",
    "RationalMatrixOmega",
    "load_model_json",
    "make_model",
    "model_identity",
    "model_kerr",
    "model_mp5d",
    "model_mvc5d",
    "FactorisationOutcome",
    "Status",
    "assemble_M",
    "factorise",
    "toeplitz_kernel_dim",
    "CurvePolyline",
    "MetricScalars4D",
    "MetricScalars5D",
    "ergosurface_closed_form",
    "extract_4d",
    "extract_5d",
    "extract_metric",
    "trace_curve",
    "SpectralPoint",
    "spectral_map",
]
