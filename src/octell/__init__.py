"""Shifted Weierstrass functions on rectangular lattices: closed-form node
tables, numeric evaluation, cross-verification and figure rendering.
"""
from __future__ import annotations

__version__ = "0.1.0"

from ._backend import BACKEND as _BACKEND
from .evaluate import (
    POLE,
    essential_R,
    is_pole,
    log_deriv_sq,
    wp,
    wp_lattice_sum_oracle,
    wp_prime,
    wp_with_prime,
)
from .figure import FigureConfig, render_figure
from .lattice import Lattice, agm, compute_lattice
from .params import CurveParams, derive_params
from .radicals import (
    ClosedFormTable,
    RadicalCatalog,
    ascending_sequence,
    branch_radicand,
    build_catalog,
    gamma4,
    grid_table,
    tribonacci_b,
)
from .verify import (
    PropertyResult,
    VerificationReport,
    half_argument_oracle,
    sweep,
    verify_claims,
    verify_grid,
)


def backend() -> str:
    """Name of the numeric kernel: 'pure', the pure-Python theta-quotient kernel."""
    return _BACKEND


__all__ = [
    "__version__",
    "CurveParams",
    "derive_params",
    "Lattice",
    "agm",
    "compute_lattice",
    "POLE",
    "is_pole",
    "wp",
    "wp_prime",
    "wp_with_prime",
    "essential_R",
    "log_deriv_sq",
    "wp_lattice_sum_oracle",
    "tribonacci_b",
    "ascending_sequence",
    "branch_radicand",
    "RadicalCatalog",
    "build_catalog",
    "gamma4",
    "ClosedFormTable",
    "grid_table",
    "VerificationReport",
    "PropertyResult",
    "verify_grid",
    "verify_claims",
    "half_argument_oracle",
    "sweep",
    "FigureConfig",
    "render_figure",
    "backend",
]
