"""Shifted Weierstrass functions on rectangular lattices: closed-form node
tables, numeric evaluation, cross-verification and figure rendering.

Importing the package is lazy. `import octell` loads only `octell._backend`,
the curve, its period lattice and its numeric kernel; each other name of
`__all__` is imported from its submodule the first time it is looked up,
through the module `__getattr__` (PEP 562), and then bound here.
`CurveParams`, `derive_params`, `POLE`, `Lattice`, `agm` and
`compute_lattice` come from `_backend` itself and load nothing more.
`from octell import X`, `from octell import *` and `octell.X` all work as
with eager imports, and `dir(octell)` lists `__all__`.
"""
from __future__ import annotations

__version__ = "0.1.0"

from ._backend import BACKEND as _BACKEND


def backend() -> str:
    """Name of the numeric kernel: 'pure', the pure-Python theta-quotient kernel."""
    return _BACKEND


# each lazily imported public name -> the submodule that defines it
_LAZY = {
    "CurveParams": "_backend",
    "derive_params": "_backend",
    "Lattice": "_backend",
    "agm": "_backend",
    "compute_lattice": "_backend",
    "POLE": "_backend",
    "is_pole": "evaluate",
    "wp": "evaluate",
    "wp_prime": "evaluate",
    "wp_with_prime": "evaluate",
    "essential_R": "evaluate",
    "log_deriv_sq": "evaluate",
    "wp_lattice_sum_oracle": "evaluate",
    "tribonacci_b": "radicals",
    "ascending_sequence": "radicals",
    "branch_radicand": "radicals",
    "RadicalCatalog": "radicals",
    "build_catalog": "radicals",
    "gamma4": "radicals",
    "ClosedFormTable": "radicals",
    "grid_table": "radicals",
    "VerificationReport": "verify",
    "PropertyResult": "verify",
    "verify_grid": "verify",
    "verify_claims": "verify",
    "half_argument_oracle": "verify",
    "sweep": "verify",
    "FigureConfig": "figure",
    "render_figure": "figure",
}

__all__ = ["__version__", *_LAZY, "backend"]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
