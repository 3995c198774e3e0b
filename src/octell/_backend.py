"""The numeric kernels, looked up here at call time by `evaluate` and `lattice`.

There is one implementation, the pure-Python `_pycore`; `BACKEND` names it in
reports. Looking the kernels up through this module gives profilers one place
to wrap them.
"""
from __future__ import annotations

from ._pycore import (
    HALF_BOTH,
    HALF_IM,
    HALF_RE,
    OK,
    agm,
    lattice_sum,
    wp_pair,
)
from ._pycore import POLE as POLE_FLAG

BACKEND = "pure"
