"""The numeric kernels, looked up here at call time by `evaluate` and `lattice`.

There is one implementation, the pure-Python `_pycore`; `BACKEND` names it in
reports. Looking the kernels up through this module gives profilers one place
to wrap them. `wp_pair` returns R and R' themselves, POLE and the exact
half-period values included, so no status code crosses this boundary.
"""
from __future__ import annotations

from ._pycore import agm, lattice_sum, wp_pair

BACKEND = "pure"
