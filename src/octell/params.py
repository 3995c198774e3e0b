"""Scalar constants attached to the curve R'^2 = 4 R (R + beta) (R + 1/beta).

Everything downstream is a function of the single real parameter beta > 1:
the additive shift alpha that centres the Weierstrass cubic, the root gap
d = beta - 1/beta, the circle ratio delta = sqrt(beta/d), the cubic roots
e1 > e2 > e3 and the invariants g2, g3 of 4x^3 - g2 x - g3.
"""
from __future__ import annotations

import math
from collections import namedtuple

# gamma4 formulas contain 1/sqrt(beta-1); below this floor they still compute
# but lose digits, so catalog construction warns (construction never rejects
# any beta > 1).
BETA_FLOOR = 1.0 + 1e-6

# the default beta of the CLI and the figure: the golden ratio squared
GOLDEN_BETA = (3.0 + math.sqrt(5.0)) / 2.0


class CurveParams(
    namedtuple("CurveParams", "beta alpha d delta e1 e2 e3 g2 g3 discriminant_sqrt")
):
    """The scalar constants of one curve, all floats."""

    __slots__ = ()


def derive_params(beta: float) -> CurveParams:
    """Derive every scalar constant from beta.

    Raises ValueError for beta <= 1: the period lattice is only guaranteed
    rectangular, and the radical formulas only real-branched, for beta > 1.
    """
    beta = float(beta)
    if not math.isfinite(beta) or not beta > 1.0:
        raise ValueError(f"beta must be a finite number > 1 (got {beta!r})")
    inv = 1.0 / beta
    alpha = (beta + inv) / 3.0
    # (beta - 1)(1 + 1/beta) rather than beta - 1/beta: beta - 1 is exact
    # near 1, where the difference would cancel most of d's digits
    d = (beta - 1.0) * (1.0 + inv)
    delta = (beta / d) ** 0.5
    e1 = alpha
    e2 = alpha - inv
    e3 = alpha - beta
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    # discriminant of the monic cubic x(x+beta)(x+1/beta) is d^2
    return CurveParams(beta, alpha, d, delta, e1, e2, e3, g2, g3, d)
