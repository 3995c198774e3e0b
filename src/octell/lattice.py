"""Period lattice of the curve, rectangular for beta > 1.

Half-periods come from the classical AGM reduction of the complete elliptic
integrals over the root gaps e1-e3 = beta, e1-e2 = 1/beta, e2-e3 = d.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from . import _backend
from ._backend import ThetaConstants, theta_constants
from .params import CurveParams


class Lattice(namedtuple("Lattice", "omega1 omega2_im beta")):
    """Half-periods of the curve with parameter beta.

    - omega1: the real half-period, > 0.
    - omega2_im: the imaginary part of the purely imaginary half-period.
    - beta: the curve parameter, > 1. It rides along so that the kernel can
      return the exact half-period values -beta and -1/beta itself.

    There is no `__slots__ = ()`: `theta` caches its value in the instance
    `__dict__`, which `__setattr__` keeps closed to every other write.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def omega2(self) -> complex:
        return complex(0.0, self.omega2_im)

    @cached_property
    def theta(self) -> ThetaConstants:
        """Constants of the theta-quotient kernel, computed once per lattice."""
        return theta_constants(self.omega1, self.omega2_im, self.beta)


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; a, b must be positive and finite."""
    a = float(a)
    b = float(b)
    if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"agm needs positive finite inputs, got ({a!r}, {b!r})")
    return _backend.agm(a, b)


def compute_lattice(params: CurveParams) -> Lattice:
    beta = params.beta
    sb = math.sqrt(beta)
    w1 = math.pi / (2.0 * agm(sb, 1.0 / sb))
    w2i = math.pi / (2.0 * agm(sb, math.sqrt(params.d)))
    return Lattice(w1, w2i, beta)
