"""Evaluation of R = wp - alpha, wp and wp'.

R satisfies R'^2 = 4 R (R + beta) (R + 1/beta); its value at a lattice point
is the distinguished POLE marker rather than an error. One kernel call per
point (`_backend.wp_pair`) reduces into the fundamental cell and returns R and
R' themselves: POLE at lattice points, the exact values 0, -beta, -1/beta at
the half-periods, and otherwise the theta quotient (DLMF §23.6(i), series
from §20.2(i)); `wp` adds e1 = alpha. `POLE` is the kernel's marker,
re-exported here. `conj` and `mirror_block` are the one conjugation and the
one quarter-to-grid mirror of the closed-form table, the half-argument oracle
and the figure. `wp_lattice_sum_oracle` is the slow independent cross-check.
"""
from __future__ import annotations

import math

from . import _backend
from ._backend import POLE
from .lattice import Lattice
from .params import CurveParams

NodeValue = complex | type(POLE)


def is_pole(value: NodeValue) -> bool:
    return value is POLE


def _nv_json(v):
    """The JSON form of a node value: "pole", "inconclusive" for None, or re/im."""
    if v is None:
        return "inconclusive"
    if v is POLE:
        return "pole"
    return {"re": v.real, "im": v.imag}


def conj(v: NodeValue) -> NodeValue:
    """R(conj z) from v = R(z): the conjugate with a zero part +0.0, POLE kept."""
    return v if v is POLE else v.conjugate() + 0.0


def mirror_block(block: list, image: list, rows: int = 9, cols: int = 9) -> list:
    """The rows x cols grid from its quarter block, image its entry-wise mirror.

    R is even and R(conj z) = conj R(z): with e the entry at (i, j) and e' its
    image, (rows - 1 - i, j) and (i, cols - 1 - j) get e', and
    (rows - 1 - i, cols - 1 - j) gets e. The block holds the first
    rows - rows // 2 rows and cols - cols // 2 entries of each.
    """
    r = rows - len(block)
    c = cols - len(block[0])
    pairs = list(zip(block, image))
    return [[*b, *reversed(m[:c])] for b, m in pairs] + [
        [*m, *reversed(b[:c])] for b, m in reversed(pairs[:r])
    ]


def shift_omega1(v: NodeValue) -> NodeValue:
    """R(z + omega1) from v = R(z): 1/R(z) (DLMF §23.6(i)), POLE <-> 0 exactly.

    Maps Re z = omega1/2 onto the unit circle (inversion in |R| = 1).
    """
    if v is POLE:
        return 0j
    if v == 0:
        return POLE
    return 1.0 / v


def shift_omega2(v: NodeValue, par: CurveParams) -> NodeValue:
    """R(z + omega2) from v = R(z), POLE <-> -beta exactly.

    -beta + beta*d/(v + beta) is computed as -beta*p/(p + d), p = v + 1/beta,
    which subtracts no nearly equal numbers at large beta (beta - d = 1/beta).
    Maps Im z = omega2/2 onto the red circle |R + beta| = beta/delta.
    """
    beta = par.beta   # one field read: a render calls this for ~1,700 samples
    if v is POLE:
        return complex(-beta)
    p = v + 1.0 / beta
    den = p + par.d
    if v == -beta or den == 0:
        return POLE
    return -beta * p / den


def _check_z(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must have finite components, got {z!r}")
    return z


def _R_with_prime(z: complex, lat: Lattice):
    """(R(z), R'(z)) from one kernel call; both POLE at lattice points."""
    return _backend.wp_pair(_check_z(z), lat.theta)


def wp_with_prime(z: complex, lat: Lattice, par: CurveParams):
    """(wp(z), wp'(z)) sharing one reduction; both POLE at lattice points."""
    r, dr = _R_with_prime(z, lat)
    if r is POLE:
        return POLE, POLE
    return r + par.e1, dr


def wp(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    return wp_with_prime(z, lat, par)[0]


def wp_prime(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    return _R_with_prime(z, lat)[1]


def essential_R(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    """R(z) = wp(z) - alpha, or POLE at lattice points."""
    return _R_with_prime(z, lat)[0]


def log_deriv_sq(z: complex, lat: Lattice, par: CurveParams) -> complex:
    """(R'(z)/R(z))^2. Rejects lattice points and zeros of R."""
    r, dr = _R_with_prime(z, lat)
    if r is POLE:
        raise ValueError("z is a lattice point (pole of R)")
    if r == 0:
        raise ValueError("R(z) = 0; logarithmic derivative undefined")
    q = dr / r
    return q * q


def wp_lattice_sum_oracle(z: complex, lat: Lattice, cutoff: int) -> complex:
    """Direct lattice sum for wp(z): slow, independent of the theta path."""
    z = _check_z(z)
    cutoff = int(cutoff)
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if _backend.wp_pair(z, lat.theta)[0] is POLE:
        raise ValueError("z is (numerically) a lattice point")
    return _backend.lattice_sum(z, lat.omega1, lat.omega2_im, cutoff)
