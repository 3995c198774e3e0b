"""Evaluation of R = wp - alpha, wp and wp'.

R satisfies R'^2 = 4 R (R + beta) (R + 1/beta); its value at a lattice point
is the distinguished POLE marker rather than an error. The kernel reduces
into the fundamental cell and returns R itself: POLE at lattice points, the
exact values 0, -beta, -1/beta at the half-periods, and otherwise the theta
quotient (DLMF §23.6(i), series from §20.2(i)). `essential_R`, `wp` and the
list form `essential_R_values` need R alone and make one `_backend.wp_values`
call, for one point or a whole list; `wp_with_prime`, `wp_prime` and
`log_deriv_sq` need R' too and each call `_backend.wp_pair` once, directly:
the same loop at one point, with R' from the same series terms.
`wp` adds e1 = alpha. `POLE` is the kernel's marker, re-exported here.
`mirror_block` is the one quarter-to-grid mirror of the closed-form table
and the half-argument oracle: it conjugates each mirrored entry itself, with
`conj`, which keeps POLE and the oracle's None ("inconclusive");
`invert_omega1` and `invert_omega2` are the paper's two circle inversions,
the half-period translations composed with conjugation, over a list of values,
for the figure and the verifier's line checks. `wp_lattice_sum_oracle` is the
slow independent cross-check: it sums the lattice directly, and uses the
kernel only to reject a lattice point.
"""
from __future__ import annotations

import cmath
import operator

from . import _backend
from ._backend import POLE, CurveParams, Lattice

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
    """R(conj z) from v = R(z), with a zero part +0.0; POLE and None are kept."""
    return v if v is POLE or v is None else v.conjugate() + 0.0


def mirror_block(block, flip=conj) -> tuple:
    """The node grid, a tuple of row tuples, from its quarter block.

    R is even and R(conj z) = conj R(z): with k = len(block) - 1, e the entry
    at (i, j) and e' = flip(e), (2k - i, j) and (i, 2k - j) get e', and
    (2k - i, 2k - j) gets e.
    """
    k = len(block) - 1
    pairs = [(row, [flip(e) for e in row]) for row in block]
    return tuple(
        [(*b, *reversed(m[:k])) for b, m in pairs]
        + [(*m, *reversed(b[:k])) for b, m in reversed(pairs[:k])]
    )


def invert_omega1(values: list) -> list:
    """R(conj z + omega1) at each v = R(z): 1/conj(v) (DLMF §23.6(i)), POLE <-> 0
    exactly.

    The inversion in the unit circle |R| = 1, onto which R maps Re z = omega1/2.
    Its constants are complex-typed, as in the kernel: the same bits as float
    ones, without the mixed float-complex dispatch. conj(v) is divided with
    a zero part of either sign: CPython's quotient (1 + 0j) / c takes a zero
    part of c into the answer only through ratio + 0.0 or 0.0 - ratio, ratio
    being that zero over the other part, and both are +0.0 for either sign.
    So the bits are those of 1/(conj(v) + 0).
    """
    zero, one = 0j, 1 + 0j
    return [
        zero if v is POLE else POLE if v == zero else one / v.conjugate()
        for v in values
    ]


def invert_omega2(values: list, par: CurveParams) -> list:
    """R(conj z + omega2) at each v = R(z), POLE <-> -beta exactly.

    With c = conj(v), -beta + beta*d/(c + beta) is computed as
    -beta*p/(p + d), p = c + 1/beta, which subtracts no nearly equal numbers
    at large beta (beta - d = 1/beta). The inversion in the red circle
    |R + beta| = beta/delta, onto which R maps Im z = omega2/2. Its constants
    are complex-typed, as in `invert_omega1`. p is conj(v) + 1/beta with no
    + 0 first: adding 1/beta + 0j already turns a -0.0 part into +0.0.
    """
    zero = 0j
    nb, ib, d = complex(-par.beta), complex(1.0 / par.beta), complex(par.d)
    return [
        nb if v is POLE
        else POLE if v == nb or (den := (p := v.conjugate() + ib) + d) == zero
        else nb * p / den
        for v in values
    ]


def _check_z(z: complex) -> complex:
    if type(z) is not complex:
        z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must have finite components, got {z!r}")
    return z


def wp_with_prime(z: complex, lat: Lattice, par: CurveParams):
    """(wp(z), wp'(z)) sharing one reduction; both POLE at lattice points."""
    r, dr = _backend.wp_pair(_check_z(z), lat.theta)
    if r is POLE:
        return POLE, POLE
    return r + par.e1, dr


def wp(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    """wp(z) = R(z) + e1 from the R-only kernel, or POLE at lattice points."""
    r = essential_R(z, lat, par)
    return r if r is POLE else r + par.e1


def wp_prime(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    return _backend.wp_pair(_check_z(z), lat.theta)[1]


def essential_R(z: complex, lat: Lattice, par: CurveParams) -> NodeValue:
    """R(z) = wp(z) - alpha, or POLE at lattice points."""
    return _backend.wp_values((_check_z(z),), lat.theta)[0]


def essential_R_values(points, lat: Lattice) -> list:
    """R at each of points, as `essential_R` gives it, from one kernel call."""
    points = list(points)
    # only exact complex points skip the conversion, as in `_check_z`
    if not set(map(type, points)) <= {complex}:
        points = list(map(complex, points))
    # a non-finite point makes the sum non-finite; so can an overflow, and
    # then the check point by point finds nothing
    total = sum(points, 0j)
    if not cmath.isfinite(total):
        for z in points:
            _check_z(z)
    return _backend.wp_values(points, lat.theta)


def log_deriv_sq(z: complex, lat: Lattice, par: CurveParams) -> complex:
    """(R'(z)/R(z))^2. Rejects lattice points and zeros of R."""
    r, dr = _backend.wp_pair(_check_z(z), lat.theta)
    if r is POLE:
        raise ValueError("z is a lattice point (pole of R)")
    if r == 0:
        raise ValueError("R(z) = 0; logarithmic derivative undefined")
    q = dr / r
    # + 0j: on the axes q * q can have a zero part -0.0; the kernel's are +0.0
    return q * q + 0j


def wp_lattice_sum_oracle(z: complex, lat: Lattice, cutoff: int) -> complex:
    """Direct lattice sum for wp(z): slow, independent of the theta path.

    1/z^2 + sum [1/(z-w)^2 - 1/w^2] over w = 2*m*w1 + 2i*n*w2i,
    0 < max(|m|,|n|) <= cutoff, added shell by shell in growing order.
    """
    z = _check_z(z)
    cutoff = operator.index(cutoff)   # 10.9 or "12" raises TypeError, not truncated
    if cutoff < 10:
        raise ValueError(f"cutoff must be >= 10, got {cutoff}")
    if _backend.wp_values((z,), lat.theta)[0] is POLE:
        raise ValueError("z is (numerically) a lattice point")
    acc = 1.0 / (z * z)
    tw1 = 2.0 * lat.omega1
    tw2 = 2.0 * lat.omega2_im
    for s in range(1, cutoff + 1):
        ring = 0j
        for m in range(-s, s + 1):
            wr = tw1 * m
            for n in (s, -s):
                w = complex(wr, tw2 * n)
                dz = z - w
                ring += 1.0 / (dz * dz) - 1.0 / (w * w)
        for n in range(-(s - 1), s):
            wi = tw2 * n
            for m in (s, -s):
                w = complex(tw1 * m, wi)
                dz = z - w
                ring += 1.0 / (dz * dz) - 1.0 / (w * w)
        acc += ring
    return acc
