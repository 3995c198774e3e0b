"""The curve, its period lattice and its kernel: from beta to R.

There is one implementation, in pure Python; `BACKEND` names it in reports.
`derive_params` turns beta into the scalar constants of the curve
R'^2 = 4 R (R + beta) (R + 1/beta) (`CurveParams`), `compute_lattice` turns
those into its half-periods by the AGM (`Lattice`), and `Lattice.theta`
into the constants of the kernel. `compute_lattice` and `evaluate` look
`agm`, `wp_values` and `wp_pair` up on this module at call time, which gives
profilers one place to wrap them.

One loop, `wp_values(points, theta, prime=False)`, evaluates R. It reduces
each point into the cell, snaps a point within eps of a lattice point or
half-period by one distance test to the corner its guard box finds, sums the
theta series and restores signs; its per-lattice
constants are built once per lattice and held in `Lattice.theta`, so a call
at one point pays for that point alone. R alone serves `essential_R` (one
point), `essential_R_values` (the figure's quarter lines, and one call per
verify report for its nodes and inversion lines) and the lattice-sum
oracle's pole test. With prime it returns (R, R') pairs, R' from b d/db of
the same series terms; `wp_pair(z, theta)` is that call at one point, for
`wp_with_prime`, `wp_prime` and `log_deriv_sq`.

The kernel evaluates R = wp - e1 on the rectangular lattice (2*w1, 2i*w2i) of
R'^2 = 4 R (R + beta) (R + 1/beta) as a theta quotient (DLMF §23.6(i)):

    wp(z) - e1 = (pi/2w)^2 (theta3(0) theta4(0) theta2(v) / theta1(v))^2,
    v = pi z / (2w),  nome q = exp(-pi w2i / w1),

with the theta series of DLMF §20.2(i). The half-period w is always the
shorter one, so q <= exp(-pi) and a few terms reach full precision. q must
be a normal float, which holds for beta up to about 1.67e153; beyond that
`Lattice.theta` raises ValueError rather than lose the answer's digits.

- w1 <= w2i: the formula above, with w = w1.
- w1 > w2i: rotate the lattice by i. wp(z; L) = -wp(iz; iL), and on iL the
  real half-period w2i is the shorter one, so
  R(z) = -(wp(iz; iL) - e3') = -(pi/2w)^2 (theta2(0) theta3(0) theta4(v) /
  theta1(v))^2 with v = pi iz / (2w) and q = exp(-pi w1 / w2i).

The root gaps of this curve are e1 - e3 = beta and e1 - e2 = 1/beta, so the
theta forms of the root gaps (also DLMF §23.6(i)) give
(pi/2w)^2 theta3^2 theta4^2 = 1 in the first case and
(pi/2w)^2 theta2^2 theta3^2 = 1 in the second: the theta constants drop out.

The series are summed in b = exp(2iv) and a = q/b, formed at every point
as cmath.rect(exp(s), t) and the conjugate of cmath.rect(q/exp(s), t), for
2iv = s + it. On the quarter cell
0 <= Re z <= w1, 0 <= Im z <= w2i both have modulus at most 1, and the terms
of theta1(v) pair into (b - 1) times a Laurent polynomial in b, so R keeps
full relative precision next to the pole. Every other point is folded onto
the quarter cell, and the signs are restored by exact conjugation and
negation, which keeps Schwarz reflection and parity bit-exact. On the axes
and the cell edges, where R is real, its imaginary part is set to exactly 0.

The reduction into the cell |Re z| <= w1, |Im z| <= w2i is `math.remainder`
by each double period, which is exact: m periods out, what is left against
the true lattice is m (2 w1 - fl(2 w1)) plus the AGM's own error in w1.
remainder rounds ties to even, so a point on a cell edge reduces to x = -w1
or +w1 by the parity of its period count; the fold takes |x| and the sign
restore uses only that R is even and periodic, so both give the same R, R'.

The kernel returns the answer itself: R = POLE (and R' = POLE) at lattice
points and the exact root values R = 0, -beta, -1/beta (with R' = 0) at the
half-periods omega1, omega2, omega1 + omega2, the paper's seeds for every
eighth-lattice value.
"""
from __future__ import annotations

import math
import sys
from cmath import rect
from collections import namedtuple
from functools import cached_property
from math import cos, exp, expm1, hypot, nan, remainder, sin

BACKEND = "pure"


class _Pole:
    """Marker value for lattice points (the double pole)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "POLE"

    def __reduce__(self) -> str:
        # pickled by name, and copied as itself: there is one POLE
        return "POLE"


POLE = _Pole()


# the default beta of the CLI and the figure: the golden ratio squared
GOLDEN_BETA = (3.0 + math.sqrt(5.0)) / 2.0


def _check_beta(beta: float) -> None:
    """The curve's domain rule, for `derive_params` and every entry point
    that takes a hand-built `CurveParams` or `Lattice`."""
    if not (math.isfinite(beta) and beta > 1.0):
        raise ValueError(f"beta must be a finite number > 1 (got {beta!r})")


class CurveParams(
    namedtuple("CurveParams", "beta alpha d delta e1 e2 e3 g2 g3 discriminant_sqrt")
):
    """The scalar constants of one curve, all floats: the shift alpha that
    centres the Weierstrass cubic, the root gap d = beta - 1/beta, the circle
    ratio delta = sqrt(beta/d), the cubic roots e1 > e2 > e3 and the
    invariants g2, g3 of 4x^3 - g2 x - g3."""

    __slots__ = ()


def derive_params(beta: float) -> CurveParams:
    """Derive every scalar constant from beta.

    Raises ValueError for beta <= 1: the period lattice is only guaranteed
    rectangular, and the radical formulas only real-branched, for beta > 1.
    """
    beta = float(beta)
    _check_beta(beta)
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


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; a, b must be positive and finite."""
    a, b = float(a), float(b)
    if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"agm needs positive finite inputs, got ({a!r}, {b!r})")
    for _ in range(64):
        if abs(a - b) <= 4.0 * math.ulp(abs(a)):
            return a
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise RuntimeError("AGM did not converge within 64 iterations")


class ThetaConstants(
    namedtuple("ThetaConstants", "w1 w2i beta rotated k2 q inv_sqrt_q t n eps px py dfac")
):
    """Per-lattice constants of the kernel `wp_values`, held in `Lattice.theta`
    so that no call to the kernel rebuilds them.

    - w1, w2i: the half-periods.
    - beta: the curve parameter, for the exact values -beta and -1/beta at
      omega2 and omega1 + omega2.
    - rotated: w1 > w2i, so the kernel works on the lattice rotated by i.
    - k2: pi / w for the shorter half-period w, so that b = exp(2iv).
    - q, inv_sqrt_q: the nome and 1/sqrt(q).
    - t, n: coefficients (c0, c1, c2, c3, d1, d2, d3) of series
      c0 + c1 b + c2 b^2 + c3 b^3 + d1 a + d2 a^2 + d3 a^3. `t` is what
      theta1(v) = -i q^(1/4) b^(-1/2) (b - 1) t(b) leaves after the (b - 1)
      factor, and theta2(v) = q^(1/4) b^(-1/2) (b + 1) t(-b); `n` is
      theta4(v) = n(b), needed on the rotated lattice only.
    - eps: the snap radius, 1e-12 of the longer period, above the reduction's
      error m (2 w - fl(2 w)) plus the rounding of z up to about 2,000 periods.
    - px, py: the double periods 2 w1 and 2 w2i, by which z is reduced.
    - dfac: the factor of R', -k2 on the rotated lattice, else -2i k2.

    With |a|, |b| <= 1 the j-th terms are bounded by q^(j^2) or q^(j(j+-1)),
    so every term left out is below q^12 <= exp(-12 pi) < 4.3e-17, against
    sums of size about 1.

    t, n and inv_sqrt_q hold complex numbers x + 0j, so that every series
    term is complex x complex. CPython 3.10-3.13 turn a float operand of
    complex arithmetic into complex(x, 0.0) and then run the same product or
    sum, so R is the same bit for bit as with float coefficients, and the
    mixed float-complex dispatch is skipped at every term.

    b and a are formed with no float x complex product: b = rect(e, t) and
    a = rect(qe, t).conjugate(), for the moduli e = exp(s) and qe = q/exp(s).
    For finite r and phi != 0, cmath.rect(r, phi) on CPython 3.10-3.13 is
    exactly complex(r cos phi, r sin phi), with the libm cos and sin that
    `math` calls, and at phi = +-0 it is complex(r, r phi), which is the same
    two floats, zero sign included. conjugate() negates exactly, and
    -(qe sin t) is (-qe) sin t bit for bit, so b and a are the by-parts
    products complex(e cos t, e sin t) and complex(qe cos t, -qe sin t) on
    each of these versions, as a test pins. rect(qe, -t) is not used for a:
    it would rest on libm's sin(-t) = -sin(t) and cos(-t) = cos(t) as well.
    """

    __slots__ = ()


class Lattice(namedtuple("Lattice", "omega1 omega2_im beta")):
    """Half-periods of the curve with parameter beta, rectangular for beta > 1.

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
        """Constants of the theta-quotient kernel, computed once per lattice.

        ValueError for a half-period that is not finite and positive or a
        beta that is not finite and > 1 (a hand-built record), and past beta
        of about 1.67e153, where the nome q underflows.
        """
        w1, w2i, beta = self
        for name, w in (("omega1", w1), ("omega2_im", w2i)):
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"{name} must be positive and finite, got {w!r}")
        _check_beta(beta)
        rotated = w1 > w2i
        short, long_ = (w2i, w1) if rotated else (w1, w2i)
        q = math.exp(-math.pi * long_ / short)
        if q < sys.float_info.min:
            # a subnormal q has lost relative precision, and a zero one divides
            raise ValueError(
                f"beta = {beta!r} is out of range: the theta nome "
                f"exp(-pi*{long_ / short:.6g}) underflows (beta up to about 1.67e153)"
            )

        def tail(j, shift):
            # sum over n >= j of (-1)^n q^(n(n+1) - shift), added left to right:
            # the builtin sum() compensates float addition from Python 3.12 on,
            # which moves some coefficients, and so R, by an ulp between versions
            acc = 0.0
            for n in range(j, 6):
                acc += (-1) ** n * q ** (n * (n + 1) - shift)
            return acc

        t = [tail(j, 0) for j in range(4)] + [tail(j, j) for j in range(1, 4)]
        n = [(-1) ** j * q ** (j * j) for j in range(4)] + [
            (-1) ** j * q ** (j * (j - 1)) for j in range(1, 4)
        ]
        k2 = math.pi / short
        # complex-typed, so that each series term is complex x complex
        return ThetaConstants(
            w1, w2i, beta, rotated, k2, q, complex(1.0 / math.sqrt(q)),
            tuple(map(complex, t)), tuple(map(complex, n)),
            2e-12 * long_, 2.0 * w1, 2.0 * w2i,
            complex(-k2) if rotated else complex(0.0, -2.0 * k2),
        )


def compute_lattice(params) -> Lattice:
    """The lattice of the curve `params` (a `CurveParams`), by the classical
    AGM reduction of the complete elliptic integrals over the root gaps
    e1-e3 = beta, e1-e2 = 1/beta, e2-e3 = d. ValueError for a beta that is
    not finite and > 1 (a hand-built record)."""
    beta = params.beta
    _check_beta(beta)
    sb = math.sqrt(beta)
    w1 = math.pi / (2.0 * agm(sb, 1.0 / sb))
    w2i = math.pi / (2.0 * agm(sb, math.sqrt(params.d)))
    return Lattice(w1, w2i, beta)


def wp_values(points, theta: ThetaConstants, prime: bool = False) -> list:
    """[R(z) for z in points] with R = wp - e1 on the lattice of `theta`, in
    one loop; with prime, [(R(z), R'(z)) for z in points].

    R is POLE at lattice points, and so is R'; at the half-periods omega1,
    omega2 and omega1 + omega2 R is exactly 0, -beta and -1/beta, and R' is 0.
    z is reduced into the cell exactly, so these snaps hold far from the
    origin. Every per-lattice constant comes ready-made from `theta`, built
    once per lattice by `Lattice.theta`. R' is b d/db of the same series
    terms, and R is the same bit for bit with or without it.

    Every constant of the loop is complex-typed (see `ThetaConstants`), which
    gives the same bits as float constants. b = exp(s + it) is built from the
    folded coordinates s and t, and along a line of the figure or of a
    verify report one of them is the same at every point: exp(s), expm1(s)
    and q/exp(s) are recomputed only when s differs from the previous
    point's, and cos(t) and 2 sin^2(t/2) only when t does. Equal inputs give
    equal values, so this too keeps the bits. Every point then forms b and a
    with cmath.rect, which `ThetaConstants` shows are the by-parts products,
    and b - 1 from expm1(s) cos t - 2 sin^2(t/2) and b's imaginary part.
    """
    (w1, w2i, beta, rotated, k2, q, inv_sqrt_q, t_coeffs, n_coeffs,
     eps, px, py, dfac) = theta
    c0, c1, c2, c3, d1, d2, d3 = t_coeffs
    n0, n1, n2, n3, m1, m2, m3 = n_coeffs
    one, two, three = 1 + 0j, 2 + 0j, 3 + 0j
    # the previous point's s and t; NaN compares unequal to every s and t
    s_prev = t_prev = nan
    out = []
    for z in points:
        # reduce to the cell, exactly: z minus the nearest multiple of each
        # double period (ties to even; an edge point lands on +w or -w, and
        # R, R' agree)
        x = remainder(z.real, px)
        y = remainder(z.imag, py)
        ax, ay = abs(x), abs(y)
        gx = w1 - ax   # gap to the vertical cell edge
        gy = w2i - ay
        # R at the lattice point or half-period within eps of x + iy, exactly:
        # POLE, 0, -beta or -1/beta. A snap needs the point in the guard box,
        # since hypot(a, b) >= |a|, |b|. In the box only one of |x|, gx can
        # be <= eps, and only one of |y|, gy: both would need a half-period
        # <= 2 eps, 4e-12 of the longer one, and `Lattice.theta` keeps
        # short/long >= pi/708. So the box finds the one corner that can
        # apply, and one hypot to it decides
        if (ax <= eps or gx <= eps) and (ay <= eps or gy <= eps):
            at_w1, at_w2 = gx <= eps, gy <= eps
            if hypot(gx if at_w1 else ax, gy if at_w2 else ay) <= eps:
                v = (POLE, 0j, complex(-beta), complex(-1.0 / beta))[at_w1 + 2 * at_w2]
                out.append((v, POLE if v is POLE else 0j) if prime else v)
                continue

        # b = exp(2iv) = exp(s + it) at the folded point |x| + i|y|; a = q/b.
        # s and t are +-k2 |x| or +-k2 |y| with one sign per lattice, so a
        # zero s or t always has the same sign, and s == s_prev (t == t_prev)
        # only for the same float: reusing the values below keeps the bits
        if rotated:
            s, t = -k2 * ax, -k2 * ay
        else:
            s, t = -k2 * ay, k2 * ax
        if s != s_prev:
            s_prev = s
            e = exp(s)
            em1 = expm1(s)
            qe = q / e
        if t != t_prev:
            t_prev = t
            c = cos(t)
            h = sin(0.5 * t)
            h2 = 2.0 * h * h
        # (e cos t, e sin t) and (qe cos t, -qe sin t) exactly (see
        # `ThetaConstants`); b - 1 takes b's imaginary part
        b = rect(e, t)
        a = rect(qe, t).conjugate()
        bm1 = complex(em1 * c - h2, b.imag)
        b2 = b * b
        a2 = a * a
        b3 = b2 * b
        a3 = a2 * a
        # the terms of t(b), and its even and odd parts
        t1 = c1 * b
        s1 = d1 * a
        t2 = c2 * b2
        s2 = d2 * a2
        t3 = c3 * b3
        s3 = d3 * a3
        even = c0 + t2 + s2
        odd = t1 + s1 + t3 + s3
        tp = even + odd
        den = bm1 * tp                                  # theta1 without its prefactor
        if rotated:
            # R = b theta4^2 / (sqrt(q) den^2), theta4(v) = n(b)
            nb1 = n1 * b
            na1 = m1 * a
            nb2 = n2 * b2
            na2 = m2 * a2
            nb3 = n3 * b3
            na3 = m3 * a3
            u = (n0 + nb2 + na2 + (nb1 + na1 + nb3 + na3)) / den
            g = inv_sqrt_q * b * u
            r = g * u
        else:
            # R = -(num / den)^2 with num = (b + 1) t(-b), theta2 without its prefactor
            tm = even - odd
            bp1 = b + one
            u = bp1 * tm / den
            r = -u * u
        if (x < 0.0) != (y < 0.0):
            r = r.conjugate()
        # R is real on the axes and the cell edges; zeroed after the sign
        # restore, so that a zero part is +0.0
        if x == 0.0 or y == 0.0 or gx == 0.0 or gy == 0.0:
            r = complex(r.real, 0.0)
        if prime:
            # R' = i k2 b dR/db (-k2 b dR/db rotated), from b d/db of the terms above
            deven = two * (t2 - s2)
            dodd = t1 - s1 + three * (t3 - s3)
            dden = b * tp + bm1 * (deven + dodd)            # b d(den)/db
            if rotated:
                dn = two * (nb2 - na2) + (nb1 - na1 + three * (nb3 - na3))   # b d(n)/db
                dr = dfac * g * (u + two * (dn - u * dden) / den)
            else:
                dr = dfac * u * (b * tm + bp1 * (deven - dodd) - u * dden) / den
            if (x < 0.0) != (y < 0.0):
                dr = dr.conjugate()
            if x < 0.0:
                dr = -dr
            if y == 0.0 or gy == 0.0:     # real axis, Im z = w2i: R' real
                dr = complex(dr.real, 0.0)
            elif x == 0.0 or gx == 0.0:   # imaginary axis, Re z = w1: R' imaginary
                dr = complex(0.0, dr.imag)
            r = r, dr
        out.append(r)
    return out


def wp_pair(z: complex, theta: ThetaConstants):
    """(R(z), R'(z)) at one point, from `wp_values`."""
    return wp_values((z,), theta, True)[0]
