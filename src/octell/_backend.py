"""Numeric kernels: AGM, R and R' evaluation, lattice sum.

There is one implementation, in pure Python; `BACKEND` names it in reports.
`evaluate` and `lattice` look `wp_values`, `wp_pair`, `agm` and `lattice_sum`
up on this module at call time, which gives profilers one place to wrap them.

R has two entries, chosen by whether the caller needs R':
- `wp_values(points, theta)` returns R alone at a list of points, in one
  loop with the lattice set-up done once. `essential_R` (one point),
  `essential_R_values` (the figure's quarter lines, verify's node columns
  and inversion lines) and the lattice-sum oracle's pole test call it.
- `wp_pair(z, theta)` returns (R, R') at one point, for `wp_with_prime`,
  `wp_prime` and `log_deriv_sq`.
Both reduce, snap and restore signs the same way, through one `_snap` rule,
and `wp_values` gives `wp_pair`'s R bit for bit.

The kernels evaluate R = wp - e1 on the rectangular lattice (2*w1, 2i*w2i) of
R'^2 = 4 R (R + beta) (R + 1/beta) as a theta quotient (DLMF §23.6(i)):

    wp(z) - e1 = (pi/2w)^2 (theta3(0) theta4(0) theta2(v) / theta1(v))^2,
    v = pi z / (2w),  nome q = exp(-pi w2i / w1),

with the theta series of DLMF §20.2(i). The half-period w is always the
shorter one, so q <= exp(-pi) and a few terms reach full precision. q must
be a normal float, which holds for beta up to about 1.67e153; beyond that
`theta_constants` raises ValueError rather than lose the answer's digits.

- w1 <= w2i: the formula above, with w = w1.
- w1 > w2i: rotate the lattice by i. wp(z; L) = -wp(iz; iL), and on iL the
  real half-period w2i is the shorter one, so
  R(z) = -(wp(iz; iL) - e3') = -(pi/2w)^2 (theta2(0) theta3(0) theta4(v) /
  theta1(v))^2 with v = pi iz / (2w) and q = exp(-pi w1 / w2i).

The root gaps of this curve are e1 - e3 = beta and e1 - e2 = 1/beta, so the
theta forms of the root gaps (also DLMF §23.6(i)) give
(pi/2w)^2 theta3^2 theta4^2 = 1 in the first case and
(pi/2w)^2 theta2^2 theta3^2 = 1 in the second: the theta constants drop out.

The series are summed in b = exp(2iv) and a = q/b. On the quarter cell
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

The kernels return the answer itself: R = POLE (and R' = POLE) at lattice
points and the exact root values R = 0, -beta, -1/beta (with R' = 0) at the
half-periods omega1, omega2, omega1 + omega2, the paper's seeds for every
eighth-lattice value.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple

BACKEND = "pure"


class _Pole:
    """Marker value for lattice points (the double pole)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "POLE"


POLE = _Pole()


def agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean of positive a, b."""
    for _ in range(64):
        if abs(a - b) <= 4.0 * math.ulp(abs(a)):
            return a
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    raise RuntimeError("AGM did not converge within 64 iterations")


class ThetaConstants(
    namedtuple("ThetaConstants", "w1 w2i beta rotated k2 q inv_sqrt_q t n")
):
    """Per-lattice constants of `wp_values` and `wp_pair`.

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

    With |a|, |b| <= 1 the j-th terms are bounded by q^(j^2) or q^(j(j+-1)),
    so every term left out is below q^12 <= exp(-12 pi) < 4.3e-17, against
    sums of size about 1.
    """

    __slots__ = ()


def theta_constants(w1: float, w2i: float, beta: float) -> ThetaConstants:
    """The constants the kernels need for the lattice (2*w1, 2i*w2i)."""
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
        # sum over n >= j of (-1)^n q^(n(n+1) - shift)
        return sum((-1) ** n * q ** (n * (n + 1) - shift) for n in range(j, 6))

    t = tuple(tail(j, 0) for j in range(4)) + tuple(tail(j, j) for j in range(1, 4))
    n = tuple((-1) ** j * q ** (j * j) for j in range(4)) + tuple(
        (-1) ** j * q ** (j * (j - 1)) for j in range(1, 4)
    )
    return ThetaConstants(
        w1, w2i, beta, rotated, math.pi / short, q, 1.0 / math.sqrt(q), t, n
    )


def _snap(x: float, y: float, gx: float, gy: float, eps: float, beta: float):
    """R at the lattice point or half-period within eps of the reduced point
    x + iy, exactly: POLE, 0, -beta or -1/beta; None when there is none.

    gx, gy are the gaps w1 - |x|, w2i - |y| to the cell edges. A snap needs
    (|x| <= eps or gx <= eps) and (|y| <= eps or gy <= eps), which the kernels
    test first: hypot(a, b) >= |a|, |b|.
    """
    if math.hypot(x, y) <= eps:
        return POLE
    if math.hypot(gx, y) <= eps:
        return 0j
    if math.hypot(x, gy) <= eps:
        return complex(-beta)
    if math.hypot(gx, gy) <= eps:
        return complex(-1.0 / beta)
    return None


def wp_pair(z: complex, theta: ThetaConstants):
    """(R(z), R'(z)) with R = wp - e1, on the lattice of `theta`.

    Both are POLE at lattice points; at the half-periods omega1, omega2 and
    omega1 + omega2 R is exactly 0, -beta and -1/beta, and R' is 0. z is
    reduced into the cell exactly, so these snaps hold far from the origin.
    """
    w1, w2i, beta, rotated, k2, q, inv_sqrt_q, t_coeffs, n_coeffs = theta
    # snap radius: 1e-12 of the longer period, above the reduction's error
    # m (2 w - fl(2 w)) plus the rounding of z itself up to about 2,000 periods
    eps = 2e-12 * (w2i if w1 <= w2i else w1)
    # reduce to the cell, exactly: z minus the nearest multiple of each double
    # period (ties to even; an edge point lands on +w or -w, and R, R' agree)
    x = math.remainder(z.real, 2.0 * w1)
    y = math.remainder(z.imag, 2.0 * w2i)
    gx = w1 - abs(x)   # gap to the vertical cell edge
    gy = w2i - abs(y)
    if (abs(x) <= eps or gx <= eps) and (abs(y) <= eps or gy <= eps):
        v = _snap(x, y, gx, gy, eps, beta)
        if v is not None:
            return v, (POLE if v is POLE else 0j)

    # b = exp(2iv) = exp(s + it) at the folded point |x| + i|y|; a = q/b
    if rotated:
        s, t = -k2 * abs(x), -k2 * abs(y)
    else:
        s, t = -k2 * abs(y), k2 * abs(x)
    e = math.exp(s)
    c = math.cos(t)
    sn = math.sin(t)
    h = math.sin(0.5 * t)
    b = complex(e * c, e * sn)
    bm1 = complex(math.expm1(s) * c - 2.0 * h * h, e * sn)
    qe = q / e
    a = complex(qe * c, -qe * sn)
    b2 = b * b
    a2 = a * a
    b3 = b2 * b
    a3 = a2 * a

    # t(b): even and odd parts, then those of b d/db
    c0, c1, c2, c3, d1, d2, d3 = t_coeffs
    t1 = c1 * b
    s1 = d1 * a
    t2 = c2 * b2
    s2 = d2 * a2
    t3 = c3 * b3
    s3 = d3 * a3
    even = c0 + t2 + s2
    odd = t1 + s1 + t3 + s3
    deven = 2.0 * (t2 - s2)
    dodd = t1 - s1 + 3.0 * (t3 - s3)
    tp = even + odd
    den = bm1 * tp                                  # theta1 without its prefactor
    dden = b * tp + bm1 * (deven + dodd)            # b d(den)/db
    if rotated:
        # R = b theta4^2 / (sqrt(q) den^2), theta4(v) = n(b)
        c0, c1, c2, c3, d1, d2, d3 = n_coeffs
        t1 = c1 * b
        s1 = d1 * a
        t2 = c2 * b2
        s2 = d2 * a2
        t3 = c3 * b3
        s3 = d3 * a3
        u = (c0 + t2 + s2 + (t1 + s1 + t3 + s3)) / den
        g = inv_sqrt_q * b * u
        r = g * u
        dn = 2.0 * (t2 - s2) + (t1 - s1 + 3.0 * (t3 - s3))   # b d(n)/db
        dr = -k2 * g * (u + 2.0 * (dn - u * dden) / den)
    else:
        # R = -(num / den)^2 with num = (b + 1) t(-b), theta2 without its prefactor
        tm = even - odd
        bp1 = b + 1.0
        u = bp1 * tm / den
        r = -u * u
        dr = complex(0.0, -2.0 * k2) * u * (b * tm + bp1 * (deven - dodd) - u * dden) / den

    if (x < 0.0) != (y < 0.0):
        r, dr = r.conjugate(), dr.conjugate()
    if x < 0.0:
        dr = -dr
    # zeroed after the sign restore, so that a zero part is +0.0
    if y == 0.0 or gy == 0.0:     # real axis, Im z = w2i: R and R' real
        r, dr = complex(r.real, 0.0), complex(dr.real, 0.0)
    elif x == 0.0 or gx == 0.0:   # imaginary axis, Re z = w1: R real, R' imaginary
        r, dr = complex(r.real, 0.0), complex(0.0, dr.imag)
    return r, dr


def wp_values(points, theta: ThetaConstants) -> list:
    """[R(z) for z in points] on the lattice of `theta`, in one loop.

    Bit for bit `wp_pair(z, theta)[0]`: the same reduction, snaps, sign
    restore and axis zeroing, and the R half of the same series in the same
    order, without R'. The lattice set-up is done once per call.
    """
    w1, w2i, beta, rotated, k2, q, inv_sqrt_q, t_coeffs, n_coeffs = theta
    c0, c1, c2, c3, d1, d2, d3 = t_coeffs
    n0, n1, n2, n3, m1, m2, m3 = n_coeffs
    eps = 2e-12 * (w2i if w1 <= w2i else w1)
    px, py = 2.0 * w1, 2.0 * w2i
    remainder, exp, expm1, cos, sin = math.remainder, math.exp, math.expm1, math.cos, math.sin
    out = []
    for z in points:
        x = remainder(z.real, px)
        y = remainder(z.imag, py)
        ax, ay = abs(x), abs(y)
        gx = w1 - ax
        gy = w2i - ay
        if (ax <= eps or gx <= eps) and (ay <= eps or gy <= eps):
            v = _snap(x, y, gx, gy, eps, beta)
            if v is not None:
                out.append(v)
                continue
        if rotated:
            s, t = -k2 * ax, -k2 * ay
        else:
            s, t = -k2 * ay, k2 * ax
        e = exp(s)
        c = cos(t)
        sn = sin(t)
        h = sin(0.5 * t)
        b = complex(e * c, e * sn)
        bm1 = complex(expm1(s) * c - 2.0 * h * h, e * sn)
        qe = q / e
        a = complex(qe * c, -qe * sn)
        b2 = b * b
        a2 = a * a
        b3 = b2 * b
        a3 = a2 * a
        even = c0 + c2 * b2 + d2 * a2
        odd = c1 * b + d1 * a + c3 * b3 + d3 * a3
        den = bm1 * (even + odd)
        if rotated:
            u = (n0 + n2 * b2 + m2 * a2 + (n1 * b + m1 * a + n3 * b3 + m3 * a3)) / den
            r = inv_sqrt_q * b * u * u
        else:
            u = (b + 1.0) * (even - odd) / den
            r = -u * u
        if (x < 0.0) != (y < 0.0):
            r = r.conjugate()
        if x == 0.0 or y == 0.0 or gx == 0.0 or gy == 0.0:
            r = complex(r.real, 0.0)
        out.append(r)
    return out


def lattice_sum(z: complex, w1: float, w2i: float, cutoff: int) -> complex:
    """Direct Eisenstein-style sum 1/z^2 + sum [1/(z-w)^2 - 1/w^2] in
    growing-shell order over w = 2*m*w1 + 2i*n*w2i, 0 < max(|m|,|n|) <= cutoff."""
    acc = 1.0 / (z * z)
    tw1 = 2.0 * w1
    tw2 = 2.0 * w2i
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
