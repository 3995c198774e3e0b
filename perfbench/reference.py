"""Independent high-precision reference for octell's function R = wp - e1.

On the rectangular lattice of R'^2 = 4 R (R + beta) (R + 1/beta),

    R(z) = beta * cn^2 / sn^2 (sqrt(beta) * z | m),    m = 1 - 1/beta^2,

with half-periods K(m)/sqrt(beta) (real) and K(1-m)/sqrt(beta) (imaginary).
Everything here runs in mpmath at 40 significant digits and shares no code
with octell. Only the benchmark imports mpmath; the package itself stays
stdlib-only. A value costs a few milliseconds, so callers build their
references once per run, before anything is timed.
"""
from __future__ import annotations

import mpmath

DIGITS = 40


def scaled_err(value: complex, ref: complex) -> float:
    """|value - ref| / max(1, |ref|), the error measure octell's verify uses."""
    return abs(value - ref) / max(1.0, abs(ref))


class Curve:
    """Reference values of R and R' for one beta."""

    def __init__(self, beta: float):
        with mpmath.workdps(DIGITS):
            b = mpmath.mpf(beta)
            self._b = b
            self._m = 1 - 1 / (b * b)
            self._sb = mpmath.sqrt(b)
            self.omega1 = mpmath.ellipk(self._m) / self._sb
            self.omega2_im = mpmath.ellipk(1 - self._m) / self._sb
        self.beta = float(beta)
        # e1 = alpha in octell's notation: wp = R + e1
        self.e1 = float((self._b + 1 / self._b) / 3)

    def point(self, x_half_periods, y_half_periods) -> complex:
        """The float nearest x*omega1 + i*y*omega2 (exact rational multiples)."""
        with mpmath.workdps(DIGITS):
            return complex(
                float(mpmath.mpf(x_half_periods) * self.omega1),
                float(mpmath.mpf(y_half_periods) * self.omega2_im),
            )

    def R(self, z) -> complex:
        """R at the exact value of z, a float complex or an mpmath number
        (z must not be a lattice point)."""
        with mpmath.workdps(DIGITS):
            u = self._sb * mpmath.mpc(z)
            sn = mpmath.ellipfun("sn", u, m=self._m)
            cn = mpmath.ellipfun("cn", u, m=self._m)
            return complex(self._b * cn * cn / (sn * sn))

    def R_and_prime(self, z: complex) -> tuple[complex, complex]:
        """(R(z), R'(z)); R' = -2 beta^(3/2) cn dn / sn^3."""
        with mpmath.workdps(DIGITS):
            u = self._sb * mpmath.mpc(z)
            sn = mpmath.ellipfun("sn", u, m=self._m)
            cn = mpmath.ellipfun("cn", u, m=self._m)
            dn = mpmath.ellipfun("dn", u, m=self._m)
            r = self._b * cn * cn / (sn * sn)
            dr = -2 * self._b * self._sb * cn * dn / (sn * sn * sn)
            return complex(r), complex(dr)

    def node(self, m: int, n: int):
        """R at the eighth-period node (m*omega1 + i*n*omega2)/4, or None at a
        lattice point. Evaluated at the exact node, not at a rounded float."""
        if m % 8 == 0 and n % 8 == 0:
            return None
        with mpmath.workdps(DIGITS):
            return self.R(mpmath.mpc(m * self.omega1 / 4, n * self.omega2_im / 4))
