"""Radical closed forms: the constant catalog and the 81-entry grid table.

Every value R takes at an eighth-period node (m*omega1 + n*omega2)/4,
m, n in 0..8, has a nested-radical closed form built from a small catalog of
constants. The four "order-8" values gamma41..gamma44 hold square roots of
four inner radicands in beta. Each radicand is a perfect square,
P(w)^2/(sqrt(2) w (w^4 - 1)) in w = sqrt(beta + sqrt(beta^2 - 1)), with P one
of w^3 + w^2 - w + 1, w^3 - w^2 + w + 1, w^3 - w^2 - w - 1, w^3 + w^2 + w - 1.
The third has its double root at the tribonacci constant b; its P is the
tribonacci polynomial in w, and w = b just when beta = b, so P carries the
sign sgn(beta - b) with no branch. The catalog is formed from the exact value
of the float beta in stdlib `decimal`, at enough digits to outlast every
cancellation of its radicals, and each part is rounded once to a float. Each
quarter-block value is computed in floats from its printed symbol, an
expression over the catalog's parts, compiled once at import. The 81 symbols
are the same for every beta, built at import with `conj(X)` and `X` swapped
in the mirrored ones.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain

from ._backend import CurveParams, _check_beta
from .evaluate import POLE, NodeValue, mirror_block

_B = 1.8392867552141612


def tribonacci_b() -> float:
    """Real root of x^3 - x^2 - x - 1, (1 + cbrt(19 - 3 sqrt(33)) +
    cbrt(19 + 3 sqrt(33)))/3, correctly rounded to a double."""
    return _B


def _digits(x: float) -> int:
    """Working precision for the radicals of x > 1: 36 digits cover the
    cancellations of w^3 - w^2 - w - 1 next to b and of order x - 1 near 1,
    each at most 16 digits for a double x, and 2*log10(x) those of order
    1/x^2 at large x."""
    return 36 + int(2.0 * math.log10(x))


def _ascending(lo, hi):
    """The four values of `ascending_sequence` of x from its Decimal roots
    lo = sqrt(1 + 1/x) and hi = sqrt(x + 1)."""
    return (1 - hi, 1 - lo, 1 + lo, 1 + hi)


def ascending_sequence(x: float) -> tuple[float, float, float, float]:
    """(1-sqrt(x+1), 1-sqrt(1+1/x), 1+sqrt(1+1/x), 1+sqrt(x+1)), ascending for
    x > 1, each formed from the exact x and rounded once to a float."""
    x = float(x)
    if not math.isfinite(x) or not x > 1.0:
        raise ValueError(f"ascending_sequence needs a finite x > 1, got {x!r}")
    from decimal import Context, Decimal, localcontext

    with localcontext(Context(prec=_digits(x))):
        x = Decimal(x)
        return tuple(map(float, _ascending((1 + 1 / x).sqrt(), (x + 1).sqrt())))


class RadicalCatalog(
    namedtuple(
        "RadicalCatalog",
        "gamma_minus_r gamma_plus_r gamma beta_seq delta_seq gamma02 gamma13 "
        "gamma01 gamma23 beta_pm delta_pm gamma0 gamma_lo gamma_hi gamma41 "
        "gamma42 gamma43 gamma44 b_const",
    )
):
    """The constants of the closed forms.

    - gamma_minus_r, gamma_plus_r: 1 -+ 1/delta.
    - gamma: 1 - i*beta/delta, of modulus beta.
    - beta_seq, delta_seq: `ascending_sequence` of beta and of delta.
    - gamma02, gamma13, gamma01, gamma23: real.
    - beta_pm: 1 -+ sqrt(1 - 1/beta).
    - delta_pm: 1 -+ (sqrt(1+1/beta) - sqrt(1-1/beta))/sqrt(2).
    - gamma0: 1 - i*sqrt(beta-1).
    - gamma_lo, gamma_hi: 1 - delta_pm[0 or 1]*(1 + i*sqrt(delta-1))/delta.
    - gamma41..gamma44: the complex order-8 values of `gamma4`.
    - b_const: the tribonacci constant.
    """

    __slots__ = ()


def branch_radicand(beta: float) -> float:
    """Inner radicand of gamma43/gamma44: beta/sqrt(beta-1) - 1/sqrt(beta+1) - sqrt(2).

    The paper's float form, nonnegative for beta > 1, and the statement of
    its double root at b apart from the catalog's cubics in w; returned
    unclamped, so the tiny negative rounding dips right at the root show.
    """
    beta = float(beta)
    if not math.isfinite(beta) or not beta > 1.0:
        raise ValueError(f"branch_radicand needs a finite beta > 1, got {beta!r}")
    return beta / math.sqrt(beta - 1.0) - 1.0 / math.sqrt(beta + 1.0) - math.sqrt(2.0)


def gamma4(params: CurveParams, which: int) -> complex:
    """One of the four order-8 closed forms (which in {41, 42, 43, 44})."""
    try:
        i = (41, 42, 43, 44).index(which)
    except ValueError:
        raise ValueError(
            f"which must be one of 41, 42, 43, 44 (got {which!r})"
        ) from None
    c = build_catalog(params)
    return (c.gamma41, c.gamma42, c.gamma43, c.gamma44)[i]


def _complex(re, im) -> complex:
    return complex(float(re), float(im))


def build_catalog(params: CurveParams) -> RadicalCatalog:
    """The catalog at params.beta: every part formed from the exact beta at
    `_digits(beta)` digits, then rounded once to a float. ValueError for a
    beta that is not finite and > 1 (a hand-built record)."""
    from decimal import Context, Decimal, localcontext

    _check_beta(params.beta)
    with localcontext(Context(prec=_digits(params.beta))):
        beta = Decimal(params.beta)
        r2 = Decimal(2).sqrt()
        sb1, sbm1 = (beta + 1).sqrt(), (beta - 1).sqrt()
        sp, sm = (1 + 1 / beta).sqrt(), (1 - 1 / beta).sqrt()
        inv_delta = sb1 * sbm1 / beta   # sqrt(1 - 1/beta^2)
        delta = 1 / inv_delta
        d0, d1, d2, d3 = delta_seq = _ascending((1 + 1 / delta).sqrt(), (delta + 1).sqrt())
        dpm_off = (sp - sm) / r2
        delta_pm = (1 - dpm_off, 1 + dpm_off)
        tilt = (delta - 1).sqrt()   # of the factor 1 + i*sqrt(delta - 1)
        e_lo, e_hi = (p * inv_delta for p in delta_pm)   # delta_pm/delta
        # the order-8 forms k*(w +- 1)*P(w); a_neg's P has the sign sgn(beta - b)
        w = (sb1 + sbm1) / r2
        w2, w3 = w * w, w * w * w
        k = sb1 / (2 * w2 * beta * (sb1 * sbm1).sqrt())
        k_pos, k_neg = k * (w + 1), k * (w - 1)
        a_pos = k_pos * (w3 + w2 - w + 1)
        b_pos = k_pos * (w3 - w2 + w + 1)
        a_neg = k_neg * (w3 - w2 - w - 1)
        b_neg = k_neg * (w3 + w2 + w - 1)
        x, half = 1 - 1 / beta, sb1 / r2
        lo, hi = 1 - half, half + 1
        return RadicalCatalog(
            gamma_minus_r=float(1 - inv_delta),
            gamma_plus_r=float(1 + inv_delta),
            gamma=_complex(1, -sb1 * sbm1),
            beta_seq=tuple(map(float, _ascending(sp, sb1))),
            delta_seq=tuple(map(float, delta_seq)),
            gamma02=float(1 + d0 * d2 * inv_delta),
            gamma13=float(1 + d1 * d3 * inv_delta),
            gamma01=float(1 + d0 * d1 * inv_delta),
            gamma23=float(1 + d2 * d3 * inv_delta),
            beta_pm=(float(1 - sm), float(1 + sm)),
            delta_pm=tuple(map(float, delta_pm)),
            gamma0=_complex(1, -sbm1),
            gamma_lo=_complex(1 - e_lo, -e_lo * tilt),
            gamma_hi=_complex(1 - e_hi, -e_hi * tilt),
            gamma41=_complex(lo * (x + a_pos) - 1, lo * (-inv_delta - b_pos)),
            gamma42=_complex(lo * (x - a_pos) - 1, lo * (inv_delta - b_pos)),
            gamma43=_complex(hi * (x - a_neg) - 1, hi * (-inv_delta + b_neg)),
            gamma44=_complex(hi * (x + a_neg) - 1, hi * (inv_delta + b_neg)),
            b_const=_B,
        )


_MS, _NS = zip(*((m, n) for n in range(9) for m in range(9)))  # row by row


def _check_node(m: int, n: int) -> None:
    # an IndexError, as for (9, 0), where a negative index would wrap round
    if not (0 <= m <= 8 and 0 <= n <= 8):
        raise IndexError(f"node ({m}, {n}) is outside the grid 0..8 x 0..8")


class ClosedFormTable(namedtuple("ClosedFormTable", "beta values symbols")):
    """81 grid entries; index (m, n) = column, row; POLE at the four corners.

    values and symbols are the rows n = 0..8 of node values and of their
    printed symbols, each row a 9-tuple over m.
    """

    __slots__ = ()

    def value(self, m: int, n: int) -> NodeValue:
        _check_node(m, n)
        return self.values[n][m]

    def symbol(self, m: int, n: int) -> str:
        _check_node(m, n)
        return self.symbols[n][m]

    def nodes(self) -> Iterator[tuple[int, int, str, NodeValue]]:
        """(m, n, symbol, value) at every node, row by row."""
        flat = chain.from_iterable
        return zip(_MS, _NS, flat(self.symbols), flat(self.values))


# the quarter block m, n <= 4, one row a line; every complex name X is
# written conj(X), so a mirrored symbol drops each conj( )
_QUARTER_SYMBOLS = (
    "inf beta2*beta3 1 beta0*beta1 0",
    "-beta*gamma23 conj(gamma44) -beta*conj(gamma_hi) conj(gamma43) -beta*gamma02",
    "-beta*gamma_plus_r -beta_plus*conj(gamma0) -conj(gamma)/beta "
    "-beta_minus*conj(gamma0) -beta*gamma_minus_r",
    "-beta*gamma01 conj(gamma41) -beta*conj(gamma_lo) conj(gamma42) -beta*gamma13",
    "-beta beta0*beta2 -1 beta1*beta3 -1/beta",
)
_SYMBOLS = mirror_block(
    [row.split() for row in _QUARTER_SYMBOLS],
    lambda sym: sym.replace("conj(", "").replace(")", ""),
)

# the quarter block's values as one function of beta, beta0..beta3 (beta_seq),
# beta_minus, beta_plus (beta_pm) and the catalog's fields, compiled once from
# the symbols above: `inf` is POLE, every other entry complex(symbol) + 0j,
# which turns a -0.0 part into 0.0 as `conj` does for the mirrored nodes
_quarter_values = eval(
    "lambda beta, beta0, beta1, beta2, beta3, beta_minus, beta_plus, %s: (%s)" % (
        ", ".join(RadicalCatalog._fields),
        ", ".join("(%s)" % ", ".join(
            sym if sym == "inf" else "complex(%s) + 0j" % sym for sym in row.split()
        ) for row in _QUARTER_SYMBOLS),
    ),
    {"__builtins__": {}, "complex": complex, "conj": complex.conjugate, "inf": POLE},
)


def grid_table(params: CurveParams) -> ClosedFormTable:
    """The full table of closed-form values at the eighth-period nodes."""
    c = build_catalog(params)
    block = _quarter_values(params.beta, *c.beta_seq, *c.beta_pm, *c)
    if not math.isfinite(block[1][0].real):
        # node (0, 1), -beta*gamma23 ~ -6.83*beta, is the largest node and
        # the first past the largest double
        raise ValueError(
            f"beta = {params.beta!r} is out of range for the closed-form table: "
            "-beta*gamma23 overflows a double from beta ~ 2.63e307"
        )
    return ClosedFormTable(params.beta, mirror_block(block), _SYMBOLS)
