"""Radical closed forms: the constant catalog and the 81-entry grid table.

Every value R takes at an eighth-period node (m*omega1 + n*omega2)/4,
m, n in 0..8, has a nested-radical closed form built from a small catalog of
constants. The four "order-8" values gamma41..gamma44 carry a sgn(beta - b)
factor, b the tribonacci constant, that keeps them continuous across the
double root of their inner radicand. Each quarter-block value is computed
from its printed symbol, an expression over the catalog's constants, compiled
once at import. The 81 symbols are the same for every beta, built once at
import with `conj(X)` and `X` swapped in the mirrored ones.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain

from ._backend import CurveParams
from .evaluate import POLE, NodeValue, mirror_block

_SQRT2 = math.sqrt(2.0)

# gamma4 formulas contain 1/sqrt(beta-1); below this floor they still compute
# but lose digits, so catalog construction warns. Once delta rounds to 1 (some
# beta from about 4.5e7, every beta from about 6.7e7; 1e7 builds) it raises
# ValueError("ascending_sequence needs a finite x > 1, got 1.0"); ROADMAP
# item 15, the table from beta alone, removes that limit.
BETA_FLOOR = 1.0 + 1e-6

_cbrt = getattr(math, "cbrt", lambda v: v ** (1.0 / 3.0))


def tribonacci_b() -> float:
    """Real root of x^3 - x^2 - x - 1 (closed cube-root form)."""
    s = 3.0 * math.sqrt(33.0)
    return (1.0 + _cbrt(19.0 - s) + _cbrt(19.0 + s)) / 3.0


_B = tribonacci_b()


def ascending_sequence(x: float) -> tuple[float, float, float, float]:
    """(1-sqrt(x+1), 1-sqrt(1+1/x), 1+sqrt(1+1/x), 1+sqrt(x+1)), ascending for x > 1."""
    x = float(x)
    if not math.isfinite(x) or not x > 1.0:
        raise ValueError(f"ascending_sequence needs a finite x > 1, got {x!r}")
    lo = math.sqrt(1.0 + 1.0 / x)
    hi = math.sqrt(x + 1.0)
    return (1.0 - hi, 1.0 - lo, 1.0 + lo, 1.0 + hi)


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


def _warn_floor(beta: float) -> None:
    if beta < BETA_FLOOR:
        import sys   # here, not at the top: only this branch uses them
        import warnings

        # attributed to the first caller outside the package, whichever entry
        # point (gamma4, build_catalog, grid_table, verify_grid, the CLI) it
        # called; level 2 is this function's caller
        level, frame = 2, sys._getframe(1)
        while frame is not None:
            name = frame.f_globals.get("__name__", "")
            if name != "octell" and not name.startswith("octell."):
                break
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"beta = {beta} is within 1e-6 of 1; 1/sqrt(beta-1) radicals "
            "lose significant digits",
            RuntimeWarning,
            stacklevel=level,
        )


def branch_radicand(beta: float) -> float:
    """Inner radicand of gamma43/gamma44: beta/sqrt(beta-1) - 1/sqrt(beta+1) - sqrt(2).

    Nonnegative for beta > 1, with a double root at the tribonacci constant;
    returned unclamped so callers can see the tiny negative rounding dips
    right at the root.
    """
    beta = float(beta)
    if not math.isfinite(beta) or not beta > 1.0:
        raise ValueError(f"branch_radicand needs a finite beta > 1, got {beta!r}")
    return beta / math.sqrt(beta - 1.0) - 1.0 / math.sqrt(beta + 1.0) - _SQRT2


def _gamma4_all(beta: float) -> tuple[complex, complex, complex, complex]:
    """(gamma41, gamma42, gamma43, gamma44) from their shared radicals."""
    sb1 = math.sqrt(beta + 1.0)
    core = beta / math.sqrt(beta - 1.0)
    inv_sb1 = 1.0 / sb1
    f_neg = max(branch_radicand(beta), 0.0)   # double root at beta = b
    x = 1.0 - 1.0 / beta
    y = math.sqrt(1.0 - 1.0 / (beta * beta))
    half = math.sqrt((beta + 1.0) / 2.0)
    q_pos = sb1 * math.sqrt(sb1 + _SQRT2) / beta
    q_neg = sb1 * math.sqrt(sb1 - _SQRT2) / beta
    a_pos = math.sqrt(core - inv_sb1 + _SQRT2)
    b_pos = math.sqrt(core + inv_sb1 - _SQRT2)
    a_neg = (1.0 if beta >= _B else -1.0) * math.sqrt(f_neg)
    b_neg = math.sqrt(core + inv_sb1 + _SQRT2)
    return (
        (1.0 - half) * complex(x + q_pos * a_pos, -y - q_pos * b_pos) - 1.0,
        (1.0 - half) * complex(x - q_pos * a_pos, y - q_pos * b_pos) - 1.0,
        (half + 1.0) * complex(x - q_neg * a_neg, -y + q_neg * b_neg) - 1.0,
        (half + 1.0) * complex(x + q_neg * a_neg, y + q_neg * b_neg) - 1.0,
    )


def gamma4(params: CurveParams, which: int) -> complex:
    """One of the four order-8 closed forms (which in {41, 42, 43, 44})."""
    try:
        i = (41, 42, 43, 44).index(which)
    except ValueError:
        raise ValueError(
            f"which must be one of 41, 42, 43, 44 (got {which!r})"
        ) from None
    _warn_floor(params.beta)
    return _gamma4_all(params.beta)[i]


def build_catalog(params: CurveParams) -> RadicalCatalog:
    beta = params.beta
    delta = params.delta
    _warn_floor(beta)
    d0, d1, d2, d3 = delta_seq = ascending_sequence(delta)
    sp = math.sqrt(1.0 + 1.0 / beta)
    sm = math.sqrt(1.0 - 1.0 / beta)
    dpm_off = (sp - sm) / _SQRT2
    delta_pm = (1.0 - dpm_off, 1.0 + dpm_off)
    g0_im = math.sqrt(beta - 1.0)
    tilt = complex(1.0, math.sqrt(delta - 1.0))  # 1 + i*sqrt(delta-1)
    g41, g42, g43, g44 = _gamma4_all(beta)
    return RadicalCatalog(
        gamma_minus_r=1.0 - 1.0 / delta,
        gamma_plus_r=1.0 + 1.0 / delta,
        gamma=complex(1.0, -beta / delta),
        beta_seq=ascending_sequence(beta),
        delta_seq=delta_seq,
        gamma02=1.0 + d0 * d2 / delta,
        gamma13=1.0 + d1 * d3 / delta,
        gamma01=1.0 + d0 * d1 / delta,
        gamma23=1.0 + d2 * d3 / delta,
        beta_pm=(1.0 - sm, 1.0 + sm),
        delta_pm=delta_pm,
        gamma0=complex(1.0, -g0_im),
        gamma_lo=1.0 - delta_pm[0] * tilt / delta,
        gamma_hi=1.0 - delta_pm[1] * tilt / delta,
        gamma41=g41,
        gamma42=g42,
        gamma43=g43,
        gamma44=g44,
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
    return ClosedFormTable(params.beta, mirror_block(block), _SYMBOLS)
