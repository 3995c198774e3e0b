import cmath
import math
import random
import warnings

import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import minimize_scalar

from octell import (
    ascending_sequence,
    branch_radicand,
    build_catalog,
    derive_params,
    gamma4,
    grid_table,
    is_pole,
    tribonacci_b,
    verify_grid,
)

betas = st.floats(min_value=1.001, max_value=50.0)


# --- tribonacci constant ----------------------------------------------------

def bisect_cubic_root():
    f = lambda x: x * x * x - x * x - x - 1.0
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_tribonacci_b_is_the_cubic_root():
    b = tribonacci_b()
    assert abs(b**3 - b**2 - b - 1.0) <= 1e-14
    assert b == pytest.approx(bisect_cubic_root(), abs=1e-14)
    # precomputed at 40 digits: 1.839286755214161132...
    assert b == pytest.approx(1.8392867552141611, rel=1e-15)


def test_tribonacci_b_bracket():
    assert 1.83928675 < tribonacci_b() < 1.83928676


# --- ascending sequences ----------------------------------------------------

def test_ascending_sequence_frozen_x3():
    s = ascending_sequence(3.0)
    assert s[0] == pytest.approx(-1.0, rel=1e-15)
    assert s[1] == pytest.approx(1.0 - math.sqrt(4.0 / 3.0), rel=1e-14)
    assert s[2] == pytest.approx(1.0 + math.sqrt(4.0 / 3.0), rel=1e-15)
    assert s[3] == pytest.approx(3.0, rel=1e-15)


@given(st.floats(min_value=1.0001, max_value=1e6))
def test_ascending_sequence_is_ascending(x):
    s = ascending_sequence(x)
    assert s[0] < s[1] < s[2] < s[3]


@given(st.floats(min_value=1.0001, max_value=1e12))
@example(1e12)
def test_ascending_sequence_pair_products(x):
    # outer and inner pairs multiply to -x and -1/x, so all four give +1;
    # each entry is rounded once from its exact value, so a product is at
    # most three roundings off, even where 1 - sqrt(1 + 1/x) cancels
    s = ascending_sequence(x)
    assert s[0] * s[3] == pytest.approx(-x, rel=4e-16, abs=0.0)
    assert s[1] * s[2] == pytest.approx(-1.0 / x, rel=4e-16, abs=0.0)


@pytest.mark.parametrize("bad", [1.0, 0.3, -2.0, math.inf])
def test_ascending_sequence_domain(bad):
    with pytest.raises(ValueError):
        ascending_sequence(bad)


# --- catalog ----------------------------------------------------------------

def test_catalog_frozen_beta_3(p3):
    c = build_catalog(p3)
    assert c.gamma_plus_r == pytest.approx(1.9428090415820634, rel=1e-15)
    assert c.gamma_minus_r == pytest.approx(2.0 - 1.9428090415820634, rel=1e-12)
    assert c.gamma == pytest.approx(complex(1.0, -2.82842712474619), rel=1e-15)
    assert c.beta_pm[0] == pytest.approx(0.18350341907227397, rel=1e-14)
    assert c.beta_pm[1] == pytest.approx(2.0 - 0.18350341907227397, rel=1e-14)
    # the four line-product constants, precomputed at 40 digits
    assert c.gamma02 == pytest.approx(0.0171024935757255, rel=1e-12)
    assert c.gamma13 == pytest.approx(0.0956443748416696, rel=1e-12)
    assert c.gamma01 == pytest.approx(1.16171088257982, rel=1e-12)
    assert c.gamma23 == pytest.approx(6.49677841533104, rel=1e-12)
    assert c.gamma0 == pytest.approx(complex(1.0, -math.sqrt(2.0)), rel=1e-15)
    assert c.b_const == tribonacci_b()


@given(betas)
def test_gamma_modulus_is_beta(beta):
    c = build_catalog(derive_params(beta))
    assert abs(c.gamma) == pytest.approx(beta, rel=1e-13)


@given(betas)
def test_catalog_orderings(beta):
    p = derive_params(beta)
    c = build_catalog(p)
    assert c.beta_seq[0] < c.beta_seq[1] < c.beta_seq[2] < c.beta_seq[3]
    assert c.delta_seq[0] < c.delta_seq[1] < c.delta_seq[2] < c.delta_seq[3]
    assert c.gamma02 < c.gamma13 < c.gamma01 < c.gamma23
    assert c.beta_pm[0] < c.beta_pm[1]
    assert c.delta_pm[0] < c.delta_pm[1]


@given(betas)
def test_line_products_positive(beta):
    c = build_catalog(derive_params(beta))
    assert c.gamma02 > 0.0


def test_no_warning_close_to_one():
    # the catalog keeps its digits next to 1, so no entry point warns there
    near = derive_params(math.nextafter(1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_catalog(near)
        gamma4(near, 41)
        grid_table(near)
        verify_grid(near.beta)


def test_no_warning_at_moderate_beta():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_catalog(derive_params(1.5))


# --- order-8 closed forms ---------------------------------------------------

def test_gamma4_frozen_beta_2():
    # precomputed at 40 digits
    p = derive_params(2.0)
    assert gamma4(p, 41) == pytest.approx(
        complex(-1.69385571601297246, 0.566969378937271353), rel=1e-14)
    assert gamma4(p, 42) == pytest.approx(
        complex(-0.530889155378616589, 0.177699842946506074), rel=1e-14)
    assert gamma4(p, 43) == pytest.approx(
        complex(0.0126056773797591796, 0.243439570331263831), rel=1e-14)
    assert gamma4(p, 44) == pytest.approx(
        complex(0.212139194011829869, 4.0968107214597837), rel=1e-14)


def test_gamma4_which_domain(p3):
    with pytest.raises(ValueError):
        gamma4(p3, 40)


@given(betas)
def test_gamma4_unit_pairings(beta):
    # 42 pairs with 41, 43 with 44: product with the conjugate partner is 1
    p = derive_params(beta)
    assert gamma4(p, 42) * gamma4(p, 41).conjugate() == pytest.approx(1.0, rel=1e-10)
    assert gamma4(p, 43) * gamma4(p, 44).conjugate() == pytest.approx(1.0, rel=1e-10)


def test_gamma4_continuous_at_branch_switch():
    b = tribonacci_b()
    for which in (43, 44):
        lo = gamma4(derive_params(b - 1e-9), which)
        hi = gamma4(derive_params(b + 1e-9), which)
        assert abs(hi - lo) <= 1e-6
    # exactly at b the catalog's cubic w^3 - w^2 - w - 1 crosses zero, with
    # no radicand to clamp and no branch to take
    at = gamma4(derive_params(b), 43)
    assert cmath.isfinite(at)


_B = tribonacci_b()


def _gamma4_reference(beta):
    """gamma41..gamma44 from the paper's q*sqrt(radicand) forms in mpmath at
    80 digits, with sgn(beta - b) from mpmath's root of x^3 - x^2 - x - 1,
    each part rounded once to a double."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        be, r2 = mp.mpf(beta), mp.sqrt(2)
        sb1, sbm1 = mp.sqrt(be + 1), mp.sqrt(be - 1)
        root = mp.findroot(lambda t: t**3 - t**2 - t - 1, mp.mpf("1.84"))
        sign = 1 if be >= root else -1
        core, inv_sb1, inv_delta = be / sbm1, 1 / sb1, sb1 * sbm1 / be
        q_pos, q_neg = sb1 * mp.sqrt(sb1 + r2) / be, sb1 * mp.sqrt(sb1 - r2) / be
        a_pos = q_pos * mp.sqrt(core - inv_sb1 + r2)
        b_pos = q_pos * mp.sqrt(core + inv_sb1 - r2)
        a_neg = sign * q_neg * mp.sqrt(core - inv_sb1 - r2)
        b_neg = q_neg * mp.sqrt(core + inv_sb1 + r2)
        x, lo, hi = 1 - 1 / be, 1 - sb1 / r2, 1 + sb1 / r2
        parts = (
            (lo * (x + a_pos) - 1, lo * (-inv_delta - b_pos)),
            (lo * (x - a_pos) - 1, lo * (inv_delta - b_pos)),
            (hi * (x - a_neg) - 1, hi * (-inv_delta + b_neg)),
            (hi * (x + a_neg) - 1, hi * (inv_delta + b_neg)),
        )
        return [complex(float(re), float(im)) for re, im in parts]


def _betas_next_to_b():
    near, lo, hi = [_B], _B, _B
    for _ in range(40):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, 3.0)
        near += [lo, hi]
    rng = random.Random(32)
    return sorted(near) + [_B - 1e-9, _B - 1e-12, _B + 1e-12, _B + 1e-9] + [
        1.0 + 10.0 ** rng.uniform(-12.0, 12.0) for _ in range(20)
    ]


@pytest.mark.parametrize("beta", _betas_next_to_b())
def test_gamma4_correctly_rounded_next_to_b(beta):
    # every part of gamma41..gamma44 is the double nearest its exact value,
    # next to b too, where the paper's radicand has its double root
    p = derive_params(beta)
    got = [gamma4(p, which) for which in (41, 42, 43, 44)]
    assert got == _gamma4_reference(beta)


def test_branch_radicand_double_root():
    b = tribonacci_b()
    assert abs(branch_radicand(b)) <= 1e-12
    assert branch_radicand(b - 0.01) > 0.0
    assert branch_radicand(b + 0.01) > 0.0
    for bad in (1.0, math.inf):
        with pytest.raises(ValueError):
            branch_radicand(bad)


def test_branch_radicand_minimum_at_b():
    b = tribonacci_b()
    res = minimize_scalar(
        branch_radicand, bounds=(b - 0.02, b + 0.02), method="bounded",
        options={"xatol": 1e-10},
    )
    assert abs(res.x - b) <= 1e-6
    assert abs(res.fun) <= 1e-10


# --- grid table -------------------------------------------------------------

def test_table_shape_and_corners(p3):
    t = grid_table(p3)
    entries = list(t.nodes())
    assert len(entries) == 81
    for m, n in ((0, 0), (8, 0), (0, 8), (8, 8)):
        assert is_pole(t.value(m, n))
        assert t.symbol(m, n) == "inf"


def test_table_row4_frozen(p3):
    t = grid_table(p3)
    expect = [-3.0, -2.15470053837925, -1.0, -0.464101615137755, -1.0 / 3.0]
    for m, want in enumerate(expect):
        assert t.value(m, 4) == pytest.approx(want, rel=1e-14)
        # mirror in m
        assert t.value(8 - m, 4) == t.value(m, 4)


def test_table_fixed_entries(p3):
    t = grid_table(p3)
    assert t.value(2, 0) == 1.0
    assert t.value(6, 0) == 1.0
    assert t.value(4, 0) == 0.0
    assert t.value(2, 4) == -1.0
    assert t.value(0, 4) == -3.0
    assert t.value(4, 4) == pytest.approx(-1.0 / 3.0, rel=1e-15)


def _assert_mirrored(t):
    # nodes (8 - m, n) and (m, 8 - n) hold the conjugate of node (m, n), and
    # their symbols the frozen conjugate symbol of its symbol, in either
    # direction; node (8 - m, 8 - n) holds node (m, n) itself
    conj_of = {**CONJ_SYMBOLS, **{v: k for k, v in CONJ_SYMBOLS.items()}}
    for n in range(9):
        for m in range(9):
            a = t.value(m, n)
            for mm, nn in ((8 - m, n), (m, 8 - n)):
                b = t.value(mm, nn)
                if is_pole(a):
                    assert is_pole(b)
                else:
                    assert a == b.conjugate()
                assert t.symbol(mm, nn) == conj_of[t.symbol(m, n)]
            assert t.symbol(8 - m, 8 - n) == t.symbol(m, n)
            assert t.value(8 - m, 8 - n) == a


def test_table_conjugate_rows(p3):
    _assert_mirrored(grid_table(p3))


@given(betas)
def test_table_conjugate_rows_any_beta(beta):
    _assert_mirrored(grid_table(derive_params(beta)))


def test_table_symbols_rows_1_to_3(p3):
    t = grid_table(p3)
    assert [t.symbol(m, 1) for m in range(9)] == [
        "-beta*gamma23", "conj(gamma44)", "-beta*conj(gamma_hi)",
        "conj(gamma43)", "-beta*gamma02", "gamma43", "-beta*gamma_hi",
        "gamma44", "-beta*gamma23",
    ]
    assert [t.symbol(m, 2) for m in range(9)] == [
        "-beta*gamma_plus_r", "-beta_plus*conj(gamma0)", "-conj(gamma)/beta",
        "-beta_minus*conj(gamma0)", "-beta*gamma_minus_r",
        "-beta_minus*gamma0", "-gamma/beta", "-beta_plus*gamma0",
        "-beta*gamma_plus_r",
    ]
    assert [t.symbol(m, 3) for m in range(9)] == [
        "-beta*gamma01", "conj(gamma41)", "-beta*conj(gamma_lo)",
        "conj(gamma42)", "-beta*gamma13", "gamma42", "-beta*gamma_lo",
        "gamma41", "-beta*gamma01",
    ]


def test_table_symbols_conjugate_rows(p3):
    t = grid_table(p3)
    assert t.symbol(6, 2) == "-gamma/beta"
    assert t.symbol(6, 6) == "-conj(gamma)/beta"
    assert t.symbol(7, 1) == "gamma44"
    assert t.symbol(7, 7) == "conj(gamma44)"
    # real rows are self-conjugate
    for m in range(9):
        assert t.symbol(m, 0) == t.symbol(m, 8)


# every symbol of the base block m, n <= 4 and the symbol of its conjugate
CONJ_SYMBOLS = {
    "inf": "inf",
    "beta2*beta3": "beta2*beta3",
    "1": "1",
    "beta0*beta1": "beta0*beta1",
    "0": "0",
    "-beta*gamma23": "-beta*gamma23",
    "conj(gamma44)": "gamma44",
    "-beta*conj(gamma_hi)": "-beta*gamma_hi",
    "conj(gamma43)": "gamma43",
    "-beta*gamma02": "-beta*gamma02",
    "-beta*gamma_plus_r": "-beta*gamma_plus_r",
    "-beta_plus*conj(gamma0)": "-beta_plus*gamma0",
    "-conj(gamma)/beta": "-gamma/beta",
    "-beta_minus*conj(gamma0)": "-beta_minus*gamma0",
    "-beta*gamma_minus_r": "-beta*gamma_minus_r",
    "-beta*gamma01": "-beta*gamma01",
    "conj(gamma41)": "gamma41",
    "-beta*conj(gamma_lo)": "-beta*gamma_lo",
    "conj(gamma42)": "gamma42",
    "-beta*gamma13": "-beta*gamma13",
    "-beta": "-beta",
    "beta0*beta2": "beta0*beta2",
    "-1": "-1",
    "beta1*beta3": "beta1*beta3",
    "-1/beta": "-1/beta",
}


def test_conj_symbol_frozen_table(p3):
    # the base block holds the frozen symbols; a node mirrored across one
    # midline holds the frozen conjugate symbol, and mirroring that node
    # across the other midline gives the base symbol back
    t = grid_table(p3)
    back = {want: sym for sym, want in CONJ_SYMBOLS.items()}
    assert len(back) == len(CONJ_SYMBOLS)
    assert {t.symbol(m, n) for m in range(5) for n in range(5)} == set(CONJ_SYMBOLS)
    for m in range(5):
        for n in range(5):
            sym = t.symbol(m, n)
            assert t.symbol(8 - m, n) == t.symbol(m, 8 - n) == CONJ_SYMBOLS[sym]
            assert back[t.symbol(8 - m, n)] == t.symbol(8 - m, 8 - n) == sym


@given(betas)
def test_table_unit_products(beta):
    # column pairs on the real row and the two center values multiply to 1
    t = grid_table(derive_params(beta))
    assert t.value(1, 0) * t.value(3, 0) == pytest.approx(1.0, rel=1e-10)
    assert t.value(2, 2) * t.value(6, 2) == pytest.approx(1.0, rel=1e-10)


@given(betas)
def test_table_row2_magnitudes(beta):
    # row n=2 values at odd m all lie on the circle |w + beta| = beta/delta
    p = derive_params(beta)
    t = grid_table(p)
    radius = beta / p.delta
    for m in (1, 3, 5, 7):
        assert abs(t.value(m, 2) + beta) == pytest.approx(radius, rel=1e-10)


def test_table_center_magnitude(p3):
    # the two half-rectangle center values sit on the unit circle
    t = grid_table(p3)
    assert abs(t.value(2, 2)) == pytest.approx(1.0, rel=1e-13)
    assert abs(t.value(6, 2)) == pytest.approx(1.0, rel=1e-13)


# --- the table against mpmath -----------------------------------------------

# the measured bound: the worst scaled error seen over 1,700 beta from
# nextafter(1, 2) to 1e307 was 2.5e-16; a node is at most three roundings
# from its exact value (a product of two rounded catalog parts)
TABLE_BOUND = 3e-16


def table_err(beta):
    """The table's worst scaled error over the base block m, n <= 4 against
    mpmath at 40 + 2|log10 beta| digits, plus -log10(beta - 1) near 1:
    beta (1 - sn^2)/sn^2 (u | 1 - 1/beta^2) at u = (m K + i n K')/4, and the
    exact seeds 0, -beta, -1/beta."""
    mp = pytest.importorskip("mpmath")
    dps = 40 + 2 * abs(math.log10(beta)) + max(0.0, -math.log10(beta - 1.0))
    with mp.workdps(int(dps)):
        b = mp.mpf(beta)
        k = 1 / (b * b)
        quarter_k, quarter_kp = mp.ellipk(1 - k) / 4, mp.ellipk(k) / 4
        ref = {(4, 0): mp.mpf(0), (0, 4): -b, (4, 4): -1 / b}
        for m in range(5):
            for n in range(5):
                if m % 4 or n % 4:
                    u = mp.mpc(m * quarter_k, n * quarter_kp)
                    s2 = mp.ellipfun("sn", u, m=1 - k) ** 2
                    ref[m, n] = b * (1 - s2) / s2
        t = grid_table(derive_params(beta))
        return max(
            float(abs(t.value(m, n) - want) / max(1, abs(want)))
            for (m, n), want in ref.items()
        )


def _table_betas():
    rng = random.Random(31)
    lo, hi = math.log10(math.ulp(1.0)), 100.0
    return [math.nextafter(1.0, 2.0), 1e100] + [
        1.0 + 10.0 ** rng.uniform(lo, hi) for _ in range(10)
    ]


@pytest.mark.parametrize("beta", _table_betas())
def test_table_matches_mpmath(beta):
    assert table_err(beta) <= TABLE_BOUND


@pytest.mark.parametrize(
    "beta",
    [math.nextafter(_B, 0.0), _B, math.nextafter(_B, 3.0), _B - 1e-9, _B + 1e-9],
)
def test_table_matches_mpmath_at_the_double_root(beta):
    # the order-8 radicand has a double root at b, so its square root keeps
    # only half the digits of a radicand formed in doubles
    assert table_err(beta) <= TABLE_BOUND


# the largest beta whose table is finite, found by bisection over the doubles
_LAST_FINITE_BETA = 2.6326606435433477e307


def test_table_overflow_is_a_domain_error():
    t = grid_table(derive_params(_LAST_FINITE_BETA))
    assert all(cmath.isfinite(v) for _, _, _, v in t.nodes() if not is_pole(v))
    for beta in (math.nextafter(_LAST_FINITE_BETA, math.inf), 5e307, 1.7e308):
        with pytest.raises(ValueError) as exc:
            grid_table(derive_params(beta))
        assert str(exc.value) == (
            f"beta = {beta!r} is out of range for the closed-form table: "
            "-beta*gamma23 overflows a double from beta ~ 2.63e307"
        )
