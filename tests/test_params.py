import math

import pytest
from hypothesis import given, strategies as st

import octell
from octell import derive_params

betas = st.floats(min_value=1.0001, max_value=1e4)


def test_frozen_values_beta_3():
    p = derive_params(3.0)
    assert p.beta == 3.0
    assert p.alpha == pytest.approx((3.0 + 1.0 / 3.0) / 3.0, rel=1e-15)
    assert p.d == pytest.approx(8.0 / 3.0, rel=1e-15)
    # delta = 3/(2*sqrt(2))
    assert p.delta == pytest.approx(1.0606601717798212866, rel=1e-15)
    assert p.e1 == p.alpha
    assert p.e2 == pytest.approx(p.alpha - 1.0 / 3.0, rel=1e-15)
    assert p.e3 == pytest.approx(p.alpha - 3.0, rel=1e-12)
    assert p.discriminant_sqrt == p.d


@given(betas)
def test_roots_sum_to_zero(beta):
    p = derive_params(beta)
    assert abs(p.e1 + p.e2 + p.e3) <= 1e-12 * max(1.0, abs(p.e3))


@given(betas)
def test_invariants_match_symmetric_functions(beta):
    p = derive_params(beta)
    s2 = p.e1 * p.e2 + p.e1 * p.e3 + p.e2 * p.e3
    s3 = p.e1 * p.e2 * p.e3
    scale = max(1.0, abs(s2), abs(s3))
    assert abs(p.g2 + 4.0 * s2) <= 1e-12 * scale
    assert abs(p.g3 - 4.0 * s3) <= 1e-12 * scale


@given(betas)
def test_roots_satisfy_depressed_cubic(beta):
    p = derive_params(beta)
    for e in (p.e1, p.e2, p.e3):
        resid = 4.0 * e**3 - p.g2 * e - p.g3
        assert abs(resid) <= 1e-10 * max(1.0, abs(e) ** 3)


@given(betas)
def test_discriminant_sqrt(beta):
    # g2^3 - 27*g3^2 = 16 * [(e1-e2)(e2-e3)(e3-e1)]^2 = 16 * d^2; the left
    # side is a near-total cancellation for large beta (both terms ~ beta^6),
    # so the bound has to scale with the operands, not the tiny result
    p = derive_params(beta)
    disc = p.g2**3 - 27.0 * p.g3**2
    want = 16.0 * p.discriminant_sqrt**2
    slack = 1e-13 * (abs(p.g2) ** 3 + 27.0 * p.g3**2 + want)
    assert abs(disc - want) <= slack


@given(betas)
def test_root_gaps(beta):
    p = derive_params(beta)
    assert p.e1 - p.e2 == pytest.approx(1.0 / beta, rel=1e-12)
    assert p.e1 - p.e3 == pytest.approx(beta, rel=1e-12)
    assert p.e1 > p.e2 > p.e3


@given(betas)
def test_delta_identity(beta):
    # (beta/delta)^2 + 1 = beta^2
    p = derive_params(beta)
    ratio = beta / p.delta
    assert ratio * ratio + 1.0 == pytest.approx(beta * beta, rel=1e-13)


@pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_domain_rejected(bad):
    with pytest.raises(ValueError):
        derive_params(bad)


ENTRY_POINTS = {
    "compute_lattice": octell.compute_lattice,
    "build_catalog": octell.build_catalog,
    "grid_table": octell.grid_table,
    "gamma4": lambda p: octell.gamma4(p, 41),
    "half_argument_oracle": lambda p: octell.half_argument_oracle(p, None),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, 1.0, math.nan, math.inf, -2.0])
def test_hand_built_params_with_bad_beta_raise_the_domain_error(entry, bad):
    # a CurveParams built by hand skips derive_params' check; every entry point
    # that reads beta from it raises derive_params' own error (Lattice.theta's
    # is in test_lattice.py). Unchecked, compute_lattice and the oracle answer
    # at 0.5, and the table code raises decimal and math errors
    par = derive_params(3.0)._replace(beta=bad)
    with pytest.raises(ValueError) as ref:
        derive_params(bad)
    with pytest.raises(ValueError) as exc:
        ENTRY_POINTS[entry](par)
    assert str(exc.value) == str(ref.value)


def test_just_above_one_accepted():
    p = derive_params(1.0 + 1e-9)
    assert p.d > 0.0
