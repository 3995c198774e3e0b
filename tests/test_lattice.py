import math

import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import octell._backend
from octell import Lattice, agm, compute_lattice, derive_params, essential_R

pos = st.floats(min_value=1e-3, max_value=1e3)


def slow_agm(a, b):
    # straightforward reference iteration, no cleverness
    for _ in range(200):
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        if abs(a - b) <= 1e-15 * a:
            return (a + b) / 2.0
    raise AssertionError("reference agm did not converge")


def test_agm_frozen():
    # precomputed at 40 digits
    assert agm(1.0, 2.0) == pytest.approx(1.4567910310469068692, rel=1e-15)


@given(pos, pos)
def test_agm_matches_reference(a, b):
    assert agm(a, b) == pytest.approx(slow_agm(a, b), rel=1e-13)


@given(pos)
def test_agm_fixed_point(a):
    assert agm(a, a) == pytest.approx(a, rel=1e-15)


@given(pos, pos)
def test_agm_symmetric(a, b):
    assert agm(a, b) == pytest.approx(agm(b, a), rel=1e-14)


@given(pos, pos, st.floats(min_value=1e-2, max_value=1e2))
def test_agm_scaling(a, b, k):
    assert agm(k * a, k * b) == pytest.approx(k * agm(a, b), rel=1e-13)


@given(pos, pos)
def test_agm_between_geometric_and_arithmetic_mean(a, b):
    m = agm(a, b)
    lo = math.sqrt(a * b)
    hi = (a + b) / 2.0
    assert lo * (1 - 1e-14) <= m <= hi * (1 + 1e-14)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0),
                                 (1.0, math.inf)])
def test_agm_domain(a, b):
    with pytest.raises(ValueError):
        agm(a, b)


def test_compute_lattice_calls_agm_through_the_backend_module(monkeypatch):
    # the benchmark tracer wraps octell._backend.agm (`pycore.agm`) and must
    # see both of compute_lattice's calls
    assert octell.agm is octell._backend.agm
    assert octell.Lattice is octell._backend.Lattice
    assert octell.compute_lattice is octell._backend.compute_lattice
    calls = []
    real = octell._backend.agm

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(octell._backend, "agm", counted)
    compute_lattice(derive_params(3.0))
    assert len(calls) == 2


def test_agm_integral_identity():
    # int_0^{pi/2} dt / sqrt(a^2 cos^2 t + b^2 sin^2 t) = pi / (2 agm(a, b))
    for a, b in [(1.0, 2.0), (0.3, 7.0), (2.0, 2.0)]:
        val, err = quad(
            lambda t: 1.0 / math.sqrt(a**2 * math.cos(t) ** 2 + b**2 * math.sin(t) ** 2),
            0.0,
            math.pi / 2.0,
        )
        assert val == pytest.approx(math.pi / (2.0 * agm(a, b)), rel=1e-9)


# periods precomputed at 40 digits
FROZEN_PERIODS = {
    1.2: (1.56753908604583734, 1.88713693011372104),
    (3.0 + math.sqrt(5.0)) / 2.0: (1.4844124734223864529, 1.0094529099892116078),
    3.0: (1.4599026317063392046, 0.93379866719666934579),
    10.0: (1.16866314730664605, 0.497978270963564504),
}


@pytest.mark.parametrize("beta", sorted(FROZEN_PERIODS))
def test_periods_frozen(beta):
    w1, w2i = FROZEN_PERIODS[beta]
    lat = compute_lattice(derive_params(beta))
    assert lat.omega1 == pytest.approx(w1, rel=1e-15)
    assert lat.omega2_im == pytest.approx(w2i, rel=1e-15)
    assert lat.omega2 == complex(0.0, lat.omega2_im)


@pytest.mark.parametrize("beta", [1.5, 3.0, (3.0 + math.sqrt(5.0)) / 2.0])
def test_periods_match_root_integrals(beta):
    # real period: int_{e1}^inf dt/sqrt(4(t-e1)(t-e2)(t-e3)), u^2 = t - e1;
    # imaginary: same through e3 going down. Root gaps are 1/beta, beta, d.
    p = derive_params(beta)
    lat = compute_lattice(p)
    real, _ = quad(
        lambda u: 1.0 / math.sqrt((u * u + 1.0 / beta) * (u * u + beta)),
        0.0,
        math.inf,
    )
    imag, _ = quad(
        lambda u: 1.0 / math.sqrt((u * u + beta) * (u * u + p.d)),
        0.0,
        math.inf,
    )
    assert lat.omega1 == pytest.approx(real, rel=1e-9)
    assert lat.omega2_im == pytest.approx(imag, rel=1e-9)


@given(st.floats(min_value=1.001, max_value=100.0))
def test_period_rectangle_shape(beta):
    lat = compute_lattice(derive_params(beta))
    assert lat.omega1 > 0.0
    assert lat.omega2_im > 0.0


@pytest.mark.parametrize("fields", [
    (1.4, -1.9, 3.0), (-1.4, 1.9, 3.0), (0.0, 1.9, 3.0), (math.nan, 1.0, 3.0),
    (1.4, math.inf, 3.0), (1.4, 1.9, 1.0), (1.4, 1.9, 0.5), (1.4, 1.9, math.nan),
    (1.4, 1.9, math.inf),
])
def test_hand_built_lattice_with_bad_fields_raises(fields):
    # a negative period made the nome > 1 and R tiny (9.4e-44-4.8e-44j at
    # the first one), a NaN one made R NaN; the check runs in Lattice.theta
    with pytest.raises(ValueError, match="omega1|omega2_im|beta") as exc:
        essential_R(0.3 + 0.2j, Lattice(*fields), derive_params(3.0))
    if fields[:2] == (1.4, 1.9):
        # a bad beta: the one domain check, with derive_params' message
        with pytest.raises(ValueError) as ref:
            derive_params(fields[2])
        assert str(exc.value) == str(ref.value)
