import cmath
import math
import random

import pytest
from hypothesis import given, strategies as st

from octell import (
    POLE,
    compute_lattice,
    derive_params,
    essential_R,
    is_pole,
    log_deriv_sq,
    wp,
    wp_lattice_sum_oracle,
    wp_prime,
    wp_with_prime,
)
from octell import _backend
from octell.evaluate import conj, essential_R_values, shift_omega1, shift_omega2
from conftest import GOLDEN_BETA, SAMPLE_BETAS, node_z

# beta - 1 log-uniform over the whole domain, 1e-6 to 1e12
betas = st.floats(min_value=-6.0, max_value=12.0).map(lambda x: 1.0 + 10.0 ** x)
# kept 1% off the cell edges: near a zero or pole of R, the rounding of z + omega
# alone moves R(z + omega) by more than the bound below
fractions = st.floats(min_value=0.01, max_value=0.99)


def cell_points(lat, count, seed):
    """Deterministic points inside the period cell, away from the lattice."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        x = rng.uniform(0.04, 0.96) * 2.0 * lat.omega1
        y = rng.uniform(0.04, 0.96) * 2.0 * lat.omega2_im
        pts.append(complex(x, y))
    return pts


def test_poles_at_lattice_points(p3, lat3):
    for z in (0j, 2.0 * lat3.omega1 + 0j, complex(0.0, 2.0 * lat3.omega2_im),
              complex(4.0 * lat3.omega1, -2.0 * lat3.omega2_im)):
        assert is_pole(wp(z, lat3, p3))
        assert is_pole(wp_prime(z, lat3, p3))
        assert is_pole(essential_R(z, lat3, p3))


def test_half_period_values_exact(p3, lat3):
    w1 = lat3.omega1
    w2 = lat3.omega2
    assert wp(w1 + 0j, lat3, p3) == complex(p3.e1)
    assert wp(w2, lat3, p3) == complex(p3.e3)
    assert wp(w1 + w2, lat3, p3) == complex(p3.e2)
    for h in (w1 + 0j, w2, w1 + w2):
        assert wp_prime(h, lat3, p3) == 0j
    # shifted function: 0, -beta, -1/beta (up to the e_i - alpha rounding)
    assert essential_R(w1 + 0j, lat3, p3) == 0j
    assert essential_R(w2, lat3, p3) == pytest.approx(-3.0, rel=1e-15)
    assert essential_R(w1 + w2, lat3, p3) == pytest.approx(-1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("beta", [3.0, 1.0 + 1e-6])
def test_kernel_returns_values_not_flags(beta):
    # the kernel itself answers at the lattice points and half-periods
    par = derive_params(beta)
    lat = compute_lattice(par)
    w1, w2 = lat.omega1, lat.omega2_im
    assert lat.beta == par.beta
    at = {
        "node": _backend.wp_pair(complex(2.0 * w1, -2.0 * w2), lat.theta),
        "w1": _backend.wp_pair(complex(w1, 0.0), lat.theta),
        "w2": _backend.wp_pair(complex(0.0, w2), lat.theta),
        "w1+w2": _backend.wp_pair(complex(w1, w2), lat.theta),
        "cell": _backend.wp_pair(complex(0.3 * w1, 0.7 * w2), lat.theta),
    }
    assert all(type(v) is tuple and len(v) == 2 for v in at.values())
    assert at["node"][0] is POLE and at["node"][1] is POLE
    exact = {"w1": 0j, "w2": complex(-beta), "w1+w2": complex(-1.0 / beta)}
    for key, want in exact.items():
        r, dr = at[key]
        assert (r, dr) == (want, 0j), key
        assert math.copysign(1.0, r.imag) == math.copysign(1.0, dr.real) == 1.0
    r, dr = at["cell"]
    assert isinstance(r, complex) and isinstance(dr, complex)


@pytest.mark.parametrize("beta", [1.5, 3.0, 10.0])
def test_periodicity(beta):
    p = derive_params(beta)
    lat = compute_lattice(p)
    for z in cell_points(lat, 6, seed=11):
        v = wp(z, lat, p)
        for shift in (2.0 * lat.omega1, 2.0 * lat.omega2, 2.0 * lat.omega1 + 2.0 * lat.omega2):
            v2 = wp(z + shift, lat, p)
            assert v2 == pytest.approx(v, rel=1e-10)


def test_even_and_odd(p3, lat3):
    # the kernel folds z onto one quarter cell and restores signs exactly
    for z in cell_points(lat3, 8, seed=5):
        assert wp(-z, lat3, p3) == wp(z, lat3, p3)
        assert wp_prime(-z, lat3, p3) == -wp_prime(z, lat3, p3)


def test_schwarz_reflection_is_exact(p3, lat3):
    # all kernel arithmetic is sign-symmetric in the imaginary part, so
    # conjugation commutes bit for bit
    for z in cell_points(lat3, 10, seed=7):
        assert wp(z.conjugate(), lat3, p3) == wp(z, lat3, p3).conjugate()
        assert essential_R(z.conjugate(), lat3, p3) == essential_R(z, lat3, p3).conjugate()


@pytest.mark.parametrize("beta", [1.2, 3.0])   # omega1 < omega2_im, then >
def test_axes_exactly_real(beta):
    # R is real on both axes and on the cell edges Re z = +-omega1 and
    # Im z = +-omega2; R' is real on the horizontal lines (Im z = 0, +-omega2)
    # and imaginary on the vertical ones (Re z = 0, +-omega1); the zero
    # imaginary part of R is +0.0
    p = derive_params(beta)
    lat = compute_lattice(p)
    w1, w2i = lat.omega1, lat.omega2_im
    for t in (0.13, 0.5, 0.87, -0.61):
        for horizontal in (complex(t * w1, 0.0), complex(t * w1, w2i), complex(t * w1, -w2i)):
            r = essential_R(horizontal, lat, p)
            assert r.imag == 0.0 and math.copysign(1.0, r.imag) == 1.0
            assert wp_prime(horizontal, lat, p).imag == 0.0
        for vertical in (complex(0.0, t * w2i), complex(w1, t * w2i), complex(-w1, t * w2i)):
            r = essential_R(vertical, lat, p)
            assert r.imag == 0.0 and math.copysign(1.0, r.imag) == 1.0
            assert wp_prime(vertical, lat, p).real == 0.0


@pytest.mark.parametrize("beta", SAMPLE_BETAS)
def test_ode_residual(beta):
    # R'^2 = 4 R (R + beta) (R + 1/beta)
    p = derive_params(beta)
    lat = compute_lattice(p)
    for z in cell_points(lat, 40, seed=int(beta * 1000)):
        pair = wp_with_prime(z, lat, p)
        r = pair[0] - p.alpha
        dr = pair[1]
        resid = abs(dr * dr - 4.0 * r * (r + beta) * (r + 1.0 / beta))
        assert resid <= 1e-8 * (1.0 + abs(r) ** 3)


def test_derivative_matches_finite_difference(p3, lat3):
    h = 1e-5
    for z in cell_points(lat3, 6, seed=3):
        fd = (wp(z + h, lat3, p3) - wp(z - h, lat3, p3)) / (2.0 * h)
        dp = wp_prime(z, lat3, p3)
        assert fd == pytest.approx(dp, rel=5e-7)


def test_wp_with_prime_consistent(p3, lat3):
    z = complex(0.61, 0.47)
    v, dv = wp_with_prime(z, lat3, p3)
    assert v == wp(z, lat3, p3)
    assert dv == wp_prime(z, lat3, p3)


def test_essential_shift(p3, lat3):
    for z in cell_points(lat3, 5, seed=9):
        assert essential_R(z, lat3, p3) == pytest.approx(
            wp(z, lat3, p3) - p3.alpha, rel=1e-14
        )


# --- half-period translations -----------------------------------------------

@given(betas, fractions, fractions)
def test_translations_match_evaluator(beta, fx, fy):
    # z in the lower half of the quarter cell, Im z <= omega2/2: R(z) lies on or
    # outside the red circle |R + beta| = beta/delta, away from the omega2 map's
    # pole at -beta, as the figure's sources do
    p = derive_params(beta)
    lat = compute_lattice(p)
    z = complex(fx * lat.omega1, 0.5 * fy * lat.omega2_im)
    v = essential_R(z, lat, p)
    for got, z2 in ((shift_omega1(v), z + lat.omega1), (shift_omega2(v, p), z + lat.omega2)):
        ref = essential_R(z2, lat, p)
        assert is_pole(got) == is_pole(ref)
        if not is_pole(ref):
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (got, ref)


@pytest.mark.parametrize("beta", [1.0 + 1e-6, 3.0, 1e12])
def test_translations_at_half_periods(beta):
    # the half-period values POLE, 0, -beta, -1/beta map onto each other;
    # POLE <-> 0 and POLE <-> -beta exactly
    p = derive_params(beta)
    assert shift_omega1(POLE) == 0j
    assert is_pole(shift_omega1(0j))
    assert shift_omega2(POLE, p) == complex(-beta)
    assert is_pole(shift_omega2(complex(-beta), p))
    assert shift_omega2(complex(-1.0 / beta), p) == 0j
    assert shift_omega1(complex(-beta)) == complex(-1.0 / beta)
    assert shift_omega1(complex(-1.0 / beta)) == pytest.approx(-beta, rel=1e-15)
    assert shift_omega2(0j, p) == pytest.approx(-1.0 / beta, rel=1e-15)



def test_conj_keeps_pole_and_zero_signs(p3, lat3):
    # the one conjugation the table, the oracle and the figure mirror with:
    # POLE stays POLE, R(conj z) = conj R(z) bit for bit, no -0.0 part
    assert is_pole(conj(POLE))
    for z in cell_points(lat3, 5, seed=3):
        assert conj(essential_R(z, lat3, p3)) == essential_R(z.conjugate(), lat3, p3)
    for v in (complex(2.0, 0.0), complex(-0.0, -0.0), complex(-1.5, 0.0)):
        c = conj(v)
        assert c == v.conjugate()
        assert math.copysign(1.0, c.real) == math.copysign(1.0, v.real + 0.0)
        assert math.copysign(1.0, c.imag) == 1.0

# --- mpmath reference ------------------------------------------------------

MPMATH_BETAS = (1.0 + 1e-6, 1.001, 3.0, 50.0, 1e3, 1e6, 1e12)


def mpmath_R_and_prime(beta, z, dps=40):
    """R = beta cn^2/sn^2 (sqrt(beta) z | 1 - 1/beta^2) and
    R' = -2 beta^(3/2) cn dn / sn^3, at dps digits and the exact float z."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        b = mp.mpf(beta)
        m = 1 - 1 / (b * b)
        sb = mp.sqrt(b)
        u = sb * mp.mpc(z)
        sn, cn, dn = (mp.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
        return complex(b * cn * cn / (sn * sn)), complex(-2 * b * sb * cn * dn / sn**3)


@pytest.mark.parametrize("beta", MPMATH_BETAS)
def test_matches_mpmath_over_the_cell(beta):
    p = derive_params(beta)
    lat = compute_lattice(p)
    worst = 0.0
    for z in cell_points(lat, 8, seed=17):
        ref, dref = mpmath_R_and_prime(beta, z)
        r = essential_R(z, lat, p)
        dr = wp_prime(z, lat, p)
        worst = max(worst, abs(r - ref) / max(1.0, abs(ref)), abs(dr - dref) / max(1.0, abs(dref)))
    assert worst <= 1e-13, f"worst scaled error {worst:.3g} at beta={beta!r}"


# --- exact snaps far from the origin ----------------------------------------

SNAP_BETAS = (GOLDEN_BETA, 3.0, 1.2, 1.001, 50.0, 1e3, 1e6)
SNAP_SPAN = 1000   # periods out, as far as the benchmark's eval workload goes


def mpmath_points(beta, nodes):
    """The floats nearest x*omega1 + i*y*omega2 for (x, y) in nodes, from the
    half-periods K(m)/sqrt(beta), K(1 - m)/sqrt(beta), m = 1 - 1/beta^2."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        b = mp.mpf(beta)
        m = 1 - 1 / (b * b)
        w1, w2 = mp.ellipk(m) / mp.sqrt(b), mp.ellipk(1 - m) / mp.sqrt(b)
        return [complex(float(x * w1), float(y * w2)) for x, y in nodes]


@pytest.mark.parametrize("beta", SNAP_BETAS)
def test_snaps_are_exact_far_from_the_origin(beta):
    # every lattice node within SNAP_SPAN periods is POLE, and every
    # half-period node its exact root: seeded nodes off the axes, and every
    # node on them, where +-(2k+1) omega is a tie of the reduction that lands
    # on +omega or -omega by the parity of k
    p = derive_params(beta)
    lat = compute_lattice(p)
    rng = random.Random(14)
    far = 2 * SNAP_SPAN
    seeded = [(sx * far, sy * far) for sx in (1, -1) for sy in (1, -1)]
    seeded += [
        (2 * rng.randint(-SNAP_SPAN, SNAP_SPAN), 2 * rng.randint(-SNAP_SPAN, SNAP_SPAN))
        for _ in range(200)
    ]
    even, odd = range(-far, far + 1, 2), range(1 - far, far, 2)
    lattice = seeded + [(k, 0) for k in even] + [(0, k) for k in even]
    roots = {(1, 0): 0j, (0, 1): complex(-beta), (1, 1): complex(-1.0 / beta)}
    half = [(a + dx, b + dy) for a, b in seeded for dx, dy in roots]
    half += [(k, 0) for k in odd] + [(0, k) for k in odd]
    misses = [
        node
        for node, z in zip(lattice, mpmath_points(beta, lattice))
        if essential_R(z, lat, p) is not POLE
    ]
    misses += [
        node
        for node, z in zip(half, mpmath_points(beta, half))
        if essential_R(z, lat, p) != roots[node[0] % 2, node[1] % 2]
    ]
    assert misses == []


# --- the R-only list kernel against the joint one ---------------------------

KERNEL_BETAS = [1.0 + 1e-6, 1.2, GOLDEN_BETA, 3.0, 50.0, 1e6, 1e12]


def kernel_points(lat, seed):
    """Seeded points in all four quadrants, both axes and the cell edges with
    +-0.0 components, and lattice points and half-periods up to 1,000
    periods out."""
    rng = random.Random(seed)
    w1, w2 = lat.omega1, lat.omega2_im
    pts = [
        complex(rng.uniform(-2.0, 2.0) * w1, rng.uniform(-2.0, 2.0) * w2)
        for _ in range(200)
    ]
    for _ in range(40):
        x, y = rng.uniform(-w1, w1), rng.uniform(-w2, w2)
        for zero in (0.0, -0.0):
            pts += [complex(x, zero), complex(zero, y)]
        for sx in (1.0, -1.0):
            pts += [complex(sx * w1, y), complex(x, sx * w2), complex(sx * w1, sx * w2)]
    for zx in (0.0, -0.0):
        for zy in (0.0, -0.0):
            pts.append(complex(zx, zy))
    for _ in range(100):
        m, n = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
        for dm, dn in ((0, 0), (1, 0), (0, 1), (1, 1)):
            pts.append(complex((2 * m + dm) * w1, (2 * n + dn) * w2))
    return pts


@pytest.mark.parametrize("beta", KERNEL_BETAS)
def test_list_kernel_matches_wp_pair_bit_for_bit(beta):
    # omega1 < omega2_im at 1 + 1e-6 and 1.2, > from GOLDEN_BETA on, so both
    # lattice orientations are covered
    p = derive_params(beta)
    lat = compute_lattice(p)
    pts = kernel_points(lat, seed=15)
    want = [repr(_backend.wp_pair(z, lat.theta)[0]) for z in pts]
    assert [repr(v) for v in _backend.wp_values(pts, lat.theta)] == want
    assert [repr(v) for v in essential_R_values(pts, lat)] == want
    assert [repr(essential_R(z, lat, p)) for z in pts] == want


def test_list_kernel_covers_both_orientations():
    rotated = {compute_lattice(derive_params(b)).theta.rotated for b in KERNEL_BETAS}
    assert rotated == {False, True}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_non_finite_points_raise_the_same_error(p3, lat3, bad, part):
    z = complex(bad, 0.3) if part == "real" else complex(0.3, bad)
    with pytest.raises(ValueError, match="finite") as one:
        essential_R(z, lat3, p3)
    with pytest.raises(ValueError, match="finite") as many:
        essential_R_values([0.1 + 0.2j, z, 0.2 + 0.1j], lat3)
    assert str(one.value) == str(many.value)


# --- the kernel's range: beta up to about 1.67e153 ---------------------------

def test_largest_supported_beta_matches_mpmath():
    # the nome q is still a normal float at 1e153; the reference needs about
    # 2*log10(beta) extra digits, as 1 - 1/beta^2 is the parameter
    beta = 1e153
    p = derive_params(beta)
    lat = compute_lattice(p)
    worst = 0.0
    for z in cell_points(lat, 3, seed=17):
        ref, dref = mpmath_R_and_prime(beta, z, dps=2 * 153 + 60)
        r = essential_R(z, lat, p)
        dr = wp_prime(z, lat, p)
        worst = max(worst, abs(r - ref) / max(1.0, abs(ref)), abs(dr - dref) / max(1.0, abs(dref)))
    assert worst <= 1e-12, f"worst scaled error {worst:.3g}"


@pytest.mark.parametrize("beta", [1e154, 1e300])
def test_beta_past_the_nome_underflow_raises(beta):
    # from about 1.67e153 the nome is subnormal and the answers lose their
    # digits without notice; from about 1e161 it is 0 and the kernel divided by it
    p = derive_params(beta)
    lat = compute_lattice(p)
    with pytest.raises(ValueError, match="nome"):
        essential_R(complex(0.3 * lat.omega1, 0.2 * lat.omega2_im), lat, p)


# --- lattice-sum cross-check ------------------------------------------------

def disk_points(lat, count, seed):
    """Points within one minimal half-period of the expansion center, where
    the truncated sum has its stated accuracy (error grows like |z|^2)."""
    rng = random.Random(seed)
    rad = min(lat.omega1, lat.omega2_im)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-rad, rad), rng.uniform(-rad, rad))
        if 0.1 <= abs(z) <= rad:
            pts.append(z)
    return pts


def test_lattice_sum_agrees(p3, lat3):
    for z in disk_points(lat3, 8, seed=21):
        fast = wp(z, lat3, p3)
        slow = wp_lattice_sum_oracle(z, lat3, cutoff=200)
        assert abs(slow - fast) <= 1e-6 * max(1.0, abs(fast))


def test_lattice_sum_converges_toward_fast_value(p3, lat3):
    z = complex(0.8 * lat3.omega1, 0.6 * lat3.omega2_im)
    fast = wp(z, lat3, p3)
    errs = [abs(wp_lattice_sum_oracle(z, lat3, cutoff=c) - fast)
            for c in (25, 100, 400)]
    assert errs[2] < errs[0]
    assert errs[2] <= 1e-6


def test_lattice_sum_even(lat3):
    z = complex(0.53, 0.41)
    a = wp_lattice_sum_oracle(z, lat3, cutoff=60)
    b = wp_lattice_sum_oracle(-z, lat3, cutoff=60)
    assert a == pytest.approx(b, rel=1e-12)


def test_lattice_sum_rejects_bad_input(lat3):
    with pytest.raises(ValueError):
        wp_lattice_sum_oracle(complex(0.5, 0.5), lat3, cutoff=5)
    with pytest.raises(ValueError):
        wp_lattice_sum_oracle(0j, lat3, cutoff=50)
    with pytest.raises(ValueError):
        wp_lattice_sum_oracle(2.0 * lat3.omega1 + 0j, lat3, cutoff=50)


# --- log-derivative ---------------------------------------------------------

def test_log_deriv_sq_value(p3, lat3):
    for z in cell_points(lat3, 5, seed=2):
        r = essential_R(z, lat3, p3)
        dr = wp_prime(z, lat3, p3)
        assert log_deriv_sq(z, lat3, p3) == pytest.approx((dr / r) ** 2, rel=1e-12)


def test_log_deriv_sq_at_center_is_4d(p3, lat3):
    z = (lat3.omega1 + lat3.omega2) / 2.0
    assert log_deriv_sq(z, lat3, p3) == pytest.approx(4.0 * p3.d, rel=1e-11)


def test_log_deriv_sq_rejects_zeros_and_poles(p3, lat3):
    with pytest.raises(ValueError):
        log_deriv_sq(0j, lat3, p3)          # pole of R
    with pytest.raises(ValueError):
        log_deriv_sq(lat3.omega1 + 0j, lat3, p3)  # zero of R


def test_rejects_non_finite(p3, lat3):
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError):
            wp(bad, lat3, p3)


def test_near_pole_magnitude(p3, lat3):
    # just outside the pole guard the series still behaves like 1/z^2
    z = complex(1e-5, 1e-5)
    v = wp(z, lat3, p3)
    assert v == pytest.approx(1.0 / (z * z), rel=1e-4)
