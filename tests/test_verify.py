import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octell import (
    POLE,
    compute_lattice,
    derive_params,
    essential_R,
    grid_table,
    half_argument_oracle,
    is_pole,
    sweep,
    tribonacci_b,
    verify_claims,
    verify_grid,
)
import octell.verify
from octell.radicals import ClosedFormTable
from octell.verify import (
    NodeCheck,
    PropertyResult,
    VerificationReport,
    _halve_branch,
)
from conftest import node_z


@pytest.mark.parametrize("beta", [1.2, 3.0, 10.0])
def test_verify_grid_passes(beta):
    rep = verify_grid(beta)
    assert rep.verdict == "pass"
    assert rep.passed
    assert not rep.orientation_flipped
    assert len(rep.per_node) == 81
    worst = max(c.rel_err for c in rep.per_node)
    assert worst <= 1e-9  # typically closer to 1e-13


def test_verify_grid_corner_checks(p3):
    rep = verify_grid(3.0)
    corners = [c for c in rep.per_node if (c.m, c.n) in
               {(0, 0), (8, 0), (0, 8), (8, 8)}]
    assert len(corners) == 4
    for c in corners:
        assert is_pole(c.closed)
        assert is_pole(c.numeric)
        assert c.abs_err == 0.0


def test_verify_grid_tol_is_plumbed_through():
    # no float computation meets 1e-30, so the verdict must flip to fail
    rep = verify_grid(3.0, tol=1e-30)
    assert rep.verdict == "fail"
    with pytest.raises(ValueError):
        verify_grid(3.0, tol=0.0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_verify_grid_rejects_non_finite_tol(tol):
    # rel_err <= inf holds at every finite node, so tol = inf would pass them
    # all, and the report could not state it as an RFC 8259 number
    with pytest.raises(ValueError, match="finite and positive"):
        verify_grid(3.0, tol=tol)


@pytest.mark.parametrize(
    "tol, want", [(True, 1.0), (Fraction(1, 10**9), 1e-9), (1, 1.0)]
)
def test_verify_grid_writes_a_json_number_for_any_real_tol(tol, want):
    # a bool or Fraction tol once reached the report as `True` or
    # `Fraction(1, 1000000000)`, which is not JSON
    rep = verify_grid(3.0, tol)
    assert type(rep.tol) is float and rep.tol == want
    text = rep.to_json()
    assert json.loads(text)["tol"] == want
    assert text == json.dumps(rep.to_json_obj(), indent=2)


def test_report_json_shape():
    rep = verify_grid(1.5)
    obj = rep.to_json_obj()
    assert obj["schema"] == 1
    assert obj["verdict"] == "pass"
    assert len(obj["per_node"]) == 81
    poles = [e for e in obj["per_node"] if e["closed"] == "pole"]
    assert len(poles) == 4
    finite = [e for e in obj["per_node"] if e["closed"] != "pole"]
    assert {"re", "im"} <= set(finite[0]["closed"])
    # round-trips through the json module
    again = json.loads(rep.to_json())
    assert again["beta"] == 1.5
    names = [p["name"] for p in again["property_results"]]
    assert "triple_source_agreement" in names
    assert "conjugate_node_consistency" in names


def _dumps(rep):
    return json.dumps(rep.to_json_obj(), indent=2)


def _refuse_node_1_1(monkeypatch):
    """Make verify_grid's oracle refuse node (1, 1) as inconclusive."""
    real_oracle = octell.verify.half_argument_oracle

    def one_refused(params, lat):
        T = [list(row) for row in real_oracle(params, lat)]
        T[1][1] = None
        return T

    monkeypatch.setattr(octell.verify, "half_argument_oracle", one_refused)


def _swap_table_nodes_1_0_and_3_0(monkeypatch):
    """Make verify_grid's closed-form table swap nodes (1, 0) and (3, 0)."""
    real_table = octell.verify.grid_table

    def swapped(params):
        t = real_table(params)
        row = list(t.values[0])
        row[1], row[3] = row[3], row[1]
        return ClosedFormTable(t.beta, (tuple(row), *t.values[1:]), t.symbols)

    monkeypatch.setattr(octell.verify, "grid_table", swapped)


def _mirror_table_rows(monkeypatch):
    """Make verify_grid's closed-form table hold row 8 - n as row n."""
    real_table = octell.verify.grid_table

    def mirrored(params):
        t = real_table(params)
        return ClosedFormTable(t.beta, t.values[::-1], t.symbols[::-1])

    monkeypatch.setattr(octell.verify, "grid_table", mirrored)


def _pole_in_table_at_2_2(monkeypatch):
    """Make verify_grid's closed-form table hold POLE at node (2, 2)."""
    real_table = octell.verify.grid_table

    def poled(params):
        t = real_table(params)
        row = list(t.values[2])
        row[2] = POLE
        return ClosedFormTable(
            t.beta, (*t.values[:2], tuple(row), *t.values[3:]), t.symbols
        )

    monkeypatch.setattr(octell.verify, "grid_table", poled)


def _pole_in_evaluator_at_2_2(monkeypatch):
    """Make verify's evaluator return POLE at node (2, 2): index 20 of the
    report's 183 values, and the same point of a reference column."""
    real = octell.verify.essential_R_values

    def poled(points, lat):
        at = node_z(lat, 2, 2)
        return [POLE if z == at else v for z, v in zip(points, real(points, lat))]

    monkeypatch.setattr(octell.verify, "essential_R_values", poled)


def _perturb_inversion(monkeypatch, invert):
    """Scale every finite value of verify's `invert` map by 1 + 1e-5."""
    real = getattr(octell.verify, invert)

    def perturbed(vals, *args):
        return [w if is_pole(w) else w * (1.0 + 1e-5) for w in real(vals, *args)]

    monkeypatch.setattr(octell.verify, invert, perturbed)


def test_to_json_matches_json_dumps_at_seeded_betas(monkeypatch):
    rng = random.Random(50)
    betas = [rng.uniform(1.01, 20.0) for _ in range(30)]
    betas += [1.0 + 10.0 ** rng.uniform(-6.0, math.log10(3e7)) for _ in range(30)]
    for beta in betas + [1e4, 3e7]:
        rep = verify_grid(beta)
        assert rep.to_json() == _dumps(rep), beta
        assert rep.verdict == "pass", beta
    # every seeded beta passes, so the failing report comes from a tol that
    # no node meets
    rep = verify_grid(betas[0], tol=1e-30)
    assert rep.to_json() == _dumps(rep)
    assert rep.verdict == "fail"
    assert any(c.rel_err > rep.tol for c in rep.per_node)
    # no beta here leaves an oracle node inconclusive (beta = 1e14 does), so
    # the inconclusive note comes from a refusing oracle
    _refuse_node_1_1(monkeypatch)
    rep = verify_grid(3.0)
    assert rep.to_json() == _dumps(rep)
    assert "inconclusive oracle nodes [(1, 1)]" in rep.to_json()


def test_to_json_matches_json_dumps_on_edge_values():
    # every value kind a node can hold, non-finite errors and complex parts,
    # signed zeros, strings that need escaping, symbols holding the
    # skeleton's format characters, int errors equal to floats written
    # before them, and a float and an int error of equal value
    odd = 'q" b\\ \x07 \x7f \u03b2 \U0001d53c'
    nodes = (
        NodeCheck(0, 0, odd, POLE, POLE, 0.0, 0.0),
        NodeCheck(1, 0, "50%", None, complex(-0.0, 0.0), math.inf, math.inf),
        NodeCheck(0, 1, "%s", POLE, complex(math.nan, math.inf), math.nan, -1.0),
        NodeCheck(8, 8, "%%", complex(-math.inf, -0.0), 5e-324j, 1e300, -math.inf),
        NodeCheck(2, 0, "%(m)s", complex(1.0, -2.5), complex(-1.0, 2.5), 1, -1),
        NodeCheck(3, 0, "100%d", 0.5j, 0.5j, 2.0, 2),
    )
    props = (
        PropertyResult(odd, True, "tab\there"),
        PropertyResult("claim", False, odd),
    )
    for beta, tol, flipped in ((-0.0, 1e-9, True), (math.nan, math.inf, False)):
        rep = VerificationReport(beta, tol, flipped, nodes, props, odd)
        assert rep.to_json() == _dumps(rep)
    empty = VerificationReport(3.0, 5, False, (), (), "pass")
    assert empty.to_json() == _dumps(empty)

    # node shapes written in the order A, B, A, C, A, where C differs from A
    # in one value kind alone, then a real report: one skeleton is kept
    a = tuple(
        NodeCheck(m, 0, sym, complex(m, -0.5), complex(m, 0.5), 0.0, 1e-12)
        for m, sym in enumerate(("50%", "%s", "%%"))
    )
    b = (
        NodeCheck(0, 0, "inf", POLE, POLE, 0.0, 0.0),
        NodeCheck(1, 0, "%s", None, 0.25j, math.inf, math.inf),
    )
    c = (a[0]._replace(closed=POLE, abs_err=math.inf, rel_err=math.inf), *a[1:])
    for rep in [
        *(VerificationReport(3.0, 1e-9, False, x, (), "pass") for x in (a, b, a, c, a)),
        verify_grid(3.0),
    ]:
        assert rep.to_json() == _dumps(rep)
        assert octell.verify._node_skeleton.cache_info().currsize <= 1


# Reports whose numbers are finite floats but for one kind of number that
# equal numbers do not share the text of: each alone, beside the +0.0 and
# finite floats of every real report.
_ONE_ODD_NUMBER = {
    "negative zero": (complex(-0.0, 0.5), 0.25, 0.0),
    "int error equal to a float error": (0.5 + 0.5j, 2.0, 2),
    "int error before the equal float": (0.5 + 0.5j, 2, 2.0),
    "int parts equal to float numbers": (2, 2.0, 0.0),
    "NaN part": (complex(math.nan, 0.5), 0.25, 0.0),
    "infinite part": (complex(0.5, -math.inf), 0.25, 0.0),
    "NaN error": (0.5 + 0.5j, math.nan, 0.0),
    "infinite error": (0.5 + 0.5j, 0.25, math.inf),
    "bool error": (0.5 + 0.5j, True, 0.0),
}


@pytest.mark.parametrize("odd", list(_ONE_ODD_NUMBER))
def test_to_json_writes_each_odd_number_as_json_dumps(odd):
    value, abs_err, rel_err = _ONE_ODD_NUMBER[odd]
    plain = NodeCheck(2, 0, "1", 1.0 + 0.0j, complex(1.0, 0.0), 0.0, 0.5)
    for nodes in (
        (plain, NodeCheck(1, 0, "x", value, 0.5 + 0.0j, abs_err, rel_err)),
        (NodeCheck(1, 0, "x", 0.5 + 0.0j, value, rel_err, abs_err), plain),
    ):
        rep = VerificationReport(3.0, 1e-9, False, nodes, (), "fail")
        assert rep.to_json() == _dumps(rep)


# Reports with one field of a type `verify_grid` never gives it, as the
# fields it replaces in one node, the one property and the report. json.dumps
# writes each by its type: 2.0 as 2.0, True as true, 1 as 1, None as null.
_ONE_ODD_FIELD = {
    "float m": ({"m": 2.0}, {}, {}),
    "bool m": ({"m": True}, {}, {}),
    "float n": ({"n": 0.0}, {}, {}),
    "int pass": ({}, {"passed": 1}, {}),
    "int orientation_flipped": ({}, {}, {"orientation_flipped": 0}),
    "non-str symbol": ({"symbol": 1}, {}, {}),
    "non-str name": ({}, {"name": None}, {}),
    "non-str detail": ({}, {"detail": 2.5}, {}),
    "non-str verdict": ({}, {}, {"verdict": True}),
}


@pytest.mark.parametrize("odd", list(_ONE_ODD_FIELD))
def test_to_json_writes_each_odd_field_as_json_dumps(odd):
    node, prop, report = _ONE_ODD_FIELD[odd]
    plain = NodeCheck(2, 0, "1", 1.0 + 0.0j, complex(1.0, 0.0), 0.0, 0.5)
    other = NodeCheck(1, 0, "x", 0.5 + 0.0j, 0.5 + 0.5j, 0.25, 0.0)._replace(**node)
    props = (PropertyResult("p", True, "d")._replace(**prop),)
    for nodes in ((plain, other), (other, plain)):
        rep = VerificationReport(3.0, 1e-9, False, nodes, props, "fail")
        rep = rep._replace(**report)
        assert rep.to_json() == _dumps(rep)


def _reports(number, index, flag, value, text):
    """Reports of 0-6 nodes and 0-3 properties with fields drawn from these."""
    node = st.builds(NodeCheck, index, index, text, value, value, number, number)
    prop = st.builds(PropertyResult, text, flag, text)
    return st.builds(
        VerificationReport, number, number, flag,
        st.lists(node, max_size=6).map(tuple),
        st.lists(prop, max_size=3).map(tuple),
        text,
    )


# finite floats with -0.0 among them, and numbers a report often repeats
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.5, 2.0, 5e-324]),
)
_ODD_FLOATS = st.one_of(_FLOATS, st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(["%s", "%%", "5e-324", "NaN", '"', "'", "\\", "\u03b2", "\U0001d53c"]),
        st.text(max_size=3),
    ),
    max_size=4,
).map("".join)
# typed as verify_grid types them, and any type json.dumps writes
_TYPED_REPORTS = _reports(
    _FLOATS,
    st.integers(0, 8),
    st.booleans(),
    st.one_of(st.just(POLE), st.none(), st.builds(complex, _FLOATS, _FLOATS)),
    _TEXTS,
)
_ANY_REPORTS = _reports(
    st.one_of(_ODD_FLOATS, st.integers(), st.booleans()),
    st.one_of(st.integers(0, 8), st.floats(), st.booleans()),
    st.one_of(st.booleans(), st.integers(0, 1)),
    st.one_of(
        st.just(POLE), st.none(), st.builds(complex, _ODD_FLOATS, _ODD_FLOATS),
        st.integers(),
    ),
    st.one_of(_TEXTS, st.none(), st.integers(-2, 2)),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_TYPED_REPORTS, _ANY_REPORTS))
def test_to_json_matches_json_dumps_on_hand_built_reports(rep):
    assert rep.to_json() == _dumps(rep)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-6.0, max_value=math.log10(3e7)))
def test_to_json_matches_json_dumps_over_the_table_domain(log_gap):
    rep = verify_grid(1.0 + 10.0 ** log_gap)
    assert rep.to_json() == json.dumps(rep.to_json_obj(), indent=2)


def test_property_results_all_pass():
    rep = verify_grid((3.0 + math.sqrt(5.0)) / 2.0)
    for prop in rep.property_results:
        assert prop.passed, f"{prop.name}: {prop.detail}"


def test_claims_standalone(p3, lat3):
    results = verify_claims(p3, lat3, grid_table(p3))
    names = {r.name for r in results}
    assert names == {
        "log_deriv_sq_at_centers",
        "center_on_both_circles",
        "circle_orthogonality",
        "order4_values_pm1",
        "log_deriv_sq_over_d_is_4",
    }
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"


# --- half-argument oracle ---------------------------------------------------

@pytest.mark.parametrize("beta", [1.5, 3.0])
def test_oracle_matches_closed_forms(beta):
    params = derive_params(beta)
    lat = compute_lattice(params)
    table = grid_table(params)
    oracle = half_argument_oracle(params, lat)
    for m, n, _sym, closed in table.nodes():
        got = oracle[n][m]
        assert got is not None, f"inconclusive at ({m},{n})"
        if is_pole(closed):
            assert is_pole(got)
        else:
            assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed))


def test_oracle_seeds_are_exact(p3, lat3):
    oracle = half_argument_oracle(p3, lat3)
    assert oracle[0][4] == 0j
    assert oracle[4][0] == complex(-3.0)
    assert oracle[4][4] == complex(-1.0 / 3.0)
    for m, n in ((0, 0), (8, 0), (0, 8), (8, 8)):
        assert is_pole(oracle[n][m])


def test_oracle_uses_the_table_layout(p3, lat3):
    # rows n, columns m, as the closed-form table: [0][4] is node (4, 0) =
    # omega1 and [4][0] is node (0, 4) = omega2
    oracle = half_argument_oracle(p3, lat3)
    assert oracle[0][4] == 0j
    assert oracle[4][0] == complex(-3.0)
    table = grid_table(p3)
    for m, n, _sym, _closed in table.nodes():
        got, want = oracle[n][m], table.values[n][m]
        assert got is not None and is_pole(got) == is_pole(want), (m, n)
        if not is_pole(want):
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (m, n)


def test_halve_branch_selection(p3):
    # beta=3: the four halves of the quarter-period value 1 (nodes (2, 0) and
    # (2, 8)) are R at the four mirror images (1, 0), (3, 0), (1, 4), (3, 4):
    # beta2*beta3 outside the unit circle and beta0*beta1 inside it on the
    # real axis, and beta0*beta2, beta1*beta3 inside the red circle
    want = {
        (1, 0): 6.464101615137754,
        (3, 0): 0.15470053837925146,
        (1, 4): -2.1547005383792515,
        (3, 4): -0.4641016151377544,
    }
    for (m, n), value in want.items():
        assert _halve_branch(1.0 + 0j, m, n, p3) == pytest.approx(value, rel=1e-12)


def test_halve_branch_refuses_node_on_its_boundary(p3):
    # the halves of 0 are +-1, R at (2, 0) and (2, 4), on the unit circle:
    # none lies strictly outside it as node (1, 0) requires, so the winning
    # margin is within the fixed gate of 16 eps and the node is refused, not
    # guessed
    assert _halve_branch(0j, 1, 0, p3) is None
    assert _halve_branch(0j, 2, 0, p3) == pytest.approx(1.0, rel=1e-15)
    # halving a tiny positive v puts the halves 2.3*sqrt(v) off the circle:
    # about 4 eps is within the gate, about 32 eps clears it
    for m in (1, 3):
        assert _halve_branch(complex(1.6e-31), m, 0, p3) is None
        assert _halve_branch(complex(1e-29), m, 0, p3) == pytest.approx(1.0, rel=1e-13)


def test_oracle_never_calls_the_evaluator(monkeypatch, p3, lat3):
    def forbidden(*args):
        raise AssertionError("the oracle called the evaluator")

    monkeypatch.setattr(octell.verify, "essential_R", forbidden)
    monkeypatch.setattr(octell.verify, "essential_R_values", forbidden)
    oracle = half_argument_oracle(p3, lat3)
    assert all(v is not None for row in oracle for v in row)


@pytest.mark.parametrize("beta", [1.0 + 1e-6, 1.0001, 3.0, 1e6])
def test_oracle_mirrors_exactly(beta):
    params = derive_params(beta)
    oracle = half_argument_oracle(params, compute_lattice(params))
    for m in range(9):
        for n in range(9):
            v, mirrored = oracle[n][m], oracle[n][8 - m]
            if is_pole(v):
                assert is_pole(mirrored)
            else:
                assert mirrored == v.conjugate()
                assert oracle[8 - n][m] == v.conjugate()
                assert oracle[8 - n][8 - m] == v


def test_table_swapped_across_unit_circle_fails(monkeypatch):
    # nodes (1, 0) and (3, 0) hold beta2*beta3 and beta0*beta1, outside and
    # inside |R| = 1; the oracle picks them by geometry, so a table with the
    # two swapped fails the axes check
    _swap_table_nodes_1_0_and_3_0(monkeypatch)
    rep = verify_grid(3.0)
    assert rep.verdict == "fail"
    axes = next(
        p for p in rep.property_results if p.name == "oracle_matches_closed_on_axes"
    )
    assert not axes.passed


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-6.0, max_value=12.0).map(lambda x: 1.0 + 10.0 ** x))
def test_oracle_conclusive_nodes_match_evaluator(beta):
    # beta - 1 log-uniform over the whole domain: every node is conclusive,
    # and the product form's error does not grow with beta
    params = derive_params(beta)
    lat = compute_lattice(params)
    oracle = half_argument_oracle(params, lat)
    for m in range(9):
        for n in range(9):
            got = oracle[n][m]
            assert got is not None, (m, n)
            want = essential_R(node_z(lat, m, n), lat, params)
            assert is_pole(got) == is_pole(want), (m, n)
            if not is_pole(want):
                assert abs(got - want) / max(1.0, abs(want)) <= 1e-12, (m, n)


def mpmath_node_R(beta, m, n):
    """R at the exact node (m*omega1 + n*omega2)/4 at 40 digits:
    beta cn^2/sn^2 (u | 1 - 1/beta^2) at u = (m K + i n K')/4."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        b = mp.mpf(beta)
        k = 1 / (b * b)
        u = mp.mpc(m * mp.ellipk(1 - k), n * mp.ellipk(k)) / 4
        sn, cn = (mp.ellipfun(f, u, m=1 - k) for f in ("sn", "cn"))
        return complex(b * cn * cn / (sn * sn))


def test_oracle_matches_mpmath_over_the_domain():
    # beta - 1 log-uniform on [1e-6, 1e12]; the base block m, n <= 4 against
    # mpmath; the other nodes are its exact mirrors (test_oracle_mirrors_exactly)
    rng = random.Random(11)
    betas = [1.0 + 10.0 ** rng.uniform(-6.0, 12.0) for _ in range(10)]
    for beta in betas + [1.0 + 1e-6, 1e12]:
        params = derive_params(beta)
        oracle = half_argument_oracle(params, compute_lattice(params))
        assert all(v is not None for row in oracle for v in row), beta
        for m in range(5):
            for n in range(5):
                if m % 4 == 0 and n % 4 == 0:
                    continue  # the exact seeds
                want = mpmath_node_R(beta, m, n)
                err = abs(oracle[n][m] - want) / max(1.0, abs(want))
                assert err <= 1e-12, (beta, m, n, err)


# --- one fixed row orientation, one setup per report ------------------------

def test_mirrored_rows_fail(monkeypatch):
    # row n runs along +omega2; a table transcribed with its rows mirrored
    # (row n holding row 8 - n, the conjugate values) must not pass
    _mirror_table_rows(monkeypatch)
    rep = verify_grid(3.0)
    assert rep.verdict == "fail"
    assert not rep.orientation_flipped
    triple = next(
        p for p in rep.property_results if p.name == "triple_source_agreement"
    )
    assert not triple.passed


def test_report_builds_each_input_once(monkeypatch):
    calls = {}
    for name in ("grid_table", "derive_params", "compute_lattice"):
        real = getattr(octell.verify, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(octell.verify, name, counted)
    assert verify_grid(3.0).passed
    assert calls == {"grid_table": 1, "derive_params": 1, "compute_lattice": 1}


def test_report_evaluates_each_point_once(monkeypatch):
    # 81 nodes, the 4 log-derivative centers, the claims' center node (2,2)
    # and 3 lines of 17 samples per inversion family: the blue check pairs
    # its lines like the red one, so no line is evaluated twice. The centers
    # are nodes too, but they need R', which the grid does not hold; the
    # claims evaluate node (2,2) on their own, one point. The grid and both
    # inversion families share one kernel call of 183 points.
    calls = []
    sizes = []
    for name in ("essential_R", "log_deriv_sq"):
        real = getattr(octell.verify, name)

        def counted(z, *args, _real=real):
            calls.append(z)
            return _real(z, *args)

        monkeypatch.setattr(octell.verify, name, counted)
    real_values = octell.verify.essential_R_values

    def counted_values(points, lat):
        calls.extend(points)
        sizes.append(len(points))
        return real_values(points, lat)

    monkeypatch.setattr(octell.verify, "essential_R_values", counted_values)
    assert verify_grid(3.0).passed
    assert len(calls) == 81 + 4 + 1 + 2 * 3 * 17 == 188
    assert sizes == [81 + 2 * 3 * 17] == [183]
    assert len(set(calls)) == 188 - 5


_RED, _BLUE = "red_circle_inverts_red_lines", "blue_circle_inverts_blue_lines"


@pytest.mark.parametrize(
    "invert, failing, holding",
    [("invert_omega1", _BLUE, _RED), ("invert_omega2", _RED, _BLUE)],
)
def test_perturbed_translation_fails_its_inversion_check(
    monkeypatch, invert, failing, holding
):
    # each inversion check pairs lines through its own family's inversion,
    # so a 1e-5 relative error in that map, ten times INVERSION_TOL,
    # must fail it and leave the other family's check passing
    _perturb_inversion(monkeypatch, invert)
    props = {p.name: p for p in verify_grid(3.0).property_results}
    assert not props[failing].passed, props[failing].detail
    assert props[holding].passed, props[holding].detail


def test_verify_passes_near_beta_floor():
    # 1.01 is close to the domain floor; the four half-argument candidates
    # still lie in four distinct regions cut by the two mirror circles, so
    # every oracle node resolves.
    rep = verify_grid(1.01)
    assert rep.verdict == "pass"


_B = tribonacci_b()


@pytest.mark.parametrize(
    "beta", [_B - 1e-7, _B - 1e-8, _B + 1e-8, _B + 1e-7, 4.5e7, 6e7, 1e8, 1e12]
)
def test_verify_passes_next_to_b_and_past_delta_one(beta):
    # next to the tribonacci constant b the order-8 cubic w^3 - w^2 - w - 1
    # cancels to order beta - b, and from about 4.5e7 delta rounds to 1 as a
    # float; the catalog forms both from the exact beta
    assert verify_grid(beta).verdict == "pass"


def test_tight_beta_resolves_every_node():
    # At beta = 1.0001 the candidate pairs near -1 sit ~1.4e-4 apart, but the
    # mirror circles still separate them by far more than rounding: all 81
    # nodes are conclusive and agree with the closed forms.
    beta = 1.0001
    params = derive_params(beta)
    table = grid_table(params)
    oracle = half_argument_oracle(params, compute_lattice(params))
    for m in range(9):
        for n in range(9):
            got, want = oracle[n][m], table.value(m, n)
            assert got is not None, (m, n)
            assert is_pole(got) == is_pole(want)
            if not is_pole(want):
                assert abs(got - want) / max(1.0, abs(want)) <= 1e-8
    assert verify_grid(beta).verdict == "pass"


def test_inconclusive_oracle_node_fails_verdict(monkeypatch):
    # an oracle node refused as inconclusive must fail the verdict through
    # the triple-source property, never pass on luck; the direct
    # closed-vs-numeric checks still hold
    _refuse_node_1_1(monkeypatch)
    rep = verify_grid(3.0)
    assert rep.verdict == "fail"
    assert all(c.rel_err <= rep.tol for c in rep.per_node)
    triple = next(
        p for p in rep.property_results if p.name == "triple_source_agreement"
    )
    assert not triple.passed
    assert "inconclusive oracle nodes [(1, 1)]" in triple.detail
    assert "pole/finite disagreement" not in triple.detail


# --- sweep ------------------------------------------------------------------

def test_sweep_all_pass():
    out = sweep(1.3, 4.0, 4)
    assert len(out) == 4
    assert out[0][0] == 1.3
    assert out[-1][0] == 4.0
    for beta, rep in out:
        assert rep.passed, f"beta={beta}"


def test_sweep_single_step():
    out = sweep(2.0, 2.0, 1)
    assert len(out) == 1


@pytest.mark.parametrize("args, match", [
    pytest.param((0.9, 2.0, 3), "need 1 < beta_min", id="args0"),
    pytest.param((2.0, 1.5, 3), "need 1 < beta_min", id="args1"),
    pytest.param((1.5, 2.0, 0), "steps must be", id="args2"),
    # an infinite bound ran a passing sweep at one step, and a NaN beta at two
    pytest.param((2.0, math.inf, 1), r"must be finite \(got 2\.0, inf\)", id="args3"),
    pytest.param((2.0, math.inf, 2), r"must be finite \(got 2\.0, inf\)", id="args4"),
])
def test_sweep_domain(args, match):
    with pytest.raises(ValueError, match=match):
        sweep(*args)


@pytest.mark.parametrize("steps", [2.9, "3", math.inf])
def test_sweep_steps_must_be_an_int(steps):
    # int() would run 2 betas for 2.9, 3 for "3" and overflow on inf
    with pytest.raises(TypeError):
        sweep(1.5, 2.0, steps)


# --- the report against a pairwise reference ---------------------------------
#
# A reference check path that works pair by pair: one `_scaled_err` call per
# pair, a worst-of-pairs `_worst_check`, one kernel call per numeric column
# and per inversion family, and the nodes' pairs collected for triple
# agreement. verify_grid must give the same record and the same JSON text.
# The reference looks every input up on octell.verify, so the monkeypatches
# above reach it as they reach verify_grid.

def _ref_scaled_err(closed, other):
    return abs(closed - other) / max(1.0, abs(closed))


def _ref_worst_check(name, limit, label, pairs, note=""):
    errs = [
        _ref_scaled_err(a, b)
        for a, b in pairs
        if not (a is None or b is None or a is POLE or b is POLE)
    ]
    worst = max([0.0, *errs])
    passed = worst <= limit and not note
    return PropertyResult(name, passed, f"{label} {worst:.3e}{note}")


def _ref_line_inversion_checks(params, lat):
    V = octell.verify
    w1, w2i = lat.omega1, lat.omega2_im

    def check(name, point, invert):
        vals = V.essential_R_values(
            [point(k, j) for k in (2, 4, 6) for j in range(17)], lat
        )
        targets = vals[34:] + vals[17:34] + vals[:17]
        return _ref_worst_check(
            name,
            V.INVERSION_TOL,
            "lines k=2,4,6 vs k=6,4,2 (same parameter), max rel err",
            zip(targets, invert(vals)),
        )

    return [
        check(
            "red_circle_inverts_red_lines",
            lambda k, j: complex((j + 0.3) * 2.0 * w1 / 17.0, k * w2i / 8.0),
            lambda vals: V.invert_omega2(vals, params),
        ),
        check(
            "blue_circle_inverts_blue_lines",
            lambda k, j: complex(k * w1 / 8.0, (j + 0.3) * 2.0 * w2i / 17.0),
            V.invert_omega1,
        ),
    ]


def _ref_verify_grid(beta, tol=1e-9):
    V = octell.verify
    params = V.derive_params(beta)
    lat = V.compute_lattice(params)
    table = V.grid_table(params)
    numeric = [
        V.essential_R_values([node_z(lat, m, n) for n in range(9)], lat)
        for m in range(9)
    ]
    oracle = V.half_argument_oracle(params, lat)
    per_node, triples, bad, inconclusive = [], [], [], []
    for n in range(9):
        for m in range(9):
            closed, num, orc = table.value(m, n), numeric[m][n], oracle[n][m]
            if (closed is POLE) != (num is POLE):
                abs_err = rel_err = math.inf
            elif closed is POLE:
                abs_err = rel_err = 0.0
            else:
                abs_err = abs(closed - num)
                rel_err = _ref_scaled_err(closed, num)
            per_node.append(
                NodeCheck(m, n, table.symbol(m, n), closed, num, abs_err, rel_err)
            )
            if orc is None:
                inconclusive.append((m, n))
            elif len({closed is POLE, num is POLE, orc is POLE}) == 2:
                bad.append((m, n))
            else:
                triples += ((closed, num), (closed, orc), (num, orc))
    note = ""
    if inconclusive:
        note += f"; inconclusive oracle nodes {inconclusive}"
    if bad:
        note += f"; pole/finite disagreement at {bad}"
    axes = [(k, 0) for k in range(9)] + [(0, k) for k in range(9)]
    props = V.verify_claims(params, lat, table) + [
        _ref_worst_check(
            "triple_source_agreement", V.TRIPLE_TOL, "max pairwise scaled err",
            triples, note,
        ),
        _ref_worst_check(
            "oracle_matches_closed_on_axes", V.AXES_TOL, "max scaled err",
            ((table.value(m, n), oracle[n][m]) for m, n in axes),
        ),
        _ref_worst_check(
            "conjugate_node_consistency", V.CONJ_TOL, "max scaled err",
            (
                (a, b.conjugate())
                for col in numeric
                for a, b in zip(col, reversed(col))
                if not (a is POLE or b is POLE)
            ),
        ),
        *_ref_line_inversion_checks(params, lat),
    ]
    nodes_pass = all(c.rel_err <= tol for c in per_node)
    verdict = "pass" if nodes_pass and all(p.passed for p in props) else "fail"
    return VerificationReport(
        params.beta, tol, False, tuple(per_node), tuple(props), verdict
    )


def _assert_matches_reference(beta, tol=1e-9):
    rep, ref = verify_grid(beta, tol), _ref_verify_grid(beta, tol)
    assert rep == ref and repr(rep) == repr(ref), beta
    assert rep.to_json() == _dumps(ref), beta
    return rep


def test_report_matches_pairwise_reference_at_seeded_betas():
    rng = random.Random(17)
    betas = [rng.uniform(1.01, 20.0) for _ in range(20)]
    betas += [1.0 + 10.0 ** rng.uniform(-6.0, math.log10(3e7)) for _ in range(20)]
    verdicts = {_assert_matches_reference(beta).verdict for beta in betas}
    assert verdicts == {"pass"}
    # the failing report: a seeded beta at a tol no node meets
    rep = _assert_matches_reference(betas[0], tol=1e-30)
    assert rep.verdict == "fail"
    assert any(c.rel_err > rep.tol for c in rep.per_node)


@pytest.mark.parametrize(
    "patch",
    [
        _refuse_node_1_1,
        _swap_table_nodes_1_0_and_3_0,
        _mirror_table_rows,
        lambda mp: _perturb_inversion(mp, "invert_omega1"),
        lambda mp: _perturb_inversion(mp, "invert_omega2"),
        _pole_in_table_at_2_2,
        _pole_in_evaluator_at_2_2,
    ],
    ids=[
        "refused", "swapped", "mirrored", "perturbed_omega1", "perturbed_omega2",
        "table_pole", "evaluator_pole",
    ],
)
def test_report_matches_pairwise_reference_when_a_check_fails(monkeypatch, patch):
    patch(monkeypatch)
    for beta in (1.5, 3.0, 1e4):
        assert _assert_matches_reference(beta).verdict == "fail", beta
