import json
import math
import random

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
        T = real_oracle(params, lat)
        T[1][1] = None
        return T

    monkeypatch.setattr(octell.verify, "half_argument_oracle", one_refused)


def test_to_json_matches_json_dumps_at_seeded_betas(monkeypatch):
    rng = random.Random(50)
    betas = [rng.uniform(1.01, 20.0) for _ in range(30)]
    betas += [1.0 + 10.0 ** rng.uniform(-6.0, math.log10(3e7)) for _ in range(30)]
    seen = set()
    for beta in betas + [1e4, 3e7]:
        rep = verify_grid(beta)
        assert rep.to_json() == _dumps(rep), beta
        triple = next(
            p for p in rep.property_results if p.name == "triple_source_agreement"
        )
        seen.add(rep.verdict)
        if any(c.rel_err > rep.tol for c in rep.per_node):
            seen.add("node_fail")
        if "inconclusive oracle nodes" in triple.detail:
            seen.add("inconclusive")
    # no beta in the domain leaves an oracle node inconclusive, so the
    # inconclusive note comes from a refusing oracle
    _refuse_node_1_1(monkeypatch)
    rep = verify_grid(3.0)
    assert rep.to_json() == _dumps(rep)
    assert "inconclusive oracle nodes [(1, 1)]" in rep.to_json()
    seen.add("inconclusive")
    assert seen == {"pass", "fail", "node_fail", "inconclusive"}


def test_to_json_matches_json_dumps_on_edge_values():
    # every value kind a node can hold, non-finite errors and complex parts,
    # signed zeros, and strings that need escaping
    odd = 'q" b\\ \x07 \x7f \u03b2 \U0001d53c'
    nodes = (
        NodeCheck(0, 0, odd, POLE, POLE, 0.0, 0.0),
        NodeCheck(1, 0, "a", None, complex(-0.0, 0.0), math.inf, math.inf),
        NodeCheck(0, 1, "b", POLE, complex(math.nan, math.inf), math.nan, -1.0),
        NodeCheck(8, 8, "c", complex(-math.inf, -0.0), 5e-324j, 1e300, -math.inf),
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
    for m, n, _sym, closed in table:
        got = oracle[m][n]
        assert got is not None, f"inconclusive at ({m},{n})"
        if is_pole(closed):
            assert is_pole(got)
        else:
            assert abs(got - closed) <= 1e-9 * max(1.0, abs(closed))


def test_oracle_seeds_are_exact(p3, lat3):
    oracle = half_argument_oracle(p3, lat3)
    assert oracle[4][0] == 0j
    assert oracle[0][4] == complex(-3.0)
    assert oracle[4][4] == complex(-1.0 / 3.0)
    for m, n in ((0, 0), (8, 0), (0, 8), (8, 8)):
        assert is_pole(oracle[m][n])


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
    assert all(v is not None for col in oracle for v in col)


@pytest.mark.parametrize("beta", [1.0 + 1e-6, 1.0001, 3.0, 1e6])
def test_oracle_mirrors_exactly(beta):
    params = derive_params(beta)
    oracle = half_argument_oracle(params, compute_lattice(params))
    for m in range(9):
        for n in range(9):
            v, mirrored = oracle[m][n], oracle[8 - m][n]
            if is_pole(v):
                assert is_pole(mirrored)
            else:
                assert mirrored == v.conjugate()
                assert oracle[m][8 - n] == v.conjugate()
                assert oracle[8 - m][8 - n] == v


def test_table_swapped_across_unit_circle_fails(monkeypatch):
    # nodes (1, 0) and (3, 0) hold beta2*beta3 and beta0*beta1, outside and
    # inside |R| = 1; the oracle picks them by geometry, so a table with the
    # two swapped fails the axes check
    real_table = octell.verify.grid_table

    def swapped(params):
        t = real_table(params)
        row = list(t._values[0])
        row[1], row[3] = row[3], row[1]
        return ClosedFormTable(t.beta, (tuple(row), *t._values[1:]), t._symbols)

    monkeypatch.setattr(octell.verify, "grid_table", swapped)
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
            got = oracle[m][n]
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
        assert all(v is not None for col in oracle for v in col), beta
        for m in range(5):
            for n in range(5):
                if m % 4 == 0 and n % 4 == 0:
                    continue  # the exact seeds
                want = mpmath_node_R(beta, m, n)
                err = abs(oracle[m][n] - want) / max(1.0, abs(want))
                assert err <= 1e-12, (beta, m, n, err)


# --- one fixed row orientation, one setup per report ------------------------

def test_mirrored_rows_fail(monkeypatch):
    # row n runs along +omega2; a table transcribed with its rows mirrored
    # (row n holding row 8 - n, the conjugate values) must not pass
    real_table = octell.verify.grid_table

    def mirrored(params):
        t = real_table(params)
        return ClosedFormTable(t.beta, t._values[::-1], t._symbols[::-1])

    monkeypatch.setattr(octell.verify, "grid_table", mirrored)
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
    # 81 nodes, the 4 log-derivative centers and 3 lines of 17 samples per
    # inversion family: the claims read node (2,2) from the numeric grid, and
    # the blue check pairs its lines like the red one, so no line is
    # evaluated twice. The centers are nodes too, but they need R', which the
    # grid does not hold.
    calls = []
    for name in ("essential_R", "log_deriv_sq"):
        real = getattr(octell.verify, name)

        def counted(z, *args, _real=real):
            calls.append(z)
            return _real(z, *args)

        monkeypatch.setattr(octell.verify, name, counted)
    real_values = octell.verify.essential_R_values

    def counted_values(points, lat):
        calls.extend(points)
        return real_values(points, lat)

    monkeypatch.setattr(octell.verify, "essential_R_values", counted_values)
    assert verify_grid(3.0).passed
    assert len(calls) == 81 + 4 + 2 * 3 * 17 == 187
    assert len(set(calls)) == 187 - 4


_RED, _BLUE = "red_circle_inverts_red_lines", "blue_circle_inverts_blue_lines"


@pytest.mark.parametrize(
    "shift, failing, holding",
    [("shift_omega1", _BLUE, _RED), ("shift_omega2", _RED, _BLUE)],
)
def test_perturbed_translation_fails_its_inversion_check(
    monkeypatch, shift, failing, holding
):
    # each inversion check pairs lines through its own family's translation,
    # so a 1e-5 relative error in that map, ten times INVERSION_TOL,
    # must fail it and leave the other family's check passing
    real = getattr(octell.verify, shift)

    def perturbed(v, *args):
        w = real(v, *args)
        return w if is_pole(w) else w * (1.0 + 1e-5)

    monkeypatch.setattr(octell.verify, shift, perturbed)
    props = {p.name: p for p in verify_grid(3.0).property_results}
    assert not props[failing].passed, props[failing].detail
    assert props[holding].passed, props[holding].detail


def test_verify_passes_near_beta_floor():
    # 1.01 is close to the domain floor; the four half-argument candidates
    # still lie in four distinct regions cut by the two mirror circles, so
    # every oracle node resolves.
    rep = verify_grid(1.01)
    assert rep.verdict == "pass"


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
            got, want = oracle[m][n], table.value(m, n)
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


@pytest.mark.parametrize("args", [(0.9, 2.0, 3), (2.0, 1.5, 3), (1.5, 2.0, 0)])
def test_sweep_domain(args):
    with pytest.raises(ValueError):
        sweep(*args)


@pytest.mark.parametrize("steps", [2.9, "3", math.inf])
def test_sweep_steps_must_be_an_int(steps):
    # int() would run 2 betas for 2.9, 3 for "3" and overflow on inf
    with pytest.raises(TypeError):
        sweep(1.5, 2.0, steps)
