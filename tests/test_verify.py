import json
import math

import pytest

from octell import (
    compute_lattice,
    derive_params,
    grid_table,
    half_argument_oracle,
    is_pole,
    sweep,
    verify_claims,
    verify_grid,
)
import octell.verify
from octell.radicals import ClosedFormTable
from octell.verify import _halve_branch


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


def test_halve_branch_selection():
    # beta=3: halving the quarter-period value 1 reaches the eighth-period
    # value beta2*beta3 = (1+sqrt(4/3))(1+2); a 3-decimal probe suffices
    got = _halve_branch(1.0 + 0j, complex(6.464, 0.0), 3.0)
    assert got is not None
    assert got == pytest.approx(6.464101615137754, rel=1e-12)
    # the all-minus-like triples give the other three eighth values
    low = _halve_branch(1.0 + 0j, complex(-0.464, 0.0), 3.0)
    assert low == pytest.approx(-0.46410161513775439, rel=1e-12)


def test_halve_branch_refuses_bad_probe():
    # a probe near none of the four candidates must not produce a value
    got = _halve_branch(6.464101615137754 + 0j, complex(123.0, 45.0), 3.0)
    assert got is None


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


def test_verify_passes_near_beta_floor():
    # 1.01 is close to the domain floor but the four half-argument
    # candidates are still separated by far more than the probe's 1e-3
    # quantization, so every node resolves.
    rep = verify_grid(1.01)
    assert rep.verdict == "pass"


def test_tight_beta_goes_inconclusive_not_wrong():
    # At beta = 1.0001 the crowded candidate pairs near -1 sit ~1.4e-4
    # apart, below what the coarse probe can separate. The oracle must
    # refuse those nodes, and every value it does produce must agree with
    # the closed forms. Wrong-but-confident output is the one forbidden
    # outcome.
    beta = 1.0001
    params = derive_params(beta)
    table = grid_table(params)
    oracle = half_argument_oracle(params, compute_lattice(params))
    inconclusive = 0
    for m in range(9):
        for n in range(9):
            got = oracle[m][n]
            if got is None:
                inconclusive += 1
                continue
            want = table.value(m, n)
            assert is_pole(got) == is_pole(want)
            if not is_pole(want):
                assert abs(got - want) / max(1.0, abs(want)) <= 1e-8
    assert inconclusive > 0

    # verify_grid surfaces the refusals in the triple-source property and
    # fails the verdict; the direct closed-vs-numeric checks still hold.
    rep = verify_grid(beta)
    assert rep.verdict == "fail"
    assert all(c.rel_err <= rep.tol for c in rep.per_node)
    triple = next(
        p for p in rep.property_results if p.name == "triple_source_agreement"
    )
    assert not triple.passed
    assert "inconclusive" in triple.detail
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
