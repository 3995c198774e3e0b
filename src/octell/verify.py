"""Cross-checks: closed forms vs the theta-quotient evaluator vs a
half-argument (bisection) oracle, plus the geometric claims, in one
machine-readable report. `verify_grid` builds each input once and every check
reads it. Node (m, n) is z = (m*omega1 + n*omega2)/4, so row n runs along
+omega2 (`orientation_flipped` is always false). Every comparison of one
value of R with another takes the worst scaled error |a - b| / max(1, |a|)
over its pairs against a limit.

The half-argument oracle rebuilds the base block m, n <= 4 of the grid from
the exact half-period seeds (0, -beta, -1/beta, pole) using only the halving
identity in product form (DLMF ch. 23)

    R(z/2) = (q1 + s*q2)(q1 + t*q3),  q1 = sqrt(R), q2 = sqrt(R + 1/b), q3 = sqrt(R + b)

with one sign pair (s, t) for each of the four halves, and the table's
conjugate mirror: the five quarter-period nodes are halved from the mirrored
seeds, then the odd nodes from the mirrored even block, and the mirror fills
the other 56 nodes. The paper's two mirror circles, |R| = 1 and
|R + beta| = beta/delta, pick among the four branch candidates; the oracle
never calls the evaluator.
"""
from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str

from .evaluate import (
    POLE,
    _nv_json,
    conj,
    essential_R,
    essential_R_values,
    log_deriv_sq,
    mirror_block,
    shift_omega1,
    shift_omega2,
)
from .lattice import Lattice, compute_lattice
from .params import CurveParams, derive_params
from .radicals import ClosedFormTable, grid_table

TRIPLE_TOL = 1e-8     # pairwise source agreement
AXES_TOL = 1e-9       # oracle vs closed forms on the grid axes
CONJ_TOL = 1e-10      # conjugate-node consistency
INVERSION_TOL = 1e-6  # circle-inversion line mapping


class PropertyResult(namedtuple("PropertyResult", "name passed detail")):
    """One named check: whether it passed (bool) and a line of detail (str)."""

    __slots__ = ()


class NodeCheck(namedtuple("NodeCheck", "m n symbol closed numeric abs_err rel_err")):
    """Node (m, n): its symbol, the closed-form and numeric values
    (NodeValue) and their absolute and scaled errors (float)."""

    __slots__ = ()


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "beta tol orientation_flipped per_node property_results verdict",
    )
):
    """The report of `verify_grid`: per_node is a tuple of NodeCheck,
    property_results a tuple of PropertyResult, verdict "pass" or "fail"."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "beta": self.beta,
            "tol": self.tol,
            "orientation_flipped": self.orientation_flipped,
            "verdict": self.verdict,
            "per_node": [
                {
                    "m": c.m,
                    "n": c.n,
                    "symbol": c.symbol,
                    "closed": _nv_json(c.closed),
                    "numeric": _nv_json(c.numeric),
                    "abs_err": _finite_or_none(c.abs_err),
                    "rel_err": _finite_or_none(c.rel_err),
                }
                for c in self.per_node
            ],
            "property_results": [
                {"name": p.name, "pass": p.passed, "detail": p.detail}
                for p in self.property_results
            ],
        }

    def to_json(self) -> str:
        """The report as text, byte-identical to
        json.dumps(self.to_json_obj(), indent=2), written in one pass through
        fixed templates rather than through the indenting encoder."""
        return _REPORT % (
            _num(self.beta),
            _num(self.tol),
            _BOOL[self.orientation_flipped],
            _json_str(self.verdict),
            _array([
                _NODE % (
                    c.m,
                    c.n,
                    _json_str(c.symbol),
                    _nv_text(c.closed),
                    _nv_text(c.numeric),
                    _finite_text(c.abs_err),
                    _finite_text(c.rel_err),
                )
                for c in self.per_node
            ]),
            _array([
                _PROPERTY
                % (_json_str(p.name), _BOOL[p.passed], _json_str(p.detail))
                for p in self.property_results
            ]),
        )


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


# `to_json`'s templates: the indent=2 layout of `to_json_obj`, one per level
_REPORT = """{
  "schema": 1,
  "beta": %s,
  "tol": %s,
  "orientation_flipped": %s,
  "verdict": %s,
  "per_node": %s,
  "property_results": %s
}"""
_NODE = """    {
      "m": %d,
      "n": %d,
      "symbol": %s,
      "closed": %s,
      "numeric": %s,
      "abs_err": %s,
      "rel_err": %s
    }"""
_VALUE = """{
        "re": %s,
        "im": %s
      }"""
_PROPERTY = """    {
      "name": %s,
      "pass": %s,
      "detail": %s
    }"""
_BOOL = {True: "true", False: "false"}
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _num(x: float) -> str:
    """x as json.dumps writes a number: repr, or NaN, Infinity, -Infinity."""
    text = repr(x)
    return _NON_FINITE.get(text, text)


def _finite_text(x: float) -> str:
    return repr(x) if math.isfinite(x) else "null"


def _nv_text(v) -> str:
    if v is None:
        return '"inconclusive"'
    if v is POLE:
        return '"pole"'
    return _VALUE % (_num(v.real), _num(v.imag))


def _array(blocks: list) -> str:
    return "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"


def _node_z(lat: Lattice, m: int, n: int) -> complex:
    return complex(m * lat.omega1 / 4.0, n * lat.omega2_im / 4.0)


def _scaled_err(closed: complex, other: complex) -> float:
    return abs(closed - other) / max(1.0, abs(closed))


def _worst_check(
    name: str, limit: float, label: str, pairs, note: str = ""
) -> PropertyResult:
    """Pass when the largest `_scaled_err` over (reference, other) pairs is
    within limit. Pairs holding a pole or an inconclusive None are skipped; a
    non-empty note names nodes that could not be compared, and fails."""
    errs = [
        _scaled_err(a, b)
        for a, b in pairs
        if not (a is None or b is None or a is POLE or b is POLE)
    ]
    worst = max([0.0, *errs])
    passed = worst <= limit and not note
    return PropertyResult(name, passed, f"{label} {worst:.3e}{note}")


# ---------------------------------------------------------------------------
# half-argument oracle

_GATE = 16.0 * math.ulp(1.0)  # least winning margin of `_halve_branch`


def _halve_branch(v: complex, m: int, n: int, params: CurveParams):
    """R at base-block node (m, n) from v = R at node (2m, 2n), or None.

    With q1 = sqrt(R), q2 = sqrt(R + 1/beta), q3 = sqrt(R + beta) the four
    halves are (q1 +- q2)(q1 +- q3). Each pair multiplies to an exact root
    gap, (q1 + q2)(q1 - q2) = -1/beta and (q1 + q3)(q1 - q3) = -beta, so with
    u and w the larger factor of each pair the candidates are u*w,
    -beta*u/w, -w/(beta*u) and 1/(u*w), none of them a difference of nearly
    equal numbers.

    They are R at the four mirror images of the node in the quarter cell,
    one in each sub-rectangle cut by the midlines, so the paper's mirror
    circles tell them apart: |R| > 1 iff m < 2 (R maps Re z = omega1/2 onto
    |R| = 1), |R + beta| > beta/delta iff n < 2 (Im z = omega2/2 maps onto
    the red circle), and Im R < 0 inside the quarter cell. A test is skipped
    when the node lies on its boundary. The red margin |c + beta| - beta/delta
    is written (|c|^2 + 2 beta Re c + 1)/(|c + beta| + beta/delta), by
    (beta/delta)^2 + 1 = beta^2, so that it subtracts no two numbers of size
    beta. The candidate whose worst signed margin, scaled by max(1, |c|), is
    largest wins; a winning margin within `_GATE` gives None rather than a
    guess.
    """
    beta = params.beta
    radius = beta / params.delta
    q1 = cmath.sqrt(v)
    q2 = cmath.sqrt(v + 1.0 / beta)
    q3 = cmath.sqrt(v + beta)
    # q1 + q and q1 - q: the larger has Re(q1 * conj(q)) >= 0
    u = q1 + q2 if q1.real * q2.real + q1.imag * q2.imag >= 0.0 else q1 - q2
    w = q1 + q3 if q1.real * q3.real + q1.imag * q3.imag >= 0.0 else q1 - q3
    uw = u * w
    unit = (m < 2) - (m > 2)  # +1: outside |R| = 1, -1: inside, 0: no test
    red = (n < 2) - (n > 2)   # the same for the red circle
    inner = 0 < m < 4 and 0 < n < 4
    best, best_margin = None, -math.inf
    for c in (uw, -beta * u / w, -w / (beta * u), 1.0 / uw):
        size = abs(c)
        worst = unit * (size - 1.0) if unit else math.inf
        if red:
            gap = (size * size + 2.0 * beta * c.real + 1.0) / (abs(c + beta) + radius)
            worst = min(worst, red * gap)
        if inner and -c.imag < worst:
            worst = -c.imag
        margin = worst / size if size > 1.0 else worst
        if margin > best_margin:
            best, best_margin = c, margin
    return best if best_margin > _GATE else None


def _mirror_or_none(B):
    """The 9x9 grid from the base block B; an inconclusive None mirrors to None."""
    return mirror_block(B, [[None if v is None else conj(v) for v in row] for row in B])


# the halving order: quarter-period nodes from the mirrored seeds, then the
# odd nodes of the base block from the mirrored even block
_QUARTER_NODES = ((2, 0), (0, 2), (2, 2), (4, 2), (2, 4))
_ODD_NODES = tuple((m, n) for m in range(5) for n in range(5) if m % 2 or n % 2)


def half_argument_oracle(params: CurveParams, lat: Lattice):
    """9x9 array (indexed [m][n]) of node values derived without the evaluator.

    None marks a node whose branch selection was inconclusive. lat is unused:
    the oracle needs only the curve.
    """
    beta = params.beta
    B = [[None] * 5 for _ in range(5)]  # the base block m, n <= 4
    # exact half-period seeds
    B[0][0], B[4][0], B[0][4], B[4][4] = POLE, 0j, complex(-beta), complex(-1.0 / beta)
    for nodes in (_QUARTER_NODES, _ODD_NODES):
        grid = _mirror_or_none(B)
        for m, n in nodes:
            src = grid[2 * m][2 * n]
            B[m][n] = None if src is None else _halve_branch(src, m, n, params)
    return _mirror_or_none(B)


# ---------------------------------------------------------------------------
# claims

def verify_claims(
    params: CurveParams, lat: Lattice, table: ClosedFormTable, numeric=None
) -> list[PropertyResult]:
    """The geometric/figure claims for one curve, as property results.

    numeric, when given, is the evaluator's 9x9 node grid (indexed [m][n]);
    the claims then read node (2, 2) from it instead of evaluating it again.
    """
    beta = params.beta
    d = params.d
    radius = beta / params.delta
    results = []

    # (a) (R'/R)^2 = 4d at the four half-rectangle centers
    q_at = {
        (m, n): log_deriv_sq(_node_z(lat, m, n), lat, params)
        for m, n in ((2, 2), (6, 2), (2, 6), (6, 6))
    }
    centers = {mn: abs(q - 4.0 * d) / (4.0 * d) for mn, q in q_at.items()}
    worst = max([0.0, *centers.values()])
    results.append(
        PropertyResult(
            "log_deriv_sq_at_centers",
            worst <= 1e-9,
            "all four centers give 4d; max rel err "
            + "; ".join(f"({m},{n}): {e:.3e}" for (m, n), e in centers.items()),
        )
    )

    # (b) the center value lies on both circles
    if numeric is None:
        v = essential_R(_node_z(lat, 2, 2), lat, params)
    else:
        v = numeric[2][2]
    e_unit = abs(abs(v) - 1.0)
    e_red = abs(abs(v + beta) - radius) / max(1.0, radius)
    pairing = "(omega1+omega2)/2 -> " + (
        "-conj(gamma)/beta" if v.imag < 0 else "-gamma/beta"
    )
    results.append(
        PropertyResult(
            "center_on_both_circles",
            e_unit <= 1e-10 and e_red <= 1e-10,
            f"| |v|-1 | = {e_unit:.3e}, | |v+beta|-beta/delta | = {e_red:.3e}; {pairing}",
        )
    )

    # (c) circle orthogonality identity
    e_orth = abs(radius * radius + 1.0 - beta * beta) / (beta * beta)
    results.append(
        PropertyResult(
            "circle_orthogonality",
            e_orth <= 1e-12,
            f"(beta/delta)^2 + 1 = beta^2 rel err {e_orth:.3e}",
        )
    )

    # (d) +-1 occur exactly at the order-4 nodes
    plus = set()
    minus = set()
    for m, n, _sym, val in table:
        if val is POLE:
            continue
        if abs(val - 1.0) <= 1e-9:
            plus.add((m, n))
        if abs(val + 1.0) <= 1e-9:
            minus.add((m, n))
    ok_d = plus == {(2, 0), (6, 0), (2, 8), (6, 8)} and minus == {(2, 4), (6, 4)}
    results.append(
        PropertyResult(
            "order4_values_pm1",
            ok_d,
            f"+1 at {sorted(plus)}, -1 at {sorted(minus)}",
        )
    )

    # (e) (R'/R)^2(center) / d = 4 (discriminant_sqrt link: disc = d^2)
    ratio = q_at[(2, 2)] / params.discriminant_sqrt
    e_ratio = abs(ratio - 4.0) / 4.0
    results.append(
        PropertyResult(
            "log_deriv_sq_over_d_is_4",
            e_ratio <= 1e-9,
            f"ratio rel err {e_ratio:.3e}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# grid verification

def _line_inversion_checks(params: CurveParams, lat: Lattice) -> list[PropertyResult]:
    """Each mirror circle's inversion maps line k of its family onto line
    8 - k at the same parameter; spot-check lines k = 2, 4, 6, each evaluated
    once at 17 samples, each line in one kernel call.

    Red line k is Im z = k*omega2/8, and conjugation then the omega2
    translation (inversion in |R + beta| = beta/delta) sends it onto red
    line 8 - k. Blue line k is Re z = k*omega1/8, and conjugation then the
    omega1 translation (inversion in |R| = 1) sends it onto Re z =
    (8 + k)*omega1/8 with the parameter reflected, which is blue line 8 - k
    at the same parameter because R is even and 2*omega1-periodic.
    """
    w1, w2i = lat.omega1, lat.omega2_im

    def check(name, point, translate):
        lines = {
            k: essential_R_values([point(k, j) for j in range(17)], lat)
            for k in (2, 4, 6)
        }
        return _worst_check(
            name,
            INVERSION_TOL,
            "lines k=2,4,6 vs k=6,4,2 (same parameter), max rel err",
            (
                (tgt, translate(v.conjugate()))
                for k in (2, 4, 6)
                for v, tgt in zip(lines[k], lines[8 - k])
            ),
        )

    return [
        check(
            "red_circle_inverts_red_lines",
            lambda k, j: complex((j + 0.3) * 2.0 * w1 / 17.0, k * w2i / 8.0),
            lambda v: shift_omega2(v, params),
        ),
        check(
            "blue_circle_inverts_blue_lines",
            lambda k, j: complex(k * w1 / 8.0, (j + 0.3) * 2.0 * w2i / 17.0),
            shift_omega1,
        ),
    ]


def verify_grid(beta: float, tol: float = 1e-9) -> VerificationReport:
    """Verify all 81 grid nodes and the named identity properties for one beta."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    params = derive_params(beta)
    lat = compute_lattice(params)
    table = grid_table(params)
    numeric = [
        essential_R_values([_node_z(lat, m, n) for n in range(9)], lat)
        for m in range(9)
    ]
    oracle = half_argument_oracle(params, lat)

    # one pass over the nodes: closed forms vs the evaluator against tol, and
    # the pairs that all three sources must agree on
    per_node = []
    triples = []
    bad = []
    inconclusive = []
    for n in range(9):
        for m in range(9):
            closed, num, orc = table.value(m, n), numeric[m][n], oracle[m][n]
            if (closed is POLE) != (num is POLE):
                abs_err = rel_err = math.inf
            elif closed is POLE:
                abs_err = rel_err = 0.0
            else:
                abs_err = abs(closed - num)
                rel_err = _scaled_err(closed, num)
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
    props = verify_claims(params, lat, table, numeric) + [
        _worst_check(
            "triple_source_agreement",
            TRIPLE_TOL,
            "max pairwise scaled err",
            triples,
            note,
        ),
        _worst_check(
            "oracle_matches_closed_on_axes",
            AXES_TOL,
            "max scaled err",
            ((table.value(m, n), oracle[m][n]) for m, n in axes),
        ),
        # Schwarz reflection between mirror rows
        _worst_check(
            "conjugate_node_consistency",
            CONJ_TOL,
            "max scaled err",
            (
                (a, b.conjugate())
                for col in numeric
                for a, b in zip(col, reversed(col))
                if not (a is POLE or b is POLE)
            ),
        ),
        *_line_inversion_checks(params, lat),
    ]

    nodes_pass = all(c.rel_err <= tol for c in per_node)
    verdict = "pass" if nodes_pass and all(p.passed for p in props) else "fail"
    return VerificationReport(
        beta=params.beta,
        tol=tol,
        orientation_flipped=False,
        per_node=tuple(per_node),
        property_results=tuple(props),
        verdict=verdict,
    )


def sweep(beta_min: float, beta_max: float, steps: int, tol: float = 1e-9):
    """verify_grid over an inclusive linspace of beta values; steps is an int."""
    steps = operator.index(steps)   # 2.9 or "3" raises TypeError, not truncated
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not beta_min > 1.0 or not beta_max >= beta_min:
        raise ValueError("need 1 < beta_min <= beta_max")
    if steps == 1:
        betas = [beta_min]
    else:
        last = steps - 1
        betas = [
            beta_max if i == last else beta_min + (beta_max - beta_min) * i / last
            for i in range(steps)
        ]
    return [(b, verify_grid(b, tol)) for b in betas]
