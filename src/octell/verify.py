"""Cross-checks: closed forms vs the theta-quotient evaluator vs a
half-argument (bisection) oracle, plus the geometric claims, in one
machine-readable report. `verify_grid` builds each input once and evaluates
R at its 81 nodes and its 6 inversion lines in one kernel call of 183
points, which the node and property checks read. The geometric claims
evaluate their own points: R and R' at the four half-rectangle centers, and
node (2, 2) once more (188 evaluations, 183 distinct points). Node (m, n)
is z = (m*omega1 + n*omega2)/4, so row n runs along +omega2
(`orientation_flipped` is always false). Every comparison of one value of R
with another takes the worst scaled error |a - b| / max(1, |a|) over its
pairs against a limit.

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
import functools
import json
import math
import operator
from collections import namedtuple
from itertools import chain, filterfalse, repeat
from json.encoder import encode_basestring_ascii as _json_str

from ._backend import CurveParams, Lattice, _check_beta, compute_lattice, derive_params
from .evaluate import (
    POLE,
    _nv_json,
    essential_R,
    essential_R_values,
    invert_omega1,
    invert_omega2,
    log_deriv_sq,
    mirror_block,
)
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
        json.dumps(self.to_json_obj(), indent=2).

        A report typed as `verify_grid` types it (finite float numbers, int m
        and n, bool flags, str texts) is one `%` on json.dumps's own text of
        a report of its shape, and each distinct number in it is written by
        one repr. Any other report is written by json.dumps."""
        nodes, props = self.per_node, self.property_results
        ms, ns, symbols, closed, numeric, abs_errs, rel_errs = (
            zip(*nodes) if nodes else ((),) * 7
        )
        names, passes, details = zip(*props) if props else ((),) * 3
        # the skeleton holds m, n and symbols: an equal 2.0 or True may not share it
        if not ({*map(type, ms + ns)} <= {int} and {*map(type, symbols)} <= {str}):
            return json.dumps(self.to_json_obj(), indent=2)
        skeleton, picks, order = _node_skeleton((
            ms, ns, symbols, tuple(map(type, closed)), tuple(map(type, numeric)),
            len(props),
        ))
        values = list(map((closed + numeric).__getitem__, picks))
        nums = [self.beta, self.tol, *map(_REAL, values), *map(_IMAG, values),
                *abs_errs, *rel_errs]
        flags = (self.orientation_flipped, *passes)
        texts = (self.verdict, *names, *details)
        distinct = set(nums)
        if not (
            {*map(type, nums)} == {float}
            and all(map(math.isfinite, distinct))
            # equal numbers share one repr, and 0.0 == -0.0
            and not (0.0 in distinct and -1.0 in map(
                math.copysign, repeat(1.0), filterfalse(None, nums)
            ))
            and {*map(type, flags)} == {bool}
            and {*map(type, texts)} == {str}
        ):
            return json.dumps(self.to_json_obj(), indent=2)
        reprs = dict(zip(distinct, map(repr, distinct)))
        return skeleton % order([
            *map(reprs.__getitem__, nums),
            *map(_BOOL.__getitem__, flags),
            *map(_json_str, texts),
        ])


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


_SLOT = 5e-324  # json.dumps writes it as 5e-324, which no fixed text holds
_BOOL = {True: "true", False: "false"}
_REAL = operator.attrgetter("real")
_IMAG = operator.attrgetter("imag")


@functools.lru_cache(maxsize=1)
def _node_skeleton(shape: tuple) -> tuple:
    """The text of every report of this shape, as (skeleton, picks, order).

    shape is the nodes' m, n and symbols, the types of their closed and
    numeric values and the number of properties. The skeleton is json.dumps's
    text of a report of that shape whose every other field, but a pole or an
    inconclusive value, holds `_SLOT`, with %s in place of each and the
    symbols then written in. `to_json` fills it from one list of field
    texts: beta, tol, the real parts of the values (the picks of
    closed + numeric), their imaginary parts, the abs_errs and the rel_errs;
    orientation_flipped and each pass; the verdict, the names and the
    details. order takes that list into the skeleton's order. One shape is
    kept: every `verify_grid` report has the same.
    """
    ms, ns, symbols, closed, numeric, count = shape
    nodes = len(ms)
    fixed = {type(POLE): POLE, type(None): None}
    slotted = [fixed.get(t, complex(_SLOT, _SLOT)) for t in closed + numeric]
    picks = [i for i, t in enumerate(closed + numeric) if t not in fixed]
    report = VerificationReport(
        _SLOT, _SLOT, _SLOT,
        tuple(NodeCheck(m, n, _SLOT, c, v, _SLOT, _SLOT)
              for m, n, c, v in zip(ms, ns, slotted, slotted[nodes:])),
        (PropertyResult(_SLOT, _SLOT, _SLOT),) * count,
        _SLOT,
    )
    skeleton = json.dumps(report.to_json_obj(), indent=2).replace(repr(_SLOT), "%s")
    # where each run of fields starts in the list
    real = dict(zip(picks, range(2, 2 + len(picks))))
    errs = 2 + 2 * len(picks)
    flags = errs + 2 * nodes
    texts = flags + 1 + count
    symbol = texts + 1 + 2 * count  # past the list: written in below
    order = [0, 1, flags, texts]
    for k in range(nodes):
        order.append(symbol + k)
        for i in (k, nodes + k):
            if i in real:
                order += (real[i], real[i] + len(picks))
        order += (errs + k, errs + nodes + k)
    for j in range(count):
        order += (texts + 1 + j, flags + 1 + j, texts + 1 + count + j)
    written = [_json_str(s).replace("%", "%%") for s in symbols]
    skeleton %= tuple(written[i - symbol] if i >= symbol else "%s" for i in order)
    order = [i for i in order if i < symbol]
    return skeleton, picks, operator.itemgetter(*order)


def _node_z(lat: Lattice, m: int, n: int) -> complex:
    return complex(m * lat.omega1 / 4.0, n * lat.omega2_im / 4.0)


def _worst(refs, others) -> float:
    """The largest scaled error |a - b| / max(1, |a|) over the aligned a in
    refs and b in others, 0.0 if none. Pairs holding a pole or an
    inconclusive None are skipped, and a NaN error never wins."""
    worst = 0.0
    for a, b in zip(refs, others):
        if a is None or b is None or a is POLE or b is POLE:
            continue
        d = abs(a - b)
        s = abs(a)
        err = d / s if s > 1.0 else d
        if err > worst:
            worst = err
    return worst


def _worst_check(
    name: str, limit: float, label: str, worst: float, note: str = ""
) -> PropertyResult:
    """Pass when the worst scaled error is within limit. A non-empty note
    names nodes that could not be compared, and fails."""
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


def half_argument_oracle(params: CurveParams, lat: Lattice):
    """9x9 tuple grid of node values derived without the evaluator, in the
    table's layout: rows n, so [n][m] is node (m, n).

    None marks a node whose branch selection was inconclusive. lat is unused:
    the oracle needs only the curve. ValueError for a beta that is not finite
    and > 1 (a hand-built record).
    """
    beta = params.beta
    _check_beta(beta)
    B = [[None] * 5 for _ in range(5)]  # the base block m, n <= 4, rows n
    # exact half-period seeds
    B[0][0], B[0][4], B[4][0], B[4][4] = POLE, 0j, complex(-beta), complex(-1.0 / beta)
    # each level halves the nodes new on its step, from the mirrored grid of
    # the level before: the quarter-period nodes from the seeds, then the odd
    # nodes from the even block
    for step in (2, 1):
        grid = mirror_block(B)
        for n in range(0, 5, step):
            for m in range(0, 5, step):
                if m % (2 * step) or n % (2 * step):
                    src = grid[2 * n][2 * m]
                    B[n][m] = None if src is None else _halve_branch(src, m, n, params)
    return mirror_block(B)


# ---------------------------------------------------------------------------
# claims

def verify_claims(
    params: CurveParams, lat: Lattice, table: ClosedFormTable
) -> list[PropertyResult]:
    """The geometric/figure claims for one curve, as property results."""
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
    v = essential_R(_node_z(lat, 2, 2), lat, params)
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
    finite = [(m, n, v) for m, n, _symbol, v in table.nodes() if v is not POLE]
    plus = {(m, n) for m, n, v in finite if abs(v - 1.0) <= 1e-9}
    minus = {(m, n) for m, n, v in finite if abs(v + 1.0) <= 1e-9}
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

# sample j of an inversion line lies at _LINE_T[j] * omega/17 along it
_LINE_T = [(j + 0.3) * 2.0 for j in range(17)]


def _report_points(lat: Lattice) -> list:
    """The 183 points of a report's one kernel call: the 81 nodes row by row,
    as `ClosedFormTable.nodes` lists them, then red lines k = 2, 4, 6 and
    then blue lines k = 2, 4, 6 at 17 samples each.

    Each mirror circle's inversion maps line k of its family onto line
    8 - k at the same parameter. Red line k is Im z = k*omega2/8, and
    conjugation then the omega2 translation (inversion in
    |R + beta| = beta/delta) sends it onto red line 8 - k. Blue line k is
    Re z = k*omega1/8, and conjugation then the omega1 translation
    (inversion in |R| = 1) sends it onto Re z = (8 + k)*omega1/8 with the
    parameter reflected, which is blue line 8 - k at the same parameter
    because R is even and 2*omega1-periodic.
    """
    w1, w2i = lat.omega1, lat.omega2_im
    xs = [m * w1 / 4.0 for m in range(9)]
    red_xs = [t * w1 / 17.0 for t in _LINE_T]
    blue_ys = [t * w2i / 17.0 for t in _LINE_T]
    return (
        [complex(x, y) for y in [n * w2i / 4.0 for n in range(9)] for x in xs]
        + [complex(x, y) for y in [k * w2i / 8.0 for k in (2, 4, 6)] for x in red_xs]
        + [complex(x, y) for x in [k * w1 / 8.0 for k in (2, 4, 6)] for y in blue_ys]
    )


def _inversion_check(name: str, vals: list, inverted: list) -> PropertyResult:
    """Lines 6, 4, 2 of vals against inverted, the inversion of lines 2, 4, 6."""
    return _worst_check(
        name,
        INVERSION_TOL,
        "lines k=2,4,6 vs k=6,4,2 (same parameter), max rel err",
        _worst(vals[34:] + vals[17:34] + vals[:17], inverted),
    )


def verify_grid(beta: float, tol: float = 1e-9) -> VerificationReport:
    """Verify all 81 grid nodes and the named identity properties for one beta."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    tol = float(tol)   # a bool or Fraction tol would reach the JSON as itself
    params = derive_params(beta)
    lat = compute_lattice(params)
    table = grid_table(params)
    vals = essential_R_values(_report_points(lat), lat)
    rows = [vals[k:k + 9] for k in range(0, 81, 9)]
    red, blue = vals[81:132], vals[132:]
    oracle = half_argument_oracle(params, lat)

    # one pass over the nodes, row by row in the layout the table, the kernel
    # points and the oracle share: closed forms vs the evaluator against tol,
    # and the worst pairwise error of the nodes where all three sources are
    # finite
    per_node = []
    triple = 0.0
    bad = []
    inconclusive = []
    for (m, n, symbol, closed), num, orc in zip(
        table.nodes(), vals, chain.from_iterable(oracle)
    ):
        if closed is POLE or num is POLE:
            abs_err = rel_err = 0.0 if closed is num else math.inf
        else:
            abs_err = d = abs(closed - num)
            s = abs(closed)
            rel_err = d / s if s > 1.0 else d
        per_node.append(NodeCheck(m, n, symbol, closed, num, abs_err, rel_err))
        if orc is None:
            inconclusive.append((m, n))
        elif not (closed is POLE) == (num is POLE) == (orc is POLE):
            bad.append((m, n))
        elif orc is not POLE:  # all three finite, and s = |closed|
            d = abs(closed - orc)
            err_closed = d / s if s > 1.0 else d
            d = abs(num - orc)
            s_num = abs(num)
            err_num = d / s_num if s_num > 1.0 else d
            for err in (rel_err, err_closed, err_num):
                if err > triple:
                    triple = err
    note = ""
    if inconclusive:
        note += f"; inconclusive oracle nodes {inconclusive}"
    if bad:
        note += f"; pole/finite disagreement at {bad}"

    props = verify_claims(params, lat, table) + [
        _worst_check(
            "triple_source_agreement",
            TRIPLE_TOL,
            "max pairwise scaled err",
            triple,
            note,
        ),
        _worst_check(
            "oracle_matches_closed_on_axes",
            AXES_TOL,
            "max scaled err",
            # row 0 and column 0 of each grid
            _worst(*([*g[0], *[row[0] for row in g]] for g in (table.values, oracle))),
        ),
        # Schwarz reflection between mirror rows: row n against the conjugate
        # of row 8 - n (the conjugate's signed zeros leave every |a - b|
        # unchanged)
        _worst_check(
            "conjugate_node_consistency",
            CONJ_TOL,
            "max scaled err",
            _worst(vals[:81], [
                v if v is POLE else v.conjugate()
                for row in reversed(rows) for v in row
            ]),
        ),
        _inversion_check(
            "red_circle_inverts_red_lines", red, invert_omega2(red, params)
        ),
        _inversion_check("blue_circle_inverts_blue_lines", blue, invert_omega1(blue)),
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
    if not (math.isfinite(beta_min) and math.isfinite(beta_max)):
        # (inf - beta_min) * 0 would make the first beta NaN
        raise ValueError(
            f"beta_min and beta_max must be finite (got {beta_min!r}, {beta_max!r})"
        )
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
