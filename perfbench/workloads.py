"""The three workloads: inputs from a seed, one op per call, output checks.

Each workload generates its whole input pool from the seed, builds its mpmath
references for a seeded subset of that pool, and then serves ops from the
pool in order, wrapping round when the run outlasts it. `call(i)` is the
timed part: exactly the public octell call a user makes. `judge(i, out)`
runs after the timer stops, on every output that is not an exception: it
gives the op one of three outcomes and checks the output against the
references, or keeps it for `check()`, which runs once the loop is over.

- PASS: the answer the user asked for.
- LIMIT: a well-formed answer that is not a pass, at a limit the program
  has today and ROADMAP item 3 names: a `fail` verdict, the CLI's exit 2
  with its one-line error, or a huge finite value instead of POLE at a
  lattice node far from the origin. These ops do not pass; `pass_ratio`
  counts them against the program.
- FAIL: no usable answer at all: an exception, a non-finite value, POLE
  where there is no pole, a small finite value where there is one, an exit
  code the CLI does not define, exit 2 without its error line, or a report
  that is missing or breaks its schema. Only these are `failed` ops.

Outcomes and correctness are separate. `correct` turns false only when an
answer the program presents as valid contradicts the reference by more than
the tolerance the program itself claims for it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path
from types import SimpleNamespace

import octell.cli
import octell.evaluate
import octell.figure

from reference import Curve, scaled_err

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0

PASS, LIMIT, FAIL = "pass", "limit", "fail"


def stratified(rng, n: int, lo: float, hi: float) -> list[float]:
    """n jittered-stratified draws on [lo, hi], shuffled.

    One draw per equal stratum keeps the mix of easy and hard inputs nearly
    the same from seed to seed, which keeps the run-to-run spread small.
    """
    xs = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(xs)
    return xs


class Workload:
    n_inputs = 1
    warmup = 1    # untimed ops first, so one-time lazy set-up is not timed

    def __init__(self, rng, out_dir: Path):
        self.max_err = 0.0     # worst scaled error over every checked output
        self.wrong = []        # checked answers beyond the claimed tolerance
        self.reset_stats()

    def input_of(self, k: int) -> int:
        """The pool entry op number k serves."""
        return k % self.n_inputs

    def reset_stats(self):
        self.stats = {}

    def _count(self, key, amount=1):
        self.stats[key] = self.stats.get(key, 0) + amount

    def check(self):
        pass

    def close(self):
        pass

    def _record(self, err: float, tol, what: str):
        self.max_err = max(self.max_err, err)
        if tol is not None and not err <= tol:
            self.wrong.append(f"{what}: scaled err {err:.3e} > {tol:.0e}")


# ---------------------------------------------------------------------------
# figure

_GROUP_RE = re.compile(r'<g data-line="(\d+)">(.*?)</g>')
_POINTS_RE = re.compile(r'points="([^"]*)"')

FIG_LINES = 16
FIG_SAMPLES = 512
FIG_EVALS = 2 * (FIG_LINES + 1) * (FIG_SAMPLES + 1)   # 17,442
# %.9g keeps nine significant digits; allow one unit in the last of them.
FIG_TOL = 1e-8


class Figure(Workload):
    """Default-size `render_figure`, golden beta alternating with seeded beta.

    An op takes about a fifth of a second, so a 36 s run holds 120-150
    ops: golden beta (input 0) is served in half of them and each of the 8
    seeded betas, one per stratum of beta - 1, in a sixteenth. Eight of
    them keep the seeded half's cost, which varies by some 20% with beta,
    nearly the same from seed to seed.
    """

    POOL = 8
    n_inputs = 1 + POOL
    CHECKS_GOLDEN = 16
    CHECKS_SEEDED = 6

    def __init__(self, rng, out_dir):
        super().__init__(rng, out_dir)
        self.pool = [1.0 + 10.0 ** x for x in stratified(rng, self.POOL, -2.0, 2.0)]
        self.refs = {}
        for beta in [GOLDEN] + self.pool:
            count = self.CHECKS_GOLDEN if beta == GOLDEN else self.CHECKS_SEEDED
            self.refs[beta] = self._vertices(rng, beta, count)

    def input_of(self, k: int) -> int:
        return 0 if k % 2 == 0 else 1 + (k // 2) % self.POOL

    def beta(self, i: int) -> float:
        return GOLDEN if i == 0 else self.pool[i - 1]

    @staticmethod
    def _vertices(rng, beta, count):
        """(group index, reference value) for `count` seeded samples whose
        true value is finite and well inside the clip radius, so they must
        be drawn."""
        cur = Curve(beta)
        clip = 4.0 * beta
        out = []
        while len(out) < count:
            k = rng.randrange(FIG_LINES + 1)
            j = rng.randrange(1, FIG_SAMPLES)
            red = rng.random() < 0.5
            if red:   # horizontal line k: z = j*2w1/S + i*k*2w2/L
                z = cur.point(2.0 * j / FIG_SAMPLES, 2.0 * k / FIG_LINES)
            else:     # vertical line k: z = k*2w1/L + i*j*2w2/S
                z = cur.point(2.0 * k / FIG_LINES, 2.0 * j / FIG_SAMPLES)
            ref = cur.R(z)   # 0 < j < S keeps every sample off the lattice
            if math.isfinite(abs(ref)) and abs(ref) <= 0.5 * clip:
                out.append((k if red else FIG_LINES + 1 + k, ref))
        return out

    def call(self, i):
        return octell.figure.render_figure(octell.figure.FigureConfig(beta=self.beta(i)))

    def judge(self, i, out) -> bool:
        groups = _GROUP_RE.findall(out)
        expect = [str(k) for k in range(FIG_LINES + 1)] * 2
        if [k for k, _ in groups] != expect or not out.endswith("</svg>\n"):
            self._count("malformed_svg")
            return FAIL
        drawn = 0
        beta = self.beta(i)
        wanted = {}
        for g, ref in self.refs[beta]:
            wanted.setdefault(g, []).append(ref)
        for g, (_, body) in enumerate(groups):
            pts = [p for run in _POINTS_RE.findall(body) for p in run.split()]
            drawn += len(pts)
            for ref in wanted.get(g, ()):
                err = min(
                    scaled_err(complex(float(x), -float(y)), ref)
                    for x, y in (p.split(",") for p in pts)
                ) if pts else math.inf
                self._record(err, FIG_TOL, f"figure beta={beta!r} line group {g}")
        self._count("drawn", drawn)
        self._count("evals", FIG_EVALS)
        self._count("svg_bytes", len(out))
        return PASS


# ---------------------------------------------------------------------------
# verify

VERIFY_POOL_SWEEP = 168   # beta uniform on [1.01, 20], the README sweep range
VERIFY_POOL_WIDE = 84     # beta - 1 log-uniform on [1e-6, 1e12], the whole domain


class Verify(Workload):
    """In-process `octell verify --beta B --out FILE`, a new beta every op.

    The pool holds 252 distinct betas, more than the kernel's coefficient
    cache, which is emptied once it holds 65 entries: cycling through the
    pool, every op starts from a cold cache as `sweep` does. Which betas
    fail verification moves pass_ratio by one input's share, 0.4% here.
    """

    n_inputs = VERIFY_POOL_SWEEP + VERIFY_POOL_WIDE

    def __init__(self, rng, out_dir):
        super().__init__(rng, out_dir)
        betas = stratified(rng, VERIFY_POOL_SWEEP, 1.01, 20.0)
        betas += [1.0 + 10.0 ** x for x in stratified(rng, VERIFY_POOL_WIDE, -6.0, 12.0)]
        rng.shuffle(betas)
        self.betas = betas
        self.out = out_dir / f"verify-{os.getpid()}.json"
        # one seeded non-pole node per beta, checked in every report for it
        self.nodes = []
        for beta in betas:
            m, n = 0, 0
            while m % 8 == 0 and n % 8 == 0:
                m, n = rng.randrange(9), rng.randrange(9)
            self.nodes.append((m, n, Curve(beta).node(m, n)))

    def call(self, i):
        argv = ["verify", "--beta", repr(self.betas[i]), "--out", str(self.out)]
        self.stderr = io.StringIO()
        with contextlib.redirect_stderr(self.stderr):
            return octell.cli.run(argv)

    def judge(self, i, rc) -> str:
        self._count(f"exit{rc}")
        if rc == 2:
            # the CLI's clear error for a beta it cannot serve (the closed
            # forms raise from beta = 1e8): a limit, if it says so
            if self.stderr.getvalue().startswith("octell: error: "):
                return LIMIT
            self._count("exit2_without_error")
            return FAIL
        if rc not in (0, 1):
            return FAIL
        m, n, ref = self.nodes[i]
        try:
            text = self.out.read_text()
            self.out.unlink()
            self._count("json_bytes", len(text))
            report = json.loads(text)
            if not isinstance(report, dict) or report.get("schema") != 1:
                self._count("no_schema")
                return FAIL
            verdict = report.get("verdict")
            tol = float(report["tol"]) if verdict == "pass" else None
            if report["orientation_flipped"]:
                ref = ref.conjugate()
            node = report["per_node"][9 * n + m]
            values = {key: node[key] for key in ("closed", "numeric")}
            values = {key: complex(v["re"], v["im"]) if isinstance(v, dict) else None
                      for key, v in values.items()}
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            # a report that is missing, unreadable or short of the fields
            # the schema promises: no answer, so a failed op
            self._count("bad_report")
            return FAIL
        if (rc == 0) != (verdict == "pass"):
            self.wrong.append(f"verify beta={self.betas[i]!r}: exit {rc} with verdict {verdict!r}")
        for key, v in values.items():
            err = math.inf if v is None else scaled_err(v, ref)
            self._record(err, tol, f"verify beta={self.betas[i]!r} node ({m},{n}) {key}")
        if verdict == "pass":
            return PASS
        if verdict == "fail":
            self._count("verdict_fail")
            return LIMIT
        self._count("bad_verdict")
        return FAIL

    def close(self):
        self.out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# eval

EVAL_POOL = 4096
EVAL_CHECKED = 256
EVAL_SEEDED_CURVES = 4    # beta - 1 log-uniform on [1e-3, 1e6], one per stratum
EVAL_SPAN = 1000          # points are translated by up to this many periods
# The traffic mix is an assumption, not measured library traffic: nothing in
# the repository says how often callers hit lattice or half-period nodes or
# ask for wp_with_prime. The node shares are large enough that every run
# takes the POLE and snap paths some hundred times; 1/4 wp_with_prime keeps
# the derivative path in every run without letting it dominate.
EVAL_LATTICE_SHARE = 0.05   # exact lattice nodes: POLE expected
EVAL_HALF_SHARE = 0.05      # exact half-period nodes: the snap path
EVAL_WP_SHARE = 0.25        # wp_with_prime; the rest call essential_R
# The package certifies 1e-9 scaled agreement only where `verify` passes
# (beta up to about 20). Above that, errors are measured and reported
# (check.max_scaled_err, evaluate.max_scaled_err.b*) but not gated.
EVAL_TOL = 1e-9
EVAL_TOL_BETA_MAX = 20.0
# The float nearest a lattice node lies within rounding of the node, so R
# there is enormous: 1e22 or more on every missed snap seen over ten seeds.
# A finite value above this floor (scaled like R) is a missed POLE snap; a
# smaller one is a wrong value.
EVAL_POLE_FLOOR = 1e12

_SCATTER, _LATTICE, _HALF = 0, 1, 2


class Eval(Workload):
    """Single-point `essential_R` / `wp_with_prime` calls on a few warm curves."""

    n_inputs = EVAL_POOL
    warmup = 2 + EVAL_SEEDED_CURVES   # one op per curve warms its kernel cache

    def __init__(self, rng, out_dir):
        super().__init__(rng, out_dir)
        betas = [GOLDEN, 3.0]
        betas += [1.0 + 10.0 ** x for x in stratified(rng, EVAL_SEEDED_CURVES, -3.0, 6.0)]
        self.curves = [Curve(b) for b in betas]
        # the program's own curve objects, built once: library callers keep them
        self.args = []
        for b in betas:
            par = octell.derive_params(b)
            self.args.append((octell.compute_lattice(par), par))
        # the benchmark's lookup table for the public functions; a traced run
        # wraps these attributes, where this caller looks them up
        self.api = SimpleNamespace(
            essential_R=octell.evaluate.essential_R,
            wp_with_prime=octell.evaluate.wp_with_prime,
        )
        self.pool = []
        for i in range(EVAL_POOL):
            c = i % len(betas)
            a = 2 * rng.randint(-EVAL_SPAN, EVAL_SPAN)
            b = 2 * rng.randint(-EVAL_SPAN, EVAL_SPAN)
            u = rng.random()
            if u < EVAL_LATTICE_SHARE:
                kind, x, y = _LATTICE, a, b
            elif u < EVAL_LATTICE_SHARE + EVAL_HALF_SHARE:
                kind = _HALF
                x, y = [(a + 1, b), (a, b + 1), (a + 1, b + 1)][rng.randrange(3)]
            else:
                kind, x, y = _SCATTER, a + 2.0 * rng.random(), b + 2.0 * rng.random()
            fn = "wp_with_prime" if rng.random() < EVAL_WP_SHARE else "essential_R"
            self.pool.append((c, self.curves[c].point(x, y), kind, fn))
        self.checked = {i: None for i in rng.sample(range(EVAL_POOL), EVAL_CHECKED)}

    def call(self, i):
        c, z, _, fn = self.pool[i]
        lat, par = self.args[c]
        return getattr(self.api, fn)(z, lat, par)

    def judge(self, i, out) -> str:
        c, _, kind, _ = self.pool[i]
        value = out[0] if isinstance(out, tuple) else out
        if value is octell.POLE:
            if kind == _LATTICE:
                return PASS
            self._count("pole_off_lattice")
            return FAIL
        vals = out if isinstance(out, tuple) else (out,)
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
            self._count("non_finite")
            return FAIL
        if kind == _LATTICE:
            if abs(value) > EVAL_POLE_FLOOR * max(1.0, self.curves[c].e1):
                self._count("pole_missed")
                return LIMIT
            self._count("finite_at_pole")
            return FAIL
        if i in self.checked:
            self.checked[i] = out
        return PASS

    def check(self):
        for i, out in self.checked.items():
            c, z, kind, fn = self.pool[i]
            if out is None or kind == _LATTICE:
                continue   # never reached, or a POLE already checked in judge
            cur = self.curves[c]
            tol = EVAL_TOL if cur.beta <= EVAL_TOL_BETA_MAX else None
            what = f"eval {fn} beta={cur.beta!r} z={z!r}"
            if fn == "essential_R":
                self._record(scaled_err(out, cur.R(z)), tol, what)
            else:
                r, dr = cur.R_and_prime(z)
                self._record(scaled_err(out[0], r + cur.e1), tol, what + " wp")
                self._record(scaled_err(out[1], dr), tol, what + " wp'")


WORKLOADS = {"figure": Figure, "verify": Verify, "eval": Eval}
