"""Spans around octell's layers, and the per-layer metrics built from them.

A traced run replaces each public function *where its caller looks it up*
(`octell.figure.essential_R`, `octell.cli.verify_grid`, `octell._backend.wp_pair`,
...) with a wrapper that records a span, and puts the originals back
afterwards. Nothing inside the package changes. A span has a name, start,
end, parent span and op id. Totals per name (calls, busy time, self time =
span minus the child spans inside it) are kept for every span; the spans
themselves are kept in memory up to MAX_SPANS and written out at exit.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import octell
import octell._backend
import octell.cli
import octell.figure
import octell.verify

from reference import Curve, scaled_err

MAX_SPANS = 50_000

# The accuracy set of the roadmap, plus 1e8, where the closed forms raise.
ACCURACY_BETAS = {"b1.001": 1.001, "b3": 3.0, "b50": 50.0, "b1e3": 1e3, "b1e6": 1e6}
BUILD_BETAS = list(ACCURACY_BETAS.values()) + [1e8]
ACCURACY_POINTS = 16


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.totals = {}      # name -> [calls, busy_ns, self_ns]
        self.site_calls = {}  # (name, calling module) -> calls
        self.spans = []       # (id, name, start_ns, end_ns, parent id or -1, op id)
        self.max_spans = max_spans
        self.op = 0
        self._stack = []      # open spans: [id, ns covered by finished children]
        self._next_id = 0
        self._patches = []

    def wrap(self, owner, attr: str, name: str, site: str) -> None:
        orig = getattr(owner, attr)
        totals = self.totals.setdefault(name, [0, 0, 0])
        key = (name, site)
        self.site_calls.setdefault(key, 0)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                self.site_calls[key] += 1
                if len(spans) < self.max_spans:
                    spans.append((sid, name, start, end, parent, self.op))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self, workload) -> None:
        """Wrap every layer boundary the three workloads cross."""
        for mod, site in ((octell.figure, "figure"), (octell.verify, "verify")):
            self.wrap(mod, "essential_R", "evaluate", site)
            self.wrap(mod, "derive_params", "params.derive_params", site)
            self.wrap(mod, "compute_lattice", "lattice.compute_lattice", site)
        self.wrap(octell.verify, "log_deriv_sq", "evaluate", "verify")
        self.wrap(octell.verify, "grid_table", "radicals.grid_table", "verify")
        self.wrap(octell.verify, "half_argument_oracle", "verify.half_argument_oracle", "verify")
        self.wrap(octell.verify, "verify_claims", "verify.verify_claims", "verify")
        self.wrap(octell.cli, "verify_grid", "verify.verify_grid", "cli")
        self.wrap(octell._backend, "wp_pair", "pycore.wp_pair", "evaluate")
        self.wrap(octell._backend, "agm", "pycore.agm", "lattice")
        # the benchmark's own call sites: the op roots
        self.wrap(octell.figure, "render_figure", "figure.render_figure", "bench")
        self.wrap(octell.cli, "run", "cli.run", "bench")
        if hasattr(workload, "api"):
            for attr in vars(workload.api):
                self.wrap(workload.api, attr, "evaluate", "bench")

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _get(self, name: str, field: int) -> int:
        return self.totals.get(name, (0, 0, 0))[field]

    def calls(self, name: str) -> int:
        return self._get(name, 0)

    def busy_s(self, name: str) -> float:
        return self._get(name, 1) / 1e9

    def self_s(self, name: str) -> float:
        return self._get(name, 2) / 1e9

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")


def layer_metrics(tr: Tracer, ops: int, stats: dict) -> dict:
    """Per-op layer metrics of one traced loop of `ops` ops."""
    per = 1.0 / max(ops, 1)
    m = {}
    for name in ("pycore.wp_pair", "pycore.agm", "params.derive_params",
                 "lattice.compute_lattice", "radicals.grid_table"):
        m[name + ".calls"] = tr.calls(name) * per
        m[name + ".busy_s"] = tr.busy_s(name) * per
    m["evaluate.calls"] = tr.calls("evaluate") * per
    m["evaluate.self_s"] = tr.self_s("evaluate") * per
    m["figure.self_s"] = tr.self_s("figure.render_figure") * per
    m["figure.evals_per_op"] = tr.site_calls.get(("evaluate", "figure"), 0) * per
    m["figure.drawn_ratio"] = stats.get("drawn", 0) / max(stats.get("evals", 0), 1)
    m["figure.bytes_per_op"] = stats.get("svg_bytes", 0) * per
    m["cli.self_s"] = tr.self_s("cli.run") * per
    m["cli.bytes_per_op"] = stats.get("json_bytes", 0) * per
    for name in ("verify.verify_grid", "verify.half_argument_oracle", "verify.verify_claims"):
        m[name + ".busy_s"] = tr.busy_s(name) * per
    m["verify.self_s"] = sum(
        tr.self_s(n) for n in tr.totals if n.startswith("verify.")
    ) * per
    m["verify.evals_per_op"] = tr.site_calls.get(("evaluate", "verify"), 0) * per
    return m


def _fixed_points(cur: Curve) -> list[complex]:
    """A fixed low-discrepancy scatter over the cell, away from the lattice."""
    pts = []
    for i in range(ACCURACY_POINTS):
        fx = (i * 0.6180339887498949 + 0.083) % 1.0
        fy = (i * 0.7548776662466927 + 0.127) % 1.0
        pts.append(cur.point(2.0 * (0.06 + 0.88 * fx), 2.0 * (0.06 + 0.88 * fy)))
    return pts


def _table_err(table, cur: Curve) -> float:
    """Worst scaled error of the 81-node closed-form table, in whichever
    orientation (direct or conjugate rows) it is transcribed."""
    direct = conj = 0.0
    for m in range(9):
        for n in range(9):
            ref, val = cur.node(m, n), table.value(m, n)
            if ref is None or octell.is_pole(val):
                if (ref is None) != octell.is_pole(val):
                    return math.inf
                continue
            direct = max(direct, scaled_err(val, ref))
            conj = max(conj, scaled_err(val, ref.conjugate()))
    return min(direct, conj)


def accuracy_metrics() -> dict:
    """Evaluator, closed forms and oracle against mpmath on the fixed beta set."""
    m = {}
    conclusive = 0
    for tag, beta in ACCURACY_BETAS.items():
        cur = Curve(beta)
        par = octell.derive_params(beta)
        lat = octell.compute_lattice(par)
        m["evaluate.max_scaled_err." + tag] = max(
            scaled_err(octell.essential_R(z, lat, par), cur.R(z)) for z in _fixed_points(cur)
        )
        oracle = octell.half_argument_oracle(par, lat)
        conclusive += sum(v is not None for col in oracle for v in col)
        try:
            err = _table_err(octell.grid_table(par), cur)
        except ValueError:
            err = math.inf
        m["radicals.max_scaled_err." + tag] = err
    m["verify.oracle_conclusive_ratio"] = conclusive / (81.0 * len(ACCURACY_BETAS))
    failures = 0
    for beta in BUILD_BETAS:
        try:
            octell.grid_table(octell.derive_params(beta))
        except ValueError:
            failures += 1
    m["radicals.build_failures"] = failures
    return m
