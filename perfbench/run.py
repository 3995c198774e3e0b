#!/usr/bin/env python3
"""Closed-loop benchmark of octell: the figure, verify and eval workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figure --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One client in one process and one thread: each op is sent only after the
previous one returned. The benchmark imports octell from `src/` of the
checkout that holds it, generates every input from the seed, times calls
into octell's public functions from outside, and checks the outputs against
an independent mpmath reference (see reference.py) computed outside the
timed loop. End-to-end times are scaled to a reference host speed by a
fixed probe computation that the loop runs every 50 ms (see probe_ns).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
runs the same op sequence untraced for half the time and traced for the
other half, and reports the per-layer metrics of BENCHMARK.json; the spans
go to perfbench/out/. The output ends with a metric table, a `meta` line and,
as the last line, one JSON object {"correct", "attempted", "failed",
"metrics"}. The metric names and units come from BENCHMARK.json.
`--workload all` runs the three workloads one after another, each in a
child interpreter of its own, and merges their results.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CODE = (
    "import octell.cli as c; p = c.derive_params(c.GOLDEN_BETA); "
    "c.compute_lattice(p); c.grid_table(p)"
)
IMPORT_REPS = 9
SETUP_REPS = 21        # spread over the timed loop, between its segments
MIN_OPS = 100          # op_p90_s needs ten samples beyond it
HARD_SECONDS = 150     # a loop never runs longer, whatever MIN_OPS asks
PROBE_EVERY_NS = 50_000_000   # the loop runs the probe every 50 ms
# The probe's time on an unloaded core of a 2-vCPU VM (Python 3.11.7): the
# host speed that the end-to-end times are scaled to.
PROBE_REF_S = 2.5e-3
BINS_PER_E = 10000     # latency histogram bins are 0.01% wide
_PROBE_COEFFS = [complex(1.0 / (k + 1), 0.5 / (k + 2)) for k in range(24)]


def fail(msg: str):
    print(f"perfbench: error: {msg}", file=sys.stderr)
    sys.exit(2)


def finite(x) -> float:
    """JSON has no infinity: a value that could not be computed (an error
    with no answer to compare) reads as the largest double."""
    x = float(x)
    return x if math.isfinite(x) else sys.float_info.max


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_octell():
    """Import octell from this checkout's sources and nowhere else."""
    pkg = SRC / "octell"
    if not (pkg / "__init__.py").is_file():
        fail(f"no octell sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import octell

    if Path(octell.__file__).resolve().parent != pkg.resolve():
        fail(f"imported octell from {octell.__file__}, not from {pkg}")
    return octell


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def interpreter_s(code: str) -> float:
    """Wall time of one fresh interpreter running `code` on this checkout.

    The interpreter runs with -S: octell needs nothing from site-packages,
    and `site` alone took 30-40 ms of a 40 ms bare start on a 2-vCPU VM,
    with a spread that hid octell's own set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def probe_ns() -> int:
    """One run of a fixed pure-Python computation that shares no code with
    octell: complex Horner sums, then float formatting, the two kinds of
    work octell's ops are made of. About 2.5 ms on an unloaded core.

    On a VM whose cores are shared with other tenants, the host runs up to
    1.8x slower for minutes at a time, longer than a run, and every op slows
    with it. The loop runs the probe every PROBE_EVERY_NS, and each op's
    latency is scaled by PROBE_REF_S over the mean of the probes just
    before and just after it, the host's speed at that moment; loop and
    set-up times are scaled by PROBE_REF_S over the mean of all probes. Over 36 s
    windows of five minutes on such a VM, the mean time of a figure render
    varied by 10% between windows (coefficient of variation) and of an eval
    call by 11%; scaled by the mean probe, by 0.7% and 0.9%. A run that
    spans a change of host speed has a latency distribution with two
    humps, one per speed, and a percentile that jumps between them; scaling
    each op by its own moment's speed merges them. Over 15 s windows, the
    90th percentile of figure renders varied by 12%; scaled by the median
    of the last five probes, by 9%; by the probes around each op, by 5%."""
    t0 = time.perf_counter_ns()
    total = 0j
    for i in range(400):
        z = complex(0.01 * i, 0.3)
        acc = 0j
        for c in _PROBE_COEFFS:
            acc = acc * z + c
        total += acc
    " ".join("%.9g,%.9g" % (i * 0.1234567, total.real * i) for i in range(2000))
    return time.perf_counter_ns() - t0


def closed_loop(wl, seconds: float, min_ops: int, segments: int = 1, between=None,
                tracer=None) -> dict:
    """Serve ops from the workload's pool, in the order `wl.input_of` gives,
    for `seconds` and at least `min_ops` ops, in `segments` equal parts;
    `between()` runs before the first part and after each one, outside the
    loop's time. The time spent judging outputs and running the probe is
    outside it too.

    Each op's outcome is PASS, LIMIT or FAIL (see workloads.py); an op that
    raises is a FAIL. The latencies of passed ops go to two histograms with
    bins 0.01% wide, as measured and scaled by the probe (see probe_ns); the
    probe's times go to a list.
    """
    from workloads import FAIL, LIMIT, PASS

    wl.reset_stats()
    serves = array("q", [0]) * wl.n_inputs
    hist, hist_scaled = {}, {}
    probes = []
    pending = []   # latencies of the passed ops since the last probe

    def probe():
        t = probe_ns()
        if pending:
            speed = PROBE_REF_S * 2e9 / (probes[-1] + t)
            for lat in pending:
                b = int(math.log(max(lat * speed, 1)) * BINS_PER_E)
                hist_scaled[b] = hist_scaled.get(b, 0) + 1
            pending.clear()
        probes.append(t)

    errors = {}
    outcomes = {PASS: 0, LIMIT: 0, FAIL: 0}
    attempted = wall_ns = 0
    clock = time.perf_counter_ns
    hard = clock() + HARD_SECONDS * 10**9
    span = int(seconds * 1e9 / segments)
    for k in range(segments):
        if between is not None:
            between()
        last = k == segments - 1
        check_ns = 0
        probe()
        start = clock()
        next_probe = start + PROBE_EVERY_NS
        stop = start + span
        while True:
            t0 = clock()
            if t0 >= hard or (t0 >= stop and (not last or attempted >= min_ops)):
                break
            i = wl.input_of(attempted)
            if tracer is not None:
                tracer.op = attempted
            try:
                out = wl.call(i)
            except Exception as exc:  # an op that raises is a failed op; keep going
                out = exc
            t1 = clock()
            if isinstance(out, Exception):
                outcome = FAIL
                name = type(out).__name__
                if name not in errors:
                    errors[name] = {"count": 0, "first": traceback.format_exception(out)[-1].strip()}
                errors[name]["count"] += 1
            else:
                outcome = wl.judge(i, out)
            attempted += 1
            outcomes[outcome] += 1
            serves[i] += 1
            if outcome == PASS:
                b = int(math.log(max(t1 - t0, 1)) * BINS_PER_E)
                hist[b] = hist.get(b, 0) + 1
                pending.append(t1 - t0)
            if t1 >= next_probe:
                probe()
                next_probe = clock() + PROBE_EVERY_NS
            check_ns += clock() - t1
        wall_ns += clock() - start - check_ns
        probe()
    if between is not None:
        between()
    return {
        "attempted": attempted,
        "succeeded": outcomes[PASS],
        "limited": outcomes[LIMIT],
        "failed": outcomes[FAIL],
        "wall_s": wall_ns / 1e9,
        "hist": hist,
        "hist_scaled": hist_scaled,
        "probes": probes,
        "serves": serves,
        "errors": errors,
        "stats": dict(wl.stats),
    }


def hist_percentile(hist: dict, q: float) -> float:
    """Nearest-rank percentile, in seconds, of the latencies in a histogram:
    the centre of the bin that holds the op at rank ceil(q * ops)."""
    rank = math.ceil(q * sum(hist.values()))
    acc = 0
    for b in sorted(hist):
        acc += hist[b]
        if acc >= rank:
            return math.exp((b + 0.5) / BINS_PER_E) / 1e9
    raise ValueError("empty histogram")


def probe_mean_s(loop: dict) -> float:
    """The probe's mean time over a loop, in seconds."""
    if not loop["probes"]:
        fail("the loop ran no probe")
    return sum(loop["probes"]) / len(loop["probes"]) / 1e9


def e2e_metrics(loop: dict, setup_s: float, scaled: bool) -> dict:
    """Throughput is passed ops over the loop's time; the percentiles are
    over the passed ops. `scaled` scales every time by the probe (see
    probe_ns); otherwise they are this host's seconds."""
    if loop["succeeded"] < 2:
        fail(f"only {loop['succeeded']} ops passed; no latency percentiles")
    scale = PROBE_REF_S / probe_mean_s(loop) if scaled else 1.0
    hist = loop["hist_scaled"] if scaled else loop["hist"]
    return {
        "setup_s": setup_s * scale,
        "ops_per_s": loop["succeeded"] / (loop["wall_s"] * scale),
        "op_p50_s": hist_percentile(hist, 0.5),
        "op_p90_s": hist_percentile(hist, 0.9),
        "pass_ratio": loop["succeeded"] / loop["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def loop_meta(loop: dict) -> dict:
    return {
        "attempted": loop["attempted"],
        "succeeded": loop["succeeded"],
        "limited": loop["limited"],
        "failed": loop["failed"],
        # the share of ops that did not pass, limits and failures together
        "fail_ratio": 1.0 - loop["succeeded"] / loop["attempted"],
        "loop_wall_s": loop["wall_s"],
        "inputs_served": sum(1 for c in loop["serves"] if c),
        "max_serves_per_input": max(loop["serves"]),
        "min_serves_per_input": min(c for c in loop["serves"] if c),
        # the latency percentiles are over this many passed ops
        "latency_samples": loop["succeeded"],
        "probes": len(loop["probes"]),
        "probe_mean_s": probe_mean_s(loop),
        "errors": loop["errors"],
        "stats": loop["stats"],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict, octell) -> dict:
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), OUT)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "backend": octell.backend(),
        "octell_version": octell.__version__,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "inputs": wl.n_inputs,
    }
    try:
        for i in range(wl.warmup):
            wl.call(i)
        if not trace:
            interpreter_s(SETUP_CODE)   # untimed: leaves the bytecode cache warm
            setups = []
            loop = closed_loop(wl, seconds, MIN_OPS, SETUP_REPS - 1,
                               lambda: setups.append(interpreter_s(SETUP_CODE)))
            setup_s = statistics.median(setups)
            metrics = e2e_metrics(loop, setup_s, scaled=True)
            meta["loop"] = loop_meta(loop)
            meta["setup_reps"] = len(setups)
            # the same metrics in seconds of this host, not scaled
            meta["unscaled"] = e2e_metrics(loop, setup_s, scaled=False)
        else:
            import tracing

            untraced = closed_loop(wl, seconds / 2.0, 1)
            tracer = tracing.Tracer()
            tracer.install(wl)
            try:
                loop = closed_loop(wl, seconds / 2.0, 1, tracer=tracer)
            finally:
                tracer.restore()
            metrics = tracing.layer_metrics(tracer, loop["attempted"], loop["stats"])
            # loop time per op, each half scaled by its own mean probe time
            per_op = [
                half["wall_s"] / half["attempted"] / probe_mean_s(half)
                for half in (untraced, loop)
            ]
            metrics["trace.overhead_ratio"] = per_op[1] / per_op[0] - 1.0
            interpreter_s("import octell.cli")
            metrics["cli.import_s"] = (
                statistics.median(interpreter_s("import octell.cli") for _ in range(IMPORT_REPS))
                - statistics.median(interpreter_s("pass") for _ in range(IMPORT_REPS))
            )
            metrics.update(tracing.accuracy_metrics())
            spans = OUT / f"spans-{name}-s{seed}.jsonl"
            tracer.write(spans)
            meta["loop"] = loop_meta(loop)
            meta["untraced_loop"] = loop_meta(untraced)
            meta["spans_kept"] = len(tracer.spans)
            meta["spans_file"] = str(spans.relative_to(ROOT))
        wl.check()
    finally:
        wl.close()
    if trace:
        metrics["check.max_scaled_err"] = wl.max_err
    meta["check_max_scaled_err"] = wl.max_err
    meta["wrong"] = wl.wrong[:20]
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "meta": meta,
        "result": {
            "correct": not wl.wrong,
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "metrics": {k: {"value": finite(metrics[k]), "unit": units[k]} for k in units},
        },
    }


def print_table(report: dict) -> None:
    meta, res = report["meta"], report["result"]
    loop = meta["loop"]
    print(f"== {meta['workload']} (seed {meta['seed']}, trace {meta['trace']})")
    for k, m in res["metrics"].items():
        print(f"  {k:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {loop['fail_ratio']:>14.6g} ratio  "
          f"({loop['attempted'] - loop['succeeded']}/{loop['attempted']} ops did not pass: "
          f"{loop['limited']} at a limit, {loop['failed']} failed)")
    if "check.max_scaled_err" not in res["metrics"]:
        print(f"  {'check.max_scaled_err':<40} {meta['check_max_scaled_err']:>14.6g} ratio")
    print(f"  correct: {res['correct']}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("figure", "verify", "eval", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be positive")

    units = load_spec()[bool(args.trace)]
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return
    rep = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), units,
                       import_octell())
    print_table(rep)
    print("meta " + json.dumps(rep["meta"]))
    print(json.dumps(rep["result"]))


def run_all(args) -> dict:
    """Each workload in a child interpreter of its own, one after another, so
    that peak_rss_mb and the warm caches are that workload's alone. The
    children's tables and meta lines pass through; their results merge, with
    metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("figure", "verify", "eval"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


if __name__ == "__main__":
    main()
