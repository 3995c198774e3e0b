"""Command line front end.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or domain error (bad beta, malformed complex literal, pole input,
an --out file that cannot be written).
"""
from __future__ import annotations

import functools
import math
import sys

from . import __version__
from ._backend import BACKEND, GOLDEN_BETA, compute_lattice, derive_params
from .evaluate import (
    _nv_json,
    essential_R,
    is_pole,
    log_deriv_sq,
    wp,
    wp_prime,
)
from .radicals import grid_table

# argparse, json and the verify and figure modules are imported by the
# code that uses them: importing this module, or building one grid through
# it, loads none of them.


def __getattr__(name: str):
    """`verify_grid` and `sweep`, imported from `octell.verify` on first use.

    `_cmd_verify` and `_cmd_sweep` call them through this module's attribute,
    so that whatever is bound there when they run, a profiler's wrapper
    included, is what runs.
    """
    if name not in ("verify_grid", "sweep"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


def parse_complex(text: str) -> complex:
    """Parse 'a', 'bi', or 'a+bi' with plain decimal parts (no exponents):
    "1.5", "-2", "0.5+1.25i", "3-0.5i", "2i", "-i", "i"."""
    body = text.strip()
    if all(c.isdecimal() or c in ".+-i" for c in body):
        try:
            return complex(body.replace("i", "j"))
        except ValueError:
            pass
    raise ValueError(f"not a complex literal: {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    import json

    # allow_nan=False: NaN and Infinity are not JSON, so they raise ValueError
    _emit(json.dumps(obj, indent=2, allow_nan=False) + "\n", out)


def _cmd_params(args) -> int:
    params = derive_params(args.beta)
    lat = compute_lattice(params)
    if not all(map(math.isfinite, (*params, lat.omega1, lat.omega2_im))):
        # g3 ~ -8 beta^3/27 is the first constant past the largest double
        raise ValueError(
            f"beta = {params.beta!r} is out of range for params: g3 overflows "
            "a double from beta ~ 8.47e102"
        )
    obj = {
        "schema": 1,
        **params._asdict(),
        "omega1": lat.omega1,
        "omega2_im": lat.omega2_im,
        "backend": BACKEND,
    }
    _emit_json(obj, args.out)
    return 0


def _cmd_grid(args) -> int:
    params = derive_params(args.beta)
    table = grid_table(params)
    if args.format == "csv":
        lines = ["m,n,symbol,re,im"]
        for m, n, sym, val in table.nodes():
            if is_pole(val):
                lines.append(f"{m},{n},{sym},,")
            else:
                lines.append(f"{m},{n},{sym},{val.real!r},{val.imag!r}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    entries = []
    for m, n, sym, val in table.nodes():
        if is_pole(val):
            entries.append({"m": m, "n": n, "symbol": sym, "value": "pole"})
        else:
            entries.append(
                {"m": m, "n": n, "symbol": sym, "re": val.real, "im": val.imag}
            )
    _emit_json({"schema": 1, "beta": params.beta, "entries": entries}, args.out)
    return 0


# `eval --what` choices, in help order
_EVAL = {"R": essential_R, "wp": wp, "wp_prime": wp_prime, "log_deriv_sq": log_deriv_sq}


def _cmd_eval(args) -> int:
    params = derive_params(args.beta)
    lat = compute_lattice(params)
    z = parse_complex(args.z)
    value = _EVAL[args.what](z, lat, params)
    obj = {
        "schema": 1,
        "beta": params.beta,
        "z": {"re": z.real, "im": z.imag},
        "what": args.what,
        "value": _nv_json(value),
    }
    _emit_json(obj, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = sys.modules[__name__].verify_grid(args.beta, tol=args.tol)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    results = sys.modules[__name__].sweep(
        args.beta_min, args.beta_max, args.steps, tol=args.tol
    )
    rows = [
        {
            "beta": b,
            "verdict": rep.verdict,
            "orientation_flipped": rep.orientation_flipped,
        }
        for b, rep in results
    ]
    all_pass = all(rep.passed for _, rep in results)
    _emit_json({"schema": 1, "results": rows, "all_pass": all_pass}, args.out)
    return 0 if all_pass else 1


def _cmd_figure(args) -> int:
    from .figure import FigureConfig, render_figure

    viewport = None
    if args.viewport:
        viewport = tuple(args.viewport)
    config = FigureConfig(
        beta=args.beta,
        lines_per_axis=args.lines,
        samples_per_line=args.samples,
        viewport=viewport,
        clip_radius=args.clip_radius,
    )
    _emit(render_figure(config), args.out)
    return 0


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="octell",
        description="Shifted Weierstrass grid values, verification and figures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_beta(p):
        p.add_argument(
            "--beta",
            type=float,
            default=GOLDEN_BETA,
            help="curve parameter, must be > 1 (default: (3+sqrt(5))/2)",
        )

    def add_out(p):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("params", help="derived curve and lattice constants")
    add_beta(p)
    add_out(p)
    p.set_defaults(fn=_cmd_params)

    p = sub.add_parser("grid", help="closed-form 9x9 node table")
    add_beta(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_out(p)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("eval", help="evaluate at one point")
    add_beta(p)
    p.add_argument("--z", required=True, help="complex point, e.g. '0.7+0.3i'")
    p.add_argument("--what", choices=tuple(_EVAL), default="R")
    add_out(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify", help="closed forms vs numerics, full report")
    add_beta(p)
    p.add_argument("--tol", type=float, default=1e-9)
    add_out(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="verify over a range of beta")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--tol", type=float, default=1e-9)
    add_out(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("figure", help="render the conformal grid image as SVG")
    add_beta(p)
    p.add_argument("--lines", type=int, default=16)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument(
        "--viewport",
        type=float,
        nargs=4,
        metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
    )
    p.add_argument("--clip-radius", type=float)
    add_out(p)
    p.set_defaults(fn=_cmd_figure)

    return parser


def _join_z(argv) -> list[str]:
    """argv with `--z v` written `--z=v`: argparse takes a word with a leading
    '-', such as `-0.5+0.25i` or `-i`, for an option unless it is joined."""
    out = list(argv)
    # from the end, so that a join shifts only the words already visited
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--z":
            out[i : i + 2] = [f"--z={out[i + 1]}"]
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_z(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"octell: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
