"""One sha256 over the CLI output of `verify`, `eval` and `figure`.

Usage, from any directory, with Python 3.10 or later:

    python tests/output_digest.py

The README says that this output is byte-identical on Python 3.10 to 3.13.
The script runs each command in-process at 22 fixed beta from 1 + 1e-6 to
1e12, the two doubles next to the tribonacci constant b among them: `verify`,
`eval` with every `--what` at points off and on the axes, at a pole and at a
half-period, and `figure` at its defaults and at 5 x 33. It
hashes each command line with its exit code, stdout, stderr and the text of
any warning, and prints one hex digest. CI runs it on every Python version
and fails unless the digests are equal. pytest does not collect this file,
but `tests/test_cli.py::test_output_digest_is_pinned` calls `digest()` and
compares it with the committed value (about 0.2 s), so a change that moves
the output alike on every version fails the tier-1 tests too.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from octell._backend import GOLDEN_BETA, compute_lattice, derive_params  # noqa: E402
from octell.cli import run  # noqa: E402

BETAS = (
    1.0 + 1e-6, 1.0001, 1.01, 1.2, 1.5, GOLDEN_BETA, 1.839286755214161,
    1.8392867552141611, 2.0,
    3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e9, 1e12,
)
POINTS = ("0.3+0.2i", "-0.7+0.45i", "0.3", "-0.2i", "0")   # "0" is a pole
WHATS = ("R", "wp", "wp_prime", "log_deriv_sq")


def _commands(beta: float) -> list:
    b = ["--beta", repr(beta)]
    # a half-period as a literal without an exponent, which `eval` reads
    half = repr(compute_lattice(derive_params(beta)).omega1)
    points = POINTS + (() if "e" in half else (half,))
    return (
        [["verify", *b]]
        + [["eval", *b, "--what", w, "--z", z] for w in WHATS for z in points]
        + [["figure", *b], ["figure", *b, "--lines", "5", "--samples", "33"]]
    )


def digest() -> str:
    h = hashlib.sha256()
    for beta in BETAS:
        for argv in _commands(beta):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = run(argv)
            # a warning's message, not its location, which names a file path
            texts = [f"{w.category.__name__}: {w.message}" for w in caught]
            for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue(), *texts):
                h.update(part.encode() + b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
