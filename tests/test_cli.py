import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from octell import backend, compute_lattice, derive_params, essential_R
from octell.cli import _build_parser, parse_complex, run
from octell.verify import verify_grid


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- complex literals -------------------------------------------------------

@pytest.mark.parametrize(
    "text,want",
    [
        ("1.5", 1.5 + 0j),
        ("-2", -2 + 0j),
        (".5", 0.5 + 0j),
        ("0.5+1.25i", 0.5 + 1.25j),
        ("3-0.5i", 3 - 0.5j),
        ("2i", 2j),
        ("-i", -1j),
        ("i", 1j),
        ("+2.5i", 2.5j),
        ("1+i", 1 + 1j),
        ("1-i", 1 - 1j),
        (" 0.25-0.75i ", 0.25 - 0.75j),
        ("5.", 5 + 0j),
        ("+3", 3 + 0j),
        ("+i", 1j),
        ("1.+.5i", 1 + 0.5j),
        ("007", 7 + 0j),
        ("\t7.25\n", 7.25 + 0j),
        # any Unicode decimal digit and whitespace, as complex() takes them
        ("\u0663", 3 + 0j),
        ("1.\u0665i", 1.5j),
        ("\u2003 2i \u3000", 2j),
    ],
)
def test_parse_complex(text, want):
    assert parse_complex(text) == want


# plain decimal parts: "7", "7.", "7.25", ".25"
decimals = st.from_regex(r"\A([0-9]{1,6}(\.[0-9]{0,6})?|\.[0-9]{1,6})\Z")


@given(decimals, decimals)
def test_parse_complex_decimal_parts(a, b):
    assert parse_complex(f"{a}+{b}i") == complex(float(a), float(b))


@pytest.mark.parametrize(
    "bad",
    [
        "", "1e3", "nan", "1+2j", "--2", "1.5i2", "i1", "1 + 2i", "abc",
        "1E3", "1e-3i", "2.5e+1", "1+2e3i", "1+", "1-", "+", "-", ".", ".i",
        "1+ 2i", "1 +2i", "inf", "infi", "1+2i3", "1i+2", "ii", "1..5",
        "1_000", "1+-2i", "+-1", "1j", "(1+2i)", "1+2I", "0x1", "1e5i",
    ],
)
def test_parse_complex_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex(bad)


# --- subcommands ------------------------------------------------------------

def test_params_command(capsys):
    code, obj = run_json(capsys, ["params", "--beta", "3"])
    assert code == 0
    assert obj["schema"] == 1
    assert obj["beta"] == 3.0
    assert obj["delta"] == pytest.approx(1.0606601717798212, rel=1e-15)
    assert obj["omega1"] == pytest.approx(1.4599026317063392, rel=1e-14)
    assert obj["backend"] == backend() == "pure"


def test_params_domain_error(capsys):
    assert run(["params", "--beta", "1.0"]) == 2
    assert "error" in capsys.readouterr().err


def test_params_finite_at_1e100(capsys):
    code, obj = run_json(capsys, ["params", "--beta", "1e100"])
    assert code == 0
    numbers = [v for k, v in obj.items() if k not in ("schema", "backend")]
    assert len(numbers) == 12
    assert all(math.isfinite(v) for v in numbers)


@pytest.mark.parametrize("beta", ["1e103", "1e150", "1e300"])
def test_params_overflow_is_domain_error(capsys, beta):
    # params builds no theta constants, but g3 overflows to -inf from
    # beta ~ 8.47e102 and g2 is NaN from ~4.02e154: neither is JSON, so
    # params refuses the beta before encoding
    assert run(["params", "--beta", beta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"octell: error: beta = {float(beta)!r} is out of range for params: "
        "g3 overflows a double from beta ~ 8.47e102\n"
    )


def test_grid_json(capsys):
    code, obj = run_json(capsys, ["grid", "--beta", "3"])
    assert code == 0
    assert obj["schema"] == 1
    assert len(obj["entries"]) == 81
    poles = [e for e in obj["entries"] if e.get("value") == "pole"]
    assert len(poles) == 4
    by_key = {(e["m"], e["n"]): e for e in obj["entries"]}
    assert by_key[(2, 0)]["re"] == pytest.approx(1.0)
    assert by_key[(2, 0)]["symbol"] == "1"
    assert by_key[(0, 4)]["re"] == pytest.approx(-3.0)


def test_grid_csv(capsys):
    code = run(["grid", "--beta", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,symbol,re,im"
    assert len(lines) == 82
    assert lines[1].startswith("0,0,inf,,")


def test_eval_matches_library(capsys):
    params = derive_params(3.0)
    lat = compute_lattice(params)
    z = complex(0.25, 0.5)
    code, obj = run_json(capsys, ["eval", "--beta", "3", "--z", "0.25+0.5i"])
    assert code == 0
    want = essential_R(z, lat, params)
    assert obj["value"]["re"] == pytest.approx(want.real, rel=1e-14)
    assert obj["value"]["im"] == pytest.approx(want.imag, rel=1e-14)


def test_eval_pole(capsys):
    code, obj = run_json(capsys, ["eval", "--beta", "3", "--z", "0"])
    assert code == 0
    assert obj["value"] == "pole"


@pytest.mark.parametrize("z", ["-0.5+0.25i", "-i", "-2.5i", "-2"])
def test_eval_z_with_a_leading_minus_as_a_separate_word(capsys, z):
    # argparse reads a separate word with a leading '-' as an option unless
    # `run` joins it to `--z`; `-2` alone got through as a negative number
    code = run(["eval", "--beta", "3", "--z", z, "--what", "wp_prime"])
    out = capsys.readouterr().out
    joined = run(["eval", "--beta", "3", f"--z={z}", "--what", "wp_prime"])
    assert (code, out) == (joined, capsys.readouterr().out)
    assert code == 0
    want = parse_complex(z)
    assert json.loads(out)["z"] == {"re": want.real, "im": want.imag}


def test_eval_bad_literal(capsys):
    assert run(["eval", "--z", "2e5"]) == 2
    assert "complex literal" in capsys.readouterr().err


def test_eval_log_deriv_rejects_zero_of_R(capsys):
    lat = compute_lattice(derive_params(3.0))
    z = repr(lat.omega1)  # real literal without exponent
    code = run(["eval", "--beta", "3", "--z", z, "--what", "log_deriv_sq"])
    assert code == 2


def test_verify_command(capsys):
    code, obj = run_json(capsys, ["verify", "--beta", "2.5"])
    assert code == 0
    assert obj["verdict"] == "pass"
    assert obj["orientation_flipped"] is False


def test_verify_fail_exit_code(capsys):
    code, obj = run_json(capsys, ["verify", "--beta", "2.5", "--tol", "1e-30"])
    assert code == 1
    assert obj["verdict"] == "fail"


def test_verify_out_file_is_the_report_text(tmp_path, capsys):
    target = tmp_path / "v.json"
    assert run(["verify", "--beta", "2.5", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text == verify_grid(2.5).to_json() + "\n"
    assert json.loads(text)["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--beta", "3", "--tol", "inf"],
        ["sweep", "--beta-min", "1.5", "--beta-max", "2", "--tol", "1e999"],
    ],
)
def test_non_finite_tol_is_domain_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("octell: error: tol must be finite")


def test_sweep_command(capsys):
    code, obj = run_json(
        capsys, ["sweep", "--beta-min", "1.4", "--beta-max", "3.2", "--steps", "3"]
    )
    assert code == 0
    assert obj["all_pass"] is True
    assert [r["beta"] for r in obj["results"]] == pytest.approx([1.4, 2.3, 3.2])


def test_sweep_domain_error(capsys):
    code = run(["sweep", "--beta-min", "0.5", "--beta-max", "2.0"])
    assert code == 2
    # an infinite bound ran a passing one-step sweep
    assert run(["sweep", "--beta-min", "2", "--beta-max", "inf", "--steps", "1"]) == 2
    assert capsys.readouterr().err.endswith(
        "octell: error: beta_min and beta_max must be finite (got 2.0, inf)\n"
    )


def test_figure_to_file(tmp_path, capsys):
    target = tmp_path / "grid.svg"
    code = run(
        ["figure", "--beta", "3", "--lines", "4", "--samples", "32",
         "--out", str(target)]
    )
    assert code == 0
    text = target.read_text()
    assert text.startswith("<svg ")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv", [["eval", "--beta", "1e300", "--z", "1"], ["figure", "--beta", "1e300"]]
)
def test_beta_past_the_nome_underflow_is_domain_error(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("octell: error: beta = 1e+300")


def test_figure_bad_config(capsys):
    assert run(["figure", "--lines", "1"]) == 2


def test_figure_non_finite_viewport(capsys):
    code = run(["figure", "--viewport", "0", "inf", "-1", "1", "--lines", "2",
                "--samples", "16"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("octell: error: viewport")


def test_figure_viewport_span_overflow(capsys, tmp_path):
    # finite corners whose span overflows: an error, and no SVG with inf in it.
    # +-1e308 is written out in digits, since argparse takes "-1e308" for an
    # option but "-100...0" for a negative number
    big = str(10 ** 308)
    target = tmp_path / "fig.svg"
    code = run(["figure", "--viewport", "-" + big, big, "-" + big, big,
                "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("octell: error: viewport")
    assert not target.exists()


def test_out_flag_for_json(tmp_path):
    target = tmp_path / "p.json"
    assert run(["params", "--beta", "2", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["beta"] == 2.0


def test_unwritable_out_is_domain_error(tmp_path, capsys):
    target = tmp_path / "missing" / "p.json"
    assert run(["params", "--beta", "2", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("octell: error: ")
    assert "Traceback" not in err


# node (4, 1), -beta*gamma02, is about -5.5e-9 here: gamma02, of order
# 1/beta^2, is the catalog's smallest part
_SMALL_GAMMA02_BETA = "26457611.54506085"


@pytest.mark.parametrize("beta", ["1.2", "3", _SMALL_GAMMA02_BETA])
@pytest.mark.parametrize(
    "argv",
    [["grid"], ["grid", "--format", "csv"], ["verify"]]
    + [["eval", "--what", what] for what in ("R", "wp", "wp_prime", "log_deriv_sq")],
)
def test_no_negative_zero_printed(capsys, argv, beta):
    # eval prints one value: it runs at points on both axes, where the value
    # is real or imaginary and so has a zero part
    points = ("0.3", "-0.3", "0.3i", "-0.3i", "1", "-1", "i", "-i")
    for z in points if argv[0] == "eval" else [None]:
        assert run(argv + ["--beta", beta] + (["--z", z] if z else [])) == 0
    out = capsys.readouterr().out
    assert out.count("\n") > 80
    assert re.search(r"-0\.0(?!\d)", out) is None


@pytest.mark.parametrize("argv", [["grid"], ["grid", "--format", "csv"]])
def test_no_negative_zero_printed_for_computed_zeros(capsys, argv):
    # gamma02, gamma_minus_r and gamma13 round to 0.0 at beta = 1e200, so
    # nodes (4, 1) to (4, 3), -beta times each, are computed zeros; only
    # grid serves a beta this large
    assert run(argv + ["--beta", "1e200"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") > 80
    assert re.search(r"-0\.0(?!\d)", out) is None


@pytest.mark.parametrize(
    "argv", [["grid"], ["grid", "--format", "csv"], ["verify"]]
)
def test_table_overflow_is_domain_error(capsys, argv):
    # past the last beta whose table is finite, grid and verify refuse the
    # beta instead of printing -inf
    assert run(argv + ["--beta", "1.7e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "octell: error: beta = 1.7e+308 is out of range for the closed-form "
        "table: -beta*gamma23 overflows a double from beta ~ 2.63e307\n"
    )


# sha256 of the stdout of `params`, `grid` and `grid --format csv`; these use
# only arithmetic, sqrt, ** 0.5, the AGM and the correctly rounded operations
# of `decimal`, and print the same bytes on Python 3.10 to 3.13
_PINNED = {
    "1.0001": (
        "0e75fcf5a5beb51aa26a2d2eb1ecd36d2fe512ab16f55446073ca0cf09dbd804",
        "46b599c265fe3744c716b854f51dcaba0c6dfcfe4e9063d381cf354d2f65f58b",
        "4a73bdbcbbbebdf70cc5b3c95a44f192fac4d3e56e16859d37273a365f209c27",
    ),
    "1.2": (
        "2e128257b92e1884933f3fef98826b17048c669556abf451cfb4fda81e63097e",
        "ec85d35449cda77336e21db67245b5ff12adafc9da73e428eb2f5d52fae1b92a",
        "2a49344f02f616f92780fa33cb8b5133bdc9e8c8e4625d0a129ecf6edd7a559b",
    ),
    None: (
        "66ffdb19d9bc547e077deeb658cd1f03754f32da2a6899b8938d8a8eaf5e934e",
        "b2b83f87a7fa2e75bd5375f149158f6088e1a43b94ea3c0c1e565bd1b41a34ef",
        "8a2d04b45dc4def9b529ed245525c0fd80690eae4ee095b05d3bc8be39b0b19c",
    ),
    "3": (
        "d49335b6c0041cb2ce3af9a32b0352a295c380b8a8feed64d77ad0705aaf49be",
        "d1ec6cd732397107e84cb652ecd683e68efe3d500d742c5c72d3f63e1cc892e5",
        "0ae8dd4a784c61d317074b8d89aac47055a94c56a047e865dd5c7d2f77184594",
    ),
    "20": (
        "647c05fc5632b01081445369b7d31c15de0652f07fa8a90bbfd4348bf27bda0a",
        "deab5f9dc066fc74da3807caccf84026a5450bc131f98ab15d47bb5312ccc765",
        "f1a919f81d3c9f79bfded0de3a9223e02dc3ce79de90c1229bf3179bc07771b9",
    ),
}


@pytest.mark.parametrize("beta", list(_PINNED), ids=lambda b: b or "default")
def test_params_and_grid_bytes_are_pinned(capsys, beta):
    got = []
    for argv in (["params"], ["grid"], ["grid", "--format", "csv"]):
        assert run(argv + (["--beta", beta] if beta else [])) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == _PINNED[beta]


# the sha256 that tests/output_digest.py prints, pinned so that a change
# that moves verify, eval or figure output alike on every Python version
# fails here, not only a disagreement between versions
_OUTPUT_DIGEST = "c6e9bc7076d5b3c5a3d01e9a1218b02e0cc517a4e19972787fa641beae395fd9"


def test_output_digest_is_pinned():
    path = Path(__file__).resolve().parent / "output_digest.py"
    spec = importlib.util.spec_from_file_location("_output_digest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert mod.digest() == _OUTPUT_DIGEST


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["nope"]) == 2
    assert run(["grid", "--format", "xml"]) == 2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_parser_built_once_and_reused(capsys):
    # one parser serves every run: a usage error in between leaves no state,
    # so the same command prints the same bytes again
    assert _build_parser() is _build_parser()
    argv = ["verify", "--beta", "2.5"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--beta", "2.5", "--tol", "x"]) == 2
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == first
