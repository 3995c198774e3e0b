"""What an import costs and binds: the benchmark's set-up code and a bare
`import octell` load only what they use, the package resolves its public
names on first use, and `octell.cli` looks up `verify_grid` and `sweep`
where a profiler can replace them."""
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import octell
import octell.cli
import octell.verify

ROOT = Path(__file__).resolve().parents[1]


def _setup_code() -> str:
    path = ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("_perfbench_run", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SETUP_CODE


def _fresh(code: str) -> list[str]:
    """The modules a fresh `python -S` holds after running `code`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return proc.stdout.split()


def test_benchmark_setup_imports_only_what_it_uses():
    loaded = set(_fresh(_setup_code()))
    unwanted = {
        "argparse", "dataclasses", "inspect", "json", "pathlib", "re",
        "warnings", "octell.verify", "octell.figure",
    }
    assert "octell.radicals" in loaded
    assert not loaded & unwanted


def test_eval_does_not_load_the_verifier():
    loaded = set(_fresh(
        "import octell.cli\n"
        "assert octell.cli.run(['eval', '--beta', '3', '--z', '0.3+0.2i']) == 0"
    ))
    assert "octell.evaluate" in loaded
    assert "octell.verify" not in loaded
    assert "decimal" not in loaded   # only the closed-form catalog uses it


def test_import_octell_loads_only_the_kernel():
    # POLE, Lattice and the curve's constants live in the kernel module too,
    # so they load nothing more
    code = ("import octell; octell.POLE; octell.Lattice; "
            "octell.derive_params(3.0); octell.CurveParams")
    loaded = {m for m in _fresh(code) if m.startswith("octell.")}
    assert loaded == {"octell._backend"}


def test_star_import_binds_all():
    ns = {}
    exec("from octell import *", ns)
    assert set(octell.__all__) <= set(ns)
    for name in octell.__all__:
        assert ns[name] is getattr(octell, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        octell.no_such_name
    assert getattr(octell, "verify_gird", None) is None


def test_dir_lists_all():
    assert set(octell.__all__) <= set(dir(octell))


def test_cli_resolves_verify_names_on_a_fresh_import():
    out = _fresh(
        "import sys, octell.cli as c\n"
        "assert 'octell.verify' not in sys.modules\n"
        "import octell.verify as v\n"
        "assert c.verify_grid is v.verify_grid and c.sweep is v.sweep"
    )
    assert "octell.verify" in out


def test_cli_calls_the_patched_verify_grid(monkeypatch, capsys):
    calls = []

    def traced(*args, **kwargs):
        calls.append(args)
        return octell.verify.verify_grid(*args, **kwargs)

    monkeypatch.setattr(octell.cli, "verify_grid", traced)
    assert octell.cli.run(["verify", "--beta", "3"]) == 0
    assert calls == [(3.0,)]
    assert '"verdict": "pass"' in capsys.readouterr().out


def test_cli_calls_the_patched_sweep(monkeypatch, capsys):
    calls = []

    def traced(*args, **kwargs):
        calls.append(args)
        return octell.verify.sweep(*args, **kwargs)

    monkeypatch.setattr(octell.cli, "sweep", traced)
    argv = ["sweep", "--beta-min", "2", "--beta-max", "3", "--steps", "2"]
    assert octell.cli.run(argv) == 0
    assert calls == [(2.0, 3.0, 2)]
    assert '"all_pass": true' in capsys.readouterr().out


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py wraps names where octell's modules look them up
    # (octell.figure.essential_R among them, though figure evaluates through
    # essential_R_values); a name gone from a module breaks every traced run
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    import octell.figure

    before = octell.figure.essential_R
    tracer = tracing.Tracer()
    tracer.install(SimpleNamespace())
    try:
        assert octell.figure.essential_R is not before
    finally:
        tracer.restore()
    assert octell.figure.essential_R is before
