"""Smoke runs of the experiment scripts, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_script(name, *args):
    done = _run(name, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize(
    "name, args, line",
    [
        ("brittle_sweep.py", ["--h", "1,10"], "alpha = 0.5  ->  brittle_limit"),
        ("rupture_check.py", ["--h", "1,16"], "verdict: rupture"),
    ],
)
def test_script_prints_its_verdict(name, args, line):
    assert line in run_script(name, *args)


def test_tearing_script_dumps_the_field(tmp_path):
    dump = tmp_path / "field.txt"
    lines = run_script("tearing_2d.py", "--n", "8", "--h", "1,10", "--dump-field", str(dump))
    assert f"final field written to {dump}" in lines
    assert dump.stat().st_size > 0


@pytest.mark.parametrize("length", ["-0.5", "1.5"])
def test_tearing_script_rejects_a_crack_off_the_interface(length):
    done = _run("tearing_2d.py", "--n", "8", "--h", "1", "--crack-length", length)
    assert done.returncode == 2
    assert "crack length must lie in [0, 1]" in done.stderr


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("brittle_sweep.py", ["--h", "10,1"], "[sweep] h must be a nonempty increasing list"),
        ("rupture_check.py", ["--h", "1,0.5"], "[sweep] h must be a nonempty increasing list"),
        ("tearing_2d.py", ["--n", "8", "--h", "0.5"], "size ratio must satisfy h >= 1"),
        ("brittle_sweep.py", ["--h", "1,10", "--horizon", "nan"],
         "horizon must be positive and finite"),
        ("brittle_sweep.py", ["--h", "1,10", "--horizon", "inf"],
         "horizon must be positive and finite"),
        ("tearing_2d.py", ["--n", "8", "--h", "1", "--times", "nan"], "load times must be finite"),
        ("tearing_2d.py", ["--n", "8", "--h", "1", "--times", "0.2,inf"],
         "load times must be finite"),
    ],
)
def test_script_rejects_a_bad_size_ladder_before_solving(name, args, message):
    done = _run(name, *args)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr and done.stdout == ""
