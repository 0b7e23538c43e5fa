"""The experiment scripts' checks, run through what replaced them.

``brittle_sweep.py``, ``rupture_check.py`` and ``tearing_2d.py`` gave way to
``cohesivefrac sweep``, ``cohesivefrac tear`` and the size-sweep API.  Each
case keeps in its id the script and argument list it once ran, and runs the
same input through the replacement.
"""

import pytest

from cohesivefrac.bar1d import Domain1D
from cohesivefrac.cli import main
from cohesivefrac.laws import CohesiveLaw, LawKind
from cohesivefrac.scaling import BarProblem, Regime, classify_regime, size_effect_sweep

DUGDALE = CohesiveLaw(LawKind.DUGDALE, 2.0)

# the scripts' inputs: a 4-element Dugdale bar on a 2-unit ramp, an 8-cell plate
SECTIONS = {
    "domain": {"length": "1.0", "elements": "4"},
    "law": {"kind": "dugdale", "a": "2.0"},
    "program": {"horizon": "2.0", "delta": "0.05", "rate": "1.0"},
    "sweep": {"alpha": "0.5", "h": "1, 10"},
    "planar": {"n": "8", "crack_length": "0.5", "gamma": "0.1", "alpha": "0.25", "h": "1"},
}


@pytest.mark.parametrize("problem, alpha, h, regime", [
    pytest.param(BarProblem.tearing(Domain1D.uniform(1.0, 4), DUGDALE, 2.0),
                 0.5, [1.0, 10.0], Regime.BRITTLE_LIMIT,
                 id="brittle_sweep.py-args0-alpha = 0.5  ->  brittle_limit"),
    # a fully opened midpoint under a ramp that keeps a unit offset
    pytest.param(BarProblem(Domain1D.uniform(1.0, 4, crack=((0.5, 1.0),)), DUGDALE,
                            lambda t: 0.0, lambda t: 1.0 + t, 1.0),
                 0.75, [1.0, 16.0], Regime.RUPTURE,
                 id="rupture_check.py-args1-verdict: rupture"),
])
def test_script_prints_its_verdict(problem, alpha, h, regime):
    assert classify_regime(size_effect_sweep(problem, alpha, h)) is regime


@pytest.mark.parametrize("command, section, key, value, message", [
    pytest.param("sweep", "sweep", "h", "10, 1", "[sweep] h must be a nonempty increasing list",
                 id="brittle_sweep.py-args0-[sweep] h must be a nonempty increasing list"),
    pytest.param("sweep", "sweep", "h", "1, 0.5", "[sweep] h must be a nonempty increasing list",
                 id="rupture_check.py-args1-[sweep] h must be a nonempty increasing list"),
    pytest.param("tear", "planar", "h", "0.5", "[planar] h must be finite and >= 1",
                 id="tearing_2d.py-args2-[sweep] h must be a nonempty increasing list"),
    pytest.param("sweep", "program", "horizon", "nan", "[program] horizon must be finite and > 0",
                 id="brittle_sweep.py-args3-horizon must be positive and finite"),
    pytest.param("sweep", "program", "horizon", "inf", "[program] horizon must be finite and > 0",
                 id="brittle_sweep.py-args4-horizon must be positive and finite"),
    # tear's load times are the [program] ramp
    pytest.param("tear", "program", "horizon", "nan", "[program] horizon must be finite and > 0",
                 id="tearing_2d.py-args5-load times must be finite"),
    pytest.param("tear", "program", "rate", "inf", "[program] rate must be finite",
                 id="tearing_2d.py-args6-load times must be finite"),
    # tear runs one plate size
    pytest.param("tear", "planar", "h", "10, 1", "[planar] h must be a number",
                 id="tearing_2d.py-args7-[sweep] h must be a nonempty increasing list"),
])
def test_script_rejects_a_bad_size_ladder_before_solving(
    command, section, key, value, message, config_path, no_solve, capsys
):
    sections = {name: dict(keys) for name, keys in SECTIONS.items()}
    sections[section][key] = value
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())
    assert main([command, "--config", config_path(text)]) == 2
    done = capsys.readouterr()
    assert message in done.err
    assert "Traceback" not in done.err and done.out == ""
