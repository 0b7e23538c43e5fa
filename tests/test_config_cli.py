"""Config parsing strictness and end-to-end CLI exit codes / CSV output."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cohesivefrac
from cohesivefrac.cli import PLANAR_HEADER, SWEEP_HEADER, TRACE_HEADER, emit_csv, main
from cohesivefrac.config import ConfigError, load_config
from cohesivefrac.laws import LawKind
from cohesivefrac.solver1d import NonconvergenceError

FULL_CONFIG = """
[domain]
elements = 8
length = 1.0
dirichlet = left,right
crack = 0.5:0.3

[law]
kind = dugdale
a = 2.0

[program]
horizon = 1.2
delta = 0.1
rate = 1.0

[sweep]
alpha = 0.5
h = 1,10

[planar]
n = 8
load = 3.0
mode = griffith
"""


@pytest.fixture
def config_path(tmp_path):
    def write(text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    return write


class TestLoadConfig:
    def test_full_roundtrip(self, config_path):
        cfg = load_config(config_path(FULL_CONFIG))
        assert cfg.domain.elements == 8
        assert cfg.domain.crack == ((0.5, 0.3),)
        assert cfg.law.kind is LawKind.DUGDALE and cfg.law.a == 2.0
        assert cfg.program.horizon == 1.2
        assert cfg.sweep.h == (1.0, 10.0) and cfg.sweep.delta is None
        assert cfg.planar.mode == "griffith" and cfg.planar.n == 8
        domain = cfg.domain.build()
        assert domain.nodes.size == 9
        law = cfg.law.build()
        assert law.a == 2.0

    def test_docstring_example_parses(self, config_path):
        import cohesivefrac.config as mod

        example = mod.__doc__.split("Example::")[1]
        text = "\n".join(line[4:] for line in example.splitlines())
        cfg = load_config(config_path(text))
        assert cfg.domain is not None and cfg.law is not None

    def test_absent_sections_are_none_and_required(self, config_path):
        cfg = load_config(config_path("[domain]\nelements = 4\n"))
        assert cfg.law is None and cfg.sweep is None
        with pytest.raises(ConfigError, match="law"):
            cfg.require("domain", "law")

    def test_unknown_section_rejected(self, config_path):
        with pytest.raises(ConfigError, match="section"):
            load_config(config_path("[domian]\nelements = 4\n"))

    def test_unknown_key_rejected(self, config_path):
        with pytest.raises(ConfigError, match="key"):
            load_config(config_path("[domain]\nelments = 4\n"))

    def test_bad_number_rejected(self, config_path):
        with pytest.raises(ConfigError, match="number"):
            load_config(config_path("[law]\na = soft\n"))

    def test_bad_crack_entry_rejected(self, config_path):
        with pytest.raises(ConfigError, match="position:opening"):
            load_config(config_path("[domain]\ncrack = 0.5\n"))

    def test_bad_dirichlet_rejected(self, config_path):
        with pytest.raises(ConfigError, match="left/right"):
            load_config(config_path("[domain]\ndirichlet = top\n"))

    def test_bad_law_kind_rejected(self, config_path):
        with pytest.raises(ConfigError, match="law kind"):
            load_config(config_path("[law]\nkind = cubic\n"))

    def test_bad_planar_mode_rejected(self, config_path):
        with pytest.raises(ConfigError, match="mode"):
            load_config(config_path("[planar]\nmode = dual\n"))

    def test_planar_h_is_one_number(self, config_path):
        assert load_config(config_path("[planar]\nh = 10\n")).planar.h == 10.0
        with pytest.raises(ConfigError, match="\\[planar\\] h must be a number"):
            load_config(config_path("[planar]\nh = 1, 10\n"))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


class TestEmitCsv:
    def test_formatting_and_determinism(self, tmp_path):
        rows = [(1.0 / 3.0, 7, "label"), (2.0, 0, "x")]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(("f", "i", "s"), rows, first)
        emit_csv(("f", "i", "s"), rows, second)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "f,i,s"
        assert lines[1] == "0.333333333333,7,label"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(("a", "b"), [], path)
        assert path.read_text() == "a,b\n"


class TestMain:
    def test_evolve_writes_trace_and_reruns_identically(self, config_path, tmp_path):
        cfg = config_path(FULL_CONFIG)
        out = tmp_path / "trace.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--check"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_HEADER)
        times = [float(row.split(",")[0]) for row in lines[1:]]
        assert times == sorted(times) and len(times) >= 5
        first = out.read_bytes()
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == first

    def test_delta_override_changes_sampling(self, config_path, tmp_path):
        cfg = config_path(FULL_CONFIG)
        out = tmp_path / "coarse.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out),
                     "--delta", "0.3"]) == 0
        # exact division bumps to 5 subintervals, so header + 6 samples
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        times = [float(row.split(",")[0]) for row in lines[1:]]
        assert max(np.diff(times)) <= 0.3 + 1e-12

    def test_griffith_trace_ends_cracked(self, config_path, tmp_path):
        cfg = config_path(FULL_CONFIG)
        out = tmp_path / "griffith.csv"
        assert main(["griffith", "--config", cfg, "--out", str(out), "--check"]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        surface = float(last[TRACE_HEADER.index("surface")])
        assert surface == pytest.approx(1.0, abs=1e-9)

    def test_sweep_verdict_and_csv(self, config_path, tmp_path, capsys):
        cfg = config_path(FULL_CONFIG)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert "regime=" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert {row.split(",")[0] for row in lines[1:]} == {"1", "10"}

    def test_planar_sweep_full_tear_optimal(self, config_path, tmp_path, capsys):
        cfg = config_path(FULL_CONFIG)
        out = tmp_path / "planar.csv"
        assert main(["planar", "--config", cfg, "--out", str(out), "--check"]) == 0
        assert "ell=1" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(PLANAR_HEADER)
        assert len(lines) == 1 + 8 + 1  # one row per prefix length 0..n
        bulk = np.array([float(r.split(",")[1]) for r in lines[1:]])
        assert np.all(np.diff(bulk) <= 1e-12)

    def test_planar_rejects_h_list(self, config_path, capsys):
        cfg = config_path(FULL_CONFIG + "h = 1, 10\n")
        assert main(["planar", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_planar_rejects_times(self, config_path, capsys):
        cfg = config_path(FULL_CONFIG + "times = 0.5\n")
        assert main(["planar", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key") and "times" in err

    @pytest.mark.parametrize("key, value", [
        ("n", "7"), ("n", "6"), ("h", "0.5"), ("h", "inf"), ("alpha", "3"), ("alpha", "0"),
        ("gamma", "-1"), ("gamma", "nan"), ("load", "nan"), ("load", "inf"),
        ("crack_length", "2"), ("crack_length", "-0.1"),
    ])
    def test_planar_rejects_out_of_range(self, key, value, config_path, monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr("cohesivefrac.cli.prefix_crack_sweep", solve)
        keys = {"n": "8", "load": "0.3", "crack_length": "0.5", "gamma": "0.1",
                "alpha": "0.25", "h": "1", key: value}
        cfg = config_path("[law]\nkind = dugdale\na = 2.0\n\n[planar]\n"
                          + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main(["planar", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [planar] {key} must be"), err

    def test_seed_flag_removed(self, config_path):
        with pytest.raises(SystemExit) as err:
            main(["evolve", "--config", config_path(FULL_CONFIG), "--seed", "1"])
        assert err.value.code == 2

    def test_relax_check_grid_cap(self, capsys):
        # 2.4e10 grid points: refused at once, before any scan
        t0 = time.perf_counter()
        assert main(["relax-check", "--a", "2.0", "--grid", "1e-9"]) == 2
        assert time.perf_counter() - t0 < 5.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "points" in err

    def test_relax_check_pass_and_fail(self, capsys):
        assert main(["relax-check", "--a", "2.0"]) == 0
        assert "max_error=" in capsys.readouterr().out
        # oracle on a grid coarser than the gate tolerance must report failure
        assert main(["relax-check", "--a", "2.0", "--grid", "0.25"]) == 4

    @pytest.mark.parametrize("flag, value", [
        ("--a", "-1"), ("--a", "nan"), ("--grid", "0"), ("--grid", "nan"),
    ])
    def test_relax_check_rejects_bad_flag(self, flag, value, capsys):
        flags = {"--a": "2.0", "--grid": "1e-3", flag: value}
        assert main(["relax-check", *sum(flags.items(), ())]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err

    def test_config_error_exit_code(self, config_path, capsys):
        assert main(["evolve", "--config", config_path("[domain]\nbad = 1\n")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_section_exit_code(self, config_path):
        assert main(["planar", "--config", config_path("[domain]\nelements = 4\n")]) == 2

    def test_solver_failure_exit_code(self, config_path, monkeypatch, capsys):
        def boom(path):
            raise NonconvergenceError(1.0, 0.5)

        monkeypatch.setattr("cohesivefrac.cli.load_config", boom)
        assert main(["evolve", "--config", "ignored"]) == 3
        assert "solver error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy costs resident memory and start-up time, so the CLI loads no
    # part of it: only the exponential law's closed forms use
    # scipy.special, on first use
    src = str(Path(cohesivefrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, cohesivefrac.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
