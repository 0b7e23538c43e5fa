"""Config parsing strictness and end-to-end CLI exit codes / CSV output."""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cohesivefrac
from cohesivefrac.cli import (
    PLANAR_HEADER,
    SWEEP_HEADER,
    TEAR_HEADER,
    TRACE_HEADER,
    _check_exit,
    emit_csv,
    main,
)
from cohesivefrac.config import ConfigError, RunConfig, load_config
from cohesivefrac.laws import LawKind
from cohesivefrac.planar2d import Field2D, PlanarNumericError, evolve_tearing

FULL_CONFIG = """
[domain]
elements = 8
length = 1.0
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

README = Path(__file__).resolve().parents[1] / "README.md"
# the README's fenced blocks as (language, text); its one ini block is the config
README_BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README.read_text(), re.S)
(README_CONFIG,) = [text for lang, text in README_BLOCKS if lang == "ini"]


class TestLoadConfig:
    def test_full_roundtrip(self, config_path):
        cfg = load_config(config_path(FULL_CONFIG))
        assert cfg.domain.elements == 8
        assert cfg.domain.crack == ((0.5, 0.3),)
        assert cfg.law.kind is LawKind.DUGDALE and cfg.law.a == 2.0
        assert cfg.program.horizon == 1.2
        assert cfg.sweep.h == (1.0, 10.0)
        assert cfg.planar.mode == "griffith" and cfg.planar.n == 8
        domain = cfg.domain.build()
        assert domain.n_elements == 8
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

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nfoo = 1\n",
        # a default would otherwise leak into every section
        "[DEFAULT]\nelements = 4\n\n[domain]\nlength = 1.0\n",
    ])
    def test_default_section_rejected(self, text, config_path, capsys):
        assert main(["evolve", "--config", config_path(text)]) == 2
        assert capsys.readouterr().err == "config error: unknown section [DEFAULT]\n"

    def test_bad_number_rejected(self, config_path):
        with pytest.raises(ConfigError, match="number"):
            load_config(config_path("[law]\na = soft\n"))

    def test_bad_crack_entry_rejected(self, config_path):
        with pytest.raises(ConfigError, match="position:opening"):
            load_config(config_path("[domain]\ncrack = 0.5\n"))

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

    def test_schema_cannot_drift(self, config_path):
        # the section classes and the reader table declare the same keys,
        # and a class's defaults are what an empty section parses to
        from cohesivefrac.config import _SCHEMA

        assert [f.name for f in dataclasses.fields(RunConfig)] == list(_SCHEMA)
        for name, (cls, readers) in _SCHEMA.items():
            assert [f.name for f in dataclasses.fields(cls)] == list(readers)
            assert getattr(load_config(config_path(f"[{name}]\n")), name) == cls()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


class TestEmitCsv:
    def test_formatting_and_determinism(self, tmp_path):
        # one block per row label: columns, then the block's constant string
        blocks = [(np.array([1.0 / 3.0]), np.array([7]), "label"), ([2.0], [0], "x")]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        emit_csv(("f", "i", "s"), blocks, first)
        emit_csv(("f", "i", "s"), blocks, second)
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "f,i,s"
        assert lines[1] == "0.333333333333,7,label"
        assert lines[2] == "2,0,x"

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(("a", "b"), [], path)
        assert path.read_text() == "a,b\n"
        emit_csv(("a", "b"), [(np.array([]), 1.5)], path)
        assert path.read_text() == "a,b\n"

    def test_block_constants_repeat_on_each_row(self, tmp_path):
        path = tmp_path / "blocks.csv"
        blocks = [(10.0, np.array([0.1, 0.2]), np.float64(2.0) / 3.0, "brittle"),
                  (1e4, np.array([1e-13]), 5, "brittle"),
                  (7, 8, 9, "row")]
        emit_csv(("h", "t", "c", "s"), blocks, path)
        assert path.read_text().splitlines() == [
            "h,t,c,s",
            "10,0.1,0.666666666667,brittle",
            "10,0.2,0.666666666667,brittle",
            "10000,1e-13,5,brittle",
            "7,8,9,row",
        ]

    def test_columns_of_unequal_length_are_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length: \\[1, 2\\]"):
            emit_csv(("a", "b"), [(np.zeros(2), np.zeros(1))], tmp_path / "bad.csv")

    def test_a_bad_block_writes_nothing(self, tmp_path):
        # good blocks before the bad one: no header, no rows, no truncation
        blocks = [(np.ones(2), 1.0), (np.zeros(3), 2.0), (np.zeros(2), np.zeros(1))]
        fresh = tmp_path / "fresh.csv"
        with pytest.raises(ValueError, match="differ in length"):
            emit_csv(("a", "b"), blocks, fresh)
        assert not fresh.exists()
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"a,b\n1,2\n")
        with pytest.raises(ValueError, match="differ in length"):
            emit_csv(("a", "b"), blocks, kept)
        assert kept.read_bytes() == b"a,b\n1,2\n"

    def test_percent_in_a_string_constant_goes_out_as_is(self, tmp_path):
        path = tmp_path / "pct.csv"
        emit_csv(("x", "s", "t"), [(np.array([0.5, 2.0]), "50%", "%s%%d"), ("%", 1.5, "%.12g")],
                 path)
        assert path.read_bytes() == b"x,s,t\n0.5,50%,%s%%d\n2,50%,%s%%d\n%,1.5,%.12g\n"

    def test_integer_column_next_to_a_float_column(self, tmp_path):
        path = tmp_path / "mixed.csv"
        counts = np.array([0, 3, 10**12 - 1, -4], dtype=np.int64)
        values = np.array([1.0 / 3.0, -0.0, 1e21, 2.5e-300])
        emit_csv(("n", "v", "c"), [(counts, values, 7)], path)
        assert path.read_bytes() == (
            b"n,v,c\n"
            b"0,0.333333333333,7\n"
            b"3,-0,7\n"
            b"999999999999,1e+21,7\n"
            b"-4,2.5e-300,7\n"
        )


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

    def test_program_delta_sets_sampling(self, config_path, tmp_path):
        cfg = config_path(FULL_CONFIG.replace("delta = 0.1", "delta = 0.3"))
        out = tmp_path / "coarse.csv"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
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

    def test_sweep_check_exits_4_when_inconclusive(self, config_path, tmp_path, capsys):
        # at h = 1 the exponential bar stays a finite distance from the
        # brittle reference, so no limit is read; the CSV is still written
        cfg = config_path("[domain]\nelements = 4\n\n[law]\nkind = exponential\na = 2.0\n\n"
                          "[program]\nhorizon = 2.0\n\n[sweep]\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--alpha", "0.5", "--h", "1", "--check",
                     "--out", str(out)]) == 4
        assert capsys.readouterr().out.split() == ["regime=inconclusive"]
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        assert len(lines) > 1
        assert all(row.endswith(",inconclusive") for row in lines[1:])

    @pytest.mark.parametrize("kind, total", [("dugdale", 1485.9355954574141),
                                             ("exponential", 1485.838837026886)])
    def test_benchmark_ladder_is_pinned(self, kind, total, config_path, tmp_path, capsys):
        # the bar benchmark's brittle ladder at seed 0; the Dugdale sum is
        # the benchmark's reference objective
        cfg = config_path(f"[domain]\nelements = 4\n\n[law]\nkind = {kind}\na = 2.0\n\n"
                          "[program]\nhorizon = 2.0\n\n[sweep]\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--alpha", "0.5", "--h", "1,10,100,1000",
                     "--check", "--out", str(out)]) == 0
        assert capsys.readouterr().out.split() == ["regime=brittle_limit"]
        col = SWEEP_HEADER.index("total")
        totals = [float(row.split(",")[col]) for row in out.read_text().splitlines()[1:]]
        assert len(totals) == 2230
        assert sum(totals) == pytest.approx(total, rel=1e-12)

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

    def test_planar_check_fails_on_a_bulk_mismatch(self, config_path, monkeypatch, capsys):
        edge_bulk = Field2D.edge_bulk
        monkeypatch.setattr(Field2D, "edge_bulk", lambda field: edge_bulk(field) + 1e-3)
        assert main(["planar", "--config", config_path(FULL_CONFIG), "--check"]) == 4
        captured = capsys.readouterr()
        assert captured.out.split() == ["ell=1"]
        assert captured.err == "check failed: compliance monotone True, field bulk mismatch 0.001\n"

    @pytest.mark.parametrize("config, ell, digest", [
        # the planar benchmark's prefix inputs at seed 0
        ("[law]\nkind = dugdale\na = 2.0\n\n[planar]\nn = 64\nload = 0.3\nmode = cohesive\n"
         "crack_length = 0.5\ngamma = 0.1\nh = 1\n",
         "0.09375", "e24c24c29d69fdb41510ec1b047a00936b97092f6181e358741ae5d6036667f9"),
        # the README config
        (README_CONFIG,
         "0", "16d7886b313b84f4a7c6826519551d1a31e928f79a3806da029105a283c8f1f0"),
    ])
    def test_planar_csv_is_pinned(self, config, ell, digest, config_path, tmp_path, capsys):
        out = tmp_path / "planar.csv"
        assert main(["planar", "--config", config_path(config), "--out", str(out),
                     "--check"]) == 0
        assert capsys.readouterr().out.split() == [f"ell={ell}"]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("config, digests", [
        # the README config
        (README_CONFIG, ("36f54928e253a32de76f4874a3b2a82721b57eb1ed8f555556590bf9522baaa7",
                         "a0ee63201667684717d653710e31dd8ea1b02f3e63825d7a071a08206ac0d6ff",
                         "30f13f159b667e9d539afb37d2f313d7d010bcbf1e560233188e483ec712f3ae")),
        # the exponential law with memory on both end nodes
        (README_CONFIG.replace("dugdale", "exponential")
         .replace("elements = 8\n", "elements = 8\ncrack = 0.0:0.2, 1.0:0.4\n"),
         ("520dee1ada5e449ae079b7e768a7f3e835e49a195974aa0e5b3e25c5c65d1f33",
          "0dd2ac8afec3553eab69a5fcd4714a4ebd8db3618717ac11b37577a7791f4a02",
          "26377e431e430836f9bec949e75cbccdefdf66f38749a73b08607ed60330932e")),
    ])
    def test_bar_csvs_are_pinned(self, config, digests, config_path, tmp_path, capsys):
        cfg = config_path(config)
        for command, digest in zip(("evolve", "griffith", "sweep"), digests):
            out = tmp_path / f"{command}.csv"
            assert main([command, "--config", cfg, "--out", str(out), "--check"]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command
        assert capsys.readouterr().out.split() == ["regime=brittle_limit"]

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
    def test_planar_rejects_out_of_range(self, key, value, config_path, no_solve, capsys):
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

    def test_calls_in_one_process_share_no_arguments(self, config_path, monkeypatch, capsys):
        # the parser is built once; every call parses into a fresh namespace
        from cohesivefrac import cli

        seen = []
        monkeypatch.setattr(cli, "_run_sweep", lambda args: seen.append(vars(args)) or 0)
        cfg = config_path(FULL_CONFIG)
        assert main(["relax-check", "--a", "2.0"]) == 0
        assert main(["sweep", "--config", cfg, "--alpha", "0.25", "--check"]) == 0
        assert main(["sweep", "--config", cfg]) == 0
        fresh = {"command": "sweep", "config": cfg, "out": None, "check": False,
                 "alpha": None, "h": None}
        assert seen[1] == fresh
        with pytest.raises(SystemExit) as err:
            main(["relax-check", "--a", "2.0", "--alpha", "0.5"])
        assert err.value.code == 2
        assert cli._parser() is cli._parser()

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

    def test_planar_energy_overflow_exit_code(self, config_path, tmp_path, capsys):
        # a finite load whose energies overflow writes no CSV
        cfg = config_path("[law]\nkind = dugdale\na = 2\n\n[planar]\nn = 16\nload = 1e200\n")
        out = tmp_path / "sweep2d.csv"
        assert main(["planar", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "solver error: energy of prefix length 0 is not finite at load 1e+200\n")
        assert not out.exists()

    def test_solver_failure_exit_code(self, config_path, monkeypatch, capsys):
        def boom(path):
            raise PlanarNumericError("lip solve residual 1")

        monkeypatch.setattr("cohesivefrac.cli.load_config", boom)
        assert main(["planar", "--config", "ignored"]) == 3
        assert "solver error" in capsys.readouterr().err


BAR_SECTIONS = {
    "domain": {"elements": "8", "length": "1.0"},
    "law": {"kind": "dugdale", "a": "2.0"},
    "program": {"horizon": "1.2", "delta": "0.1"},
    "sweep": {"alpha": "0.5", "h": "1, 10"},
}


def _ini(sections: dict) -> str:
    """The config text of ``{section: {key: raw value}}``."""
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
        for name, keys in sections.items()
    )


def _bar_config(config_path, section=None, key=None, value=None):
    sections = {name: dict(keys) for name, keys in BAR_SECTIONS.items()}
    if section is not None:
        sections[section][key] = value
    return config_path(_ini(sections))


class TestBarRanges:
    @pytest.mark.parametrize("command, section, key, value", [
        ("sweep", "sweep", "alpha", "3"),
        ("sweep", "sweep", "h", "0.5"),
        ("sweep", "sweep", "h", "nan"),
        ("sweep", "sweep", "h", "10, 1"),
        ("evolve", "program", "delta", "0"),
        ("evolve", "program", "delta", "-0.1"),
        ("griffith", "program", "delta", "0"),
        ("evolve", "program", "horizon", "0"),
        ("evolve", "domain", "elements", "0"),
        ("evolve", "domain", "length", "0"),
        ("evolve", "law", "a", "-2"),
    ])
    def test_rejects_out_of_range(self, command, section, key, value, config_path,
                                  no_solve, capsys):
        cfg = _bar_config(config_path, section, key, value)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {key} must be"), err

    @pytest.mark.parametrize("command", ["evolve", "griffith", "sweep"])
    def test_ramp_that_overflows_rejected(self, command, config_path, no_solve, capsys):
        # each of rate and horizon is finite, their product is not
        sections = {name: dict(keys) for name, keys in BAR_SECTIONS.items()}
        sections["program"].update(horizon="2.0", rate="1e308")
        assert main([command, "--config", config_path(_ini(sections))]) == 2
        assert capsys.readouterr().err == (
            "config error: [program] rate must be finite, with rate * horizon finite, "
            "got 1e+308\n")

    @pytest.mark.parametrize("command, section, key, value", [
        ("evolve", "domain", "elements", "1.5"),
        ("evolve", "program", "horizon", "soon"),
        ("sweep", "sweep", "h", "1, x"),
        ("evolve", "domain", "crack", "0.5"),
        ("evolve", "law", "kind", "cubic"),
    ])
    def test_rejects_unreadable(self, command, section, key, value, config_path,
                                no_solve, capsys):
        # one value per reader kind, reported in the form of a range error
        cfg = _bar_config(config_path, section, key, value)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [{section}] {key} must be"), err

    def test_dirichlet_is_an_unknown_key(self, config_path, no_solve, capsys):
        # both ends of the bar are always held
        cfg = _bar_config(config_path, "domain", "dirichlet", "left,right")
        assert main(["evolve", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: unknown key(s) in [domain]: dirichlet\n")

    def test_sweep_delta_is_an_unknown_key(self, config_path, no_solve, capsys):
        # size h always steps at 1/h
        cfg = _bar_config(config_path, "sweep", "delta", "0.1")
        assert main(["sweep", "--config", cfg]) == 2
        assert capsys.readouterr().err == "config error: unknown key(s) in [sweep]: delta\n"

    @pytest.mark.parametrize("command", ["evolve", "griffith", "sweep"])
    def test_two_cracks_on_one_node_rejected(self, command, config_path, no_solve,
                                             capsys):
        # on 8 elements both positions snap to the node at 0.5
        cfg = _bar_config(config_path, "domain", "crack", "0.5:0.3, 0.55:0.9")
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "config error: [domain] crack: two entries on crack site 4 (x = 0.5)\n")

    @pytest.mark.parametrize("flag, value", [("--alpha", "3"), ("--h", "0.5")])
    def test_sweep_override_range_checked(self, flag, value, config_path, no_solve,
                                          capsys):
        assert main(["sweep", "--config", _bar_config(config_path), flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [sweep] {flag[2:]} must be"), err

    def test_sweep_h_override_read_as_the_key(self, config_path, no_solve, capsys):
        assert main(["sweep", "--config", _bar_config(config_path), "--h", "1,x"]) == 2
        assert capsys.readouterr().err == (
            "config error: [sweep] h must be a comma-separated float list, got '1,x'\n")

    @pytest.mark.parametrize("command", ["evolve", "griffith", "sweep", "planar"])
    def test_delta_is_not_a_flag(self, command, config_path):
        # the step is set by [program] delta alone
        with pytest.raises(SystemExit) as err:
            main([command, "--config", config_path(FULL_CONFIG), "--delta", "0.5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["evolve", "griffith"])
    def test_check_requires_energy_balance(self, command, config_path, monkeypatch, capsys):
        class Report:
            cumulative_violation = 3e-7

        monkeypatch.setattr("cohesivefrac.cli.energy_balance_report", lambda *a: Report())
        assert main([command, "--config", _bar_config(config_path), "--check"]) == 4
        assert "energy-balance violation 3e-07" in capsys.readouterr().err


def _tear_sections(kind="dugdale", alpha=0.25, h=1, crack=0.5) -> dict:
    return {
        "law": {"kind": kind, "a": 2.0},
        "planar": {"n": 16, "alpha": alpha, "h": h, "crack_length": crack, "gamma": 0.1},
        "program": {"horizon": 2, "delta": 0.05},
    }


class TestTear:
    def test_readme_config_is_pinned(self, config_path, tmp_path, monkeypatch):
        runs, blocks = [], []

        def spy_evolve(*args):
            runs.append(evolve_tearing(*args))
            return runs[-1]

        def spy_emit(header, columns, path):
            blocks.extend(columns)
            emit_csv(header, columns, path)

        monkeypatch.setattr("cohesivefrac.cli.evolve_tearing", spy_evolve)
        monkeypatch.setattr("cohesivefrac.cli.emit_csv", spy_emit)
        cfg, out = config_path(README_CONFIG), tmp_path / "tear.csv"
        assert main(["tear", "--config", cfg, "--out", str(out), "--check"]) == 0
        first = out.read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == ",".join(TEAR_HEADER) and len(lines) == 1 + 202
        assert hashlib.sha256(first).hexdigest() == (
            "0999610832bcda00ae3e9fde4fa616a3ede68f83c25ff11fb5ae3bc43223a505")
        total = blocks[0][TEAR_HEADER.index("total")]
        assert np.array_equal(total, [step.energy for step in runs[0]])
        assert main(["tear", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("kind", ["dugdale", "exponential"])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("h", [1, 10, 100])
    @pytest.mark.parametrize("crack", [0, 0.5])
    def test_check_holds(self, kind, alpha, h, crack, config_path, capsys):
        cfg = config_path(_ini(_tear_sections(kind, alpha, h, crack)))
        assert main(["tear", "--config", cfg, "--check"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fault, message", [
        (lambda step: dataclasses.replace(step, psi=0.0 * step.psi),
         "check failed: memory decreased at t = 2\n"),
        (lambda step: dataclasses.replace(step, energy=step.energy + 1e-3),
         "check failed: negative minimality slack"),
    ], ids=["memory", "slack"])
    def test_check_fails_on_an_injected_fault(self, fault, message, config_path,
                                              monkeypatch, capsys):
        def faulty(*args):
            steps = evolve_tearing(*args)
            return steps[:-1] + [fault(steps[-1])]

        monkeypatch.setattr("cohesivefrac.cli.evolve_tearing", faulty)
        assert main(["tear", "--config", config_path(README_CONFIG), "--check"]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("planar", "n", 15),
        ("planar", "crack_length", -0.5),
        ("planar", "crack_length", 1.5),
        ("program", "horizon", "nan"),
        ("program", "horizon", "inf"),
        ("planar", "mode", "griffith"),  # the plate evolution is cohesive only
        ("program", None, None),
        ("planar", None, None),
    ])
    def test_rejects_before_solving(self, section, key, value, config_path, no_solve, capsys):
        sections = _tear_sections()
        if key is None:
            del sections[section]
        else:
            sections[section][key] = value
        assert main(["tear", "--config", config_path(_ini(sections))]) == 2
        want = (f"[{section}] {key} must be" if key
                else f"missing required section(s): {section}")
        assert capsys.readouterr().err.startswith(f"config error: {want}")

    def test_energy_overflow_exits_3(self, config_path, tmp_path, capsys):
        # a finite ramp whose lip energies overflow writes no CSV
        sections = _tear_sections()
        sections["program"] = {"horizon": 1, "delta": 0.5, "rate": 1e200}
        out = tmp_path / "tear.csv"
        argv = ["tear", "--config", config_path(_ini(sections)), "--check", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "solver error: energy of a start is not finite at load 3.33333333333e+199\n")
        assert not out.exists()

    @pytest.mark.parametrize("slack, violation, message", [
        (np.inf, 0.0, "minimality slack not finite"),
        (np.nan, 0.0, "minimality slack not finite"),
        (0.0, -np.inf, "cumulative energy-balance violation -inf"),
        (0.0, np.nan, "cumulative energy-balance violation nan"),
    ])
    def test_check_fails_on_a_nonfinite_slack_or_violation(self, slack, violation, message,
                                                            capsys):
        assert _check_exit([], np.array([0.0, slack]), violation) == 4
        assert capsys.readouterr().err == f"check failed: {message}\n"

    def test_stalled_solve_exits_3(self, config_path, monkeypatch, capsys):
        monkeypatch.setattr("cohesivefrac.planar2d.AM_MAX_ITERS", 1)
        assert main(["tear", "--config", config_path(_ini(_tear_sections()))]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: step minimization not converged after 1 iterations")


def test_readme_commands_run(tmp_path, monkeypatch):
    # the README config and each command of the README's CLI block, as written
    commands = [line.split()[1:] for lang, text in README_BLOCKS if lang == "sh"
                for line in text.splitlines() if line.startswith("cohesivefrac ")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(README_CONFIG)
    assert "tear" in {argv[0] for argv in commands}
    for argv in commands:
        assert main(argv) == 0, argv


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cohesivefrac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_readme_library_example_runs():
    # the README's python block, as written, imports from the package's
    # exports alone and prints the first crack time and the last total
    (code,) = [text for lang, text in README_BLOCKS if lang == "python"]
    run = _python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "1.0049751243781095 1.0\n"


def _loads_scipy(code: str) -> bool:
    """Whether running ``code`` in a fresh interpreter leaves a scipy module loaded."""
    code += "\nimport sys; sys.exit(3 * any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    run = _python(code)
    assert run.returncode in (0, 3), f"the code failed with exit code {run.returncode}:\n{run.stderr}"
    return run.returncode == 3


def test_cli_import_leaves_scipy_special_unloaded():
    # the runtime needs numpy alone: scipy serves only the tests
    assert not _loads_scipy("import cohesivefrac.cli")


def test_dugdale_runs_leave_scipy_unloaded():
    # neither law loads scipy: an exceed step, an evolution and a tearing
    # step, first Dugdale, then exponential
    code = "\n".join((
        "from cohesivefrac import *",
        "from cohesivefrac.solver1d import _cohesive_path",
        "for kind in LawKind:",
        "    laws = plain_laws(CohesiveLaw(kind, 2.0))",
        "    _cohesive_path(laws, 1.0, [1.5], [0.0, 0.2, 0.0])  # 1.5 exceeds the memory",
        "    trace = evolve(Domain1D.uniform(1.0, 4), CrackState(),",
        "                   LoadProgram.linear_ramp(2.0, 0.1), laws)",
        "    assert trace.jumps.any()",
        "    evolve_tearing(Grid2D.precracked(8, 0.5, 0.1), [0.5], laws)",
    ))
    assert not _loads_scipy(code)
    # the guard sees scipy when it is loaded
    assert _loads_scipy("import scipy.special")


def test_cli_runs_with_scipy_blocked(config_path, tmp_path):
    # with every scipy import made to fail, each bar command and the
    # plate's prefix sweep run an exponential config to the end
    cfg = config_path(README_CONFIG.replace("dugdale", "exponential")
                      .replace("elements = 8\n", "elements = 8\ncrack = 0.0:0.2, 1.0:0.4\n"))
    runs = [[command, "--config", cfg, "--out", str(tmp_path / f"{command}.csv"), *check]
            for command, check in (("evolve", ["--check"]), ("griffith", ["--check"]),
                                   ("sweep", []), ("planar", ["--check"]))]
    run = _python("\n".join((
        "import sys",
        "sys.modules['scipy'] = None  # import scipy now raises ImportError",
        "from cohesivefrac.cli import main",
        f"print('exit codes', [main(argv) for argv in {runs!r}])",
    )))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "exit codes [0, 0, 0, 0]"
    assert all((tmp_path / f"{command}.csv").stat().st_size > 0
               for command in ("evolve", "griffith", "sweep", "planar"))
