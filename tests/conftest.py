import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one verdict line per acceptance criterion, collected by the tests
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERIA_RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def config_path(tmp_path):
    def write(text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def no_solve(monkeypatch):
    """Every solver entry point of the CLI fails the test when reached."""
    def solve(*args, **kwargs):
        raise AssertionError("solver reached")

    for name in ("evolve", "size_effect_sweep", "prefix_crack_sweep", "evolve_tearing"):
        monkeypatch.setattr(f"cohesivefrac.cli.{name}", solve)
