"""End-to-end acceptance checks, one test per shipped guarantee.

Each test appends a PASS/FAIL line (echoed after the run summary by the
conftest hook) and enforces its own wall-clock budget, so this module
doubles as the release gate: a red test here means the package does not
deliver what the README claims.
"""

import time

import numpy as np
import pytest

from cohesivefrac.bar1d import CrackState, Domain1D, total_energy
from cohesivefrac.evolution import (
    LoadProgram,
    energy_balance_report,
    evolve,
    first_crack_time,
)
from cohesivefrac.laws import BulkDensity, CohesiveLaw, LawKind, plain_laws, relax_bulk_oracle
from cohesivefrac.planar2d import (
    Grid2D,
    alternate_minimize,
    prefix_crack_sweep,
    solve_elastic,
    tearing_gap_ladder,
)
from cohesivefrac.scaling import (
    BarProblem,
    Regime,
    classify_regime,
    piecewise_constant_minimum,
    size_effect_sweep,
    total_variation_constant,
    trace_jump_counts,
    uniform_bound_constant,
)
from cohesivefrac.solver1d import brute_force_minimize, incremental_minimize

DUGDALE = CohesiveLaw(LawKind.DUGDALE, 2.0)

CRITERIA_RESULTS = []


def _verdict(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    CRITERIA_RESULTS.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def griffith_run():
    program = LoadProgram.linear_ramp(2.0, 0.01)
    t0 = time.perf_counter()
    trace = evolve(Domain1D.uniform(1.0, 4), CrackState(), program,
                   plain_laws(DUGDALE), "griffith")
    return trace, program, time.perf_counter() - t0


@pytest.fixture(scope="module")
def brittle_run():
    base = BarProblem.tearing(Domain1D.uniform(1.0, 4), DUGDALE, 2.0)
    t0 = time.perf_counter()
    report = size_effect_sweep(base, 0.5, [1.0, 10.0, 100.0, 1e4])
    return base, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rupture_run():
    base = BarProblem(
        Domain1D.uniform(1.0, 4, crack=((0.5, 1.0),)),
        DUGDALE,
        lambda t: 0.0,
        lambda t: 1.0 + t,
        1.0,
    )
    t0 = time.perf_counter()
    report = size_effect_sweep(base, 0.75, [1.0, 16.0, 256.0])
    return base, report, time.perf_counter() - t0


def test_relaxed_density_matches_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for a in (0.5, 2.0, 10.0):
        xi = np.linspace(-5.0 * a, 5.0 * a, 201)
        got = relax_bulk_oracle(lambda x: x * x, a, xi, 2e-4)
        worst = max(worst, float(np.max(np.abs(got - BulkDensity(a)(xi)))))
    elapsed = time.perf_counter() - t0
    _verdict(
        "relaxed-density",
        worst <= 1e-3 and elapsed < 1.0,
        f"max |closed form - oracle| = {worst:.3g} in {elapsed:.2f}s",
    )


def test_random_bars_never_beaten_by_oracle():
    rng = np.random.default_rng(20260814)
    t0 = time.perf_counter()
    worst_above = -np.inf
    for _ in range(200):
        elements = int(rng.integers(1, 5))
        domain = Domain1D.uniform(1.0, elements)
        crack = CrackState()
        if rng.random() < 0.5:
            site = int(rng.integers(0, elements))
            crack = CrackState({site: float(abs(rng.normal(0.0, 0.5)))})
        g = (float(rng.uniform(-2.5, 2.5)), float(rng.uniform(-2.5, 2.5)))
        a = float(rng.uniform(0.5, 4.0))
        kind = LawKind.DUGDALE if rng.random() < 0.5 else LawKind.EXPONENTIAL
        laws = plain_laws(CohesiveLaw(kind, a))
        # two active sites blow past the candidate budget at the fine step
        step = 4e-3 if crack.psi else 1e-3
        u = incremental_minimize(domain, crack, g, laws)
        v = brute_force_minimize(domain, crack, g, laws, step)
        e_u = total_energy(u, crack, laws, domain).total
        e_v = total_energy(v, crack, laws, domain).total
        worst_above = max(worst_above, e_u - e_v)
        assert e_u >= e_v - 2.0 * a * step
    elapsed = time.perf_counter() - t0
    _verdict(
        "random-oracle",
        worst_above <= 1e-9 and elapsed < 30.0,
        f"200 problems, max(structured - oracle) = {worst_above:.3g} in {elapsed:.1f}s",
    )


def test_griffith_bar_trajectory_and_balance(griffith_run):
    trace, _, elapsed = griffith_run
    delta = 0.01
    t_star = first_crack_time(trace)
    times = trace.times()
    off_step = np.abs(times - t_star) > delta
    traj_err = float(np.max(np.abs(trace.totals() - np.minimum(times**2, 1.0))[off_step]))
    report = energy_balance_report(trace)
    balance_err = float(np.max(np.abs(report.griffith_deviation[off_step])))
    ok = (
        1.0 < t_star <= 1.0 + delta
        and traj_err <= 1e-9
        and balance_err <= 5.0 * delta
        and elapsed < 5.0
    )
    _verdict(
        "griffith-bar",
        ok,
        f"t* = {t_star:.4f}, trajectory err {traj_err:.2g}, "
        f"balance err {balance_err:.2g} in {elapsed:.1f}s",
    )


def test_irreversibility_across_traces(griffith_run, brittle_run, rupture_run):
    traces = [griffith_run[0]]
    traces += [row.trace for row in brittle_run[1].rows]
    traces += [row.trace for row in rupture_run[1].rows]
    violations = open_walks = 0
    for trace in traces:
        domain, program = trace.domain, trace.program
        initial = domain.initial_crack_state()
        memory = np.vstack([[initial.value(s) for s in domain.jump_sites()], trace.psi])
        violations += int(np.count_nonzero(np.diff(memory, axis=0) < 0.0))
        # each row's slope and oriented jumps carry one datum to the other
        walk = domain.length * trace.slope + trace.jumps.sum(axis=1)
        scale = 1.0 + np.abs(program.left) + np.abs(program.right)
        open_walks += int(np.count_nonzero(np.abs(walk - program.deltas()) > 1e-9 * scale))
    _verdict(
        "irreversibility",
        violations == 0 and open_walks == 0,
        f"{violations} memory regressions and {open_walks} open walks "
        f"across {len(traces)} traces",
    )


def test_brittle_scaling_ladder(brittle_run):
    _, report, elapsed = brittle_run
    gaps = np.array([row.gap_sup for row in report.rows])
    surface = report.rows[-1].trace.surface
    integer_dev = float(np.max(np.abs(surface - np.round(surface))))
    ok = (
        bool(np.all(np.diff(gaps) <= 1e-6))
        and gaps[-1] < 0.05
        and integer_dev <= 0.05
        and classify_regime(report) is Regime.BRITTLE_LIMIT
        and elapsed < 120.0
    )
    _verdict(
        "brittle-ladder",
        ok,
        f"gaps {np.array2string(gaps, precision=3)}, "
        f"surface-integer dev {integer_dev:.2g} in {elapsed:.1f}s",
    )


def test_uniform_energy_and_variation_bounds(brittle_run):
    base, report, _ = brittle_run
    c_energy = uniform_bound_constant(base)
    c_variation = total_variation_constant(base)
    violations = sum(
        1
        for row in report.rows
        if row.max_total > c_energy + 1e-9 or row.max_tv > c_variation + 1e-9
    )
    _verdict(
        "uniform-bounds",
        violations == 0,
        f"totals <= {c_energy:.3g}, variation <= {c_variation:.3g}, "
        f"{violations} violations over {len(report.rows)} sizes",
    )


def test_rupture_gradient_bound_and_partition(rupture_run):
    base, report, elapsed = rupture_run
    bound_ok = True
    for row in report.rows:
        expected = 4.0 / (2.0 * row.h**0.75)
        bound_ok &= row.rupture_bound == pytest.approx(expected, rel=1e-12)
        bound_ok &= row.initial_grad_l1 <= row.rupture_bound + 1e-9
    pieces = piecewise_constant_minimum((0.0, 2.0))
    counts = trace_jump_counts(report.rows[-1].trace)
    ok = (
        bool(bound_ok)
        and bool(np.all(counts == pieces))
        and classify_regime(report) is Regime.RUPTURE
        and elapsed < 60.0
    )
    _verdict(
        "rupture-bound",
        ok,
        f"gradient bound respected on {len(report.rows)} sizes, "
        f"jump counts == {pieces} in {elapsed:.1f}s",
    )


def test_planar_elastic_limit_ladder():
    t0 = time.perf_counter()
    gaps = tearing_gap_ladder(
        DUGDALE, 0.25, [1.0, 10.0, 100.0, 1000.0], n=64,
        crack_length=0.5, gamma=0.1, times=[0.2, 0.4, 0.6, 0.8, 1.0],
    )
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.diff(gaps) <= 1e-6)) and gaps[-1] < 0.1 and elapsed < 300.0
    _verdict(
        "planar-elastic-limit",
        ok,
        f"gaps {np.array2string(gaps, precision=3)} in {elapsed:.1f}s",
    )


def test_planar_solver_sanity():
    t0 = time.perf_counter()
    # the swept lip bulk 2 q.S.q against the five-point bulk of the rebuilt field
    sweep = prefix_crack_sweep(Grid2D(64), 0.3, plain_laws(DUGDALE))
    mismatch = max(
        abs(solve_elastic(Grid2D(64), range(k), 0.3).edge_bulk() - b) / max(1.0, b)
        for k, b in enumerate(sweep.bulk)
    )

    compliance_ok = True
    for n in (16, 24):
        for t in (0.5, 3.0):
            for mode in ("cohesive", "griffith"):
                sweep = prefix_crack_sweep(Grid2D(n), t, plain_laws(DUGDALE), mode)
                compliance_ok &= bool(np.all(np.diff(sweep.bulk) <= 1e-12))

    am_ok = True
    grid = Grid2D(16)
    for t in (0.1, 0.8, 2.5):
        for start in (None, np.full(17, 2.0 * t)):
            res = alternate_minimize(grid, t, plain_laws(DUGDALE),
                                     start_jumps=start)
            am_ok &= bool(np.all(np.diff(res.energies) <= 1e-9))
    elapsed = time.perf_counter() - t0
    ok = mismatch <= 1e-10 and compliance_ok and am_ok and elapsed < 60.0
    _verdict(
        "planar-sanity",
        ok,
        f"field bulk mismatch {mismatch:.2g}, compliance monotone {compliance_ok}, "
        f"descent monotone {am_ok} in {elapsed:.1f}s",
    )
