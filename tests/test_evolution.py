import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    total_energy,
)
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws, rescale_laws
from cohesivefrac.solver1d import TIE_TOL
from cohesivefrac.evolution import (
    LoadProgram,
    energy_balance_report,
    evolve,
    first_crack_time,
)
from bar_step import griffith_energy

DUGDALE2 = plain_laws(CohesiveLaw(LawKind.DUGDALE, 2.0))
EXPONENTIAL2 = plain_laws(CohesiveLaw(LawKind.EXPONENTIAL, 2.0))

# frozen by the per-step oracle: stationarity t - J = exp(-2 J) at t = 1.1
EXP_J_AT_1_1 = 0.9506153379589974
EXP_TOTAL_AT_1_1 = 0.8729311153091204


def bar(elements=4, crack=()):
    return Domain1D.uniform(1.0, elements, crack=crack)


class TestLoadProgram:
    def test_ramp_grid_stays_below_delta(self):
        program = LoadProgram.linear_ramp(2.0, 0.01)
        assert program.times.size == 202
        assert program.times[0] == 0.0
        assert program.times[-1] == 2.0
        assert np.diff(program.times).max() < 0.01

    def test_sampled_hits_horizon_exactly(self):
        program = LoadProgram.sampled(lambda t: 0.0, lambda t: 1.0 + t, 1.1, 0.01)
        assert program.times[-1] == 1.1
        assert np.diff(program.times).max() < 0.01
        assert program.pair(0) == (0.0, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            LoadProgram(np.array([0.0, 0.5, 0.5]), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            LoadProgram(np.array([0.1, 0.5]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            LoadProgram(np.array([0.0, 0.5]), np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            LoadProgram(np.array([0.0, 0.5]), np.array([0.0, np.inf]), np.zeros(2))
        with pytest.raises(ValueError):
            LoadProgram.linear_ramp(2.0, 0.0)

    @pytest.mark.parametrize("horizon, delta", [(math.nan, 0.01), (math.inf, 0.01),
                                                (2.0, math.nan), (2.0, math.inf)])
    def test_sampled_rejects_a_nonfinite_horizon_or_step(self, horizon, delta):
        with pytest.raises(ValueError, match="horizon and delta must be positive and finite"):
            LoadProgram.sampled(lambda t: 0.0, lambda t: t, horizon, delta)


class TestMemoryUpdate:
    """``evolve``'s update ``psi' = psi v |jump|``, read off one step's columns."""

    @staticmethod
    def one_step(crack, delta):
        domain = bar(crack=crack)
        program = LoadProgram(np.zeros(1), np.zeros(1), np.array([delta]))
        trace = evolve(domain, domain.initial_crack_state(), program, DUGDALE2, "cohesive")
        return trace.jumps[0], trace.psi[0]

    def test_existing_memory_dominates_smaller_jump(self):
        # the opening refills the memory at site 2 (node 0.5) for free
        jumps, psi = self.one_step(((0.5, 0.6),), 0.3)
        assert jumps[2] == pytest.approx(0.3, abs=1e-12)
        assert psi[2] == 0.6

    def test_larger_jump_raises_memory(self):
        # past saturation the excess opens the remembered site for free
        jumps, psi = self.one_step(((0.5, 0.6),), -0.9)
        assert jumps[2] == pytest.approx(-0.9, abs=1e-12)
        assert psi[2] == abs(jumps[2])

    def test_fresh_site_enters(self):
        jumps, psi = self.one_step((), 1.2)
        assert np.count_nonzero(psi) == 1
        assert np.array_equal(psi, np.abs(jumps))
        assert psi.max() == pytest.approx(1.2, abs=1e-12)


@pytest.fixture(scope="module")
def griffith_trace():
    return evolve(bar(), CrackState(), LoadProgram.linear_ramp(2.0, 0.01), DUGDALE2, "griffith")


class TestGriffithBar:
    def test_crack_time_just_above_one(self, griffith_trace):
        t_star = first_crack_time(griffith_trace)
        assert 1.0 < t_star <= 1.01

    def test_energy_is_min_of_square_and_one(self, griffith_trace):
        times = griffith_trace.times()
        expected = np.minimum(times**2, 1.0)
        assert np.allclose(griffith_trace.totals(), expected, atol=1e-9)

    def test_crack_is_single_site_after_break(self, griffith_trace):
        t_star = first_crack_time(griffith_trace)
        for r in griffith_trace.records:
            if r.time >= t_star:
                assert len(r.displacement.jumps) == 1
                assert r.energy.bulk == pytest.approx(0.0, abs=1e-12)

    def test_irreversibility(self, griffith_trace):
        # the memory columns, from the empty initial crack on
        memory = np.vstack([np.zeros(griffith_trace.psi.shape[1]), griffith_trace.psi])
        assert np.all(np.diff(memory, axis=0) >= 0.0)

    def test_balance_report(self, griffith_trace):
        report = energy_balance_report(griffith_trace)
        assert griffith_trace.slack.min() >= -1e-9
        assert report.cumulative_violation <= 1e-9
        t_star = first_crack_time(griffith_trace)
        delta = 0.01
        mask = np.abs(griffith_trace.times() - t_star) > delta
        assert np.max(np.abs(report.griffith_deviation[mask])) <= 5 * delta


def griffith_steps(laws, L, deltas, psi):
    """The brittle evolution step by step: ``(slopes, jumps, memory)``.

    Each step is the one-step brittle rule: with any cracked site the
    leftmost one takes the datum; otherwise the elastic state wins up to
    ``bw*delta**2/L <= sw + TIE_TOL`` and the leftmost site takes it past
    that.  The memory is updated to ``psi v |jump|`` after each step.
    """
    slopes, jump_rows, memory = [], [], []
    for delta in deltas:
        jumps = [0.0] * len(psi)
        slope = 0.0
        if delta != 0.0:
            site = next((k for k, p in enumerate(psi) if p > 0.0), None)
            if site is None and laws.bulk_weight * delta**2 / L <= laws.surface_weight + TIE_TOL:
                slope = delta / L
            else:
                jumps[0 if site is None else site] = delta
        psi = [max(p, abs(j)) for p, j in zip(psi, jumps)]
        slopes.append(slope)
        jump_rows.append(jumps)
        memory.append(psi)
    return np.array(slopes), np.array(jump_rows), np.array(memory)


class TestGriffithPath:
    """The closed-form brittle path against the step-by-step rule, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("crack", [(), ((0.5, 0.3),), ((0.25, 1.0), (0.75, 0.2))])
    @pytest.mark.parametrize("h, alpha", [(1.0, 0.5), (4.0, 0.75), (9.0, 0.25)])
    def test_path_equals_the_step_rule(self, seed, crack, h, alpha):
        rng = np.random.default_rng(seed)
        steps = 40
        # zero, negative and sign-changing data; both zeros; and for
        # these sizes (L = 2) the tie bw*delta**2/L = sw at |delta| = 1
        # when h = 4, alpha = 3/4
        data = rng.normal(0.0, 1.2, steps) * rng.choice([0.0, 1.0, 1.0, 1.0], steps)
        data[rng.integers(0, steps, 3)] = rng.choice([1.0, -1.0, -0.0], 3)
        if seed % 2:
            data = -np.abs(data)
        domain = Domain1D.uniform(2.0, 4, crack=crack)
        laws = rescale_laws(CohesiveLaw(LawKind.DUGDALE, 2.0), h, alpha)
        program = LoadProgram(np.arange(steps, dtype=float), np.zeros(steps), data)
        trace = evolve(domain, domain.initial_crack_state(), program, laws, "griffith")
        psi = [domain.initial_crack_state().value(s) for s in domain.jump_sites()]
        slopes, jumps, memory = griffith_steps(laws, domain.length, program.deltas().tolist(), psi)
        assert trace.slope.tobytes() == slopes.tobytes()
        assert trace.jumps.tobytes() == jumps.tobytes()
        assert trace.psi.tobytes() == memory.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tie_stays_elastic_then_the_leftmost_site_breaks(self, sign):
        # plain laws on a unit bar: the tie is |delta| = 1, and data within
        # TIE_TOL of it stay elastic
        domain = bar()
        data = sign * np.array([0.5, 1.0, 1.0 + 1e-13, 0.0, 1.0 + 1e-9, 0.2, -0.3])
        program = LoadProgram(np.arange(7, dtype=float), np.zeros(7), data)
        trace = evolve(domain, CrackState(), program, DUGDALE2, "griffith")
        assert trace.slope.tolist() == [sign * 0.5, sign * 1.0, sign * (1.0 + 1e-13), 0, 0, 0, 0]
        assert not trace.jumps[:4].any()
        assert trace.jumps[4:, 0].tolist() == data[4:].tolist()
        assert not trace.jumps[:, 1:].any()
        assert trace.psi[:, 0].tolist() == [0.0] * 4 + [1.0 + 1e-9] * 3


class TestCohesiveDugdale:
    def test_matches_griffith_reference(self, griffith_trace):
        # Dugdale at a=2 is globally brittle for the unit ramp: partial
        # openings never pay off, so the whole evolution coincides
        program = LoadProgram.linear_ramp(2.0, 0.01)
        trace = evolve(bar(), CrackState(), program, DUGDALE2, "cohesive")
        assert np.allclose(trace.totals(), griffith_trace.totals(), atol=1e-9)
        assert first_crack_time(trace) == first_crack_time(griffith_trace)
        report = energy_balance_report(trace)
        assert trace.slack.min() >= -1e-9
        assert report.cumulative_violation <= 1e-9


class TestCohesiveExponential:
    def test_partial_opening_trajectory(self):
        program = LoadProgram.sampled(lambda t: 0.0, lambda t: t, 1.1, 0.01)
        trace = evolve(bar(), CrackState(), program, EXPONENTIAL2, "cohesive")
        last = trace.records[-1]
        assert last.time == 1.1
        opening = max(abs(v) for v in last.displacement.jumps.values())
        assert opening == pytest.approx(EXP_J_AT_1_1, abs=1e-5)
        assert last.energy.total == pytest.approx(EXP_TOTAL_AT_1_1, abs=1e-8)
        report = energy_balance_report(trace)
        assert trace.slack.min() >= -1e-9
        assert report.cumulative_violation <= 1e-9

    def test_memory_never_binds_under_growing_load(self):
        # J*(t) increases along the ramp, so each step reopens past psi
        program = LoadProgram.sampled(lambda t: 0.0, lambda t: t, 1.1, 0.01)
        trace = evolve(bar(), CrackState(), program, EXPONENTIAL2, "cohesive")
        openings = [
            max((abs(v) for v in r.displacement.jumps.values()), default=0.0)
            for r in trace.records
        ]
        assert all(b >= a - 1e-12 for a, b in zip(openings, openings[1:]))


class TestConstantLoad:
    def test_energy_and_work_are_constant(self):
        times = np.array([0.0, 0.5, 1.0, 1.5])
        program = LoadProgram(times, np.zeros(4), np.full(4, 0.8))
        trace = evolve(bar(), CrackState(), program, EXPONENTIAL2, "cohesive")
        totals = trace.totals()
        assert np.allclose(totals, totals[0], atol=1e-12)
        assert np.allclose(trace.work, 0.0, atol=1e-15)
        assert trace.slack.min() >= -1e-12


@pytest.fixture(scope="module")
def traces():
    return {
        delta: evolve(
            bar(),
            CrackState(),
            LoadProgram.linear_ramp(2.0, delta),
            DUGDALE2,
            "cohesive",
        )
        for delta in (0.1, 0.01, 0.001)
    }


class TestRefinement:
    def test_uniform_energy_bound(self, traces):
        # C' from the program data: |grad g(0)|^2 + #initial sites
        # + 2 max|grad g| TV(grad g) + 1 = 0 + 0 + 8 + 1
        for trace in traces.values():
            assert trace.totals().max() <= 9.0

    def test_crack_time_stability(self, traces):
        t_star = {d: first_crack_time(t) for d, t in traces.items()}
        assert abs(t_star[0.1] - t_star[0.01]) <= 0.1
        assert abs(t_star[0.01] - t_star[0.001]) <= 0.01


class TestErrorPropagation:
    def test_unknown_mode_rejected(self):
        program = LoadProgram.linear_ramp(1.0, 0.5)
        with pytest.raises(ValueError):
            evolve(bar(), CrackState(), program, DUGDALE2, "plastic")

    @pytest.mark.parametrize("mode", ["cohesive", "griffith"])
    def test_memory_off_the_bar_rejected(self, mode, monkeypatch):
        import cohesivefrac.evolution as evo

        # no step runs: the site is named before either path is called
        monkeypatch.setattr(evo, "_cohesive_path", None)
        monkeypatch.setattr(evo, "_griffith_path", None)
        program = LoadProgram.linear_ramp(2.0, 0.5)
        with pytest.raises(ValueError, match=r"memory at sites \[5, 99\] off the bar"):
            evolve(bar(), CrackState({99: 0.5, 2: 0.1, 5: 0.2}), program, DUGDALE2, mode)

    def test_memory_that_decreases_raises(self, monkeypatch):
        import cohesivefrac.evolution as evo

        # a memory update that forgets: psi' = |jump| in place of psi v |jump|
        path = evo._cohesive_path

        def forgetting_path(*args):
            slopes, jumps, _ = path(*args)
            return slopes, jumps, np.abs(jumps)

        monkeypatch.setattr(evo, "_cohesive_path", forgetting_path)
        program = LoadProgram(np.array([0.0, 1.0]), np.zeros(2), np.array([2.0, 0.0]))
        with pytest.raises(RuntimeError, match="irreversibility"):
            evolve(bar(), CrackState(), program, DUGDALE2, "cohesive")


# (g_left, g_right, horizon, delta) of each sampled program
SAMPLED = {
    "ramp": (lambda t: 0.0, lambda t: 1.0 * t, 2.0, 0.05),
    "negative": (lambda t: 0.2, lambda t: -1.5 * t, 1.5, 0.05),
    "cyclic": (lambda t: 0.0, lambda t: 1.6 * np.sin(3.0 * t), 3.0, 0.05),
}
PROGRAMS = {name: LoadProgram.sampled(*spec) for name, spec in SAMPLED.items()}
LAWS = {
    "dugdale": DUGDALE2,
    "exponential": EXPONENTIAL2,
    "exponential-scaled": rescale_laws(CohesiveLaw(LawKind.EXPONENTIAL, 2.0), 10.0, 0.75),
}
BARS = {
    "uncracked": (1.0, 8, ()),
    "precracked": (1.0, 8, ((0.25, 0.3), (0.5, 0.2))),
    "uneven": (2.0, 3, ((2.0 / 3.0, 0.4),)),
}


@pytest.mark.parametrize("mode", ["cohesive", "griffith"])
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("shape", BARS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_columns_match_independent_energies(mode, law, shape, name):
    # the closed-form columns against the generic energies of the records
    # view, each step priced with the memory before it
    laws, program = LAWS[law], PROGRAMS[name]
    length, elements, crack = BARS[shape]
    domain = Domain1D.uniform(length, elements, crack=crack)
    trace = evolve(domain, domain.initial_crack_state(), program, laws, mode)

    def energy(u, before):
        if mode == "griffith":
            return griffith_energy(u, before.sites, domain, laws)
        return total_energy(u, before, laws, domain)

    deltas = program.deltas()
    before = domain.initial_crack_state()
    prev = Displacement1D(deltas[0] / length)
    for i, r in enumerate(trace.records):
        e = energy(r.displacement, before)
        # the generic pricing and the column are one expression
        assert e.bulk == trace.bulk[i]
        assert abs(e.surface - trace.surface[i]) <= 1e-12
        dgrad = 0.0 if i == 0 else (deltas[i] - deltas[i - 1]) / length
        competitor = Displacement1D(prev.slope + dgrad, prev.jumps)
        assert abs(energy(competitor, before).total - e.total - trace.slack[i]) <= 1e-12
        fprime = 2.0 * prev.slope if mode == "griffith" else laws.bulk.deriv(prev.slope)
        work = laws.bulk_weight * length * fprime * dgrad
        assert abs(work - trace.work[i]) <= 1e-12
        before, prev = r.crack, r.displacement


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=6),
    psi=st.floats(0.0, 1.0),
    exponential=st.booleans(),
)
def test_any_program_keeps_slack_and_memory_invariants(values, psi, exponential):
    crack_spec = ((0.5, psi),) if psi > 0 else ()
    domain = bar(crack=crack_spec)
    laws = EXPONENTIAL2 if exponential else DUGDALE2
    times = np.arange(len(values), dtype=float)
    program = LoadProgram(times, np.zeros(len(values)), np.asarray(values))
    trace = evolve(domain, domain.initial_crack_state(), program, laws, "cohesive")
    assert trace.slack.min() >= -1e-9
    initial = domain.initial_crack_state()
    memory = np.vstack([[initial.value(s) for s in domain.jump_sites()], trace.psi])
    assert np.all(np.diff(memory, axis=0) >= 0.0)


@pytest.mark.parametrize("name", SAMPLED)
def test_sampled_equals_evaluation_at_numpy_times(name):
    # the callables see Python floats; the same products at the grid's
    # np.float64 scalars give the same samples
    g_left, g_right, horizon, delta = SAMPLED[name]
    program = PROGRAMS[name]
    assert program.times.tobytes() == np.linspace(0.0, horizon, program.times.size).tobytes()
    for g, column in ((g_left, program.left), (g_right, program.right)):
        want = np.array([float(g(t)) for t in program.times])
        assert column.tobytes() == want.tobytes()


def _reference_excess(laws, L, c, p):
    """The branch price as one list of candidates, every term evaluated."""
    phi, bulk, bw, sw = laws.phi, laws.bulk, laws.bulk_weight, laws.surface_weight
    base = phi._value(p)
    inner = phi._stationary(bw / L, c, sw * phi._slope(p) / phi.a)
    excess = [0.0, c, inner] if 0.0 < inner < c else [0.0, c]
    energy = [bw * L * bulk._value((c - e) / L) + sw * (phi._value(p + e) - base)
              for e in excess]
    low, e = min(zip(energy, excess))
    return 0.0 if energy[0] <= low + TIE_TOL else e


def _reference_path(laws, L, deltas, psi):
    """The cohesive path step by step, the owner and ``sum(psi)`` found anew each step."""
    slopes, jump_rows, memory = [], [], []
    for delta in np.asarray(deltas).tolist():
        jumps = [0.0] * len(psi)
        slope = 0.0
        if delta != 0.0:
            sigma = 1.0 if delta > 0.0 else -1.0
            D = abs(delta)
            psi_total = sum(psi)
            total_jump = left = min(psi_total, D)
            for k, p in enumerate(psi):
                take = min(p, left)
                if left > 0.0 and take > 0.0:
                    jumps[k] = take
                    left -= take
            if D > psi_total:
                owner = max(range(len(psi)), key=psi.__getitem__)
                excess = _reference_excess(laws, L, D - psi_total, psi[owner])
                jumps[owner] += excess
                total_jump += excess
                psi = list(psi)
                psi[owner] = max(psi[owner], jumps[owner])
            slope = sigma * max(D - total_jump, 0.0) / L
            jumps = [sigma * j if j != 0.0 else 0.0 for j in jumps]
        slopes.append(slope)
        jump_rows.append(jumps)
        memory.append(psi)
    return np.array(slopes), np.array(jump_rows), np.array(memory)


def _random_walks(count: int, seed: int = 0) -> list:
    """Seeded programs of 30-60 steps: random walks with a jump now and then."""
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(count):
        steps = int(rng.integers(30, 61))
        data = np.cumsum(rng.normal(0.0, 0.15, steps) + rng.choice([0.0, 1.0], steps, p=[0.9, 0.1])
                         * rng.normal(0.0, 1.0, steps))
        walks.append(LoadProgram(np.arange(steps, dtype=float), np.zeros(steps), data))
    return walks


# every run boundary of the path: each entry is a list of programs
PATH_PROGRAMS = {
    **{name: [program] for name, program in PROGRAMS.items()},
    # data up to 0.45 never crack a bar without memory
    "never-cracks": [LoadProgram.linear_ramp(1.5, 0.05, 0.3)],
    "first-step-cracks": [LoadProgram(np.arange(6.0), np.zeros(6),
                                      np.array([1.5, 1.7, 0.2, -1.9, -2.1, 2.5]))],
    # the saturated memory 0.9 meets 1.91 first, and 0.9 + (1.91 - 0.9)
    # rounds to 1.9099999999999997; then a ramp within twice the memory
    "past-twice-memory": [LoadProgram(np.arange(12.0), np.zeros(12), 1.91 + 0.01 * np.arange(12))],
    # ties: the first datum passes the memory 1/49 by c, with
    # 1e-12 < c*c <= 1e-12 + 1.1e-16, where with a = 49 the refill wins
    # only because phi(1/49) rounds below 1; from no memory, the second
    # meets the final tie refill == low + TIE_TOL exactly (Dugdale)
    "ties": [LoadProgram(np.arange(3.0), np.zeros(3),
                         np.array([1.0 / 49.0 + 1.00002e-6, 1.0000000000005, 0.5]))],
    # 13 walks per crack and law: 208 in all
    "random-walks": _random_walks(13),
}
PATH_CRACKS = [
    (),
    ((0.25, 0.3), (0.5, 0.2)),
    # past the Dugdale saturation 1/a at t = 0 for a = 2 and a = 49
    ((0.5, 0.9),),
    # 49 * (1/49) rounds to 0.9999999999999999: phi is not yet 1
    ((0.5, 1.0 / 49.0),),
]
PATH_LAWS = {**LAWS, "dugdale-49": plain_laws(CohesiveLaw(LawKind.DUGDALE, 49.0))}


@pytest.mark.parametrize("law", PATH_LAWS)
@pytest.mark.parametrize("crack", PATH_CRACKS)
@pytest.mark.parametrize("name", PATH_PROGRAMS)
def test_path_equals_the_step_by_step_reference(name, crack, law, monkeypatch):
    # every column, bit for bit; the precrack's refills span both sites
    import cohesivefrac.evolution as evo

    domain = Domain1D.uniform(1.0, 8, crack=crack)
    runs = [(domain, domain.initial_crack_state(), program, PATH_LAWS[law], "cohesive")
            for program in PATH_PROGRAMS[name]]
    traces = [evolve(*args) for args in runs]
    monkeypatch.setattr(evo, "_cohesive_path", _reference_path)
    for trace, args in zip(traces, runs):
        reference = evolve(*args)
        for column in ("slope", "jumps", "psi", "bulk", "surface", "slack", "work"):
            assert getattr(trace, column).tobytes() == getattr(reference, column).tobytes(), column
    if len(crack) == 2:
        assert max(np.count_nonzero(t.jumps[:, [2, 4]], axis=1).max() for t in traces) == 2
