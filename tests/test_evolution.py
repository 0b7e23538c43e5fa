import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    griffith_energy,
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

    def test_memory_that_decreases_raises(self, monkeypatch):
        import cohesivefrac.evolution as evo

        # a memory update that forgets: psi' = |jump| in place of psi v |jump|
        step = evo._cohesive_step

        def forgetting_step(*args):
            slope, jumps, _ = step(*args)
            return slope, jumps, [abs(j) for j in jumps]

        monkeypatch.setattr(evo, "_cohesive_step", forgetting_step)
        program = LoadProgram(np.array([0.0, 1.0]), np.zeros(2), np.array([2.0, 0.0]))
        with pytest.raises(RuntimeError, match="irreversibility"):
            evolve(bar(), CrackState(), program, DUGDALE2, "cohesive")


PROGRAMS = {
    "ramp": LoadProgram.linear_ramp(2.0, 0.05),
    "negative": LoadProgram.sampled(lambda t: 0.2, lambda t: -1.5 * t, 1.5, 0.05),
    "cyclic": LoadProgram.sampled(lambda t: 0.0, lambda t: 1.6 * np.sin(3.0 * t), 3.0, 0.05),
}
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
