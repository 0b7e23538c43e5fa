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
        assert program.n_steps == 202
        assert program.times[0] == 0.0
        assert program.times[-1] == 2.0
        assert program.max_step < 0.01

    def test_sampled_hits_horizon_exactly(self):
        program = LoadProgram.sampled(lambda t: 0.0, lambda t: 1.0 + t, 1.1, 0.01)
        assert program.times[-1] == 1.1
        assert program.max_step < 0.01
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
        monkeypatch.setattr(evo, "max", lambda p, j: j, raising=False)
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
