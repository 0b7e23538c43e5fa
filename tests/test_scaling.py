import math

import numpy as np
import pytest

from cohesivefrac.bar1d import CrackState, Domain1D
from cohesivefrac.evolution import LoadProgram, evolve
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws
from cohesivefrac.scaling import (
    BOUND_DELTA,
    BOUND_SLACK,
    BULK_TOL,
    MONOTONE_TOL,
    BarProblem,
    Regime,
    RegimeRow,
    ScalingReport,
    classify_regime,
    half_saturation_opening,
    nonincreasing,
    size_effect_sweep,
    uniform_bounds,
)

DUGDALE = CohesiveLaw(LawKind.DUGDALE, 2.0)
EXPONENTIAL = CohesiveLaw(LawKind.EXPONENTIAL, 2.0)


def tearing_base(crack=(), horizon=2.0):
    return BarProblem.tearing(Domain1D.uniform(1.0, 4, crack=crack), DUGDALE, horizon)


class TestBarProblem:
    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            BarProblem.tearing(Domain1D.uniform(1.0, 4), DUGDALE, 0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_a_nonfinite_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            BarProblem.tearing(Domain1D.uniform(1.0, 4), DUGDALE, horizon)


@pytest.fixture(scope="module")
def brittle_report():
    return size_effect_sweep(tearing_base(), 0.5, [1.0, 10.0, 100.0])


class TestBrittleSweep:
    def test_h_one_row_is_the_plain_run(self, brittle_report):
        row = brittle_report.rows[0]
        assert row.h == 1.0
        plain = evolve(
            tearing_base().domain,
            CrackState(),
            LoadProgram.linear_ramp(2.0, 1.0),
            plain_laws(DUGDALE),
            "cohesive",
        )
        assert np.array_equal(row.trace.totals(), plain.totals())

    def test_gaps_shrink_monotonically(self, brittle_report):
        gaps = [r.gap_sup for r in brittle_report.rows]
        assert nonincreasing(gaps)
        assert gaps[-1] < 0.05

    def test_verdict(self, brittle_report):
        assert classify_regime(brittle_report) is Regime.BRITTLE_LIMIT

    def test_uniform_bounds_hold(self, brittle_report):
        c_prime, c_second = uniform_bounds(tearing_base())
        for row in brittle_report.rows:
            assert row.max_total <= c_prime
            assert row.max_tv <= c_second

    def test_surface_near_integer_at_large_h(self, brittle_report):
        surface = brittle_report.rows[-1].trace.surface
        assert np.max(np.abs(surface - np.round(surface))) <= 0.05

    @pytest.mark.parametrize("h_list, delta_list, calls", [
        # the benchmark ladder: the reference reuses the h = 1000 row's grid
        ([1.0, 10.0, 100.0, 1000.0], None, [1.0, 0.1, 0.01, 0.001]),
        ([1.0, 16.0, 256.0], [0.05, 0.05, 0.05], [0.05]),
    ])
    def test_program_is_sampled_once_per_distinct_step(self, monkeypatch, h_list, delta_list,
                                                       calls):
        sampled = []
        program = BarProblem.program

        def counted(self, delta):
            sampled.append(delta)
            return program(self, delta)

        monkeypatch.setattr(BarProblem, "program", counted)
        report = size_effect_sweep(tearing_base(), 0.5, h_list, delta_list)
        assert sampled == calls
        # rows at one step share its program
        assert len({id(r.trace.program) for r in report.rows}) == len(calls)


@pytest.fixture(scope="module")
def elastic_report():
    base = BarProblem.tearing(Domain1D.uniform(1.0, 4, crack=((0.5, 0.3),)), DUGDALE, 1.0)
    return size_effect_sweep(base, 0.25, [1.0, 16.0, 256.0], [0.05, 0.05, 0.05])


class TestElasticSweep:
    @pytest.fixture
    def report(self, elastic_report):
        return elastic_report

    def test_normalized_bulk_drains(self, report):
        bulk_gaps = [r.bulk_gap_sup for r in report.rows]
        assert bulk_gaps[0] > 0.2
        assert bulk_gaps[-1] <= 1e-9
        assert all(b <= a + 1e-9 for a, b in zip(bulk_gaps, bulk_gaps[1:]))

    def test_verdict(self, report):
        assert classify_regime(report) is Regime.ELASTIC_LIMIT


@pytest.fixture(scope="module")
def rupture_report():
    base = BarProblem(
        Domain1D.uniform(1.0, 4, crack=((0.5, 1.0),)),
        DUGDALE,
        lambda t: 0.0,
        lambda t: 1.0 + t,
        1.0,
    )
    return size_effect_sweep(base, 0.75, [1.0, 16.0, 256.0])


class TestRuptureSweep:
    @pytest.fixture
    def report(self, rupture_report):
        return rupture_report

    def test_hard_gradient_bound(self, report):
        for row in report.rows:
            expected = 4.0 / (2.0 * row.h**0.75)
            assert row.rupture_bound == pytest.approx(expected)
            assert row.initial_grad_l1 <= row.rupture_bound + 1e-9

    def test_saturated_memory_gives_zero_gradient(self, report):
        assert report.rows[-1].initial_grad_l1 == pytest.approx(0.0, abs=1e-12)

    def test_verdict(self, report):
        assert classify_regime(report) is Regime.RUPTURE

    def test_single_piece_partition(self, report):
        # any datum difference needs exactly one jump, at any site
        counts = np.count_nonzero(np.abs(report.rows[-1].trace.jumps) > 1e-12, axis=1)
        assert np.all(counts == 1)

    def test_exponential_law_also_bounded(self):
        base = BarProblem(
            Domain1D.uniform(1.0, 4, crack=((0.5, 1.0),)),
            EXPONENTIAL,
            lambda t: 0.0,
            lambda t: 1.0 + t,
            1.0,
        )
        report = size_effect_sweep(base, 0.75, [1.0, 16.0, 256.0])
        for row in report.rows:
            assert row.initial_grad_l1 <= row.rupture_bound + 1e-9
        assert classify_regime(report) is Regime.RUPTURE


class TestClassification:
    def test_unscaled_exponential_is_inconclusive(self):
        # at h=1 the exponential evolution opens gradually and stays a
        # finite distance from the brittle reference on any grid
        base = BarProblem.tearing(Domain1D.uniform(1.0, 4), EXPONENTIAL, 2.0)
        report = size_effect_sweep(base, 0.5, [1.0], [0.1])
        assert report.rows[0].gap_sup > 0.05
        assert classify_regime(report) is Regime.INCONCLUSIVE

    @staticmethod
    def hand_built(alpha, bulk_gaps=(0.0, 0.0), grads=(0.0, 0.0), bound=0.5):
        # rows carry only the diagnostics the classifier reads
        return ScalingReport(alpha, tuple(
            RegimeRow(h=2.0**k, trace=None, gap_sup=0.0, bulk_gap_sup=b, initial_grad_l1=g,
                      rupture_bound=bound, max_total=0.0, max_tv=0.0)
            for k, (b, g) in enumerate(zip(bulk_gaps, grads))
        ))

    @pytest.mark.parametrize("bulk_gaps, regime", [
        ((0.5, BULK_TOL / 2), Regime.ELASTIC_LIMIT),
        # the last bulk gap at the tolerance
        ((0.5, BULK_TOL), Regime.INCONCLUSIVE),
        # small, but growing by more than the noise
        ((0.01, 0.01 + 2.0 * MONOTONE_TOL), Regime.INCONCLUSIVE),
        ((0.01, 0.01 + MONOTONE_TOL / 2), Regime.ELASTIC_LIMIT),
    ])
    def test_elastic_limit_needs_a_small_nonincreasing_bulk_gap(self, bulk_gaps, regime):
        assert classify_regime(self.hand_built(0.25, bulk_gaps=bulk_gaps)) is regime

    @pytest.mark.parametrize("excess, regime", [
        (BOUND_SLACK / 2, Regime.RUPTURE),
        (2.0 * BOUND_SLACK, Regime.INCONCLUSIVE),
    ])
    def test_rupture_needs_every_gradient_within_its_bound(self, excess, regime):
        report = self.hand_built(0.75, grads=(0.1, 0.5 + excess))
        assert classify_regime(report) is regime

    def test_h_list_must_increase(self):
        with pytest.raises(ValueError):
            size_effect_sweep(tearing_base(), 0.5, [10.0, 1.0])
        with pytest.raises(ValueError):
            size_effect_sweep(tearing_base(), 0.5, [1.0, 10.0], [0.1])

    @pytest.mark.parametrize("h_list", [[], (), [10.0, 10.0]])
    def test_rejects_a_vacuous_ladder_before_evolving(self, h_list, monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("an evolution ran")

        monkeypatch.setattr("cohesivefrac.scaling.evolve", evolve)
        with pytest.raises(ValueError, match="h_list must be a nonempty increasing list"):
            size_effect_sweep(tearing_base(), 0.5, h_list)


class TestBoundHelpers:
    def test_half_saturation_values(self):
        assert half_saturation_opening(DUGDALE) == pytest.approx(0.25, abs=1e-12)
        assert half_saturation_opening(EXPONENTIAL) == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12
        )

    def test_uniform_bound_constant_on_the_ramp(self):
        assert uniform_bounds(tearing_base())[0] == pytest.approx(9.0, abs=1e-6)

    def test_uniform_bounds_sample_the_data_once(self, monkeypatch):
        sampled = []
        program = BarProblem.program

        def counted(self, delta):
            sampled.append(delta)
            return program(self, delta)

        monkeypatch.setattr(BarProblem, "program", counted)
        c_prime, c_second = uniform_bounds(tearing_base())
        assert sampled == [BOUND_DELTA]
        # (C' + L) + (2 s-bar + 4 max|g|) C' + C'/a with C' = 9, s-bar = 1/4
        assert c_second == pytest.approx(10.0 + 8.5 * 9.0 + 4.5, abs=1e-6)
