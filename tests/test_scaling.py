import math

import numpy as np
import pytest

from cohesivefrac.bar1d import CrackState, Domain1D
from cohesivefrac.evolution import LoadProgram, evolve
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws
from cohesivefrac.scaling import (
    BarProblem,
    Regime,
    classify_regime,
    half_saturation_opening,
    nonincreasing,
    piecewise_constant_minimum,
    size_effect_sweep,
    total_variation_constant,
    trace_jump_counts,
    uniform_bound_constant,
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
        c_prime = uniform_bound_constant(tearing_base())
        c_second = total_variation_constant(tearing_base())
        for row in brittle_report.rows:
            assert row.max_total <= c_prime
            assert row.max_tv <= c_second

    def test_surface_near_integer_at_large_h(self, brittle_report):
        surface = brittle_report.rows[-1].trace.surface
        assert np.max(np.abs(surface - np.round(surface))) <= 0.05


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
        assert piecewise_constant_minimum((0.0, 1.0)) == 1
        counts = trace_jump_counts(report.rows[-1].trace)
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

    def test_h_list_must_increase(self):
        with pytest.raises(ValueError):
            size_effect_sweep(tearing_base(), 0.5, [10.0, 1.0])
        with pytest.raises(ValueError):
            size_effect_sweep(tearing_base(), 0.5, [1.0, 10.0], [0.1])


class TestBoundHelpers:
    def test_half_saturation_values(self):
        assert half_saturation_opening(DUGDALE) == pytest.approx(0.25, abs=1e-12)
        assert half_saturation_opening(EXPONENTIAL) == pytest.approx(
            math.log(2.0) / 2.0, abs=1e-12
        )

    def test_uniform_bound_constant_on_the_ramp(self):
        assert uniform_bound_constant(tearing_base()) == pytest.approx(9.0, abs=1e-6)

    def test_zero_datum_needs_no_jump(self):
        assert piecewise_constant_minimum((0.3, 0.3)) == 0

    def test_any_datum_difference_needs_one_jump(self):
        assert piecewise_constant_minimum((0.0, 2.0)) == 1
        assert piecewise_constant_minimum((0.5, -0.5)) == 1
