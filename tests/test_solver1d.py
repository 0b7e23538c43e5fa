import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesivefrac.bar1d import (
    CrackState,
    Domain1D,
    consistency_residual,
    total_energy,
)
from cohesivefrac.laws import BulkDensity, CohesiveLaw, LawKind, RescaledLaws, plain_laws
from cohesivefrac.solver1d import (
    BudgetError,
    NonconvergenceError,
    _excess_minima,
    brute_force_minimize,
    certify_minimality,
    griffith_minimize,
    incremental_minimize,
)

DUGDALE2 = plain_laws(CohesiveLaw(LawKind.DUGDALE, 2.0))
EXPONENTIAL2 = plain_laws(CohesiveLaw(LawKind.EXPONENTIAL, 2.0))

# frozen by the brute-force oracle (grid step 1e-5, then polished):
# min over J of (2 - J)^2 + 1 - exp(-2 J)
EXP_DELTA2_JUMP = 1.980973983882424
EXP_DELTA2_TOTAL = 0.9813359731850648


def bar(elements=4, crack=()):
    return Domain1D.uniform(1.0, elements, crack=crack)


def energy_of(u, domain, crack, g, laws):
    return total_energy(u, crack, g, laws, domain).total


class TestStructured:
    def test_small_load_stays_elastic(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 0.5), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slopes, 0.5)
        assert energy_of(u, domain, CrackState(), (0.0, 0.5), DUGDALE2) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_large_load_breaks_in_one_jump(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 2.0), DUGDALE2)
        oriented = u.oriented_jumps(domain)
        assert len(oriented) == 1
        assert list(oriented.values())[0] == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(u.slopes, 0.0, atol=1e-12)
        assert energy_of(u, domain, CrackState(), (0.0, 2.0), DUGDALE2) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_exponential_interior_optimum(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 2.0), EXPONENTIAL2)
        oriented = u.oriented_jumps(domain)
        assert len(oriented) == 1
        assert list(oriented.values())[0] == pytest.approx(EXP_DELTA2_JUMP, abs=1e-5)
        total = energy_of(u, domain, CrackState(), (0.0, 2.0), EXPONENTIAL2)
        assert total == pytest.approx(EXP_DELTA2_TOTAL, abs=1e-9)

    def test_memory_reopens_for_free(self):
        domain = bar(crack=((0.5, 0.6),))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 0.5), DUGDALE2)
        assert u.oriented_jumps(domain) == pytest.approx({2: 0.5})
        total = energy_of(u, domain, crack, (0.0, 0.5), DUGDALE2)
        # elastic competitor pays 0.25 bulk on top of the sunk phi(0.6) = 1
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_memory_fills_leftmost_first(self):
        domain = bar(crack=((0.25, 0.3), (0.75, 0.3)))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 0.4), DUGDALE2)
        assert u.oriented_jumps(domain) == pytest.approx({1: 0.3, 3: 0.1})
        assert np.allclose(u.slopes, 0.0, atol=1e-12)

    def test_exceeding_memory_runs_to_full_break(self):
        domain = bar(crack=((0.5, 0.2),))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 2.0), DUGDALE2)
        assert u.oriented_jumps(domain) == pytest.approx({2: 2.0}, abs=1e-9)
        total = energy_of(u, domain, crack, (0.0, 2.0), DUGDALE2)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_load_with_memory_keeps_sunk_cost(self):
        domain = bar(crack=((0.25, 0.1), (0.5, 0.3)))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.7, 0.7), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slopes, 0.0)
        total = energy_of(u, domain, crack, (0.7, 0.7), DUGDALE2)
        assert total == pytest.approx(0.2 + 0.6, abs=1e-12)

    def test_tie_prefers_elastic(self):
        # Dugdale at delta = 1: elastic and full jump both cost exactly 1
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 1.0), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slopes, 1.0)

    def test_negative_load_mirrors(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, -2.0), DUGDALE2)
        oriented = u.oriented_jumps(domain)
        assert list(oriented.values())[0] == pytest.approx(-2.0, abs=1e-9)

    def test_single_dirichlet_end_relaxes_completely(self):
        domain = Domain1D.uniform(1.0, 4, dirichlet=("left",))
        u = incremental_minimize(domain, CrackState(), (0.3, 0.0), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slopes, 0.0)

    def test_returned_state_is_consistent(self):
        domain = bar(crack=((0.5, 0.4),))
        crack = domain.initial_crack_state()
        for g in [(0.0, 0.3), (0.0, 1.7), (-0.2, 0.9)]:
            u = incremental_minimize(domain, crack, g, EXPONENTIAL2)
            assert abs(consistency_residual(u, domain, g)) < 1e-9

    def test_certified_run_passes(self):
        domain = bar(crack=((0.5, 0.6),))
        crack = domain.initial_crack_state()
        for g in [(0.0, 0.5), (0.0, 1.3), (0.0, 2.4), (0.0, -0.8)]:
            u = incremental_minimize(domain, crack, g, EXPONENTIAL2)
            certify_minimality(u, domain, crack, g, EXPONENTIAL2, jump_grid_step=2e-3)

    def test_certification_rejects_bad_candidate(self):
        from cohesivefrac.bar1d import make_displacement

        domain = bar()
        bad = make_displacement(domain, (0.0, 2.0), np.full(4, 2.0), {})
        with pytest.raises(NonconvergenceError) as err:
            certify_minimality(bad, domain, CrackState(), (0.0, 2.0), DUGDALE2)
        assert err.value.structured_energy == pytest.approx(3.0, abs=1e-9)
        assert err.value.oracle_energy == pytest.approx(1.0, abs=1e-9)


class TestExcessMinima:
    """The closed-form branch minima against an exhaustive grid on [0, c]."""

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_never_beaten_by_grid(self, kind):
        rng = np.random.default_rng(20 + list(LawKind).index(kind))
        grid = np.linspace(0.0, 1.0, 50_001)[:, None]
        seen = dict.fromkeys(("saturation", "threshold", "two_stationary"), 0)
        for _ in range(80):
            # independent slopes and weights, so that no piece is flat
            law = CohesiveLaw(kind, rng.uniform(0.5, 5.0))
            bw, sw = rng.uniform(0.2, 5.0, 2)
            laws = RescaledLaws(h=1.0, alpha=0.5, base=law, phi=law,
                                bulk=BulkDensity(rng.uniform(0.5, 5.0)), bulk_weight=bw,
                                surface_weight=sw)
            phi = laws.phi
            L = rng.uniform(0.5, 2.0)
            c = rng.uniform(0.05, 3.0)
            # a fresh site and two memory sites
            shifts = np.concatenate([[0.0], rng.uniform(0.0, 1.5 / phi.a, 2)])

            def energy(e):
                return bw * L * laws.bulk((c - e) / L) + sw * (phi(shifts + e) - phi(shifts))

            e_star, got = _excess_minima(laws, L, c, shifts)
            want = energy(c * grid).min(axis=0)
            assert np.all((0.0 <= e_star) & (e_star <= c))
            assert np.array_equal(got, energy(e_star[None, :])[0])
            assert np.all(got <= want + 1e-12 * np.maximum(1.0, np.abs(want)))

            inside = lambda x: (0.0 < x) & (x < c)  # noqa: E731
            if phi.saturation_opening is not None:
                seen["saturation"] += int(inside(phi.saturation_opening - shifts).sum())
            seen["threshold"] += int(inside(c - L * laws.bulk.threshold))
            points = phi.stationary_points(bw / L, c, sw * phi.deriv(shifts) / phi.a)
            if points.shape[0] == 2:
                seen["two_stationary"] += int(inside(points).all(axis=0).sum())
        assert seen["threshold"] > 0
        if kind is LawKind.DUGDALE:
            assert seen["saturation"] > 0
        else:
            assert seen["two_stationary"] > 0


class TestBruteForce:
    def test_zero_load_keeps_sunk_cost(self):
        domain = bar(crack=((0.25, 0.1), (0.5, 0.3)))
        crack = domain.initial_crack_state()
        u = brute_force_minimize(domain, crack, (0.0, 0.0), DUGDALE2, 1e-3)
        assert u.jumps == {}
        total = energy_of(u, domain, crack, (0.0, 0.0), DUGDALE2)
        assert total == pytest.approx(0.2 + 0.6, abs=1e-12)

    def test_tie_prefers_elastic(self):
        domain = bar()
        u = brute_force_minimize(domain, CrackState(), (0.0, 1.0), DUGDALE2, 1e-3)
        assert u.jumps == {}

    def test_full_break_found(self):
        domain = bar()
        u = brute_force_minimize(domain, CrackState(), (0.0, 2.0), DUGDALE2, 1e-3)
        oriented = u.oriented_jumps(domain)
        assert list(oriented.values()) == pytest.approx([2.0])
        total = energy_of(u, domain, CrackState(), (0.0, 2.0), DUGDALE2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_step_below_budget_floor_rejected(self):
        with pytest.raises(BudgetError):
            brute_force_minimize(bar(), CrackState(), (0.0, 1.0), DUGDALE2, 1e-6)

    def test_too_many_active_sites_rejected(self):
        domain = bar(8, crack=((0.25, 0.1), (0.5, 0.1), (0.75, 0.1)))
        with pytest.raises(BudgetError):
            brute_force_minimize(
                domain, domain.initial_crack_state(), (0.0, 1.0), DUGDALE2, 1e-3
            )

    def test_candidate_budget_enforced(self):
        domain = bar(crack=((0.25, 0.1), (0.5, 0.1)))
        with pytest.raises(BudgetError):
            brute_force_minimize(
                domain,
                domain.initial_crack_state(),
                (0.0, 1.0),
                DUGDALE2,
                1e-4,
                budget=10_000,
            )

    def test_two_fresh_jumps_never_beat_one(self):
        domain = bar(8)
        for delta in [0.7, 1.3, 2.2]:
            one = brute_force_minimize(
                domain, CrackState(), (0.0, delta), EXPONENTIAL2, 2e-3, n_fresh=1
            )
            two = brute_force_minimize(
                domain, CrackState(), (0.0, delta), EXPONENTIAL2, 2e-3, n_fresh=2
            )
            e_one = energy_of(one, domain, CrackState(), (0.0, delta), EXPONENTIAL2)
            e_two = energy_of(two, domain, CrackState(), (0.0, delta), EXPONENTIAL2)
            assert e_two >= e_one - 1e-9


class TestAgreement:
    def test_structured_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(20260814)
        # coarser grids once the enumeration is 3-dimensional; the agreement
        # tolerance scales accordingly while the certification direction
        # (structured <= oracle + 1e-9) stays exact
        step_by_active_sites = {1: 1e-4, 2: 2e-3, 3: 2.5e-2}
        for trial in range(50):
            a = float(rng.choice([0.5, 2.0, 10.0]))
            kind = LawKind.DUGDALE if trial % 2 == 0 else LawKind.EXPONENTIAL
            laws = plain_laws(CohesiveLaw(kind, a))
            n_mem = int(rng.integers(0, 3))
            coords = sorted(rng.choice([0.25, 0.5, 0.75], size=n_mem, replace=False))
            crack_spec = tuple((c, float(rng.uniform(0.05, 1.0))) for c in coords)
            domain = bar(crack=crack_spec)
            crack = domain.initial_crack_state()
            g = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-2.0, 2.0)))

            step = step_by_active_sites[n_mem + 1]
            u = incremental_minimize(domain, crack, g, laws)
            v = brute_force_minimize(domain, crack, g, laws, step)
            e_struct = energy_of(u, domain, crack, g, laws)
            e_oracle = energy_of(v, domain, crack, g, laws)
            assert e_struct <= e_oracle + 1e-9
            assert abs(e_oracle - e_struct) <= 2.0 * a * step

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(-3.0, 3.0),
        psi=st.floats(0.0, 2.0),
        exponential=st.booleans(),
    )
    def test_sup_norm_never_exceeds_data(self, delta, psi, exponential):
        # a slope and oriented jumps of the datum's sign make the
        # displacement monotone between the data, which bounds its sup
        crack_spec = ((0.5, psi),) if psi > 0 else ()
        domain = bar(crack=crack_spec)
        crack = domain.initial_crack_state()
        laws = EXPONENTIAL2 if exponential else DUGDALE2
        u = incremental_minimize(domain, crack, (0.0, delta), laws)
        increments = [u.slopes[0], *u.oriented_jumps(domain).values()]
        assert all(np.sign(v) in (0.0, np.sign(delta)) for v in increments)

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.0, 3.0))
    def test_dugdale_monotone_load_dichotomy(self, delta):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, delta), DUGDALE2)
        oriented = u.oriented_jumps(domain)
        if delta**2 < 1.0 - 1e-9:
            assert oriented == {}
        elif delta**2 > 1.0 + 1e-9:
            assert len(oriented) == 1
            assert list(oriented.values())[0] == pytest.approx(delta, abs=1e-8)


class TestGriffith:
    def test_elastic_below_threshold(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 0.9), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slopes, 0.9)

    def test_tie_prefers_elastic(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 1.0), DUGDALE2)
        assert u.jumps == {}

    def test_breaks_above_threshold(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 1.1), DUGDALE2)
        oriented = u.oriented_jumps(domain)
        assert len(oriented) == 1
        assert list(oriented.values())[0] == pytest.approx(1.1)
        assert np.allclose(u.slopes, 0.0)

    def test_existing_site_absorbs_everything(self):
        domain = bar(crack=((0.5, 1.0),))
        u = griffith_minimize(domain, [2], (0.0, 0.4), DUGDALE2)
        assert u.oriented_jumps(domain) == pytest.approx({2: 0.4})
        assert np.allclose(u.slopes, 0.0)
