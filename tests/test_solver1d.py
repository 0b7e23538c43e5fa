import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohesivefrac.bar1d import (
    CrackState,
    Domain1D,
    consistency_residual,
    total_energy,
)
from cohesivefrac.laws import BulkDensity, CohesiveLaw, LawKind, RescaledLaws, plain_laws
from cohesivefrac.solver1d import (
    TIE_TOL,
    BudgetError,
    NonconvergenceError,
    _cohesive_step,
    _excess_minimum,
    brute_force_minimize,
    certify_minimality,
    griffith_minimize,
    incremental_minimize,
)
from stationary_oracle import stationary_points

DUGDALE2 = plain_laws(CohesiveLaw(LawKind.DUGDALE, 2.0))
EXPONENTIAL2 = plain_laws(CohesiveLaw(LawKind.EXPONENTIAL, 2.0))

# frozen by the brute-force oracle (grid step 1e-5, then polished):
# min over J of (2 - J)^2 + 1 - exp(-2 J)
EXP_DELTA2_JUMP = 1.980973983882424
EXP_DELTA2_TOTAL = 0.9813359731850648


def bar(elements=4, crack=()):
    return Domain1D.uniform(1.0, elements, crack=crack)


def energy_of(u, domain, crack, laws):
    return total_energy(u, crack, laws, domain).total


def _excess_minimum_oracle(laws, L, c, p):
    """``_excess_minimum`` with its candidates priced as one numpy array.

    Every candidate is clamped onto ``[0, c]`` (a point that is not real
    onto ``c``), sorted, and the first of the lowest energies wins unless
    the refill ``e = 0`` is within ``TIE_TOL`` of it.
    """
    phi, sw = laws.phi, laws.surface_weight
    stationary = stationary_points(phi, laws.bulk_weight / L, c, sw * phi.deriv(p) / phi.a)
    e = np.sort(np.maximum(np.fmin(np.concatenate([[0.0, c], stationary]), c), 0.0))
    # e[0] is 0, so cost[0] is phi(p)
    cost = phi(p + e)
    energy = laws.bulk_weight * L * laws.bulk((c - e) / L) + sw * (cost - cost[0])
    best = int(np.argmin(energy))
    if energy[0] <= energy[best] + TIE_TOL:
        best = 0
    return float(e[best])


class TestStructured:
    def test_small_load_stays_elastic(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 0.5), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slope, 0.5)
        assert energy_of(u, domain, CrackState(), DUGDALE2) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_large_load_breaks_in_one_jump(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 2.0), DUGDALE2)
        assert len(u.jumps) == 1
        assert list(u.jumps.values())[0] == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(u.slope, 0.0, atol=1e-12)
        assert energy_of(u, domain, CrackState(), DUGDALE2) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_exponential_interior_optimum(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 2.0), EXPONENTIAL2)
        assert len(u.jumps) == 1
        assert list(u.jumps.values())[0] == pytest.approx(EXP_DELTA2_JUMP, abs=1e-5)
        total = energy_of(u, domain, CrackState(), EXPONENTIAL2)
        assert total == pytest.approx(EXP_DELTA2_TOTAL, abs=1e-9)

    def test_memory_reopens_for_free(self):
        domain = bar(crack=((0.5, 0.6),))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 0.5), DUGDALE2)
        assert u.jumps == pytest.approx({2: 0.5})
        total = energy_of(u, domain, crack, DUGDALE2)
        # elastic competitor pays 0.25 bulk on top of the sunk phi(0.6) = 1
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_memory_fills_leftmost_first(self):
        domain = bar(crack=((0.25, 0.3), (0.75, 0.3)))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 0.4), DUGDALE2)
        assert u.jumps == pytest.approx({1: 0.3, 3: 0.1})
        assert np.allclose(u.slope, 0.0, atol=1e-12)

    def test_exceeding_memory_runs_to_full_break(self):
        domain = bar(crack=((0.5, 0.2),))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.0, 2.0), DUGDALE2)
        assert u.jumps == pytest.approx({2: 2.0}, abs=1e-9)
        total = energy_of(u, domain, crack, DUGDALE2)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_load_with_memory_keeps_sunk_cost(self):
        domain = bar(crack=((0.25, 0.1), (0.5, 0.3)))
        crack = domain.initial_crack_state()
        u = incremental_minimize(domain, crack, (0.7, 0.7), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slope, 0.0)
        total = energy_of(u, domain, crack, DUGDALE2)
        assert total == pytest.approx(0.2 + 0.6, abs=1e-12)

    def test_tie_prefers_elastic(self):
        # Dugdale at delta = 1: elastic and full jump both cost exactly 1
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, 1.0), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slope, 1.0)

    def test_negative_load_mirrors(self):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, -2.0), DUGDALE2)
        assert list(u.jumps.values())[0] == pytest.approx(-2.0, abs=1e-9)

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
        bad = make_displacement(domain, (0.0, 2.0), 2.0, {})
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
            laws = RescaledLaws(phi=law, bulk=BulkDensity(rng.uniform(0.5, 5.0)),
                                bulk_weight=bw, surface_weight=sw)
            phi = laws.phi
            L = rng.uniform(0.5, 2.0)
            c = rng.uniform(0.05, 3.0)
            # a fresh site and two memory sites
            shifts = np.concatenate([[0.0], rng.uniform(0.0, 1.5 / phi.a, 2)])

            def energy(e):
                return bw * L * laws.bulk((c - e) / L) + sw * (phi(shifts + e) - phi(shifts))

            e_star = np.array([_excess_minimum(laws, L, c, p) for p in shifts])
            got = energy(e_star[None, :])[0]
            want = energy(c * grid).min(axis=0)
            assert np.all((0.0 <= e_star) & (e_star <= c))
            assert np.all(got <= want + 1e-12 * np.maximum(1.0, np.abs(want)))

            inside = lambda x: (0.0 < x) & (x < c)  # noqa: E731
            if phi.saturation_opening is not None:
                seen["saturation"] += int(inside(phi.saturation_opening - shifts).sum())
            seen["threshold"] += int(inside(c - L * laws.bulk.threshold))
            points = stationary_points(phi, bw / L, c, sw * phi.deriv(shifts) / phi.a)
            if points.shape[0] == 2:
                seen["two_stationary"] += int(inside(points).all(axis=0).sum())
        assert seen["threshold"] > 0
        if kind is LawKind.DUGDALE:
            assert seen["saturation"] > 0
        else:
            assert seen["two_stationary"] > 0

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_matches_vectorized_oracle(self, kind):
        rng = np.random.default_rng(30 + list(LawKind).index(kind))
        seen = dict.fromkeys(("saturation", "threshold", "two_stationary", "tie", "excess"), 0)
        for trial in range(600):
            law = CohesiveLaw(kind, rng.uniform(0.5, 5.0))
            bw, sw = rng.uniform(0.2, 5.0, 2).tolist()
            laws = RescaledLaws(phi=law, bulk=BulkDensity(rng.uniform(0.5, 5.0)),
                                bulk_weight=bw, surface_weight=sw)
            phi = laws.phi
            L = rng.uniform(0.5, 2.0)
            # a datum just past the memory, where the refill ties any excess
            c = 10.0 ** rng.uniform(-9.0, -6.0) if trial % 3 == 0 else rng.uniform(0.05, 3.0)
            # a fresh site, a partly open one, or one whose law is (nearly) flat
            p = float(rng.choice([0.0, rng.uniform(0.0, 1.5 / phi.a), 2.0 / phi.a, 30.0 / phi.a]))

            got, want = _excess_minimum(laws, L, c, p), _excess_minimum_oracle(laws, L, c, p)
            assert type(got) is float
            if kind is LawKind.DUGDALE:
                assert got == want
            else:
                # the same candidate: an end, or the W_0 point, whose two
                # Lambert W evaluations may differ in their last bits
                assert (got == 0.0, got == c) == (want == 0.0, want == c)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

            def energy(e):
                return bw * L * laws.bulk((c - e) / L) + sw * (phi(p + e) - phi(p))

            inside = lambda x: (0.0 < x) & (x < c)  # noqa: E731
            if phi.saturation_opening is not None:
                seen["saturation"] += int(inside(phi.saturation_opening - p))
            seen["threshold"] += int(inside(c - L * laws.bulk.threshold))
            points = stationary_points(phi, bw / L, c, sw * phi.deriv(p) / phi.a)
            seen["two_stationary"] += int(points.shape[0] == 2 and inside(points).all())
            seen["tie"] += int(got == 0.0 and energy(c) < energy(0.0))
            seen["excess"] += int(got > 0.0)
        del seen["two_stationary" if kind is LawKind.DUGDALE else "saturation"]
        assert min(seen.values()) >= 30, seen


class TestOwnerRule:
    """Every excess goes to the site of largest memory, then the leftmost."""

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_most_open_site_is_never_beaten(self, kind):
        rng = np.random.default_rng(40 + list(LawKind).index(kind))
        for _ in range(200):
            law = CohesiveLaw(kind, rng.uniform(0.5, 5.0))
            bw, sw = rng.uniform(0.2, 5.0, 2)
            laws = RescaledLaws(phi=law, bulk=BulkDensity(rng.uniform(0.5, 5.0)),
                                bulk_weight=bw, surface_weight=sw)
            phi = laws.phi
            L = rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 7))
            # a small pool of levels, so that memories repeat; the last
            # level saturates a Dugdale law
            pool = [*rng.uniform(0.0, 1.5 / phi.a, 2), 2.0 / phi.a]
            held = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            psi = [0.0] * n
            for k in held:
                psi[k] = float(rng.choice(pool))
            delta = float(rng.choice([-1.0, 1.0])) * (sum(psi) + rng.uniform(0.05, 3.0))

            slope, jumps, memory = _cohesive_step(laws, L, delta, psi)
            assert memory == [max(p, abs(j)) for p, j in zip(psi, jumps)]
            got = bw * L * laws.bulk(slope) + sw * sum(
                phi(max(abs(j), p)) for j, p in zip(jumps, psi)
            )
            sunk = sw * sum(phi(p) for p in psi)
            c = abs(delta) - sum(psi)

            def branch(p):
                e = _excess_minimum(laws, L, c, p)
                return bw * L * laws.bulk((c - e) / L) + sw * (phi(p + e) - phi(p))

            want = min(sunk + branch(p) for p in psi)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_tie_goes_to_largest_memory(self, sign):
        # both memories are saturated (phi = 1 past 0.5), so either one
        # takes the excess for free; the larger one, at site 3, owns it
        domain = bar(crack=((0.5, 0.6), (0.75, 0.8)))
        crack = domain.initial_crack_state()
        g = (0.0, 3.0 * sign)
        u = incremental_minimize(domain, crack, g, DUGDALE2)
        assert u.jumps == pytest.approx({2: 0.6 * sign, 3: 2.4 * sign})
        assert np.allclose(u.slope, 0.0, atol=1e-12)
        assert energy_of(u, domain, crack, DUGDALE2) == pytest.approx(2.0, abs=1e-12)


class TestBruteForce:
    def test_zero_load_keeps_sunk_cost(self):
        domain = bar(crack=((0.25, 0.1), (0.5, 0.3)))
        crack = domain.initial_crack_state()
        u = brute_force_minimize(domain, crack, (0.0, 0.0), DUGDALE2, 1e-3)
        assert u.jumps == {}
        total = energy_of(u, domain, crack, DUGDALE2)
        assert total == pytest.approx(0.2 + 0.6, abs=1e-12)

    def test_tie_prefers_elastic(self):
        domain = bar()
        u = brute_force_minimize(domain, CrackState(), (0.0, 1.0), DUGDALE2, 1e-3)
        assert u.jumps == {}

    def test_full_break_found(self):
        domain = bar()
        u = brute_force_minimize(domain, CrackState(), (0.0, 2.0), DUGDALE2, 1e-3)
        assert list(u.jumps.values()) == pytest.approx([2.0])
        total = energy_of(u, domain, CrackState(), DUGDALE2)
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
            e_one = energy_of(one, domain, CrackState(), EXPONENTIAL2)
            e_two = energy_of(two, domain, CrackState(), EXPONENTIAL2)
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
            e_struct = energy_of(u, domain, crack, laws)
            e_oracle = energy_of(v, domain, crack, laws)
            assert e_struct <= e_oracle + 1e-9
            assert abs(e_oracle - e_struct) <= 2.0 * a * step

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(-3.0, 3.0),
        psi=st.floats(0.0, 2.0),
        exponential=st.booleans(),
    )
    # memory plus excess rounds above the datum here; the slope keeps its sign
    @example(delta=2.9999999999999996, psi=0.9097523064777737, exponential=False)
    def test_sup_norm_never_exceeds_data(self, delta, psi, exponential):
        # a slope and oriented jumps of the datum's sign make the
        # displacement monotone between the data, which bounds its sup
        crack_spec = ((0.5, psi),) if psi > 0 else ()
        domain = bar(crack=crack_spec)
        crack = domain.initial_crack_state()
        laws = EXPONENTIAL2 if exponential else DUGDALE2
        u = incremental_minimize(domain, crack, (0.0, delta), laws)
        increments = [u.slope, *u.jumps.values()]
        assert all(np.sign(v) in (0.0, np.sign(delta)) for v in increments)

    @settings(max_examples=60, deadline=None)
    @given(delta=st.floats(0.0, 3.0))
    def test_dugdale_monotone_load_dichotomy(self, delta):
        domain = bar()
        u = incremental_minimize(domain, CrackState(), (0.0, delta), DUGDALE2)
        if delta**2 < 1.0 - 1e-9:
            assert u.jumps == {}
        elif delta**2 > 1.0 + 1e-9:
            assert len(u.jumps) == 1
            assert list(u.jumps.values())[0] == pytest.approx(delta, abs=1e-8)


class TestGriffith:
    def test_elastic_below_threshold(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 0.9), DUGDALE2)
        assert u.jumps == {}
        assert np.allclose(u.slope, 0.9)

    def test_tie_prefers_elastic(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 1.0), DUGDALE2)
        assert u.jumps == {}

    def test_breaks_above_threshold(self):
        domain = bar()
        u = griffith_minimize(domain, (), (0.0, 1.1), DUGDALE2)
        assert len(u.jumps) == 1
        assert list(u.jumps.values())[0] == pytest.approx(1.1)
        assert np.allclose(u.slope, 0.0)

    def test_existing_site_absorbs_everything(self):
        domain = bar(crack=((0.5, 1.0),))
        u = griffith_minimize(domain, [2], (0.0, 0.4), DUGDALE2)
        assert u.jumps == pytest.approx({2: 0.4})
        assert np.allclose(u.slope, 0.0)
