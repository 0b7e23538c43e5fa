import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    consistency_residual,
    griffith_energy,
    make_displacement,
    total_energy,
)
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws

DUGDALE2 = plain_laws(CohesiveLaw(LawKind.DUGDALE, 2.0))


def bar(elements=4, crack=()):
    return Domain1D.uniform(1.0, elements, crack=crack)


class TestDomain:
    def test_uniform_mesh(self):
        d = bar(4)
        np.testing.assert_allclose(d.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert d.length == 1.0
        assert d.n_elements == 4
        assert d.jump_sites() == [0, 1, 2, 3, 4]

    def test_crack_snapping(self):
        d = Domain1D.uniform(1.0, 4, crack=[(0.51, 0.3)])
        assert d.preexisting_crack == ((2, 0.3),)
        assert d.initial_crack_state().value(2) == 0.3

    def test_rejects_bad_mesh(self):
        with pytest.raises(ValueError):
            Domain1D(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Domain1D(np.array([0.1, 0.5, 1.0]))

    def test_boundary_site_needs_dirichlet(self):
        d = Domain1D.uniform(1.0, 4, dirichlet=("right",))
        assert d.jump_sites() == [1, 2, 3, 4]
        with pytest.raises(ValueError):
            Domain1D.uniform(1.0, 4, dirichlet=("right",), crack=[(0.0, 0.5)])

    def test_rejects_nonpositive_initial_opening(self):
        with pytest.raises(ValueError):
            Domain1D.uniform(1.0, 4, crack=[(0.5, 0.0)])


class TestCrackState:
    def test_update_takes_maximum(self):
        c = CrackState({2: 0.6})
        c2 = c.updated({2: -0.3, 3: 0.1})
        assert c2.value(2) == 0.6
        assert c2.value(3) == 0.1
        assert c2.extends(c)

    def test_zero_entries_dropped(self):
        c = CrackState({1: 0.0, 2: 0.5})
        assert c.sites == {2}


class TestEnergy:
    def test_elastic_profile(self):
        d = bar(4)
        u = Displacement1D(np.full(4, 0.5))
        e = total_energy(u, CrackState(), (0.0, 0.5), DUGDALE2, d)
        assert e.bulk == pytest.approx(0.25, abs=1e-15)
        assert e.surface == 0.0
        assert e.total == pytest.approx(0.25, abs=1e-15)

    def test_boundary_mismatch_pays_surface(self):
        d = bar(4)
        # u identically zero under g = (0, 1): trace-minus-datum is -1 at the right
        u = Displacement1D(np.zeros(4), {4: -1.0})
        e = total_energy(u, CrackState(), (0.0, 1.0), DUGDALE2, d)
        assert e.bulk == 0.0
        assert e.surface == pytest.approx(1.0, abs=1e-15)

    def test_memory_dominates_small_jump(self):
        d = bar(4)
        u = Displacement1D(np.zeros(4), {2: 0.3})
        e = total_energy(u, CrackState({2: 0.6}), (0.0, 0.3), DUGDALE2, d)
        assert e.surface == pytest.approx(1.0, abs=1e-15)

    def test_memory_paid_without_jump(self):
        d = bar(4)
        u = Displacement1D(np.full(4, 0.5))
        e = total_energy(u, CrackState({2: 0.4}), (0.0, 0.5), DUGDALE2, d)
        assert e.surface == pytest.approx(float(DUGDALE2.phi(0.4)), abs=1e-15)

    def test_sign_flip_leaves_surface_unchanged(self):
        d = bar(4)
        u = Displacement1D(np.zeros(4), {1: 0.2, 3: -0.4})
        v = Displacement1D(np.zeros(4), {1: -0.2, 3: 0.4})
        eu = total_energy(u, CrackState(), (0.0, -0.2), DUGDALE2, d)
        ev = total_energy(v, CrackState(), (0.0, 0.2), DUGDALE2, d)
        assert eu.surface == ev.surface

    def test_element_split_preserves_bulk(self):
        coarse = Domain1D(np.array([0.0, 0.5, 1.0]))
        fine = Domain1D(np.array([0.0, 0.25, 0.5, 1.0]))
        uc = Displacement1D(np.array([0.3, 0.8]))
        uf = Displacement1D(np.array([0.3, 0.3, 0.8]))
        ec = total_energy(uc, CrackState(), (0.0, 0.55), DUGDALE2, coarse)
        ef = total_energy(uf, CrackState(), (0.0, 0.55), DUGDALE2, fine)
        assert abs(ec.bulk - ef.bulk) <= 1e-12

    def test_total_is_sum(self):
        d = bar(4)
        u = Displacement1D(np.full(4, 1.7), {2: 0.2})
        e = total_energy(u, CrackState({1: 0.1}), (0.0, 1.9), DUGDALE2, d)
        assert e.total == pytest.approx(e.bulk + e.surface, abs=1e-12)

    def test_mismatched_mesh_rejected(self):
        d = bar(4)
        with pytest.raises(ValueError):
            total_energy(Displacement1D(np.zeros(3)), CrackState(), (0.0, 0.0), DUGDALE2, d)
        with pytest.raises(ValueError):
            total_energy(
                Displacement1D(np.zeros(4), {7: 0.1}), CrackState(), (0.0, 0.0), DUGDALE2, d
            )

    def test_griffith_counts_sites(self):
        d = bar(4)
        u = Displacement1D(np.zeros(4), {2: 1.3})
        e = griffith_energy(u, [], d)
        assert e.surface == 1.0 and e.bulk == 0.0
        e = griffith_energy(u, [2], d)
        assert e.surface == 1.0
        e = griffith_energy(Displacement1D(np.full(4, 0.7)), [2], d)
        assert e.bulk == pytest.approx(0.49, abs=1e-15)
        assert e.surface == 1.0


class TestConsistency:
    def test_make_displacement_closes_walk(self):
        d = bar(4)
        u = make_displacement(d, (0.0, 1.0), np.full(4, 0.5), {2: 0.5})
        assert abs(consistency_residual(u, d, (0.0, 1.0))) <= 1e-12
        # storage keeps interior jumps oriented
        assert u.jumps[2] == 0.5

    def test_make_displacement_right_boundary_sign(self):
        d = bar(2)
        # all of g carried by a right-boundary mismatch: trace 0, datum 1
        u = make_displacement(d, (0.0, 1.0), np.zeros(2), {2: 1.0})
        assert u.jumps[2] == -1.0
        assert abs(consistency_residual(u, d, (0.0, 1.0))) == 0.0

    def test_make_displacement_rejects_open_walk(self):
        d = bar(2)
        with pytest.raises(ValueError):
            make_displacement(d, (0.0, 1.0), np.zeros(2), {1: 0.25})

    @given(
        slopes=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        j1=st.floats(-1.0, 1.0),
        j0=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_walk_identity(self, slopes, j1, j0):
        d = bar(3)
        slopes = np.asarray(slopes)
        gl = 0.25
        # close the walk through the right mismatch, then check the identity
        gr = -0.5
        right_trace_minus_datum = (
            gl + j0 + float(np.sum(d.element_lengths * slopes)) + j1 - gr
        )
        u = Displacement1D(slopes, {0: j0, 1: j1, 3: right_trace_minus_datum})
        assert abs(consistency_residual(u, d, (gl, gr))) <= 1e-12
