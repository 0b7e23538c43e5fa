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

    @pytest.mark.parametrize("site", [-1, 5])
    def test_sites_are_the_nodes(self, site):
        # both ends are held, so the jump sites are the nodes 0..M and no other
        nodes = np.linspace(0.0, 1.0, 5)
        Domain1D(nodes, ((0, 0.5), (4, 0.5)))
        with pytest.raises(ValueError, match="not a valid jump site"):
            Domain1D(nodes, ((site, 0.5),))
        with pytest.raises(ValueError, match="invalid site"):
            Displacement1D(0.0, {site: 0.1}).validate(bar(4))

    @pytest.mark.parametrize("crack", [[(0.5, 0.4), (0.55, 0.3)], [(0.55, 0.3), (0.5, 0.4)]])
    def test_rejects_two_entries_on_one_site(self, crack):
        # both positions snap to node 2, whichever comes first
        with pytest.raises(ValueError, match=r"two entries on crack site 2 \(x = 0.5\)"):
            Domain1D.uniform(1.0, 4, crack=crack)

    def test_rejects_nonpositive_initial_opening(self):
        with pytest.raises(ValueError):
            Domain1D.uniform(1.0, 4, crack=[(0.5, 0.0)])


    @pytest.mark.parametrize("opening", [np.nan, np.inf])
    def test_rejects_nonfinite_initial_opening(self, opening):
        with pytest.raises(ValueError):
            Domain1D.uniform(1.0, 4, crack=[(0.5, opening)])

    def test_crack_sites_are_never_truncated(self):
        nodes = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="crack site index must be an integer, got 1.5"):
            Domain1D(nodes, ((1.5, 0.3),))
        assert Domain1D(nodes, ((np.int64(1), 0.3),)).preexisting_crack == ((1, 0.3),)


class TestCrackState:
    def test_zero_entries_dropped(self):
        c = CrackState({1: 0.0, 2: 0.5})
        assert c.sites == {2}

    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
    def test_rejects_negative_or_nonfinite_memory(self, value):
        with pytest.raises(ValueError):
            CrackState({1: 0.2, 2: value})

    def test_sites_are_never_truncated(self):
        with pytest.raises(ValueError, match="memory site index must be an integer, got 2.9"):
            CrackState({2.9: 0.4})
        assert CrackState({np.int64(2): 0.4}).psi == {2: 0.4}


class TestDisplacement:
    def test_sites_are_never_truncated(self):
        with pytest.raises(ValueError, match="jump site index must be an integer, got 3.99"):
            Displacement1D(0.1, {3.99: 0.2})
        # a zero jump is dropped, but its site is checked too
        with pytest.raises(ValueError, match="got 3.5"):
            Displacement1D(0.1, {3.5: 0.0})
        assert Displacement1D(0.1, {np.int64(3): 0.2}).jumps == {3: 0.2}


class TestEnergy:
    def test_elastic_profile(self):
        d = bar(4)
        u = Displacement1D(0.5)
        e = total_energy(u, CrackState(), DUGDALE2, d)
        assert e.bulk == pytest.approx(0.25, abs=1e-15)
        assert e.surface == 0.0
        assert e.total == pytest.approx(0.25, abs=1e-15)

    def test_boundary_mismatch_pays_surface(self):
        d = bar(4)
        # u identically zero under g = (0, 1): crossing the right end from
        # trace 0 to datum 1 is an increment of 1
        u = Displacement1D(0.0, {4: 1.0})
        e = total_energy(u, CrackState(), DUGDALE2, d)
        assert e.bulk == 0.0
        assert e.surface == pytest.approx(1.0, abs=1e-15)

    def test_memory_dominates_small_jump(self):
        d = bar(4)
        u = Displacement1D(0.0, {2: 0.3})
        e = total_energy(u, CrackState({2: 0.6}), DUGDALE2, d)
        assert e.surface == pytest.approx(1.0, abs=1e-15)

    def test_memory_paid_without_jump(self):
        d = bar(4)
        u = Displacement1D(0.5)
        e = total_energy(u, CrackState({2: 0.4}), DUGDALE2, d)
        assert e.surface == pytest.approx(float(DUGDALE2.phi(0.4)), abs=1e-15)

    def test_sign_flip_leaves_surface_unchanged(self):
        d = bar(4)
        u = Displacement1D(0.0, {1: 0.2, 3: -0.4})
        v = Displacement1D(0.0, {1: -0.2, 3: 0.4})
        eu = total_energy(u, CrackState(), DUGDALE2, d)
        ev = total_energy(v, CrackState(), DUGDALE2, d)
        assert eu.surface == ev.surface

    def test_total_is_sum(self):
        d = bar(4)
        u = Displacement1D(1.7, {2: 0.2})
        e = total_energy(u, CrackState({1: 0.1}), DUGDALE2, d)
        assert e.total == pytest.approx(e.bulk + e.surface, abs=1e-12)

    def test_mismatched_mesh_rejected(self):
        d = bar(4)
        with pytest.raises(ValueError):
            total_energy(Displacement1D(0.0, {7: 0.1}), CrackState(), DUGDALE2, d)

    def test_griffith_counts_sites(self):
        d = bar(4)
        u = Displacement1D(0.0, {2: 1.3})
        e = griffith_energy(u, [], d)
        assert e.surface == 1.0 and e.bulk == 0.0
        e = griffith_energy(u, [2], d)
        assert e.surface == 1.0
        e = griffith_energy(Displacement1D(0.7), [2], d)
        assert e.bulk == pytest.approx(0.49, abs=1e-15)
        assert e.surface == 1.0


class TestConsistency:
    def test_make_displacement_closes_walk(self):
        d = bar(4)
        u = make_displacement(d, (0.0, 1.0), 0.5, {2: 0.5})
        assert abs(consistency_residual(u, d, (0.0, 1.0))) <= 1e-12
        # storage keeps interior jumps oriented
        assert u.jumps[2] == 0.5

    def test_make_displacement_right_boundary_sign(self):
        d = bar(2)
        # all of g carried by a right-boundary mismatch: trace 0, datum 1,
        # stored oriented as datum minus trace
        u = make_displacement(d, (0.0, 1.0), 0.0, {2: 1.0})
        assert u.jumps[2] == 1.0
        assert abs(consistency_residual(u, d, (0.0, 1.0))) == 0.0

    def test_make_displacement_rejects_open_walk(self):
        d = bar(2)
        with pytest.raises(ValueError):
            make_displacement(d, (0.0, 1.0), 0.0, {1: 0.25})

    @given(
        slope=st.floats(-2.0, 2.0),
        j1=st.floats(-1.0, 1.0),
        j0=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_walk_identity(self, slope, j1, j0):
        d = bar(3)
        gl = 0.25
        # close the walk through the right mismatch, then check the identity
        gr = -0.5
        right_datum_minus_trace = gr - (gl + j0 + slope * d.length + j1)
        u = Displacement1D(slope, {0: j0, 1: j1, 3: right_datum_minus_trace})
        assert abs(consistency_residual(u, d, (gl, gr))) <= 1e-12
