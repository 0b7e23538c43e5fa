"""Planar tearing solver: elastic solves, prefix sweep, alternate minimization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from cohesivefrac import planar2d
from cohesivefrac.laws import CohesiveLaw, LawKind, plain_laws, rescale_laws
from cohesivefrac.planar2d import (
    AMResult,
    Field2D,
    Grid2D,
    PlanarNonconvergence,
    PlanarNumericError,
    _blocks,
    _lip_energy,
    _lip_jump,
    _lip_operator,
    _pattern_step,
    _solve_jumps,
    _sweep_jumps,
    alternate_minimize,
    cellwise_bulk,
    evolve_tearing,
    prefix_crack_sweep,
    solve_elastic,
    tearing_gap_ladder,
    write_field,
)
from stationary_oracle import stationary_points

DUGDALE = CohesiveLaw(LawKind.DUGDALE, 2.0)

# Tied elastic compliance of the half-open crack, frozen from the first
# n = 64 run; guards the discretization against silent changes.
HALF_CRACK_BULK_64 = 0.256390567908076


def _sparse_oracle(n, t, tied, jumps=None, load=None):
    """Sparse five-point solve on the whole duplicated mesh, as ``(lower, upper)``.

    Minimizes ``E(u) + load.(top lip - bottom lip)`` with the outer rows
    at ``-t`` and ``+t``.  A tied lip pair shares one unknown, the top
    one offset by ``jumps`` when given.  Independent of the lip operator.
    """
    m, cols = n // 2, n + 1
    ids = np.arange(2 * (m + 1) * cols).reshape(2, m + 1, cols)  # block, row, column
    row_w = np.where(np.isin(np.arange(m + 1), (0, m)), 0.5, 1.0)
    col_w = np.where(np.isin(np.arange(cols), (0, n)), 0.5, 1.0)
    p = np.concatenate([ids[:, :, :-1].ravel(), ids[:, :-1].ravel()])
    q = np.concatenate([ids[:, :, 1:].ravel(), ids[:, 1:].ravel()])
    w = np.concatenate([np.tile(np.repeat(row_w, n), 2), np.tile(col_w, 2 * m)])
    size = ids.size
    lap = coo_matrix((np.concatenate([w, w, -w, -w]),
                      (np.concatenate([p, q, p, q]), np.concatenate([p, q, q, p]))),
                     shape=(size, size)).tocsr()

    top, bottom = ids[1, 0], ids[0, -1]
    u0 = np.zeros(size)
    u0[ids[0, 0]], u0[ids[1, -1]] = -t, t
    if jumps is not None:
        u0[top[tied]] = jumps[tied]
    fixed = np.zeros(size, dtype=bool)
    fixed[ids[0, 0]] = fixed[ids[1, -1]] = True
    follow = np.arange(size)
    follow[top[tied]] = bottom[tied]
    own = ~fixed & (follow == np.arange(size))
    rows = np.flatnonzero(~fixed)
    unknown = np.cumsum(own) - 1
    pmat = coo_matrix((np.ones(rows.size), (rows, unknown[follow[rows]])),
                      shape=(size, int(own.sum()))).tocsr()
    lin = np.zeros(size)
    if load is not None:
        lin[top], lin[bottom] = load, -load
    z = spsolve((pmat.T @ lap @ pmat).tocsc(), -pmat.T @ (lap @ u0 + 0.5 * lin))
    lower, upper = (pmat @ z + u0).reshape(2, m + 1, cols)
    return lower, upper


def _lip_jump_oracle(phi, kappa, d, w, j, psi):
    """Vectorized per-node jump: the same candidates as ``_lip_jump``, priced with numpy.

    ``j`` and ``psi`` are arrays of one or two entries.  Every candidate
    is clamped onto ``[0, |d|]`` (a point that is not real onto ``|d|``),
    sorted, and the first of the lowest energies wins.
    """
    end = abs(d)
    half = 0.5 * j
    slopes = (w / phi.a) * phi.deriv(half)
    weights = np.array([slopes[0], slopes[-1], slopes.sum()])
    cand = [(0.0, end), 2.0 * (psi - half)]
    cand.extend(stationary_points(phi, kappa, end, weights, 0.5))
    y = np.sort(np.maximum(np.fmin(np.concatenate(cand), end), 0.0))
    opening = np.maximum(0.5 * (y[:, None] + j), psi)
    energy = kappa * (y - end) ** 2 + w * phi(opening).sum(axis=1)
    x = float(y[np.argmin(energy)])
    return x if d >= 0.0 else -x


def _tied_nodes(n, open_edges):
    closed = np.ones(n, dtype=bool)
    closed[list(open_edges)] = False
    tied = np.zeros(n + 1, dtype=bool)
    tied[:-1] |= closed
    tied[1:] |= closed
    return tied


def _prefix_sweep_oracle(grid, t, laws, mode):
    """``(bulk, surface, total, best)`` of the prefix sweep, one dense solve per prefix."""
    n = grid.n
    bulk, surface = np.empty(n + 1), np.empty(n + 1)
    for k in range(n + 1):
        jumps = _solve_jumps(n, t, _tied_nodes(n, range(k)))
        q = t - 0.5 * jumps
        bulk[k] = laws.bulk_weight * 2.0 * float(q @ _lip_operator(n).stiffness @ q)
        if mode == "griffith":
            surface[k] = laws.surface_weight * int(np.sum(grid.psi[:k] == 0.0)) / n
        else:
            opening = 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))
            surface[k] = laws.surface_weight * float(
                np.sum(laws.phi(np.maximum(opening, grid.psi)))) / n
    total = bulk + surface
    best = 0
    for k in range(1, n + 1):
        if total[k] < total[best] - 1e-12:
            best = k
    return bulk, surface, total, best


def test_solve_elastic_matches_sparse_oracle():
    rng = np.random.default_rng(7)
    for n in (8, 16, 32, 64):
        for _ in range(6):
            open_edges = np.flatnonzero(rng.random(n) < rng.random())
            t = rng.uniform(0.05, 2.0)
            f = solve_elastic(Grid2D(n), open_edges, t)
            lower, upper = _sparse_oracle(n, t, _tied_nodes(n, open_edges))
            assert np.abs(f.lower - lower).max() < 1e-12
            assert np.abs(f.upper - upper).max() < 1e-12


def test_jump_field_matches_sparse_oracle():
    # the field rebuilt from given nodal jumps, as for every AM result
    rng = np.random.default_rng(8)
    for n in (8, 16, 32, 64):
        for _ in range(6):
            t = rng.uniform(0.05, 2.0)
            jumps = rng.uniform(-2.0 * t, 2.0 * t, n + 1) * (rng.random(n + 1) < 0.7)
            lower, upper = _blocks(n, t, jumps)
            ref_lower, ref_upper = _sparse_oracle(n, t, np.ones(n + 1, dtype=bool), jumps)
            assert np.abs(lower - ref_lower).max() < 1e-12
            assert np.abs(upper - ref_upper).max() < 1e-12
            assert np.all(upper[0] - lower[-1] == jumps)


def test_pattern_step_matches_sparse_oracle():
    rng = np.random.default_rng(9)
    for kind in LawKind:
        laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.75)  # bulk weight != 1
        for n in (8, 16, 32):
            for _ in range(4):
                t = rng.uniform(0.05, 2.0)
                jumps = rng.uniform(-1.0, 1.0, n + 1) * (rng.random(n + 1) < 0.6)
                jumps[0] = 0.5
                psi = rng.uniform(0.0, 0.3, n) * (rng.random(n) < 0.3)
                new = _pattern_step(Grid2D(n, psi), laws, t, jumps)
                lower, upper = _blocks(n, t, new)
                # slope of the frozen surface branch, per lip node
                opening = 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))
                slopes = np.where(opening > psi, laws.phi.deriv(opening), 0.0)
                g = np.zeros(n + 1)
                g[:-1] += 0.5 * slopes
                g[1:] += 0.5 * slopes
                g *= laws.surface_weight * np.sign(jumps) / n
                ref_lower, ref_upper = _sparse_oracle(n, t, jumps == 0.0,
                                                      load=g / laws.bulk_weight)
                assert np.abs(lower - ref_lower).max() < 1e-12
                assert np.abs(upper - ref_upper).max() < 1e-12
                assert np.all(new == upper[0] - lower[-1])
                assert np.all(new[jumps == 0.0] == 0.0)


@pytest.mark.parametrize("kind", list(LawKind))
def test_reduced_energy_matches_rebuilt_field(kind):
    # 2 bw q.S.q plus the surface term against the five-point bulk of the field
    rng = np.random.default_rng(10 + list(LawKind).index(kind))
    laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.75)  # bulk weight != 1
    assert laws.bulk_weight != 1.0
    for n in (8, 16, 32):
        for _ in range(5):
            t = rng.uniform(0.05, 2.0)
            jumps = rng.uniform(-2.0 * t, 2.0 * t, n + 1) * (rng.random(n + 1) < 0.7)
            psi = rng.uniform(0.0, 0.3, n) * (rng.random(n) < 0.3)
            grid = Grid2D(n, psi)
            opening = 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))
            surface = laws.surface_weight * float(np.sum(laws.phi(np.maximum(opening, psi)))) / n
            lower, upper = _blocks(n, t, jumps)
            want = laws.bulk_weight * Field2D(grid, lower, upper).edge_bulk() + surface
            got = _lip_energy(grid, laws, t, jumps)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_mode_profiles_stable_and_match_recurrence():
    # profiles run from the lip (row 0) to the clamped edge (row m)
    n, m = 16, 8
    lam = 2.0 - 2.0 * np.cos(np.pi * np.arange(n + 1) / n)
    ref = np.zeros((m + 1, n + 1))
    ref[1] = 1.0
    for j in range(1, m):
        ref[j + 1] = (2.0 + lam) * ref[j] - ref[j - 1]
    assert np.abs(_lip_operator(n).profiles - (ref / ref[m])[::-1]).max() < 1e-12
    # the recurrence overflows here; the closed form must not
    op = _lip_operator.__wrapped__(1024)
    rho = op.profiles
    assert np.isfinite(rho).all() and rho.min() >= 0.0 and rho.max() <= 1.0
    assert np.all(rho[0] == 1.0) and np.all(rho[-1] == 0.0)
    assert np.isfinite(op.stiffness).all()


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(7)
    with pytest.raises(ValueError):
        Grid2D(6)
    with pytest.raises(ValueError):
        Grid2D(8, np.zeros(5))
    for value in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            Grid2D(8, np.where(np.arange(8) == 3, value, 0.0))


def test_precracked_grid():
    grid = Grid2D.precracked(8, 0.5, 0.1)
    assert np.array_equal(grid.psi, [0.1] * 4 + [0.0] * 4)
    assert np.array_equal(Grid2D.precracked(8, 1.0, 0.0).psi, np.zeros(8))
    for length, gamma in ((-0.5, 0.1), (1.5, 0.1), (np.nan, 0.1),
                          (0.5, -0.1), (0.5, np.nan), (0.5, np.inf)):
        with pytest.raises(ValueError):
            Grid2D.precracked(8, length, gamma)


def test_tied_solve_is_linear_profile():
    f = solve_elastic(Grid2D(16), [], 0.3)
    ys = np.linspace(0.0, 0.5, 9)
    assert np.abs(f.lower - 0.3 * (2.0 * ys - 1.0)[:, None]).max() < 1e-12
    assert f.edge_bulk() == pytest.approx(0.36, abs=1e-12)
    assert cellwise_bulk(f) == pytest.approx(0.36, abs=1e-12)
    assert np.all(f.nodal_jumps() == 0.0)


def test_full_tear_blocks_are_constant():
    t = 0.7
    f = solve_elastic(Grid2D(16), range(16), t)
    assert np.abs(f.lower + t).max() < 1e-12
    assert np.abs(f.upper - t).max() < 1e-12
    assert f.edge_bulk() < 1e-24
    assert np.abs(f.nodal_jumps() - 2.0 * t).max() < 1e-12


def test_antisymmetry_of_tearing():
    f = solve_elastic(Grid2D(64), range(32), 0.3)
    assert np.abs(f.lower + f.upper[::-1]).max() < 1e-12


def test_closed_edges_tie_exactly():
    f = solve_elastic(Grid2D(16), range(8), 0.3)
    j = f.nodal_jumps()
    assert np.all(j[9:] == 0.0)
    assert np.all(np.abs(j[:8]) > 0.0)


def test_max_principle():
    f = solve_elastic(Grid2D(16), [2, 3, 11], 0.5)
    for block in (f.lower, f.upper):
        assert block.min() >= -0.5 - 1e-12
        assert block.max() <= 0.5 + 1e-12


def test_half_crack_regression_value():
    f = solve_elastic(Grid2D(64), range(32), 0.3)
    assert f.edge_bulk() == pytest.approx(HALF_CRACK_BULK_64, rel=1e-9)


def test_refinement_changes_bulk_mildly():
    b64 = solve_elastic(Grid2D(64), range(32), 0.3).edge_bulk()
    b128 = solve_elastic(Grid2D(128), range(64), 0.3).edge_bulk()
    assert abs(b64 - b128) / b128 < 0.05


def test_open_edge_validation():
    with pytest.raises(ValueError):
        solve_elastic(Grid2D(8), [8], 0.1)


@settings(max_examples=20, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=11), max_size=12),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_any_pattern_max_principle_and_ties(open_edges, t):
    grid = Grid2D(12)
    f = solve_elastic(grid, open_edges, t)
    for block in (f.lower, f.upper):
        assert block.min() >= -t - 1e-10
        assert block.max() <= t + 1e-10
    j = f.nodal_jumps()
    for i in range(13):
        incident = {e for e in (i - 1, i) if 0 <= e < 12}
        if incident and not incident.issubset(open_edges):
            assert j[i] == 0.0


class TestSweep:
    def test_zero_load_keeps_bar_whole(self):
        res = prefix_crack_sweep(Grid2D(16), 0.0, plain_laws(DUGDALE), mode="griffith")
        assert res.best_length == 0.0

    def test_strong_load_tears_completely(self):
        res = prefix_crack_sweep(Grid2D(16), 3.0, plain_laws(DUGDALE), mode="griffith")
        assert res.best_length == 1.0
        assert res.total[-1] == pytest.approx(1.0, abs=1e-12)

    def test_compliance_monotone(self):
        for mode in ("griffith", "cohesive"):
            res = prefix_crack_sweep(Grid2D(16), 0.8, plain_laws(DUGDALE), mode=mode)
            assert np.all(np.diff(res.bulk) <= 1e-12)

    def test_saturated_memory_surface_is_flat(self):
        psi = np.zeros(16)
        psi[:4] = 0.6  # beyond the Dugdale saturation opening 0.5
        mem = prefix_crack_sweep(Grid2D(16, psi), 0.9, plain_laws(DUGDALE))
        fresh = prefix_crack_sweep(Grid2D(16), 0.9, plain_laws(DUGDALE))
        # same elastic problem, so bulk columns agree; the memory edges
        # pay the sunk phi(psi) = 1 from length 0 on and never more
        assert np.allclose(mem.bulk, fresh.bulk, atol=1e-12)
        assert mem.surface[0] == pytest.approx(4 / 16, abs=1e-12)
        assert mem.surface[4] == pytest.approx(4 / 16, abs=1e-12)
        assert np.all(mem.surface >= fresh.surface - 1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            prefix_crack_sweep(Grid2D(8), 0.1, plain_laws(DUGDALE), mode="both")

    @pytest.mark.parametrize("n", [8, 16, 64, 128])
    @pytest.mark.parametrize("mode", ["cohesive", "griffith"])
    def test_matches_per_prefix_solves(self, n, mode):
        # the shared Cholesky factor against one dense solve per prefix
        laws = rescale_laws(DUGDALE, 10.0, 0.75)  # bulk weight != 1
        for grid in (Grid2D(n), Grid2D.precracked(n, 0.25, 0.05)):
            for t in (0.0, 0.3, 0.9, 3.0, -0.5):
                res = prefix_crack_sweep(grid, t, laws, mode=mode)
                bulk, surface, total, best = _prefix_sweep_oracle(grid, t, laws, mode)
                np.testing.assert_allclose(res.bulk, bulk, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(res.surface, surface, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(res.total, total, rtol=1e-12, atol=0.0)
                assert res.best_index == best
                assert res.bulk[-1] == 0.0

    def test_residual_check_is_live(self, monkeypatch):
        monkeypatch.setattr(planar2d, "RESIDUAL_TOL", 0.0)
        with pytest.raises(PlanarNumericError):
            prefix_crack_sweep(Grid2D(16), 0.3, plain_laws(DUGDALE))


@pytest.mark.parametrize("kind", list(LawKind))
def test_lip_jump_never_beaten_by_grid(kind):
    # the closed-form per-node jump against an exhaustive grid on [-R, R]
    rng = np.random.default_rng(40 + list(LawKind).index(kind))
    seen = dict.fromkeys(("memory", "saturation", "two_stationary", "zero", "pos", "neg"), 0)
    for trial in range(150):
        phi = CohesiveLaw(kind, rng.uniform(0.5, 5.0))
        kappa = float(rng.choice([0.5, 1.0]))
        d = 0.0 if trial % 10 == 0 else rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.01, 2.0)
        m = int(rng.choice([1, 2]))
        j = rng.uniform(0.0, 2.0 / phi.a, m)
        psi = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0 / phi.a, m))

        def energy(x):
            x = np.atleast_1d(x)
            opening = np.maximum(0.5 * (np.abs(x)[:, None] + j), psi)
            return kappa * (x - d) ** 2 + w * phi(opening).sum(axis=1)

        x = _lip_jump(phi, kappa, d, w, j.tolist(), psi.tolist())
        radius = abs(d) + 1.0
        want = float(energy(np.linspace(-radius, radius, 40_001)).min())
        assert float(energy(x)[0]) <= want + 1e-12 * max(1.0, abs(want))
        # the minimizer has the sign of d and never overshoots it
        assert x * d >= 0.0 and abs(x) <= abs(d)

        end = abs(d)
        inside = lambda y: (0.0 < y) & (y < end)  # noqa: E731
        seen["memory"] += int(inside(2.0 * psi - j).sum())
        if phi.saturation_opening is not None:
            seen["saturation"] += int(inside(2.0 * phi.saturation_opening - j).sum())
        weights = w * phi.deriv(0.5 * j) / phi.a
        points = stationary_points(phi, kappa, end, np.append(weights, weights.sum()), 0.5)
        if points.shape[0] == 2:
            seen["two_stationary"] += int(inside(points).all(axis=0).sum())
        seen["zero" if d == 0.0 else "pos" if d > 0.0 else "neg"] += 1
        if d == 0.0:
            assert x == 0.0
    assert seen["memory"] and seen["zero"] and seen["pos"] and seen["neg"]
    assert seen["saturation" if kind is LawKind.DUGDALE else "two_stationary"]


@pytest.mark.parametrize("kind", list(LawKind))
def test_lip_jump_matches_vectorized_oracle(kind):
    rng = np.random.default_rng(60 + list(LawKind).index(kind))
    seen = dict.fromkeys(("one", "two", "memory", "saturation", "zero", "pos", "neg"), 0)
    for trial in range(600):
        phi = CohesiveLaw(kind, rng.uniform(0.5, 5.0))
        kappa = rng.uniform(0.1, 2.0)
        d = 0.0 if trial % 10 == 0 else rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.01, 2.0)
        m = int(rng.choice([1, 2]))
        j = rng.uniform(0.0, 2.0 / phi.a, m) * (rng.random(m) < 0.8)
        psi = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 2.0 / phi.a, m))
        x = _lip_jump(phi, kappa, d, w, j.tolist(), psi.tolist())
        want = _lip_jump_oracle(phi, kappa, d, w, j, psi)
        if kind is LawKind.DUGDALE:
            assert x == want and np.signbit(x) == np.signbit(want)
        else:
            assert abs(x - want) <= 1e-14 * abs(want)
        assert type(x) is float

        inside = lambda y: (0.0 < y) & (y < abs(d))  # noqa: E731
        seen["one" if m == 1 else "two"] += 1
        seen["memory"] += int(inside(2.0 * psi - j).any())
        if phi.saturation_opening is not None:
            seen["saturation"] += int(inside(2.0 * phi.saturation_opening - j).any())
        seen["zero" if d == 0.0 else "pos" if d > 0.0 else "neg"] += 1
    if kind is not LawKind.DUGDALE:
        del seen["saturation"]
    assert min(seen.values()) >= 30, seen


def test_lip_jump_tie_goes_to_the_smaller_jump():
    # phi(s) = min(s, 1): the vertex 1.875 and the saturated end 2.125
    # both cost exactly 1, and the end comes first among the candidates
    phi = CohesiveLaw(LawKind.DUGDALE, 1.0)
    for d in (2.125, -2.125):
        x = _lip_jump(phi, 1.0, d, 1.0, [0.0], [0.0])
        assert x == _lip_jump_oracle(phi, 1.0, d, 1.0, np.zeros(1), np.zeros(1))
        assert x == math.copysign(1.875, d)


@pytest.mark.parametrize("kind", list(LawKind))
def test_sweep_leaves_last_node_at_its_minimum(kind):
    # the last node of a pass sees every earlier update only through S.q
    rng = np.random.default_rng(20 + list(LawKind).index(kind))
    laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.75)  # bulk weight != 1
    for _ in range(5):
        t = rng.uniform(0.2, 1.0)
        jumps = rng.uniform(0.0, 2.0 * t, 17)
        grid = Grid2D(16, rng.uniform(0.0, 0.3, 16) * (rng.random(16) < 0.3))
        before = _lip_energy(grid, laws, t, jumps)
        _sweep_jumps(grid, laws, t, jumps)
        after = _lip_energy(grid, laws, t, jumps)
        assert after <= before
        grid_best = min(_lip_energy(grid, laws, t, np.append(jumps[:-1], x))
                        for x in np.linspace(-4.0 * t, 4.0 * t, 4001))
        assert after <= grid_best + 1e-12 * max(1.0, grid_best)


class TestAlternateMinimize:
    def test_small_load_matches_tied_elastic(self):
        grid = Grid2D(16)
        res = alternate_minimize(grid, 0.05, plain_laws(DUGDALE))
        ref = solve_elastic(grid, [], 0.05)
        assert np.abs(res.field.lower - ref.lower).max() < 1e-8
        assert np.abs(res.field.upper - ref.upper).max() < 1e-8
        assert np.abs(res.nodal_jumps).max() < 1e-8

    def test_stays_at_full_tear(self):
        grid = Grid2D(16)
        t = 3.0
        res = alternate_minimize(grid, t, plain_laws(DUGDALE),
                                 start_jumps=np.full(17, 2.0 * t))
        assert res.field.edge_bulk() < 1e-12
        assert res.energies[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(LawKind))
    @pytest.mark.parametrize("alpha, h", [(0.25, 1.0), (0.75, 10.0), (0.75, 100.0)])
    def test_energy_trace_nonincreasing(self, kind, alpha, h):
        # alpha > 1/2 gives bulk weight h^(2 alpha - 1) != 1
        laws = rescale_laws(CohesiveLaw(kind, 2.0), h, alpha)
        psi = np.zeros(16)
        psi[:8] = 0.1
        t = 0.5
        for start in (None, np.full(17, 2.0 * t)):
            res = alternate_minimize(Grid2D(16, psi), t, laws, start_jumps=start)
            assert np.all(np.diff(res.energies) <= 1e-9)

    def test_field_is_built_on_first_read(self):
        grid = Grid2D.precracked(16, 0.5, 0.1)
        res = alternate_minimize(grid, 0.5, plain_laws(DUGDALE))
        assert "field" not in vars(res)
        lower, upper = _blocks(16, 0.5, res.nodal_jumps)
        assert np.array_equal(res.field.lower, lower)
        assert np.array_equal(res.field.upper, upper)
        assert res.field is res.field and res.field.grid is grid
        # the field is built from the jumps, so they cannot change under it
        with pytest.raises(ValueError):
            res.nodal_jumps[0] = 1.0

    def test_nonconvergence_carries_last_energy(self, monkeypatch):
        monkeypatch.setattr(planar2d, "AM_MAX_ITERS", 1)
        with pytest.raises(PlanarNonconvergence) as err:
            alternate_minimize(Grid2D(16), 1.5, plain_laws(DUGDALE),
                               start_jumps=np.linspace(0.0, 1.0, 17))
        assert err.value.last_energy > 0.0
        assert err.value.iterations == 1

    def test_psi_validation(self):
        with pytest.raises(ValueError):
            alternate_minimize(Grid2D(8, -np.ones(8)), 0.1, plain_laws(DUGDALE))
        with pytest.raises(ValueError):
            alternate_minimize(Grid2D(8), 0.1, plain_laws(DUGDALE),
                               start_jumps=np.zeros(3))


class TestTearing:
    def test_memory_never_shrinks(self):
        psi = np.zeros(16)
        psi[:8] = 0.1
        steps = evolve_tearing(Grid2D(16, psi), [0.2, 0.5, 0.9], plain_laws(DUGDALE))
        for a, b in zip(steps, steps[1:]):
            assert np.all(b.psi >= a.psi - 1e-15)

    def test_gap_ladder_shrinks(self):
        gaps = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 100.0, 1000.0], n=16,
                                  crack_length=0.5, gamma=0.1,
                                  times=[0.3, 0.6])
        assert np.all(np.diff(gaps) <= 1e-6)
        assert gaps[-1] < 0.1

    def test_benchmark_ladder_is_pinned(self, monkeypatch):
        # the planar benchmark's tearing inputs at seed 0; the AM counts
        # show that the per-node kernel changed no iterate
        iterations, energies = [], []
        am, tearing = planar2d.alternate_minimize, planar2d.evolve_tearing

        def counting_am(*args, **kwargs):
            try:
                res = am(*args, **kwargs)
            except PlanarNonconvergence:
                iterations.append(None)
                raise
            iterations.append(res.iterations)
            return res

        def recording_tearing(*args, **kwargs):
            steps = tearing(*args, **kwargs)
            energies.extend(step.energy for step in steps)
            return steps

        monkeypatch.setattr(planar2d, "alternate_minimize", counting_am)
        monkeypatch.setattr(planar2d, "evolve_tearing", recording_tearing)
        gaps = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 10.0, 100.0, 1000.0], n=32,
                                  crack_length=0.5, gamma=0.1,
                                  times=[0.2, 0.4, 0.6, 0.8, 1.0])
        assert gaps == pytest.approx(
            [2.848729332353215, 2.848729332353215, 0.9683646839084288, 2.220446049250313e-16],
            rel=1e-12, abs=1e-15)
        assert len(energies) == 20
        assert sum(energies) == pytest.approx(123.25944345952092, rel=1e-12)
        assert None not in iterations
        assert (len(iterations), sum(iterations)) == (76, 151)

    def test_exponential_ladder_is_pinned(self, monkeypatch):
        # the same inputs with the exponential law, whose node update
        # takes its local minima from the Lambert W_0 branch
        iterations, energies = [], []
        am, tearing = planar2d.alternate_minimize, planar2d.evolve_tearing

        def counting_am(*args, **kwargs):
            try:
                res = am(*args, **kwargs)
            except PlanarNonconvergence:
                iterations.append(None)
                raise
            iterations.append(res.iterations)
            return res

        def recording_tearing(*args, **kwargs):
            steps = tearing(*args, **kwargs)
            energies.extend(step.energy for step in steps)
            return steps

        monkeypatch.setattr(planar2d, "alternate_minimize", counting_am)
        monkeypatch.setattr(planar2d, "evolve_tearing", recording_tearing)
        gaps = tearing_gap_ladder(CohesiveLaw(LawKind.EXPONENTIAL, 2.0), 0.25,
                                  [1.0, 10.0, 100.0, 1000.0], n=32, crack_length=0.5,
                                  gamma=0.1, times=[0.2, 0.4, 0.6, 0.8, 1.0])
        assert gaps == pytest.approx(
            [2.8483673441796964, 2.8487076550956325, 0.9675974595446641, 0.9675974595446641],
            rel=1e-12)
        assert len(energies) == 20
        assert sum(energies) == pytest.approx(94.8757882763694, rel=1e-12)
        assert None not in iterations
        assert (len(iterations), sum(iterations)) == (76, 430)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_a_nonfinite_time_before_solving(self, bad, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the times were checked")

        monkeypatch.setattr(planar2d, "alternate_minimize", no_solve)
        monkeypatch.setattr(planar2d, "_solve_jumps", no_solve)
        with pytest.raises(ValueError, match=f"load times must be finite, got {bad}"):
            evolve_tearing(Grid2D.precracked(8, 0.5, 0.1), [0.2, bad, 0.4], plain_laws(DUGDALE))

    def test_gap_ladder_reference_opens_only_memory_edges(self):
        # a precrack of zero memory is no crack: the same gaps as none at all
        kw = dict(n=8, times=[0.3, 0.6])
        none = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 10.0], crack_length=0.0, gamma=0.1, **kw)
        zero = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 10.0], crack_length=0.5, gamma=0.0, **kw)
        assert np.array_equal(none, zero)

    def test_gap_ladder_rejects_a_negative_crack_length(self):
        # a slice psi[:round(length * n)] would count it from the last edge
        with pytest.raises(ValueError, match="crack length"):
            tearing_gap_ladder(DUGDALE, 0.25, [1.0], n=8, crack_length=-0.5,
                               gamma=0.1, times=[0.3])


def test_field_text_roundtrip(tmp_path):
    f = solve_elastic(Grid2D(8), range(4), 0.25)
    path = tmp_path / "field.txt"
    write_field(f, path)
    data = np.loadtxt(path)
    assert data.shape == (10, 9)
    assert np.abs(data[:5][::-1] - f.upper).max() < 1e-12
    assert np.abs(data[5:][::-1] - f.lower).max() < 1e-12
