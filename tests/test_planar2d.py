"""Planar tearing solver: elastic solves, prefix sweep, DC step solver and its subproblem."""

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
    _lip_bulk,
    _lip_energy,
    _lip_operator,
    _lip_subproblem,
    _solve_jumps,
    alternate_minimize,
    evolve_tearing,
    prefix_crack_sweep,
    solve_elastic,
    tearing_gap_ladder,
)

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


def _random_subproblem(rng, kind):
    """``(grid, laws, t, zeta, jumps)``: a DC subproblem with its warm start.

    The memory is scattered, a uniform precrack or uniform everywhere
    (which puts whole runs of edges at it), and the start jumps are
    random or held exactly at twice the memory; ``zeta`` is the law's
    slope gap at the start, as in a DC iteration.
    """
    n = int(rng.choice([8, 16, 32]))
    laws = rescale_laws(CohesiveLaw(kind, rng.uniform(0.5, 4.0)),
                        float(rng.choice([1.0, 10.0, 100.0])), float(rng.choice([0.25, 0.75])))
    t = rng.uniform(0.0, 2.0)
    shape = rng.integers(3)
    if shape == 0:
        psi = rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.5)
    elif shape == 1:
        psi = np.where(np.arange(n) < rng.integers(0, n + 1), rng.uniform(0.0, 0.3), 0.0)
    else:
        psi = np.full(n, rng.uniform(0.0, 0.3))
    if rng.random() < 0.3:
        jumps = np.where(rng.random(n + 1) < 0.5, 2.0 * psi.max(), 0.0)
    else:
        jumps = rng.uniform(0.0, 2.0 * t, n + 1) * (rng.random(n + 1) < rng.random())
    s = 0.5 * (jumps[:-1] + jumps[1:])
    zeta = np.where(s > psi, laws.phi.a - laws.phi.deriv(s), 0.0)
    return Grid2D(n, psi), laws, t, zeta, jumps


def _kkt_violation(grid, laws, t, zeta, jumps, lam):
    """Largest failure of the subproblem's KKT conditions, relative to their scales.

    ``mu = bw S J - 2 bw t S 1 - w B^T zeta + w a B^T lam`` must vanish
    at positive jumps and be nonnegative at zero ones, the jumps must be
    nonnegative, and each ``lam`` must lie in the subdifferential of
    ``max(., psi)`` at the edge's opening ``s = B J``.
    """
    n, psi = grid.n, grid.psi
    stiff = _lip_operator(n).stiffness
    w = laws.surface_weight / n
    bw, wa = laws.bulk_weight, w * laws.phi.a
    spread = np.zeros(n + 1)
    spread[:-1] += 0.5 * (wa * lam - w * zeta)
    spread[1:] += 0.5 * (wa * lam - w * zeta)
    g = 2.0 * bw * t * stiff.sum(axis=1)
    mu = bw * (stiff @ jumps) - g + spread
    force = max(1.0, wa, float(np.abs(g).max()))
    length = max(1.0, 2.0 * t, float(psi.max()))
    s = 0.5 * (jumps[:-1] + jumps[1:])
    low = np.where(s > psi + 1e-9 * length, 1.0, 0.0)    # lam bounds per edge
    high = np.where(s < psi - 1e-9 * length, 0.0, 1.0)
    return max(
        float(np.abs(mu[jumps > 0.0]).max(initial=0.0)) / force,
        float(np.maximum(-mu[jumps == 0.0], 0.0).max(initial=0.0)) / force,
        float(np.maximum(-jumps, 0.0).max()) / length,
        float(np.maximum(low - lam, lam - high).max()),
    )


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


def test_grid_cell_count_is_never_truncated():
    with pytest.raises(ValueError, match="cell count must be an integer, got 16.0"):
        Grid2D(16.0, np.zeros(16))
    assert Grid2D(np.int64(16)).n == 16


def test_precracked_cell_count_is_never_truncated():
    with pytest.raises(ValueError, match="cell count must be an integer, got 8.7"):
        Grid2D.precracked(8.7, 0.5, 0.1)


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


def test_open_edges_are_never_truncated():
    with pytest.raises(ValueError, match="crack edge index must be an integer, got 1.5"):
        solve_elastic(Grid2D(8), [1.5, 2.7], 0.3)
    # Python and numpy integers name the same edges
    ref = solve_elastic(Grid2D(8), [1, 2], 0.3)
    got = solve_elastic(Grid2D(8), np.array([1, 2]), 0.3)
    assert np.array_equal(got.lower, ref.lower) and np.array_equal(got.upper, ref.upper)


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
                assert np.all(np.diff(res.bulk) <= 0.0)

    @pytest.mark.parametrize("mode", ["cohesive", "griffith"])
    def test_energy_overflow_raises(self, mode):
        # the bulk of the uncracked bar overflows to inf, the cracked
        # prefixes to nan; no numpy warning escapes
        with pytest.raises(PlanarNumericError, match="prefix length 0 is not finite"):
            prefix_crack_sweep(Grid2D(16), 1e200, plain_laws(DUGDALE), mode=mode)
        # a load whose energies stay finite passes
        res = prefix_crack_sweep(Grid2D(16), 1e150, plain_laws(DUGDALE), mode=mode)
        assert np.all(np.isfinite(res.total))

    def test_residual_check_is_live(self, monkeypatch):
        # the residuals are checked where the per-mesh cache is built
        planar2d._prefix_jumps.cache_clear()
        monkeypatch.setattr(planar2d, "RESIDUAL_TOL", 0.0)
        with pytest.raises(PlanarNumericError):
            prefix_crack_sweep(Grid2D(16), 0.3, plain_laws(DUGDALE))

    @pytest.mark.parametrize("n, tear_times, g_quarter", [
        (64, (0.452893, 0.418943), 2.639267),
        (128, (0.453342, 0.419695), 2.631371),
        (256, (0.453566, 0.420071), 2.627347),
    ])
    def test_griffith_tear_time_in_closed_form(self, n, tear_times, g_quarter):
        # E_k, the bulk of prefix k at unit load, is concave in k, so the
        # Griffith energy t^2 E_k + (k - k0)/n over k >= k0 is least at k0
        # or at n: a saturated precrack k0 = l0 n holds until
        # t* = sqrt((1 - l0)/E_k0) and then tears fully
        laws = plain_laws(DUGDALE)
        unit = prefix_crack_sweep(Grid2D(n), 1.0, laws, mode="griffith").bulk
        assert np.all(np.diff(unit, 2) <= 0.0)
        # the energy release rate G(1/4) = n (E_k - E_k+1) at k = n/4
        k = n // 4
        assert n * (unit[k] - unit[k + 1]) == pytest.approx(g_quarter, abs=1e-6)
        for l0, want in zip((0.25, 0.5), tear_times):
            k0 = round(l0 * n)
            t_star = math.sqrt((1.0 - l0) / unit[k0])
            assert t_star == pytest.approx(want, abs=5e-7)
            grid = Grid2D.precracked(n, l0, 1.0)
            for t, best in ((t_star * (1.0 - 1e-6), k0), (t_star * (1.0 + 1e-6), n)):
                assert prefix_crack_sweep(grid, t, laws, mode="griffith").best_index == best


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_elastic_solve_and_sweep_reject_a_nonfinite_load_before_solving(bad, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the load was checked")

    monkeypatch.setattr(planar2d, "_solve_jumps", no_solve)
    monkeypatch.setattr(planar2d, "_prefix_jumps", no_solve)
    with pytest.raises(ValueError, match=f"load must be finite, got {bad}"):
        solve_elastic(Grid2D(8), [], bad)
    with pytest.raises(ValueError, match=f"load must be finite, got {bad}"):
        prefix_crack_sweep(Grid2D(8), bad, plain_laws(DUGDALE))


def test_subproblem_load_matches_sparse_oracle():
    # the multipliers as a lip load on the independent sparse assembly,
    # with the zero nodes tied: the same jumps
    rng = np.random.default_rng(9)
    for kind in LawKind:
        for _ in range(12):
            grid, laws, t, zeta, jumps = _random_subproblem(rng, kind)
            new, lam = _lip_subproblem(grid, laws, t, zeta, jumps)
            n = grid.n
            load = np.zeros(n + 1)
            load[:-1] += 0.5 * (laws.phi.a * lam - zeta)
            load[1:] += 0.5 * (laws.phi.a * lam - zeta)
            load *= laws.surface_weight / n / laws.bulk_weight
            lower, upper = _sparse_oracle(n, t, new == 0.0, load=load)
            assert np.abs((upper[0] - lower[-1]) - new).max() < 1e-12


class TestSubproblem:
    @pytest.mark.parametrize("kind", list(LawKind))
    def test_kkt_certificate_on_random_instances(self, kind, monkeypatch):
        rng = np.random.default_rng(32 + list(LawKind).index(kind))
        seen = dict.fromkeys(("bulk weight", "zero memory", "memory", "at memory", "zero node",
                              "descent"), 0)
        # a solve that descends after a repeated set reads the openings
        openings, reads = planar2d._edge_openings, [0]

        def counting_openings(jumps):
            reads[0] += 1
            return openings(jumps)

        monkeypatch.setattr(planar2d, "_edge_openings", counting_openings)
        for _ in range(300):
            grid, laws, t, zeta, jumps = _random_subproblem(rng, kind)
            reads[0] = 0
            new, lam = _lip_subproblem(grid, laws, t, zeta, jumps)
            seen["descent"] += reads[0] > 0
            assert _kkt_violation(grid, laws, t, zeta, new, lam) <= 1e-9
            assert np.all(new >= 0.0)
            s = 0.5 * (new[:-1] + new[1:])
            seen["bulk weight"] += laws.bulk_weight != 1.0
            seen["zero memory"] += bool(np.any(grid.psi == 0.0))
            seen["memory"] += bool(np.any(grid.psi > 0.0))
            seen["at memory"] += bool(np.any((grid.psi > 0.0) & (np.abs(s - grid.psi) < 1e-12)))
            seen["zero node"] += bool(np.any(new == 0.0))
        descents = seen.pop("descent")
        assert min(seen.values()) >= 30, seen
        assert descents > 0

    def test_a_missed_face_solve_raises(self, monkeypatch):
        # no face solve meets its equations to a tolerance of 0, so the
        # sign conditions settle and the last check refuses the point
        grid, laws = Grid2D.precracked(16, 0.5, 0.1), plain_laws(DUGDALE)
        args = (grid, laws, 0.6, np.zeros(16), np.zeros(17))
        new, lam = _lip_subproblem(*args)
        assert _kkt_violation(grid, laws, 0.6, np.zeros(16), new, lam) <= 1e-9
        monkeypatch.setattr(planar2d, "RESIDUAL_TOL", 0.0)
        with pytest.raises(PlanarNumericError, match="face solve missed its equations"):
            _lip_subproblem(*args)

    def test_kkt_certificate_on_the_benchmark_ladder(self, monkeypatch):
        # every subproblem of the planar benchmark's seed-0 ladders, both
        # laws, among them some on which the active sets repeat and the
        # descent finishes: it reads the openings
        calls, descents, reads = [], [0], [0]
        sub, openings = planar2d._lip_subproblem, planar2d._edge_openings

        def counting_openings(jumps):
            reads[0] += 1
            return openings(jumps)

        def recording_sub(grid, laws, t, zeta, jumps):
            reads[0] = 0
            new, lam = sub(grid, laws, t, zeta, jumps)
            calls.append((grid, laws, t, zeta, new, lam))
            descents[0] += reads[0] > 0
            return new, lam

        monkeypatch.setattr(planar2d, "_edge_openings", counting_openings)
        monkeypatch.setattr(planar2d, "_lip_subproblem", recording_sub)
        for kind in LawKind:
            tearing_gap_ladder(CohesiveLaw(kind, 2.0), 0.25, [1.0, 10.0, 100.0, 1000.0], n=32,
                               crack_length=0.5, gamma=0.1, times=[0.2, 0.4, 0.6, 0.8, 1.0])
        # of the 109 + 268 DC iterations, the others meet slopes solved for an
        # earlier start of their step
        assert len(calls) == 81 + 231
        assert descents[0] > 0
        for grid, laws, t, zeta, new, lam in calls:
            assert _kkt_violation(grid, laws, t, zeta, new, lam) <= 1e-9


class TestAlternateMinimize:
    def test_small_load_matches_tied_elastic(self):
        grid = Grid2D(16)
        res = alternate_minimize(grid, 0.05, plain_laws(DUGDALE))
        ref = solve_elastic(grid, [], 0.05)
        lower, upper = _blocks(16, 0.05, res.nodal_jumps)
        assert np.abs(lower - ref.lower).max() < 1e-8
        assert np.abs(upper - ref.upper).max() < 1e-8
        assert np.abs(res.nodal_jumps).max() < 1e-8
        with pytest.raises(ValueError):
            res.nodal_jumps[0] = 1.0

    def test_stays_at_full_tear(self):
        grid = Grid2D(16)
        t = 3.0
        res = alternate_minimize(grid, t, plain_laws(DUGDALE),
                                 start_jumps=np.full(17, 2.0 * t))
        lower, upper = _blocks(16, t, res.nodal_jumps)
        assert Field2D(grid=grid, lower=lower, upper=upper).edge_bulk() < 1e-12
        assert res.energies[-1] == pytest.approx(1.0, abs=1e-12)
        # the one convex problem returns the start up to rounding, which is
        # no strict gain: the start energy is the only entry
        assert res.iterations == 1
        assert res.energies.size == 1

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

    @pytest.mark.parametrize("t, start, bad", [
        (math.nan, None, "nan"), (math.inf, None, "inf"),
        (0.5, np.full(17, math.nan), "nan"), (0.5, np.full(17, math.inf), "inf"),
    ])
    def test_rejects_a_nonfinite_load_or_start_before_sweeping(self, t, start, bad, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("solved before the load and start were checked")

        monkeypatch.setattr(planar2d, "_lip_subproblem", no_sweep)
        monkeypatch.setattr(planar2d, "_lip_energy", no_sweep)
        with pytest.raises(ValueError, match=f"must be finite, got {bad}"):
            alternate_minimize(Grid2D(16), t, plain_laws(DUGDALE), start_jumps=start)


    @pytest.mark.parametrize("kind", list(LawKind))
    def test_negative_load_mirrors_the_positive_one(self, kind):
        laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.75)  # bulk weight != 1
        grid = Grid2D.precracked(16, 0.5, 0.1)
        for t in (0.3, 0.8):
            for start in (None, np.linspace(0.0, 1.0, 17)):
                pos = alternate_minimize(grid, t, laws, start_jumps=start)
                neg = alternate_minimize(grid, -t, laws,
                                         start_jumps=None if start is None else -start)
                assert np.array_equal(neg.nodal_jumps, -pos.nodal_jumps)
                assert np.array_equal(neg.energies, pos.energies)
                assert neg.iterations == pos.iterations

    def test_a_grid_solves_each_subproblem_once(self, monkeypatch):
        laws = rescale_laws(DUGDALE, 10.0, 0.25)
        grid = Grid2D.precracked(16, 0.5, 0.1)
        first = alternate_minimize(grid, 0.6, laws)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a subproblem twice on one grid")

        monkeypatch.setattr(planar2d, "_lip_subproblem", no_solve)
        again = alternate_minimize(grid, 0.6, laws)
        assert np.array_equal(again.nodal_jumps, first.nodal_jumps)
        assert np.array_equal(again.energies, first.energies)
        # another grid with the same memory solves afresh
        with pytest.raises(AssertionError, match="twice"):
            alternate_minimize(Grid2D(16, grid.psi), 0.6, laws)

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_mixed_sign_start_descends(self, kind):
        rng = np.random.default_rng(50 + list(LawKind).index(kind))
        laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.25)
        grid = Grid2D.precracked(16, 0.5, 0.1)
        for _ in range(5):
            t = rng.uniform(0.2, 1.0)
            start = rng.uniform(-2.0 * t, 2.0 * t, 17)
            res = alternate_minimize(grid, t, laws, start_jumps=start)
            assert np.all(np.diff(res.energies) <= 0.0)
            assert res.energies[0] <= _lip_energy(grid, laws, t, start)
            assert np.all(res.nodal_jumps >= 0.0)


class TestTearing:
    def test_memory_never_shrinks(self):
        psi = np.zeros(16)
        psi[:8] = 0.1
        steps = evolve_tearing(Grid2D(16, psi), [0.2, 0.5, 0.9], plain_laws(DUGDALE))
        for a, b in zip(steps, steps[1:]):
            assert np.all(b.psi >= a.psi - 1e-15)

    def test_step_field_is_built_on_first_read(self):
        # a step keeps only its jumps; the field is rebuilt from them when read
        steps = evolve_tearing(Grid2D.precracked(16, 0.5, 0.1), [0.3, 0.6], plain_laws(DUGDALE))
        for step in steps:
            assert not hasattr(step, "field")
            field = Field2D(Grid2D(16, step.psi), *_blocks(16, step.time, step.nodal_jumps))
            assert np.array_equal(field.nodal_jumps(), step.nodal_jumps)
            assert field.edge_bulk() == pytest.approx(
                _lip_bulk(16, step.time, step.nodal_jumps), rel=1e-10)
            # the field is built from the jumps, and the memo of solved
            # subproblems may hold them, so they cannot change under either
            with pytest.raises(ValueError):
                step.nodal_jumps[0] = 1.0

    @pytest.mark.parametrize("kind", list(LawKind))
    def test_uses_only_the_array_forms_of_the_law(self, kind):
        # the float forms and the local minima serve the bar alone
        laws = rescale_laws(CohesiveLaw(kind, 2.0), 10.0, 0.25)

        def no_float_form(*args, **kwargs):
            raise AssertionError("the plate called a float form of the law")

        for name in ("_value", "_slope", "_stationary"):
            object.__setattr__(laws.phi, name, no_float_form)
        steps = evolve_tearing(Grid2D.precracked(16, 0.5, 0.1), [0.3, 0.6, 0.9], laws)
        assert np.abs(steps[-1].nodal_jumps).max() > 0.0

    def test_gap_ladder_builds_no_field(self, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("the gap ladder built a field")

        monkeypatch.setattr(planar2d, "_blocks", no_field)
        monkeypatch.setattr(planar2d, "solve_elastic", no_field)
        gaps = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 100.0], n=16, crack_length=0.5,
                                  gamma=0.1, times=[0.3, 0.6])
        assert gaps.shape == (2,)

    @pytest.mark.parametrize("h_list, times", [
        ([1.0, 10.0], []), ([], [0.3]), ([10.0, 1.0], [0.3]), ([1.0, 1.0], [0.3]),
    ])
    def test_gap_ladder_rejects_a_vacuous_ladder_before_solving(self, h_list, times, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the ladder was checked")

        monkeypatch.setattr(planar2d, "evolve_tearing", no_solve)
        monkeypatch.setattr(planar2d, "_solve_jumps", no_solve)
        with pytest.raises(ValueError, match="need load times and increasing sizes"):
            tearing_gap_ladder(DUGDALE, 0.25, h_list, n=8, crack_length=0.5,
                               gamma=0.1, times=times)

    def test_gap_ladder_shrinks(self):
        gaps = tearing_gap_ladder(DUGDALE, 0.25, [1.0, 100.0, 1000.0], n=16,
                                  crack_length=0.5, gamma=0.1,
                                  times=[0.3, 0.6])
        assert np.all(np.diff(gaps) <= 1e-6)
        assert gaps[-1] < 0.1

    def test_benchmark_ladder_is_pinned(self, monkeypatch):
        # the planar benchmark's tearing inputs at seed 0; the solver's
        # start and DC iteration counts pin its path
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
            [2.869280126457463, 2.869280126457463, 0.948222379379291, 4.440892098500626e-16],
            rel=1e-12, abs=1e-15)
        assert len(energies) == 20
        assert sum(energies) == pytest.approx(123.22220056615055, rel=1e-12)
        assert None not in iterations
        assert (len(iterations), sum(iterations)) == (76, 109)

    def test_exponential_ladder_is_pinned(self, monkeypatch):
        # the same inputs with the exponential law, which enters the DC
        # iterations only through its slope
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
            [2.8689181386569462, 2.8692584492386755, 0.9482223793792883, 0.948222379379291],
            rel=1e-12)
        assert len(energies) == 20
        assert sum(energies) == pytest.approx(94.87509051200715, rel=1e-12)
        assert None not in iterations
        assert (len(iterations), sum(iterations)) == (76, 268)

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
