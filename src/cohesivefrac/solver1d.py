"""Global minimization of the incremental cohesive energy on a bar.

Two routes are provided and kept deliberately independent:

* :func:`incremental_minimize` exploits structure.  With constant slope
  being bulk-optimal for any prescribed total jump (Jensen, ``f`` convex),
  the energy reduces to a competition between the elastic residual
  ``bulk_weight * L * f((Delta - T)/L)`` and the cohesive cost of
  distributing the total jump ``T``.  Concavity of ``phi`` with
  ``phi(0) = 0`` makes the surface cost subadditive, so a minimizer never
  opens more than one fresh site, reopens memory sites for free up to
  their recorded opening, and concentrates any excess beyond the total
  free capacity at a single site.  Each surviving branch is a 1d problem
  solved exactly: its minimum lies at an end of its interval or at a
  closed-form stationary point of a smooth piece.

* :func:`brute_force_minimize` quantizes jump vectors over the active
  sites and enumerates them exhaustively.  It knows nothing about the
  branch structure above and is the certification oracle for it.

Ties are broken toward the smaller total jump, then the leftmost site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cohesivefrac.bar1d import (
    LEFT,
    RIGHT,
    CrackState,
    Displacement1D,
    Domain1D,
    make_displacement,
    total_energy,
)
from cohesivefrac.laws import RescaledLaws

__all__ = [
    "SolverConfig",
    "NonconvergenceError",
    "BudgetError",
    "incremental_minimize",
    "brute_force_minimize",
    "griffith_minimize",
    "certify_minimality",
]


class NonconvergenceError(RuntimeError):
    """The oracle beat the structured solver beyond the certification tolerance."""

    def __init__(self, structured_energy: float, oracle_energy: float):
        self.structured_energy = structured_energy
        self.oracle_energy = oracle_energy
        super().__init__(
            f"structured minimum {structured_energy!r} exceeds "
            f"oracle minimum {oracle_energy!r}"
        )


class BudgetError(RuntimeError):
    """The requested brute-force enumeration exceeds the search budget."""


@dataclass(frozen=True)
class SolverConfig:
    tie_tol: float = 1e-12
    certify: bool = False
    certification_tol: float = 1e-9
    oracle_grid_step: float = 1e-3
    oracle_max_sites: int = 3
    oracle_budget: int = 40_000_000


DEFAULT_CONFIG = SolverConfig()


def _delta(domain: Domain1D, g) -> float | None:
    """Net datum difference when both ends are Dirichlet, else None."""
    if LEFT in domain.dirichlet and RIGHT in domain.dirichlet:
        return float(g[1]) - float(g[0])
    return None


def _trivial_state(domain: Domain1D) -> Displacement1D:
    return Displacement1D(np.zeros(domain.n_elements))


@dataclass(frozen=True)
class _Branch:
    energy: float
    total_jump: float
    site_order: float
    oriented: dict


def _memory_fill(sites_psi, amount: float) -> dict:
    """Fill free capacity leftmost-first until ``amount`` is exhausted."""
    fill = {}
    left = amount
    for site, psi in sites_psi:
        if left <= 0.0:
            break
        take = min(psi, left)
        if take > 0.0:
            fill[site] = take
            left -= take
    return fill


def incremental_minimize(
    domain: Domain1D,
    crack: CrackState,
    g,
    laws: RescaledLaws,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> Displacement1D:
    """Minimize the one-step cohesive energy over slopes and jump sites.

    The returned displacement carries a constant slope and jumps only at
    memory sites plus at most one fresh site.  With ``cfg.certify`` the
    brute-force oracle is run on the same instance and a
    :class:`NonconvergenceError` is raised if it wins by more than
    ``cfg.certification_tol``.
    """
    delta = _delta(domain, g)
    if delta is None or delta == 0.0:
        u = _trivial_state(domain)
    else:
        u = _structured_minimize(domain, crack, g, delta, laws, cfg)
    if cfg.certify:
        certify_minimality(u, domain, crack, g, laws, cfg)
    return u


def _excess_minima(laws, L, c, shifts):
    """Exact minima of the excess branches, one per memory ``p`` in ``shifts``.

    Branch ``p`` minimizes ``bw*L*f((c - e)/L) + sw*(phi(p + e) - phi(p))``
    over the excess ``e`` in ``[0, c]``, where ``c`` is the datum
    difference left over once every memory site is refilled.  Below
    ``c - L*threshold`` the bulk is affine and the branch concave, so it
    has no interior minimum there; above, the bulk is ``(bw/L)*(c - e)**2``
    and the candidates are the stationary points of
    :meth:`CohesiveLaw.stationary_points`.  The bulk threshold is a C1
    join and the Dugdale saturation a concave kink, so neither holds a
    minimum that is not already a candidate: the ends and the stationary
    points suffice.  All candidates are evaluated at once; ties go to
    the smaller excess.  Returns ``(e, energy)``.
    """
    phi, sw = laws.phi, laws.surface_weight
    weights = sw * phi.deriv(shifts) / phi.a
    stationary = phi.stationary_points(laws.bulk_weight / L, c, weights)
    # one column of candidates per branch
    e = np.vstack([np.zeros(shifts.size), np.full(shifts.size, c), stationary])
    # fmin maps a point that is not real (NaN) to the right end
    e = np.sort(np.maximum(np.fmin(e, c), 0.0), axis=0)
    energy = laws.bulk_weight * L * laws.bulk((c - e) / L) + sw * (phi(shifts + e) - phi(shifts))
    best = np.argmin(energy, axis=0)
    pick = np.arange(shifts.size)
    return e[best, pick], energy[best, pick]


def _structured_minimize(domain, crack, g, delta, laws, cfg) -> Displacement1D:
    L = domain.length
    bw, sw = laws.bulk_weight, laws.surface_weight
    sigma = 1.0 if delta > 0.0 else -1.0
    D = abs(delta)
    mem = sorted(crack.psi.items())
    psi_total = sum(p for _, p in mem)
    sunk = sw * float(np.sum(laws.phi([p for _, p in mem]))) if mem else 0.0

    branches: list[_Branch] = []

    # within free capacity: opening is surface-free, bulk decreases in T
    t_a = min(psi_total, D)
    branches.append(
        _Branch(
            energy=bw * L * laws.bulk((D - t_a) / L) + sunk,
            total_jump=t_a,
            site_order=-1.0,
            oriented=_memory_fill(mem, t_a),
        )
    )

    excess_cap = D - psi_total
    if excess_cap > 0.0:
        # exceed one memory site beyond its recorded opening, or open the
        # leftmost fresh site (a memory of 0)
        fresh = next((s for s in domain.jump_sites() if s not in crack.psi), None)
        owners = mem + ([(fresh, 0.0)] if fresh is not None else [])
        if owners:
            shifts = np.array([p for _, p in owners])
            excess, energy = _excess_minima(laws, L, excess_cap, shifts)
            for (site, _), e_star, v in zip(owners, excess.tolist(), energy.tolist()):
                oriented = _memory_fill(mem, psi_total)
                oriented[site] = oriented.get(site, 0.0) + e_star
                branches.append(
                    _Branch(
                        energy=v + sunk,
                        total_jump=psi_total + e_star,
                        site_order=float(site),
                        oriented=oriented,
                    )
                )

    best = min(branches, key=lambda b: b.energy)
    tied = [b for b in branches if b.energy <= best.energy + cfg.tie_tol]
    chosen = min(tied, key=lambda b: (b.total_jump, b.site_order))

    slope = sigma * (D - chosen.total_jump) / L
    oriented = {s: sigma * v for s, v in chosen.oriented.items() if v != 0.0}
    return make_displacement(
        domain, (float(g[0]), float(g[1])), np.full(domain.n_elements, slope), oriented
    )


def griffith_minimize(
    domain: Domain1D,
    crack_sites,
    g,
    laws: RescaledLaws,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> Displacement1D:
    """One-step brittle minimization: unit cost per fresh site, free reopening.

    With any existing crack site the datum difference is absorbed there at
    zero cost.  Otherwise the elastic state competes with a single fully
    opened fresh site; ties prefer the elastic state.
    """
    delta = _delta(domain, g)
    if delta is None or delta == 0.0:
        return _trivial_state(domain)
    pair = (float(g[0]), float(g[1]))
    existing = sorted(set(crack_sites))
    if existing:
        return make_displacement(
            domain, pair, np.zeros(domain.n_elements), {existing[0]: delta}
        )
    bw, sw = laws.bulk_weight, laws.surface_weight
    elastic_energy = bw * delta**2 / domain.length
    if elastic_energy <= sw * 1.0 + cfg.tie_tol:
        return make_displacement(
            domain, pair, np.full(domain.n_elements, delta / domain.length), {}
        )
    fresh = domain.jump_sites()[0]
    return make_displacement(domain, pair, np.zeros(domain.n_elements), {fresh: delta})


def _candidate_values(limit: float, step: float, specials) -> np.ndarray:
    """Symmetric quantized openings ordered by |J| (zero first)."""
    n = int(math.floor(limit / step))
    base = step * np.arange(1, n + 1)
    extra = np.asarray([s for s in specials if 0.0 < s <= limit], dtype=float)
    mags = np.unique(np.concatenate([base, extra])) if extra.size else base
    out = np.empty(2 * mags.size + 1)
    out[0] = 0.0
    out[1::2] = mags
    out[2::2] = -mags
    return out


def brute_force_minimize(
    domain: Domain1D,
    crack: CrackState,
    g,
    laws: RescaledLaws,
    jump_grid_step: float = 1e-3,
    max_active_sites: int = 3,
    n_fresh: int = 1,
    budget: int = 40_000_000,
) -> Displacement1D:
    """Exhaustive minimum over quantized jump vectors at the active sites.

    Active sites are all memory sites plus the ``n_fresh`` leftmost fresh
    candidates.  Each site's candidate openings form a signed uniform grid
    enriched with the exact memory and saturation openings, ordered by
    magnitude so that ties resolve toward smaller jumps.  Slopes are the
    bulk-optimal constant for each candidate vector.
    """
    if jump_grid_step < 1e-5:
        raise BudgetError(f"grid step {jump_grid_step} below the supported budget")
    delta = _delta(domain, g)
    if delta is None:
        return _trivial_state(domain)

    mem = sorted(crack.psi.items())
    fresh_sites = [s for s in domain.jump_sites() if s not in crack.psi][:n_fresh]
    sites = [s for s, _ in mem] + fresh_sites
    if len(sites) > max_active_sites:
        raise BudgetError(
            f"{len(sites)} active sites exceed the limit of {max_active_sites}"
        )

    L = domain.length
    bw, sw = laws.bulk_weight, laws.surface_weight
    gmax = max(abs(float(g[0])), abs(float(g[1])))
    limit = 2.0 * gmax + jump_grid_step
    sat = laws.phi.saturation_opening
    specials = [p for _, p in mem] + ([sat] if sat is not None else []) + [abs(delta)]

    cand = [_candidate_values(limit, jump_grid_step, specials) for _ in sites]
    points = math.prod(c.size for c in cand)
    if points > budget:
        raise BudgetError(f"{points} candidate vectors exceed budget {budget}")

    psi = {s: crack.psi.get(s, 0.0) for s in sites}
    costs = [sw * laws.phi(np.maximum(np.abs(c), psi[s])) for s, c in zip(sites, cand)]

    best_val = math.inf
    best_vec: tuple = ()
    if not sites:
        best_val = bw * L * float(laws.bulk(delta / L))
        best_vec = ()
    elif len(sites) == 1:
        tot = cand[0]
        vals = bw * L * laws.bulk((delta - tot) / L) + costs[0]
        i = int(np.argmin(vals))
        best_val, best_vec = float(vals[i]), (float(cand[0][i]),)
    else:
        rest_sum = cand[1][None, :] if len(sites) == 2 else (
            cand[1][:, None] + cand[2][None, :]
        )
        rest_cost = costs[1][None, :] if len(sites) == 2 else (
            costs[1][:, None] + costs[2][None, :]
        )
        for i0, j0 in enumerate(cand[0]):
            tot = j0 + rest_sum
            vals = bw * L * laws.bulk((delta - tot) / L) + (costs[0][i0] + rest_cost)
            flat = int(np.argmin(vals))
            v = float(vals.flat[flat])
            if v < best_val:
                idx = np.unravel_index(flat, vals.shape)
                rest = (
                    (float(cand[1][idx[-1]]),)
                    if len(sites) == 2
                    else (float(cand[1][idx[0]]), float(cand[2][idx[1]]))
                )
                best_val, best_vec = v, (float(j0),) + rest

    oriented = {s: v for s, v in zip(sites, best_vec) if v != 0.0}
    slope = (delta - sum(oriented.values())) / L
    return make_displacement(
        domain, (float(g[0]), float(g[1])), np.full(domain.n_elements, slope), oriented
    )


def certify_minimality(
    u: Displacement1D,
    domain: Domain1D,
    crack: CrackState,
    g,
    laws: RescaledLaws,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> tuple[float, float]:
    """Compare a candidate state against the brute-force oracle.

    Returns ``(candidate_energy, oracle_energy)``; raises
    :class:`NonconvergenceError` when the oracle wins by more than the
    certification tolerance.
    """
    e_struct = total_energy(u, crack, g, laws, domain).total
    v = brute_force_minimize(
        domain,
        crack,
        g,
        laws,
        jump_grid_step=cfg.oracle_grid_step,
        max_active_sites=cfg.oracle_max_sites,
        budget=cfg.oracle_budget,
    )
    e_oracle = total_energy(v, crack, g, laws, domain).total
    if e_struct > e_oracle + cfg.certification_tol:
        raise NonconvergenceError(e_struct, e_oracle)
    return e_struct, e_oracle
