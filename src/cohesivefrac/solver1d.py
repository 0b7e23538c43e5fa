"""Global minimization of the incremental cohesive energy on a bar.

Two routes are provided and kept deliberately independent:

* The structured step exploits structure.  With constant slope being
  bulk-optimal for any prescribed total jump (Jensen, ``f`` convex), the
  energy reduces to a competition between the elastic residual
  ``bulk_weight * L * f((Delta - T)/L)`` and the cohesive cost of
  distributing the total jump ``T``.  Concavity of ``phi`` with
  ``phi(0) = 0`` makes the surface cost subadditive, so a minimizer never
  opens more than one fresh site, reopens memory sites for free up to
  their recorded opening, and concentrates any excess beyond the total
  free capacity at a single site.  Concavity also makes the increment
  ``phi(p + e) - phi(p)`` nonincreasing in the memory ``p``, so at every
  excess ``e`` the site of largest memory is never beaten as the owner:
  a step prices that one branch, a 1d problem solved exactly, whose
  minimum lies at an end of its interval or at a closed-form local
  minimum of a smooth piece, with the float forms of the laws (which
  serve this kernel alone): a Dugdale step makes no numpy call.  A step
  is therefore a function of the bar length, the signed datum
  difference and the memory vector over the jump sites, and returns one
  slope and one oriented jump per site: :func:`_cohesive_path` runs a
  whole program of them on floats.  The brittle problem needs no step
  solve: its whole path has a closed form, :func:`_griffith_path`, on
  arrays.  :func:`cohesivefrac.evolution.evolve` runs both.

* :func:`brute_force_minimize` quantizes jump vectors over the active
  sites and enumerates them exhaustively.  It knows nothing about the
  branch structure above and is the oracle the tests certify it against.

Ties go to the smaller total jump: the refill wins over any excess
within ``TIE_TOL``.  The excess goes to the site of largest memory, the
leftmost of those when several tie, and the leftmost site when there is
no memory.
"""

from __future__ import annotations

import math

import numpy as np

from cohesivefrac.bar1d import (
    CrackState,
    Displacement1D,
    Domain1D,
    make_displacement,
)
from cohesivefrac.laws import RescaledLaws

__all__ = [
    "BudgetError",
    "brute_force_minimize",
]

TIE_TOL = 1e-12
# most sites the brute-force oracle enumerates at once
MAX_ACTIVE_SITES = 3


class BudgetError(RuntimeError):
    """The requested brute-force enumeration exceeds the search budget."""


def _excess_rule(laws: RescaledLaws, L: float):
    """The branch price of an owner with the laws bound once: ``excess(c, p)``.

    ``excess(c, p)`` is the excess ``e`` in ``[0, c]`` that minimizes the
    branch ``bw*L*f((c - e)/L) + sw*(phi(p + e) - phi(p))`` of an owner
    with memory ``p``, where ``c`` is the datum difference left over once
    every memory site is refilled.  Below ``c - L*threshold`` the bulk is
    affine and the branch concave, so it has no interior minimum there;
    above, the bulk is ``(bw/L)*(c - e)**2`` and the candidate is the
    local minimum from the law's ``_stationary``, if it lies inside
    ``(0, c)``.  The bulk threshold is a C1 join and the Dugdale
    saturation a concave kink, so neither holds a minimum that is not
    already a candidate: the ends and the local minimum suffice.  Every
    candidate is priced on floats.  ``e = 0``, the plain refill, wins
    whenever it is within ``TIE_TOL`` of the minimum; other ties go to
    the smaller excess.
    """
    phi, bulk_value, bw, sw = laws.phi, laws.bulk._value, laws.bulk_weight, laws.surface_weight
    phi_value, phi_slope, stationary, a = phi._value, phi._slope, phi._stationary, phi.a
    bw_L, kappa = bw * L, bw / L

    def excess(c: float, p: float) -> float:
        base = phi_value(p)
        inner = stationary(kappa, c, sw * phi_slope(p) / a)
        # one term vanishes exactly at each end: the refill adds no
        # surface and the whole excess leaves no bulk
        refill = bw_L * bulk_value(c / L)
        # the lowest energy, then the smaller excess
        low, e = min((refill, 0.0), (sw * (phi_value(p + c) - base), c))
        if 0.0 < inner < c:
            priced = bw_L * bulk_value((c - inner) / L) + sw * (phi_value(p + inner) - base)
            low, e = min((low, e), (priced, inner))
        return 0.0 if refill <= low + TIE_TOL else e

    return excess


def _cohesive_path(laws: RescaledLaws, L: float, deltas, psi: list) -> tuple:
    """A whole cohesive program on floats: ``(slopes, oriented jumps, memory)``.

    ``deltas`` are the signed datum differences of the steps and ``psi``
    the opening memory per jump site before the first one, in site order;
    each step gives a slope, a row of jumps and the memory after it.  A
    step refills the memory leftmost-first up to ``min(sum psi, |delta|)``;
    past the free capacity the whole excess goes to the owner, the site
    of largest memory (the leftmost of those, the leftmost site when
    there is no memory), at the minimum of :func:`_excess_rule`.  The
    jumps carry the sign of the datum.  A refill opens no site past its
    memory, so only the owner's memory can rise: the owner is found once,
    the jumps are collected in one flat list, and the memory is the
    initial row on every step with the owner's column filled in.
    """
    excess_at = _excess_rule(laws, L)
    deltas = np.asarray(deltas, dtype=float)
    n = len(psi)
    memory = np.tile(np.asarray(psi, dtype=float), (deltas.size, 1))
    psi = list(psi)
    owner = max(range(n), key=psi.__getitem__)
    psi_total = sum(psi)
    totals, flat, owned = [], [], []
    for D in np.abs(deltas).tolist():
        # reopening up to the memory costs no surface and lowers the bulk
        total_jump = left = min(psi_total, D)
        jumps = [0.0] * n
        for k, p in enumerate(psi):
            if left <= 0.0:
                break
            take = min(p, left)
            if take > 0.0:
                jumps[k] = take
                left -= take
        if D > psi_total:
            excess = excess_at(D - psi_total, psi[owner])
            jumps[owner] += excess
            total_jump += excess
            if jumps[owner] > psi[owner]:
                psi[owner] = jumps[owner]
                psi_total = sum(psi)
        totals.append(total_jump)
        flat += jumps
        owned.append(psi[owner])
    sigma = np.where(deltas < 0.0, -1.0, 1.0)
    # psi_total + excess may round above D; the slope keeps the datum's sign
    slopes = sigma * np.maximum(np.abs(deltas) - totals, 0.0) / L
    jumps = np.array(flat).reshape(deltas.size, n)
    jumps = np.where(jumps != 0.0, sigma[:, None] * jumps, 0.0)
    memory[:, owner] = owned
    return slopes, jumps, memory


def _griffith_path(laws: RescaledLaws, L: float, deltas, psi: list) -> tuple:
    """A whole brittle program in closed form: ``(slopes, oriented jumps)``.

    ``deltas`` are the signed datum differences of the steps and ``psi``
    the opening memory per jump site before the first one; the result is
    one slope per step and one row of jumps per step, over the sites.
    Unit cost per fresh site, free reopening: the leftmost cracked site
    (``psi > 0``) absorbs every datum at zero cost.  With no crack the
    state is elastic as long as ``bw*delta**2/L <= sw + TIE_TOL`` (ties
    prefer the elastic state); from the first step past that the
    leftmost site is cracked and takes every datum.  A zero datum gives
    an unsigned zero step.
    """
    deltas = np.asarray(deltas, dtype=float)
    steps = np.where(deltas == 0.0, 0.0, deltas)
    site = next((k for k, p in enumerate(psi) if p > 0.0), None)
    first = 0
    if site is None:
        site = 0
        breaks = np.flatnonzero(laws.bulk_weight * deltas**2 / L > laws.surface_weight + TIE_TOL)
        first = int(breaks[0]) if breaks.size else deltas.size
    slopes = steps / L
    slopes[first:] = 0.0
    jumps = np.zeros((deltas.size, len(psi)))
    jumps[first:, site] = steps[first:]
    return slopes, jumps


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
    n_fresh: int = 1,
    budget: int = 40_000_000,
) -> Displacement1D:
    """Exhaustive minimum over quantized jump vectors at the active sites.

    Active sites are all memory sites plus the ``n_fresh`` leftmost fresh
    candidates, at most ``MAX_ACTIVE_SITES`` of them.  Each site's candidate openings form a signed uniform grid
    enriched with the exact memory and saturation openings, ordered by
    magnitude so that ties resolve toward smaller jumps.  Slopes are the
    bulk-optimal constant for each candidate vector.
    """
    if jump_grid_step < 1e-5:
        raise BudgetError(f"grid step {jump_grid_step} below the supported budget")
    delta = float(g[1]) - float(g[0])
    mem = sorted(crack.psi.items())
    fresh_sites = [s for s in domain.jump_sites() if s not in crack.psi][:n_fresh]
    sites = [s for s, _ in mem] + fresh_sites
    if len(sites) > MAX_ACTIVE_SITES:
        raise BudgetError(
            f"{len(sites)} active sites exceed the limit of {MAX_ACTIVE_SITES}"
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
    return make_displacement(domain, (float(g[0]), float(g[1])), slope, oriented)

