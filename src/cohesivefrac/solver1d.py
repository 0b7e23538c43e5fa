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
  slope and one oriented jump per site: :func:`_cohesive_step` works on
  those floats alone.  The brittle problem needs no step solve: its
  whole path over a program has a closed form, :func:`_griffith_path`,
  on arrays.  :func:`incremental_minimize` and :func:`griffith_minimize`
  wrap one step of each in displacement objects for library callers.

* :func:`brute_force_minimize` quantizes jump vectors over the active
  sites and enumerates them exhaustively.  It knows nothing about the
  branch structure above and is the certification oracle for it.

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
    total_energy,
)
from cohesivefrac.laws import RescaledLaws

__all__ = [
    "NonconvergenceError",
    "BudgetError",
    "incremental_minimize",
    "brute_force_minimize",
    "griffith_minimize",
    "certify_minimality",
]

TIE_TOL = 1e-12
# how far the structured energy may sit above the oracle's
CERTIFICATION_TOL = 1e-9
# most sites the brute-force oracle enumerates at once
MAX_ACTIVE_SITES = 3


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


def _excess_minimum(laws, L, c, p):
    """The excess at the exact minimum of the branch of an owner with memory ``p``.

    The branch minimizes ``bw*L*f((c - e)/L) + sw*(phi(p + e) - phi(p))``
    over the excess ``e`` in ``[0, c]``, where ``c`` is the datum
    difference left over once every memory site is refilled.  Below
    ``c - L*threshold`` the bulk is affine and the branch concave, so it
    has no interior minimum there; above, the bulk is ``(bw/L)*(c - e)**2``
    and the candidate is the local minimum from the law's
    ``_stationary``, if it lies inside ``(0, c)``.  The
    bulk threshold is a C1 join and the Dugdale saturation a concave
    kink, so neither holds a minimum that is not already a candidate: the
    ends and the local minimum suffice.  Every candidate is priced on floats.
    ``e = 0``, the plain refill, wins whenever it is within ``TIE_TOL`` of
    the minimum; other ties go to the smaller excess.
    """
    phi, bulk, bw, sw = laws.phi, laws.bulk, laws.bulk_weight, laws.surface_weight
    base = phi._value(p)
    inner = phi._stationary(bw / L, c, sw * phi._slope(p) / phi.a)
    excess = [0.0, c, inner] if 0.0 < inner < c else [0.0, c]
    energy = [bw * L * bulk._value((c - e) / L) + sw * (phi._value(p + e) - base)
              for e in excess]
    # the lowest energy, then the smaller excess
    low, e = min(zip(energy, excess))
    return 0.0 if energy[0] <= low + TIE_TOL else e


def _memory_refill(psi: list, amount: float) -> list:
    """Openings that refill free memory leftmost-first until ``amount`` is used."""
    jumps = [0.0] * len(psi)
    left = amount
    for k, p in enumerate(psi):
        if left <= 0.0:
            break
        take = min(p, left)
        if take > 0.0:
            jumps[k] = take
            left -= take
    return jumps


def _cohesive_step(laws: RescaledLaws, L: float, delta: float, psi: list) -> tuple:
    """One cohesive step on floats: ``(slope, oriented jumps, memory after)``.

    ``psi`` is the opening memory per jump site, in site order, and
    ``delta`` the signed datum difference.  The memory refills
    leftmost-first up to ``min(sum psi, |delta|)``; past the free
    capacity the whole excess goes to the owner, the site of largest
    memory (the leftmost of those, the leftmost site when there is no
    memory).  The jumps carry the sign of ``delta``.  A refill opens no
    site past its memory, so only the owner's memory can rise: the
    memory after the step is ``psi`` itself, or a copy with the owner's
    entry raised to its opening.
    """
    if delta == 0.0:
        return 0.0, [0.0] * len(psi), psi
    sigma = 1.0 if delta > 0.0 else -1.0
    D = abs(delta)
    psi_total = sum(psi)
    # reopening up to the memory costs no surface and lowers the bulk
    total_jump = min(psi_total, D)
    jumps = _memory_refill(psi, total_jump)
    memory = psi
    if D > psi_total:
        owner = max(range(len(psi)), key=psi.__getitem__)
        excess = _excess_minimum(laws, L, D - psi_total, psi[owner])
        jumps[owner] += excess
        total_jump += excess
        memory = list(psi)
        memory[owner] = max(psi[owner], jumps[owner])
    # psi_total + excess may round above D; the slope keeps the datum's sign
    slope = sigma * max(D - total_jump, 0.0) / L
    return slope, [sigma * j if j != 0.0 else 0.0 for j in jumps], memory


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


def _displacement(domain: Domain1D, g, slope: float, jumps) -> Displacement1D:
    oriented = {s: j for s, j in zip(domain.jump_sites(), jumps) if j != 0.0}
    return make_displacement(domain, g, slope, oriented)


def incremental_minimize(
    domain: Domain1D, crack: CrackState, g, laws: RescaledLaws
) -> Displacement1D:
    """Minimize the one-step cohesive energy over the slope and jump sites.

    The returned displacement carries a constant slope and jumps only at
    memory sites plus at most one fresh site.
    """
    psi = [crack.value(s) for s in domain.jump_sites()]
    slope, jumps, _ = _cohesive_step(laws, domain.length, float(g[1]) - float(g[0]), psi)
    return _displacement(domain, g, slope, jumps)


def griffith_minimize(domain: Domain1D, crack_sites, g, laws: RescaledLaws) -> Displacement1D:
    """One-step brittle minimization: unit cost per fresh site, free reopening.

    With any existing crack site the datum difference is absorbed there at
    zero cost.  Otherwise the elastic state competes with a single fully
    opened fresh site; ties prefer the elastic state.
    """
    cracked = set(crack_sites)
    psi = [float(s in cracked) for s in domain.jump_sites()]
    slopes, jumps = _griffith_path(laws, domain.length, [float(g[1]) - float(g[0])], psi)
    return _displacement(domain, g, float(slopes[0]), jumps[0].tolist())


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


def certify_minimality(
    u: Displacement1D,
    domain: Domain1D,
    crack: CrackState,
    g,
    laws: RescaledLaws,
    jump_grid_step: float = 1e-3,
) -> tuple[float, float]:
    """Compare a candidate state against the brute-force oracle.

    Returns ``(candidate_energy, oracle_energy)``; raises
    :class:`NonconvergenceError` when the oracle, on a jump grid of step
    ``jump_grid_step``, wins by more than ``CERTIFICATION_TOL``.
    """
    e_struct = total_energy(u, crack, laws, domain).total
    v = brute_force_minimize(domain, crack, g, laws, jump_grid_step)
    e_oracle = total_energy(v, crack, laws, domain).total
    if e_struct > e_oracle + CERTIFICATION_TOL:
        raise NonconvergenceError(e_struct, e_oracle)
    return e_struct, e_oracle
