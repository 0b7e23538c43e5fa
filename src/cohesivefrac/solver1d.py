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
  minimum of a smooth piece, with the float forms of the laws.  A step
  is therefore a function of the bar length, the signed datum
  difference and the memory vector over the jump sites, and returns one
  slope and one oriented jump per site: :func:`_cohesive_path` runs a
  whole program of them.  It takes the program in runs, blocks of
  steps in which the rule cannot read a memory that changes, each
  priced by a few array passes: fixed-memory runs (refills within the
  memory, and steps that leave it as it is) and saturated-owner runs,
  once the owner's memory saturates the law on its float forms
  (``phi = 1`` with a zero slope), past which the rule is "the whole
  excess, or nothing".  Each pass does, element by element, the IEEE
  operations of the float rule and checks the memory it assumed, so
  its results are bit for bit those of the float loop, which takes
  every other step.  The brittle problem needs no step solve: its
  whole path has a closed form, :func:`_griffith_path`, on arrays.
  :func:`cohesivefrac.evolution.evolve` runs both.

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
from cohesivefrac.laws import LawKind, RescaledLaws

__all__ = [
    "BudgetError",
    "brute_force_minimize",
]

TIE_TOL = 1e-12
# most sites the brute-force oracle enumerates at once
MAX_ACTIVE_SITES = 3
# most steps one array pass of the cohesive path prices
_RUN_STEPS = 512
# fewest steps a pass must keep to pay for its numpy calls; after the
# second, third, ... such pass in a row the float loop takes 1, 3, 7, ...
# steps before the next pass
_RUN_MIN = 16


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


def _excess_run(laws: RescaledLaws, L: float):
    """:func:`_excess_rule` over an array of ``c`` at one memory ``p``, or None.

    Element by element it does the IEEE operations of the float rule, on
    the laws' array forms (``phi._values`` and ``bulk.__call__``), with
    its tie rules: the lexicographic ``min`` over ``(energy, excess)``
    and the final ``refill <= low + TIE_TOL``.  The Dugdale stationary
    point is affine in ``c`` and takes the array as it is; the
    exponential one (``W_0`` on floats) does not vectorize, and that law
    gets None.
    """
    phi, bulk, bw, sw = laws.phi, laws.bulk, laws.bulk_weight, laws.surface_weight
    if phi.kind is not LawKind.DUGDALE:
        return None
    bw_L, kappa = bw * L, bw / L

    def excess(c: np.ndarray, p: float) -> np.ndarray:
        base = phi._value(p)
        inner = phi._stationary(kappa, c, sw * phi._slope(p) / phi.a)
        refill = bw_L * bulk(c / L)
        whole = sw * (phi._values(p + c) - base)
        # (whole, c) < (refill, 0.0) only if whole < refill: c > 0
        lower = whole < refill
        low, e = np.where(lower, whole, refill), np.where(lower, c, 0.0)
        priced = bw_L * bulk((c - inner) / L) + sw * (phi._values(p + inner) - base)
        lower = (0.0 < inner) & (inner < c) & np.where(priced == low, inner < e, priced < low)
        low, e = np.where(lower, priced, low), np.where(lower, inner, e)
        return np.where(refill <= low + TIE_TOL, 0.0, e)

    return excess


def _site_sum(values):
    """``values`` added left to right from ``0.0``, floats and arrays alike.

    The builtin ``sum`` compensates float rounding from Python 3.12 on;
    the free capacity is the plain float sum in site order.
    """
    total = 0.0
    for v in values:
        total = total + v
    return total


def _path_run(laws: RescaledLaws, L: float, excess_run, D: np.ndarray, psi: list,
              owner: int, psi_total: float) -> tuple:
    """The steps of data ``D`` that one array pass prices exactly, from the memory ``psi``.

    Returns their totals, jump rows and owner memories after each, up to
    the first step whose memory after misses the pass's guess (see
    :func:`_cohesive_path`).  ``psi_total`` is ``_site_sum(psi)`` and
    ``excess_run`` is :func:`_excess_run`'s rule.
    """
    phi = laws.phi
    x = psi[owner]
    saturated = phi._value(x) == 1.0 and phi._slope(x) == 0.0
    if saturated:
        guess = np.maximum.accumulate(np.maximum(D - (psi_total - x), x))
        before = np.concatenate(([x], guess[:-1]))
    else:
        guess = before = x
        if excess_run is None:
            # refills only: the run ends at the first datum past the memory
            beyond = np.flatnonzero(D > psi_total)
            if beyond.size:
                D = D[:beyond[0]]
                if not D.size:
                    return D, np.empty((0, len(psi))), D
    cols = [before if k == owner else p for k, p in enumerate(psi)]
    S = _site_sum(cols)
    total = left = np.minimum(S, D)
    rows = np.zeros((D.size, len(psi)))
    for k, p in enumerate(cols):
        if k != owner and p == 0.0:
            continue
        take = np.minimum(p, left)
        opened = take > 0.0
        rows[:, k] = np.where(opened, take, 0.0)
        left = np.where(opened, left - take, left)
    over, c = D > S, D - S
    if saturated:
        e = np.where(laws.bulk_weight * L * laws.bulk(c / L) > TIE_TOL, c, 0.0)
    elif excess_run is not None:
        e = excess_run(c, x)
    else:
        e = 0.0
    e = np.where(over, e, 0.0)
    rows[:, owner] += e
    after = np.maximum(rows[:, owner], before)
    kept = after == guess
    k = D.size if kept.all() else int(np.argmin(kept))
    return (total + e)[:k], rows[:k], after[:k]


def _cohesive_path(laws: RescaledLaws, L: float, deltas, psi: list) -> tuple:
    """A whole cohesive program: ``(slopes, oriented jumps, memory)``.

    ``deltas`` are the signed datum differences of the steps and ``psi``
    the opening memory per jump site before the first one, in site order;
    each step gives a slope, a row of jumps and the memory after it.  A
    step refills the memory leftmost-first up to ``min(sum psi, |delta|)``;
    past the free capacity the whole excess goes to the owner, the site
    of largest memory (the leftmost of those, the leftmost site when
    there is no memory), at the minimum of :func:`_excess_rule`.  The
    jumps carry the sign of the datum.  A refill opens no site past its
    memory, so only the owner's memory can rise: the owner is found once,
    and the memory is the initial row on every step with the owner's
    column filled in.

    The program goes in runs: blocks of steps that one array pass prices
    exactly, each pass guessing the owner's memory after every step of
    its block.  A fixed-memory run guesses no change: refills within the
    memory and steps whose excess leaves the memory as it is, priced by
    :func:`_excess_run` (for the exponential law, whose rule does not
    vectorize, refills only).  A saturated-owner run starts once
    ``phi._value(p) == 1`` and ``phi._slope(p) == 0`` on the owner's
    memory ``p`` (judged on the float forms: with ``a = 49``,
    ``a * (1/a)`` rounds below 1).  Then ``phi`` is flat past ``p``, the
    stationary point is the whole excess ``c``, and the rule is ``c`` if
    ``bw*L*f(c/L) > TIE_TOL``, else 0, whatever ``p`` is; the guess is
    the running maximum of each datum less the other sites' memory.  A
    pass prices step ``k`` with the guess after step ``k - 1`` as its
    memory, so its steps are exact up to the first one whose memory
    after misses the guess; the pass keeps those, and that step goes
    through the float loop, as does every step between runs.  A pass
    does the float loop's IEEE operations element by element, so the
    results are bit for bit those of the float loop alone.  Passes that
    keep few steps back off (see ``_RUN_MIN``): where the memory rises on
    most steps, few passes are tried.
    """
    excess_at = _excess_rule(laws, L)
    excess_run = _excess_run(laws, L)
    deltas = np.asarray(deltas, dtype=float)
    data = np.abs(deltas)
    m, n = deltas.size, len(psi)
    initial = np.asarray(psi, dtype=float)
    psi = list(psi)
    owner = max(range(n), key=psi.__getitem__)
    psi_total = _site_sum(psi)
    totals, jumps, owned = np.empty(m), np.zeros((m, n)), np.empty(m)

    i = wait = 0
    # a masked-out branch of an array pass may overflow; no kept value does
    with np.errstate(over="ignore", invalid="ignore"):
        while i < m:
            stop = min(m, i + _RUN_STEPS)
            run_totals, run_jumps, run_owned = _path_run(laws, L, excess_run, data[i:stop],
                                                         psi, owner, psi_total)
            kept = run_owned.size
            if kept and run_owned[-1] != psi[owner]:
                psi[owner] = float(run_owned[-1])
                psi_total = _site_sum(psi)
            totals[i:i + kept] = run_totals
            jumps[i:i + kept] = run_jumps
            owned[i:i + kept] = run_owned
            i += kept
            if i == stop:
                wait = 0
                continue
            if kept >= _RUN_MIN:
                idle = wait = 0
            else:
                idle, wait = wait, min(2 * wait + 1, _RUN_STEPS)
            # the step that ended the run, and ``idle`` more, on floats
            end = min(m, i + 1 + idle)
            step_totals, step_jumps, step_owned = [], [], []
            for D in data[i:end].tolist():
                # reopening up to the memory costs no surface and lowers the bulk
                total_jump = left = min(psi_total, D)
                row = [0.0] * n
                for k, p in enumerate(psi):
                    if left <= 0.0:
                        break
                    take = min(p, left)
                    if take > 0.0:
                        row[k] = take
                        left -= take
                if D > psi_total:
                    excess = excess_at(D - psi_total, psi[owner])
                    row[owner] += excess
                    total_jump += excess
                    if row[owner] > psi[owner]:
                        psi[owner] = row[owner]
                        psi_total = _site_sum(psi)
                step_totals.append(total_jump)
                step_jumps += row
                step_owned.append(psi[owner])
            totals[i:end] = step_totals
            jumps[i:end] = np.reshape(step_jumps, (end - i, n))
            owned[i:end] = step_owned
            i = end
    sigma = np.where(deltas < 0.0, -1.0, 1.0)
    # psi_total + excess may round above D; the slope keeps the datum's sign
    slopes = sigma * np.maximum(data - totals, 0.0) / L
    np.multiply(jumps, sigma[:, None], out=jumps, where=jumps != 0.0)
    memory = np.tile(initial, (m, 1))
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

