"""Planar tearing on the unit square with a straight cohesive interface.

The domain is (0,1)^2 meshed by ``n`` square cells per side (``n`` even),
and the only admissible jump set is the horizontal line ``y = 1/2``: the
node row there is duplicated into a bottom lip and a top lip, and each of
the ``n`` crack edges carries a signed jump and an irreversibility
memory ``psi >= 0``.  Dirichlet data acts on the whole top and bottom
edges; the default program is tearing, ``+t`` on top and ``-t`` below,
whose solutions are antisymmetric about the crack line.

The bulk quadrature is the five-point one: ``sum w * (u_p - u_q)^2``
over nearest-neighbour edges, with ``w = 1/2`` on edges lying in the
outer boundary rows/columns or in a lip row.  With every lip pair tied
the two half weights of the duplicated row recombine and the uncracked
grid is recovered exactly; the form is exact on affine fields.

Only the crack line can jump, so every solve reduces to the ``n + 1``
lip nodes.  A half-plate with its far edge clamped is diagonalized by
the DCT-I modes ``cos(k pi i / n)`` under the trapezoid weights: mode
``k`` decays from the lip as ``rho_k(j) = sinh(mu_k j) / sinh(mu_k m)``
(``m = n/2``, ``cosh mu_k = 1 + lam_k/2``, ``lam_k = 2 - 2 cos(k pi/n)``)
and has lip stiffness ``lam_k/2 + 1 - rho_k(m-1)``.  Summing the modes
gives the dense lip operator ``S`` of the half-plate (its Schur
complement onto the lip row), built once per ``n``.  The tearing data
are antisymmetric, so for nodal jumps ``J`` the lips sit at ``-J/2`` and
``+J/2`` and the bulk is ``2 q.S.q`` with ``q = t - J/2``: a tie
pattern costs one dense solve on the open lip nodes, prescribed jumps
cost none, and the field is rebuilt mode by mode from ``J``.

Three operations are exposed.  ``solve_elastic`` minimizes the quadratic
form with a prescribed set of open crack edges (a closed edge ties the
lip values at both its endpoints).  ``prefix_crack_sweep`` scans the
crack lengths ``l = k/n`` and returns the energy-optimal prefix, the
global check for monotone patterns.  ``alternate_minimize`` minimizes the
reduced lip energy ``2 bw q.S.q + w sum phi(opening v psi)`` over the
nodal jumps alone, by coordinate descent: each node update is exact (the
bulk is minimized out for every trial jump), so the energy trace is
nonincreasing, but the stationary point is a local statement and is not
certified global.  Fields are rebuilt only for the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from cohesivefrac.laws import RescaledLaws, rescale_laws

__all__ = [
    "Grid2D",
    "Field2D",
    "SweepResult",
    "AMResult",
    "TearingStep",
    "PlanarNumericError",
    "PlanarNonconvergence",
    "solve_elastic",
    "prefix_crack_sweep",
    "alternate_minimize",
    "evolve_tearing",
    "cellwise_bulk",
    "tearing_gap_ladder",
    "write_field",
]

RESIDUAL_TOL = 1e-10


class PlanarNumericError(RuntimeError):
    """Linear solve failed to reach the required residual."""


class PlanarNonconvergence(RuntimeError):
    """Alternate minimization hit ``max_iters``; carries the last energy."""

    def __init__(self, last_energy: float, iterations: int):
        super().__init__(
            f"alternate minimization not converged after {iterations} "
            f"iterations, last energy {last_energy:.12g}"
        )
        self.last_energy = last_energy
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Square grid with a duplicated crack row at ``y = 1/2``.

    ``n`` is the number of cells per side (even, at least 8) and ``psi``
    the per-crack-edge memory, one value for each of the ``n`` edges of
    the interface.
    """

    n: int
    psi: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError(f"need an even number of cells >= 8, got {self.n}")
        psi = np.zeros(self.n) if self.psi is None else np.asarray(self.psi, dtype=float)
        if psi.shape != (self.n,):
            raise ValueError(f"psi must have one entry per crack edge, got shape {psi.shape}")
        if np.any(psi < 0.0):
            raise ValueError("memory values must be nonnegative")
        object.__setattr__(self, "psi", psi)

    @property
    def spacing(self) -> float:
        return 1.0 / self.n


@dataclass(frozen=True, eq=False)
class Field2D:
    """Nodal values on the duplicated mesh, split at the crack row.

    ``lower`` has rows ``y = 0 .. 1/2`` (last row is the bottom lip) and
    ``upper`` rows ``y = 1/2 .. 1`` (first row is the top lip); both have
    shape ``(n/2 + 1, n + 1)``.
    """

    grid: Grid2D
    lower: np.ndarray
    upper: np.ndarray

    def nodal_jumps(self) -> np.ndarray:
        return self.upper[0] - self.lower[-1]

    def edge_bulk(self) -> float:
        """Five-point bulk of both blocks: half weights on the outer rows and columns."""
        total = 0.0
        for block in (self.lower, self.upper):
            dx = np.diff(block, axis=1) ** 2
            dy = np.diff(block, axis=0) ** 2
            total += dx[1:-1].sum() + 0.5 * (dx[0].sum() + dx[-1].sum())
            total += dy[:, 1:-1].sum() + 0.5 * (dy[:, 0].sum() + dy[:, -1].sum())
        return float(total)

    def to_text(self) -> str:
        stacked = np.vstack([self.upper[::-1], self.lower[::-1]])
        lines = (" ".join(f"{v:.12g}" for v in row) for row in stacked)
        return "\n".join(lines) + "\n"


def write_field(f: Field2D, path) -> None:
    with open(path, "w") as fh:
        fh.write(f.to_text())


@dataclass(frozen=True, eq=False)
class _LipOperator:
    """DCT-I modes of the clamped half-plate and its lip operator.

    ``analysis @ x`` gives the mode coefficients of a lip vector ``x``
    (the trapezoid-weighted DCT-I) and ``modes`` maps them back;
    ``profiles[j, k]`` is mode ``k``'s amplitude on row ``j`` of the upper
    block (row 0 the lip, row ``m`` the clamped edge).  With lip values
    ``t + x`` and the far edge at ``t``, the block's bulk is ``x @ S @ x``
    for ``S = stiffness``.
    """

    modes: np.ndarray
    analysis: np.ndarray
    profiles: np.ndarray
    stiffness: np.ndarray


@lru_cache(maxsize=8)
def _lip_operator(n: int) -> _LipOperator:
    m = n // 2
    lam = 4.0 * np.sin(0.5 * np.pi * np.arange(n + 1) / n) ** 2  # 2 - 2 cos(k pi/n)
    # rho[s, k] = sinh(mu_k s) / sinh(mu_k m) at distance s from the clamped
    # edge, written with decaying exponentials only so that no n overflows
    half = 0.5 * lam[1:]
    mu = np.log1p(half + np.sqrt(half * (2.0 + half)))  # arccosh(1 + lam/2)
    s = np.arange(m + 1)[:, None]
    rho = np.empty((m + 1, n + 1))
    rho[:, 0] = s[:, 0] / m
    rho[:, 1:] = np.exp(mu * (s - m)) * np.expm1(-2.0 * mu * s) / np.expm1(-2.0 * mu * m)

    i = np.arange(n + 1)
    modes = np.cos(np.pi * (np.outer(i, i) % (2 * n)) / n)
    w = np.ones(n + 1)
    w[[0, n]] = 0.5
    norm = np.full(n + 1, 0.5 * n)
    norm[[0, n]] = n
    stiff = 0.5 * lam + 1.0 - rho[m - 1]
    weighted = modes * w[:, None]
    op = _LipOperator(
        modes=modes,
        analysis=weighted.T / norm[:, None],
        profiles=rho[::-1].copy(),
        stiffness=(weighted * (stiff / norm)) @ weighted.T,
    )
    for arr in (op.modes, op.analysis, op.profiles, op.stiffness):
        arr.setflags(write=False)  # shared by every caller through the cache
    return op


def _blocks(n: int, t: float, jumps: np.ndarray):
    """Lower and upper blocks of the elastic optimum with nodal jumps ``jumps``.

    The data are antisymmetric, so the lips sit exactly at ``-jumps/2`` and
    ``+jumps/2`` (tied nodes keep exactly zero jump) and the lower block
    mirrors the upper one, which is rebuilt mode by mode.
    """
    op = _lip_operator(n)
    half = 0.5 * jumps
    upper = t + (op.profiles * (op.analysis @ (half - t))) @ op.modes.T
    upper[0] = half
    upper[-1] = t
    return -upper[::-1], upper


def _solve_jumps(n: int, t: float, tied: np.ndarray, load: np.ndarray | None = None) -> np.ndarray:
    """Nodal jumps of the elastic optimum with the ``tied`` lip nodes closed.

    For jumps ``J`` the bulk is ``2 q.S.q`` with ``q = t - J/2``; a tied
    node keeps ``q = t``.  ``load`` (per lip node, in bulk units) adds
    ``2 load.J`` to that, which is how a linear surface-slope term enters.
    The open nodes take one dense solve, whose residual must come out
    below ``RESIDUAL_TOL``.
    """
    stiff = _lip_operator(n).stiffness
    free = np.flatnonzero(~tied)
    jumps = np.zeros(n + 1)
    if free.size == 0:
        return jumps
    rhs = -stiff[free] @ np.where(tied, t, 0.0)
    if load is not None:
        rhs += load[free]
    a = stiff[np.ix_(free, free)]
    q = np.linalg.solve(a, rhs)
    residual = float(np.abs(rhs - a @ q).max())
    scale = max(1.0, abs(t), float(np.abs(rhs).max()))
    if not residual <= RESIDUAL_TOL * scale:
        raise PlanarNumericError(
            f"linear solve residual {residual:.3g} exceeds {RESIDUAL_TOL:g}"
        )
    jumps[free] = 2.0 * (t - q)
    return jumps


def _tied(n: int, open_edges) -> np.ndarray:
    """Lip nodes held at zero jump: those with a closed incident crack edge."""
    closed = np.ones(n, dtype=bool)
    closed[list(open_edges)] = False
    tied = np.zeros(n + 1, dtype=bool)
    tied[:-1] |= closed
    tied[1:] |= closed
    return tied


def _lip_bulk(n: int, t: float, jumps: np.ndarray) -> float:
    """Unweighted bulk ``2 q.S.q``, ``q = t - jumps/2``, of the elastic optimum."""
    q = t - 0.5 * jumps
    return 2.0 * float(q @ _lip_operator(n).stiffness @ q)


def _lip_energy(grid: Grid2D, psi: np.ndarray, laws: RescaledLaws, t: float, jumps) -> float:
    """Reduced energy of nodal jumps: weighted lip bulk plus the cohesive surface."""
    opening = 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))
    surface = laws.surface_weight * grid.spacing * float(
        np.sum(laws.phi(np.maximum(opening, psi)))
    )
    return laws.bulk_weight * _lip_bulk(grid.n, t, jumps) + surface


def solve_elastic(grid: Grid2D, open_edges, t: float) -> Field2D:
    """Minimize the quadratic form with the given crack edges open.

    A closed edge ties the lip values at both its endpoints, so a lip
    node jumps only when every incident crack edge is open.  The problem
    reduces to the lip nodes: one dense solve with the lip operator on
    the open ones (residual below ``1e-10``), then the field is rebuilt
    mode by mode.
    """
    n = grid.n
    open_set = frozenset(int(e) for e in open_edges)
    if any(e < 0 or e >= n for e in open_set):
        raise ValueError(f"crack edges must lie in [0, {n}), got {sorted(open_set)}")
    lower, upper = _blocks(n, t, _solve_jumps(n, t, _tied(n, open_set)))
    return Field2D(grid=grid, lower=lower, upper=upper)


def cellwise_bulk(f: Field2D, density=None) -> float:
    """Cell-quadrature bulk integral of ``density(|grad u|)``.

    The gradient is averaged from the four cell edges; ``density=None``
    means the plain Dirichlet integrand ``|grad u|^2``.  Used for the
    size-rescaled reporting, with the same quadrature applied to both
    the cohesive state and its elastic reference so gaps are comparable.
    """
    h = f.grid.spacing
    total = 0.0
    for block in (f.lower, f.upper):
        dx = np.diff(block, axis=1)
        gx = 0.5 * (dx[:-1, :] + dx[1:, :]) / h
        dy = np.diff(block, axis=0)
        gy = 0.5 * (dy[:, :-1] + dy[:, 1:]) / h
        norm = np.hypot(gx, gy)
        vals = norm * norm if density is None else density(norm)
        total += float(np.sum(vals)) * h * h
    return total


@dataclass(frozen=True)
class SweepResult:
    best_length: float
    best_index: int
    lengths: np.ndarray
    bulk: np.ndarray
    surface: np.ndarray
    total: np.ndarray


def prefix_crack_sweep(grid: Grid2D, t: float, laws: RescaledLaws, mode: str = "cohesive") -> SweepResult:
    """Scan prefix cracks ``l = k/n`` and return the optimal one.

    For each length the bulk is the tied elastic optimum, so it is
    exactly nonincreasing in ``l`` (open sets nest).  Griffith surface
    counts fresh edge length only; the cohesive one pays
    ``phi(opening v psi)`` per edge.  Ties resolve to the smaller crack.
    """
    if mode not in ("cohesive", "griffith"):
        raise ValueError(f"unknown mode {mode!r}")
    n = grid.n
    delta = grid.spacing
    lengths = np.arange(n + 1) * delta
    bulk = np.empty(n + 1)
    surface = np.empty(n + 1)
    for k in range(n + 1):
        jumps = _solve_jumps(n, t, _tied(n, range(k)))
        bulk[k] = laws.bulk_weight * _lip_bulk(n, t, jumps)
        if mode == "griffith":
            fresh = int(np.sum(grid.psi[:k] == 0.0))
            surface[k] = laws.surface_weight * delta * fresh
        else:
            opening = np.zeros(n)
            opening[:k] = np.abs(0.5 * (jumps[:k] + jumps[1:k + 1]))
            surface[k] = laws.surface_weight * delta * float(
                np.sum(laws.phi(np.maximum(opening, grid.psi)))
            )
    total = bulk + surface
    best = 0
    for k in range(1, n + 1):
        if total[k] < total[best] - 1e-12:
            best = k
    return SweepResult(
        best_length=float(lengths[best]),
        best_index=best,
        lengths=lengths,
        bulk=bulk,
        surface=surface,
        total=total,
    )


def _lip_jump(phi, kappa, d, w, j, psi):
    """Exact minimizer of ``kappa*(x - d)**2 + w*sum_k phi(max((|x| + j_k)/2, psi_k))``.

    One term per crack edge at the node: ``j_k >= 0`` is the jump at the
    edge's other node and ``psi_k`` its memory.  The surface part grows
    with ``|x|``, so the minimizer has the sign of ``d`` and ``|x| <= |d|``.
    In ``y = |x|`` the candidates are the ends, the openings where an edge
    reaches its memory (convex kinks), and the stationary points for every
    set of edges that may be smooth at once (each set is one law term in
    ``y/2``, see :meth:`CohesiveLaw.stationary_points`).  Saturation is a
    concave kink and never a minimizer.  Ties go to the smaller jump.
    """
    end = abs(d)
    half = 0.5 * j
    slopes = (w / phi.a) * phi.deriv(half)
    # every nonempty set of edges; with one edge the sets coincide
    weights = np.array([slopes[0], slopes[-1], slopes.sum()])
    cand = [(0.0, end), 2.0 * (psi - half)]
    cand.extend(phi.stationary_points(kappa, end, weights, 0.5))
    # fmin maps a point that is not real (NaN) to the right end
    y = np.sort(np.maximum(np.fmin(np.concatenate(cand), end), 0.0))
    opening = np.maximum(0.5 * (y[:, None] + j), psi)
    energy = kappa * (y - end) ** 2 + w * phi(opening).sum(axis=1)
    x = float(y[np.argmin(energy)])
    return x if d >= 0.0 else -x


def _sweep_jumps(grid, psi, laws, t, jumps):
    """One Gauss-Seidel pass of exact per-node updates of the lip energy.

    With the other jumps fixed, the bulk ``2 bw q.S.q`` (``q = t - J/2``,
    the interior already minimized out) is ``kappa*(x - d)**2`` plus a
    constant in the jump ``x`` at node ``i``, with ``kappa = bw*S_ii/2`` and
    ``d = 2t + 2*(S_i.q - S_ii*q_i)/S_ii``; :func:`_lip_jump` minimizes it
    together with the surface term exactly, so no update raises the
    energy.  ``S.q`` follows each update by a rank-one correction.
    """
    n = grid.n
    stiff = _lip_operator(n).stiffness
    w = laws.surface_weight * grid.spacing
    q = t - 0.5 * jumps
    sq = stiff @ q
    for i in range(n + 1):
        s_ii = stiff[i, i]
        d = 2.0 * t + 2.0 * (sq[i] - s_ii * q[i]) / s_ii
        # crack edges i-1 and i, whose other nodes are i-1 and i+1
        others = [k for k in (i - 1, i + 1) if 0 <= k <= n]
        edges = psi[max(i - 1, 0):min(i + 1, n)]
        x = _lip_jump(laws.phi, 0.5 * laws.bulk_weight * s_ii, d, w,
                      np.abs(jumps[others]), edges)
        q_new = t - 0.5 * x
        sq += stiff[i] * (q_new - q[i])  # S is symmetric: row i is column i
        q[i] = q_new
        jumps[i] = x


def _pattern_step(grid, psi, laws, t, jumps):
    """Jumps at the lip-energy optimum of the current smooth branch, one solve.

    With the open/closed pattern and the jump signs frozen, the surface
    term is linear in the jumps (exactly so for the piecewise-linear
    law), so the stationary state is one lip solve with the slope loads
    on the open lip nodes.  Gauss-Seidel alone crawls along these
    flat directions at a rate that degrades like 1/n^2; the caller
    adopts the trial only when it lowers the energy, which keeps the
    descent property regardless of how crude the frozen pattern is.
    """
    sign = np.sign(jumps)
    tied = sign == 0.0
    if tied.all():
        return None
    opening = 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))
    slopes = np.where(opening > psi, laws.phi.deriv(opening), 0.0)
    g = np.zeros(grid.n + 1)
    g[:-1] += 0.5 * slopes
    g[1:] += 0.5 * slopes
    g *= laws.surface_weight * grid.spacing * sign
    return _solve_jumps(grid.n, t, tied, g / (2.0 * laws.bulk_weight))


@dataclass(frozen=True, eq=False)
class AMResult:
    field: Field2D
    jumps: np.ndarray          # signed per-edge (midpoint) jumps
    nodal_jumps: np.ndarray
    energies: np.ndarray       # start, each sweep, each accepted pattern step; nonincreasing
    iterations: int


def alternate_minimize(
    grid: Grid2D,
    psi: np.ndarray | None,
    t: float,
    laws: RescaledLaws,
    start_jumps: np.ndarray | None = None,
    max_iters: int = 200,
    tol: float = 1e-10,
    target_energy: float | None = None,
) -> AMResult:
    """Minimize the reduced lip energy over the nodal jumps until it settles.

    Each iteration is one Gauss-Seidel pass of exact per-node jump
    updates on ``2 bw q.S.q + w sum phi(opening v psi)`` (the elastic
    field minimized out for every trial jump), then a pattern step that
    is kept only when it lowers the energy.  The energy is recorded at
    the start, after every pass and after every accepted pattern step, so
    the trace is nonincreasing.  The field is rebuilt once, for the
    result.  The result is stationary but not certified global; use the
    prefix sweep as an independent check when the expected pattern is
    monotone.  ``target_energy`` lets a caller that already holds a
    competitor value stop a descent early once it is matched; crack
    fronts advance one node per sweep, so runs racing a known optimum
    would otherwise burn hundreds of sweeps.
    """
    n = grid.n
    psi = grid.psi if psi is None else np.asarray(psi, dtype=float)
    if psi.shape != (n,) or np.any(psi < 0.0):
        raise ValueError("psi must be a nonnegative per-edge array")
    jumps = np.zeros(n + 1) if start_jumps is None else np.asarray(start_jumps, dtype=float).copy()
    if jumps.shape != (n + 1,):
        raise ValueError("start_jumps must give one value per lip node")

    energies = [_lip_energy(grid, psi, laws, t, jumps)]
    prev = np.inf
    for it in range(max_iters):
        _sweep_jumps(grid, psi, laws, t, jumps)
        e = _lip_energy(grid, psi, laws, t, jumps)
        energies.append(e)
        trial = _pattern_step(grid, psi, laws, t, jumps)
        if trial is not None:
            e_acc = _lip_energy(grid, psi, laws, t, trial)
            if e_acc < e:
                jumps = trial
                e = e_acc
                energies.append(e)
        matched = target_energy is not None and (
            e <= target_energy + max(10.0 * tol, 1e-8 * (1.0 + abs(target_energy)))
        )
        if prev - e < tol or matched:
            lower, upper = _blocks(n, t, jumps)
            return AMResult(
                field=Field2D(grid=grid, lower=lower, upper=upper),
                jumps=0.5 * (jumps[:-1] + jumps[1:]),
                nodal_jumps=jumps,
                energies=np.asarray(energies),
                iterations=it + 1,
            )
        prev = e
    raise PlanarNonconvergence(last_energy=energies[-1], iterations=max_iters)


@dataclass(frozen=True, eq=False)
class TearingStep:
    time: float
    field: Field2D
    jumps: np.ndarray
    psi: np.ndarray
    energy: float


def evolve_tearing(
    grid: Grid2D,
    times,
    laws: RescaledLaws,
    psi0: np.ndarray | None = None,
    max_iters: int = 400,
    tol: float = 1e-10,
) -> list[TearingStep]:
    """Incremental tearing evolution driven by alternate minimization.

    Each step restarts AM from the fully torn state, from the elastic
    solution with the memory edges open, from the previous jumps, and
    from zero, keeping the lowest energy; the memory then absorbs the
    new edge openings.  This is the honest local scheme: no global
    certificate, but competing starts catch the coarse branch switches.
    A start that stalls against the sweep budget is dropped as long as
    another one converged: crack fronts move one node per sweep, so a
    run racing an already-found optimum can legitimately time out.
    """
    psi = (grid.psi if psi0 is None else np.asarray(psi0, dtype=float)).copy()
    prev = None
    steps: list[TearingStep] = []
    for t in times:
        starts = [np.full(grid.n + 1, 2.0 * t)]
        mem = np.flatnonzero(psi > 0.0)
        if mem.size:
            starts.append(_solve_jumps(grid.n, t, _tied(grid.n, mem)))
        if prev is not None:
            starts.append(prev)
        starts.append(np.zeros(grid.n + 1))
        best = None
        stalled = None
        for s in starts:
            tgt = None if best is None else float(best.energies[-1])
            try:
                res = alternate_minimize(grid, psi, t, laws, start_jumps=s,
                                         max_iters=max_iters, tol=tol,
                                         target_energy=tgt)
            except PlanarNonconvergence as exc:
                stalled = exc
                continue
            if best is None or res.energies[-1] < best.energies[-1] - 1e-12:
                best = res
        if best is None:
            raise stalled
        jn = best.nodal_jumps
        opening = 0.5 * (np.abs(jn[:-1]) + np.abs(jn[1:]))
        psi = np.maximum(psi, opening)
        prev = jn
        steps.append(TearingStep(time=float(t), field=best.field, jumps=best.jumps,
                                 psi=psi.copy(), energy=float(best.energies[-1])))
    return steps


def tearing_gap_ladder(
    base_law,
    alpha: float,
    h_list,
    n: int,
    crack_length: float,
    gamma: float,
    times,
) -> np.ndarray:
    """Normalized bulk gap to the cracked elastic reference, per size.

    The initial crack is the prefix of the given length with uniform
    memory ``gamma``.  For each ``h`` the tearing evolution runs with
    the rescaled laws and the reported bulk is the cell quadrature of
    the rescaled density; the reference is the elastic solve with the
    memory edges open, same quadrature, which scales as ``t^2``.
    """
    h_list = [float(h) for h in h_list]
    k = int(round(crack_length * n))
    psi0 = np.zeros(n)
    psi0[:k] = gamma
    grid = Grid2D(n, psi0)
    ref1 = cellwise_bulk(solve_elastic(grid, range(k), 1.0))
    gaps = np.empty(len(h_list))
    for row, h in enumerate(h_list):
        laws = rescale_laws(base_law, base_law.a, h, alpha)
        steps = evolve_tearing(grid, times, laws)
        gap = 0.0
        for st in steps:
            reported = laws.bulk_weight * cellwise_bulk(st.field, laws.bulk)
            gap = max(gap, abs(reported - st.time**2 * ref1))
        gaps[row] = gap
    return gaps
