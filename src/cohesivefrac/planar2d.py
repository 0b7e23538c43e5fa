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
global check for monotone patterns; a prefix crack opens a leading block
of lip nodes, so one Cholesky factor of ``S`` per mesh size solves every
prefix.  ``alternate_minimize`` minimizes the reduced lip energy
``2 bw q.S.q + w sum phi(opening v psi)`` over the nodal jumps alone, by
coordinate descent: each node update is exact (the bulk is minimized out
for every trial jump), so the energy trace is nonincreasing, and an
iteration that changes no jump ends the descent, as the next one would
only repeat it.  Its end
point is not certified global, and need not even be stationary: where an
edge sits exactly at its memory the surface term couples two nodes, and
single-node updates can stall there (Tseng, J. Optim. Theory Appl. 109,
2001).  A tearing step keeps its nodal jumps, and the gap ladder prices
them by the minimized lip form ``2 q.S.q``; fields are built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

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
    "tearing_gap_ladder",
    "write_field",
]

RESIDUAL_TOL = 1e-10
# an alternate minimization has settled once an iteration lowers the
# energy by less than this
AM_TOL = 1e-10
# iteration budget of each alternate minimization
AM_MAX_ITERS = 400


class PlanarNumericError(RuntimeError):
    """Linear solve failed to reach the required residual."""


class PlanarNonconvergence(RuntimeError):
    """Alternate minimization hit ``AM_MAX_ITERS``; carries the last energy."""

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
    the per-crack-edge memory, one finite nonnegative value for each of
    the ``n`` edges of the interface.
    """

    n: int
    psi: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ValueError(f"need an even number of cells >= 8, got {self.n}")
        psi = np.zeros(self.n) if self.psi is None else np.asarray(self.psi, dtype=float)
        if psi.shape != (self.n,):
            raise ValueError(f"psi must have one entry per crack edge, got shape {psi.shape}")
        if not np.all((psi >= 0.0) & np.isfinite(psi)):
            raise ValueError("memory values must be finite and nonnegative")
        object.__setattr__(self, "psi", psi)

    @staticmethod
    def precracked(n: int, length: float, gamma: float) -> "Grid2D":
        """Grid whose first ``round(length * n)`` crack edges carry memory ``gamma``.

        ``length`` must lie in [0, 1] and ``gamma`` be finite and
        nonnegative.
        """
        if not 0.0 <= length <= 1.0:
            raise ValueError(f"crack length must lie in [0, 1], got {length}")
        if not (gamma >= 0.0 and np.isfinite(gamma)):
            raise ValueError(f"crack memory must be finite and nonnegative, got {gamma}")
        psi = np.zeros(n)
        psi[:int(round(length * n))] = gamma
        return Grid2D(n, psi)

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
    free = ~tied
    jumps = np.zeros(n + 1)
    if not free.any():
        return jumps
    rows = _lip_operator(n).stiffness[free]
    rhs = -rows @ np.where(tied, t, 0.0)
    if load is not None:
        rhs += load[free]
    a = rows[:, free]
    q = np.linalg.solve(a, rhs)
    residual = float(np.abs(rhs - a @ q).max())
    _check_residual(residual, max(1.0, abs(t), float(np.abs(rhs).max())))
    jumps[free] = 2.0 * (t - q)
    return jumps


def _check_residual(residual: float, scale: float) -> None:
    if not residual <= RESIDUAL_TOL * scale:
        raise PlanarNumericError(
            f"linear solve residual {residual:.3g} exceeds {RESIDUAL_TOL:g}"
        )


@lru_cache(maxsize=8)
def _prefix_jumps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(c, x)``: the unit load and unit jumps of every prefix crack, from one Cholesky factor.

    A prefix crack opens the lip nodes ``0..m-1``, so its system is the
    leading block ``S_oo`` of ``S``: with the tied nodes at ``q = t`` the
    open jumps are ``2t x`` for ``S_oo x = c_o``, ``c = S 1``.  With
    ``S = L L^T`` every leading block shares the factor, so for
    ``y = L^-1 c`` the solution is ``x = L_oo^-T y_o``: row ``m - 1`` of
    ``x`` holds it, and zeros past it.  The last row is the full tear,
    solved exactly by ``x = 1``.  The rows of ``S`` sum to far less than
    their entries, so ``c`` is summed with a single rounding
    (``math.fsum``).
    """
    stiff = _lip_operator(n).stiffness
    c = np.array([math.fsum(row) for row in stiff.tolist()])
    linv = np.linalg.inv(np.linalg.cholesky(stiff))
    # x[m - 1, i] = sum_{j < m} linv[j, i] y_j, a running sum over the rows
    x = np.cumsum(linv * (linv @ c)[:, None], axis=0)
    x[n] = 1.0
    for arr in (c, x):
        arr.setflags(write=False)  # shared by every caller through the cache
    return c, x


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


def _edge_openings(jumps: np.ndarray) -> np.ndarray:
    """Opening of each crack edge: the mean jump magnitude at its two nodes."""
    return 0.5 * (np.abs(jumps[:-1]) + np.abs(jumps[1:]))


def _lip_energy(grid: Grid2D, laws: RescaledLaws, t: float, jumps) -> float:
    """Reduced energy of nodal jumps: weighted lip bulk plus the cohesive surface."""
    surface = laws.surface_weight * grid.spacing * float(
        laws.phi(np.maximum(_edge_openings(jumps), grid.psi)).sum()
    )
    return laws.bulk_weight * _lip_bulk(grid.n, t, jumps) + surface


def _check_load(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"load must be finite, got {t}")


def solve_elastic(grid: Grid2D, open_edges, t: float) -> Field2D:
    """Minimize the quadratic form with the given crack edges open.

    A closed edge ties the lip values at both its endpoints, so a lip
    node jumps only when every incident crack edge is open.  The problem
    reduces to the lip nodes: one dense solve with the lip operator on
    the open ones (residual below ``1e-10``), then the field is rebuilt
    mode by mode.  A load that is not finite raises ``ValueError`` before
    any solve.
    """
    _check_load(t)
    n = grid.n
    open_set = frozenset(int(e) for e in open_edges)
    if any(e < 0 or e >= n for e in open_set):
        raise ValueError(f"crack edges must lie in [0, {n}), got {sorted(open_set)}")
    lower, upper = _blocks(n, t, _solve_jumps(n, t, _tied(n, open_set)))
    return Field2D(grid=grid, lower=lower, upper=upper)


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
    exactly nonincreasing in ``l`` (open sets nest).  Prefix ``k`` opens
    the lip nodes ``0..k-1`` (all of them at ``k = n``), whose jumps come
    from one Cholesky factor of the lip operator per mesh size (see
    :func:`_prefix_jumps`); each solve's residual must come out below
    ``RESIDUAL_TOL``, and the full tear has jumps ``2t`` and bulk 0
    exactly.  Griffith surface counts fresh edge length only; the
    cohesive one pays ``phi(opening v psi)`` per edge.  Ties resolve to
    the smaller crack.  A load that is not finite raises ``ValueError``
    before any solve.
    """
    if mode not in ("cohesive", "griffith"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_load(t)
    n = grid.n
    delta = grid.spacing
    lengths = np.arange(n + 1) * delta
    bulk = np.empty(n + 1)
    surface = np.empty(n + 1)
    stiff = _lip_operator(n).stiffness
    c, unit = _prefix_jumps(n)
    jumps = np.zeros(n + 1)  # k = 0 ties every node
    for k in range(n + 1):
        if k:
            m = k if k < n else n + 1
            x = unit[m - 1]
            # the residual of S_oo (t x) = t c_o
            residual = abs(t) * float(np.abs(c[:m] - stiff[:m, :m] @ x[:m]).max())
            _check_residual(residual, max(1.0, abs(t), abs(t) * float(np.abs(c[:m]).max())))
            jumps = 2.0 * t * x
        bulk[k] = laws.bulk_weight * _lip_bulk(n, t, jumps)
        if mode == "griffith":
            fresh = int(np.sum(grid.psi[:k] == 0.0))
            surface[k] = laws.surface_weight * delta * fresh
        else:
            # nodes past the prefix are tied, so their edges open by 0
            surface[k] = laws.surface_weight * delta * float(
                laws.phi(np.maximum(_edge_openings(jumps), grid.psi)).sum()
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

    One term per crack edge at the node, one or two of them: ``j_k >= 0``
    is the jump at the edge's other node and ``psi_k`` its memory, both
    sequences of floats.  The surface part grows with ``|x|``, so the
    minimizer has the sign of ``d`` and ``|x| <= |d|``.  In ``y = |x|`` the
    candidates are the ends, the openings where an edge reaches its
    memory (convex kinks), and the local minimum for every set of edges
    that may be smooth at once (each set is one law term in ``y/2``, see
    the law's ``_stationary``).  Saturation is a concave
    kink and never a minimizer.  A candidate outside ``(0, |d|)``, or not
    real, would be clamped onto an end, so it is dropped.  Everything is
    priced on floats; ties go to the smaller jump.
    """
    end = abs(d)
    scale = w / phi.a
    slope, value = phi._slope, phi._value
    if len(j) == 2:
        j0, j1 = j
        p0, p1 = psi
        s0, s1 = scale * slope(0.5 * j0), scale * slope(0.5 * j1)
        # every nonempty set of edges
        weights = (s0, s1, s0 + s1)
        cand = [2.0 * (p0 - 0.5 * j0), 2.0 * (p1 - 0.5 * j1)]
    else:
        (j0,), (p0,) = j, psi
        j1 = None
        weights = (scale * slope(0.5 * j0),)
        cand = [2.0 * (p0 - 0.5 * j0)]
    cand += phi._stationary(kappa, end, weights, 0.5)

    # max(opening, memory), as a conditional: a builtin call per edge costs more
    s = 0.5 * j0
    surface = value(p0 if p0 > s else s)
    if j1 is not None:
        s = 0.5 * j1
        surface += value(p1 if p1 > s else s)
    # y = 0 holds until a candidate costs less, or as much for a smaller jump
    x, e_min = 0.0, kappa * (end * end) + w * surface
    for y in (end, *cand):
        if not 0.0 < y <= end:
            continue
        s = 0.5 * (y + j0)
        surface = value(p0 if p0 > s else s)
        if j1 is not None:
            s = 0.5 * (y + j1)
            surface += value(p1 if p1 > s else s)
        e = kappa * ((y - end) * (y - end)) + w * surface
        if e < e_min or (e == e_min and y < x):
            x, e_min = y, e
    return x if d >= 0.0 else -x


def _sweep_jumps(grid, laws, t, jumps) -> bool:
    """One Gauss-Seidel pass of exact per-node updates of the lip energy; True if a jump moved.

    With the other jumps fixed, the bulk ``2 bw q.S.q`` (``q = t - J/2``,
    the interior already minimized out) is ``kappa*(x - d)**2`` plus a
    constant in the jump ``x`` at node ``i``, with ``kappa = bw*S_ii/2`` and
    ``d = 2t + 2*(S_i.q - S_ii*q_i)/S_ii``; :func:`_lip_jump` minimizes it
    together with the surface term exactly, so no update raises the
    energy.  The diagonal of ``S``, the memory and the jumps are read as
    floats once per pass; ``S.q`` follows each update that moves a jump
    by a rank-one correction, the one array operation per node.  An
    update that returns the node's jump (as floats) changes nothing and
    is skipped, so a pass that moves nothing leaves ``jumps`` as it was:
    the descent has reached a fixed point of the node updates.
    ``jumps`` is written in place, once, at the end of a pass that moved.
    """
    n = grid.n
    stiff = _lip_operator(n).stiffness
    diag = stiff.diagonal().tolist()
    psi = grid.psi.tolist()
    phi, w, half_bw = laws.phi, laws.surface_weight * grid.spacing, 0.5 * laws.bulk_weight
    q = t - 0.5 * jumps
    sq = stiff @ q
    q = q.tolist()
    mags = np.abs(jumps).tolist()
    new = jumps.tolist()
    moved = False
    for i in range(n + 1):
        s_ii = diag[i]
        d = 2.0 * t + 2.0 * (sq.item(i) - s_ii * q[i]) / s_ii
        # crack edges i-1 and i, whose other nodes are i-1 and i+1
        if i == 0:
            j, p = (mags[1],), (psi[0],)
        elif i == n:
            j, p = (mags[n - 1],), (psi[n - 1],)
        else:
            j, p = (mags[i - 1], mags[i + 1]), (psi[i - 1], psi[i])
        x = _lip_jump(phi, half_bw * s_ii, d, w, j, p)
        if x == new[i]:
            continue
        moved = True
        q_new = t - 0.5 * x
        sq += stiff[i] * (q_new - q[i])  # S is symmetric: row i is column i
        q[i] = q_new
        mags[i] = abs(x)
        new[i] = x
    if moved:
        jumps[:] = new
    return moved


def _pattern_step(grid, laws, t, jumps):
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
    opening = _edge_openings(jumps)
    slopes = np.where(opening > grid.psi, laws.phi.deriv(opening), 0.0)
    g = np.zeros(grid.n + 1)
    g[:-1] += 0.5 * slopes
    g[1:] += 0.5 * slopes
    g *= laws.surface_weight * grid.spacing * sign
    return _solve_jumps(grid.n, t, tied, g / (2.0 * laws.bulk_weight))


@dataclass(frozen=True, eq=False)
class AMResult:
    grid: Grid2D
    t: float
    nodal_jumps: np.ndarray    # read-only: the field is built from it
    energies: np.ndarray       # start, each sweep, each accepted pattern step; nonincreasing
    iterations: int

    @cached_property
    def field(self) -> Field2D:
        """The elastic field with these nodal jumps, built on first use."""
        lower, upper = _blocks(self.grid.n, self.t, self.nodal_jumps)
        return Field2D(grid=self.grid, lower=lower, upper=upper)


def alternate_minimize(
    grid: Grid2D,
    t: float,
    laws: RescaledLaws,
    start_jumps: np.ndarray | None = None,
    target_energy: float | None = None,
) -> AMResult:
    """Minimize the reduced lip energy over the nodal jumps until it settles.

    Each iteration is one Gauss-Seidel pass of exact per-node jump
    updates on ``2 bw q.S.q + w sum phi(opening v psi)`` (the elastic
    field minimized out for every trial jump, ``psi`` the memory of
    ``grid``), then a pattern step that is kept only when it lowers the
    energy.  It stops once an iteration changes no jump (its pass moved
    nothing and its pattern step was rejected), as the next one would
    only repeat it; once an iteration gains less than ``AM_TOL``;
    or it raises after ``AM_MAX_ITERS``.  ``iterations`` counts the
    iterations that ran.  The energy is recorded at the start, after
    every pass and after every accepted pattern step, so the trace is
    nonincreasing; a pass that moved nothing records the energy it
    started from, unpriced.  ``AMResult.field`` is built on first read.  A load
    or start jump that is not finite raises ``ValueError`` before any
    sweep.

    The result is a point that no single-node update and no pattern step
    improves, which need not be stationary, let alone global: an edge
    held exactly at its memory couples its two nodes through
    ``max((|J_i| + |J_i+1|)/2, psi)``, which no single-node update can
    move along and the pattern step prices as flat, so the descent can
    stop short of the step minimum there, the known failure of
    coordinate descent on a nonseparable nonsmooth term (Tseng, J.
    Optim. Theory Appl. 109, 2001).  Use the prefix sweep as an
    independent check when the expected pattern is monotone.
    ``target_energy`` lets a caller that already holds a
    competitor value stop a descent early once it is matched; crack
    fronts advance one node per sweep, so runs racing a known optimum
    would otherwise burn hundreds of sweeps.
    """
    n = grid.n
    jumps = np.zeros(n + 1) if start_jumps is None else np.asarray(start_jumps, dtype=float).copy()
    if jumps.shape != (n + 1,):
        raise ValueError("start_jumps must give one value per lip node")
    bad = [v for v in (t, *jumps.tolist()) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"load and start jumps must be finite, got {bad[0]}")

    energies = [_lip_energy(grid, laws, t, jumps)]
    prev = np.inf
    for it in range(AM_MAX_ITERS):
        moved = _sweep_jumps(grid, laws, t, jumps)
        # a pass that moved nothing left the energy as it was
        e = _lip_energy(grid, laws, t, jumps) if moved else energies[-1]
        energies.append(e)
        accepted = False
        trial = _pattern_step(grid, laws, t, jumps)
        if trial is not None:
            e_acc = _lip_energy(grid, laws, t, trial)
            if e_acc < e:
                jumps, e, accepted = trial, e_acc, True
                energies.append(e)
        matched = target_energy is not None and (
            e <= target_energy + max(10.0 * AM_TOL, 1e-8 * (1.0 + abs(target_energy)))
        )
        # an iteration that changed no jump is a fixed point: the next one
        # would only repeat it
        if not (moved or accepted) or prev - e < AM_TOL or matched:
            jumps.setflags(write=False)
            return AMResult(
                grid=grid,
                t=t,
                nodal_jumps=jumps,
                energies=np.asarray(energies),
                iterations=it + 1,
            )
        prev = e
    raise PlanarNonconvergence(last_energy=energies[-1], iterations=AM_MAX_ITERS)


@dataclass(frozen=True, eq=False)
class TearingStep:
    time: float
    nodal_jumps: np.ndarray    # the winning AM result's read-only array
    psi: np.ndarray            # the memory after the step
    energy: float

    @cached_property
    def field(self) -> Field2D:
        """The elastic field with these nodal jumps and this memory, built on first use."""
        grid = Grid2D(self.psi.size, self.psi)
        lower, upper = _blocks(grid.n, self.time, self.nodal_jumps)
        return Field2D(grid=grid, lower=lower, upper=upper)


def evolve_tearing(grid: Grid2D, times, laws: RescaledLaws) -> list[TearingStep]:
    """Incremental tearing evolution driven by alternate minimization.

    The memory starts at ``grid.psi``.  Each step restarts AM from the
    fully torn state, from the elastic solution with the memory edges
    open, from the previous jumps, and from zero, keeping the lowest
    energy; the memory then absorbs the new edge openings.  This is the
    honest local scheme: no global certificate, but competing starts
    catch the coarse branch switches.  A start that stalls against
    ``AM_MAX_ITERS`` is dropped as long as another one converged: crack
    fronts move one node per sweep, so a run racing an already-found
    optimum can legitimately time out.  A time that is not finite raises
    ``ValueError`` before any solve.
    """
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"load times must be finite, got {t}")
    psi = grid.psi
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
        step_grid = Grid2D(grid.n, psi)
        for s in starts:
            tgt = None if best is None else float(best.energies[-1])
            try:
                res = alternate_minimize(step_grid, t, laws, start_jumps=s,
                                         target_energy=tgt)
            except PlanarNonconvergence as exc:
                stalled = exc
                continue
            if best is None or res.energies[-1] < best.energies[-1] - 1e-12:
                best = res
        if best is None:
            raise stalled
        jn = best.nodal_jumps
        psi = np.maximum(psi, _edge_openings(jn))
        prev = jn
        steps.append(TearingStep(time=t, nodal_jumps=jn, psi=psi,
                                 energy=float(best.energies[-1])))
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

    The initial crack is :meth:`Grid2D.precracked` with the given length
    and memory ``gamma``.  For each ``h`` the tearing evolution runs with
    the rescaled laws, and each step reports the weighted lip-form bulk
    ``2 q.S.q`` of its nodal jumps, the bulk that the evolution
    minimizes; the reference is the same form for the elastic optimum
    with the memory edges open, which scales as ``t^2``.  No field is
    built.  No times, or sizes that are not a nonempty increasing list,
    raise ``ValueError`` before any solve.
    """
    times, h_list = [float(t) for t in times], [float(h) for h in h_list]
    if not times or not h_list or any(b <= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError(f"need load times and increasing sizes, got {times} and {h_list}")
    grid = Grid2D.precracked(n, crack_length, gamma)
    ref1 = _lip_bulk(n, 1.0, _solve_jumps(n, 1.0, _tied(n, np.flatnonzero(grid.psi > 0.0))))
    gaps = np.empty(len(h_list))
    for row, h in enumerate(h_list):
        laws = rescale_laws(base_law, h, alpha)
        steps = evolve_tearing(grid, times, laws)
        gap = 0.0
        for st in steps:
            reported = laws.bulk_weight * _lip_bulk(n, st.time, st.nodal_jumps)
            gap = max(gap, abs(reported - st.time**2 * ref1))
        gaps[row] = gap
    return gaps
