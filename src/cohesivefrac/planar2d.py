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
``2 bw q.S.q + w sum phi(opening v psi)`` over the nodal jumps alone by
DC iterations: each edge term is the convex ``a max(s, psi)`` minus the
convex ``a max(s, psi) - phi(max(s, psi))``, the second part is
linearized at the current jumps, and the convex lip problem left, the
same for every law, is solved exactly by primal-dual active sets; a step
is kept only when it lowers the energy.  The end point is a critical
point of that split, free to move along edges held at their memory, but
not certified global.  A tearing step keeps its nodal jumps, and the gap
ladder prices them by the minimized lip form ``2 q.S.q``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from cohesivefrac.bar1d import _as_index
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
]

RESIDUAL_TOL = 1e-10
# a step minimization has settled once a DC iteration lowers the energy
# by less than this
AM_TOL = 1e-10
# DC iteration budget of each step minimization
AM_MAX_ITERS = 400


class PlanarNumericError(RuntimeError):
    """A planar solve failed: a residual or KKT check missed, or an energy is not finite."""


class PlanarNonconvergence(RuntimeError):
    """A step minimization hit ``AM_MAX_ITERS``; carries the last energy."""

    def __init__(self, last_energy: float, iterations: int):
        super().__init__(
            f"step minimization not converged after {iterations} "
            f"iterations, last energy {last_energy:.12g}"
        )
        self.last_energy = last_energy
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Square grid with a duplicated crack row at ``y = 1/2``.

    ``n`` is the number of cells per side (an even integer, at least 8)
    and ``psi`` the per-crack-edge memory, one finite nonnegative value
    for each of the ``n`` edges of the interface.
    """

    n: int
    psi: np.ndarray = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_index(self.n, "cell count"))
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
        n = _as_index(n, "cell count")
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


@dataclass(frozen=True, eq=False)
class _LipOperator:
    """DCT-I modes of the clamped half-plate and its lip operator.

    ``analysis @ x`` gives the mode coefficients of a lip vector ``x``
    (the trapezoid-weighted DCT-I) and ``modes`` maps them back;
    ``profiles[j, k]`` is mode ``k``'s amplitude on row ``j`` of the upper
    block (row 0 the lip, row ``m`` the clamped edge).  With lip values
    ``t + x`` and the far edge at ``t``, the block's bulk is ``x @ S @ x``
    for ``S = stiffness``.  ``unit_load`` is ``c = S 1``, each row summed
    with one rounding (``math.fsum``) as it sums to far less than its
    entries.
    """

    modes: np.ndarray
    analysis: np.ndarray
    profiles: np.ndarray
    stiffness: np.ndarray
    unit_load: np.ndarray


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
    stiffness = (weighted * (stiff / norm)) @ weighted.T
    op = _LipOperator(
        modes=modes,
        analysis=weighted.T / norm[:, None],
        profiles=rho[::-1].copy(),
        stiffness=stiffness,
        unit_load=np.array([math.fsum(row) for row in stiffness.tolist()]),
    )
    for arr in (op.modes, op.analysis, op.profiles, op.stiffness, op.unit_load):
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


def _solve_jumps(n: int, t: float, tied: np.ndarray) -> np.ndarray:
    """Nodal jumps of the elastic optimum with the ``tied`` lip nodes closed.

    For jumps ``J`` the bulk is ``2 q.S.q`` with ``q = t - J/2``; a tied
    node keeps ``q = t``.  The open nodes take one dense solve, whose
    residual must come out below ``RESIDUAL_TOL``.
    """
    free = ~tied
    jumps = np.zeros(n + 1)
    if not free.any():
        return jumps
    rows = _lip_operator(n).stiffness[free]
    rhs = -rows @ np.where(tied, t, 0.0)
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
def _prefix_jumps(n: int) -> np.ndarray:
    """``x``: the unit jumps of every prefix crack, from one Cholesky factor.

    A prefix crack opens the lip nodes ``0..m-1``, so its system is the
    leading block ``S_oo`` of ``S``: with the tied nodes at ``q = t`` the
    open jumps are ``2t x`` for ``S_oo x = c_o``, ``c = S 1``.  With
    ``S = L L^T`` every leading block shares the factor, so for
    ``y = L^-1 c`` the solution is ``x = L_oo^-T y_o``: row ``m - 1`` of
    ``x`` holds it, and zeros past it.  The last row is the full tear,
    solved exactly by ``x = 1``.  ``c`` is the operator's ``unit_load``.
    """
    op = _lip_operator(n)
    c = op.unit_load
    linv = np.linalg.inv(np.linalg.cholesky(op.stiffness))
    # x[m - 1, i] = sum_{j < m} linv[j, i] y_j, a running sum over the rows
    x = np.cumsum(linv * (linv @ c)[:, None], axis=0)
    x[n] = 1.0
    x.setflags(write=False)  # shared by every caller through the cache
    return x


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
    open_set = frozenset(_as_index(e, "crack edge index") for e in open_edges)
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
    before any solve; a finite one whose energy overflows at some prefix
    length raises ``PlanarNumericError`` naming the first such length.
    """
    if mode not in ("cohesive", "griffith"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_load(t)
    n = grid.n
    delta = grid.spacing
    lengths = np.arange(n + 1) * delta
    bulk = np.empty(n + 1)
    surface = np.empty(n + 1)
    op = _lip_operator(n)
    stiff, c, unit = op.stiffness, op.unit_load, _prefix_jumps(n)
    jumps = np.zeros(n + 1)  # k = 0 ties every node
    # a load whose energies overflow is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
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
    unpriced = np.flatnonzero(~np.isfinite(total))
    if unpriced.size:
        raise PlanarNumericError(
            f"energy of prefix length {lengths[unpriced[0]]:.12g} is not finite at load {t:g}"
        )
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


@lru_cache(maxsize=8)
def _face_system(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[[S, B^T], [B, 0]]`` (``B`` the edge average), whose principal submatrices
    are the faces of :func:`_lip_subproblem`, and the states of its unknowns on a
    face and at memory: a node zero (0) or free (1), an edge below its memory
    (-1), at it (0) or above it (1)."""
    avg = 0.5 * (np.eye(n, n + 1) + np.eye(n, n + 1, 1))
    out = (np.block([[_lip_operator(n).stiffness, avg.T], [avg, np.zeros((n, n))]]),
           np.repeat((1, 0), (n + 1, n)), np.repeat((2, 0), (n + 1, n)))
    for arr in out:
        arr.setflags(write=False)  # shared by every caller through the cache
    return out


def _lip_subproblem(grid: Grid2D, laws: RescaledLaws, t: float, zeta: np.ndarray,
                    jumps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(J, lam)``: one DC iteration's convex lip problem, solved exactly.

    Over ``J >= 0`` it minimizes ``(bw/2) J.S.J - 2 bw t c.J - w zeta.B J
    + w a sum_e max(B_e J, psi_e)`` (``B`` the edge average, ``c = S 1``,
    ``w = sw/n``).  With ``a max(s, psi)`` the largest ``a (lam s + (1 -
    lam) psi)`` over ``lam`` in [0, 1], the KKT point has ``mu = bw S J -
    g + w a B^T lam`` nonnegative at zero nodes and 0 at free ones, ``g =
    2 bw t c + w B^T zeta``.  Primal-dual active sets (Hintermüller, Ito &
    Kunisch, SIAM J. Optim. 13, 2002) find it from the sets of ``jumps``:
    each node is zero or free, each edge below its memory (``lam = 0``),
    at it or above it (``lam = 1``); one dense face solve of ``[[bw S_FF,
    w a B_KF^T], [B_KF, 0]]`` (scaled by ``bw``) gives the free jumps and
    the ``lam`` at memory, and each failing index moves to the set it
    points at.  An edge with no memory stays above it (``a
    max(s, 0) = a s``), one at memory with no free node is below it.
    After a repeated set a primal active-set descent (Nocedal & Wright,
    *Numerical Optimization*, 2006, Alg. 16.3) runs from the last jumps
    clipped at 0: a step ends at the face optimum or at the first sign
    change, which joins its set, and at a face optimum the worst
    multiplier leaves, so the objective never rises.  The sets stand once
    each sign condition holds to ``RESIDUAL_TOL`` of its scale; a descent
    that cycles, or face equations that miss, raise ``PlanarNumericError``.

    Both algorithms stay, as measured at n = 8-32.  Active sets alone
    repeat a set on 35 of 2 000 seeded random subproblems.  The descent
    alone, run from the start jumps, needs 445 face solves against 221 on
    the planar benchmark's seed-0 Dugdale ladder (920 against 587
    exponential), and takes 1.7 times as long over both ladders.
    """
    n, psi = grid.n, grid.psi
    w = laws.surface_weight * grid.spacing
    bw, wa = laws.bulk_weight, w * laws.phi.a
    op = _lip_operator(n)
    # unknowns J and nu = (w a / bw) lam; rows: stationarity over bw at
    # each node, then the opening of each edge
    (kkt, solved, at_memory), nu_max = _face_system(n), wa / bw
    # the convolution is 2 B^T zeta
    rhs = np.concatenate((2 * t * op.unit_load + (0.5 * w / bw) * np.convolve(zeta, (1, 1)), psi))
    scale_j = max(1.0, 2.0 * t, float(psi.max()))
    scale_mu = max(1.0, wa, bw * float(np.abs(rhs[:n + 1]).max())) / bw
    scale = np.where(solved == 1, scale_mu, scale_j)  # of the rows
    unit = np.where(solved == 1, scale_j, nu_max)  # of J and lam
    fixed = (1 - solved) * nu_max  # nu of an edge above memory
    # an edge with no memory stays above it, as a max(s, 0) = a s
    live = np.concatenate((solved[:n + 1], psi > 0.0))

    def state_of(j):
        gap = 0.5 * (j[:-1] + j[1:]) - psi
        side = (gap > RESIDUAL_TOL * scale_j) * 1 - (gap < -RESIDUAL_TOL * scale_j)
        side[psi == 0.0] = 1
        return np.concatenate((j != 0.0, side))

    state, cur, seen = state_of(jumps), None, set()  # cur: the descent's iterate
    while True:
        key = state.tobytes() + (b"" if cur is None else cur.tobytes())
        if key in seen:
            if cur is not None:
                raise PlanarNumericError("active sets cycle without reaching a KKT point")
            cur, seen = np.maximum(x[:n + 1], 0.0), set()
            state = state_of(cur)
            continue
        seen.add(key)
        zero, side = state[:n + 1] == 0, state[n + 1:]
        lone = (side == 0) & zero[:-1]
        if lone.any():
            side[lone & zero[1:]] = -1
            # free nodes held at memory from zero nodes at both ends have an edge
            # too many: the right end takes the side its chained opening lies on
            lone[-1] = False
            for e in np.flatnonzero(lone & ~zero[1:]).tolist():
                j, e = 2.0 * psi[e], e + 1
                while side[e] == 0 and not zero[e + 1] and e < n - 1:
                    j, e = 2.0 * psi[e] - j, e + 1
                if side[e] == 0 and zero[e + 1]:
                    side[e] = 1 if 0.5 * j > psi[e] else -1
        face = state == solved
        x = (state > 0) * fixed  # J, then nu
        idx = np.flatnonzero(face)
        if idx.size:
            x[idx] = np.linalg.solve(kkt.take(idx, 0).take(idx, 1), (rhs - kkt @ x)[idx])
        if cur is not None:
            # step to the face optimum or to the first sign change past the tolerance
            d = x[:n + 1] - cur
            ds = 0.5 * (d[:-1] + d[1:])
            with np.errstate(divide="ignore", invalid="ignore"):
                reach = np.concatenate((np.where(~zero & (d < -RESIDUAL_TOL * scale_j), cur / -d, np.inf),
                                        np.where(side * ds * live[n + 1:] < -RESIDUAL_TOL * scale_j,
                                                 (_edge_openings(cur) - psi) / -ds, np.inf)))
            block = int(np.argmin(reach))
            if reach[block] < 1.0:
                cur = np.maximum(cur + reach[block] * d, 0.0)
                state[block] = 0  # the node closes, or the edge reaches its memory
                continue
            cur = np.maximum(x[:n + 1], 0.0)
        res = (kkt @ x - rhs) / scale  # mu at the nodes, s - psi at the edges
        # each sign condition reads v >= 0 in units of its scale: J or mu
        # at the nodes, lam at memory (also v <= 1), and the side of the
        # memory the opening lies on elsewhere
        v = np.where(face, x / unit, res) * np.where(state < 0, -live, live)
        at = state == at_memory
        flip = (v < -RESIDUAL_TOL) | (at & (v > 1.0 + RESIDUAL_TOL))
        if not flip.any():
            if np.abs(res[face]).max(initial=0.0) > RESIDUAL_TOL:
                raise PlanarNumericError("face solve missed its equations: no KKT point")
            return np.maximum(x[:n + 1], 0.0), x[n + 1:] / nu_max
        if cur is not None:
            # at a face optimum only a multiplier can fail: release the worst
            flip[:] = False
            flip[int(np.argmin(np.where(at, np.minimum(v, 1.0 - v), v)))] = True
        # a node opens or closes, an edge reaches its memory or leaves it
        # on the side its lam points to
        state = np.where(flip, np.where(at, np.where(v > 1.0, 1, -1), (1 - state) * solved), state)


# the convex subproblems solved on each grid that is still alive: the four
# starts of a tearing step share a grid, and about a quarter of their DC
# iterations meet slopes that an earlier start solved for already
_SOLVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class AMResult:
    nodal_jumps: np.ndarray    # read-only: the memo of solved subproblems may hold it
    energies: np.ndarray       # start, then each accepted DC iteration; nonincreasing
    iterations: int


def alternate_minimize(
    grid: Grid2D,
    t: float,
    laws: RescaledLaws,
    start_jumps: np.ndarray | None = None,
    target_energy: float | None = None,
) -> AMResult:
    """Minimize the reduced lip energy over the nodal jumps by DC iterations.

    The energy is ``2 bw q.S.q + w sum phi(opening v psi)``, ``psi`` the
    memory of ``grid``.  The law is concave with slope at most ``a``, so
    with ``m = max(s, psi)`` each edge term is the convex ``a m`` minus
    the convex ``a m - phi(m)``.  DC iterations (Pham Dinh & Le Thi, Acta
    Math. Vietnam. 22, 1997) linearize the second part at the current
    jumps, with slope ``zeta = a - phi'(s)`` on edges open past their
    memory and 0 elsewhere, and solve the convex problem left exactly
    (:func:`_lip_subproblem`), once per load, laws, memory and slopes on
    ``grid``; a solution is kept only when it lowers the energy strictly.
    They stop when ``zeta`` repeats, when a step gains less than
    ``AM_TOL`` or when ``target_energy`` is matched, and raise
    ``PlanarNonconvergence`` after ``AM_MAX_ITERS``.  ``iterations``
    counts the DC iterations; ``energies`` holds the start energy and one
    entry per kept step, so it is nonincreasing.

    The solve runs at ``|t|`` from ``|start_jumps|`` and returns
    ``sign(t)`` times its jumps: ``S`` is an M-matrix with positive row
    sums, so for ``t >= 0`` ``|J|`` never prices above ``J``.  The end
    point is a critical point of the split, not a certified global
    minimum.  A load or start jump that is not finite raises
    ``ValueError`` before any solve.
    """
    n = grid.n
    jumps = np.zeros(n + 1) if start_jumps is None else np.abs(np.asarray(start_jumps, dtype=float))
    if jumps.shape != (n + 1,):
        raise ValueError("start_jumps must give one value per lip node")
    bad = [v for v in (t, *jumps.tolist()) if not math.isfinite(v)]
    if bad:
        raise ValueError(f"load and start jumps must be finite, got {bad[0]}")

    load, phi, memo = abs(t), laws.phi, _SOLVED.setdefault(grid, {})
    energies = [_lip_energy(grid, laws, load, jumps)]
    zeta, iterations = np.full(n, np.nan), 0  # NaN: equal to no slope
    for _ in range(AM_MAX_ITERS):
        s = _edge_openings(jumps)
        new_zeta = np.where(s > grid.psi, phi.a - phi.deriv(s), 0.0)
        if (new_zeta == zeta).all():
            break
        zeta, iterations = new_zeta, iterations + 1
        key = (load, laws, grid.psi.tobytes(), zeta.tobytes())
        if key not in memo:
            memo[key] = _lip_subproblem(grid, laws, load, zeta, jumps)[0]
        trial = memo[key]
        e = _lip_energy(grid, laws, load, trial)
        if not e < energies[-1]:
            break
        gain, jumps = energies[-1] - e, trial
        energies.append(e)
        if gain < AM_TOL or target_energy is not None and (
            e <= target_energy + max(10.0 * AM_TOL, 1e-8 * (1.0 + abs(target_energy)))
        ):
            break
    else:
        raise PlanarNonconvergence(last_energy=energies[-1], iterations=AM_MAX_ITERS)
    jumps = -jumps if t < 0.0 else jumps
    jumps.setflags(write=False)
    return AMResult(nodal_jumps=jumps, energies=np.asarray(energies), iterations=iterations)


@dataclass(frozen=True, eq=False)
class TearingStep:
    time: float
    nodal_jumps: np.ndarray    # the winning start's read-only array
    psi: np.ndarray            # the memory after the step
    energy: float


def evolve_tearing(grid: Grid2D, times, laws: RescaledLaws) -> list[TearingStep]:
    """Incremental tearing evolution, each step minimized by DC iterations.

    The memory starts at ``grid.psi``.  Each step runs
    :func:`alternate_minimize` from the fully torn state, the elastic
    solution with the memory edges open, the previous jumps and zero,
    keeping the lowest energy (a start stops once it matches the best so
    far); the memory then absorbs the new openings.  Each start ends at a
    critical point with no global certificate, and the competing starts
    catch the coarse branch switches.  The previous-jumps start is never
    the only one to reach a step's best energy (a 756-step scan over both
    laws), but it bounds the step by the previous state: DC only descends
    from it, and the kept best is never more than 1e-12 above a converged
    start's end, so the forward slack ``E(J_{k-1}; t_k, psi_{k-1}) - E_k``
    that ``cli tear --check`` asserts is at least -1e-12 by construction
    (at the first time the zero start, the state before it, plays that
    part).  A start that stalls against ``AM_MAX_ITERS`` is dropped as
    long as another one converged, and then that bound may fail.  A time
    that is not finite raises ``ValueError`` before any solve.
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
