"""Piecewise affine displacements on a 1d bar with point cracks.

The bar occupies ``(0, L)``.  A displacement is stored as one slope per
mesh element plus a sparse map of signed jumps keyed by node index.  Jump
slots exist at every interior node and, when the corresponding end is a
Dirichlet end, at the boundary nodes; a boundary "jump" is the mismatch
between the displacement trace and the boundary datum, stored as
trace-minus-datum (only its magnitude enters the energy, so the sign
convention is a bookkeeping choice).

The crack history is a map from node index to the largest opening ever
reached there.  A site with positive memory contributes its cohesive
energy even while the current jump is zero: surface energy is paid per
opening level reached, never refunded.

Energies are evaluated against a :class:`~cohesivefrac.laws.RescaledLaws`
bundle so the same code serves unit-size and size-swept problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from cohesivefrac.laws import RescaledLaws

__all__ = [
    "LEFT",
    "RIGHT",
    "Domain1D",
    "CrackState",
    "Displacement1D",
    "EnergyBreakdown",
    "total_energy",
    "griffith_energy",
    "consistency_residual",
    "make_displacement",
]

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class Domain1D:
    """Meshed bar with Dirichlet flags and a preexisting crack.

    ``nodes`` are the M+1 mesh nodes, strictly increasing from 0 to the bar
    length.  ``preexisting_crack`` pairs a node index with the initial
    opening memory at that site; sites must be interior nodes or Dirichlet
    endpoints, and the initial opening must be positive (zero memory means
    the site simply is not part of the initial crack).
    """

    nodes: np.ndarray
    dirichlet: frozenset = frozenset({LEFT, RIGHT})
    preexisting_crack: tuple = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "dirichlet", frozenset(self.dirichlet))
        object.__setattr__(
            self,
            "preexisting_crack",
            tuple((int(s), float(v)) for s, v in self.preexisting_crack),
        )
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must increase strictly from 0")
        if not self.dirichlet <= {LEFT, RIGHT}:
            raise ValueError(f"unknown Dirichlet sites: {set(self.dirichlet)}")
        for site, gamma in self.preexisting_crack:
            if not self.is_jump_site(site):
                raise ValueError(f"crack site {site} is not a valid jump site")
            if gamma <= 0.0:
                raise ValueError("preexisting opening must be positive")

    @staticmethod
    def uniform(length: float, elements: int, dirichlet=(LEFT, RIGHT), crack=()):
        """Uniform mesh; ``crack`` pairs are (coordinate, opening), snapped to nodes."""
        if length <= 0.0 or elements < 1:
            raise ValueError("need positive length and at least one element")
        nodes = np.linspace(0.0, length, elements + 1)
        snapped = tuple((int(np.argmin(np.abs(nodes - x))), float(v)) for x, v in crack)
        return Domain1D(nodes, frozenset(dirichlet), snapped)

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def element_lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    def is_jump_site(self, site: int) -> bool:
        last = self.n_elements
        if 0 < site < last:
            return True
        if site == 0:
            return LEFT in self.dirichlet
        if site == last:
            return RIGHT in self.dirichlet
        return False

    def jump_sites(self) -> list[int]:
        """All candidate crack sites, left to right."""
        return [s for s in range(self.n_elements + 1) if self.is_jump_site(s)]

    def initial_crack_state(self) -> "CrackState":
        return CrackState(dict(self.preexisting_crack))


@dataclass(frozen=True)
class CrackState:
    """Opening memory per site.  Sites never leave and values never decrease."""

    psi: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "psi", {int(s): float(v) for s, v in dict(self.psi).items() if v > 0.0}
        )

    def value(self, site: int) -> float:
        return self.psi.get(site, 0.0)

    @property
    def sites(self) -> frozenset:
        return frozenset(self.psi)

    def updated(self, jumps: Mapping[int, float]) -> "CrackState":
        """Memory update after a step: psi' = psi v |jump|, fresh sites enter."""
        new = dict(self.psi)
        for site, j in jumps.items():
            opening = abs(j)
            if opening > new.get(site, 0.0):
                new[int(site)] = opening
        return CrackState(new)

    def extends(self, earlier: "CrackState", tol: float = 0.0) -> bool:
        """Irreversibility: every earlier site is retained with no smaller psi."""
        return all(self.value(s) >= v - tol for s, v in earlier.psi.items())


@dataclass(frozen=True)
class Displacement1D:
    """Slopes per element plus sparse signed jumps keyed by node index.

    Interior entries are ``u(x+) - u(x-)``; entries at Dirichlet boundary
    nodes are trace-minus-datum mismatches.
    """

    slopes: np.ndarray
    jumps: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "slopes", np.asarray(self.slopes, dtype=float))
        object.__setattr__(
            self, "jumps", {int(s): float(v) for s, v in dict(self.jumps).items() if v != 0.0}
        )

    def oriented_jumps(self, domain: Domain1D) -> dict[int, float]:
        """Jumps oriented as increments of the extended function, left to right.

        Interior values and the left-boundary mismatch are already oriented;
        the right-boundary mismatch flips sign because crossing the right
        end goes from trace to datum.
        """
        out = dict(self.jumps)
        last = domain.n_elements
        if last in out:
            out[last] = -out[last]
        return out

    def max_opening(self) -> float:
        return max((abs(v) for v in self.jumps.values()), default=0.0)

    def validate(self, domain: Domain1D) -> None:
        if self.slopes.shape != (domain.n_elements,):
            raise ValueError(
                f"expected {domain.n_elements} slopes, got shape {self.slopes.shape}"
            )
        for site in self.jumps:
            if not domain.is_jump_site(site):
                raise ValueError(f"jump at invalid site {site}")


@dataclass(frozen=True)
class EnergyBreakdown:
    bulk: float
    surface: float

    @property
    def total(self) -> float:
        return self.bulk + self.surface


def _check_boundary_data(domain: Domain1D, g) -> tuple:
    gl, gr = g
    if LEFT in domain.dirichlet and gl is None:
        raise ValueError("left end is Dirichlet but no datum given")
    if RIGHT in domain.dirichlet and gr is None:
        raise ValueError("right end is Dirichlet but no datum given")
    return gl, gr


def total_energy(
    u: Displacement1D,
    crack: CrackState,
    g,
    laws: RescaledLaws,
    domain: Domain1D,
) -> EnergyBreakdown:
    """Cohesive energy of ``u`` given the opening memory ``crack``.

    bulk    = bulk_weight * sum_e len_e * f(slope_e)
    surface = surface_weight * sum over {psi > 0} u {jump != 0} of phi(|jump| v psi)

    ``g = (g_left, g_right)`` enters only through validation: boundary
    mismatches are stored on the displacement itself.
    """
    u.validate(domain)
    _check_boundary_data(domain, g)
    surface = 0.0
    for site in sorted(set(u.jumps) | crack.sites):
        opening = max(abs(u.jumps.get(site, 0.0)), crack.value(site))
        surface += float(laws.phi(opening))
    bulk = float(np.sum(domain.element_lengths * laws.bulk(u.slopes)))
    return EnergyBreakdown(
        bulk=laws.bulk_weight * bulk,
        surface=laws.surface_weight * surface,
    )


def griffith_energy(
    u: Displacement1D,
    crack_sites: Iterable[int],
    domain: Domain1D,
    laws: RescaledLaws | None = None,
) -> EnergyBreakdown:
    """Brittle energy: quadratic bulk plus a unit count per crack site.

    Every site in the current crack set costs 1 regardless of opening, and
    each jump site outside it adds 1 (this is the counting measure of the
    extended jump set).  With ``laws`` given, bulk and surface weights are
    applied; the bulk density stays exactly quadratic.
    """
    u.validate(domain)
    bw = laws.bulk_weight if laws is not None else 1.0
    sw = laws.surface_weight if laws is not None else 1.0
    existing = set(crack_sites)
    bulk = bw * float(np.sum(domain.element_lengths * u.slopes**2))
    fresh = sum(1 for s in u.jumps if s not in existing)
    return EnergyBreakdown(bulk=bulk, surface=sw * float(len(existing) + fresh))


def consistency_residual(u: Displacement1D, domain: Domain1D, g) -> float:
    """Defect of the closed walk datum -> trace -> ... -> trace -> datum.

    Zero iff the stored boundary mismatches close the identity
    ``left trace + sum(slope*len) + sum(interior jumps) = right trace``
    when both ends are Dirichlet.
    """
    gl, gr = _check_boundary_data(domain, g)
    if not (LEFT in domain.dirichlet and RIGHT in domain.dirichlet):
        raise ValueError("consistency check requires Dirichlet conditions at both ends")
    oriented = u.oriented_jumps(domain)
    walk = gl + sum(oriented.values()) + float(np.sum(domain.element_lengths * u.slopes))
    return walk - gr


def make_displacement(
    domain: Domain1D,
    g,
    slopes,
    oriented_jumps: Mapping[int, float] | None = None,
) -> Displacement1D:
    """Build a displacement from oriented jumps, converting to storage signs.

    ``oriented_jumps`` are increments of the extended function crossing each
    site left to right (boundary slots included).  When both ends are
    Dirichlet the closure identity is enforced to 1e-9.
    """
    _check_boundary_data(domain, g)
    oriented = {int(s): float(v) for s, v in (oriented_jumps or {}).items()}
    stored = dict(oriented)
    last = domain.n_elements
    if last in stored:
        stored[last] = -stored[last]
    u = Displacement1D(np.asarray(slopes, dtype=float), stored)
    u.validate(domain)
    if LEFT in domain.dirichlet and RIGHT in domain.dirichlet:
        res = consistency_residual(u, domain, g)
        scale = 1.0 + abs(g[0]) + abs(g[1])
        if abs(res) > 1e-9 * scale:
            raise ValueError(f"jumps and slopes do not close the boundary data: {res}")
    return u
