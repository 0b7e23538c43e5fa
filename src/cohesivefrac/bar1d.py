"""Piecewise affine displacements on a 1d bar with point cracks.

The bar occupies ``(0, L)``.  A displacement is stored as one slope over
the whole bar plus a sparse map of signed jumps keyed by node index: the
bulk density is convex, so for any jumps a constant slope is optimal
(Jensen).  Both ends are held at prescribed displacements, so jump slots
exist at every node; a boundary "jump" is the mismatch between the
displacement trace and the boundary datum.  Every jump is stored
oriented, as the increment of the function extended by the data crossing
its site left to right: datum to trace at the left end, trace to datum
at the right end.  Only magnitudes enter the energy.

The crack history is a map from node index to the largest opening ever
reached there.  A site with positive memory contributes its cohesive
energy even while the current jump is zero: surface energy is paid per
opening level reached, never refunded.

Energies are evaluated against a :class:`~cohesivefrac.laws.RescaledLaws`
bundle so the same code serves unit-size and size-swept problems.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from cohesivefrac.laws import RescaledLaws

__all__ = [
    "Domain1D",
    "CrackState",
    "Displacement1D",
    "EnergyBreakdown",
    "total_energy",
    "griffith_energy",
    "consistency_residual",
    "make_displacement",
]


def _as_index(value, what: str) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer; anything else,
    a float with an integral value included, raises ``ValueError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} index must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Domain1D:
    """Meshed bar, held at both ends, with a preexisting crack.

    ``nodes`` are the M+1 mesh nodes, strictly increasing from 0 to the bar
    length.  ``preexisting_crack`` pairs a node index with the initial
    opening memory at that site; sites must be distinct nodes, and the
    initial opening must be positive and finite (zero memory means the
    site simply is not part of the initial crack).
    """

    nodes: np.ndarray
    preexisting_crack: tuple = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(
            self,
            "preexisting_crack",
            tuple((_as_index(s, "crack site"), float(v)) for s, v in self.preexisting_crack),
        )
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("mesh needs at least two nodes")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must increase strictly from 0")
        sites = [site for site, _ in self.preexisting_crack]
        for site, gamma in self.preexisting_crack:
            if not self.is_jump_site(site):
                raise ValueError(f"crack site {site} is not a valid jump site")
            if sites.count(site) > 1:
                raise ValueError(f"two entries on crack site {site} (x = {nodes[site]:g})")
            if not (gamma > 0.0 and math.isfinite(gamma)):
                raise ValueError(f"preexisting opening must be positive and finite, got {gamma}")

    @staticmethod
    def uniform(length: float, elements: int, crack=()):
        """Uniform mesh; ``crack`` pairs are (coordinate, opening), snapped to nodes."""
        if length <= 0.0 or elements < 1:
            raise ValueError("need positive length and at least one element")
        nodes = np.linspace(0.0, length, elements + 1)
        snapped = tuple((int(np.argmin(np.abs(nodes - x))), float(v)) for x, v in crack)
        return Domain1D(nodes, snapped)

    @property
    def length(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    def is_jump_site(self, site: int) -> bool:
        return 0 <= site <= self.n_elements

    def jump_sites(self) -> list[int]:
        """All candidate crack sites, left to right: every node."""
        return list(range(self.n_elements + 1))

    def initial_crack_state(self) -> "CrackState":
        return CrackState(dict(self.preexisting_crack))


@dataclass(frozen=True)
class CrackState:
    """Opening memory per site: finite and nonnegative, zero entries dropped."""

    psi: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        psi = {_as_index(s, "memory site"): float(v) for s, v in dict(self.psi).items()}
        bad = {s: v for s, v in psi.items() if not (v >= 0.0 and math.isfinite(v))}
        if bad:
            raise ValueError(f"memory must be finite and nonnegative, got {bad}")
        object.__setattr__(self, "psi", {s: v for s, v in psi.items() if v > 0.0})

    def value(self, site: int) -> float:
        return self.psi.get(site, 0.0)

    @property
    def sites(self) -> frozenset:
        return frozenset(self.psi)


@dataclass(frozen=True)
class Displacement1D:
    """One slope over the bar plus sparse signed jumps keyed by node index.

    Entries are oriented increments: ``u(x+) - u(x-)`` at interior nodes,
    trace minus datum at the left end and datum minus trace at the right
    end.
    """

    slope: float
    jumps: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "slope", float(self.slope))
        jumps = {_as_index(s, "jump site"): float(v) for s, v in dict(self.jumps).items()}
        object.__setattr__(self, "jumps", {s: v for s, v in jumps.items() if v != 0.0})

    def validate(self, domain: Domain1D) -> None:
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


def _check_boundary_data(g) -> tuple:
    gl, gr = g
    if gl is None or gr is None:
        raise ValueError("both ends are held: a datum is needed at each")
    return gl, gr


def total_energy(
    u: Displacement1D,
    crack: CrackState,
    laws: RescaledLaws,
    domain: Domain1D,
) -> EnergyBreakdown:
    """Cohesive energy of ``u`` given the opening memory ``crack``.

    bulk    = bulk_weight * (L * f(slope))
    surface = surface_weight * sum over {psi > 0} u {jump != 0} of phi(|jump| v psi)

    Boundary mismatches are stored on the displacement itself, so the
    data are not needed.  The bulk is the expression of the
    :func:`~cohesivefrac.evolution.evolve` column.
    """
    u.validate(domain)
    surface = 0.0
    for site in sorted(set(u.jumps) | crack.sites):
        opening = max(abs(u.jumps.get(site, 0.0)), crack.value(site))
        surface += float(laws.phi(opening))
    return EnergyBreakdown(
        bulk=laws.bulk_weight * (domain.length * laws.bulk(u.slope)),
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
    bulk = bw * (domain.length * u.slope**2)
    fresh = sum(1 for s in u.jumps if s not in existing)
    return EnergyBreakdown(bulk=bulk, surface=sw * float(len(existing) + fresh))


def consistency_residual(u: Displacement1D, domain: Domain1D, g) -> float:
    """Defect of the closed walk datum -> trace -> ... -> trace -> datum.

    Zero iff the oriented jumps, boundary mismatches included, and the
    slope carry the left datum to the right one,
    ``g_left + sum(jumps) + slope*L = g_right``.
    """
    gl, gr = _check_boundary_data(g)
    walk = gl + sum(u.jumps.values()) + u.slope * domain.length
    return walk - gr


def make_displacement(
    domain: Domain1D,
    g,
    slope: float,
    jumps: Mapping[int, float] | None = None,
) -> Displacement1D:
    """Build a displacement from oriented jumps and check it against the data.

    ``jumps`` are increments of the extended function crossing each site
    left to right (boundary slots included).  The closure identity is
    enforced to 1e-9.
    """
    u = Displacement1D(slope, jumps or {})
    u.validate(domain)
    res = consistency_residual(u, domain, g)
    scale = 1.0 + abs(g[0]) + abs(g[1])
    if abs(res) > 1e-9 * scale:
        raise ValueError(f"jumps and slope do not close the boundary data: {res}")
    return u
