"""Test-side bar references: one step through the production path, and the
brittle energy that prices Griffith states.

The tests that price a single step, the ``random-oracle`` gate among
them, take it from ``one_step``, so the entry point they certify is the
one every evolution runs.  ``griffith_energy`` prices a state the
generic way, independently of the closed-form columns of ``evolve``.
"""

import numpy as np

from cohesivefrac.bar1d import EnergyBreakdown, make_displacement
from cohesivefrac.evolution import LoadProgram, evolve


def one_step(domain, crack, g, laws, mode="cohesive"):
    """The displacement of one step from the memory ``crack`` to the data ``g``."""
    g = (float(g[0]), float(g[1]))
    trace = evolve(domain, crack, LoadProgram(np.zeros(1), [g[0]], [g[1]]), laws, mode)
    sites = domain.jump_sites()
    jumps = {s: j for s, j in zip(sites, trace.jumps[0].tolist()) if j != 0.0}
    return make_displacement(domain, g, float(trace.slope[0]), jumps)


def griffith_energy(u, crack_sites, domain, laws=None):
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
