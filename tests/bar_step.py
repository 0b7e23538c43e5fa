"""One bar step through the production path: ``evolve`` on a one-time program.

The tests that price a single step, the ``random-oracle`` gate among
them, take it from here, so the entry point they certify is the one
every evolution runs.
"""

import numpy as np

from cohesivefrac.bar1d import make_displacement
from cohesivefrac.evolution import LoadProgram, evolve


def one_step(domain, crack, g, laws, mode="cohesive"):
    """The displacement of one step from the memory ``crack`` to the data ``g``."""
    g = (float(g[0]), float(g[1]))
    trace = evolve(domain, crack, LoadProgram(np.zeros(1), [g[0]], [g[1]]), laws, mode)
    sites = domain.jump_sites()
    jumps = {s: j for s, j in zip(sites, trace.jumps[0].tolist()) if j != 0.0}
    return make_displacement(domain, g, float(trace.slope[0]), jumps)
