"""Exact Dugdale step minimum of the plate, independent of the DC solver.

For Dugdale ``phi(m) = min(a m, 1)`` is the smaller of the convex piece
``a m`` and the constant 1, so the step energy is the least, over the
``2^n`` subsets ``T`` of edges charged 1, of a convex problem in the
nodal jumps.  Each problem is solved by scipy's SLSQP in the epigraph
form: jumps ``J >= 0`` and one ``u_e >= max(s_e, psi_e)`` per edge
outside ``T``, with ``s_e = (J_i + J_i+1)/2``.  For ``t >= 0`` no jump
need be negative (``S`` is an M-matrix with positive row sums), which
is what lets ``s`` be linear.  Every candidate is re-priced with
``planar2d._lip_energy``, so the minimum returned is an energy of real
jumps.  The cost is ``2^n`` solves: meant for ``n = 8``.
"""

import itertools

import numpy as np
from scipy.optimize import minimize

from cohesivefrac.laws import LawKind
from cohesivefrac.planar2d import _lip_energy, _lip_operator


def step_minimum(grid, laws, t):
    """``(energy, jumps)`` of the least Dugdale lip energy at load ``t >= 0``."""
    if laws.phi.kind is not LawKind.DUGDALE or t < 0.0:
        raise ValueError("the subset split holds for Dugdale at t >= 0 only")
    n, psi = grid.n, grid.psi
    stiff = _lip_operator(n).stiffness
    bw, w, a = laws.bulk_weight, laws.surface_weight * grid.spacing, laws.phi.a
    avg = 0.5 * (np.eye(n, n + 1) + np.eye(n, n + 1, 1))
    bounds = [(0.0, None)] * (n + 1) + [(p, None) for p in psi]
    x0 = np.concatenate((np.full(n + 1, 2.0 * t), np.maximum(2.0 * t, psi)))
    best = (np.inf, None)
    for charged in itertools.product((False, True), repeat=n):
        charged = np.array(charged)
        cost = np.where(charged, 0.0, w * a)
        rows = np.flatnonzero(~charged)

        # bulk 2 q.S.q with q = t - J/2, plus the convex surface pieces
        def energy(x, cost=cost):
            q = t - 0.5 * x[:n + 1]
            return 2.0 * bw * float(q @ stiff @ q) + float(cost @ x[n + 1:])

        def grad(x, cost=cost):
            q = t - 0.5 * x[:n + 1]
            return np.concatenate((-2.0 * bw * (stiff @ q), cost))

        jac = np.hstack((-avg[rows], np.eye(n)[rows]))  # u_e - s_e >= 0
        cons = [{"type": "ineq", "fun": lambda x, jac=jac: jac @ x, "jac": lambda x, jac=jac: jac}]
        res = minimize(energy, x0, jac=grad, bounds=bounds, constraints=cons,
                       method="SLSQP", options={"ftol": 1e-15, "maxiter": 500})
        jumps = np.maximum(res.x[:n + 1], 0.0)
        e = _lip_energy(grid, laws, t, jumps)
        if e < best[0]:
            best = (e, jumps)
    return best
