#!/usr/bin/env python3
"""Planar tearing: prefix sweep, incremental evolution, elastic-limit gaps.

Three stages on the unit square with a precracked prefix: the exhaustive
prefix-crack sweep at the final load (the global reference for monotone
patterns), the incremental evolution with irreversibility, and the
normalized bulk gap to the cracked elastic reference across sizes.
Optionally dumps the final displacement field as a plain-text matrix.
"""

import argparse
import math

import numpy as np

from cohesivefrac.config import SweepSection
from cohesivefrac.laws import CohesiveLaw, LawKind, rescale_laws
from cohesivefrac.planar2d import (
    Grid2D,
    evolve_tearing,
    prefix_crack_sweep,
    tearing_gap_ladder,
    write_field,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=32, help="cells per side, even")
    parser.add_argument("--a", type=float, default=2.0)
    parser.add_argument("--alpha", type=float, default=0.25)
    parser.add_argument("--crack-length", type=float, default=0.5)
    parser.add_argument("--gamma", type=float, default=0.1, help="initial memory")
    parser.add_argument("--times", default="0.2,0.4,0.6,0.8,1.0")
    parser.add_argument("--h", default="1,10,100,1000")
    parser.add_argument("--dump-field", help="write the final field to this path")
    args = parser.parse_args()

    # every input fails here, before any solve
    try:
        law = CohesiveLaw(LawKind.DUGDALE, args.a)
        times = [float(v) for v in args.times.split(",")]
        if not all(map(math.isfinite, times)):
            raise ValueError(f"load times must be finite, got {args.times}")
        grid = Grid2D.precracked(args.n, args.crack_length, args.gamma)
        h_list = [float(v) for v in args.h.split(",")]
        SweepSection(args.alpha, tuple(h_list))
    except ValueError as err:
        parser.error(str(err))
    laws = rescale_laws(law, 1.0, args.alpha)

    sweep = prefix_crack_sweep(grid, times[-1], laws)
    print(f"prefix sweep at t = {times[-1]:g}: best length {sweep.best_length:g}, "
          f"total {sweep.total[sweep.best_index]:.6g}")

    steps = evolve_tearing(grid, times, laws)
    print(f"{'t':>6} {'energy':>12} {'open edges':>12} {'max psi':>10}")
    for step in steps:
        jumps = step.nodal_jumps
        n_open = int(np.count_nonzero(np.abs(0.5 * (jumps[:-1] + jumps[1:])) > 1e-12))
        print(f"{step.time:>6g} {step.energy:>12.6g} {n_open:>12d} "
              f"{step.psi.max():>10.4g}")

    gaps = tearing_gap_ladder(law, args.alpha, h_list, args.n, args.crack_length,
                              args.gamma, times)
    print("elastic-limit gaps:", np.array2string(gaps, precision=4))

    if args.dump_field:
        write_field(steps[-1].field, args.dump_field)
        print(f"final field written to {args.dump_field}")


if __name__ == "__main__":
    main()
