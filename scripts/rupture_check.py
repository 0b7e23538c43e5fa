#!/usr/bin/env python3
"""Rupture regime on a precracked bar under an offset ramp.

The bar starts with a fully opened site at the midpoint and the load
keeps a unit offset, so reopening is free and the gradient must vanish
as the size grows.  Prints the hard gradient bound next to the measured
initial-time gradient and checks that the late-size evolutions realize
the minimal piecewise-constant partition of the datum.
"""

import argparse

import numpy as np

from cohesivefrac.bar1d import Domain1D
from cohesivefrac.config import SweepSection
from cohesivefrac.laws import CohesiveLaw, LawKind
from cohesivefrac.scaling import (
    BarProblem,
    classify_regime,
    piecewise_constant_minimum,
    size_effect_sweep,
    trace_jump_counts,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="dugdale", choices=[k.value for k in LawKind])
    parser.add_argument("--a", type=float, default=2.0)
    parser.add_argument("--alpha", type=float, default=0.75)
    parser.add_argument("--elements", type=int, default=4)
    parser.add_argument("--h", default="1,16,256")
    args = parser.parse_args()

    # every input fails here, before any solve
    try:
        law = CohesiveLaw(LawKind(args.kind), args.a)
        base = BarProblem(
            Domain1D.uniform(1.0, args.elements, crack=((0.5, 1.0),)),
            law,
            lambda t: 0.0,
            lambda t: 1.0 + t,
            1.0,
        )
        h_list = [float(v) for v in args.h.split(",")]
        SweepSection(args.alpha, tuple(h_list))
    except ValueError as err:
        parser.error(str(err))
    report = size_effect_sweep(base, args.alpha, h_list)

    print(f"verdict: {classify_regime(report).value}")
    print(f"{'h':>10} {'grad_l1':>12} {'bound':>12} {'slack':>12}")
    for row in report.rows:
        slack = row.rupture_bound - row.initial_grad_l1
        print(f"{row.h:>10g} {row.initial_grad_l1:>12.4g} "
              f"{row.rupture_bound:>12.4g} {slack:>12.4g}")

    pieces = piecewise_constant_minimum((0.0, 2.0))
    counts = trace_jump_counts(report.rows[-1].trace)
    print(f"datum needs {pieces} jump(s); largest size uses "
          f"{np.min(counts)}..{np.max(counts)} along the ramp")


if __name__ == "__main__":
    main()
