#!/usr/bin/env python3
"""Size-effect sweep on the tearing bar, one regime verdict per exponent.

Runs the rescaled evolutions for several scaling exponents on a shared
size ladder and prints the sup-distance to the brittle reference next to
the classifier verdict, which is the quickest way to see the regime
boundary at alpha = 1/2 move.
"""

import argparse

from cohesivefrac.bar1d import Domain1D
from cohesivefrac.config import SweepSection
from cohesivefrac.laws import CohesiveLaw, LawKind
from cohesivefrac.scaling import BarProblem, classify_regime, nonincreasing, size_effect_sweep


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", default="dugdale", choices=[k.value for k in LawKind])
    parser.add_argument("--a", type=float, default=2.0, help="initial cohesive slope")
    parser.add_argument("--elements", type=int, default=4)
    parser.add_argument("--horizon", type=float, default=2.0)
    parser.add_argument("--alphas", default="0.25,0.5,0.75",
                        help="comma list of scaling exponents")
    parser.add_argument("--h", default="1,10,100,1000",
                        help="comma list of sizes, increasing")
    args = parser.parse_args()

    # every input fails here, before any solve
    try:
        law = CohesiveLaw(LawKind(args.kind), args.a)
        base = BarProblem.tearing(Domain1D.uniform(1.0, args.elements), law, args.horizon)
        h_list = [float(v) for v in args.h.split(",")]
        alphas = [float(v) for v in args.alphas.split(",")]
        for alpha in alphas:
            SweepSection(alpha, tuple(h_list), None)
    except ValueError as err:
        parser.error(str(err))

    for alpha in alphas:
        report = size_effect_sweep(base, alpha, h_list)
        verdict = classify_regime(report).value
        print(f"alpha = {alpha:g}  ->  {verdict}")
        print(f"  {'h':>10} {'gap_sup':>12} {'bulk_gap':>12} {'grad_l1':>12}")
        for row in report.rows:
            print(f"  {row.h:>10g} {row.gap_sup:>12.4g} "
                  f"{row.bulk_gap_sup:>12.4g} {row.initial_grad_l1:>12.4g}")
        print(f"  gap monotone: {nonincreasing([row.gap_sup for row in report.rows])}")


if __name__ == "__main__":
    main()
