#!/usr/bin/env python
"""Sweep Monte Carlo unit-ball volumes against closed forms across
exponents and dimensions, printing one line per case: the estimate, its
deviation, its wall seconds s and relerr * sqrt(s), the standard error
reached per second (relative stderr times the root of the time spent, so
lower is better and it does not depend on the sample count).

Exits 1 when any estimate lies beyond 5 standard errors (plus 1e-9 of the
closed form) from the closed form, 0 otherwise.

Usage: python scripts/volume_sweep.py [--seed N] [--samples M] [--dims 2 3 4]
"""

import argparse
import math
import sys
import time

from qnlab.geometry import volume
from qnlab.numkernel import RandomSource
from qnlab.spaces import WeightedLp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    args = parser.parse_args()
    rng = RandomSource(args.seed)
    worst = 0.0
    beyond = 0
    for i, p in enumerate((0.5, 2.0 / 3.0, 1.0, 2.0)):
        for d in args.dims:
            space = WeightedLp.unweighted(p, d)
            exact = volume(space, "closed-form")
            start = time.perf_counter()
            mc = volume(space, "monte-carlo", rng.split(i, d), args.samples)
            wall = time.perf_counter() - start
            rel = abs(mc.value - exact.value) / exact.value
            worst = max(worst, rel)
            off = abs(mc.value - exact.value) > 5.0 * mc.stderr + 1e-9 * exact.value
            beyond += off
            print(
                f"p={p:<8.4f} dim={d}  closed={exact.value:.6e}  "
                f"mc={mc.value:.6e} +- {mc.stderr:.1e}  rel={rel:.2e}  "
                f"wall={wall:.4f}s  relerr*sqrt(s)={mc.stderr / mc.value * math.sqrt(wall):.2e}"
                + ("  BEYOND 5 STDERR" if off else "")
            )
    print(f"worst relative deviation: {worst:.2e}; {beyond} case(s) beyond 5 stderr")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
