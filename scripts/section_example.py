#!/usr/bin/env python3
"""Membership grid of the example's subfixed set on the slice x3 = 0.

Emits a CSV of 0/1 cells (rows sweep x2 from high to low, columns sweep x1
from low to high), ready for plotting with any external tool.
"""

import argparse
from fractions import Fraction

from tropcone.cli import section_ticks
from tropcone.errors import MalformedInput
from tropcone.fixtures import example_graph
from tropcone.graph import subfixed
from tropcone.scalars import rational_from_str


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=rational_from_str, default=Fraction(-9, 2))
    parser.add_argument("--hi", type=rational_from_str, default=Fraction(5, 2))
    parser.add_argument("--step", type=rational_from_str, default=Fraction(1, 4))
    parser.add_argument("--x3", type=rational_from_str, default=Fraction(0))
    args = parser.parse_args(argv)
    try:
        ticks = section_ticks(args.lo, args.hi, args.step, 2)
    except MalformedInput as exc:
        parser.error(str(exc))

    g = example_graph()
    for y in reversed(ticks):
        print(",".join("1" if subfixed(g, (x, y, args.x3)) else "0" for x in ticks))


if __name__ == "__main__":
    main()
