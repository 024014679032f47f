"""The running example: a real tropical cone in R^3 given as a min-max
operator, as a game graph, and as a union of polyhedra.

The irrational offset 2*pi appearing in the original operator is replaced
throughout by the rational surrogate TWO_PI below; all three descriptions
use the same value, so the exact cross-checks remain valid.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Edge, GameGraph, MinMaxOperator
from .lp import PolyhedralUnion, union_from_minmax

TWO_PI = Fraction(6283185307, 1000000000)

F = Fraction


def example_minmax() -> MinMaxOperator:
    a1 = (
        (F(0), F(0), F(1)),
        (F(1, 4), F(0), F(3, 4)),
        (F(1), F(0), F(0)),
    )
    a2 = (
        (F(0), F(1, 3), F(2, 3)),
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
    )
    b1 = (F(1), F(3, 4), F(0))
    b2 = (F(4, 3), TWO_PI, F(0))
    return MinMaxOperator(
        n=3,
        matrices=(a1, a2),
        offsets=(b1, b2),
        subsets=(((0, 1),), ((0, 1),), ((0, 1),)),
    )


def example_graph() -> GameGraph:
    """The graph encoding of the example operator:

    F1 = max(x3 + 1, x2/3 + 2 x3/3 + 4/3)
    F2 = max(x1/4 + 3 x3/4 + 3/4, x3 + TWO_PI)
    F3 = max(x1, x2)
    """
    edges = (
        Edge(1, 1, 11, payoff=F(0)),
        Edge(2, 2, 12, payoff=F(0)),
        Edge(3, 3, 13, payoff=F(0)),
        Edge(4, 11, 3, payoff=F(1)),
        Edge(5, 11, 22, payoff=F(4, 3)),
        Edge(6, 12, 21, payoff=F(3, 4)),
        Edge(7, 12, 3, payoff=TWO_PI),
        Edge(8, 13, 1, payoff=F(0)),
        Edge(9, 13, 2, payoff=F(0)),
        Edge(10, 21, 1, prob=F(1, 4)),
        Edge(11, 21, 3, prob=F(3, 4)),
        Edge(12, 22, 2, prob=F(1, 3)),
        Edge(13, 22, 3, prob=F(2, 3)),
    )
    return GameGraph((1, 2, 3), (11, 12, 13), (21, 22), edges)


def example_union() -> PolyhedralUnion:
    """The subfixed set {x <= F(x)} written as a union of polyhedra, one
    piece per choice of the maximizing branch in each coordinate."""
    return union_from_minmax(example_minmax())
