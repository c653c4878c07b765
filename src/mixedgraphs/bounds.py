"""Closed-form bound calculators, all in exact integer arithmetic.

Every function returns integers computed without floating point, so the
values stay trustworthy at any size.  Hypothesis guards are explicit:
calculators either validate their preconditions or report that the
hypothesis fails instead of extrapolating.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt

from .core import MixedGraph

_POWER_TABLES: dict[int, list[int]] = {}


def _powers(base: int, at_least: int) -> list[int]:
    table = _POWER_TABLES.setdefault(base, [1])
    while table[-1] < at_least:
        table.append(table[-1] * base)
    return table


def ceil_log(base: int, value: int) -> int:
    """Least s >= 0 with base**s >= value (integer ceiling of log_base).

    Exact for any size; backed by a cached power table so repeated calls
    are cheap.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    return bisect_left(_powers(base, value), value)


def nr_upper(k: int, p: int) -> int:
    """Chromatic upper bound k * p**(k-1) for acyclic chromatic number k."""
    if k < 1 or p < 1:
        raise ValueError("k and p must be >= 1")
    return k * p ** (k - 1)


def planar_upper(p: int) -> int:
    """Chromatic upper bound 5 * p**4 for planar graphs (acyclic number 5)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 5 * p**4


def arb_upper_from_chi(k: int, p: int) -> int:
    """Arboricity upper bound ceil(log_p k + k/2) for chromatic number k.

    Computed exactly: with t = ceil_log(p, k*k) and r = k mod 2 the
    value equals k//2 + (t + r + 1)//2, because t is the ceiling of
    log_p(k**2) = 2*log_p(k) and the half-integer cases collapse.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    t = ceil_log(p, k * k)
    r = k & 1
    return k // 2 + (t + r + 1) // 2


def acyclic_upper_from_arb(k: int, r: int, p: int) -> int:
    """Acyclic upper bound k ** (ceil_log(p, r) + 1) from chi <= k, arb <= r."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return k ** (ceil_log(p, r) + 1)


def _ceil_log_log(k: int, p: int, outer: int) -> int:
    """Integer ceiling of log_outer(log_p(k)), exact, possibly negative.

    Uses the equivalence outer**s >= log_p(k)  <=>  p**(outer**s) >= k,
    which for negative s reads p >= k**(outer**(-s)).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    def holds(s: int) -> bool:
        if s >= 0:
            return p ** (outer**s) >= k
        return p >= k ** (outer ** (-s))

    s = 0
    if holds(0):
        while holds(s - 1):
            s -= 1
    else:
        while not holds(s):
            s += 1
    return s


def acyclic_upper_from_chi(k: int, p: int, outer_log2: bool = False) -> int:
    """Acyclic upper bound k*k + k ** (2 + ceil(log_p log_p k)) from chi = k.

    Valid for k >= 4.  ``outer_log2`` switches the outer logarithm to
    base 2, the looser published variant; the default base-p exponent is
    what the pipeline argument actually supports.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    exponent = 2 + _ceil_log_log(k, p, 2 if outer_log2 else p)
    if exponent < 0:
        raise ValueError(
            f"degenerate parameters: exponent 2 + ceil(log log) = {exponent}"
        )
    return k * k + k**exponent


@dataclass(frozen=True)
class DegreeBounds:
    """Bounds on the chromatic number over all graphs of maximum degree delta.

    ``lower`` is the integer ceiling of p**(delta/2); ``lower_squared``
    is p**delta so callers can compare exactly via x*x >= lower_squared.
    ``upper`` applies only for delta >= 5 and is None otherwise.
    """

    delta: int
    p: int
    lower: int
    lower_exact: bool
    lower_squared: int
    upper: int | None
    upper_applies: bool


def degree_bounds(delta: int, p: int) -> DegreeBounds:
    """Chromatic bounds p**(delta/2) <= max chi <= 2(delta-1)**p p**(delta-1) + 2.

    The lower bound holds for every delta >= 1; the upper bound's
    hypothesis needs delta >= 5, so below that only the lower side is
    reported.  The upper bound is the order c = 2(delta-1)**p p**(delta-1)
    of ``targets.lemma_parameters(signature, delta)``, whose targets
    absorb every graph of degeneracy delta - 1 greedily, plus the two
    vertices that ``targets.extend_regular`` adds for a delta-regular
    source, whose degeneracy is delta.  The paper's abstract states the
    bound as c, without the + 2.
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    squared = p**delta
    root = isqrt(squared)
    exact = root * root == squared
    lower = root if exact else root + 1
    applies = delta >= 5
    upper = 2 * (delta - 1) ** p * p ** (delta - 1) + 2 if applies else None
    return DegreeBounds(delta, p, lower, exact, squared, upper, applies)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality with both sides kept as exact integers."""

    name: str
    value: int
    compared: int
    satisfied: bool
    detail: str


def counting_inequality_check(graph: MixedGraph, k: int) -> BoundReport:
    """Compare p**C(k,2) * k**order with p**edges for the underlying graph.

    The underlying graph of ``graph`` has p**edges (m,n)-colorings.  Each
    one with chi <= k is the pullback of a map of the vertices into one
    of the p**C(k,2) complete targets on k vertices, so at most
    p**C(k,2) * k**order of them have chi <= k.  A False report therefore
    certifies that *some* coloring of the underlying graph has chi > k,
    the step behind the paper's (2m+n)**(delta/2) lower bound.  It says
    nothing about the coloring in ``graph``, whose chi may still be at
    most k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = graph.signature.p
    lhs = p ** (k * (k - 1) // 2) * k**graph.order
    rhs = p**graph.e_count
    return BoundReport(
        name="counting-inequality",
        value=lhs,
        compared=rhs,
        satisfied=lhs >= rhs,
        detail=(
            f"p^C(k,2) * k^order = {lhs} vs p^edges = {rhs} "
            f"for k={k}, p={p}, order={graph.order}, edges={graph.e_count}"
        ),
    )
