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

# At most _TABLE_BASES bases below _TABLE_TOP keep their powers, each up to
# the first one >= _TABLE_TOP: at most _TABLE_TOP.bit_length() entries a
# base, whatever values ceil_log is asked about.
_TABLE_TOP = 1 << 256
_TABLE_BASES = 64
_POWER_TABLES: dict[int, list[int]] = {}


def _power_table(base: int) -> list[int]:
    """The powers of ``base`` up to the first >= _TABLE_TOP, kept for later
    calls; a cache already holding _TABLE_BASES bases is emptied first."""
    if len(_POWER_TABLES) >= _TABLE_BASES:
        _POWER_TABLES.clear()
    table = [1]
    while table[-1] < _TABLE_TOP:
        table.append(table[-1] * base)
    _POWER_TABLES[base] = table
    return table


def _ceil_log_search(base: int, value: int) -> int:
    """``ceil_log`` by binary lifting, storing nothing beyond the call.

    The squares base**(2**j) are made until one reaches ``value``; the
    largest t with base**t < value is then read off them bit by bit, from
    the top, and the answer is t + 1.  Each step multiplies integers
    below ``value``, so the cost is O(log log_base(value)) products.
    """
    if value == 1:
        return 0
    squares = [base]
    while squares[-1] < value:
        squares.append(squares[-1] * squares[-1])
    squares.pop()
    t, power = 0, 1
    for j in range(len(squares) - 1, -1, -1):
        step = power * squares[j]
        if step < value:
            t, power = t + (1 << j), step
    return t + 1


def ceil_log(base: int, value: int) -> int:
    """Least s >= 0 with base**s >= value (integer ceiling of log_base).

    Exact for any size, with no floating point.  Values up to _TABLE_TOP
    are answered by bisection in the base's cached power table; larger
    values, and bases of _TABLE_TOP or more, by ``_ceil_log_search``,
    which keeps nothing, so the cache stays bounded.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if base < _TABLE_TOP:
        table = _POWER_TABLES.get(base) or _power_table(base)
        if value <= table[-1]:
            return bisect_left(table, value)
    return _ceil_log_search(base, value)


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


def acyclic_upper_from_chi(k: int, p: int) -> int:
    """Acyclic upper bound k*k + k ** (2 + ceil(log_p log_p k)) from chi = k.

    Valid for k >= 4.  Both logarithms are to base p, as in the paper.
    The ceiling is ceil_log(p, ceil_log(p, k)): for k > p the least s
    with p**s >= log_p(k) is the least with p**s >= ceil_log(p, k),
    because p**s is an integer; for 2 <= k <= p, log_p(k) lies in
    (1/p, 1], so the ceiling is 0, as is ceil_log(p, 1).  The exponent
    is never below 2.
    """
    if k < 4:
        raise ValueError(f"k must be >= 4, got {k}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return k * k + k ** (2 + ceil_log(p, ceil_log(p, k)))


@dataclass(frozen=True)
class DegreeBounds:
    """Bounds on the chromatic number over all graphs of maximum degree delta.

    ``lower`` is the integer ceiling of p**(delta/2), and ``lower_exact``
    says whether p**delta is a perfect square, so that ``lower`` equals
    p**(delta/2) itself.  ``upper`` applies only for delta >= 5 and is
    None otherwise.
    """

    delta: int
    p: int
    lower: int
    lower_exact: bool
    upper: int | None


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
    upper = 2 * (delta - 1) ** p * p ** (delta - 1) + 2 if delta >= 5 else None
    return DegreeBounds(delta, p, lower, exact, upper)


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality with both sides kept as exact integers."""

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
        value=lhs,
        compared=rhs,
        satisfied=lhs >= rhs,
        detail=(
            f"p^C(k,2) * k^order = {lhs} vs p^edges = {rhs} "
            f"for k={k}, p={p}, order={graph.order}, edges={graph.e_count}"
        ),
    )
