"""Minimal primes and codimension of monomial ideals.

A monomial prime is identified with its set of variables (a PrimeSupport,
here a frozenset of (row, col) positions).  Minimal primes of a monomial
ideal are exactly the inclusion-minimal sets of variables meeting the
support of every generator, so everything reduces to hitting-set
combinatorics on the generator supports.
"""

from __future__ import annotations

import itertools

from .errors import CapacityError
from .monomial import INFINITY, inclusion_minimal, variable_components

__all__ = ["PrimeSupport", "minimal_primes", "codim", "codim_bruteforce"]

# A monomial prime ideal, as the set of its variable positions.
PrimeSupport = frozenset


def _minimal_supports(ideal):
    """Inclusion-minimal distinct generator supports (the radical's supports)."""
    return inclusion_minimal({frozenset(g.support()) for g in ideal.gens})


def minimal_primes(ideal, limit=None):
    """All minimal primes of a monomial ideal, as a frozenset of PrimeSupports.

    The unit ideal has none.  The zero ideal yields the single empty
    support, so that its codimension comes out as 0 without special cases.
    ``limit`` optionally caps the number of primes kept at any level;
    exceeding it raises CapacityError.
    """
    if ideal.is_unit:
        return frozenset()
    memo = {}

    def solve(supps):
        if not supps:
            return [frozenset()]
        cached = memo.get(supps)
        if cached is not None:
            return cached
        pivot = min(supps, key=lambda s: (len(s), tuple(sorted(s))))
        found = set()
        for v in sorted(pivot):
            rest = frozenset(s for s in supps if v not in s)
            for t in solve(rest):
                found.add(t | {v})
        result = inclusion_minimal(found)
        if limit is not None and len(result) > limit:
            raise CapacityError(f"more than {limit} minimal primes")
        memo[supps] = result
        return result

    return frozenset(solve(frozenset(_minimal_supports(ideal))))


def _greedy_cover_size(supports):
    remaining = list(supports)
    size = 0
    while remaining:
        counts = {}
        for s in remaining:
            for v in s:
                counts[v] = counts.get(v, 0) + 1
        best = max(sorted(counts), key=lambda v: counts[v])
        remaining = [s for s in remaining if best not in s]
        size += 1
    return size


def _packing_bound(supports):
    """Number of pairwise disjoint supports: a lower bound for the hitting number."""
    used = set()
    count = 0
    for s in sorted(supports, key=len):
        if used.isdisjoint(s):
            used.update(s)
            count += 1
    return count


def _branch_vars(pivot, supports):
    """Variables of the pivot worth branching on, after hit-set domination."""
    hits = {v: frozenset(i for i, s in enumerate(supports) if v in s) for v in pivot}
    ordered = sorted(pivot, key=lambda v: (-len(hits[v]), v))
    kept = []
    for v in ordered:
        if not any(hits[v] <= hits[w] and (hits[v] != hits[w] or w < v) for w in kept):
            kept.append(v)
    return kept


def _min_hitting(supports):
    best = _greedy_cover_size(supports)
    if _packing_bound(supports) == best:
        return best

    def dfs(supps, size, bound):
        if not supps:
            return size
        if size + _packing_bound(supps) >= bound:
            return bound
        pivot = min(supps, key=lambda s: (len(s), tuple(sorted(s))))
        for v in _branch_vars(pivot, supps):
            rest = [s for s in supps if v not in s]
            bound = min(bound, dfs(rest, size + 1, bound))
        return bound

    return dfs(supports, 0, best)


def codim(ideal):
    """Codimension (height): least number of variables in a prime containing the ideal.

    0 for the zero ideal, INFINITY for the unit ideal.
    """
    if ideal.is_unit:
        return INFINITY
    if ideal.is_zero:
        return 0
    supports = _minimal_supports(ideal)
    return sum(
        _min_hitting([supports[i] for i in group])
        for group in variable_components(supports)
    )


def codim_bruteforce(ideal, max_variables=20):
    """Codimension by enumerating variable subsets; a test oracle.

    Refuses ideals with more than ``max_variables`` variables.
    """
    if ideal.is_unit:
        return INFINITY
    if ideal.is_zero:
        return 0
    variables = ideal.variables()
    if len(variables) > max_variables:
        raise CapacityError(
            f"{len(variables)} variables exceed the brute-force guard {max_variables}"
        )
    supports = [frozenset(g.support()) for g in ideal.gens]
    for k in range(len(variables) + 1):
        for combo in itertools.combinations(variables, k):
            chosen = set(combo)
            if all(chosen & s for s in supports):
                return k
    return INFINITY
