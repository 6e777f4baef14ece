"""Minimal primes and codimension of monomial ideals.

A monomial prime is identified with its set of variables (a PrimeSupport,
here a frozenset of (row, col) positions).  Minimal primes of a monomial
ideal are exactly the inclusion-minimal sets of variables meeting the
support of every generator, so everything reduces to hitting-set
combinatorics on the generator supports: minimal primes by Berge's
transversal rule, codimension by branch and bound.
"""

from __future__ import annotations

import itertools

from .errors import CapacityError
from .monomial import INFINITY, inclusion_minimal, variable_components

__all__ = ["PrimeSupport", "minimal_primes", "codim", "codim_bruteforce"]

# A monomial prime ideal, as the set of its variable positions.
PrimeSupport = frozenset


def _minimal_supports(ideal):
    """Inclusion-minimal distinct generator supports (the radical's), shortest first."""
    return inclusion_minimal({frozenset(g.support()) for g in ideal.gens})


def minimal_primes(ideal, limit=None):
    """All minimal primes of a monomial ideal, as a frozenset of PrimeSupports.

    Berge's transversal rule: start from the empty set and take the
    supports shortest first; members meeting a support are kept, every
    other member is extended by each variable of the support, and the
    result is reduced to its inclusion-minimal sets.  The unit ideal has
    none; the zero ideal yields the single empty support, so that its
    codimension comes out as 0 without special cases.  ``limit``
    optionally caps the number of primes kept after each support;
    exceeding it raises CapacityError.
    """
    if ideal.is_unit:
        return frozenset()
    primes = [frozenset()]
    for s in _minimal_supports(ideal):
        grown = set()
        for p in primes:
            if p & s:
                grown.add(p)
            else:
                grown.update(p | {v} for v in s)
        primes = inclusion_minimal(grown)
        if limit is not None and len(primes) > limit:
            raise CapacityError(f"more than {limit} minimal primes")
    return frozenset(primes)


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
    """A lower bound for the hitting number from cliques and disjoint supports.

    Greedy over supports, shortest first: a support disjoint from those
    already taken needs one of its own variables in any hitting set.  A
    taken edge {u, v} (a support of size 2) is grown into a clique of the
    graph the size-2 supports form, adding unused common neighbours in
    sorted order.  Every edge of a clique on k variables must be hit, and
    a vertex cover of a complete graph leaves at most one vertex out, so
    the clique needs k - 1 of its variables.  The taken cliques and
    supports are pairwise disjoint, so their needs add up.
    """
    ordered = sorted(supports, key=len)
    nbrs = {}
    for s in ordered:
        if len(s) == 2:
            u, v = s
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    used = set()
    count = 0
    for s in ordered:
        if not used.isdisjoint(s):
            continue
        used.update(s)
        count += 1
        if len(s) == 2:
            u, v = s
            grown = []
            for w in sorted(nbrs[u] & nbrs[v]):
                if w not in used and all(w in nbrs[x] for x in grown):
                    grown.append(w)
                    used.add(w)
            count += len(grown)
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
