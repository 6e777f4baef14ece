"""Cover combinatorics for invariant chains.

A set of rows covers a monomial when the monomial uses a variable from one
of those rows.  For a proper monomial ideal and a column index ``i``, the
cover number gamma_i is the least number of rows covering every generator
supported entirely in columns above ``i``.  Cover numbers control the
eventual slope of the codimension along a chain, and their derived
quantities (the level maxima and their limit, and the colon-based bound)
give lower bounds for projective-dimension growth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, UndefinedInvariantError
from .monomial import INFINITY, Monomial, MonomialIdeal, inclusion_minimal
from .chains import chain_colon, e_chain, generate
from .primes import minimal_primes

__all__ = [
    "GeneratorPartition",
    "GammaReport",
    "GammaLimit",
    "VmBound",
    "partition_generators",
    "gamma",
    "gamma_chain",
    "e_set",
    "gamma_max_level",
    "gamma_limit",
    "vm_bound",
]

# Above this many high-column generators the minimal-prime route for the
# cover family is skipped and only the cover number is computed.
COVER_FAMILY_GENERATOR_CAP = 32
COVER_FAMILY_PRIME_CAP = 20000
# Above this many straddling generators vm_bound tries only the empty set,
# the singletons and the full set, and reports the bound as incomplete.
VM_SUBSET_CAP = 16


@dataclass(frozen=True)
class GeneratorPartition:
    """Minimal generators split by where their column support sits.

    ``high`` lies entirely above the index, ``low`` entirely at or below,
    and ``straddling`` meets both sides; each straddling generator u comes
    with its unique factorization u = u1 * u2 with u1 at or below the index
    and u2 above it.
    """

    index: int
    high: tuple
    straddling: tuple
    low: tuple
    factorizations: tuple  # (u, u1, u2) per straddling generator


def partition_generators(ideal, i):
    """Three-way partition of the minimal generators at column index i."""
    if ideal.is_zero or ideal.is_unit:
        raise UndefinedInvariantError("partition needs a proper nonzero ideal")
    high, mid, low, factored = [], [], [], []
    for g in ideal.gens:
        if g.min_col() > i:
            high.append(g)
        elif g.max_col() <= i:
            low.append(g)
        else:
            mid.append(g)
            u1, u2 = g.split_at_column(i)
            factored.append((g, u1, u2))
    return GeneratorPartition(
        index=i,
        high=tuple(high),
        straddling=tuple(mid),
        low=tuple(low),
        factorizations=tuple(factored),
    )


@dataclass(frozen=True)
class GammaReport:
    """Cover number plus, when computed, the projected prime family.

    ``cover_family`` is the image of the minimal primes of the ideal
    generated by the high part under the projection of variables to rows;
    it contains every minimal cover.  It is None for the unit ideal and
    when the family was too large to enumerate.
    """

    gamma: object  # int in 0..rows, or INFINITY for the unit ideal
    witness_cover: frozenset | None
    cover_family: frozenset | None
    route: str = "min-primes"

    @property
    def minimal_covers(self):
        """Inclusion-minimal members of the cover family (exactly the minimal covers)."""
        if self.cover_family is None:
            return None
        return frozenset(inclusion_minimal(self.cover_family))


def _gamma_by_row_subsets(high_gens, rows):
    for size in range(rows + 1):
        for combo in itertools.combinations(range(1, rows + 1), size):
            chosen = frozenset(combo)
            if all(any(r in chosen for r in g.rows_used()) for g in high_gens):
                return size, chosen
    raise AssertionError("the full row set always covers")


def gamma(ideal, i):
    """Cover number of a monomial ideal at column index i, with witnesses.

    INFINITY for the unit ideal.  The number and its witness, the first
    cover in order of size then sorted rows, come from a search over row
    subsets; when the high part is small enough the full cover family is
    also derived from its minimal primes.
    """
    if ideal.is_unit:
        return GammaReport(INFINITY, None, None, route="unit")
    if ideal.is_zero:
        return GammaReport(0, frozenset(), frozenset([frozenset()]), route="zero")
    part = partition_generators(ideal, i)
    if not part.high:
        return GammaReport(0, frozenset(), frozenset([frozenset()]), route="empty-high")
    family = None
    if len(part.high) <= COVER_FAMILY_GENERATOR_CAP:
        try:
            plus = MonomialIdeal(ideal.rows, ideal.width, part.high)
            primes = minimal_primes(plus, limit=COVER_FAMILY_PRIME_CAP)
            family = frozenset(frozenset(row for row, _ in p) for p in primes)
        except CapacityError:
            pass
    size, witness = _gamma_by_row_subsets(part.high, ideal.rows)
    route = "row-subsets" if family is None else "min-primes"
    return GammaReport(size, witness, family, route=route)


def gamma_chain(spec):
    """Cover number of a chain, read off at the seed (constant from there on)."""
    return gamma(generate(spec, spec.seed_index), spec.index)


def _saturation_exponent(ideal, mono):
    """Least d with ideal : mono^d == ideal : mono^(d+1)."""
    d = 0
    current = ideal
    while True:
        nxt = current.colon(mono)
        if nxt == current:
            return d
        current = nxt
        d += 1


def _derived(spec):
    """{proper derived chain: its first exponent tuple, in product order}."""
    if not spec.is_proper_at_seed:
        raise UndefinedInvariantError("e-set needs a chain proper at its seed")
    col = spec.index + 1
    base = generate(spec, spec.seed_index + 1)
    caps = []
    for k in range(1, spec.rows + 1):
        caps.append(_saturation_exponent(base, Monomial({(k, col): 1})))
    kept = {}
    for evector in itertools.product(*(range(c + 1) for c in caps)):
        derived = e_chain(spec, evector)
        if not derived.seed.is_unit:
            kept.setdefault(derived, evector)
    return kept


def e_set(spec):
    """Representative exponent tuples whose derived chain is proper.

    Exponents beyond the saturation exponent of each column-(index+1)
    variable repeat earlier ideals, so each coordinate is capped there;
    tuples yielding duplicate ideals are dropped (first representative
    wins, in product order).
    """
    return tuple(_derived(spec).values())


def _levels(spec, depth):
    """Distinct derived chains at each depth, mapped to their exponent-tuple paths."""
    level = {spec: ()}
    for _ in range(depth):
        nxt = {}
        for s, path in level.items():
            for t, evector in _derived(s).items():
                nxt.setdefault(t, path + (evector,))
        level = nxt
        yield level


def gamma_max_level(spec, k):
    """Largest cover number among the depth-k derived chains."""
    if k < 1:
        raise ValueError("depth must be at least 1")
    for level in _levels(spec, k):
        pass
    return max(gamma_chain(t).gamma for t in level)


@dataclass(frozen=True)
class GammaLimit:
    """Depth-capped value of the nondecreasing level maxima.

    ``stabilized`` is True when the value reached the row count (the hard
    ceiling) or the last two computed levels agree; it is a reported
    heuristic, not a proof of convergence.
    """

    value: int
    stabilized: bool
    depth: int
    level_values: tuple
    witness_path: tuple


def gamma_limit(spec, depth_cap=None):
    """Maximum of the level maxima over depths 1..depth_cap (default rows + 2)."""
    if depth_cap is None:
        depth_cap = spec.rows + 2
    if depth_cap < 1:
        raise ValueError("depth cap must be at least 1")
    values = []
    best = -1
    best_path = ()
    for level in _levels(spec, depth_cap):
        level_best = -1
        level_path = ()
        for t, path in level.items():
            g = gamma_chain(t).gamma
            if g > level_best:
                level_best = g
                level_path = path
        values.append(level_best)
        if level_best > best:
            best = level_best
            best_path = level_path
        if best == spec.rows:
            break
    stabilized = best == spec.rows or (
        len(values) >= 2 and values[-1] == values[-2]
    )
    return GammaLimit(
        value=best,
        stabilized=stabilized,
        depth=len(values),
        level_values=tuple(values),
        witness_path=best_path,
    )


@dataclass(frozen=True)
class VmBound:
    """Best cover number among colon chains by admissible straddling products.

    ``complete`` is False when the subset enumeration was truncated, in
    which case the slope is only a lower bound for the full maximum.
    """

    slope: int
    witness: frozenset
    complete: bool


def vm_bound(spec):
    """Maximize the cover number over colons by products of straddling low parts.

    A subset M of the straddling generators is admissible when the product
    of their low parts is not divisible by any fully-low generator; the
    empty set always qualifies, so the result is at least the chain's own
    cover number.
    """
    if not spec.is_proper_at_seed:
        raise UndefinedInvariantError("the bound needs a chain proper at its seed")
    seed = generate(spec, spec.seed_index)
    if seed.is_zero:
        return VmBound(gamma_chain(spec).gamma, frozenset(), True)
    part = partition_generators(seed, spec.index)
    mids = list(part.factorizations)
    complete = len(mids) <= VM_SUBSET_CAP
    if complete:
        subset_iter = itertools.chain.from_iterable(
            itertools.combinations(range(len(mids)), size)
            for size in range(len(mids) + 1)
        )
    else:
        singles = [(j,) for j in range(len(mids))]
        subset_iter = itertools.chain([()], singles, [tuple(range(len(mids)))])
    best = None
    best_witness = frozenset()
    for subset in subset_iter:
        v = Monomial()
        for j in subset:
            v = v * mids[j][1]
        if any(g.divides(v) for g in part.low):
            continue
        g = gamma_chain(chain_colon(spec, v)).gamma
        if best is None or g > best:
            best = g
            best_witness = frozenset(mids[j][0] for j in subset)
    return VmBound(best, best_witness, complete)
