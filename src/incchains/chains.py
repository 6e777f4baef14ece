"""Chains of monomial ideals invariant under increasing column maps.

The acting monoid (index ``i``) consists of the strictly increasing maps
of the positive integers fixing ``1..i``; it acts on columns of variables.
A chain is described by a finite seed: the ideal at one width generates
every later ideal through the monoid action, and below the seed width the
chain is zero by convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ChainHypothesisError, WidthError
from .monomial import Monomial, MonomialIdeal, variable

__all__ = [
    "ChainSpec",
    "EVector",
    "orbit",
    "generate",
    "shift_sigma",
    "chain_colon",
    "chain_radical",
    "e_chain",
    "verify_stability",
]

# A tuple of ``rows`` nonnegative exponents, one per row.
EVector = tuple


@dataclass(frozen=True)
class ChainSpec:
    """Finite description of an invariant chain.

    ``seed`` lives in width ``seed_index`` and generates the ideal at every
    larger width through the monoid fixing columns ``1..index``; smaller
    widths carry the zero ideal.  ``derivation`` records how this chain was
    built (for reporting only; it does not affect identity).
    """

    rows: int
    index: int
    seed_index: int
    seed: MonomialIdeal
    derivation: tuple = field(default=("seed",), compare=False)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"monoid index must be nonnegative, got {self.index}")
        if self.seed_index < 1:
            raise ValueError(f"seed index must be positive, got {self.seed_index}")
        if self.seed.rows != self.rows:
            raise ValueError("seed rows disagree with chain rows")
        if self.seed.width != self.seed_index:
            raise ValueError("seed width must equal the seed index")

    @property
    def is_proper_at_seed(self):
        return self.seed.is_proper

    def describe(self):
        return " -> ".join(self.derivation)


def orbit(mono, i, m, n):
    """Images of a width-m monomial under maps fixing 1..i that send m into 1..n.

    Only the support columns above ``i`` move.  Their images are the
    strictly increasing relabelings whose shifts are nondecreasing and at
    most ``n - m``; this is exactly the set of restrictions of admissible
    monoid elements.
    """
    cols = mono.columns()
    if cols and cols[-1] > m:
        raise WidthError(f"{mono} does not fit in width {m}")
    if m > n:
        raise ValueError(f"need m <= n, got m={m}, n={n}")
    moving = [c for c in cols if c > i]
    if not moving:
        return {mono}
    out = set()
    for shifts in itertools.combinations_with_replacement(range(n - m + 1), len(moving)):
        mapping = {c: c + d for c, d in zip(moving, shifts)}
        out.add(mono.apply_column_map(mapping))
    return out


@lru_cache(maxsize=None)
def generate(spec, n):
    """The chain's ideal at width n."""
    if n < 1:
        raise ValueError(f"width must be positive, got {n}")
    if n < spec.seed_index:
        return MonomialIdeal(spec.rows, n)
    candidates = []
    for g in spec.seed.gens:
        candidates.extend(orbit(g, spec.index, spec.seed_index, n))
    return MonomialIdeal(spec.rows, n, candidates)


def shift_sigma(i, mono):
    """The elementary shift: columns <= i fixed, larger columns moved up by one."""
    return mono.apply_column_map(lambda c: c if c <= i else c + 1)


def chain_colon(spec, mono):
    """The chain of quotients by a monomial supported in columns <= index.

    The quotient chain is invariant under the same monoid and needs no
    larger seed index, so its seed is just the quotient of the seed.
    """
    if mono.max_col() is not None and mono.max_col() > spec.index:
        raise ChainHypothesisError(
            f"colon monomial {mono} uses a column beyond the fixed range 1..{spec.index}"
        )
    if mono.is_unit:
        return spec
    seed = generate(spec, spec.seed_index).colon(mono)
    return ChainSpec(
        rows=spec.rows,
        index=spec.index,
        seed_index=spec.seed_index,
        seed=seed,
        derivation=spec.derivation + (f"colon {mono}",),
    )


def chain_radical(spec):
    """The chain of radicals, seeded by the radical of the seed."""
    seed = spec.seed.radical()
    if seed == spec.seed:
        return spec
    return ChainSpec(
        rows=spec.rows,
        index=spec.index,
        seed_index=spec.seed_index,
        seed=seed,
        derivation=spec.derivation + ("radical",),
    )


def e_chain(spec, evector):
    """The derived chain quotiented by column-(index+1) powers, plus that column.

    For exponents (e_1, ..., e_c) the new chain's ideal at width n is
    generated by the quotient of the old ideal by
    x[1,i+1]^e_1 * ... * x[c,i+1]^e_c together with x[1,i+1], ..., x[c,i+1].
    It is invariant under the monoid fixing one more column, with the seed
    index advanced by one.
    """
    if len(evector) != spec.rows:
        raise ValueError(f"need {spec.rows} exponents, got {len(evector)}")
    if any(e < 0 for e in evector):
        raise ValueError("exponents must be nonnegative")
    if not spec.is_proper_at_seed:
        raise ChainHypothesisError("e-chain needs a chain that is proper at its seed")
    col = spec.index + 1
    r1 = spec.seed_index + 1
    base = generate(spec, r1)
    divisor = Monomial({(k + 1, col): e for k, e in enumerate(evector) if e})
    quotient = base.colon(divisor)
    column = [variable(k, col) for k in range(1, spec.rows + 1)]
    seed = quotient + MonomialIdeal(spec.rows, r1, column)
    return ChainSpec(
        rows=spec.rows,
        index=spec.index + 1,
        seed_index=r1,
        seed=seed,
        derivation=spec.derivation + (f"e-chain {tuple(evector)}",),
    )


def verify_stability(spec, n):
    """Check that the width-n ideal regenerates the width-(n+1) ideal."""
    if n < spec.seed_index:
        raise ValueError(f"need n >= seed index {spec.seed_index}, got {n}")
    current = generate(spec, n)
    candidates = []
    for g in current.gens:
        candidates.extend(orbit(g, spec.index, n, n + 1))
    regenerated = MonomialIdeal(spec.rows, n + 1, candidates)
    return regenerated == generate(spec, n + 1)
