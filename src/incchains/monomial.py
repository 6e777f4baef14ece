"""Monomials and monomial ideals in rings with a rows-by-width grid of variables.

Variables are written ``x[k,j]`` with row ``k`` in ``1..rows`` and column
``j >= 1``.  Ideals carry an explicit ambient width because counting
invariants (such as the q-invariant) depend on the ambient ring, not just
on the generators.
"""

from __future__ import annotations

from itertools import groupby

from .errors import RowError, UndefinedInvariantError, WidthError

__all__ = [
    "INFINITY",
    "Monomial",
    "MonomialIdeal",
    "variable",
]


class _Infinity:
    """Sentinel degree that compares above every integer.

    Subtracting or adding an integer leaves it unchanged, matching the
    convention that the codimension of the unit ideal is infinite.
    """

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is INFINITY

    def __gt__(self, other):
        return other is not INFINITY

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is INFINITY

    def __hash__(self):
        return hash("INFINITY")

    def __add__(self, other):
        return INFINITY

    __radd__ = __add__

    def __sub__(self, other):
        return INFINITY

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()


class Monomial:
    """A monomial as a sparse exponent map on grid positions.

    ``entries`` is a sorted tuple of ``((row, col), exponent)`` pairs with
    every stored exponent positive; the unit monomial stores nothing.
    Instances are immutable and hashable.  The constructor checks values
    from outside the program; arithmetic results are built from valid
    monomials without checks.
    """

    __slots__ = ("entries", "degree", "_hash")

    def __init__(self, entries=()):
        seen = set()
        kept = []
        for (row, col), exp in entries.items() if isinstance(entries, dict) else entries:
            if (row, col) in seen:
                raise ValueError(f"repeated position ({row},{col})")
            seen.add((row, col))
            if exp == 0:
                continue
            if exp < 0:
                raise ValueError(f"negative exponent at ({row},{col})")
            if row < 1:
                raise RowError(f"row {row} out of range")
            if col < 1:
                raise WidthError(f"column {col} out of range")
            kept.append(((row, col), exp))
        kept.sort()
        self._set(tuple(kept))

    def _set(self, entries):
        """Fill the slots from a sorted tuple of positive entries, unchecked."""
        self.entries = entries
        self.degree = sum(e for _, e in entries)
        self._hash = hash(entries)
        return self

    # -- basic queries -------------------------------------------------

    @property
    def is_unit(self):
        return not self.entries

    def exponent(self, pos):
        for p, e in self.entries:
            if p == pos:
                return e
        return 0

    def support(self):
        """Positions with positive exponent."""
        return tuple(p for p, _ in self.entries)

    def columns(self):
        return sorted({c for (_, c), _ in self.entries})

    def min_col(self):
        """Least column in the support; None for the unit monomial."""
        cols = self.columns()
        return cols[0] if cols else None

    def max_col(self):
        cols = self.columns()
        return cols[-1] if cols else None

    def rows_used(self):
        return sorted({r for (r, _), _ in self.entries})

    def max_exponent(self):
        return max((e for _, e in self.entries), default=0)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        merged = dict(self.entries)
        for p, e in other.entries:
            merged[p] = merged.get(p, 0) + e
        return _built(tuple(sorted(merged.items())))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        return _built(tuple((p, e * k) for p, e in self.entries) if k else ())

    def divides(self, other):
        """True iff every exponent of self is at most the matching one of other."""
        for p, e in self.entries:
            if other.exponent(p) < e:
                return False
        return True

    def lcm(self, other):
        merged = dict(self.entries)
        for p, e in other.entries:
            if merged.get(p, 0) < e:
                merged[p] = e
        return _built(tuple(sorted(merged.items())))

    def gcd(self, other):
        out = []
        for p, e in self.entries:
            f = other.exponent(p)
            if f:
                out.append((p, min(e, f)))
        return _built(tuple(out))

    def __floordiv__(self, other):
        """Exact division; other must divide self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        out = dict(self.entries)
        for p, e in other.entries:
            rest = out[p] - e
            if rest:
                out[p] = rest
            else:
                del out[p]
        return _built(tuple(out.items()))

    def squarefree(self):
        """Product of the support variables (exponents truncated to 1)."""
        return _built(tuple((p, 1) for p, _ in self.entries))

    def split_at_column(self, i):
        """Factor into (columns <= i part, columns > i part)."""
        low = tuple((p, e) for p, e in self.entries if p[1] <= i)
        high = tuple((p, e) for p, e in self.entries if p[1] > i)
        return _built(low), _built(high)

    def apply_column_map(self, column_map):
        """Relabel columns through ``column_map`` (dict or callable)."""
        if isinstance(column_map, dict):
            fn = lambda c: column_map.get(c, c)
        else:
            fn = column_map
        out = {}
        for (row, col), e in self.entries:
            col = fn(col)
            if col < 1:
                raise WidthError(f"column {col} out of range")
            out[row, col] = out.get((row, col), 0) + e
        return _built(tuple(sorted(out.items())))

    # -- ordering and rendering ----------------------------------------

    def sort_key(self):
        """Canonical order: by degree, then by the (row, col, exp) sequence."""
        return (self.degree, tuple((r, c, e) for (r, c), e in self.entries))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __str__(self):
        if not self.entries:
            return "1"
        parts = []
        for (r, c), e in self.entries:
            parts.append(f"x[{r},{c}]" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts)

    def __repr__(self):
        return f"Monomial({self})"


def variable(row, col, exp=1):
    """The monomial x[row,col]^exp."""
    return Monomial({(row, col): exp})


def _built(entries):
    """The monomial of a sorted tuple of positive entries, built without checks."""
    return object.__new__(Monomial)._set(entries)


class MonomialIdeal:
    """A monomial ideal by its unique minimal generating set.

    The constructor minimalizes: candidates divisible by another candidate
    are dropped, and generators are stored in a canonical total order, so
    equal ideals have identical representations.  The zero ideal has no
    generators; the unit ideal is generated by 1.
    """

    __slots__ = ("rows", "width", "gens", "_hash")

    def __init__(self, rows, width, candidates=()):
        if rows < 1:
            raise RowError(f"rows must be positive, got {rows}")
        if width < 0:
            raise WidthError(f"width must be nonnegative, got {width}")
        self.rows = rows
        self.width = width
        unique = set()
        for m in candidates:
            if not isinstance(m, Monomial):
                raise TypeError(f"expected Monomial, got {type(m).__name__}")
            for (r, c), _ in m.entries:
                if r > rows:
                    raise RowError(f"generator {m} uses row {r} > rows = {rows}")
                if c > width:
                    raise WidthError(f"generator {m} uses column {c} > width = {width}")
            unique.add(m)
        unit = _built(())
        if unit in unique:
            self.gens = (unit,)
        else:
            # a divisor's first position lies in the candidate's support, so
            # kept generators are bucketed by it and only those buckets scanned
            kept = []
            by_first = {}
            for m in sorted(unique, key=Monomial.sort_key):
                if not any(
                    g.divides(m) for p, _ in m.entries for g in by_first.get(p, ())
                ):
                    kept.append(m)
                    by_first.setdefault(m.entries[0][0], []).append(m)
            self.gens = tuple(kept)
        self._hash = hash((self.rows, self.width, self.gens))

    # -- structure -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return len(self.gens) == 1 and self.gens[0].is_unit

    @property
    def is_proper(self):
        return not self.is_unit

    def is_squarefree(self):
        return all(g.max_exponent() <= 1 for g in self.gens)

    def max_exponent(self):
        return max((g.max_exponent() for g in self.gens), default=0)

    def variables(self):
        """Sorted positions appearing in some generator."""
        out = set()
        for g in self.gens:
            out.update(g.support())
        return sorted(out)

    # -- membership and ideal operations --------------------------------

    def contains(self, mono):
        return any(g.divides(mono) for g in self.gens)

    def __contains__(self, mono):
        return self.contains(mono)

    def colon(self, mono):
        """The ideal quotient by a monomial: u is in J:v iff u*v is in J."""
        return MonomialIdeal(
            self.rows, self.width, (g // g.gcd(mono) for g in self.gens)
        )

    def radical(self):
        return MonomialIdeal(self.rows, self.width, (g.squarefree() for g in self.gens))

    def __add__(self, other):
        if self.rows != other.rows:
            raise RowError(f"row mismatch: {self.rows} vs {other.rows}")
        return MonomialIdeal(
            self.rows, max(self.width, other.width), self.gens + other.gens
        )

    # -- graded invariants ----------------------------------------------

    def delta(self):
        """Largest degree of a minimal generator; defined for proper nonzero ideals."""
        if self.is_zero or self.is_unit:
            raise UndefinedInvariantError("delta needs a proper nonzero ideal")
        return max(g.degree for g in self.gens)

    def q_invariant(self):
        """Number of monomials of degree at most delta lying outside the ideal.

        The unit ideal yields 0; the zero ideal has no finite count.
        """
        if self.is_unit:
            return 0
        if self.is_zero:
            raise UndefinedInvariantError("q-invariant of the zero ideal is infinite")
        bound = self.delta()
        cols, rows = range(1, self.width + 1), range(1, self.rows + 1)
        steps = [_built((((k, j), 1),)) for j in cols for k in rows]
        count = 0
        stack = [(0, _built(()))]
        while stack:
            start, mono = stack.pop()
            count += 1
            if mono.degree == bound:
                continue
            for idx in range(start, len(steps)):
                nxt = mono * steps[idx]
                if not self.contains(nxt):
                    stack.append((idx, nxt))
        return count

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.rows == other.rows
            and self.width == other.width
            and self.gens == other.gens
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"

    def __repr__(self):
        return f"MonomialIdeal(rows={self.rows}, width={self.width}, gens={self})"


def inclusion_minimal(sets):
    """Inclusion-minimal members of a collection of distinct sets, shortest first.

    Only a strictly shorter set can lie strictly inside another, so each
    group of equal length is tested against the sets kept from shorter
    lengths only.
    """
    kept = []
    for _, group in groupby(sorted(sets, key=len), key=len):
        shorter = tuple(kept)
        kept += [s for s in group if not any(t < s for t in shorter)]
    return kept


def variable_components(supports):
    """Indices of ``supports`` grouped into components under shared variables.

    Each group is ascending and the groups come in order of their first
    member.
    """
    parent = list(range(len(supports)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    first = {}
    for i, support in enumerate(supports):
        for v in support:
            parent[find(i)] = find(first.setdefault(v, i))
    groups = {}
    for i in range(len(supports)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())
