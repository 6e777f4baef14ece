"""Exact multigraded Betti numbers and projective dimension of monomial ideals.

The engine walks the lcm lattice of the generators.  For a lattice element
``a`` the Betti number in homological degree p is the reduced homology
rank, in dimension p - 1, of the complex of generator subsets whose lcm
strictly divides ``a`` (restricted to generators dividing ``a``).  That
complex is a union of full simplices, one per variable of ``a``, which
permits strong homotopy-preserving reductions before any linear algebra.
The incidence is int bitmasks from the lcm closure to the boundary matrix,
and one rule reduces both its sides: keep the distinct inclusion-minimal
masks of the constraints (dropping redundant ones), then of the vertex
memberships (folding dominated vertices away).  Cones are recognized
outright.  By the nerve lemma the reduced core has the homology of its
nerve, the constraint sets that leave some vertex uncovered, so homology
is computed on whichever side, vertex or nerve, has the smaller face
bound; the face cap counts the faces of that side.

Generators in disjoint variables resolve independently: the table of a
disjoint union is the convolution of the component tables, and projective
dimensions add.  The engine splits into components first, which is what
keeps realistic chain widths within the exact engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, UndefinedInvariantError
from .linalg import rank_int_exact
from .monomial import Monomial, variable_components

__all__ = [
    "DEFAULT_GENERATOR_CAP",
    "LcmLattice",
    "BettiTable",
    "lcm_lattice",
    "betti",
    "pd_quotient",
    "pd_ideal",
    "pd_taylor_oracle",
]

DEFAULT_GENERATOR_CAP = 24
# Total faces enumerated per reduced complex before refusing; keeps the
# exact linear algebra per lattice element bounded.
FACE_ENUMERATION_CAP = 1 << 14
# Distinct lcms per variable-connected component before refusing.
LATTICE_ELEMENT_CAP = 60000
# Largest characteristic accepted; it keeps the trial-division primality
# check below about 55k divisions.
MAX_FIELD_CHAR = 3037000499


def _check_gen_cap(ideal, gen_cap):
    if len(ideal.gens) > gen_cap:
        raise CapacityError(
            f"{len(ideal.gens)} generators exceed the exact-engine cap {gen_cap}"
        )


def _check_char(field_char):
    if field_char == 0:
        return
    if field_char > MAX_FIELD_CHAR:
        raise ValueError(
            f"field characteristic {field_char} exceeds the supported maximum "
            f"{MAX_FIELD_CHAR} (the largest p with p*p < 2**63)"
        )
    if field_char < 2 or any(field_char % p == 0 for p in range(2, int(field_char**0.5) + 1)):
        raise ValueError(f"field characteristic must be 0 or a prime, got {field_char}")


@dataclass(frozen=True)
class LcmLattice:
    """All distinct lcms of generator subsets, ordered by divisibility.

    ``elements`` is canonically sorted and includes the bottom element 1;
    ``dividing_generators`` maps each element to the generators below it.
    """

    elements: tuple
    dividing_generators: dict

    def __len__(self):
        return len(self.elements)


def _closure(gens):
    """The lcm lattice of ``gens``: {lcm: bitmask of the generator indices dividing it}.

    Each element carries a bitmask of generator indices, and the lcm with
    generator i ORs the mask it came from and bit i into the result.  The
    masks are exact.  Suppose lcm a takes generator i; then a is also
    lcm(m', g_i), where m' is the lcm of the earlier generators dividing a.
    The mask of m' already holds all of them, so by induction each mask
    equals the full dividing set.
    """
    below = {Monomial(): 0}
    for i, g in enumerate(gens):
        for m, d in list(below.items()):
            a = m.lcm(g)
            below[a] = below.get(a, 0) | d | 1 << i
        if len(below) > LATTICE_ELEMENT_CAP:
            raise CapacityError(
                f"lcm lattice exceeds {LATTICE_ELEMENT_CAP} elements; refusing"
            )
    return below


def lcm_lattice(ideal, gen_cap=DEFAULT_GENERATOR_CAP):
    """The lcm lattice of a proper nonzero monomial ideal."""
    if ideal.is_zero or ideal.is_unit:
        raise UndefinedInvariantError("lcm lattice needs a proper nonzero ideal")
    _check_gen_cap(ideal, gen_cap)
    below = _closure(ideal.gens)
    elems = sorted(below, key=Monomial.sort_key)
    gens = ideal.gens
    dividing = {a: tuple(g for i, g in enumerate(gens) if below[a] >> i & 1) for a in elems}
    return LcmLattice(elements=tuple(elems), dividing_generators=dividing)


# -- reduced strict-divisor complexes ---------------------------------------


def _attains(gens):
    """{(position, exponent): bitmask of the generators with that exponent there}."""
    attains = {}
    for i, g in enumerate(gens):
        for entry in g.entries:
            attains[entry] = attains.get(entry, 0) | 1 << i
    return attains


def _minimal_masks(masks):
    """Distinct inclusion-minimal masks, ascending: a proper submask is a smaller int."""
    kept = []
    for m in sorted(set(masks)):
        if all(t & m != t for t in kept):
            kept.append(m)
    return kept


def _core(a, dividing, attains):
    """Reduce the strict-divisor complex of ``a`` to a small homotopy-equivalent core.

    ``dividing`` masks the generators dividing ``a``; the constraint of a
    variable masks those attaining its exponent in ``a``.  Returns None when
    the complex is contractible (no homology anywhere), otherwise
    (k, constraints): vertices 0..k-1 in generator order, ascending
    constraint masks, and as faces the vertex sets missing some constraint.
    One rule reduces both sides until nothing changes: keep the distinct
    inclusion-minimal masks of the constraints, then of the vertex
    memberships, taking the least vertex of each; a dropped vertex's link
    is a cone on a kept one.
    """
    live, cons = dividing, [dividing & attains[entry] for entry in a.entries]
    while True:
        trimmed = _minimal_masks(c & live for c in cons)
        if not trimmed or not trimmed[0]:
            return None  # the unit's void complex, or a full simplex: no homology
        order = [v for v in range(live.bit_length()) if live >> v & 1]
        least = {}  # membership mask -> its least vertex
        for v in order:
            member = sum(1 << j for j, c in enumerate(trimmed) if c >> v & 1)
            if not member:
                return None  # vertex covering nothing: a cone apex
            least.setdefault(member, v)
        kept = sum(1 << least[m] for m in _minimal_masks(least))
        if kept == live and len(trimmed) == len(cons):
            break
        live, cons = kept, trimmed
    renumbered = (sum(1 << i for i, v in enumerate(order) if c >> v & 1) for c in trimmed)
    return len(order), tuple(renumbered)


def _faces_of_core(core):
    """All faces (including the empty face) of a complex homotopy equivalent to the core.

    The core is the union of the simplices V - c over its constraints c,
    and all their intersections are simplices or empty, so by the nerve
    lemma it is homotopy equivalent to the nerve of that cover: the
    constraint-index sets S with union(S) != V.  Whichever side has the
    smaller face bound is enumerated, and the face cap applies to it.  The
    vertex side is the same enumeration on the dual relation (Dowker 1952):
    a vertex set is a face iff the constraints holding its vertices do not
    cover every constraint.  Faces are bitmasks over the enumerated side.
    """
    nverts, constraints = core
    total = sum(1 << (nverts - c.bit_count()) for c in constraints)
    if 1 << len(constraints) < total:
        return _nerve_faces(nverts, constraints)
    if total > FACE_ENUMERATION_CAP:
        raise CapacityError("reduced complex too large to enumerate")
    members = [sum(1 << i for i, c in enumerate(constraints) if c >> v & 1) for v in range(nverts)]
    return _nerve_faces(len(constraints), members)


def _nerve_faces(nverts, masks):
    """Bitmask index sets of ``masks`` whose union leaves one of ``nverts`` bits unset.

    Depth-first from the empty face 0, listed first: a branch stops once
    its union covers every vertex, since all its extensions cover them too.
    """
    full = (1 << nverts) - 1
    faces = [0]
    stack = [(0, 0, 0)]
    while stack:
        face, union, start = stack.pop()
        for i in range(start, len(masks)):
            u = union | masks[i]
            if u == full:
                continue
            sub = face | 1 << i
            faces.append(sub)
            if len(faces) > FACE_ENUMERATION_CAP:
                raise CapacityError("reduced complex too large to enumerate")
            stack.append((sub, u, i + 1))
    return faces


def _reduced_betti(faces, char):
    """Reduced homology ranks {dim: rank} of bitmask faces over Q (char 0) or F_char."""
    by_dim, position = {}, {}
    for f in faces:
        fs = by_dim.setdefault(f.bit_count() - 1, [])
        position[f] = len(fs)
        fs.append(f)
    ranks = {}
    for d, fs in by_dim.items():
        if d - 1 not in by_dim:
            continue
        rows = [{} for _ in by_dim[d - 1]]
        for j, f in enumerate(fs):
            rest, sign = f, 1
            while rest:
                low = rest & -rest
                rows[position[f ^ low]][j] = sign
                rest ^= low
                sign = -sign
        ranks[d] = rank_int_exact(rows, len(fs), char)
    out = {}
    for d, fs in by_dim.items():
        betti = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if betti:
            out[d] = betti
    return out


# -- components and assembly -------------------------------------------------


def _components(gens):
    groups = variable_components([g.support() for g in gens])
    return [tuple(gens[i] for i in group) for group in groups]


def _component_quotient_table(gens, char):
    """Betti table of R modulo the ideal on one variable-connected component."""
    table = {(0, Monomial()): 1}
    attains = _attains(gens)
    for a, dividing in _closure(gens).items():
        core = _core(a, dividing, attains)
        if core is None:
            continue
        for dim, rank in _reduced_betti(_faces_of_core(core), char).items():
            table[(dim + 2, a)] = rank
    return table


def _convolve(t1, t2):
    out = {}
    for (p1, a1), r1 in t1.items():
        for (p2, a2), r2 in t2.items():
            key = (p1 + p2, a1 * a2)
            out[key] = out.get(key, 0) + r1 * r2
    return out


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of an ideal.

    Entries map (homological degree, multidegree monomial) to a positive
    rank; degree 0 lists exactly the minimal generators.  ``field_char``
    records the coefficient field characteristic used.
    """

    entries: tuple  # sorted ((p, multidegree), rank) pairs
    field_char: int

    def rank(self, p, a):
        for (q, b), r in self.entries:
            if q == p and b == a:
                return r
        return 0

    def total(self, p):
        return sum(r for (q, _), r in self.entries if q == p)

    def max_degree(self):
        return max((q for (q, _), _ in self.entries), default=-1)

    def as_dict(self):
        return {key: r for key, r in self.entries}


def betti(ideal, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP):
    """Full Betti table of a proper monomial ideal over a chosen characteristic."""
    if ideal.is_unit:
        raise UndefinedInvariantError("Betti table needs a proper ideal")
    _check_char(field_char)
    if ideal.is_zero:
        return BettiTable(entries=(), field_char=field_char)
    _check_gen_cap(ideal, gen_cap)
    full = {(0, Monomial()): 1}
    for comp in _components(ideal.gens):
        full = _convolve(full, _component_quotient_table(comp, field_char))
    entries = {
        (p - 1, a): r for (p, a), r in full.items() if p >= 1 and r
    }
    ordered = tuple(
        sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key()))
    )
    return BettiTable(entries=ordered, field_char=field_char)


def _component_pd(gens, char):
    """Projective dimension of R modulo the component ideal, top degree only."""
    elements = sorted(_closure(gens).items(), key=lambda pair: -pair[1].bit_count())
    attains = _attains(gens)
    best = 0
    homology = {}  # many lattice elements reduce to the same core
    for a, dividing in elements:
        if dividing.bit_count() <= best:
            break  # sorted by |G_a|, p never exceeds |G_a|, and the unit has none
        core = _core(a, dividing, attains)
        if core is None:
            continue
        nverts, cons = core
        # homology in dimension k needs k <= min(#vertices, #constraints) - 2
        if min(nverts, len(cons)) <= best:
            continue
        hom = homology.get(core)
        if hom is None:
            hom = homology[core] = _reduced_betti(_faces_of_core(core), char)
        if hom:
            best = max(best, max(hom) + 2)
    return best


def pd_quotient(ideal, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP):
    """Projective dimension of (ring modulo ideal); 0 for the zero ideal."""
    if ideal.is_unit:
        raise UndefinedInvariantError("projective dimension needs a proper ideal")
    _check_char(field_char)
    if ideal.is_zero:
        return 0
    _check_gen_cap(ideal, gen_cap)
    return sum(_component_pd(comp, field_char) for comp in _components(ideal.gens))


def pd_ideal(ideal, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP):
    """Projective dimension of the ideal as a module; the unit ideal is free."""
    if ideal.is_unit:
        return 0
    if ideal.is_zero:
        raise UndefinedInvariantError("the zero ideal has no projective dimension")
    return pd_quotient(ideal, field_char, gen_cap) - 1


# -- independent oracle -------------------------------------------------------


def pd_taylor_oracle(ideal, field_char=0, max_generators=10):
    """Projective dimension by minimalizing the full Taylor complex.

    Works multidegree by multidegree: subsets of generators grouped by
    their lcm, with the boundary keeping only same-lcm terms.  Exponential
    in the generator count, hence the guard; used to cross-check the
    lattice engine.
    """
    if ideal.is_unit:
        raise UndefinedInvariantError("projective dimension needs a proper ideal")
    _check_char(field_char)
    if ideal.is_zero:
        return 0
    gens = list(ideal.gens)
    if len(gens) > max_generators:
        raise CapacityError(
            f"{len(gens)} generators exceed the oracle guard {max_generators}"
        )
    strands = {}
    lcms = {(): None}
    for size in range(1, len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), size):
            m = gens[combo[0]]
            for j in combo[1:]:
                m = m.lcm(gens[j])
            lcms[combo] = m
            strands.setdefault(m, {}).setdefault(size, []).append(combo)
    best = 0
    for a, by_size in strands.items():
        sizes = sorted(by_size)
        ranks = {}
        for p in sizes:
            lower = {s: i for i, s in enumerate(by_size.get(p - 1, []))}
            if not lower:
                ranks[p] = 0
                continue
            rows = [dict() for _ in lower]
            for j, combo in enumerate(by_size[p]):
                for pos in range(len(combo)):
                    sub = combo[:pos] + combo[pos + 1 :]
                    if lcms.get(sub) == a:
                        rows[lower[sub]][j] = 1 if pos % 2 == 0 else -1
            ranks[p] = rank_int_exact(rows, len(by_size[p]), field_char)
        for p in sizes:
            n_p = len(by_size[p])
            hom = n_p - ranks.get(p, 0) - ranks.get(p + 1, 0)
            if hom and p > best:
                best = p
    return best
