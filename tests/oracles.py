"""Independent brute-force oracles the tests check the library against.

Everything here computes definitions directly (full enumerations), so the
implementations stay independent of the optimized paths they vouch for.
"""

from __future__ import annotations

import itertools

from incchains import INFINITY, Monomial, MonomialIdeal
from incchains.monomial import inclusion_minimal


def all_monomials(rows, width, max_degree):
    """Every monomial of degree at most max_degree in the rows-by-width grid."""
    positions = [(k, j) for k in range(1, rows + 1) for j in range(1, width + 1)]
    out = [Monomial()]
    frontier = [Monomial()]
    for _ in range(max_degree):
        nxt = []
        seen = set()
        for m in frontier:
            for p in positions:
                candidate = m * Monomial({p: 1})
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        out.extend(nxt)
        frontier = nxt
    return out


def brute_minimal_generators(candidates):
    """Distinct candidates no other distinct candidate divides, in sort_key order."""
    distinct = set(candidates)
    return tuple(
        sorted(
            (m for m in distinct if not any(g != m and g.divides(m) for g in distinct)),
            key=Monomial.sort_key,
        )
    )


def brute_inclusion_minimal(sets):
    """Members of a family of distinct sets with no proper subset in it, shortest first."""
    return sorted((s for s in sets if not any(t < s for t in sets)), key=len)


def brute_lcm_lattice(gens):
    """{lcm of a subset of gens: the gens dividing it, in gens order}, over every subset."""
    out = {}
    for size in range(len(gens) + 1):
        for combo in itertools.combinations(gens, size):
            m = Monomial()
            for g in combo:
                m = m.lcm(g)
            out[m] = tuple(g for g in gens if g.divides(m))
    return out


def brute_orbit(mono, i, m, n):
    """Orbit by enumerating every strictly increasing map [m] -> [n] fixing 1..i."""
    images = set()
    tail = list(range(i + 1, n + 1))
    for chosen in itertools.combinations(tail, m - i):
        mapping = {j: j for j in range(1, i + 1)}
        mapping.update({i + 1 + t: chosen[t] for t in range(m - i)})
        images.add(mono.apply_column_map(mapping))
    return images


def brute_covering_rows(ideal, i, rows_chosen):
    """Does the chosen row set cover every generator supported above column i?"""
    for g in ideal.gens:
        if g.min_col() is not None and g.min_col() > i:
            if not any(r in rows_chosen for r in g.rows_used()):
                return False
    return True


def brute_gamma(ideal, i):
    """Cover number by enumerating all row subsets."""
    if ideal.is_unit:
        return INFINITY
    for size in range(ideal.rows + 1):
        for combo in itertools.combinations(range(1, ideal.rows + 1), size):
            if brute_covering_rows(ideal, i, set(combo)):
                return size
    raise AssertionError("unreachable")


def brute_minimal_covers(ideal, i):
    """All inclusion-minimal covering row subsets."""
    covers = []
    for size in range(ideal.rows + 1):
        for combo in itertools.combinations(range(1, ideal.rows + 1), size):
            chosen = frozenset(combo)
            if brute_covering_rows(ideal, i, chosen) and not any(
                c < chosen for c in covers
            ):
                covers.append(chosen)
    return frozenset(covers)


def brute_minimal_primes(ideal):
    """Inclusion-minimal variable sets hitting every generator support."""
    variables = ideal.variables()
    supports = [frozenset(g.support()) for g in ideal.gens]
    found = []
    for size in range(len(variables) + 1):
        for combo in itertools.combinations(variables, size):
            chosen = frozenset(combo)
            if all(chosen & s for s in supports) and not any(
                p < chosen for p in found
            ):
                found.append(chosen)
    return frozenset(found)


def brute_e_ideal(spec, evector, n):
    """The derived ideal at width n, straight from its defining formula."""
    from incchains import generate, variable

    base = generate(spec, n)
    divisor = Monomial(
        {(k + 1, spec.index + 1): e for k, e in enumerate(evector) if e}
    )
    cols = MonomialIdeal(
        spec.rows, n, [variable(k, spec.index + 1) for k in range(1, spec.rows + 1)]
    )
    return base.colon(divisor) + cols


def brute_e_set(spec, cap=4):
    """Exponent tuples with proper derived ideal, enumerated up to a cap."""
    out = []
    for evector in itertools.product(range(cap + 1), repeat=spec.rows):
        if not brute_e_ideal(spec, evector, spec.seed_index + 1).is_unit:
            out.append(evector)
    return out


def _fraction_rank(matrix):
    from fractions import Fraction

    m = [[Fraction(v) for v in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = 1 / m[row][col]
        m[row] = [v * inv for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _modp_rank(matrix, p):
    m = [[v % p for v in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], p - 2, p)
        m[row] = [v * inv % p for v in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def brute_betti_table(ideal, char=0):
    """Betti table straight from the definition, with no reductions.

    For every distinct lcm of generator subsets, enumerate all generator
    subsets whose lcm strictly divides it, build the simplicial boundary
    matrices over the chosen field, and read off reduced homology ranks.
    """
    gens = list(ideal.gens)
    lattice = {Monomial()}
    for size in range(1, len(gens) + 1):
        for combo in itertools.combinations(gens, size):
            m = combo[0]
            for g in combo[1:]:
                m = m.lcm(g)
            lattice.add(m)
    table = {}
    for a in lattice:
        if a.is_unit:
            continue
        g_a = [g for g in gens if g.divides(a)]
        faces = []
        for size in range(len(g_a) + 1):
            for combo in itertools.combinations(range(len(g_a)), size):
                m = Monomial()
                for j in combo:
                    m = m.lcm(g_a[j])
                if m != a:
                    faces.append(combo)
        by_dim = {}
        for f in faces:
            by_dim.setdefault(len(f) - 1, []).append(f)
        for fs in by_dim.values():
            fs.sort()
        ranks = {}
        for d, fs in by_dim.items():
            if d - 1 not in by_dim:
                ranks[d] = 0
                continue
            target = {f: i for i, f in enumerate(by_dim[d - 1])}
            mat = [[0] * len(fs) for _ in by_dim[d - 1]]
            for j, f in enumerate(fs):
                for pos in range(len(f)):
                    sub = f[:pos] + f[pos + 1 :]
                    mat[target[sub]][j] = 1 if pos % 2 == 0 else -1
            ranks[d] = _fraction_rank(mat) if char == 0 else _modp_rank(mat, char)
        for d, fs in by_dim.items():
            hom = len(fs) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            if hom:
                table[(d + 1, a)] = hom
    return table


def brute_core_faces(core):
    """Vertex-side faces of a reduced core, by enumerating every vertex subset.

    A core (vertices, constraints) is the union of the simplices
    vertices - c, so a vertex set is a face iff it misses some constraint.
    """
    verts, constraints = core
    return [
        face
        for size in range(len(verts) + 1)
        for face in itertools.combinations(verts, size)
        if any(c.isdisjoint(face) for c in constraints)
    ]


# The set-based core reduction the bitmask ``resolution._core`` replaced,
# kept verbatim as its reference: frozensets of generator indices,
# ``inclusion_minimal`` on constraints and a pairwise domination loop on
# vertices.
def reference_core(a, gens_dividing):
    """Reduce the strict-divisor complex of ``a`` to a small homotopy-equivalent core.

    Returns None when the complex is contractible (no homology anywhere),
    otherwise (vertices, constraints): the complex has one vertex per
    surviving generator, and its faces are the vertex sets missing at
    least one constraint entirely.
    """
    # g divides a, so the support of g lies inside the support of a
    top = dict(a.entries)
    achieved = []
    for g in gens_dividing:
        s = frozenset(p for p, e in g.entries if top[p] == e)
        if not s:
            return None  # the vertex lies in every maximal face: a cone
        achieved.append(s)
    nverts = len(gens_dividing)
    verts = set(range(nverts))
    constraints = {frozenset(v for v in verts if p in achieved[v]) for p in top}

    while True:
        # constraints restricted to live vertices, kept inclusion-minimal
        trimmed = {c & frozenset(verts) for c in constraints}
        if any(not c for c in trimmed):
            # some variable no longer coverable: every vertex set is a face
            return None if verts else ((), ())
        cons = inclusion_minimal(trimmed)
        changed = len(cons) != len(constraints)
        constraints = set(cons)

        membership = {
            v: frozenset(ci for ci, c in enumerate(cons) if v in c) for v in verts
        }
        if any(not m for m in membership.values()):
            return None  # vertex covering nothing: a cone apex
        dropped = set()
        order = sorted(verts)
        for w in order:
            if w in dropped:
                continue
            mw = membership[w]
            for v in order:
                if v == w or v in dropped:
                    continue
                mv = membership[v]
                if mv < mw or (mv == mw and v < w):
                    dropped.add(w)
                    break
        if dropped:
            verts -= dropped
            changed = True
        if not changed:
            break
    return tuple(sorted(verts)), tuple(sorted(constraints, key=sorted))
