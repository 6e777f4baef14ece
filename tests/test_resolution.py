import heapq
import itertools
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from incchains import (
    CapacityError,
    ChainSpec,
    Monomial,
    MonomialIdeal,
    betti,
    codim,
    e_chain,
    e_set,
    generate,
    invariant_table,
    lcm_lattice,
    pd_ideal,
    pd_quotient,
    pd_taylor_oracle,
    variable,
)
from incchains import linalg, resolution
from incchains.linalg import rank_int_exact
from incchains.resolution import (
    _attains,
    _closure,
    _components,
    _core,
    _faces_of_core,
    _nerve_faces,
    _reduced_betti,
)
from conftest import make_mixed_chain
from oracles import brute_betti_table, brute_core_faces, brute_lcm_lattice, reference_core
from randgen import random_chain, random_proper_ideal, rng_for


def _rank_fraction_gauss(matrix):
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


def _rank_gauss_modp(matrix, p):
    """Rank over F_p by dense Gauss-Jordan on residues."""
    m = [[v % p for v in row] for row in matrix]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_rank_routines_agree_with_fraction_gauss():
    rng = random.Random("ranks")
    for _ in range(80):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        dense = [
            [rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)
        ]
        expected = _rank_fraction_gauss(dense)
        sparse = [
            {j: v for j, v in enumerate(row) if v} for row in dense
        ]
        assert rank_int_exact(sparse, ncols) == expected
        assert rank_int_exact(sparse, ncols, 32003) == expected


def _sparse_matrix(rng, nrows, ncols, values):
    """Sparse rows, about a fifth of them replaced by sums of two earlier rows."""
    dense = [
        [rng.choice(values) if rng.random() < 0.15 else 0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for i in range(2, nrows):
        if rng.random() < 0.2:
            a, b = rng.sample(range(i), 2)
            dense[i] = [x + y for x, y in zip(dense[a], dense[b])]
    return dense


def test_rank_int_exact_on_sparse_matrices_up_to_30(monkeypatch):
    calls = {"push": 0}
    non_unit = 0

    def counting_push(heap, item):
        calls["push"] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(
        linalg,
        "heapq",
        SimpleNamespace(heapify=heapq.heapify, heappop=heapq.heappop, heappush=counting_push),
    )
    rng = random.Random("sparse-ranks")
    value_sets = ((1, -1), (1, -1, 1, -1, 2, -3), (2, -2, 3, 5))
    for _ in range(120):
        nrows = rng.randint(8, 30)
        ncols = rng.randint(8, 30)
        dense = _sparse_matrix(rng, nrows, ncols, rng.choice(value_sets))
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        expected = _rank_fraction_gauss(dense)
        assert rank_int_exact(sparse, ncols) == expected
        if expected and not any(v in (1, -1) for row in dense for v in row):
            non_unit += 1  # only the non-unit pivot step can eliminate these
    # rows changed after being queued, and non-unit pivots were taken
    assert calls["push"] > 0
    assert non_unit > 0


def test_prime_field_ranks_match_dense_gauss_mod_p():
    rng = random.Random("modp-ranks")
    dropped = {2: 0, 3: 0}
    for _ in range(150):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        dense = _sparse_matrix(rng, nrows, ncols, (1, -1, 2, 3, -3, 6))
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        rational = _rank_fraction_gauss(dense)
        for p in (2, 3, 32003, 3037000493):
            expected = _rank_gauss_modp(dense, p)
            assert rank_int_exact(sparse, ncols, p) == expected, (dense, p)
            if p in dropped and expected < rational:
                dropped[p] += 1
    # a routine that ignored the characteristic would miss these
    assert dropped[2] > 0 and dropped[3] > 0


def test_lcm_lattice_examples():
    J = MonomialIdeal(1, 2, [variable(1, 1), variable(1, 2)])
    lat = lcm_lattice(J)
    assert set(lat.elements) == {
        Monomial(),
        variable(1, 1),
        variable(1, 2),
        variable(1, 1) * variable(1, 2),
    }
    K = MonomialIdeal(1, 2, [variable(1, 1, 2), variable(1, 1) * variable(1, 2)])
    assert set(lcm_lattice(K).elements) == {
        Monomial(),
        variable(1, 1, 2),
        variable(1, 1) * variable(1, 2),
        variable(1, 1, 2) * variable(1, 2),
    }
    single = MonomialIdeal(2, 2, [variable(1, 1) * variable(2, 2)])
    assert set(lcm_lattice(single).elements) == {Monomial(), variable(1, 1) * variable(2, 2)}


def test_lcm_lattice_cap():
    gens = [variable(1, j) for j in range(1, 6)]
    with pytest.raises(CapacityError):
        lcm_lattice(MonomialIdeal(1, 5, gens), gen_cap=4)


def test_lcm_lattice_matches_subset_oracle():
    squarefree_seen = 0
    for k in range(300):
        rng = rng_for("lcm-lattice", k)
        squarefree = k % 2 == 0
        ideal = random_proper_ideal(
            rng, rng.randint(1, 3), rng.randint(2, 5), 9, 4, squarefree=squarefree
        )
        squarefree_seen += ideal.is_squarefree()
        expected = brute_lcm_lattice(ideal.gens)
        lat = lcm_lattice(ideal)
        assert len(lat) == len(expected)
        assert set(lat.elements) == set(expected)
        assert list(lat.elements) == sorted(expected, key=Monomial.sort_key)
        assert lat.dividing_generators == expected
    assert 0 < squarefree_seen < 300


def test_lattice_cap_refuses_and_table_brackets(monkeypatch):
    monkeypatch.setattr(resolution, "LATTICE_ELEMENT_CAP", 10)
    message = "lcm lattice exceeds 10 elements; refusing"
    coprime = MonomialIdeal(1, 5, [variable(1, j) for j in range(1, 6)])
    with pytest.raises(CapacityError, match=message):
        lcm_lattice(coprime, gen_cap=64)
    # pd splits coprime generators into components, so it needs a connected
    # ideal: the edges of the complete graph on 5 variables (27 lcms)
    edges = MonomialIdeal(
        1, 5, [variable(1, i) * variable(1, j) for i, j in itertools.combinations(range(1, 6), 2)]
    )
    with pytest.raises(CapacityError, match=message):
        pd_quotient(edges)
    # that ideal is the width-5 member of the chain seeded by x[1,1]*x[1,2]
    spec = ChainSpec(rows=1, index=0, seed_index=2, seed=MonomialIdeal(1, 2, edges.gens[:1]))
    table = invariant_table(spec, 3, 5)
    assert [(r.n, r.flag, r.pd_exact) for r in table.entries] == [
        (3, "exact", 2),
        (4, "bounded", None),
        (5, "bounded", None),
    ]


def test_betti_koszul_pair():
    J = MonomialIdeal(2, 1, [variable(1, 1), variable(2, 1)])
    table = betti(J)
    assert table.total(0) == 2
    assert table.total(1) == 1
    assert table.rank(1, variable(1, 1) * variable(2, 1)) == 1
    assert table.max_degree() == 1


def test_betti_triangle():
    tri = MonomialIdeal(
        1,
        3,
        [
            variable(1, 1) * variable(1, 2),
            variable(1, 2) * variable(1, 3),
            variable(1, 3) * variable(1, 1),
        ],
    )
    table = betti(tri)
    assert table.total(0) == 3
    assert table.total(1) == 2
    assert table.max_degree() == 1


def test_betti_degree_zero_lists_generators():
    for k in range(40):
        rng = rng_for("betti0", k)
        ideal = random_proper_ideal(rng, 2, 3, 4, 3)
        table = betti(ideal)
        zero_entries = {a: r for (p, a), r in table.as_dict().items() if p == 0}
        assert zero_entries == {g: 1 for g in ideal.gens}


def test_pd_quotient_examples(mixed_chain):
    assert pd_quotient(generate(mixed_chain, 4)) == 3
    assert pd_quotient(generate(mixed_chain, 5)) == 6
    assert pd_quotient(MonomialIdeal(1, 2, [variable(1, 1), variable(1, 2)])) == 2
    assert pd_quotient(MonomialIdeal(1, 1, [])) == 0


def test_pd_taylor_examples():
    assert pd_taylor_oracle(MonomialIdeal(1, 1, [variable(1, 1, 2)])) == 1
    tri = MonomialIdeal(
        3,
        1,
        [
            variable(1, 1) * variable(2, 1),
            variable(2, 1) * variable(3, 1),
            variable(3, 1) * variable(1, 1),
        ],
    )
    assert pd_taylor_oracle(tri) == 2
    assert pd_quotient(tri) == 2


def test_pd_taylor_guard():
    gens = [variable(1, j) for j in range(1, 12)]
    with pytest.raises(CapacityError):
        pd_taylor_oracle(MonomialIdeal(1, 11, gens))


def test_pd_engine_matches_taylor_oracle():
    for k in range(200):
        rng = rng_for("pd-agree", k)
        rows = rng.choice([1, 2, 2, 3])
        width = max(1, 8 // rows)
        ideal = random_proper_ideal(rng, rows, width, max_gens=6, max_degree=4)
        assert pd_quotient(ideal) == pd_taylor_oracle(ideal), (k, str(ideal))


def test_pd_characteristic_agreement_on_samples(mixed_chain):
    for n in (4, 5, 6):
        ideal = generate(mixed_chain, n)
        assert pd_quotient(ideal, field_char=0) == pd_quotient(ideal, field_char=32003)
    for k in range(40):
        rng = rng_for("pd-char", k)
        ideal = random_proper_ideal(rng, 2, 4, 5, 3)
        assert pd_quotient(ideal, field_char=0) == pd_quotient(ideal, field_char=32003)


def test_pd_between_codim_and_variable_count():
    for k in range(120):
        rng = rng_for("pd-bounds", k)
        rows = rng.randint(1, 3)
        width = rng.randint(1, 4)
        ideal = random_proper_ideal(rng, rows, width, 5, 3)
        pd = pd_quotient(ideal)
        assert codim(ideal) <= pd <= rows * width


def test_pd_splitting_membership_and_lower_bound():
    # pd of the ideal lies in {pd(J:x), pd(<J,x>)} and dominates both shifted
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("pd-split", k)
        k += 1
        ideal = random_proper_ideal(rng, 2, 3, 4, 3)
        variables = ideal.variables()
        if not variables:
            continue
        x = Monomial({variables[rng.randrange(len(variables))]: 1})
        xideal = MonomialIdeal(ideal.rows, ideal.width, [x])
        colon = ideal.colon(x)
        added = ideal + xideal
        pd_j = pd_ideal(ideal)
        pd_colon = pd_ideal(colon)
        pd_added = pd_ideal(added)
        assert pd_j in (pd_colon, pd_added), (str(ideal), str(x))
        assert max(pd_colon, pd_added - 1) <= pd_j
        checked += 1


def test_pd_sandwich_over_derived_chains():
    # max pd over derived ideals brackets the pd of the chain ideal within rows
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("pd-sandwich", k)
        k += 1
        spec = random_chain(rng, max_rows=2, max_seed_index=3, max_gens=3, max_degree=2)
        n = spec.seed_index + 1
        base = generate(spec, n)
        if base.is_zero or base.is_unit:
            continue
        derived_pds = []
        for evector in e_set(spec):
            ideal = generate(e_chain(spec, evector), n)
            derived_pds.append(0 if ideal.is_unit else pd_ideal(ideal))
        best = max(derived_pds)
        pd_n = pd_ideal(base)
        assert best - spec.rows <= pd_n <= best, (k, str(spec.seed))
        checked += 1


def test_betti_table_matches_definition_bruteforce():
    # whole tables, both characteristics, against the unreduced definition
    for k in range(150):
        rng = rng_for("betti-brute", k)
        rows = rng.randint(1, 3)
        width = rng.randint(1, 3)
        ideal = random_proper_ideal(rng, rows, width, max_gens=5, max_degree=3)
        for char in (0, 5):
            table = betti(ideal, field_char=char)
            assert table.as_dict() == brute_betti_table(ideal, char), (
                k,
                char,
                str(ideal),
            )


def test_pd_quotient_matches_full_table():
    # the pruned top-degree scan agrees with the full table's top degree
    for k in range(80):
        rng = rng_for("pd-vs-table", k)
        ideal = random_proper_ideal(rng, 2, 3, 5, 3)
        assert pd_quotient(ideal) == betti(ideal).max_degree() + 1


# facets of the 6-vertex triangulation of the real projective plane
RP2_FACETS = {
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
}


def test_characteristic_dependence_is_detected():
    # squarefree triples avoiding a 6-vertex projective-plane triangulation:
    # the quotient gains a syzygy over F_2, so pd depends on the field
    gens = [
        Monomial({(1, a): 1 for a in t})
        for t in itertools.combinations(range(1, 7), 3)
        if t not in RP2_FACETS
    ]
    ideal = MonomialIdeal(1, 6, gens)
    for char, expected in ((0, 3), (2, 4), (32003, 3)):
        assert pd_quotient(ideal, field_char=char) == expected
        assert pd_taylor_oracle(ideal, field_char=char) == expected
        assert betti(ideal, field_char=char).as_dict() == brute_betti_table(
            ideal, char
        )


def test_pd_gen_cap_refusal(mixed_chain):
    ideal = generate(mixed_chain, 8)
    assert len(ideal.gens) == 25
    with pytest.raises(CapacityError):
        pd_quotient(ideal, gen_cap=24)
    with pytest.raises(CapacityError):
        betti(ideal, gen_cap=24)


# -- nerve side of reduced cores ---------------------------------------------


def _cores(ideal):
    for comp in _components(ideal.gens):
        attains = _attains(comp)
        for a in _closure(comp):
            if not a.is_unit:
                dividing = sum(1 << i for i, g in enumerate(comp) if g.divides(a))
                core = _core(a, dividing, attains)
                if core is not None and core[1]:
                    yield core


def _as_sets(core):
    """A bitmask core as (vertex tuple, constraint frozensets)."""
    nverts, constraints = core
    verts = tuple(range(nverts))
    return verts, tuple(frozenset(v for v in verts if c >> v & 1) for c in constraints)


def _vertex_bound(core):
    verts, constraints = _as_sets(core)
    return sum(1 << (len(verts) - len(c)) for c in constraints)


def test_nerve_side_homology_matches_vertex_side():
    spec = make_mixed_chain()
    cores = set()
    # cores are numbered canonically, so relabelled copies count once; n=9
    # adds distinct ones up to the brute oracle's 13-vertex reach
    for n in range(5, 10):
        cores.update(c for c in _cores(generate(spec, n)) if c[0] <= 13)
    for k in range(200):
        rng = rng_for("nerve-vs-vertex", k)
        if k % 2:
            ideal = random_proper_ideal(rng, 1, 8, 10, 3, squarefree=True)
        else:
            ideal = random_proper_ideal(rng, 3, 4, 9, 4)
        cores.update(_cores(ideal))
    nerve_smaller = [c for c in cores if 1 << len(c[1]) < _vertex_bound(c)]
    assert len(nerve_smaller) >= 25
    assert max(len(_as_sets(c)[0]) for c in nerve_smaller) >= 13
    for core in sorted(cores, key=repr):
        vertex_faces = [sum(1 << v for v in f) for f in brute_core_faces(_as_sets(core))]
        for char in (0, 2, 32003):
            expected = _reduced_betti(vertex_faces, char)
            assert _reduced_betti(_nerve_faces(*core), char) == expected, (core, char)
            assert _reduced_betti(_faces_of_core(core), char) == expected, (core, char)


def _closed_faces(facets):
    """Every face of the given facets, as distinct bitmasks over vertices 1.."""
    return list({
        sum(1 << (v - 1) for v in face)
        for facet in facets
        for size in range(len(facet) + 1)
        for face in itertools.combinations(facet, size)
    })


def test_reduced_betti_of_known_complexes():
    # values from topology, not from the engine: RP^2 is acyclic over Q and
    # over odd fields, with H_1 = H_2 = F_2 in char 2; the tetrahedron's
    # boundary is a 2-sphere; the complex whose only face is the empty face
    # has reduced H_{-1} of rank 1
    rp2 = _closed_faces(RP2_FACETS)
    assert len(rp2) == 32
    for char in (0, 3, 32003):
        assert _reduced_betti(rp2, char) == {}
    assert _reduced_betti(rp2, 2) == {1: 1, 2: 1}
    sphere = _closed_faces(itertools.combinations(range(1, 5), 3))
    assert len(sphere) == 15
    for char in (0, 2, 3, 32003):
        assert _reduced_betti(sphere, char) == {2: 1}
        assert _reduced_betti([0], char) == {-1: 1}


def _subset_ideal(ngens, size):
    """One variable per size-subset of the generators; generator i is the
    product of the variables whose subset contains i."""
    subsets = list(itertools.combinations(range(ngens), size))
    gens = [
        Monomial({(1, j + 1): 1 for j, s in enumerate(subsets) if i in s})
        for i in range(ngens)
    ]
    return MonomialIdeal(1, len(subsets), gens)


def test_vertex_side_kept_where_the_nerve_is_larger():
    # the top core has 8 vertices and 70 constraints: 1,120 vertex-side
    # faces at most, against 2^35 nerve faces avoiding any one vertex
    ideal = _subset_ideal(8, 4)
    assert pd_quotient(ideal) == 5
    assert pd_quotient(ideal, field_char=32003) == 5
    top = ideal.gens[0]
    for g in ideal.gens[1:]:
        top = top.lcm(g)
    core = _core(top, (1 << len(ideal.gens)) - 1, _attains(ideal.gens))
    assert (len(_as_sets(core)[0]), len(core[1])) == (8, 70)
    with pytest.raises(CapacityError, match="reduced complex too large to enumerate"):
        _nerve_faces(*core)


def test_face_cap_refuses_when_both_sides_are_large():
    # 11 vertices and 55 constraints: vertex-side bound 55 * 2^9, nerve 2^55
    with pytest.raises(CapacityError, match="^reduced complex too large to enumerate$"):
        pd_quotient(_subset_ideal(11, 2))
    # nerve side chosen (2^16 < 10 * 2^13 + 6 * 2^12) and still over the cap:
    # 10 singletons and the 6 pairs of the remaining 4 vertices
    constraints = [frozenset({v}) for v in range(10)]
    constraints += [frozenset(p) for p in itertools.combinations(range(10, 14), 2)]
    core = (14, tuple(sum(1 << v for v in c) for c in constraints))
    assert 1 << len(constraints) < _vertex_bound(core)
    with pytest.raises(CapacityError, match="^reduced complex too large to enumerate$"):
        _faces_of_core(core)


# -- bitmask cores -------------------------------------------------------------


def _renumbered(core):
    """A set-based core as (vertex count, constraint frozensets over 0..k-1)."""
    verts, constraints = core
    index = {v: i for i, v in enumerate(verts)}
    return len(verts), {frozenset(index[v] for v in c) for c in constraints}


def test_core_matches_the_set_based_reference():
    spec = make_mixed_chain()
    ideals = [generate(spec, n) for n in range(4, 10)]
    for k in range(200):
        rng = rng_for("core-vs-reference", k)
        if k % 2:
            ideals.append(random_proper_ideal(rng, 1, 8, 10, 3, squarefree=True))
        else:
            ideals.append(random_proper_ideal(rng, 3, 4, 9, 4))
    nones = kept = 0
    for ideal in ideals:
        for comp in _components(ideal.gens):
            attains = _attains(comp)
            for a, dividing in _closure(comp).items():
                if a.is_unit:
                    continue
                expected = reference_core(a, tuple(g for g in comp if g.divides(a)))
                core = _core(a, dividing, attains)
                if expected is None:
                    assert core is None, (a, comp)
                    nones += 1
                else:
                    verts, constraints = _as_sets(core)
                    assert (len(verts), set(constraints)) == _renumbered(expected), (a, comp)
                    kept += 1
    assert nones > 1000 and kept > 1000


def test_core_ignores_where_the_component_sits_among_the_generators():
    # the homology memo keys on cores, so a component must give equal cores
    # when other generators come first and shift its generator indices
    comps = _components(generate(make_mixed_chain(), 8).gens)
    assert len(comps) > 1
    cores = 0
    for j, comp in enumerate(comps):
        others = tuple(g for other in comps[:j] + comps[j + 1 :] for g in other)
        gens = others + comp
        alone, shifted = _attains(comp), _attains(gens)
        for a, dividing in _closure(comp).items():
            if a.is_unit:
                continue
            moved = sum(1 << i for i, g in enumerate(gens) if g.divides(a))
            assert moved == dividing << len(others)
            core = _core(a, dividing, alone)
            assert _core(a, moved, shifted) == core
            cores += core is not None
    assert cores > 10


# -- field characteristics ----------------------------------------------------


def test_characteristic_above_int64_bound_refused():
    ideal = MonomialIdeal(1, 2, [variable(1, 1), variable(1, 2)])
    with pytest.raises(ValueError, match="3037000499"):
        pd_quotient(ideal, field_char=4294967311)
    start = time.time()
    with pytest.raises(ValueError, match="3037000499"):
        betti(ideal, field_char=100000000000000003)  # an 18-digit prime
    assert time.time() - start < 1
    # the largest prime below the bound is accepted, and its ranks are right
    p = 3037000493
    assert pd_quotient(ideal, field_char=p) == 2
    rng = random.Random("large-p")
    for _ in range(60):
        dense = _sparse_matrix(rng, 8, 8, (1, -1, 2, -3, 7))
        sparse = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert rank_int_exact(sparse, 8, p) == _rank_fraction_gauss(dense)
