import itertools

import pytest

from incchains import (
    INFINITY,
    ChainSpec,
    Monomial,
    MonomialIdeal,
    UndefinedInvariantError,
    chain_colon,
    e_chain,
    e_set,
    gamma,
    gamma_chain,
    gamma_limit,
    gamma_max_level,
    generate,
    partition_generators,
    variable,
    vm_bound,
)
from incchains.chainfile import parse_monomial
from incchains.covers import VM_SUBSET_CAP, _levels
from conftest import make_product_chain
from oracles import brute_e_ideal, brute_e_set, brute_gamma, brute_minimal_covers
from randgen import random_chain, random_proper_ideal, rng_for


def test_partition_worked_example(worked_ideal):
    part = partition_generators(worked_ideal, 2)
    assert set(part.low) == {variable(2, 1, 4)}
    assert set(part.straddling) == {
        variable(1, 1, 3) * variable(2, 3, 2) * variable(1, 4),
        variable(3, 2) * variable(1, 3, 2) * variable(2, 4),
    }
    assert set(part.high) == {
        variable(2, 3, 3) * variable(1, 4, 2),
        variable(2, 4, 2) * variable(3, 5, 4),
    }


def test_partition_factorization(worked_ideal):
    part = partition_generators(worked_ideal, 2)
    factored = {u: (u1, u2) for u, u1, u2 in part.factorizations}
    u = variable(1, 1, 3) * variable(2, 3, 2) * variable(1, 4)
    u1, u2 = factored[u]
    assert u1 == variable(1, 1, 3)
    assert u2 == variable(2, 3, 2) * variable(1, 4)
    assert u1 * u2 == u
    for v, v1, v2 in part.factorizations:
        assert v1 * v2 == v
        assert v1.max_col() <= 2 < v2.min_col()


def test_partition_all_high():
    J = MonomialIdeal(2, 4, [variable(1, 3) * variable(2, 4)])
    part = partition_generators(J, 2)
    assert part.high == J.gens and not part.straddling and not part.low


def test_partition_rejects_degenerate():
    with pytest.raises(UndefinedInvariantError):
        partition_generators(MonomialIdeal(1, 1, []), 0)
    with pytest.raises(UndefinedInvariantError):
        partition_generators(MonomialIdeal(1, 1, [Monomial()]), 0)


def test_gamma_worked_example(worked_ideal):
    report = gamma(worked_ideal, 2)
    assert report.gamma == 1
    assert report.cover_family == {
        frozenset({2, 3}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }
    assert report.minimal_covers == {frozenset({2}), frozenset({1, 3})}
    assert report.witness_cover == frozenset({2})


def test_gamma_unit_and_zero():
    assert gamma(MonomialIdeal(2, 1, [Monomial()]), 0).gamma is INFINITY
    zero_report = gamma(MonomialIdeal(2, 1, []), 0)
    assert zero_report.gamma == 0 and zero_report.witness_cover == frozenset()


def test_gamma_matches_bruteforce_random():
    for k in range(200):
        rng = rng_for("gamma-brute", k)
        ideal = random_proper_ideal(rng, rng.randint(1, 3), rng.randint(1, 5), 5, 4)
        i = rng.randint(0, 3)
        report = gamma(ideal, i)
        assert report.gamma == brute_gamma(ideal, i), (k, str(ideal), i)
        if report.cover_family is not None and report.gamma > 0:
            assert report.minimal_covers == brute_minimal_covers(ideal, i)


@pytest.mark.parametrize(
    "ideal",
    [
        # 33 high generators, past COVER_FAMILY_GENERATOR_CAP
        MonomialIdeal(1, 34, [variable(1, j) for j in range(2, 35)]),
        # 15 disjoint edges: 2**15 minimal primes, past COVER_FAMILY_PRIME_CAP
        MonomialIdeal(2, 16, [variable(1, j) * variable(2, j) for j in range(2, 17)]),
    ],
    ids=["generator-cap", "prime-cap"],
)
def test_gamma_row_search_past_the_family_caps(ideal):
    report = gamma(ideal, 1)
    assert (report.gamma, report.witness_cover) == (1, frozenset({1}))
    assert (report.cover_family, report.route) == (None, "row-subsets")


def test_gamma_cover_properties_random():
    # covers pass to multiples, restrict along inclusions, and ignore radicals
    for k in range(200):
        rng = rng_for("gamma-props", k)
        rows = rng.randint(1, 3)
        width = rng.randint(1, 4)
        inner = random_proper_ideal(rng, rows, width, 3, 3)
        extra = random_proper_ideal(rng, rows, width, 2, 3)
        outer = inner + extra
        i = rng.randint(0, 2)
        if outer.is_unit:
            continue
        assert gamma(inner, i).gamma <= gamma(outer, i).gamma
        assert gamma(inner, i).gamma == gamma(inner.radical(), i).gamma


def test_cover_passes_to_multiples():
    rng = rng_for("cover-mult")
    for _ in range(200):
        rows = rng.randint(1, 3)
        u_entries = {
            (rng.randint(1, rows), rng.randint(1, 4)): rng.randint(1, 2)
            for _ in range(rng.randint(1, 3))
        }
        u = Monomial(u_entries)
        v = u * Monomial({(rng.randint(1, rows), rng.randint(1, 4)): 1})
        covering = {k for k in range(1, rows + 1) if rng.random() < 0.5}
        u_covered = any(r in covering for r in u.rows_used())
        v_covered = any(r in covering for r in v.rows_used())
        if u_covered:
            assert v_covered


def test_gamma_chain_examples(mixed_chain):
    report = gamma_chain(mixed_chain)
    assert report.gamma == 2
    assert report.minimal_covers == {frozenset({1, 2}), frozenset({1, 3})}
    assert gamma_chain(make_product_chain(3)).gamma == 1
    low_only = MonomialIdeal(2, 3, [variable(1, 1) * variable(2, 1)])
    from incchains import ChainSpec

    low_chain = ChainSpec(rows=2, index=2, seed_index=3, seed=low_only)
    assert gamma_chain(low_chain).gamma == 0


def test_gamma_constant_along_chain():
    for k in range(200):
        rng = rng_for("gamma-const", k)
        spec = random_chain(rng)
        base = gamma_chain(spec).gamma
        for n in range(spec.seed_index, spec.seed_index + 6):
            assert gamma(generate(spec, n), spec.index).gamma == base


def test_e_set_examples(mixed_chain):
    # no generator touches column index+1 at the next width in this chain
    from incchains import ChainSpec

    quiet = ChainSpec(
        rows=2, index=2, seed_index=3, seed=MonomialIdeal(2, 3, [variable(1, 1) * variable(2, 1)])
    )
    reps = e_set(quiet)
    assert reps == ((0, 0),)
    product = make_product_chain(3, index=1)
    assert (1, 0, 0) in e_set(product)
    for spec in (mixed_chain, product):
        for evector in e_set(spec):
            assert generate(e_chain(spec, evector), spec.seed_index + 1).is_proper


def test_e_set_covers_all_ideals():
    # capped representatives realize every derived ideal the raw tuples do
    for k in range(60):
        rng = rng_for("eset-cover", k)
        spec = random_chain(rng, max_rows=2, max_seed_index=4, max_gens=3, max_degree=3)
        r1 = spec.seed_index + 1
        rep_ideals = {generate(e_chain(spec, e), r1) for e in e_set(spec)}
        raw_ideals = {
            brute_e_ideal(spec, e, r1)
            for e in brute_e_set(spec, cap=4)
        }
        assert rep_ideals == raw_ideals


def test_gamma_max_level_product_chain():
    for rows in (2, 3, 4):
        spec = make_product_chain(rows, index=1)
        assert gamma_max_level(spec, 1) == rows


def test_gamma_max_level_monotone():
    for k in range(20):
        rng = rng_for("gml-mono", k)
        spec = random_chain(rng, max_rows=2, max_seed_index=3, max_gens=3, max_degree=2)
        values = [gamma_max_level(spec, depth) for depth in (1, 2, 3)]
        assert values[0] <= values[1] <= values[2] <= spec.rows
        assert gamma_chain(spec).gamma <= values[0]


def test_gamma_max_level_mixed_chain_against_bruteforce(mixed_chain):
    # depth-1 value recomputed by enumerating raw tuples and row subsets
    best = -1
    r1 = mixed_chain.seed_index + 1
    for evector in brute_e_set(mixed_chain, cap=4):
        ideal = brute_e_ideal(mixed_chain, evector, r1)
        if ideal.is_unit:
            continue
        best = max(best, brute_gamma(ideal, mixed_chain.index + 1))
    assert gamma_max_level(mixed_chain, 1) == best


def test_gamma_limit_examples(mixed_chain):
    for rows in (2, 3, 4):
        spec = make_product_chain(rows, index=1)
        limit = gamma_limit(spec)
        assert limit.value == rows and limit.stabilized
        assert limit.level_values[0] == rows
    assert gamma_limit(mixed_chain, 2).value >= gamma_chain(mixed_chain).gamma


def test_gamma_limit_single_orbit_single_row():
    from incchains import ChainSpec

    seed = MonomialIdeal(3, 3, [variable(1, 2) * variable(1, 3)])
    spec = ChainSpec(rows=3, index=1, seed_index=3, seed=seed)
    limit = gamma_limit(spec, 2)
    assert limit.value == 1 and limit.stabilized
    # brute recursion to depth 2 over raw tuples
    best = -1
    for e1 in brute_e_set(spec, cap=3):
        first = brute_e_ideal(spec, e1, spec.seed_index + 1)
        if first.is_unit:
            continue
        t1 = e_chain(spec, e1)
        best = max(best, brute_gamma(first, spec.index + 1))
        for e2 in brute_e_set(t1, cap=3):
            second = brute_e_ideal(t1, e2, t1.seed_index + 1)
            if second.is_unit:
                continue
            best = max(best, brute_gamma(second, spec.index + 2))
    assert best == 1


DERIVED_PINS = [
    # (c, i, r, seed generators), gamma_limit at depth 4 as (value, depth,
    # level values, witness path), gamma_max_level at k = 1, 2, 3, and the
    # distinct chains per level of _levels at depth 4
    (
        (3, 0, 3, "x[1,1]*x[1,2]*x[2,3]", "x[1,2]*x[1,3]*x[2,3]",
         "x[1,3]*x[3,1]*x[3,2]", "x[1,3]*x[2,1]^2*x[2,2]"),
        (2, 4, (1, 2, 2, 2), ((1, 0, 0), (1, 0, 0))),
        (1, 2, 2),
        [8, 16, 16, 16],
    ),
    (
        (2, 0, 4, "x[1,2]*x[1,3]", "x[1,1]*x[1,4]^2", "x[1,2]*x[2,1]*x[2,4]",
         "x[1,4]*x[2,1]*x[2,2]*x[2,3]"),
        (2, 2, (1, 2), ((0, 1), (1, 0))),
        (1, 2, 2),
        [4, 10, 15, 15],
    ),
]


@pytest.mark.parametrize("chain, limit, maxima, level_sizes", DERIVED_PINS)
def test_derived_chain_outputs_are_pinned(chain, limit, maxima, level_sizes):
    # the only witness paths longer than one step in the suite
    rows, index, seed_index, *gens = chain
    seed = MonomialIdeal(rows, seed_index, [parse_monomial(g) for g in gens])
    spec = ChainSpec(rows=rows, index=index, seed_index=seed_index, seed=seed)
    got = gamma_limit(spec, 4)
    assert got.stabilized
    assert (got.value, got.depth, got.level_values, got.witness_path) == limit
    assert tuple(gamma_max_level(spec, k) for k in (1, 2, 3)) == maxima
    assert [len(level) for level in _levels(spec, 4)] == level_sizes


def _squarefree_chain(rng, **kwargs):
    from incchains import ChainSpec, chain_radical

    spec = random_chain(rng, **kwargs)
    return chain_radical(spec)


def test_derived_gamma_monotone_and_binary_caps():
    # derived chains never lower gamma (any chain); on q-equality gamma caps
    # at rows - |e| (squarefree chains: the cap fails on seeds such as
    # <x[2,2]^3>, where every binary tuple reaches q-equality)
    checked_iii = checked_iv = 0
    for k in range(300):
        rng = rng_for("l310", k)
        spec = random_chain(rng, max_rows=3, max_seed_index=4, max_gens=4, max_degree=3)
        g = gamma_chain(spec).gamma
        for evector in e_set(spec):
            derived = e_chain(spec, evector)
            assert g <= gamma_chain(derived).gamma
            checked_iii += 1
        sf = _squarefree_chain(rng_for("l310-sf", k), max_rows=3, max_seed_index=4,
                               max_gens=4, max_degree=3)
        g = gamma_chain(sf).gamma
        base_q = generate(sf, sf.seed_index).q_invariant()
        for evector in itertools.product((0, 1), repeat=sf.rows):
            derived_ideal = brute_e_ideal(sf, evector, sf.seed_index + 1)
            if derived_ideal.is_unit:
                continue
            if derived_ideal.q_invariant() == base_q:
                assert g <= sf.rows - sum(evector), (k, str(sf.seed), evector)
                checked_iv += 1
        if checked_iii >= 200 and checked_iv >= 200:
            break
    assert checked_iii >= 200 and checked_iv >= 200


def test_gamma_equals_binary_tuple_minimum():
    # on squarefree chains gamma equals the min over binary tuples, split by
    # the q comparison
    for k in range(200):
        rng = rng_for("l310v", k)
        spec = _squarefree_chain(rng, max_rows=3, max_seed_index=4, max_gens=3,
                                 max_degree=3)
        g = gamma_chain(spec).gamma
        base_q = generate(spec, spec.seed_index).q_invariant()
        options = []
        for evector in itertools.product((0, 1), repeat=spec.rows):
            ideal = brute_e_ideal(spec, evector, spec.seed_index + 1)
            if ideal.is_unit:
                continue
            if ideal.q_invariant() < base_q:
                derived = e_chain(spec, evector)
                options.append(gamma_chain(derived).gamma)
            else:
                options.append(spec.rows - sum(evector))
        assert options, k
        assert g == min(options), (k, str(spec.seed), g, options)


def test_vm_bound_no_straddlers():
    spec = make_product_chain(2)
    bound = vm_bound(spec)
    assert bound.slope == gamma_chain(spec).gamma
    assert bound.witness == frozenset()


def test_vm_bound_mixed_chain(mixed_chain):
    bound = vm_bound(mixed_chain)
    # colon by the low part of the straddling generator, checked by brute force
    straddler = variable(1, 4, 2) * variable(2, 1)
    colon_chain = chain_colon(mixed_chain, variable(2, 1))
    seed = generate(colon_chain, mixed_chain.seed_index)
    assert brute_gamma(seed, mixed_chain.index) == 2
    assert bound.slope == 2
    assert bound.complete


def test_vm_bound_at_least_gamma():
    for k in range(100):
        rng = rng_for("vm", k)
        spec = random_chain(rng, max_rows=3, max_seed_index=4, max_gens=4, max_degree=3)
        assert vm_bound(spec).slope >= gamma_chain(spec).gamma


def test_vm_bound_truncated_past_the_subset_cap():
    seed = MonomialIdeal(2, 18, [variable(1, 1) * variable(1 + j % 2, j) for j in range(2, 19)])
    spec = ChainSpec(rows=2, index=1, seed_index=18, seed=seed)
    mids = partition_generators(seed, 1).factorizations
    assert len(mids) == 17 > VM_SUBSET_CAP
    bound = vm_bound(spec)
    assert not bound.complete
    # the truncated search tries the empty set, the singletons and the full set
    subsets = [()] + [(m,) for m in mids] + [tuple(mids)]
    best = -1
    for subset in subsets:
        v = Monomial()
        for _, low, _ in subset:
            v = v * low
        best = max(best, gamma_chain(chain_colon(spec, v)).gamma)
    assert bound.slope == best == 2


def test_vm_bound_skips_inadmissible_products():
    seed = MonomialIdeal(
        2,
        3,
        [
            variable(1, 1, 2),
            variable(1, 1) * variable(1, 3),
            variable(1, 1) * variable(2, 3),
            variable(2, 2) * variable(2, 3),
        ],
    )
    spec = ChainSpec(rows=2, index=1, seed_index=3, seed=seed)
    part = partition_generators(seed, 1)
    assert len(part.straddling) == 2
    # the pair's product x[1,1]^2 is a low generator; its colon would be the unit ideal
    assert part.low == (variable(1, 1, 2),)
    bound = vm_bound(spec)
    assert bound.slope == 2 and bound.complete
    assert len(bound.witness) == 1 and bound.witness <= set(part.straddling)
