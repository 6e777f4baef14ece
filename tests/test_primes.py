import itertools

import pytest
from hypothesis import given

from incchains import (
    INFINITY,
    CapacityError,
    Monomial,
    MonomialIdeal,
    codim,
    codim_bruteforce,
    minimal_primes,
    variable,
)
from incchains import generate, verify_codim_theorem
from incchains.primes import _minimal_supports, _packing_bound
from conftest import make_mixed_chain, make_product_chain
from oracles import brute_minimal_primes
from randgen import random_ideal, random_proper_ideal, rng_for
from test_monomial import ideals


def test_minimal_primes_worked_example():
    # high part of the worked ideal at index 2
    J = MonomialIdeal(
        3, 6, [variable(2, 3, 3) * variable(1, 4, 2), variable(2, 4, 2) * variable(3, 5, 4)]
    )
    expected = {
        frozenset({(2, 3), (3, 5)}),
        frozenset({(2, 3), (2, 4)}),
        frozenset({(1, 4), (2, 4)}),
        frozenset({(1, 4), (3, 5)}),
    }
    assert minimal_primes(J) == expected


def test_minimal_primes_principal():
    assert minimal_primes(MonomialIdeal(1, 1, [variable(1, 1)])) == {
        frozenset({(1, 1)})
    }


def test_minimal_primes_triangle():
    tri = MonomialIdeal(
        1,
        3,
        [
            variable(1, 1) * variable(1, 2),
            variable(1, 2) * variable(1, 3),
            variable(1, 3) * variable(1, 1),
        ],
    )
    assert minimal_primes(tri) == brute_minimal_primes(tri)
    assert all(len(p) == 2 for p in minimal_primes(tri))
    assert len(minimal_primes(tri)) == 3


def test_minimal_primes_degenerate_ideals():
    assert minimal_primes(MonomialIdeal(1, 1, [Monomial()])) == frozenset()
    assert minimal_primes(MonomialIdeal(1, 1, [])) == {frozenset()}


@given(ideals(rows=2, width=3, max_gens=4, max_degree=3))
def test_minimal_primes_match_bruteforce(ideal):
    assert minimal_primes(ideal) == brute_minimal_primes(ideal)


@given(ideals(rows=2, width=3, max_gens=4, max_degree=3))
def test_minimal_primes_hit_and_are_minimal(ideal):
    supports = [frozenset(g.support()) for g in ideal.gens]
    for p in minimal_primes(ideal):
        assert all(p & s for s in supports)
        for v in p:
            smaller = p - {v}
            assert not all(smaller & s for s in supports)


def test_minimal_primes_match_bruteforce_on_random_hypergraphs():
    for k in range(200):
        rng = rng_for("berge", k)
        nvars = rng.randint(6, 12)
        supports = [
            rng.sample(range(1, nvars + 1), rng.randint(2, 3))
            for _ in range(rng.randint(8, 32))
        ]
        ideal = MonomialIdeal(1, nvars, [Monomial({(1, j): 1 for j in s}) for s in supports])
        assert minimal_primes(ideal) == brute_minimal_primes(ideal), (k, str(ideal))


def _disjoint_edges(top):
    return MonomialIdeal(2, top, [variable(1, j) * variable(2, j) for j in range(2, top + 1)])


def test_minimal_primes_limit():
    with pytest.raises(CapacityError, match="more than 20000 minimal primes"):
        minimal_primes(_disjoint_edges(16), limit=20000)
    assert len(minimal_primes(_disjoint_edges(15), limit=20000)) == 2**14


def test_codim_examples():
    assert codim(MonomialIdeal(2, 1, [Monomial()])) is INFINITY
    assert codim(MonomialIdeal(2, 1, [])) == 0
    I4 = generate(make_mixed_chain(), 4)
    assert codim_bruteforce(I4) == 3
    assert codim(I4) == 3


def test_codim_bruteforce_guard():
    wide = MonomialIdeal(3, 7, [variable(k, j) for k in (1, 2, 3) for j in range(1, 8)])
    assert len(wide.variables()) == 21
    with pytest.raises(CapacityError):
        codim_bruteforce(wide)
    assert codim_bruteforce(MonomialIdeal(2, 1, [variable(1, 1) * variable(2, 1)])) == 1


def test_codim_oracle_equivalence_batch():
    for k in range(120):
        rng = rng_for("codim-batch", k)
        ideal = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 5), 5, 4)
        assert codim(ideal) == codim_bruteforce(ideal)


def test_codim_radical_invariance():
    for k in range(60):
        rng = rng_for("codim-rad", k)
        ideal = random_proper_ideal(rng, 2, 4, 4, 4)
        assert codim(ideal) == codim(ideal.radical())
        assert codim_bruteforce(ideal) == codim_bruteforce(ideal.radical())


def test_codim_monotone_under_inclusion():
    for k in range(60):
        rng = rng_for("codim-mono", k)
        inner = random_proper_ideal(rng, 2, 3, 3, 3)
        extra = random_proper_ideal(rng, 2, 3, 2, 3)
        outer = inner + extra
        assert codim(inner) <= codim(outer)


def test_splitting_identity_on_squarefree_ideals():
    # codim J = min(codim <(J:x), x> - 1, codim <J, x>) for squarefree J
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("split", k)
        k += 1
        ideal = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 4), 4, 3, squarefree=True)
        variables = ideal.variables()
        if not variables or len(variables) > 12:
            continue
        x = Monomial({variables[rng.randrange(len(variables))]: 1})
        xideal = MonomialIdeal(ideal.rows, ideal.width, [x])
        lhs = codim(ideal)
        via_colon = codim(ideal.colon(x) + xideal) - 1
        via_sum = codim(ideal + xideal)
        assert lhs == min(via_colon, via_sum), (str(ideal), str(x))
        checked += 1
    assert checked == 200


def _planted_clique_ideal(rng):
    """Squarefree ideal on 4..14 variables: planted cliques, extra edges, short supports."""
    width = rng.randint(4, 14)
    columns = range(1, width + 1)
    supports = set()
    for _ in range(rng.randint(0, 3)):
        clique = rng.sample(columns, min(width, rng.randint(3, 7)))
        supports.update(frozenset(pair) for pair in itertools.combinations(clique, 2))
    for _ in range(rng.randint(0, 2 * width)):
        supports.add(frozenset(rng.sample(columns, 2)))
    for _ in range(rng.randint(0, 3)):
        supports.add(frozenset(rng.sample(columns, rng.randint(1, 3))))
    gens = [Monomial({(1, j): 1 for j in s}) for s in supports]
    return MonomialIdeal(1, width, gens)


def _disjoint_packing_size(supports):
    """Greedy count of pairwise disjoint supports, shortest first, with no cliques."""
    used = set()
    count = 0
    for s in sorted(supports, key=len):
        if used.isdisjoint(s):
            used.update(s)
            count += 1
    return count


def test_clique_bound_is_a_lower_bound():
    raised = 0
    for k in range(400):
        ideal = _planted_clique_ideal(rng_for("clique-bound", k))
        exact = codim_bruteforce(ideal)
        supports = _minimal_supports(ideal)
        bound = _packing_bound(supports)
        assert bound <= exact, str(ideal)
        assert codim(ideal) == exact, str(ideal)
        raised += bound > _disjoint_packing_size(supports)
    # the cliques must actually raise the bound above a disjoint packing
    assert raised > 100


def test_codim_theorem_on_product3_to_width_30():
    report = verify_codim_theorem(make_product_chain(3), 20, 30)
    assert report.verdict == "PASS"
    assert report.details["codim"] == {n: n - 2 for n in range(20, 31)}
    assert report.details["slope"] == report.details["gamma"] == 1
