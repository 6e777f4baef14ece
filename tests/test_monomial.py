import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from incchains import (
    INFINITY,
    Monomial,
    MonomialIdeal,
    RowError,
    UndefinedInvariantError,
    WidthError,
    variable,
)
from conftest import make_mixed_chain
from incchains import generate, shift_sigma
from incchains.monomial import inclusion_minimal
from oracles import all_monomials, brute_inclusion_minimal, brute_minimal_generators
from randgen import random_monomial, rng_for


@st.composite
def monomials(draw, rows=3, width=4, max_degree=4):
    degree = draw(st.integers(0, max_degree))
    entries = {}
    for _ in range(degree):
        pos = (draw(st.integers(1, rows)), draw(st.integers(1, width)))
        entries[pos] = entries.get(pos, 0) + 1
    return Monomial(entries)


@st.composite
def ideals(draw, rows=3, width=4, max_gens=4, max_degree=4):
    gens = draw(st.lists(monomials(rows, width, max_degree), max_size=max_gens))
    return MonomialIdeal(rows, width, gens)


def test_infinity_ordering():
    assert 5 < INFINITY
    assert not INFINITY < 5
    assert INFINITY == INFINITY
    assert INFINITY - 1 is INFINITY
    assert INFINITY + 7 is INFINITY
    assert min(3, INFINITY) == 3
    assert max(3, INFINITY) is INFINITY


def test_monomial_basics():
    u = variable(1, 2, 3)
    assert u.degree == 3
    assert str(u) == "x[1,2]^3"
    assert str(Monomial()) == "1"
    v = variable(2, 2) * variable(3, 3)
    assert v.min_col() == 2 and v.max_col() == 3
    assert Monomial().min_col() is None
    assert (variable(1, 1) * variable(1, 1)).exponent((1, 1)) == 2


def test_repeated_position_refused():
    with pytest.raises(ValueError, match=r"^repeated position \(1,1\)$"):
        Monomial([((1, 1), 1), ((1, 1), 2)])
    with pytest.raises(ValueError, match=r"^repeated position \(2,3\)$"):
        Monomial(iter([((2, 3), 0), ((1, 1), 1), ((2, 3), 1)]))
    assert Monomial([((1, 2), 2), ((1, 1), 1)]) == Monomial({(1, 1): 1, (1, 2): 2})


def test_outside_input_refused():
    with pytest.raises(RowError, match=r"^row 0 out of range$"):
        Monomial({(0, 1): 1})
    with pytest.raises(WidthError, match=r"^column 0 out of range$"):
        Monomial({(1, 0): 1})
    with pytest.raises(ValueError, match=r"^negative exponent at \(1,1\)$"):
        Monomial({(1, 1): -1})
    with pytest.raises(RowError, match=r"^row 0 out of range$"):
        variable(0, 1)
    with pytest.raises(WidthError, match=r"^column 0 out of range$"):
        variable(1, 2).apply_column_map({2: 0})
    with pytest.raises(ValueError, match=r"^negative power$"):
        variable(1, 2) ** -1
    # zero exponents are skipped before any range check
    assert Monomial({(0, 0): 0}) == Monomial()


def _assert_canonical(result):
    rebuilt = Monomial(dict(result.entries))
    assert result.entries == rebuilt.entries
    assert result.degree == rebuilt.degree
    assert hash(result) == hash(rebuilt)
    assert list(result.entries) == sorted(result.entries)
    assert all(e > 0 for _, e in result.entries)


def test_arithmetic_results_are_canonical():
    saw_unit_quotient = saw_merge = 0
    for k in range(200):
        rng = rng_for("canonical-arithmetic", k)
        rows, width = rng.randint(1, 3), rng.randint(1, 5)
        u = random_monomial(rng, rows, width, 5, min_degree=0)
        v = random_monomial(rng, rows, width, 5, min_degree=0)
        g = u.gcd(v)
        results = [u.lcm(v), u * v, g, u // g, u // u, (u * v) // v, u.squarefree()]
        saw_unit_quotient += (u // g).is_unit
        for i in (0, rng.randint(1, width), width + 1):
            results.extend(u.split_at_column(i))
        results.extend(u ** e for e in range(4))
        a, b = sorted(rng.sample(range(1, width + 2), 2))
        merged = u.apply_column_map({b: a})
        saw_merge += len(merged.entries) < len(u.entries)
        results.append(merged)
        results.append(shift_sigma(rng.randint(0, width), u))
        for result in results:
            _assert_canonical(result)
    assert saw_unit_quotient and saw_merge


def test_divides_examples():
    assert Monomial().divides(variable(2, 5, 7))
    u = variable(1, 2, 3)
    assert u.divides(u * variable(2, 1))
    a = variable(2, 2) * variable(3, 3)
    b = variable(2, 2) * variable(3, 4)
    assert not a.divides(b)


def test_lcm_examples():
    assert variable(1, 1).lcm(variable(1, 1, 2)) == variable(1, 1, 2)
    a = variable(1, 2, 3)
    b = variable(2, 2) * variable(3, 3)
    assert a.lcm(b) == a * b
    assert Monomial().lcm(Monomial()) == Monomial()


@given(monomials(), monomials(), monomials())
def test_divides_transitive(u, v, w):
    if u.divides(v) and v.divides(w):
        assert u.divides(w)


@given(monomials(), monomials(), monomials())
def test_lcm_laws(u, v, w):
    assert u.lcm(v) == v.lcm(u)
    assert u.lcm(u) == u
    assert u.lcm(v.lcm(w)) == u.lcm(v).lcm(w)
    assert u.divides(u.lcm(v))


@given(monomials(), monomials())
def test_gcd_division(u, v):
    g = u.gcd(v)
    assert g.divides(u) and g.divides(v)
    assert (u // g) * g == u


def test_minimalize_examples():
    a = variable(1, 1)
    assert MonomialIdeal(1, 2, [a, a * variable(1, 2)]).gens == (a,)
    zero = MonomialIdeal(2, 3, [])
    assert zero.is_zero and not zero.is_unit
    unit = MonomialIdeal(1, 1, [Monomial(), variable(1, 1)])
    assert unit.is_unit


def test_minimalize_rejects_bad_candidates():
    with pytest.raises(WidthError):
        MonomialIdeal(1, 2, [variable(1, 3)])
    with pytest.raises(RowError):
        MonomialIdeal(3, 4, [variable(4, 1)])


def test_minimalize_with_duplicates_recovers_next_width():
    # feeding the width-5 generators with duplicates yields the 7 minimal ones
    spec = make_mixed_chain()
    expected = generate(spec, 5)
    noisy = list(expected.gens) + [
        expected.gens[0] * variable(1, 1),
        expected.gens[2],
        expected.gens[3] * expected.gens[4],
    ]
    assert MonomialIdeal(3, 5, noisy) == expected
    assert len(expected.gens) == 7


@given(ideals())
def test_minimalize_idempotent_and_order_insensitive(ideal):
    again = MonomialIdeal(ideal.rows, ideal.width, ideal.gens)
    assert again == ideal
    reversed_input = MonomialIdeal(ideal.rows, ideal.width, tuple(reversed(ideal.gens)))
    assert reversed_input == ideal


def test_contains_examples():
    J = MonomialIdeal(1, 2, [variable(1, 2, 3)])
    assert variable(1, 2, 4) in J
    assert Monomial() not in MonomialIdeal(1, 1, [])
    spec = make_mixed_chain()
    I4 = generate(spec, 4)
    probe = variable(2, 2) * variable(3, 4)
    # none of the three generators divides the probe
    assert all(not g.divides(probe) for g in I4.gens)
    assert probe not in I4


@given(ideals(rows=2, width=2, max_gens=3, max_degree=3))
def test_contains_matches_divisibility_bruteforce(ideal):
    for u in all_monomials(2, 2, 3):
        assert (u in ideal) == any(g.divides(u) for g in ideal.gens)


def test_colon_examples():
    J = MonomialIdeal(3, 3, [variable(2, 2) * variable(3, 3)])
    assert J.colon(variable(2, 2)) == MonomialIdeal(3, 3, [variable(3, 3)])
    spec = make_mixed_chain()
    I4 = generate(spec, 4)
    assert I4.colon(Monomial()) == I4
    expected = MonomialIdeal(
        3, 4, [variable(1, 2, 3), variable(1, 4, 2), variable(2, 2) * variable(3, 3)]
    )
    assert I4.colon(variable(2, 1)) == expected


def test_colon_membership_law_on_sample():
    spec = make_mixed_chain()
    I4 = generate(spec, 4)
    v = variable(2, 1)
    quotient = I4.colon(v)
    for u in all_monomials(3, 4, 3):
        assert (u in quotient) == (u * v in I4)


@given(ideals(rows=2, width=2, max_gens=3, max_degree=3), monomials(rows=2, width=2, max_degree=2))
def test_colon_membership_law_random(ideal, v):
    quotient = ideal.colon(v)
    for u in all_monomials(2, 2, 2):
        assert (u in quotient) == (u * v in ideal)


def test_radical_examples():
    J = MonomialIdeal(2, 4, [variable(1, 2, 3), variable(1, 4, 2) * variable(2, 1)])
    assert J.radical() == MonomialIdeal(
        2, 4, [variable(1, 2), variable(1, 4) * variable(2, 1)]
    )
    sf = MonomialIdeal(2, 2, [variable(1, 1) * variable(2, 2)])
    assert sf.radical() == sf


@given(ideals())
def test_radical_idempotent_and_membership(ideal):
    rad = ideal.radical()
    assert rad.radical() == rad
    k = max(ideal.max_exponent(), 1)
    for u in all_monomials(3, 4, 2):
        assert (u in rad) == (u**k in ideal)


def test_sum_examples(mixed_chain):
    I4 = generate(mixed_chain, 4)
    zero = MonomialIdeal(3, 4, [])
    assert I4 + zero == I4
    a = MonomialIdeal(1, 2, [variable(1, 1)])
    b = MonomialIdeal(1, 2, [variable(1, 1, 2), variable(1, 2)])
    assert a + b == MonomialIdeal(1, 2, [variable(1, 1), variable(1, 2)])
    increment = MonomialIdeal(
        3,
        5,
        [
            variable(1, 3, 3),
            variable(1, 5, 2) * variable(2, 1),
            variable(2, 2) * variable(3, 4),
            variable(2, 3) * variable(3, 4),
        ],
    )
    assert I4 + increment == generate(mixed_chain, 5)


def test_sum_row_mismatch():
    with pytest.raises(RowError):
        MonomialIdeal(1, 1, [variable(1, 1)]) + MonomialIdeal(2, 1, [variable(2, 1)])


def test_delta_examples(mixed_chain):
    assert MonomialIdeal(1, 1, [variable(1, 1, 2)]).delta() == 2
    assert generate(mixed_chain, 4).delta() == 3
    assert MonomialIdeal(2, 1, [variable(1, 1), variable(2, 1)]).delta() == 1
    with pytest.raises(UndefinedInvariantError):
        MonomialIdeal(1, 1, []).delta()
    with pytest.raises(UndefinedInvariantError):
        MonomialIdeal(1, 1, [Monomial()]).delta()


def test_q_invariant_examples():
    assert MonomialIdeal(1, 1, [Monomial()]).q_invariant() == 0
    assert MonomialIdeal(1, 1, [variable(1, 1, 2)]).q_invariant() == 2
    assert MonomialIdeal(1, 2, [variable(1, 1), variable(1, 2)]).q_invariant() == 1
    with pytest.raises(UndefinedInvariantError):
        MonomialIdeal(1, 1, []).q_invariant()


@given(ideals(rows=2, width=2, max_gens=3, max_degree=3))
def test_q_invariant_matches_enumeration(ideal):
    if ideal.is_zero or ideal.is_unit:
        return
    bound = ideal.delta()
    expected = sum(1 for u in all_monomials(2, 2, bound) if u not in ideal)
    assert ideal.q_invariant() == expected
    assert ideal.q_invariant() >= 1


def test_minimal_generators_match_all_pairs_oracle():
    saw_unit = saw_duplicates = 0
    for k in range(300):
        rng = rng_for("mingens", k)
        rows, width = rng.randint(1, 3), rng.randint(1, 6)
        candidates = [
            random_monomial(rng, rows, width, 4) for _ in range(rng.randint(0, 40))
        ]
        candidates += rng.sample(candidates, min(len(candidates), rng.randint(0, 5)))
        if rng.random() < 0.1:
            candidates.insert(rng.randint(0, len(candidates)), Monomial())
        saw_unit += Monomial() in candidates
        saw_duplicates += len(set(candidates)) < len(candidates)
        rng.shuffle(candidates)
        ideal = MonomialIdeal(rows, width, candidates)
        assert ideal.gens == brute_minimal_generators(candidates)
    assert saw_unit and saw_duplicates > 100


def test_inclusion_minimal_matches_all_pairs_oracle():
    saw_empty = 0
    for k in range(300):
        rng = rng_for("inclusion-minimal", k)
        universe = range(rng.randint(1, 9))
        family = {
            frozenset(rng.sample(universe, rng.randint(0, len(universe))))
            for _ in range(rng.randint(0, 30))
        }
        saw_empty += frozenset() in family
        members = list(family)
        rng.shuffle(members)
        assert inclusion_minimal(members) == brute_inclusion_minimal(members)
    assert saw_empty
    # many sets of one length, some of them above a few shorter ones
    for k in range(20):
        rng = rng_for("inclusion-minimal-equal-length", k)
        members = [frozenset(c) for c in itertools.combinations(range(9), 3)]
        members += [frozenset(rng.sample(range(9), 2)) for _ in range(k % 4)]
        members = list(set(members))
        rng.shuffle(members)
        assert inclusion_minimal(members) == brute_inclusion_minimal(members)
