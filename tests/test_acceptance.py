"""Acceptance gate: end-to-end checks with frozen expected values.

Each test prints one PASS line when it completes (run with ``-s`` to see
the lines for passing tests).  Random suites use fixed seeds, so the run
is deterministic.
"""

import itertools
import time

import pytest

from incchains import (
    INFINITY,
    Monomial,
    MonomialIdeal,
    chain_radical,
    cm_obstruction,
    codim,
    codim_bruteforce,
    e_chain,
    e_set,
    fit_linear,
    gamma,
    gamma_chain,
    gamma_limit,
    generate,
    invariant_table,
    minimal_primes,
    orbit,
    partition_generators,
    pd_ideal,
    pd_quotient,
    pd_taylor_oracle,
    shift_sigma,
    variable,
    vm_bound,
    verify_c1_dichotomy,
    verify_codim_theorem,
)
from conftest import make_mixed_chain, make_product_chain, make_worked_ideal
from oracles import (
    all_monomials,
    brute_covering_rows,
    brute_e_ideal,
    brute_minimal_covers,
    brute_orbit,
)
from randgen import (
    random_chain,
    random_ideal,
    random_monomial,
    random_one_row_chain,
    random_proper_ideal,
    rng_for,
)


def _announce(criterion, text):
    print(f"ACCEPTANCE CRITERION {criterion}: PASS - {text}")


# -- criterion 1: frozen pd table ------------------------------------------


def test_criterion_1_pd_table():
    spec = make_mixed_chain()
    start = time.time()
    expected = {4: 3, 5: 6, 6: 8, 7: 10}
    for char in (0, 32003):
        for n, value in expected.items():
            assert pd_quotient(generate(spec, n), field_char=char) == value, (n, char)
    table = invariant_table(spec, 9, 10)
    for r in table.entries:
        assert r.flag == "bounded"
        assert r.pd_lower <= 2 * r.n - 4 <= r.pd_upper
    elapsed = time.time() - start
    assert elapsed < 600
    _announce(1, f"pd table 3,6,8,10 at n=4..7 (chars 0 and 32003), "
                 f"bounds bracket 2n-4 at n=9,10 ({elapsed:.1f}s)")


@pytest.mark.stretch
def test_criterion_1_stretch_n8():
    spec = make_mixed_chain()
    start = time.time()
    assert pd_quotient(generate(spec, 8), field_char=0, gen_cap=30) == 12
    elapsed = time.time() - start
    assert elapsed < 3600
    _announce(1, f"stretch: pd = 12 at n = 8 ({elapsed:.1f}s)")


@pytest.mark.stretch
def test_criterion_1_stretch_n9():
    spec = make_mixed_chain()
    start = time.time()
    assert pd_quotient(generate(spec, 9), field_char=0, gen_cap=40) == 14
    elapsed = time.time() - start
    assert elapsed < 3600
    _announce(1, f"stretch: pd = 14 at n = 9 ({elapsed:.1f}s)")


# -- criterion 2: worked-example equalities ---------------------------------


def test_criterion_2_worked_examples():
    J = make_worked_ideal()
    report = gamma(J, 2)
    assert report.gamma == 1
    assert report.minimal_covers == {frozenset({2}), frozenset({1, 3})}
    assert report.cover_family == {
        frozenset({2, 3}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({1, 3}),
    }
    high = MonomialIdeal(3, 6, partition_generators(J, 2).high)
    assert minimal_primes(high) == {
        frozenset({(2, 3), (3, 5)}),
        frozenset({(2, 3), (2, 4)}),
        frozenset({(1, 4), (2, 4)}),
        frozenset({(1, 4), (3, 5)}),
    }
    for rows in (2, 3, 4):
        spec = make_product_chain(rows)
        assert gamma_chain(spec).gamma == 1
        limit = gamma_limit(spec)
        assert limit.value == rows
        assert limit.level_values[0] == rows  # reached at depth 1
        assert limit.stabilized
    _announce(2, "cover number 1 with covers {2},{1,3}, the 4-element cover "
                 "family and minimal primes, and limit = rows at depth 1 for "
                 "rows in {2,3,4}")


# -- criterion 3: codimension linearity at desk scale ------------------------


def _criterion3_chains():
    chains = [make_mixed_chain()]
    produced = 0
    k = 0
    while produced < 12:
        rng = rng_for("accept-crit3", k)
        k += 1
        spec = random_chain(rng, max_rows=3, max_seed_index=5, max_gens=5, max_degree=4)
        chains.append(spec)
        produced += 1
    return chains


def test_criterion_3_codim_linearity():
    passed = 0
    for spec in _criterion3_chains():
        start = time.time()
        report = verify_codim_theorem(spec, spec.seed_index, spec.seed_index + 6)
        elapsed = time.time() - start
        assert elapsed < 300, "per-chain time budget exceeded"
        assert report.verdict != "FAIL", report.details
        if report.verdict == "PASS":
            assert report.details["slope"] == gamma_chain(spec).gamma
            passed += 1
    assert passed >= 11
    _announce(3, f"conclusive codim fits with slope = cover number on "
                 f"{passed} chains (sample chain plus randomized)")


# -- criterion 4: property-law suites -----------------------------------------


def test_criterion_4_colon_radical_membership():
    cases = 0
    for k in range(200):
        rng = rng_for("accept-core", k)
        rows = rng.randint(1, 3)
        width = rng.randint(1, 3)
        ideal = random_ideal(rng, rows, width, 4, 3)
        v = random_monomial(rng, rows, width, 2)
        quotient = ideal.colon(v)
        rad = ideal.radical()
        kmax = max(ideal.max_exponent(), 1)
        for u in all_monomials(rows, width, 2):
            assert (u in quotient) == (u * v in ideal)
            assert (u in rad) == (u**kmax in ideal)
            assert (u in ideal) == any(g.divides(u) for g in ideal.gens)
        cases += 1
    assert cases == 200
    _announce(4, "colon/radical/membership laws on 200 random ideals")


def test_criterion_4_cover_laws():
    for k in range(200):
        rng = rng_for("accept-l34", k)
        rows = rng.randint(1, 3)
        width = rng.randint(1, 4)
        i = rng.randint(0, 2)
        inner = random_proper_ideal(rng, rows, width, 3, 3)
        extra = random_proper_ideal(rng, rows, width, 2, 3)
        outer = inner + extra
        # (i) covering passes from a monomial to its multiples
        u = random_monomial(rng, rows, width, 2)
        v = u * random_monomial(rng, rows, width, 1)
        chosen = {r for r in range(1, rows + 1) if rng.random() < 0.5}
        if any(r in chosen for r in u.rows_used()):
            assert any(r in chosen for r in v.rows_used())
        if outer.is_unit:
            continue
        # (ii) covers of the larger ideal cover the smaller one
        for cover in brute_minimal_covers(outer, i):
            assert brute_covering_rows(inner, i, cover)
        # (iii) monotone, (iv) radical-invariant
        assert gamma(inner, i).gamma <= gamma(outer, i).gamma
        assert gamma(inner, i).gamma == gamma(inner.radical(), i).gamma
    _announce(4, "cover monotonicity/restriction/radical laws on 200 cases")


def test_criterion_4_gamma_constancy_along_chains():
    for k in range(200):
        rng = rng_for("accept-l35", k)
        spec = random_chain(rng, max_rows=3, max_seed_index=5, max_gens=5, max_degree=4)
        base = gamma_chain(spec).gamma
        for n in range(spec.seed_index, spec.seed_index + 6):
            assert gamma(generate(spec, n), spec.index).gamma == base
    _announce(4, "cover number constant over n = r..r+5 on 200 random chains")


def test_criterion_4_splitting_identity():
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("accept-l39", k)
        k += 1
        ideal = random_ideal(
            rng, rng.randint(1, 3), rng.randint(1, 4), 4, 3, squarefree=True
        )
        variables = ideal.variables()
        if not variables or len(variables) > 12:
            continue
        x = Monomial({variables[rng.randrange(len(variables))]: 1})
        xideal = MonomialIdeal(ideal.rows, ideal.width, [x])
        lhs = codim(ideal)
        assert lhs == min(codim(ideal.colon(x) + xideal) - 1, codim(ideal + xideal))
        checked += 1
    _announce(4, "codimension splitting identity on 200 squarefree ideals")


def test_criterion_4_q_inequality_and_equality_case():
    checked = equalities = 0
    k = 0
    while checked < 200:
        rng = rng_for("accept-l26", k)
        k += 1
        spec = random_chain(rng, max_rows=3, max_seed_index=4, max_gens=4, max_degree=3)
        evector = tuple(rng.randint(0, 2) for _ in range(spec.rows))
        base = generate(spec, spec.seed_index)
        derived = e_chain(spec, evector)
        seed1 = generate(derived, derived.seed_index)
        q_base, q_derived = base.q_invariant(), seed1.q_invariant()
        assert q_derived <= q_base
        checked += 1
        if q_derived == q_base:
            equalities += 1
            col = spec.index + 1
            for n in range(spec.seed_index, spec.seed_index + 2):
                In = generate(spec, n)
                shifted = [shift_sigma(spec.index, g) for g in In.gens]
                cols = [variable(t, col) for t in range(1, spec.rows + 1)]
                assert generate(derived, n + 1) == MonomialIdeal(
                    spec.rows, n + 1, shifted + cols
                )
    assert equalities >= 20
    _announce(4, f"q never grows on 200 derived chains; the {equalities} "
                 f"equality cases match the shifted-ideal description")


def test_criterion_4_derived_gamma_laws():
    # (iii) on arbitrary chains
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("accept-l310iii", k)
        k += 1
        spec = random_chain(rng, max_rows=3, max_seed_index=4, max_gens=4, max_degree=3)
        g = gamma_chain(spec).gamma
        for evector in e_set(spec):
            assert g <= gamma_chain(e_chain(spec, evector)).gamma
            checked += 1
    # (iv) and (v) on squarefree chains (see the notes ledger: the raw
    # statement fails on non-squarefree seeds such as <x[2,2]^3>)
    checked_iv = 0
    done_v = 0
    k = 0
    while checked_iv < 200 or done_v < 200:
        rng = rng_for("accept-l310v", k)
        k += 1
        spec = chain_radical(
            random_chain(rng, max_rows=3, max_seed_index=4, max_gens=3, max_degree=3)
        )
        g = gamma_chain(spec).gamma
        base_q = generate(spec, spec.seed_index).q_invariant()
        options = []
        for evector in itertools.product((0, 1), repeat=spec.rows):
            ideal = brute_e_ideal(spec, evector, spec.seed_index + 1)
            if ideal.is_unit:
                continue
            if ideal.q_invariant() == base_q:
                assert g <= spec.rows - sum(evector)
                checked_iv += 1
                options.append(spec.rows - sum(evector))
            else:
                options.append(gamma_chain(e_chain(spec, evector)).gamma)
        assert options and g == min(options)
        done_v += 1
    _announce(4, "level-gamma relations: 200 monotonicity cases, 200 "
                 "q-equality caps, 200 binary-minimum identities")


def test_criterion_4_pd_splitting():
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("accept-l48", k)
        k += 1
        ideal = random_proper_ideal(rng, 2, 3, 4, 3)
        variables = ideal.variables()
        if not variables:
            continue
        x = Monomial({variables[rng.randrange(len(variables))]: 1})
        xideal = MonomialIdeal(ideal.rows, ideal.width, [x])
        pd_j = pd_ideal(ideal)
        pd_colon = pd_ideal(ideal.colon(x))
        pd_added = pd_ideal(ideal + xideal)
        assert pd_j in (pd_colon, pd_added)
        assert max(pd_colon, pd_added - 1) <= pd_j
        checked += 1
    _announce(4, "pd splitting membership and lower bound on 200 ideals")


def test_criterion_4_pd_sandwich():
    checked = 0
    k = 0
    while checked < 200:
        rng = rng_for("accept-l49", k)
        k += 1
        spec = random_chain(rng, max_rows=2, max_seed_index=3, max_gens=3, max_degree=2)
        n = spec.seed_index + 1
        base = generate(spec, n)
        if base.is_zero or base.is_unit:
            continue
        derived_pds = [
            0 if generate(e_chain(spec, e), n).is_unit
            else pd_ideal(generate(e_chain(spec, e), n))
            for e in e_set(spec)
        ]
        best = max(derived_pds)
        assert best - spec.rows <= pd_ideal(base) <= best
        checked += 1
    _announce(4, "pd sandwich over derived chains on 200 chains")


# -- criterion 5: oracle equivalences ----------------------------------------


def test_criterion_5_codim_oracle():
    checked = 0
    k = 0
    while checked < 500:
        rng = rng_for("accept-codim-oracle", k)
        k += 1
        ideal = random_ideal(rng, rng.randint(1, 3), rng.randint(1, 6), 6, 4)
        if len(ideal.variables()) > 20:
            continue
        assert codim(ideal) == codim_bruteforce(ideal)
        checked += 1
    _announce(5, "codim equals subset-enumeration oracle on 500 ideals")


def test_criterion_5_pd_oracle():
    for k in range(200):
        rng = rng_for("accept-pd-oracle", k)
        rows = rng.choice([1, 2, 2, 3])
        width = max(1, 8 // rows)
        ideal = random_proper_ideal(rng, rows, width, max_gens=6, max_degree=4)
        assert len(ideal.variables()) <= 8
        assert pd_quotient(ideal) == pd_taylor_oracle(ideal)
    _announce(5, "lattice pd engine equals Taylor-complex oracle on 200 ideals")


def test_criterion_5_orbit_oracle():
    rng = rng_for("accept-orbit")
    cases = 0
    for m in range(1, 9):
        for n in range(m, 9):
            for i in range(0, m + 1):
                u = random_monomial(rng, 2, m, 3)
                assert orbit(u, i, m, n) == brute_orbit(u, i, m, n)
                cases += 1
    _announce(5, f"orbit equals brute-force map enumeration on {cases} "
                 f"(i, m, n) triples with m, n <= 8")


# -- criterion 6: bound verifications ----------------------------------------


def test_criterion_6_bounds_on_criterion3_chains():
    slope_comparisons = 0
    for spec in _criterion3_chains():
        table = invariant_table(spec, spec.seed_index, spec.seed_index + 6)
        exact = [(r.n, r.pd_exact) for r in table.entries if r.flag == "exact"]
        for r in table.entries:
            if r.flag != "exact" or r.codim is INFINITY:
                continue
            assert r.codim <= r.pd_exact <= spec.rows * r.n
        if len(exact) < 2:
            continue
        fit = fit_linear(exact)
        if not fit.conclusive:
            continue
        g = gamma_chain(spec).gamma
        limit = gamma_limit(spec, 1)
        best = max(g, limit.value, vm_bound(spec).slope)
        assert best <= fit.slope, (spec.seed, best, fit.slope)
        slope_comparisons += 1
    assert slope_comparisons >= 8
    report = cm_obstruction(make_product_chain(3), depth_cap=1)
    assert report.verdict == "NECESSARY-CONDITION-FAILS"
    _announce(6, f"codim <= pd <= rows*n everywhere; best verified slope <= "
                 f"observed pd slope on {slope_comparisons} chains; product "
                 f"chain obstruction detected")


# -- criterion 7: one-row dichotomy ------------------------------------------


def test_criterion_7_one_row_dichotomy():
    passes = 0
    branches = set()
    for k in range(10):
        rng = rng_for("accept-c1", k)
        spec = random_one_row_chain(rng)
        report = verify_c1_dichotomy(
            spec, spec.seed_index, spec.seed_index + 8, gen_cap=64
        )
        assert report.verdict == "PASS", (k, report.details)
        if report.details["eventually_constant"]:
            branches.add("constant")
        if report.details["within_band"]:
            branches.add("band")
        passes += 1
    assert passes == 10
    assert branches == {"constant", "band"}
    _announce(7, "one-row dichotomy PASS on 10 random chains over n = r..r+8, "
                 "both branches observed")
