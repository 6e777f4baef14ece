import itertools

import pytest

from incchains import (
    ChainSpec,
    Monomial,
    MonomialIdeal,
    cm_obstruction,
    codim,
    codim_bruteforce,
    fit_linear,
    generate,
    invariant_table,
    variable,
    verify_c1_dichotomy,
    verify_codim_theorem,
    verify_pd_bounds,
)
from conftest import make_product_chain
from oracles import brute_e_ideal
from randgen import random_chain, rng_for


def test_invariant_table_pd_column(mixed_chain):
    table = invariant_table(mixed_chain, 4, 7)
    assert [r.pd_exact for r in table.entries] == [3, 6, 8, 10]
    assert table.row(4).codim == 3
    assert codim_bruteforce(generate(mixed_chain, 4)) == 3


def test_invariant_table_zero_chain():
    spec = ChainSpec(rows=2, index=0, seed_index=1, seed=MonomialIdeal(2, 1, []))
    table = invariant_table(spec, 1, 4)
    for r in table.entries:
        assert r.codim == 0 and r.pd_exact == 0


def test_invariant_table_bounded_rows(mixed_chain):
    table = invariant_table(mixed_chain, 8, 10)
    for r in table.entries:
        assert r.flag == "bounded"
        assert r.pd_exact is None
        assert r.pd_lower == r.codim
        assert r.pd_upper == 3 * r.n


def test_invariant_table_csv_golden(mixed_chain):
    table = invariant_table(mixed_chain, 4, 5)
    assert table.to_csv() == (
        "n,codim,pd_exact,pd_lower,pd_upper,gamma\n"
        "4,3,3,3,3,2\n"
        "5,5,6,6,6,2\n"
    )


def test_fit_linear_examples():
    fit = fit_linear([(4, 3), (5, 6), (6, 8), (7, 10), (8, 12), (9, 14), (10, 16)])
    assert (fit.slope, fit.intercept, fit.onset, fit.conclusive) == (2, -4, 5, True)
    const = fit_linear([(1, 7), (2, 7), (3, 7), (4, 7)])
    assert const.slope == 0 and const.conclusive
    two = fit_linear([(1, 1), (2, 3)])
    assert (two.slope, two.onset, two.conclusive) == (2, 1, False)


def test_fit_linear_degenerate_and_errors():
    assert fit_linear([]).degenerate
    assert fit_linear([(3, 5)]).degenerate
    with pytest.raises(ValueError):
        fit_linear([(1, 1), (3, 2)])


def test_fit_linear_permutation_independent():
    pts = [(4, 3), (5, 6), (6, 8), (7, 10)]
    assert fit_linear(pts) == fit_linear(list(reversed(pts)))


def test_verify_codim_theorem_sample(mixed_chain):
    report = verify_codim_theorem(mixed_chain, 4, 10)
    assert report.verdict == "PASS"
    assert report.details["slope"] == 2
    assert report.details["intercept"] == -5


def test_verify_codim_theorem_unit_chain():
    unit = ChainSpec(rows=2, index=1, seed_index=2, seed=MonomialIdeal(2, 2, [Monomial()]))
    assert verify_codim_theorem(unit, 2, 8).verdict == "PASS"


@pytest.mark.parametrize("n_from, n_to", [(6, 4), (1, 2)])
def test_verify_codim_theorem_refuses_empty_range(mixed_chain, n_from, n_to):
    # (1, 2) lies wholly below the seed index 4, so no width is checked
    with pytest.raises(ValueError, match="empty width range"):
        verify_codim_theorem(mixed_chain, n_from, n_to)


def test_verify_codim_theorem_product_chain():
    report = verify_codim_theorem(make_product_chain(3), 3, 9)
    assert report.verdict == "PASS"
    assert report.details["slope"] == 1


def test_verify_codim_theorem_inconclusive_on_short_range(mixed_chain):
    report = verify_codim_theorem(mixed_chain, 4, 5)
    assert report.verdict == "INCONCLUSIVE"


def test_verify_pd_bounds_sample(mixed_chain):
    report = verify_pd_bounds(mixed_chain, 4, 8, depth_cap=2, gen_cap=30)
    assert report.verdict == "PASS"
    assert report.details["best_slope"] == 2
    assert report.details["pd_fit_slope"] == 2
    assert report.details["slopes"] == {
        "gamma": 2,
        "gamma_limit_capped": 2,
        "vm": 2,
    }


def test_verify_pd_bounds_product_chain_slopes():
    spec = make_product_chain(3)
    report = verify_pd_bounds(spec, 3, 7, depth_cap=1)
    assert report.details["slopes"]["gamma"] == 1
    assert report.details["slopes"]["gamma_limit_capped"] == 3
    assert report.details["best_slope"] == 3
    # every tabulated width satisfies the two-sided bound
    assert "failures" not in report.details or report.verdict != "FAIL"


def test_verify_pd_bounds_inconclusive_without_exact_rows(mixed_chain):
    report = verify_pd_bounds(mixed_chain, 9, 10)
    assert report.verdict == "INCONCLUSIVE"


def test_pd_at_least_codim_everywhere(mixed_chain):
    table = invariant_table(mixed_chain, 4, 7)
    for r in table.entries:
        assert r.codim <= r.pd_exact <= 3 * r.n


def test_cm_obstruction_product_chain():
    for rows in (2, 3):
        report = cm_obstruction(make_product_chain(rows), depth_cap=1)
        assert report.verdict == "NECESSARY-CONDITION-FAILS"


def test_cm_obstruction_principal_orbit():
    spec = ChainSpec(
        rows=2, index=1, seed_index=2, seed=MonomialIdeal(2, 2, [variable(1, 2)])
    )
    report = cm_obstruction(spec, depth_cap=2)
    assert report.verdict == "NO-OBSTRUCTION-FOUND"
    assert report.details["gamma_limit_stabilized"]


def test_cm_obstruction_degenerate_chains():
    unit = ChainSpec(
        rows=2, index=1, seed_index=2, seed=MonomialIdeal(2, 2, [Monomial()])
    )
    assert cm_obstruction(unit, 1).verdict == "NO-OBSTRUCTION-FOUND"
    zero = ChainSpec(rows=2, index=0, seed_index=1, seed=MonomialIdeal(2, 1, []))
    report = verify_pd_bounds(zero, 1, 6)
    assert report.verdict == "PASS"
    assert report.details["slopes"] == {"gamma": 0, "gamma_limit_capped": 0, "vm": 0}


def test_cm_obstruction_sample_recorded(mixed_chain):
    report = cm_obstruction(mixed_chain, depth_cap=2)
    assert report.verdict == "NO-OBSTRUCTION-FOUND"
    # the observed pd exceeds codim by one at every width, so the chain is
    # not eventually Cohen-Macaulay even though the necessary conditions pass
    table = invariant_table(mixed_chain, 4, 7)
    gaps = {r.pd_exact - r.codim for r in table.entries}
    assert gaps == {0, 1}


def test_codim_jump_under_q_equality():
    # derived chains with equal q add exactly rows to the codimension
    checked = 0
    for k in range(300):
        rng = rng_for("codim-jump", k)
        spec = random_chain(rng, max_rows=3, max_seed_index=4, max_gens=3, max_degree=3)
        base_q = generate(spec, spec.seed_index).q_invariant()
        for evector in itertools.product((0, 1), repeat=spec.rows):
            ideal1 = brute_e_ideal(spec, evector, spec.seed_index + 1)
            if ideal1.is_unit or ideal1.q_invariant() != base_q:
                continue
            for n in range(spec.seed_index, spec.seed_index + 3):
                lhs = codim(brute_e_ideal(spec, evector, n + 1))
                assert lhs == codim(generate(spec, n)) + spec.rows
            checked += 1
        if checked >= 120:
            break
    assert checked >= 120


def test_c1_dichotomy_fixed_generators():
    # all generators at or below the index: the chain freezes, pd is constant
    spec = ChainSpec(
        rows=1, index=2, seed_index=2,
        seed=MonomialIdeal(1, 2, [variable(1, 1) * variable(1, 2)]),
    )
    report = verify_c1_dichotomy(spec, 2, 9)
    assert report.verdict == "PASS"
    assert report.details["eventually_constant"]


def test_c1_dichotomy_moving_generator():
    spec = ChainSpec(
        rows=1, index=1, seed_index=2,
        seed=MonomialIdeal(1, 2, [variable(1, 2, 2)]),
    )
    report = verify_c1_dichotomy(spec, 2, 9)
    assert report.verdict == "PASS"
    assert report.details["within_band"]


def test_c1_dichotomy_pipeline_example():
    spec = ChainSpec(
        rows=1, index=1, seed_index=2,
        seed=MonomialIdeal(1, 2, [variable(1, 1) * variable(1, 2)]),
    )
    assert verify_c1_dichotomy(spec, 2, 8).verdict == "PASS"


def test_c1_dichotomy_wrong_rows(mixed_chain):
    with pytest.raises(ValueError):
        verify_c1_dichotomy(mixed_chain, 4, 8)


def test_invariant_table_unit_chain_renders_inf():
    unit = ChainSpec(
        rows=2, index=1, seed_index=2, seed=MonomialIdeal(2, 2, [Monomial()])
    )
    table = invariant_table(unit, 2, 4)
    assert all(r.flag == "unit" for r in table.entries)
    lines = table.to_csv().splitlines()
    assert lines[1] == "2,inf,,,,inf"


def test_verify_pd_bounds_uses_exact_prefix(mixed_chain):
    # widths 8..10 overflow the default cap; the fit falls back to 4..7
    report = verify_pd_bounds(mixed_chain, 4, 10, depth_cap=1)
    assert report.details["exact_rows"] == [(4, 3), (5, 6), (6, 8), (7, 10)]
    assert report.verdict == "INCONCLUSIVE"  # two agreeing steps only


def test_concurrent_readers_share_chain_caches(mixed_chain):
    # values are immutable and the generate cache tolerates concurrent use
    from concurrent.futures import ThreadPoolExecutor

    def work(n):
        ideal = generate(mixed_chain, 4 + (n % 4))
        return codim(ideal)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    assert results == [[3, 5, 7, 9][n % 4] for n in range(32)]


def test_reports_are_json_serializable(mixed_chain):
    import json

    for report in (
        verify_codim_theorem(mixed_chain, 4, 8),
        verify_pd_bounds(mixed_chain, 4, 7, depth_cap=1),
        cm_obstruction(mixed_chain, depth_cap=1),
    ):
        payload = report.to_json()
        parsed = json.loads(payload)
        assert parsed["schemaVersion"] == 1
        assert parsed["verdict"] == report.verdict
