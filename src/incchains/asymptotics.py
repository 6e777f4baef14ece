"""Invariant tables over a width range, eventual-linearity fits, and verdicts.

Tables carry, per width n: the exact codimension, the cover number, and
the projective dimension of the quotient (exact when the generator count
permits the exact engine, otherwise the bracket [codim, rows * n]).
Fits detect the longest suffix on which the values follow an integer
linear law exactly; a fit counts as conclusive only when backed by at
least three consecutive agreeing steps, since no effective onset bounds
are available.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .errors import CapacityError
from .monomial import INFINITY
from .chains import generate
from .covers import gamma, gamma_chain, gamma_limit, vm_bound
from .primes import codim
from .resolution import DEFAULT_GENERATOR_CAP, pd_quotient

__all__ = [
    "TableRow",
    "InvariantTable",
    "LinearFit",
    "CheckReport",
    "invariant_table",
    "fit_linear",
    "verify_codim_theorem",
    "verify_pd_bounds",
    "cm_obstruction",
    "verify_c1_dichotomy",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1
CONCLUSIVE_STEPS = 3


def plain(value):
    """A JSON-ready copy of ``value``: INFINITY as "inf", sets sorted, tuples
    as lists, dict keys as strings.

    Lists are left as they are, so the text form of a list of pairs (such
    as ``exact_rows``) keeps printing its pairs as tuples.
    """
    if value is INFINITY:
        return "inf"
    if isinstance(value, (frozenset, set)):
        return sorted(plain(x) for x in value)
    if isinstance(value, tuple):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {str(k): plain(x) for k, x in value.items()}
    return value


def _chain_meta(spec):
    return {
        "rows": spec.rows,
        "index": spec.index,
        "seedIndex": spec.seed_index,
        "derivation": spec.describe(),
    }


@dataclass(frozen=True)
class TableRow:
    n: int
    codim: object  # int or INFINITY
    gamma: object  # int or INFINITY
    pd_exact: int | None
    pd_lower: int | None
    pd_upper: int | None
    flag: str  # "exact" | "bounded" | "unit"


@dataclass(frozen=True)
class InvariantTable:
    """Per-width invariants of one chain, for a contiguous range of widths."""

    rows: int
    index: int
    seed_index: int
    derivation: str
    field_char: int
    gen_cap: int
    entries: tuple

    def row(self, n):
        for r in self.entries:
            if r.n == n:
                return r
        raise KeyError(n)

    def column(self, name):
        return [(r.n, getattr(r, name)) for r in self.entries]

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "codim", "pd_exact", "pd_lower", "pd_upper", "gamma"])
        for r in self.entries:
            writer.writerow(
                [
                    r.n,
                    str(r.codim),
                    "" if r.pd_exact is None else r.pd_exact,
                    "" if r.pd_lower is None else r.pd_lower,
                    "" if r.pd_upper is None else r.pd_upper,
                    str(r.gamma),
                ]
            )
        return buf.getvalue()

    def as_dict(self):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "chain": {
                "rows": self.rows,
                "index": self.index,
                "seedIndex": self.seed_index,
                "derivation": self.derivation,
            },
            "fieldChar": self.field_char,
            "genCap": self.gen_cap,
            "rows_by_n": [
                {
                    "n": r.n,
                    "codim": plain(r.codim),
                    "gamma": plain(r.gamma),
                    "pdExact": r.pd_exact,
                    "pdLower": r.pd_lower,
                    "pdUpper": r.pd_upper,
                    "flag": r.flag,
                }
                for r in self.entries
            ],
        }


def invariant_table(spec, n_from, n_to, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP):
    """Tabulate codim, cover number, and projective dimension for n_from..n_to.

    Projective-dimension refusals (generator cap, enumeration caps) turn
    into bracketed rows; they never abort the table.
    """
    if n_from > n_to:
        raise ValueError("empty width range")
    entries = []
    for n in range(n_from, n_to + 1):
        ideal = generate(spec, n)
        cd = codim(ideal)
        gm = gamma(ideal, spec.index).gamma
        if ideal.is_unit:
            entries.append(TableRow(n, INFINITY, INFINITY, None, None, None, "unit"))
            continue
        if ideal.is_zero:
            entries.append(TableRow(n, 0, gm, 0, 0, 0, "exact"))
            continue
        try:
            pd = pd_quotient(ideal, field_char=field_char, gen_cap=gen_cap)
            entries.append(TableRow(n, cd, gm, pd, pd, pd, "exact"))
        except CapacityError:
            entries.append(
                TableRow(n, cd, gm, None, cd, spec.rows * n, "bounded")
            )
    prev = None
    for r in entries:
        if prev is not None and r.codim < prev:
            raise AssertionError("codimension decreased along the chain")
        prev = r.codim
    return InvariantTable(
        rows=spec.rows,
        index=spec.index,
        seed_index=spec.seed_index,
        derivation=spec.describe(),
        field_char=field_char,
        gen_cap=gen_cap,
        entries=tuple(entries),
    )


@dataclass(frozen=True)
class LinearFit:
    """Integer linear law on the longest suffix of a value sequence.

    ``slope * n + intercept`` reproduces every tabulated value at n >= onset
    exactly.  ``conclusive`` requires at least three consecutive agreeing
    steps.  ``degenerate`` marks fits over fewer than two finite points.
    """

    slope: int | None
    intercept: int | None
    onset: int | None
    conclusive: bool
    steps: int
    degenerate: bool = False

    def value_at(self, n):
        return self.slope * n + self.intercept


def fit_linear(points):
    """Fit the longest constant-difference suffix of integer points (n, value).

    Points must have consecutive n.  Fewer than two points give a
    degenerate fit.
    """
    pts = sorted(points)
    if len(pts) < 2:
        return LinearFit(None, None, None, False, 0, degenerate=True)
    for (n0, _), (n1, _) in zip(pts, pts[1:]):
        if n1 != n0 + 1:
            raise ValueError("fit needs consecutive widths")
    diffs = [v1 - v0 for (_, v0), (_, v1) in zip(pts, pts[1:])]
    run = 1
    while run < len(diffs) and diffs[-run - 1] == diffs[-1]:
        run += 1
    slope = diffs[-1]
    onset_idx = len(pts) - run - 1
    onset_n, onset_v = pts[onset_idx]
    return LinearFit(
        slope=slope,
        intercept=onset_v - slope * onset_n,
        onset=onset_n,
        conclusive=run >= CONCLUSIVE_STEPS,
        steps=run,
    )


@dataclass(frozen=True)
class CheckReport:
    check: str
    verdict: str  # PASS | FAIL | INCONCLUSIVE | NECESSARY-CONDITION-FAILS | NO-OBSTRUCTION-FOUND
    details: dict

    def as_dict(self):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "check": self.check,
            "verdict": self.verdict,
            "details": plain(self.details),
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def verify_codim_theorem(spec, n_from, n_to):
    """Check that the codimension column eventually follows slope = cover number.

    PASS needs a conclusive fit with matching slope; a short range yields
    INCONCLUSIVE, never FAIL, unless the slope genuinely disagrees.
    """
    start = max(n_from, spec.seed_index)
    values = [(n, codim(generate(spec, n))) for n in range(start, n_to + 1)]
    finite = [(n, v) for n, v in values if v is not INFINITY]
    if not finite:
        return CheckReport(
            "codim-linearity",
            "PASS",
            {
                "chain": _chain_meta(spec),
                "note": "unit chain: codimension is infinite at every width",
                "range": (start, n_to),
            },
        )
    g = gamma_chain(spec).gamma
    fit = fit_linear(finite)
    details = {
        "chain": _chain_meta(spec),
        "gamma": g,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "onset": fit.onset,
        "steps": fit.steps,
        "range": (start, n_to),
        "codim": {n: v for n, v in values},
    }
    if not fit.conclusive:
        details["note"] = "fit not conclusive; extend the width range"
        return CheckReport("codim-linearity", "INCONCLUSIVE", details)
    if fit.slope == g:
        return CheckReport("codim-linearity", "PASS", details)
    return CheckReport("codim-linearity", "FAIL", details)


def _longest_exact_block(table):
    best = []
    current = []
    for r in table.entries:
        if r.flag == "exact" and r.pd_exact is not None:
            current.append((r.n, r.pd_exact))
            if len(current) > len(best):
                best = list(current)
        else:
            current = []
    return best


def verify_pd_bounds(
    spec, n_from, n_to, depth_cap=None, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP
):
    """Check the projective-dimension bounds against tabulated data.

    Per width with exact pd: codim <= pd <= rows * n.  Each lower-bound
    slope (cover number, depth-capped level limit, colon bound) gets its
    best data-consistent intercept; the largest slope must not exceed the
    observed pd slope when the pd fit is conclusive.
    """
    table = invariant_table(
        spec, n_from, n_to, field_char=field_char, gen_cap=gen_cap
    )
    exact = _longest_exact_block(table)
    details = {"chain": _chain_meta(spec), "range": (n_from, n_to)}
    if not exact:
        details["note"] = "no exact projective dimensions in range"
        return CheckReport("pd-bounds", "INCONCLUSIVE", details)
    failures = []
    for r in table.entries:
        if r.flag != "exact" or r.n < spec.seed_index:
            continue
        cd = r.codim
        if cd is not INFINITY:
            if not (cd <= r.pd_exact <= spec.rows * r.n):
                failures.append(
                    f"n={r.n}: pd {r.pd_exact} outside [codim {cd}, {spec.rows * r.n}]"
                )
    g = gamma_chain(spec).gamma
    limit = gamma_limit(spec, depth_cap)
    vm = vm_bound(spec)
    slopes = {"gamma": g, "gamma_limit_capped": limit.value, "vm": vm.slope}
    intercepts = {
        name: min(pd - 1 - s * n for n, pd in exact) for name, s in slopes.items()
    }
    best_name = max(slopes, key=lambda k: (slopes[k], k))
    best_slope = slopes[best_name]
    fit = fit_linear(exact)
    details.update(
        {
            "slopes": slopes,
            "fitted_intercepts_ideal_pd": intercepts,
            "best_slope": best_slope,
            "best_slope_source": best_name,
            "pd_fit_slope": fit.slope,
            "pd_fit_conclusive": fit.conclusive,
            "gamma_limit_stabilized": limit.stabilized,
            "vm_enumeration_complete": vm.complete,
            "exact_rows": exact,
        }
    )
    if failures:
        details["failures"] = tuple(failures)
        return CheckReport("pd-bounds", "FAIL", details)
    if not fit.conclusive:
        details["note"] = "pd fit not conclusive; slope comparison skipped"
        return CheckReport("pd-bounds", "INCONCLUSIVE", details)
    if best_slope > fit.slope:
        details["failures"] = (
            f"verified lower-bound slope {best_slope} exceeds observed pd slope {fit.slope}",
        )
        return CheckReport("pd-bounds", "FAIL", details)
    return CheckReport("pd-bounds", "PASS", details)


def cm_obstruction(spec, depth_cap=None):
    """Necessary conditions for the quotients to be eventually Cohen-Macaulay.

    Both derived slopes collapse to the cover number on an eventually
    Cohen-Macaulay chain, so a strict gap is a definitive obstruction.
    """
    g = gamma_chain(spec).gamma
    if g is INFINITY:
        return CheckReport(
            "cm-obstruction",
            "NO-OBSTRUCTION-FOUND",
            {"chain": _chain_meta(spec), "gamma": g, "note": "unit chain"},
        )
    limit = gamma_limit(spec, depth_cap)
    vm = vm_bound(spec)
    details = {
        "chain": _chain_meta(spec),
        "gamma": g,
        "gamma_limit_capped": limit.value,
        "gamma_limit_stabilized": limit.stabilized,
        "gamma_limit_levels": limit.level_values,
        "vm_slope": vm.slope,
        "vm_witness": tuple(str(m) for m in sorted(vm.witness, key=str)),
        "vm_enumeration_complete": vm.complete,
    }
    if limit.value > g or vm.slope > g:
        return CheckReport("cm-obstruction", "NECESSARY-CONDITION-FAILS", details)
    if not limit.stabilized:
        details["note"] = "level maxima not stabilized within the depth cap"
    return CheckReport("cm-obstruction", "NO-OBSTRUCTION-FOUND", details)


def verify_c1_dichotomy(
    spec, n_from, n_to, field_char=0, gen_cap=DEFAULT_GENERATOR_CAP
):
    """For one-row chains: pd is eventually constant, or stays within [n - D, n].

    Only defined for rows == 1; other chains raise ValueError.
    """
    if spec.rows != 1:
        raise ValueError("the dichotomy check applies to one-row chains only")
    start = max(n_from, spec.seed_index)
    table = invariant_table(spec, start, n_to, field_char=field_char, gen_cap=gen_cap)
    pds = [
        (r.n, r.pd_exact) for r in table.entries if r.flag == "exact"
    ]
    details = {
        "chain": _chain_meta(spec),
        "range": (start, n_to),
        "pd": {n: v for n, v in pds},
    }
    if len(pds) < len(table.entries):
        details["note"] = "some widths lack exact pd"
        return CheckReport("c1-dichotomy", "INCONCLUSIVE", details)
    fit = fit_linear(pds)
    constant = fit.conclusive and fit.slope == 0
    within_band = all(pd <= n for n, pd in pds)
    details["eventually_constant"] = constant
    details["within_band"] = within_band
    if within_band:
        details["band_offset"] = max(n - pd for n, pd in pds)
    if constant or within_band:
        return CheckReport("c1-dichotomy", "PASS", details)
    return CheckReport("c1-dichotomy", "FAIL", details)
