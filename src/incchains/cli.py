"""Command-line interface.

Subcommands take a chain description file (see chainfile) and dispatch to
the library.  Every command prints either text (the default) or, with
--format json, one JSON object carrying schemaVersion.  Exit codes: 0 for
PASS/success, 2 for FAIL (including a found Cohen-Macaulayness
obstruction), 3 for INCONCLUSIVE, 1 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapacityError, ParseError
from .monomial import INFINITY
from .chains import generate, verify_stability
from .chainfile import parse_chain_document
from .covers import gamma_chain, gamma_limit
from .primes import codim, codim_bruteforce
from .resolution import DEFAULT_GENERATOR_CAP, _check_char, pd_quotient, pd_taylor_oracle
from .asymptotics import (
    SCHEMA_VERSION,
    cm_obstruction,
    fit_linear,
    invariant_table,
    plain,
    verify_codim_theorem,
    verify_c1_dichotomy,
    verify_pd_bounds,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXITS = {
    "PASS": EXIT_OK,
    "NO-OBSTRUCTION-FOUND": EXIT_OK,
    "FAIL": EXIT_FAIL,
    "NECESSARY-CONDITION-FAILS": EXIT_FAIL,
    "INCONCLUSIVE": EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return (int(lo), int(hi))
    n = int(text)
    return (n, n)


def _load(args):
    """Parse the chain file; its header options fill the flags left unset."""
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = parse_chain_document(fh.read())
    for warning in doc.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.char is None:
        args.char = doc.options.get("char", 0)
    if args.gen_cap is None:
        args.gen_cap = doc.options.get("gen_cap", DEFAULT_GENERATOR_CAP)
    if getattr(args, "depth", None) is None:
        args.depth = doc.options.get("depth_cap")
    return doc.to_spec()


# Each command returns (JSON payload, text lines, exit code); main prints one.


def _cmd_gen(spec, args):
    gens = [str(g) for g in generate(spec, args.n).gens]
    return {"n": args.n, "generators": gens}, gens, EXIT_OK


def _cmd_invariants(spec, args):
    table = invariant_table(spec, *args.n, field_char=args.char, gen_cap=args.gen_cap)
    return table.as_dict(), table.to_csv().splitlines(), EXIT_OK


def _cmd_fit(spec, args):
    lo, hi = args.n
    if args.column == "codim":
        values = [(n, codim(generate(spec, n))) for n in range(lo, hi + 1)]
        points = [(n, v) for n, v in values if v is not INFINITY]
    else:
        table = invariant_table(spec, lo, hi, field_char=args.char, gen_cap=args.gen_cap)
        points = [(n, v) for n, v in table.column("pd_exact") if v is not None]
    fit = fit_linear(points)
    payload = {"column": args.column, "points": points, "fit": None}
    if fit.degenerate:
        return payload, ["no usable fit (fewer than two finite points)"], EXIT_OK
    payload["fit"] = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "onset": fit.onset,
        "steps": fit.steps,
        "conclusive": fit.conclusive,
    }
    text = (
        f"{args.column}: slope {fit.slope}, intercept {fit.intercept}, "
        f"onset {fit.onset}, steps {fit.steps}, "
        f"{'conclusive' if fit.conclusive else 'not conclusive'}"
    )
    return payload, [text], EXIT_OK


def _cmd_verify(spec, args):
    lo, hi = args.n
    if args.theorem == "codim":
        report = verify_codim_theorem(spec, lo, hi)
    elif args.theorem == "pd-bounds":
        report = verify_pd_bounds(
            spec, lo, hi, depth_cap=args.depth, field_char=args.char, gen_cap=args.gen_cap
        )
    elif args.theorem == "cm":
        report = cm_obstruction(spec, depth_cap=args.depth)
    else:
        report = verify_c1_dichotomy(
            spec, lo, hi, field_char=args.char, gen_cap=args.gen_cap
        )
    payload = report.as_dict()
    lines = [f"{report.check}: {report.verdict}"]
    lines += [f"  {key}: {value}" for key, value in sorted(payload["details"].items())]
    return payload, lines, _VERDICT_EXITS[report.verdict]


def _cmd_gamma(spec, args):
    if args.big:
        limit = gamma_limit(spec, args.depth)
        payload = plain(
            {
                "gamma_limit": limit.value,
                "stabilized": limit.stabilized,
                "depth": limit.depth,
                "levels": limit.level_values,
                "witness_path": limit.witness_path,
            }
        )
        lines = [
            f"gamma limit (depth {limit.depth}): {limit.value}"
            f" ({'stabilized' if limit.stabilized else 'not stabilized'})",
            f"  level maxima: {payload['levels']}",
            f"  witness path: {payload['witness_path']}",
        ]
        return payload, lines, EXIT_OK
    report = gamma_chain(spec)
    payload = plain(
        {
            "gamma": report.gamma,
            "witness": report.witness_cover,
            "cover_family": report.cover_family,
            "route": report.route,
        }
    )
    lines = [f"gamma: {payload['gamma']}", f"  witness cover: {payload['witness']}"]
    if payload["cover_family"] is not None:
        lines.append(f"  cover family: {payload['cover_family']}")
    return payload, lines, EXIT_OK


def _cmd_oracle(spec, args):
    ideal = generate(spec, args.n)
    checks = {}
    try:
        same = codim(ideal) == codim_bruteforce(ideal)
        checks["codim-vs-bruteforce"] = "PASS" if same else "FAIL"
    except CapacityError:
        checks["codim-vs-bruteforce"] = "SKIP (too many variables)"
    if args.n >= spec.seed_index:
        ok = verify_stability(spec, args.n)
        checks["stability-step"] = "PASS" if ok else "FAIL"
    else:
        checks["stability-step"] = "SKIP (below seed index)"
    if not ideal.is_zero and not ideal.is_unit:
        try:
            engine = pd_quotient(ideal, field_char=args.char, gen_cap=args.gen_cap)
            oracle = pd_taylor_oracle(ideal, field_char=args.char)
            checks["pd-vs-taylor"] = "PASS" if engine == oracle else "FAIL"
        except CapacityError:
            checks["pd-vs-taylor"] = "SKIP (beyond oracle guard)"
    else:
        checks["pd-vs-taylor"] = "SKIP (zero or unit ideal)"
    lines = [f"{name}: {outcome}" for name, outcome in checks.items()]
    code = EXIT_FAIL if "FAIL" in checks.values() else EXIT_OK
    return {"n": args.n, "checks": checks}, lines, code


def _build_parser():
    parser = _Parser(prog="incchains", description=__doc__)
    parser.add_argument("--char", type=int, default=None, help="field characteristic (default 0)")
    parser.add_argument("--gen-cap", type=int, default=None, help="generator cap for the exact engine")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print the minimal generators at one width")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("invariants", help="tabulate codim, pd and gamma over a range")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=_range, required=True, metavar="A..B")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("fit", help="fit an eventual linear law to a column")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=_range, required=True, metavar="A..B")
    p.add_argument("--column", choices=("pd", "codim"), required=True)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("verify", help="run a theorem-level check")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=_range, required=True, metavar="A..B")
    p.add_argument(
        "--theorem", choices=("codim", "pd-bounds", "cm", "c1"), default="codim"
    )
    p.add_argument("--depth", type=int, default=None, help="depth cap for derived chains")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gamma", help="cover number, or its depth-capped limit")
    p.add_argument("--spec", required=True)
    p.add_argument("--big", action="store_true", help="compute the depth-capped limit")
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("oracle", help="run brute-force cross-checks at one width")
    p.add_argument("--spec", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        spec = _load(args)
        _check_char(args.char)
        widths = getattr(args, "n", None)  # a (lo, hi) range for the range commands
        if isinstance(widths, tuple) and widths[0] > widths[1]:
            raise ValueError("empty width range")
        payload, lines, code = args.fn(spec, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        payload = {**payload, "schemaVersion": SCHEMA_VERSION}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
