"""Spans around calls into the library's layers, recorded from outside it.

``Tracer.install`` wraps the layers' public functions at every module
binding where callers look them up: the defining module (for calls
within it), each ``incchains`` module that imported the name, and the
package namespace.  Spans live in memory as ``[name, start, end, parent,
attrs]`` and are written out once, at the end.  ``Monomial`` methods are
left alone: at about 10^7 calls a run, a wrapper would measure itself.

A function that a later change renames or removes is reported in
``absent`` and its metrics read 0; the run does not fail.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from workloads import MODP

# (layer, function names).  The layer is also the module name.
TARGETS = (
    ("chainfile", ("parse_chain_document", "parse_spec")),
    ("chains", ("generate", "orbit", "chain_colon", "chain_radical", "e_chain", "verify_stability")),
    ("primes", ("codim", "minimal_primes", "codim_bruteforce")),
    ("covers", ("gamma", "gamma_chain", "gamma_limit", "gamma_max_level", "e_set", "vm_bound")),
    ("resolution", ("pd_quotient", "pd_ideal", "betti", "lcm_lattice", "pd_taylor_oracle")),
    ("linalg", ("rank_int_exact", "rank_modp", "rank_dense_exact")),
    ("asymptotics", (
        "invariant_table", "fit_linear", "verify_codim_theorem",
        "verify_pd_bounds", "cm_obstruction", "verify_c1_dichotomy",
    )),
    ("cli", ("main",)),
)

# Widths with their own pd-time metric, per field, and widths with an
# outcome code (char 0).  Other widths count only in the totals.
PD_WIDTHS = range(2, 13)
OUTCOME_WIDTHS = range(4, 11)
CAPS = ("gen-cap", "face-cap", "lattice-cap")
# Outcome codes: 0 no call at that width, 1 exact, then one per cap
# (worst over the calls at that width), 5 any other refusal.
OUTCOME_CODES = {"exact": 1, "refused:gen-cap": 2, "refused:face-cap": 3,
                 "refused:lattice-cap": 4}


def classify_refusal(exc):
    """Which cap a CapacityError names, read from its unchanged message."""
    text = str(exc)
    if "generators exceed" in text:
        return "refused:gen-cap"
    if "reduced complex too large" in text:
        return "refused:face-cap"
    if "lcm lattice exceeds" in text:
        return "refused:lattice-cap"
    return "refused:other"


def _matrix_entries(args, kwargs):
    # rank_int_exact(rows, ncols) takes sparse dict rows; rank_modp(matrix, p)
    # and rank_dense_exact(matrix) take dense lists.
    values = list(args) + list(kwargs.values())
    mat = values[0]
    if not mat:
        return 0
    if isinstance(mat[0], dict):
        return len(mat) * values[1]
    return len(mat) * len(mat[0])


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "incchains" or name.startswith("incchains."))
        ]
        for layer, names in TARGETS:
            home = sys.modules.get(f"incchains.{layer}")
            for fname in names:
                original = getattr(home, fname, None) if home else None
                if original is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(layer, fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, layer, fname, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = f"{layer}.{fname}"
        attrs = None
        if name == "resolution.pd_quotient":
            attrs = _pd_attrs
        elif layer == "linalg":
            def attrs(args, kwargs, result, exc):
                return {"entries": _matrix_entries(args, kwargs)}
        elif name == "chains.orbit":
            def attrs(args, kwargs, result, exc):
                return {"images": len(result) if exc is None else 0}
        elif name == "chains.generate":
            info = fn.cache_info

            def attrs(args, kwargs, result, exc, _last=[info().hits]):
                hits = info().hits
                hit = hits != _last[0]
                _last[0] = hits
                return {"hit": hit, "gens": 0 if hit or exc else len(result.gens)}

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if attrs is not None:
                    rec[4] = attrs(args, kwargs, None, exc)
                raise
            rec[2] = clock()
            stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result, None)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "absent": self.absent, "spans": self.spans}, fh)

    def layer_stats(self):
        """Additive per-layer sums; ``finish_layers`` turns them into metrics."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_of = [s[0].split(".", 1)[0] for s in spans]

        def outermost(i):
            layer = layer_of[i]
            p = spans[i][3]
            while p >= 0:
                if layer_of[p] == layer:
                    return False
                p = spans[p][3]
            return True

        # the field of the nearest enclosing pd call, if any (parents come first)
        field_of = [None] * len(spans)
        for i, (name, _, _, parent, at) in enumerate(spans):
            if name == "resolution.pd_quotient":
                field_of[i] = "c0" if at["char"] == 0 else f"p{at['char']}"
            elif parent >= 0:
                field_of[i] = field_of[parent]

        out = {"trace.absent": len(self.absent), "trace.spans": len(spans)}
        pd_s, outcomes = {}, {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, at) in enumerate(spans):
            dur = end - start
            self_time = dur - child_time[i]
            layer = layer_of[i]
            top = outermost(i)
            add(f"{layer}.self_s", self_time)
            if top:
                add(f"{layer}.s", dur)
            if name in ("chainfile.parse_chain_document", "chainfile.parse_spec") and top:
                add("chainfile.parse_calls", 1)
            elif name == "chains.generate":
                add("chains.generate_s", dur)
                add("chains.generate_calls", 1)
                add("chains.generate_hits", 1 if at["hit"] else 0)
                add("monomial.ideal_s", self_time)
                add("monomial.generators", at["gens"])
            elif name == "chains.orbit":
                add("chains.orbit_s", dur)
                add("chains.candidates", at["images"])
            elif name == "primes.codim":
                add("primes.codim_s", dur)
                add("primes.codim_calls", 1)
            elif name == "primes.minimal_primes" and top:
                add("primes.minimal_primes_s", dur)
            elif name == "covers.gamma":
                add("covers.gamma_calls", 1)
            elif name == "resolution.pd_quotient":
                add("resolution.pd_s", dur)
                add("resolution.pd_calls", 1)
                key = (field_of[i], at["n"])
                pd_s[key] = pd_s.get(key, 0.0) + dur
                if at["outcome"].startswith("refused:"):
                    add("resolution.refusal_s", dur)
                    add(f"resolution.refused.{at['outcome'].split(':', 1)[1]}", 1)
                if at["char"] == 0:
                    code = OUTCOME_CODES.get(at["outcome"], 5)
                    outcomes[at["n"]] = max(outcomes.get(at["n"], 0), code)
            elif layer == "linalg" and top:
                add("linalg.rank_calls", 1)
                add("linalg.rank_entries", at["entries"])
                if field_of[i]:
                    add(f"linalg.rank_s.{field_of[i]}", dur)
        out["chainfile.parse_s"] = out.get("chainfile.s", 0.0)
        out["linalg.rank_s"] = out.get("linalg.s", 0.0)
        out["covers.gamma_s"] = out.get("covers.s", 0.0)
        out["pd_by_width"] = [[f, n, s] for (f, n), s in sorted(pd_s.items())]
        out["outcomes"] = sorted(outcomes.items())
        out["pd_records"] = [
            dict(at, seconds=end - start)
            for name, start, end, _, at in spans if name == "resolution.pd_quotient"
        ]
        return out


def _pd_attrs(args, kwargs, result, exc):
    ideal = args[0] if args else kwargs["ideal"]
    char = args[1] if len(args) > 1 else kwargs.get("field_char", 0)
    if exc is None:
        outcome = "exact"
    elif type(exc).__name__ == "CapacityError":
        outcome = classify_refusal(exc)
    else:
        outcome = f"error:{type(exc).__name__}"
    return {"n": ideal.width, "char": char, "gens": len(ideal.gens),
            "outcome": outcome, "pd": result}


def combine_stats(stats_list):
    """Sum additive layer stats over several children (one repetition)."""
    total, pd_s, outcomes, records = {}, {}, {}, []
    for st in stats_list:
        for key, value in st.items():
            if key == "pd_by_width":
                for f, n, s in value:
                    pd_s[(f, n)] = pd_s.get((f, n), 0.0) + s
            elif key == "outcomes":
                for n, code in value:
                    outcomes[n] = max(outcomes.get(n, 0), code)
            elif key == "pd_records":
                records.extend(value)
            else:
                total[key] = total.get(key, 0) + value
    total["pd_by_width"] = pd_s
    total["outcomes"] = outcomes
    total["pd_records"] = records
    return total


def finish_layers(total):
    """Metric name -> (value, unit) for one repetition's combined stats."""
    m = {}
    for key, unit in (
        ("chainfile.parse_s", "s"),
        ("chains.generate_s", "s"),
        ("chains.orbit_s", "s"),
        ("monomial.ideal_s", "s"),
        ("primes.codim_s", "s"),
        ("primes.minimal_primes_s", "s"),
        ("covers.gamma_s", "s"),
        ("resolution.pd_s", "s"),
        ("resolution.self_s", "s"),
        ("resolution.refusal_s", "s"),
        ("linalg.rank_s", "s"),
        ("linalg.rank_s.c0", "s"),
        (f"linalg.rank_s.p{MODP}", "s"),
        ("asymptotics.s", "s"),
        ("asymptotics.self_s", "s"),
        ("chainfile.parse_calls", "count"),
        ("chains.generate_calls", "count"),
        ("chains.candidates", "count"),
        ("monomial.generators", "count"),
        ("primes.codim_calls", "count"),
        ("covers.gamma_calls", "count"),
        ("resolution.pd_calls", "count"),
        ("linalg.rank_calls", "count"),
        ("linalg.rank_entries", "count"),
        ("trace.spans", "count"),
        ("trace.absent", "count"),
    ):
        m[key] = (total.get(key, 0), unit)
    calls = total.get("chains.generate_calls", 0)
    m["chains.generate_hit_ratio"] = (
        total.get("chains.generate_hits", 0) / calls if calls else 0.0, "ratio")
    for cap in CAPS:
        m[f"resolution.refused.{cap}"] = (total.get(f"resolution.refused.{cap}", 0), "count")
    pd_s = total["pd_by_width"]
    for n in PD_WIDTHS:
        m[f"resolution.pd_s.c0.n{n}"] = (pd_s.get(("c0", n), 0.0), "s")
        m[f"resolution.pd_s.p{MODP}.n{n}"] = (pd_s.get((f"p{MODP}", n), 0.0), "s")
    for n in OUTCOME_WIDTHS:
        m[f"resolution.outcome.n{n}"] = (total["outcomes"].get(n, 0), "code")
    return m
