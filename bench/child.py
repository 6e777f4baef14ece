"""One repetition of one workload, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 bench/child.py '<job as JSON>'`` from the repository root,
with ``src`` on ``PYTHONPATH``.  Prints one JSON object as its last line.
``setup_end`` is the ``perf_counter`` reading once ``incchains`` is
imported and the chain descriptions are parsed; on Linux that clock is
system-wide, so the parent subtracts its own reading taken before the
spawn.  An untraced child also returns the host-speed samples it took
(``meter.Sampler``), by which the parent scales its times.  Output checks
happen in the parent.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from meter import Sampler
from tracer import Tracer, classify_refusal
from workloads import (
    ONE_ROW_BAND,
    ONE_ROW_KEEP,
    ONE_ROW_SPAN,
    chain_text,
    draw_one_row_candidates,
)

clock = time.perf_counter


def _parse(ic, paths=(), texts=()):
    docs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            docs.append(fh.read())
    return [ic.parse_chain_document(t).to_spec() for t in list(docs) + list(texts)]


def run_probe(ic, job):
    _parse(ic, job["files"], job["texts"])
    return {"setup_end": clock()}


def run_one_row_draw(ic, job):
    """The first kept draws of the seeded one-row generator (untimed)."""
    lo, hi = ONE_ROW_BAND
    kept = []
    for chain in draw_one_row_candidates(job["seed"]):
        (spec,) = _parse(ic, texts=[chain_text(chain)])
        if lo <= len(ic.generate(spec, spec.seed_index + ONE_ROW_SPAN).gens) <= hi:
            kept.append(chain)
            if len(kept) == ONE_ROW_KEEP:
                return {"chains": kept}


def run_sample_pd(ic, job):
    (spec,) = _parse(ic, [job["file"]])
    setup_end = clock()
    cap = job["gen_cap"]
    widths = sorted(set(job["order"]) | set(job["reach"]))
    ideals = {n: ic.generate(spec, n) for n in widths}
    records = []

    def pd(n, char):
        ideal = ideals[n]
        t = clock()
        try:
            value, outcome = ic.pd_quotient(ideal, field_char=char, gen_cap=cap), "exact"
        except ic.CapacityError as exc:
            value, outcome = None, classify_refusal(exc)
        records.append({"n": n, "char": char, "gens": len(ideal.gens),
                        "outcome": outcome, "pd": value, "seconds": clock() - t})

    t0 = clock()
    for n in job["order"]:
        pd(n, 0)
    t1 = clock()
    for n in job["order"]:
        pd(n, job["modp"])
    t2 = clock()
    for n in job["reach"]:
        pd(n, 0)
    codims = {n: ic.codim(ideals[n]) for n in job["reach"]}
    return {"setup_end": setup_end, "wall_s": t1 - t0, "wall_modp_s": t2 - t1,
            "sections": {"wall_s": [t0, t1], "wall_modp_s": [t1, t2]},
            "records": records, "codim": codims}


def run_one_row(ic, job):
    specs = _parse(ic, texts=job["texts"])
    setup_end = clock()
    span, cap = job["span"], job["gen_cap"]
    walls, sections, verdicts = {}, {}, []
    for char in (0, job["modp"]):
        t = clock()
        for k, spec in enumerate(specs):
            r = spec.seed_index
            try:
                report = ic.verify_c1_dichotomy(spec, r, r + span, field_char=char, gen_cap=cap)
                verdicts.append({"chain": k, "char": char, "verdict": report.verdict,
                                 "pd": sorted(report.details["pd"].items())})
            except ic.CapacityError as exc:
                verdicts.append({"chain": k, "char": char, "verdict": classify_refusal(exc)})
        sections[char] = [t, clock()]
        walls[char] = sections[char][1] - t
    codims = [
        [ic.codim(ic.generate(s, n)) for n in range(s.seed_index, s.seed_index + span + 1)]
        for s in specs
    ]
    return {"setup_end": setup_end, "wall_s": walls[0], "wall_modp_s": walls[job["modp"]],
            "sections": {"wall_s": sections[0], "wall_modp_s": sections[job["modp"]]},
            "verdicts": verdicts, "codim": codims}


def run_codim_wide(ic, job):
    specs = _parse(ic, [path for path, _, _ in job["runs"]])
    setup_end = clock()
    reports = [None] * len(specs)
    t = clock()
    for k in job["order"]:
        _, lo, hi = job["runs"][k]
        reports[k] = ic.verify_codim_theorem(specs[k], lo, hi)
    end = clock()
    # codim takes no field, so the characteristic-32003 section is this one
    return {"setup_end": setup_end, "wall_s": end - t,
            "sections": {"wall_s": [t, end], "wall_modp_s": [t, end]},
            "verdicts": [r.verdict for r in reports],
            "codim": [sorted(r.details["codim"].items()) for r in reports]}


def run_cli(ic, job):
    """One CLI command through ``incchains.cli.main``, for the traced run."""
    from incchains import cli

    setup_end = clock()
    buf = io.StringIO()
    t = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(job["argv"])
    return {"setup_end": setup_end, "wall_s": clock() - t, "stdout": buf.getvalue(),
            "exit": code}


RUNNERS = {
    "probe": run_probe,
    "one-row-draw": run_one_row_draw,
    "sample-pd": run_sample_pd,
    "one-row": run_one_row,
    "codim-wide": run_codim_wide,
    "cli": run_cli,
}


def main():
    job = json.loads(sys.argv[1])
    # untraced children sample the host's speed, from before the import on
    sampler = None if job.get("trace") else Sampler()
    import incchains as ic

    src = os.path.realpath(job["src"])
    if not os.path.realpath(ic.__file__).startswith(src + os.sep):
        raise SystemExit(f"incchains imported from {ic.__file__}, not from {src}")
    tracer = None
    if job.get("trace"):
        import incchains.cli  # noqa: F401  (so that cli.main is wrapped too)

        tracer = Tracer()
        tracer.install()
    result = RUNNERS[job["workload"]](ic, job)
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        tracer.write(job["spans_out"])
    if sampler is not None:
        result["samples"] = sampler.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
