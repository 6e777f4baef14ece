"""The incchains benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload sample-pd --seed 1 --seconds 28 --trace 0

Workloads (why each exists: ``workloads.WHY``): ``sample-pd``, ``one-row``,
``codim-wide`` and ``cli``.  Every timed repetition runs in a fresh
interpreter, one child at a time, so that ``generate``'s cache and lazy
imports never carry over: a user pays for both on every call.
Repetitions run until ``--seconds`` would be exceeded; medians are
reported, and end-to-end times are scaled to a reference host speed that
the children sample while they work (see ``meter.py``).  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run, which alternates untraced and traced
repetitions so that the tracing overhead is measured too.  Details,
including the per-width pd outcome record and the spans, go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import workloads as W
from meter import scaled
from tracer import combine_stats, finish_layers

clock = time.perf_counter
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
METER = os.path.join(HERE, "meter.py")
GOLDEN = os.path.join(HERE, "golden")
RUN_DEADLINE_S = 165  # whole run, so that it ends well within 180 s
SETUP_PROBES = 5
IMPORT_PROBES = 5


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


class Children:
    """Starts one child interpreter at a time and reaps it with its rusage."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.count = 0

    def run(self, argv):
        """(exit code, stdout, stderr, spawn time, wall seconds, peak RSS in MB)."""
        self.count += 1
        out_path = os.path.join(OUT, "child.out")
        err_path = os.path.join(OUT, "child.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            t0 = clock()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - clock(), 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = clock() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        return proc.returncode, stdout, stderr, t0, wall, usage.ru_maxrss / 1024.0

    def job(self, job):
        """Run ``child.py`` on a job; (result dict or None, wall, RSS, spawn time, error)."""
        job = dict(job, src=SRC)
        code, stdout, stderr, t0, wall, rss = self.run([sys.executable, CHILD, json.dumps(job)])
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or [f"exit {code}"]
            return None, wall, rss, t0, f"{job['workload']} child failed: {tail[0]}"
        return json.loads(lines[-1]), wall, rss, t0, None


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def _layers(res):
    return combine_stats([res["layers"]]) if "layers" in res else None


def _scaled(res, t0):
    """The timed sections and the set-up (from the spawn at t0) of a child's
    result, scaled by its speed samples; none for a traced child."""
    if "samples" not in res:
        return {}, []
    samples = res["samples"]
    return ({key: scaled(s, e, samples) for key, (s, e) in res["sections"].items()},
            [scaled(t0, res["setup_end"], samples)])


# -- workloads ------------------------------------------------------------------
#
# Each workload has a ``rep(traced, spans_out)`` that runs one repetition
# and returns a dict: wall_s and wall_modp_s (``walls`` per command for the
# CLI), scaled (the two, scaled; untraced only), setup (scaled seconds of
# each set-up; untraced only), rss_mb, reach, attempted, failed, errors
# (wrong outputs), records, and layers (traced only).  ``spans_out`` is the
# path prefix for the spans file.


class SamplePd:
    files, texts = [W.MIXED3], []

    def __init__(self, kids, seed):
        self.kids = kids
        self.order = list(W.SAMPLE_WIDTHS)
        random.Random(f"sample-pd:{seed}").shuffle(self.order)

    def rep(self, traced, spans_out):
        job = {"workload": "sample-pd", "file": W.MIXED3, "gen_cap": W.SAMPLE_GEN_CAP,
               "order": self.order, "reach": list(W.SAMPLE_REACH_WIDTHS), "modp": W.MODP,
               "trace": traced, "spans_out": f"{spans_out}.json"}
        attempted = 2 * len(self.order) + len(W.SAMPLE_REACH_WIDTHS)
        res, wall, rss, t0, err = self.kids.job(job)
        if res is None:
            return {"attempted": attempted, "failed": attempted, "errors": [err]}
        failed, errors, reach = 0, [], 0
        for rec in res["records"]:
            n, char, outcome, pd = rec["n"], rec["char"], rec["outcome"], rec["pd"]
            if n in W.SAMPLE_PD:
                if outcome != "exact":
                    failed += 1
                elif pd != W.SAMPLE_PD[n]:
                    errors.append(f"pd at n={n} char {char}: {pd}, expected {W.SAMPLE_PD[n]}")
                elif char == 0:
                    reach = max(reach, n)
            elif outcome == "exact":
                cd = res["codim"][str(n)]
                if pd != W.SAMPLE_PD_BEYOND[n] or not cd <= pd <= 3 * n:
                    errors.append(f"pd at n={n}: {pd}, expected {W.SAMPLE_PD_BEYOND[n]}")
                else:
                    reach = max(reach, n)
        walls, setup = _scaled(res, t0)
        return {"wall_s": res["wall_s"], "wall_modp_s": res["wall_modp_s"],
                "scaled": walls, "setup": setup, "rss_mb": rss, "reach": reach,
                "attempted": attempted, "failed": failed, "errors": errors,
                "records": res["records"], "layers": _layers(res)}


class OneRow:
    files = []

    def __init__(self, kids, seed):
        self.kids = kids
        res, _, _, _, err = kids.job({"workload": "one-row-draw", "seed": W.ONE_ROW_SEED})
        if res is None:
            raise RuntimeError(err)
        self.chains = [(r, i, [{int(c): e for c, e in g.items()} for g in gens])
                       for r, i, gens in res["chains"]]
        self.texts = [W.chain_text(ch) for ch in self.chains]

    def rep(self, traced, spans_out):
        job = {"workload": "one-row", "texts": self.texts, "span": W.ONE_ROW_SPAN,
               "gen_cap": W.ONE_ROW_GEN_CAP, "modp": W.MODP, "trace": traced,
               "spans_out": f"{spans_out}.json"}
        attempted = 2 * len(self.texts)
        res, wall, rss, t0, err = self.kids.job(job)
        if res is None:
            return {"attempted": attempted, "failed": attempted, "errors": [err]}
        failed, errors, reach = 0, [], None
        for v in res["verdicts"]:
            k, char = v["chain"], v["char"]
            r = self.chains[k][0]
            pds = dict(v.get("pd", []))
            if v["verdict"] != "PASS":
                if v["verdict"] == "FAIL":
                    errors.append(f"chain {k} char {char}: verdict FAIL")
                else:
                    failed += 1
            expected = W.ONE_ROW_PD[k]
            for n, pd in pds.items():
                cd = res["codim"][k][n - r]
                if pd != expected[n - r] or not cd <= pd <= n:
                    errors.append(f"chain {k} char {char}: pd {pd} at n={n}, "
                                  f"expected {expected[n - r]} in [codim {cd}, {n}]")
            if char == 0:
                top = max(pds, default=0)
                reach = top if reach is None else min(reach, top)
        walls, setup = _scaled(res, t0)
        return {"wall_s": res["wall_s"], "wall_modp_s": res["wall_modp_s"],
                "scaled": walls, "setup": setup, "rss_mb": rss, "reach": reach or 0,
                "attempted": attempted, "failed": failed, "errors": errors,
                "records": [], "layers": _layers(res)}


class CodimWide:
    files, texts = [path for path, _, _, _ in W.CODIM_RUNS], []

    def __init__(self, kids, seed):
        self.kids = kids
        self.order = list(range(len(W.CODIM_RUNS)))
        random.Random(f"codim-wide:{seed}").shuffle(self.order)

    def rep(self, traced, spans_out):
        job = {"workload": "codim-wide", "order": self.order,
               "runs": [[p, lo, hi] for p, lo, hi, _ in W.CODIM_RUNS],
               "trace": traced, "spans_out": f"{spans_out}.json"}
        attempted = len(W.CODIM_RUNS)
        res, wall, rss, t0, err = self.kids.job(job)
        if res is None:
            return {"attempted": attempted, "failed": attempted, "errors": [err]}
        errors = []
        for (path, lo, hi, expected), verdict, codims in zip(
            W.CODIM_RUNS, res["verdicts"], res["codim"]
        ):
            if verdict != "PASS":
                errors.append(f"{path} {lo}..{hi}: verdict {verdict}")
            if dict(codims) != expected:
                errors.append(f"{path} {lo}..{hi}: codim column {codims}")
        walls, setup = _scaled(res, t0)
        # codim takes no field, so the characteristic-32003 time is this one
        return {"wall_s": res["wall_s"], "wall_modp_s": res["wall_s"],
                "scaled": walls, "setup": setup, "rss_mb": rss,
                "reach": max(hi for _, _, hi, _ in W.CODIM_RUNS),
                "attempted": attempted, "failed": 0, "errors": errors,
                "records": [], "layers": _layers(res)}


class Cli:
    files, texts = [W.MIXED3, W.PRODUCT3, W.ONEROW], []

    def __init__(self, kids, seed):
        self.kids = kids
        self.commands = list(W.CLI_COMMANDS)
        random.Random(f"cli:{seed}").shuffle(self.commands)
        self.golden = {}
        for name, _, _ in W.CLI_COMMANDS:
            with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8") as fh:
                self.golden[name] = fh.read()

    def rep(self, traced, spans_out):
        walls, scaled_walls = {0: {}, W.MODP: {}}, {0: {}, W.MODP: {}}
        attempted, failed, errors, rss, stats, reach = 0, 0, [], 0.0, [], 0
        for flags in W.CLI_FIELDS:
            char = int(flags[1]) if flags else 0
            for name, argv, expect in self.commands:
                attempted += 1
                if traced:
                    job = {"workload": "cli", "argv": [*flags, *argv], "trace": True,
                           "spans_out": f"{spans_out}-{name}-c{char}.json"}
                    res, wall, mb, _, err = self.kids.job(job)
                    if res is None:
                        failed += 1
                        errors.append(err)
                        continue
                    code, stdout = res["exit"], res["stdout"]
                    stats.append(res["layers"])
                else:
                    code, stdout, stderr, t0, wall, mb = self.kids.run(
                        [sys.executable, METER, "-m", "incchains.cli", *flags, *argv])
                    try:
                        samples = json.loads(stderr.strip().splitlines()[-1])
                    except (IndexError, ValueError):
                        failed += 1
                        errors.append(f"{name} char {char}: no speed samples")
                        continue
                    scaled_walls[char][name] = scaled(t0, t0 + wall, samples)
                walls[char][name] = wall
                rss = max(rss, mb)
                if code not in (0, 2, 3) or not stdout:
                    failed += 1
                elif code != expect or stdout != self.golden[name]:
                    errors.append(f"{name} char {char}: exit {code} or stdout differs from golden")
                elif name == W.CLI_REACH_COMMAND and char == 0:
                    rows = list(csv.DictReader(io.StringIO(stdout)))
                    reach = max((int(r["n"]) for r in rows if r["pd_exact"]), default=0)
        scaled_sum = {"wall_s": sum(scaled_walls[0].values()),
                      "wall_modp_s": sum(scaled_walls[W.MODP].values())}
        return {"walls": walls, "scaled": {} if traced else scaled_sum, "setup": [],
                "rss_mb": rss, "reach": reach,
                "attempted": attempted, "failed": failed, "errors": errors,
                "records": [], "layers": combine_stats(stats) if traced else None}


WORKLOADS = {"sample-pd": SamplePd, "one-row": OneRow, "codim-wide": CodimWide, "cli": Cli}


# -- the run ---------------------------------------------------------------------


def repeat(bench, seconds, traced, tag):
    """Repetitions until the next would overrun ``seconds``; untraced and
    traced alternate when ``traced``."""
    kinds = (False, True) if traced else (False,)
    reps = {False: [], True: []}
    start, longest, k = clock(), 0.0, 0
    while True:
        kind = kinds[k % len(kinds)]
        t = clock()
        reps[kind].append(bench.rep(kind, os.path.join(OUT, f"{tag}-spans-{k}")))
        longest = max(longest, clock() - t)
        k += 1
        if k >= len(kinds) and (clock() - start + longest > seconds
                                or clock() + longest > bench.kids.deadline):
            return reps


def median_wall(reps, key, scale=True):
    """Median over repetitions of a timed section, scaled to the reference
    speed or raw; for the CLI, of the commands' times added up.  Also the
    raw times of each CLI command."""
    field = 0 if key == "wall_s" else W.MODP
    walls, per_cmd = [], {}
    for r in reps:
        for name, w in r.get("walls", {}).get(field, {}).items():
            per_cmd.setdefault(name, []).append(w)
        if scale:
            if key in r.get("scaled", {}):
                walls.append(r["scaled"][key])
        elif "walls" in r:
            walls.append(sum(r["walls"][field].values()))
        elif key in r:
            walls.append(r[key])
    return _median(walls), per_cmd


def probe_setup(kids, bench, count):
    """Set-up times of ``count`` probes, scaled to the reference speed."""
    setup = []
    for _ in range(count):
        res, _, _, t0, err = kids.job(
            {"workload": "probe", "files": bench.files, "texts": bench.texts})
        if res is None:
            raise RuntimeError(err)
        setup.append(scaled(t0, res["setup_end"], res["samples"]))
    return setup


def probe_import(kids, count):
    bare, imported = [], []
    for _ in range(count):
        bare.append(kids.run([sys.executable, "-c", "pass"])[4])
        imported.append(kids.run([sys.executable, "-c", "import incchains"])[4])
    return _median(imported) - _median(bare)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "incchains", "__init__.py")):
        print(f"error: no incchains source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    kids = Children(clock() + RUN_DEADLINE_S)
    try:
        bench = WORKLOADS[args.workload](kids, args.seed)
        # an untimed warm-up compiles bytecode and fills the file cache
        probe_setup(kids, bench, 1)
        setup = probe_setup(kids, bench, SETUP_PROBES)
        import_s = probe_import(kids, IMPORT_PROBES) if args.trace else None
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        reps = repeat(bench, args.seconds, bool(args.trace), tag)
    except (RuntimeError, ChildTimeout) as exc:
        print(f"error: {exc or 'child timed out'}", file=sys.stderr)
        return 2

    every = reps[False] + reps[True]
    plain = [r for r in reps[False] if "rss_mb" in r]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    errors = [e for r in every for e in r["errors"]]
    wall, per_cmd = median_wall(plain, "wall_s")
    wall_modp, _ = median_wall(plain, "wall_modp_s")
    setup += [s for r in plain for s in r["setup"]]

    if args.trace:
        traced = [r for r in reps[True] if r.get("layers")]
        per_rep = [finish_layers(r["layers"]) for r in traced]
        metrics = {}
        for name, (_, unit) in (per_rep[0].items() if per_rep else ()):
            metrics[name] = {"value": _median([m[name][0] for m in per_rep]), "unit": unit}
        raw_wall, _ = median_wall(plain, "wall_s", scale=False)
        traced_wall, _ = median_wall(traced, "wall_s", scale=False)
        metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
        for name, _, _ in W.CLI_COMMANDS:
            metrics[f"cli.cmd_s.{name}"] = {
                "value": _median((per_cmd or {}).get(name, [])), "unit": "s"}
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - raw_wall, "unit": "s"}
        records = traced[-1]["layers"]["pd_records"] if traced else []
    else:
        metrics = {
            "setup_s": {"value": _median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "wall_modp_s": {"value": wall_modp, "unit": "s"},
            "pd_reach_n": {"value": min((r["reach"] for r in plain), default=0),
                           "unit": "width"},
            "peak_rss_mb": {"value": _median([r["rss_mb"] for r in plain]), "unit": "MB"},
        }
        records = plain[-1]["records"] if plain else []

    for rec in records:
        print("pd n={n} char={char} gens={gens} {outcome} {seconds:.4f}s".format(**rec))
    for e in errors:
        print(f"check failed: {e}")
    print(f"{args.workload}: {len(every)} repetitions, {kids.count} children, "
          f"{len(setup)} set-up samples")
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"why": W.WHY[args.workload], "metrics": metrics, "errors": errors,
                   "records": records, "setup_samples": setup,
                   "reps": [{k: r.get(k) for k in ("wall_s", "wall_modp_s", "walls",
                                                   "rss_mb", "scaled")}
                            for r in every]}, fh, indent=1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if declared != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(declared ^ set(metrics))}",
              file=sys.stderr)
        return 3
    print(json.dumps({"correct": not errors and bool(plain), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
