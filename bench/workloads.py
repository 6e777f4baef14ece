"""Workload definitions: inputs, frozen expected outputs, and why each exists.

Everything here is plain data or stdlib code, so both the orchestrator
(``run.py``) and the per-repetition child (``child.py``) can import it
without importing the library.
"""

from __future__ import annotations

import random

CHAINS = "demos/chains"
MIXED3 = f"{CHAINS}/mixed3.chain"
PRODUCT3 = f"{CHAINS}/product3.chain"
ONEROW = f"{CHAINS}/onerow.chain"
MODP = 32003

# One line per workload: why it exists and which layer it isolates.  The
# same text is in BENCHMARK.json.
WHY = {
    "sample-pd": "exact pd of the sample chain at n=4..10 in char 0 and 32003: rank-bound, and where reach shows",
    "one-row": "a seeded one-row chain under the c1 verdict: lattice- and monomial-bound, little linear algebra",
    "codim-wide": "codim verdicts at wide widths: hitting sets and minimalization, bypassing the pd engine",
    "cli": "the nine README commands, each in a fresh interpreter: start-up- and import-bound",
}

# Layer split measured at the commit that introduced this benchmark: one
# traced run, seed 1, 2-vCPU x86_64 container, CPython 3.11; unscaled
# seconds per repetition (both fields unless named).  A later change can
# check that a claimed saving lands in the layer it names.
LAYER_SPLIT = {
    "sample-pd": {
        "resolution.pd_s": 3.37,  # char 0: 2.28 (0.35 of it refusals at n=9, 10); 32003: 1.10
        "linalg.rank_s.c0": 1.83,  # rank_int_exact: most of char-0 pd time
        "linalg.rank_s.p32003": 0.96,  # numpy rank_modp
        "resolution.self_s": 0.58,
        "primes.codim_s": 0.001,
    },
    "one-row": {  # one kept chain
        "resolution.pd_s": 4.89,
        "resolution.self_s": 4.72,  # lcm closure and core reduction dominate
        "linalg.rank_s.c0": 0.10,
        "linalg.rank_s.p32003": 0.06,
        "asymptotics.self_s": 0.001,
    },
    "codim-wide": {  # product3 10..19, mixed3 30..40
        "asymptotics.s": 4.80,
        "primes.codim_s": 3.39,  # hitting-set search
        "monomial.ideal_s": 1.35,  # minimalization inside generate
        "resolution.pd_s": 0.0,
    },
    "cli": {
        "cli.import_s": 0.17,  # of about 0.2 s per command; numpy is most of it
        "covers.gamma_s": 0.03,  # all 18 commands
        "resolution.pd_s": 0.05,
    },
}

# -- sample-pd ---------------------------------------------------------------

SAMPLE_GEN_CAP = 64  # above the 42 generators at n=10: only face/lattice caps refuse
SAMPLE_WIDTHS = range(4, 9)  # timed in both fields
SAMPLE_REACH_WIDTHS = (9, 10)  # char 0, timed apart from wall_s
SAMPLE_PD = {4: 3, 5: 6, 6: 8, 7: 10, 8: 12}  # frozen acceptance values
# Prototype values beyond the engine's reach at the defining commit, on
# the 2n-4 law of n=5..8.  An exact answer there must match.
SAMPLE_PD_BEYOND = {9: 14, 10: 16}

# -- codim-wide --------------------------------------------------------------

# product3 stops at 19: its codim at n=20 alone takes 4 s, which would
# leave room for only two or three repetitions in a run.
CODIM_RUNS = (
    (PRODUCT3, 10, 19, {n: n - 2 for n in range(10, 20)}),
    (MIXED3, 30, 40, {n: 2 * n - 5 for n in range(30, 41)}),
)

# -- cli ---------------------------------------------------------------------

# (name, argv after the global flags, expected exit code).  The README's
# "Command line" section, in order; ``verify --theorem cm`` on product3
# exits 2 by design (its obstruction is found).
CLI_COMMANDS = (
    ("gen", ["gen", "--spec", MIXED3, "--n", "6"], 0),
    ("invariants", ["invariants", "--spec", MIXED3, "--n", "4..7"], 0),
    ("fit", ["fit", "--spec", MIXED3, "--n", "4..9", "--column", "codim"], 0),
    ("verify-codim", ["verify", "--spec", MIXED3, "--n", "4..9", "--theorem", "codim"], 0),
    ("verify-cm", ["verify", "--spec", PRODUCT3, "--n", "3..6", "--theorem", "cm"], 2),
    ("verify-c1", ["verify", "--spec", ONEROW, "--n", "2..8", "--theorem", "c1"], 0),
    ("gamma", ["gamma", "--spec", MIXED3], 0),
    ("gamma-big", ["gamma", "--spec", PRODUCT3, "--big", "--depth", "2"], 0),
    ("oracle", ["oracle", "--spec", MIXED3, "--n", "4"], 0),
)
CLI_FIELDS = ((), ("--char", str(MODP)))
CLI_REACH_COMMAND = "invariants"  # its CSV gives the CLI's exact-pd reach

# -- one-row -----------------------------------------------------------------

ONE_ROW_SEED = "bench-one-row"  # not the acceptance suite's accept-c1
ONE_ROW_SPAN = 8  # verdict over n = r..r+8
ONE_ROW_GEN_CAP = 64
# Keep rule, stated on the generated input before any timing: the
# generator count at width r+8 lies in this band.  Below it a chain costs
# milliseconds and exercises no lattice; above it the lattice cap refuses.
ONE_ROW_BAND = (17, 19)
# One chain: two would leave room for only two repetitions in a run.
ONE_ROW_KEEP = 1
# pd per width offset n - r of the kept chains, frozen at the defining
# commit.
ONE_ROW_PD = ((2, 3, 4, 5, 6, 7, 8, 9, 10),)


def draw_one_row_chain(rng):
    """A one-row chain as plain data: (r, i, [{column: exponent}, ...]).

    Each generator has at most one column above the index, so generator
    counts grow linearly in the width and stay within the exact engine.
    """
    r = rng.randint(2, 4)
    i = rng.randint(0, r - 1)
    gens = []
    for _ in range(rng.randint(1, 4)):
        budget = rng.randint(1, 4)
        entries = {}
        if i >= 1:
            for _ in range(rng.randint(0, budget - 1)):
                col = rng.randint(1, i)
                entries[col] = entries.get(col, 0) + 1
        rest = budget - sum(entries.values())
        if rest and i < r:
            entries[rng.randint(i + 1, r)] = rest
        elif not entries:
            entries[rng.randint(1, r)] = budget
        gens.append(entries)
    return r, i, gens


def draw_one_row_candidates(seed=ONE_ROW_SEED):
    """The seeded stream of one-row draws the keep rule filters."""
    rng = random.Random(seed)
    while True:
        yield draw_one_row_chain(rng)


def chain_text(chain):
    """A one-row chain in the chain-description format the library parses."""
    r, i, gens = chain
    lines = ["c = 1", f"i = {i}", f"r = {r}", "gens:"]
    for g in gens:
        lines.append(" * ".join(f"x[1,{c}]^{e}" for c, e in sorted(g.items())))
    return "\n".join(lines) + "\n"
