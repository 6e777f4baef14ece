"""Invariant chains of monomial ideals.

A library for materializing chains of monomial ideals in rings with a
rows-by-columns grid of variables that are invariant under the monoid of
strictly increasing column maps fixing an initial segment, and for
computing their codimensions, cover numbers, Betti numbers and projective
dimensions, together with checks of the eventual linear laws these
invariants satisfy.
"""

from .errors import (
    CapacityError,
    ChainHypothesisError,
    ParseError,
    RowError,
    UndefinedInvariantError,
    WidthError,
)
from .monomial import INFINITY, Monomial, MonomialIdeal, variable
from .primes import PrimeSupport, codim, codim_bruteforce, minimal_primes
from .chains import (
    ChainSpec,
    EVector,
    chain_colon,
    chain_radical,
    e_chain,
    generate,
    orbit,
    shift_sigma,
    verify_stability,
)
from .covers import (
    GammaLimit,
    GammaReport,
    GeneratorPartition,
    VmBound,
    e_set,
    gamma,
    gamma_chain,
    gamma_limit,
    gamma_max_level,
    partition_generators,
    vm_bound,
)
from .resolution import (
    DEFAULT_GENERATOR_CAP,
    BettiTable,
    LcmLattice,
    betti,
    lcm_lattice,
    pd_ideal,
    pd_quotient,
    pd_taylor_oracle,
)
from .asymptotics import (
    CheckReport,
    InvariantTable,
    LinearFit,
    TableRow,
    cm_obstruction,
    fit_linear,
    invariant_table,
    verify_c1_dichotomy,
    verify_codim_theorem,
    verify_pd_bounds,
)
from .chainfile import (
    ChainDocument,
    parse_chain_document,
    parse_monomial,
    parse_spec,
    render_chain_document,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Monomial",
    "MonomialIdeal",
    "variable",
    "PrimeSupport",
    "codim",
    "codim_bruteforce",
    "minimal_primes",
    "ChainSpec",
    "EVector",
    "chain_colon",
    "chain_radical",
    "e_chain",
    "generate",
    "orbit",
    "shift_sigma",
    "verify_stability",
    "GammaLimit",
    "GammaReport",
    "GeneratorPartition",
    "VmBound",
    "e_set",
    "gamma",
    "gamma_chain",
    "gamma_limit",
    "gamma_max_level",
    "partition_generators",
    "vm_bound",
    "DEFAULT_GENERATOR_CAP",
    "BettiTable",
    "LcmLattice",
    "betti",
    "lcm_lattice",
    "pd_ideal",
    "pd_quotient",
    "pd_taylor_oracle",
    "CheckReport",
    "InvariantTable",
    "LinearFit",
    "TableRow",
    "cm_obstruction",
    "fit_linear",
    "invariant_table",
    "verify_c1_dichotomy",
    "verify_codim_theorem",
    "verify_pd_bounds",
    "ChainDocument",
    "parse_chain_document",
    "parse_monomial",
    "parse_spec",
    "render_chain_document",
    "CapacityError",
    "ChainHypothesisError",
    "ParseError",
    "RowError",
    "UndefinedInvariantError",
    "WidthError",
]
