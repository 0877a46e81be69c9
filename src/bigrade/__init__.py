"""Invariants of finitely generated bigraded monomial quotients.

The package decides, for modules presented by monomial data over
K[x_1..x_m, y_1..y_n], the grade / cohomological dimension / mgrade chain
with respect to a variable-block axis, maximal depth, dimension filtrations
and sequential Cohen-Macaulayness, finite generation of local cohomology,
and the bidegree classification of hypersurface rings with maximal depth.
"""

import sys

from .errors import (
    BadProfile, BadRing, BigradeError, DimensionMismatch, ParseError, PreconditionFailed, RingMismatch,
    UnitIdeal, WrongBlock, ZeroModule,
)
from .filtration import FiltrationLadder, ass_quotients, dimension_filtration, sequentially_cm
from .homology import (
    Subquotient, ass_subquotient, betti_and_projdim, cech_piece_dim, depth_module, dim_module,
)
from .hypersurface import FactorProfile, HypersurfaceVerdict, classify, monomial_crosscheck
from .invariants import FiberClass, InvariantReport, analyze, cd, fibers, grade, mgrade, tensor_verdict
from .io_formats import parse_ideal_file, parse_ideal_text, render_ideal
from .local_cohomology import LCReport, corollary_check, generalized_cm, growth_scan, lc_report
from .rings import (
    MonomialIdeal, PrimaryComponent, RingSpec, associated_primes, colon, dim_quotient, intersect,
    irreducible_decomposition, minimal_generators, primary_decomposition, unit_ideal, zero_ideal,
)

# the library API, in the order of README's table; every other name is internal
__all__ = [
    "RingSpec", "MonomialIdeal", "minimal_generators", "unit_ideal", "zero_ideal", "intersect", "colon",
    "associated_primes", "irreducible_decomposition", "primary_decomposition", "PrimaryComponent",
    "dim_quotient", "parse_ideal_text", "parse_ideal_file", "render_ideal",
    "Subquotient", "depth_module", "dim_module", "betti_and_projdim", "ass_subquotient", "cech_piece_dim",
    "analyze", "InvariantReport", "grade", "cd", "mgrade", "fibers", "FiberClass", "tensor_verdict",
    "dimension_filtration", "FiltrationLadder", "ass_quotients", "sequentially_cm",
    "lc_report", "LCReport", "generalized_cm", "growth_scan", "corollary_check",
    "classify", "FactorProfile", "HypersurfaceVerdict", "monomial_crosscheck",
    "BigradeError", "ParseError", "UnitIdeal", "ZeroModule", "PreconditionFailed", "DimensionMismatch",
    "RingMismatch", "WrongBlock", "BadProfile", "BadRing",
    "clear_caches",
]

__version__ = "0.1.0"


def clear_caches():
    """Empty every memo: each module-level functools cache and each
    module-level dict whose name ends in `_cache`, in every loaded `bigrade`
    module, so a new memo needs no entry here."""
    for name, module in list(sys.modules.items()):
        if name == "bigrade" or name.startswith("bigrade."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                elif isinstance(value, dict) and attr.endswith("_cache"):
                    value.clear()
