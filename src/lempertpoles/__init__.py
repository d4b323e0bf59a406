"""Lempert and Green functions with multi-point poles on plane domains."""

from .complex_kernel import (
    BlaschkeDisc,
    moebius,
    pick_margin,
    solve_node_quadratic,
)
from .disc_domain import EvalResult, PoleSet
from .covering_domains import (
    CoverMap,
    PlaneDomain,
    build_cover,
    find_pole_with_value,
    green_plane,
    lempert_N_plane,
    lempert_poleset_plane,
    parse_domain,
    preimage_moduli,
)
from .interpolation import (
    Lemma4Problem,
    Lemma4Solution,
    lemma4_solve,
)
from .node_optimizer import NodeConfig, OptimizerSettings, bidisc_lempert, mixed_product_upper
from .product_engine import (
    BoundsReport,
    corollary8_sample,
    prop9_extend,
    prop10_construct,
    prop11_construct,
    theorem5_bounds,
    theorem7_decide,
)

__all__ = [
    "BoundsReport",
    "NodeConfig",
    "OptimizerSettings",
    "bidisc_lempert",
    "corollary8_sample",
    "mixed_product_upper",
    "prop9_extend",
    "prop10_construct",
    "prop11_construct",
    "theorem5_bounds",
    "theorem7_decide",
    "BlaschkeDisc",
    "CoverMap",
    "EvalResult",
    "Lemma4Problem",
    "Lemma4Solution",
    "PlaneDomain",
    "PoleSet",
    "build_cover",
    "find_pole_with_value",
    "green_plane",
    "lempert_N_plane",
    "lempert_poleset_plane",
    "lemma4_solve",
    "moebius",
    "parse_domain",
    "pick_margin",
    "preimage_moduli",
    "solve_node_quadratic",
]

__version__ = "0.1.0"
