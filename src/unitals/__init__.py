"""Analysis of abstract unitals: full points, perspectivity groups,
embedded dual k-nets, latin square classification, and the Hermitian
unital with its natural embedding in PG(2, q^2)."""

from .census import classify_unital
from .design import AbstractUnital, NotAUnital, validate_unital
from .formats import builtin_appendix_unital, load_unital, parse_unital
from .gf import GaloisField
from .groups import structure_name
from .hermitian import HermitianEmbedding, hermitian_unital
from .persp import full_points, persp_group, perspectivity_map
from .nets import find_dual_3nets, is_cyclic_3net, is_dual_knet, is_group_based, latin_square_from_3net

__all__ = [
    "AbstractUnital",
    "GaloisField",
    "HermitianEmbedding",
    "NotAUnital",
    "builtin_appendix_unital",
    "classify_unital",
    "find_dual_3nets",
    "full_points",
    "hermitian_unital",
    "is_cyclic_3net",
    "is_dual_knet",
    "is_group_based",
    "latin_square_from_3net",
    "load_unital",
    "parse_unital",
    "persp_group",
    "perspectivity_map",
    "structure_name",
    "validate_unital",
]

__version__ = "0.1.0"
