"""Analysis of abstract unitals: full points, perspectivity groups,
embedded dual k-nets, latin square classification, and the Hermitian
unital with its natural embedding in PG(2, q^2).  Each public name loads
its module on first use, so a command imports only the modules it runs."""

from importlib import import_module

_MODULE_OF = {
    "classify_unital": "census",
    "AbstractUnital": "design", "NotAUnital": "design", "validate_unital": "design",
    "builtin_appendix_unital": "formats", "load_unital": "formats", "parse_unital": "formats",
    "GaloisField": "gf",
    "structure_name": "groups",
    "HermitianEmbedding": "hermitian", "hermitian_unital": "hermitian",
    "full_points": "persp", "persp_group": "persp", "perspectivity_map": "persp",
    "find_dual_3nets": "nets", "is_cyclic_3net": "nets", "is_dual_knet": "nets", "is_group_based": "nets",
    "latin_square_from_3net": "nets",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines `name`, and bind the name here if it
    is that module's own object, not a wrapper set on the module's attribute
    later (a tracer's, a test's), so that removing the wrapper restores it."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_MODULE_OF[name]}", __name__)
    value = getattr(module, name)
    if getattr(value, "__globals__", vars(module)) is vars(module):
        globals()[name] = value
    return value
