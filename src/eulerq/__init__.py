"""Exact computation with the fixed-excedance quasisymmetric functions.

The package builds the families Q(n, j), Q(n, j, k), and Q(lam, j) from
their closed formulas over exact rationals, exposes their expansions in the
standard symmetric function bases, implements the bijections behind them,
and ships verification suites (`suites`) that check every identity, and
every formula, against brute force (the *_oracle functions in `eulerian`).

Importing the package loads none of its modules: each public name below is
imported from the module that defines it on first use (PEP 562), so a
launch of the command line pays only for the modules its command reads.
"""

from importlib import import_module

# Each package module and the public names it defines, in export order.
_EXPORTS = {
    "permstats": (
        "CapacityError", "Partition", "Permutation", "census", "class_census",
        "derangements", "enumerate_by_cycle_type", "enumerate_permutations",
        "eulerian_counts", "eulerian_number", "eulerian_poly", "exd_set",
        "partitions", "statistics", "z_lambda",
    ),
    "polyalg": (
        "Poly", "PolyFraction", "TruncSeries", "parse_poly", "q_binomial",
        "q_factorial", "q_int", "q_multinomial",
    ),
    "symfunc": (
        "MonExpansion", "QSymF", "SymF", "SymPoly", "fundamental", "mn_character",
        "parse_symf", "plethysm_h", "restrict_frobenius", "sym_e", "sym_h",
        "sym_m", "sym_p", "sym_s",
    ),
    "eulerian": (
        "a_poly", "a_poly_derangements", "a_poly_fix", "a_poly_type", "char_table",
        "character_poly", "character_value", "q_poly", "q_qsym", "q_qsym_type",
        "q_symf", "q_symf_type", "q_type_poly",
    ),
    "bijections": (
        "Banner", "Necklace", "Ornament", "banner_to_ornament",
        "compatible_sequences", "enumerate_banners", "enumerate_necklaces",
        "enumerate_ornaments", "gamma", "gamma_inverse", "gr_eta", "gr_phi",
        "increasing_factorize", "lyndon_factorize", "ornament_to_banner",
        "parse_banner", "parse_ornament",
    ),
    "related": (
        "MultisetDerangement", "d_poly", "multiset_derangements", "y_poly",
    ),
    "report": ("Check", "VerifyReport"),
    "suites": ("verify_related",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "1.0.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
