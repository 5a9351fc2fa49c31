"""The package's lazy name table: every public name, where it is defined,
and what `from eulerq import *` binds."""

import pytest

import eulerq

# The public names `eulerq` exported when its __init__ imported every module
# eagerly, in that order.
PUBLIC_NAMES = [
    "CapacityError", "Partition", "Permutation", "census", "class_census", "derangements",
    "enumerate_by_cycle_type", "enumerate_permutations", "eulerian_counts", "eulerian_number",
    "eulerian_poly", "exd_set", "partitions", "statistics", "z_lambda",
    "Poly", "PolyFraction", "TruncSeries", "parse_poly", "q_binomial", "q_factorial", "q_int",
    "q_multinomial",
    "MonExpansion", "QSymF", "SymF", "SymPoly", "fundamental", "mn_character", "parse_symf",
    "plethysm_h", "restrict_frobenius", "sym_e", "sym_h", "sym_m", "sym_p", "sym_s",
    "a_poly", "a_poly_derangements", "a_poly_fix", "a_poly_type", "char_table",
    "character_poly", "character_value", "q_poly", "q_qsym", "q_qsym_type", "q_symf",
    "q_symf_type", "q_type_poly",
    "Banner", "Necklace", "Ornament", "banner_to_ornament", "compatible_sequences",
    "enumerate_banners", "enumerate_necklaces", "enumerate_ornaments", "gamma",
    "gamma_inverse", "gr_eta", "gr_phi", "increasing_factorize", "lyndon_factorize",
    "ornament_to_banner", "parse_banner", "parse_ornament",
    "MultisetDerangement", "d_poly", "multiset_derangements", "y_poly",
    "Check", "VerifyReport",
    "verify_related",
]


def test_the_table_exports_the_public_names():
    assert eulerq.__all__ == PUBLIC_NAMES
    assert eulerq.__version__ == "1.0.0"


def test_each_name_comes_from_its_module():
    wrong = [name for name in PUBLIC_NAMES
             if getattr(eulerq, name).__module__ != f"eulerq.{eulerq._MODULE_OF[name]}"]
    assert wrong == []


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from eulerq import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eulerq.no_such_name
    assert not hasattr(eulerq, "_no_such_private_name")
