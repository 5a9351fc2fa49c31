"""Exact computation with the fixed-excedance quasisymmetric functions.

The package builds the families Q(n, j), Q(n, j, k), and Q(lam, j) from
their closed formulas over exact rationals, exposes their expansions in the
standard symmetric function bases, implements the bijections behind them,
and ships verification suites (`suites`) that check every identity, and
every formula, against brute force (the *_oracle functions in `eulerian`).
"""

from .permstats import (
    CapacityError,
    Partition,
    Permutation,
    census,
    class_census,
    derangements,
    enumerate_by_cycle_type,
    enumerate_permutations,
    eulerian_counts,
    eulerian_number,
    eulerian_poly,
    exd_set,
    partitions,
    statistics,
    z_lambda,
)
from .polyalg import (
    Poly,
    PolyFraction,
    TruncSeries,
    parse_poly,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
)
from .symfunc import (
    MonExpansion,
    QSymF,
    SymF,
    SymPoly,
    fundamental,
    mn_character,
    parse_symf,
    plethysm_h,
    restrict_frobenius,
    sym_e,
    sym_h,
    sym_m,
    sym_p,
    sym_s,
)
from .eulerian import (
    a_poly,
    a_poly_derangements,
    a_poly_fix,
    a_poly_type,
    char_table,
    character_poly,
    character_value,
    q_poly,
    q_qsym,
    q_qsym_type,
    q_symf,
    q_symf_type,
    q_type_poly,
)
from .bijections import (
    Banner,
    Necklace,
    Ornament,
    banner_to_ornament,
    compatible_sequences,
    enumerate_banners,
    enumerate_necklaces,
    enumerate_ornaments,
    gamma,
    gamma_inverse,
    gr_eta,
    gr_phi,
    increasing_factorize,
    lyndon_factorize,
    ornament_to_banner,
    parse_banner,
    parse_ornament,
)
from .related import (
    ConstrainedWord,
    MultisetDerangement,
    d_poly,
    multiset_derangements,
    y_poly,
)
from .report import Check, VerifyReport
from .suites import verify_related

__version__ = "1.0.0"
