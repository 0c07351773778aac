"""qmzv: exact-arithmetic kernel and verifier for finite q-multiple zeta
values at roots of unity.

The package computes Z_n(zeta_n; m, s) by several independent exact routes
(brute enumeration on packed integers, rationalized once in Q(zeta_n), a
generating product, a q-Stirling identity, Bell polynomials, Hessenberg
determinants, and closed forms for s <= 3 or m = 1; ``zeta.ROUTES`` lists
them) and cross-verifies them, along with the supporting identities for
generalized q-Stirling numbers, sequence transforms, and Bernoulli-family
numbers.
"""

from .exactnum import (
    UniPoly,
    det_cofactor,
    det_fraction_free,
    det_hessenberg,
    poly_interpolate,
    series_inv,
)
from .cyclo import (
    CycloCtx,
    CycloElem,
    NotRational,
    as_rational,
    cyclo_ctx,
    cyclotomic_poly,
    product_one_minus_powers,
)
from .qstirling import (
    QPoint,
    RationalQ,
    RootOfUnityQ,
    StirlingTable,
    SymbolicQ,
    falling_product,
    orthogonality_check,
    qfact,
    qnum,
    rstirling1,
    stirling1,
    stirling1_closed,
    stirling2,
    stirling2_iterated,
)
from .seqlib import (
    bell_complete,
    bell_partition_sum,
    bernoulli_order,
    degen_bernoulli,
    degen_bernoulli_poly,
    harmonic,
    hyperharmonic,
    norlund,
    seq_transform_forward,
    seq_transform_inverse,
)
from .util import CheckResult
from .zeta import (
    REFERENCE_POLYNOMIALS,
    BudgetExceeded,
    DegreeMismatch,
    ZetaValue,
    f_poly,
    harmonic_bernoulli_identity_check,
    harmonic_decomposition_check,
    harmonic_q_series,
    logf_identity_check,
    zeta_1s_degenerate_bernoulli,
    zeta_1s_det,
    zeta_bell,
    zeta_brute,
    zeta_det,
    zeta_m1_closed,
    zeta_m2_closed,
    zeta_m2_rstirling,
    zeta_m3_closed,
    zeta_poly_in_n,
    zeta_product,
    zeta_row_from_column,
    zeta_value,
    zeta_via_stirling,
)

__version__ = "1.0.0"
