"""Executable operator theory on the bidisc: colligation realizations,
inner-function certificates, Agler decompositions, de Branges-Rovnyak
kernel classification, and one-variable factorization of two-variable
Schur functions."""

from .colligation import (
    Colligation,
    as_transfer_callable,
    model_colligation,
    strip_monomial,
    strip_monomial_var2,
    structure_report,
    transfer_1d,
    transfer_2d,
    transfer_grid,
    transfer_torus,
)
from .factor import (
    check_condition_4,
    compose_colligations,
    separability_test,
    split_colligation,
    weak_converse_check,
)
from .functions import (
    Poly2,
    PointGrid,
    PowerSeries2,
    RationalFunction2,
    boundary_modulus_test,
    make_grid,
    mobius_of_product,
    reflect,
    series_of,
)
from .kernels import (
    SampledKernel,
    ThetaRealization,
    agler_kernels_of,
    dbr_reconstruct_disc,
    dbr_test_ball,
    dbr_test_disc,
    dbr_test_nf,
    dbr_test_polydisc,
    verify_agler_decomposition,
)
from .numlin import block_inverse_2x2, classify, is_psd, psd_factor, spectral_radius
from .toeplitz import (
    ToeplitzTruncation,
    certify_inner,
    isometry_defect,
    phi_blocks_from_colligation,
    proof_diagnostics,
    toeplitz_truncate,
)

__version__ = "0.1.0"
