"""One-variable factorization of two-variable Schur functions: separability
testing, the co-isometric splitting V -> (V1, V2), cascade composition, the
block-inverse converse pipeline for unitary colligations, and the Agler-
kernel factorization conditions on kernels sampled on a product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .colligation import (
    Colligation,
    _zero_coupling_parts,
    cascade_blocks,
    structure_report,
    transfer_grid,
)
from .errors import (
    ClassMismatchError,
    ConditionFailedError,
    GridMismatchError,
    GridNotCompanionedError,
    IdentityViolatedError,
    OriginZeroError,
)
from .functions import PointGrid, shared_grid
from .kernels import SampledKernel
from .numlin import DEFAULT_TOL, EXACT_GUARD, frob

_CERT_GRID_SIZE = 30
_CERT_GRID_SEED = 20260810


def _origin_value(f, tol: float) -> complex:
    """f(0, 0), for the tests that divide by it: OriginZeroError if |f(0, 0)| <= tol."""
    origin = complex(np.asarray(f(0.0, 0.0)).reshape(()))
    if abs(origin) <= tol:
        raise OriginZeroError("value at the origin vanishes; strip monomial factors first")
    return origin


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    max_residual: float
    factor1_samples: np.ndarray   # over the grid's first coordinates
    factor2_samples: np.ndarray
    gauge: complex


def separability_test(f, grid: PointGrid, tol: float = DEFAULT_TOL) -> SeparabilityReport:
    """Does f(z1, z2) split as f1(z1) f2(z2)?

    For f(0,0) != 0 this is equivalent to the cross-section identity
    f(z1, z2) f(0, 0) = f(z1, 0) f(0, z2) on the grid, which is what gets
    tested.  A two-variable Colligation whose lower-left coupling block is
    exactly zero gives all three arrays from one row solve in z1 and one
    column solve in z2 (colligation._zero_coupling_parts); any other f is
    called three times.  The identity is decided divided by f(0, 0): f is
    separable when max_residual / |f(0, 0)| <= bound(tol, s), s = max |f|
    on the grid (max_residual itself is not divided).  When the identity
    holds, factor samples are returned with the gauge fixed so that f1 is
    positive real at its largest-modulus sample."""
    if grid.ambient != "bidisc":
        raise GridMismatchError("separability_test needs a bidisc grid")
    origin = _origin_value(f, tol)
    z1 = grid.points[:, 0]
    z2 = grid.points[:, 1]
    if isinstance(f, Colligation) and f.nvars == 2 and not f.lower_left.any():
        sec1, rows, x2 = _zero_coupling_parts(f, z1, z2)
        sec2 = f.a + x2 @ f.B2[0]
        vals = sec1 + np.einsum("ij,ij->i", rows, x2)
    else:
        vals = np.asarray(f(z1, z2), dtype=np.complex128)
        sec1 = np.asarray(f(z1, np.zeros_like(z2)), dtype=np.complex128)
        sec2 = np.asarray(f(np.zeros_like(z1), z2), dtype=np.complex128)
    residual = float(np.max(np.abs(vals * origin - sec1 * sec2), initial=0.0))
    scale = float(np.max(np.abs(vals), initial=0.0))
    k = int(np.argmax(np.abs(sec1)))
    gauge = sec1[k] / abs(sec1[k]) if abs(sec1[k]) > 0 else 1.0 + 0.0j
    return SeparabilityReport(
        residual <= abs(origin) * numlin.bound(tol, scale), residual,
        sec1 / gauge, sec2 * gauge / origin, gauge)


def check_condition_4(v: Colligation, tol: float = DEFAULT_TOL) -> bool:
    """Splittability condition: co-isometric, vanishing lower-left coupling
    block, and a * D2 = C1 B2."""
    report = structure_report(v, tol)
    return bool(report.is_coisometry and report.lower_left_zero
                and report.factorization_condition)


@dataclass(frozen=True)
class FactorizationResult:
    """Split of a two-variable colligation into one-variable co-isometric
    factors, with x y = a and the certificate residual of
    tau_V - tau_{V1} tau_{V2} over the test grid."""

    v1: Colligation
    v2: Colligation
    y: complex
    x: complex
    certificate: float


def product_residual(v: Colligation, v1: Colligation, v2: Colligation,
                     grid: PointGrid) -> float:
    vals = transfer_grid(v, grid.points)
    vals1 = transfer_grid(v1, grid.points[:, :1])
    vals2 = transfer_grid(v2, grid.points[:, 1:])
    return float(np.max(np.abs(vals - vals1 * vals2), initial=0.0))


def _product_certificate(v: Colligation, v1: Colligation, v2: Colligation,
                         tol: float, failure: str) -> float:
    """product_residual on the certificate grid, at most numlin.floored(tol, 0)."""
    grid = shared_grid("bidisc", _CERT_GRID_SIZE, _CERT_GRID_SEED)
    residual = product_residual(v, v1, v2, grid)
    if residual > numlin.floored(tol, 0.0):
        raise IdentityViolatedError(f"{failure} (residual {residual:.3e})")
    return residual


def split_colligation(v: Colligation, tol: float = DEFAULT_TOL) -> FactorizationResult:
    """Split a colligation satisfying check_condition_4 into

        V1 = [[y, B1], [C1/x, D1]]   and   V2 = [[x, B2/y], [C2, D4]]

    with y = +sqrt(1 - B1 B1*) (positive real branch; any unimodular
    rotation is gauge) and x = a/y.  Both factors are co-isometric and the
    transfer functions multiply back to the original on a fixed test grid."""
    condition = check_condition_4(v, tol)     # the arity gate, before the origin test
    if abs(v.a) <= tol:
        raise OriginZeroError("cannot split: the constant term vanishes")
    if not condition:
        raise ConditionFailedError(
            "colligation fails the splittability condition "
            "(co-isometry, zero lower-left block, a D2 = C1 B2)")
    return _split(v, tol)


def _split(v: Colligation, tol: float) -> FactorizationResult:
    """The split of a colligation already known to satisfy check_condition_4."""
    b1_norm_sq = float(np.linalg.norm(v.B1) ** 2)
    y = complex(np.sqrt(max(1.0 - b1_norm_sq, 0.0)))
    if abs(y) <= tol:
        raise ConditionFailedError("degenerate split: 1 - B1 B1* is not positive")
    x = v.a / y
    h1, h2 = v.partition
    v1 = Colligation(y, v.B1, v.C1 / x, v.D1, [h1])
    v2 = Colligation(x, v.B2 / y, v.C2, v.D4, [h2])
    certificate = _product_certificate(
        v, v1, v2, tol, "split factors do not reproduce the transfer function")
    return FactorizationResult(v1, v2, y, x, certificate)


def compose_colligations(v1: Colligation, v2: Colligation,
                         tol: float = DEFAULT_TOL) -> Colligation:
    """Two-variable colligation realizing tau_{V1}(z1) * tau_{V2}(z2).

    Both factors must be isometric, or both co-isometric; the composition
    preserves the shared class (and hence unitarity)."""
    c1 = v1.classify(tol)
    c2 = v2.classify(tol)
    if not ((c1.is_isometry and c2.is_isometry)
            or (c1.is_coisometry and c2.is_coisometry)):
        raise ClassMismatchError(
            "factors must share a class: both isometric or both co-isometric")
    out = Colligation(*cascade_blocks(v1, v2), [v1.h, v2.h])
    _product_certificate(out, v1, v2, tol, "composition does not realize the product")
    return out


@dataclass(frozen=True)
class ConverseReport:
    """Outcome of the unitary-colligation converse pipeline: the block
    inverse identity, the vanishing coupling condition, and the resulting
    split."""

    adjoint_identity_residual: float
    coupling_residual: float
    factorization: FactorizationResult


def weak_converse_check(v: Colligation, tol: float = DEFAULT_TOL) -> ConverseReport:
    """Execute the converse pipeline for a finite-dimensional unitary
    colligation with nonzero constant term, zero lower-left block and both
    diagonal D-blocks of spectral radius < 1 - tol:

    compute (a D - C B)^{-1} blockwise, verify the adjoint identity
    D* = a (a D - C B)^{-1} (the Schur complement of the scalar corner of V
    is a^{-1}(a D - C B)), confirm a D2 - C1 B2 = 0, then split.  The identity
    is exact for unitary V: a miss of numlin.inverse_bound is IdentityViolatedError."""
    report = structure_report(v, tol)
    if not report.is_unitary:
        raise ConditionFailedError("precondition failed: colligation is not unitary")
    if abs(v.a) <= tol:
        raise OriginZeroError("precondition failed: constant term vanishes")
    if not report.lower_left_zero:
        raise ConditionFailedError("precondition failed: lower-left D block is nonzero")
    if not all(report.c0dot):
        raise ConditionFailedError(
            "precondition failed: a diagonal D block has spectral radius >= 1 - tol")
    a = v.a
    p = a * v.D1 - v.C1 @ v.B1
    q = a * v.D2 - v.C1 @ v.B2
    r = -v.C2 @ v.B1                      # lower-left of a D - C B given D21 = 0
    s = a * v.D4 - v.C2 @ v.B2
    inv = numlin.block_inverse_2x2(p, q, r, s, tol)
    identity_residual = frob(v.D.conj().T - a * inv)
    if identity_residual > numlin.inverse_bound(tol, np.block([[p, q], [r, s]]), frob(v.D)):
        raise IdentityViolatedError(
            f"adjoint identity D* = a (aD - CB)^{{-1}} fails "
            f"(residual {identity_residual:.3e})")
    if not report.factorization_condition:
        raise ConditionFailedError(
            f"coupling condition a D2 = C1 B2 fails (norm {frob(q):.3e})")
    return ConverseReport(identity_residual, frob(q), _split(v, tol))


# ---------------------------------------------------------------------------
# Agler-kernel factorization conditions on product grids


def product_grid(n1: int, n2: int, seed: int = 0) -> PointGrid:
    """Bidisc grid axis1 x axis2 in row-major order; each axis is 0 followed
    by n - 1 random values of modulus < 0.6."""
    if n1 < 1 or n2 < 1:
        raise ValueError("size must be >= 1")
    rng = np.random.default_rng(seed)

    def axis(n):
        vals = 0.6 * np.sqrt(rng.uniform(size=n - 1)) \
            * np.exp(2j * np.pi * rng.uniform(size=n - 1))
        return np.concatenate([[0.0 + 0.0j], vals])

    z1, z2 = np.meshgrid(axis(n1), axis(n2), indexing="ij")
    return PointGrid("bidisc", np.column_stack([z1.ravel(), z2.ravel()]))


def _product_axes(grid: PointGrid):
    """(axis1, axis2, origin1, origin2) of a bidisc grid whose points are
    axis1 x axis2 in row-major order with 0 at axis1[origin1] and
    axis2[origin2]; any other grid raises GridNotCompanionedError."""
    if grid.ambient == "bidisc":
        pts = grid.points
        n2 = int(np.argmax(pts[:, 0] != pts[0, 0])) or len(pts)
        axis1, axis2 = pts[::n2, 0], pts[:n2, 1]
        o1, o2 = int(np.argmin(np.abs(axis1))), int(np.argmin(np.abs(axis2)))
        product = np.column_stack([np.repeat(axis1, n2), np.tile(axis2, len(axis1))])
        if np.array_equal(pts, product) and max(abs(axis1[o1]), abs(axis2[o2])) <= EXACT_GUARD:
            return axis1, axis2, o1, o2
    raise GridNotCompanionedError("points are not axis1 x axis2 with 0 on both axes")


@dataclass(frozen=True)
class FactorizationConditions:
    cond2: bool
    invariance_residual: float
    section_residual: float


def agler_factorization_conditions(f, k1: SampledKernel, k2: SampledKernel,
                                   tol: float = DEFAULT_TOL) -> FactorizationConditions:
    """Kernel-level factorization conditions for a function with f(0,0) != 0,
    on kernels sampled on a product grid, whose axes _product_axes reads back:

    (a) K1 is invariant under changes of the second coordinates of both
        arguments (checked across companion points of the product grid);
    (b) conj(f(0,0)) K2(., (w1, 0)) = conj(f(w1, 0)) K2(., (0,0)) for every
        first-axis value w1, as functions of the first argument over the grid.

    Each compares two computed tables, whose rounding grows with s, the norm
    of the sides compared, so its largest entry residual passes at
    numlin.floored(tol, s), as in verify_agler_decomposition: s = ||K1||_F
    for (a), and |f(0,0)| times the norm of the columns K2(., (w1, 0)) for (b).
    """
    if not k1.grid.same_points(k2.grid):
        raise GridMismatchError("the two kernels are sampled on different grids")
    axis1, axis2, origin1, origin2 = _product_axes(k1.grid)
    if k1.dim != 1 or k2.dim != 1:
        raise GridMismatchError("factorization conditions are for scalar kernels")
    origin = _origin_value(f, tol)

    n1, n2 = len(axis1), len(axis2)
    vals1 = k1.values.reshape(n1, n2, n1, n2)
    ref = vals1[:, :1, :, :1]                       # second coordinates pinned
    invariance = float(np.max(np.abs(vals1 - ref), initial=0.0))

    # column (w1, 0) of K2 for every first-axis value w1, against the origin column
    cols = k2.values.reshape(n1 * n2, n1, n2)[:, :, origin2]
    fw = np.asarray(f(axis1, np.zeros_like(axis1)), dtype=np.complex128)
    section = float(np.max(np.abs(np.conj(origin) * cols - np.conj(fw) * cols[:, origin1, None]),
                           initial=0.0))
    return FactorizationConditions(
        invariance <= numlin.floored(tol, frob(k1.values))
        and section <= numlin.floored(tol, abs(origin) * frob(cols)), invariance, section)
