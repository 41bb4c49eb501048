"""One-variable factorization of two-variable Schur functions: separability
testing, the co-isometric splitting V -> (V1, V2), cascade composition, the
block-inverse converse pipeline for unitary colligations, and the Agler-
kernel factorization conditions on companioned grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .colligation import (
    Colligation,
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
from .functions import PointGrid, make_grid
from .kernels import SampledKernel
from .numlin import DEFAULT_TOL, EXACT_GUARD, frob

_CERT_GRID_SIZE = 30
_CERT_GRID_SEED = 20260810


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
    tested.  When it holds, factor samples are returned with the gauge
    fixed so that f1 is positive real at its largest-modulus sample."""
    if grid.ambient != "bidisc":
        raise ValueError("separability_test needs a bidisc grid")
    origin = complex(np.asarray(f(0.0, 0.0)).reshape(()))
    if abs(origin) <= tol:
        raise OriginZeroError(
            "value at the origin vanishes; strip monomial factors first")
    z1 = grid.points[:, 0]
    z2 = grid.points[:, 1]
    vals = np.asarray(f(z1, z2), dtype=np.complex128)
    sec1 = np.asarray(f(z1, np.zeros_like(z2)), dtype=np.complex128)
    sec2 = np.asarray(f(np.zeros_like(z1), z2), dtype=np.complex128)
    residual = float(np.max(np.abs(vals * origin - sec1 * sec2), initial=0.0))
    k = int(np.argmax(np.abs(sec1)))
    gauge = sec1[k] / abs(sec1[k]) if abs(sec1[k]) > 0 else 1.0 + 0.0j
    return SeparabilityReport(
        residual <= tol, residual, sec1 / gauge, sec2 * gauge / origin, gauge)


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
    grid = make_grid("bidisc", _CERT_GRID_SIZE, _CERT_GRID_SEED)
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
    if abs(v.a) <= tol:
        raise OriginZeroError("cannot split: the constant term vanishes")
    if not check_condition_4(v, tol):
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
    a, b, c, d, h1, h2 = cascade_blocks(v1, v2)
    out = Colligation(a, b, c, d, [h1, h2])
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
    if v.nvars != 2:
        raise ValueError("weak_converse_check needs a two-variable colligation")
    report = structure_report(v, tol)
    if not report.is_unitary:
        raise ConditionFailedError("precondition failed: colligation is not unitary")
    if abs(v.a) <= tol:
        raise OriginZeroError("precondition failed: constant term vanishes")
    if not report.lower_left_zero:
        raise ConditionFailedError("precondition failed: lower-left D block is nonzero")
    if not (report.c0dot_block1 and report.c0dot_block2):
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
# Agler-kernel factorization conditions on companioned grids


@dataclass(frozen=True)
class CompanionedGrid:
    """Product grid axis1 x axis2 (both axes containing 0) so that section
    and invariance checks are exact comparisons of sampled values."""

    axis1: np.ndarray
    axis2: np.ndarray
    grid: PointGrid

    origin1 = property(lambda self: int(np.argmin(np.abs(self.axis1))))
    origin2 = property(lambda self: int(np.argmin(np.abs(self.axis2))))

    def index(self, i: int, j: int) -> int:
        return i * len(self.axis2) + j


def companioned_grid(axis1, axis2) -> CompanionedGrid:
    a1 = np.asarray(axis1, dtype=np.complex128).ravel()
    a2 = np.asarray(axis2, dtype=np.complex128).ravel()
    if not (np.abs(a1).min(initial=np.inf) <= EXACT_GUARD
            and np.abs(a2).min(initial=np.inf) <= EXACT_GUARD):
        raise GridNotCompanionedError("both axes must contain the origin")
    z1, z2 = np.meshgrid(a1, a2, indexing="ij")
    grid = PointGrid("bidisc", np.column_stack([z1.ravel(), z2.ravel()]))
    return CompanionedGrid(a1, a2, grid)


def product_grid(n1: int, n2: int, seed: int = 0) -> CompanionedGrid:
    """Companioned grid with n1 x n2 random axis values of modulus < 0.6, plus 0."""
    rng = np.random.default_rng(seed)

    def axis(n):
        vals = 0.6 * np.sqrt(rng.uniform(size=n - 1)) \
            * np.exp(2j * np.pi * rng.uniform(size=n - 1))
        return np.concatenate([[0.0 + 0.0j], vals])

    return companioned_grid(axis(n1), axis(n2))


@dataclass(frozen=True)
class FactorizationConditions:
    cond2: bool
    invariance_residual: float
    section_residual: float


def agler_factorization_conditions(f, k1: SampledKernel, k2: SampledKernel,
                                   cgrid: CompanionedGrid,
                                   tol: float = DEFAULT_TOL) -> FactorizationConditions:
    """Kernel-level factorization conditions for a function with f(0,0) != 0:

    (a) K1 is invariant under changes of the second coordinates of both
        arguments (checked across companion points of the product grid);
    (b) conj(f(0,0)) K2(., (w1, 0)) = conj(f(w1, 0)) K2(., (0,0)) for every
        first-axis value w1, as functions of the first argument over the grid.
    """
    if not (k1.grid.same_points(cgrid.grid) and k2.grid.same_points(cgrid.grid)):
        raise GridMismatchError("kernels must be sampled on the companioned grid")
    if k1.dim != 1 or k2.dim != 1:
        raise ValueError("factorization conditions are for scalar kernels")
    origin = complex(np.asarray(f(0.0, 0.0)).reshape(()))
    if abs(origin) <= tol:
        raise OriginZeroError("value at the origin vanishes; strip monomials first")

    n1, n2 = len(cgrid.axis1), len(cgrid.axis2)
    vals1 = k1.values.reshape(n1, n2, n1, n2)
    ref = vals1[:, :1, :, :1]                       # second coordinates pinned
    invariance = float(np.max(np.abs(vals1 - ref), initial=0.0))

    # column (w1, 0) of K2 for every first-axis value w1, against the origin column
    cols = k2.values[:, cgrid.index(np.arange(n1), cgrid.origin2)]
    col0 = k2.values[:, cgrid.index(cgrid.origin1, cgrid.origin2), None]
    fw = np.asarray(f(cgrid.axis1, np.zeros_like(cgrid.axis1)), dtype=np.complex128)
    section = float(np.max(np.abs(np.conj(origin) * cols - np.conj(fw) * col0), initial=0.0))
    return FactorizationConditions(
        invariance <= tol and section <= tol, invariance, section)
