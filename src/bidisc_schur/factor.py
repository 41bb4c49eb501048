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
)
from .errors import (
    AxesOnlyGridError,
    ClassMismatchError,
    ConditionFailedError,
    GridNotCompanionedError,
    IdentityViolatedError,
    OriginZeroError,
)
from .functions import PointGrid, RationalFunction2
from .kernels import SampledKernel, _shared_grid
from .numlin import DEFAULT_TOL, EXACT_GUARD, frob


def _origin_value(f, tol: float) -> complex:
    """f(0, 0), for the tests that divide by it: OriginZeroError if |f(0, 0)| <= tol."""
    origin = complex(np.asarray(f(0.0, 0.0)).reshape(()))
    if abs(origin) <= tol:
        raise OriginZeroError("value at the origin vanishes; strip monomial factors first")
    return origin


def _require_off_axes(grid: PointGrid, what: str) -> None:
    """AxesOnlyGridError unless some point of the bidisc grid has both
    coordinates nonzero.  On an axis f(z) f(0) - f(z1, 0) f(0, z2) is 0 for
    every f, and a product grid lies on its axes only when an axis has one
    point, where one Agler factorization condition compares a table with
    itself; either test would pass every f there."""
    if not np.any(np.all(np.abs(grid.points) > EXACT_GUARD, axis=1)):
        raise AxesOnlyGridError(f"{what} needs a grid point off both coordinate axes")


@dataclass(frozen=True)
class SeparabilityReport:
    separable: bool
    max_residual: float
    factor1_samples: np.ndarray   # over the grid's first coordinates
    factor2_samples: np.ndarray


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
    grid.require("polydisc", 2, "separability_test")
    _require_off_axes(grid, "separability_test")
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
        sec1 / gauge, sec2 * gauge / origin)


def _coefficient_separability(f, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """(separable, residual) for a Poly2, PowerSeries2 or RationalFunction2
    f, decided on one coefficient table T with no grid: f's own for a
    polynomial or a truncated series, since f1(z1) f2(z2) has the table
    outer(f1's, f2's); the denominator's for f = u z^m p~/p.

    A rational f is separable exactly when p = p1(z1) p2(z2).  If it is,
    p~ = p1~ p2~, each factor reflected at its own degree, and
    f = (u z1^m1 p1~/p1)(z2^m2 p2~/p2).  Conversely, p shares no factor with
    p~ when p has no zeros on the closed bidisc (Rudin, Function Theory in
    Polydiscs, ch. 5; Knese 2010).  Let q divide both.  If q involves z2,
    then for all but finitely many unimodular w, q(w, .) has a root t; p
    has no zeros on the closed bidisc, so |t| > 1, and since
    p~(w, t) = w^d1 t^d2 conj(p(w, 1/conj(t))), p would vanish at
    (w, 1/conj(t)), inside it.  If q = q(z1) has a root s, then p(s, .) = 0
    forces |s| > 1, and p~(s, .) = 0 makes p(1/conj(s), .) = 0, again inside
    it.  Now let f = f1 f2, and w a point with f(w) != 0: then
    f(z) f(w) = f(z1, w2) f(w1, z2), so p~/p = (A/C)(z1) (B/D)(z2) with
    one-variable polynomials A, B, C, D, and p~ C D = p A B.  As p~ and p
    share no factor, p divides C(z1) D(z2), whose irreducible factors are
    each in one variable, so p = p1(z1) p2(z2).  The monomial and u never
    matter.

    T is scaled so that its largest entry is 1, since f ignores the scale of
    p, and pivoted at that entry (j, k): T has rank one exactly when
    T T[j, k] = T[:, k] T[j, :], and the residual is the largest entry of the
    difference, passing at numlin.bound(tol, s), s the larger Frobenius norm
    of the two sides.  The zero table is separable, with residual 0."""
    table = f.denominator.coeffs if isinstance(f, RationalFunction2) else f.coeffs
    peak = float(np.max(np.abs(table)))
    if peak == 0.0:
        return True, 0.0
    t = table / peak
    j, k = np.unravel_index(np.argmax(np.abs(t)), t.shape)
    col, row = t[:, k], t[j, :]
    residual = float(np.max(np.abs(t * t[j, k] - np.outer(col, row))))
    return residual <= numlin.bound(tol, max(frob(t), frob(col) * frob(row))), residual


def check_condition_4(v: Colligation, tol: float = DEFAULT_TOL) -> bool:
    """Splittability condition: co-isometric, vanishing lower-left coupling
    block, and a * D2 = C1 B2."""
    report = structure_report(v, tol)
    return bool(report.is_coisometry and report.lower_left_zero
                and report.factorization_condition)


@dataclass(frozen=True)
class FactorizationResult:
    """Split of a two-variable colligation into one-variable co-isometric
    factors, whose constant terms y = v1.a and x = v2.a have x y = a, and
    the certificate ||V - cascade(V1, V2)||_F."""

    v1: Colligation
    v2: Colligation
    certificate: float


def _product_certificate(v: Colligation, v1: Colligation, v2: Colligation,
                         tol: float) -> float:
    """||V - cascade(V1, V2)||_F, at most numlin.bound(tol, ||V||_F).

    The cascade of V1 = [[y, B1], [C1/x, D1]] and V2 = [[x, B2/y], [C2, D4]]
    is [[x y, B1, B2], [C1, D1, C1 B2 / (x y)], [C2, 0, D4]] (cascade_blocks),
    whose transfer function is tau_{V1}(z1) tau_{V2}(z2).  With x y = a it
    is V exactly when a D2 = C1 B2 and the lower-left block vanishes, so
    V = cascade(V1, V2) is an identity exact in exact arithmetic, and the
    residual of the (1 + h) x (1 + h) matrices passes at numlin's rule, s
    the norm ||V||_F of the sides compared.  It proves tau_V = tau_{V1}
    tau_{V2} with no transfer function evaluated.  Up to rounding the
    residual is that of D2 - C1 B2 / a and the lower-left block, the
    splittability condition read at the scale of V rather than of a D, so a
    miss is that condition failing: ConditionFailedError, a refusal."""
    matrix = v.V
    residual = frob(matrix - Colligation(*cascade_blocks(v1, v2), v.partition).V)
    if residual > numlin.bound(tol, frob(matrix)):
        raise ConditionFailedError(
            "colligation fails the splittability condition: V is not the cascade "
            f"of its split factors (residual {residual:.3e})")
    return residual


def split_colligation(v: Colligation, tol: float = DEFAULT_TOL) -> FactorizationResult:
    """Split a colligation satisfying check_condition_4 into

        V1 = [[y, B1], [C1/x, D1]]   and   V2 = [[x, B2/y], [C2, D4]]

    with y = +sqrt(1 - B1 B1*) (positive real branch; any unimodular
    rotation is gauge) and x = a/y.  Both factors are co-isometric and
    their cascade is V (_product_certificate), so the transfer functions
    multiply back to the original."""
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
    return FactorizationResult(v1, v2, _product_certificate(v, v1, v2, tol))


def compose_colligations(v1: Colligation, v2: Colligation,
                         tol: float = DEFAULT_TOL) -> Colligation:
    """Two-variable colligation realizing tau_{V1}(z1) * tau_{V2}(z2).

    Both factors must be isometric, or both co-isometric; the composition
    preserves the shared class (and hence unitarity).  It is the cascade of
    the factors, whose transfer function is the product by construction."""
    c1 = v1.classify(tol)
    c2 = v2.classify(tol)
    if not ((c1.is_isometry and c2.is_isometry)
            or (c1.is_coisometry and c2.is_coisometry)):
        raise ClassMismatchError(
            "factors must share a class: both isometric or both co-isometric")
    return Colligation(*cascade_blocks(v1, v2), [v1.h, v2.h])


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
    axis2[origin2]; GridMismatchError off the bidisc, else GridNotCompanionedError."""
    grid.require("polydisc", 2, "agler_factorization_conditions")
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
    grid = _shared_grid([k1, k2], 1, "factorization conditions are")
    axis1, axis2, origin1, origin2 = _product_axes(grid)
    _require_off_axes(grid, "agler_factorization_conditions")
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
