"""Sampled-kernel engine: Agler kernel extraction from co-isometric
colligations, Agler decomposition verification, de Branges-Rovnyak
classification tests on the disc / polydisc / ball, and lurking-isometry
reconstruction of a Schur-class symbol on the disc.

Kernels live extensionally on finite grids; every positivity statement is a
Gram-matrix PSD test, which is exactly the checkable content of positivity
(it quantifies over finite point sets).  Analyticity in the first variable
is never assumed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numlin
from .colligation import Colligation, _resolvent_solve
from .errors import (
    GridMismatchError,
    IdentityViolatedError,
    NotCoisometricError,
    NotDbrError,
    NotPsdError,
    RankOverflowError,
)
from .functions import PointGrid
from .numlin import DEFAULT_TOL, RESIDUAL_GUARD, bound, frob

MAX_VALUE_DIM = 8
# largest number of fresh defect directions an isometric extension may add
MAX_PADDING = 64


def _blocks(values: np.ndarray, dim: int) -> np.ndarray:
    """The (n, n, e, e) view of a kernel table: block (i, j) is K(z_i, z_j),
    a 1 x 1 block for scalar kernels stored as (n, n).  A reshape, not a copy."""
    return values.reshape(values.shape[0], values.shape[1], dim, dim)


def _as_gram(table: np.ndarray, dim: int) -> np.ndarray:
    """(n e) x (n e) Gram matrix of a kernel table, blocks K(z_i, z_j) at (i, j)."""
    n = table.shape[0]
    return _blocks(table, dim).transpose(0, 2, 1, 3).reshape(n * dim, n * dim)


def check_value_dim(dim: int) -> None:
    if dim < 1 or dim > MAX_VALUE_DIM:
        raise ValueError(f"value dimension must be in 1..{MAX_VALUE_DIM}")


class SampledKernel:
    """Kernel evaluated on a finite point set.

    values has shape (n, n) for scalar kernels and (n, n, e, e) for
    operator-valued ones; entry (i, j) is K(z_i, z_j).  Hermitian pair
    symmetry is enforced on construction to numlin.RESIDUAL_GUARD.
    """

    def __init__(self, grid: PointGrid, values, dim: int = 1):
        check_value_dim(dim)
        n = len(grid)
        vals = np.asarray(values, dtype=np.complex128)
        expect = (n, n) if dim == 1 else (n, n, dim, dim)
        if vals.shape != expect:
            raise ValueError(f"values shape {vals.shape}, expected {expect}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("kernel values must be finite")
        self.grid = grid
        self.values = vals
        self.dim = dim
        g = self.gram()
        if frob(g - g.conj().T) > bound(RESIDUAL_GUARD, frob(g)):
            raise ValueError("kernel values are not Hermitian-symmetric in the point pair")

    def gram(self) -> np.ndarray:
        """Full (n e) x (n e) Gram matrix over the grid."""
        return _as_gram(self.values, self.dim)

    def is_psd(self, tol: float = DEFAULT_TOL) -> numlin.PsdReport:
        return numlin.is_psd(self.gram(), tol)

    def __repr__(self) -> str:
        return f"SampledKernel(npoints={len(self.grid)}, dim={self.dim})"


def _domain_factor(grid: PointGrid, k=None) -> np.ndarray:
    """s(z, w): 1 - <z, w> on a ball, else prod_k (1 - z_k conj(w_k)), or coordinate k's factor."""
    pts = grid.points
    if grid.domain == "ball":
        return 1.0 - pts @ pts.conj().T
    cols = pts.T if k is None else pts.T[k:k + 1]
    return functools.reduce(np.multiply, (1.0 - z[:, None] * np.conj(z)[None, :] for z in cols))


def _shared_grid(kernels, dim: int, what: str) -> PointGrid:
    """The grid all kernels are sampled on, each of value dimension dim; else GridMismatchError."""
    grid = kernels[0].grid
    if not all(k.grid.same_points(grid) for k in kernels):
        raise GridMismatchError("the kernels are sampled on different grids")
    if any(k.dim != dim for k in kernels):
        kind = "scalar kernels" if dim == 1 else f"kernels of value dimension {dim}"
        raise GridMismatchError(f"{what} for {kind}")
    return grid


# ---------------------------------------------------------------------------
# Agler kernels of a co-isometric colligation, one per state block


def _agler_residual(vals: np.ndarray, kernels) -> tuple:
    """Largest entry of (1 - f(z) conj(f(w))) - sum_i (1 - z_i conj(w_i)) K_i(z, w)
    over the shared grid of scalar kernels K_1 ... K_d, given the values of
    f there, and the Frobenius norm of 1 - f(z) conj(f(w))."""
    lhs = 1.0 - vals[:, None] * np.conj(vals)[None, :]
    rhs = sum(_domain_factor(k.grid, i) * k.values for i, k in enumerate(kernels))
    return float(np.max(np.abs(lhs - rhs), initial=0.0)), frob(lhs)


@dataclass(frozen=True)
class AglerKernels:
    kernels: tuple
    max_residual: float


def agler_kernels_of(v: Colligation, grid: PointGrid,
                     tol: float = DEFAULT_TOL) -> AglerKernels:
    """Kernels K_1, ..., K_d, one per state block, with

        1 - f(z) conj(f(w)) = sum_i (1 - z_i conj(w_i)) K_i(z, w)

    for the transfer function f of a co-isometric colligation of d
    variables, on an interior polydisc grid with d coordinates, via
    K_i(z,w) = H_i(z) H_i(w)* with H(z) = B (I - E(z) D)^{-1} split along
    the state partition.  The identity is re-checked on the grid and a
    violation raises (it can only come from a bug or ill-conditioning)."""
    grid.require("polydisc", v.nvars, "agler_kernels_of")
    if not v.classify(tol).is_coisometry:
        raise NotCoisometricError("colligation is not co-isometric at the given tolerance")
    # state rows H(z) = B (I - E(z) D)^{-1}, from H(z)^T = (I - E(z) D)^{-T} B^T
    reps = np.repeat(grid.points, v.partition, axis=1)
    h = _resolvent_solve(v.D, reps, v.B.T, transpose=True)[:, :, 0]
    kernels = tuple(SampledKernel(grid, hi @ hi.conj().T)
                    for hi in np.split(h, np.cumsum(v.partition)[:-1], axis=1))
    # f(z) = a + H(z) E(z) C from the same rows
    residual, lhs_norm = _agler_residual(v.a + (h * reps) @ v.C[:, 0], kernels)
    if residual > numlin.floored(tol, lhs_norm):
        raise IdentityViolatedError(
            f"decomposition identity violated (max residual {residual:.3e})")
    return AglerKernels(kernels, residual)


@dataclass(frozen=True)
class DecompositionReport:
    passed: bool
    kernels_psd: tuple
    max_residual: float


def verify_agler_decomposition(f, kernels, tol: float = DEFAULT_TOL) -> DecompositionReport:
    """Check an Agler decomposition on the kernels' shared grid, an interior
    polydisc grid with one coordinate per kernel: every K_i PSD, and the
    identity pointwise at numlin.floored(tol, ||1 - f f*||_F), the gate of
    agler_kernels_of."""
    grid = _shared_grid(kernels, 1, "decomposition verification is")
    grid.require("polydisc", len(kernels), f"decomposition verification of {len(kernels)} kernel(s)")
    psd_flags = tuple(bool(k.is_psd(tol)) for k in kernels)
    residual, lhs_norm = _agler_residual(
        np.asarray(f(*grid.points.T), dtype=np.complex128), kernels)
    passed = all(psd_flags) and residual <= numlin.floored(tol, lhs_norm)
    return DecompositionReport(passed, psd_flags, residual)


# ---------------------------------------------------------------------------
# de Branges-Rovnyak tests


def _defect_gram(values: np.ndarray, dim: int, s: np.ndarray) -> np.ndarray:
    """The Gram of I - s(z, w) K, s an (n, n) table of the domain's factor."""
    return _as_gram(np.eye(dim) - s[:, :, None, None] * _blocks(values, dim), dim)


def _dbr_grams(values: np.ndarray, dim: int, s: np.ndarray) -> tuple:
    """The Grams of K, a kernel table of value dimension dim, and of
    I - s(z, w) K.  The de Branges-Rovnyak rule: K is (I - T(z)T(w)*)/s(z, w)
    on the grid for a contractive multiplier T exactly when both are PSD
    (Agler-McCarthy 2002; Ball-Trent-Vinnikov 2001 on the ball)."""
    return _as_gram(values, dim), _defect_gram(values, dim, s)


def _dbr_report(k: SampledKernel, tol: float) -> numlin.PsdReport:
    """The rule on k: the PSD report of K if K fails, else that of I - s K,
    s = _domain_factor(k.grid) built only once K has passed and its Gram is freed."""
    report = k.is_psd(tol)
    return report and numlin.is_psd(_defect_gram(k.values, k.dim, _domain_factor(k.grid)), tol)


def dbr_test_disc(k: SampledKernel, tol: float = DEFAULT_TOL) -> numlin.PsdReport:
    """Does K agree on the grid with (I - T(z)T(w)*)/(1 - z conj(w)) for
    some Schur-class T?  Exactly when K and I - (1 - z conj(w)) K are both
    PSD; the report is K's if K fails, else that of I - (1 - z conj(w)) K."""
    k.grid.require("polydisc", 1, "dbr_test_disc")
    return _dbr_report(k, tol)


@dataclass(frozen=True)
class NormalizedFormReport:
    dominated_by_szego: bool
    hadamard_psd: bool
    min_eigenvalues: tuple


def dbr_test_nf(k: SampledKernel, tol: float = DEFAULT_TOL) -> NormalizedFormReport:
    """Is K(z,w) = T(z)T(w)*/(1 - z conj(w)) on the grid for a Schur-class
    T?  Exactly when S - K, S the Szego kernel, is a dBR kernel: when S - K
    and I - (1 - z conj(w))(S - K) = (1 - z conj(w)) K are both PSD."""
    k.grid.require("polydisc", 1, "dbr_test_nf")
    s = _domain_factor(k.grid)
    dominated = (1.0 / s)[:, :, None, None] * np.eye(k.dim) - _blocks(k.values, k.dim)
    r1, r2 = (numlin.is_psd(g, tol) for g in _dbr_grams(dominated, k.dim, s))
    return NormalizedFormReport(r1.is_psd, r2.is_psd, (r1.min_eigenvalue, r2.min_eigenvalue))


@dataclass(frozen=True)
class PolydiscReport:
    passed: bool
    kernels_psd: tuple
    sum_residual: float
    hadamard_min_eigenvalue: float


def dbr_test_polydisc(k: SampledKernel, components, tol: float = DEFAULT_TOL) -> PolydiscReport:
    """Certificate verifier on the polydisc: each component kernel PSD, the
    weighted sum identity

        K(z,w) = sum_i K_i(z,w) / prod_{j != i} (1 - z_j conj(w_j))

    pointwise, and PSD-ness of the Gram of I - (prod_j (1 - z_j conj(w_j))) K,
    on an interior polydisc grid of n >= 1 coordinates with one component
    per coordinate.  No reconstruction is attempted.  Both sides of the sum
    identity are computed tables, whose rounding grows with s = ||K||_F, the
    norm of the sides compared, so its largest entry residual passes at
    numlin.floored(tol, s), the gate of verify_agler_decomposition."""
    grid = _shared_grid([k, *components], k.dim, "dbr_test_polydisc of this kernel is")
    n = grid.nvars
    grid.require("polydisc", n, "dbr_test_polydisc")
    if len(components) != n:
        raise GridMismatchError(f"expected {n} component kernels, got {len(components)}")
    full = _domain_factor(grid)
    psd_flags = tuple(bool(ki.is_psd(tol)) for ki in components)
    # prod_{j != i} (1 - z_j conj(w_j)) is full over coordinate i's factor
    total = sum((1.0 / (full / _domain_factor(grid, i)))[:, :, None, None]
                * _blocks(ki.values, ki.dim) for i, ki in enumerate(components))
    sum_residual = float(np.max(np.abs(_blocks(k.values, k.dim) - total), initial=0.0))
    report = numlin.is_psd(_defect_gram(k.values, k.dim, full), tol)
    passed = all(psd_flags) and sum_residual <= numlin.floored(tol, frob(k.values)) \
        and report.is_psd
    return PolydiscReport(passed, psd_flags, sum_residual, report.min_eigenvalue)


def dbr_test_ball(k: SampledKernel, tol: float = DEFAULT_TOL) -> numlin.PsdReport:
    """Is K (I - T(z)T(w)*)/(1 - <z, w>) on a ball grid for a contractive
    multiplier T?  Exactly when K and I - (1 - <z, w>) K are both PSD; the
    report is K's if K fails, else that of I - (1 - <z, w>) K."""
    k.grid.require("ball", None, "dbr_test_ball")
    return _dbr_report(k, tol)


# ---------------------------------------------------------------------------
# lurking-isometry reconstruction on the disc


class ThetaRealization:
    """Schur-class symbol T(z) = A* + z C* (I - z D*)^{-1} B* built from an
    isometry [[A, B], [C, D]] mapping (values) + (state) into (defect) + (state).

    T is e_star x e valued with state dimension h; the adjoint block matrix
    [[A*, C*], [B*, D*]] is a co-isometric colligation, so T is genuinely in
    the Schur class everywhere, not only on the sample grid.
    """

    def __init__(self, A, B, C, D):
        self.A = numlin.as_matrix(A)
        self.B = numlin.as_matrix(B)
        self.C = numlin.as_matrix(C)
        self.D = numlin.as_matrix(D)
        self.e, self.e_star = self.A.shape
        self.h = self.D.shape[0]
        # largest entry of |K_T - K| on the grid, for a realization that
        # dbr_reconstruct_disc rebuilt from a sampled kernel K
        self.max_residual: Optional[float] = None
        if self.B.shape != (self.e, self.h) or self.C.shape != (self.h, self.e_star) \
                or self.D.shape != (self.h, self.h):
            raise ValueError("inconsistent block dimensions")

    def coisometry_defect(self) -> float:
        v = np.block([[self.A, self.B], [self.C, self.D]])
        vadj = v.conj().T
        return frob(vadj @ vadj.conj().T - np.eye(vadj.shape[0]))

    def __call__(self, z) -> np.ndarray:
        """T(z), an e_star x e matrix, at every point of z by one batched
        solve: shape z.shape + (e_star, e)."""
        z = np.asarray(z, dtype=np.complex128)
        flat = z.reshape(-1, 1)
        resolvent = _resolvent_solve(self.D.conj().T, np.repeat(flat, self.h, axis=1),
                                     self.B.conj().T)
        out = self.A.conj().T + (flat[:, :, None] * self.C.conj().T) @ resolvent
        return out.reshape(z.shape + out.shape[1:])

    def kernel_values(self, grid: PointGrid) -> np.ndarray:
        """(I - T(z) T(w)*)/(1 - z conj(w)) tabulated on a disc grid."""
        grid.require("polydisc", 1, "ThetaRealization.kernel_values")
        n, e_star = len(grid), self.e_star
        flat = self(grid.points[:, 0]).reshape(n * e_star, self.e)
        products = (flat @ flat.conj().T).reshape(n, e_star, n, e_star).transpose(0, 2, 1, 3)
        out = (np.eye(e_star) - products) / _domain_factor(grid)[:, :, None, None]
        return out[:, :, 0, 0] if e_star == 1 else out

    def __repr__(self) -> str:
        return f"ThetaRealization(e_star={self.e_star}, e={self.e}, h={self.h})"


def _dbr_factor(gram: np.ndarray, name: str, tol: float) -> np.ndarray:
    """numlin.psd_factor of a Gram of the reconstruction; NotDbrError, with
    the least eigenvalue psd_factor found, when it is not PSD."""
    try:
        return numlin.psd_factor(gram, tol)
    except NotPsdError as err:
        raise NotDbrError(f"{name} Gram not PSD (lambda_min = {err.min_eigenvalue:.3e})") from None


def dbr_reconstruct_disc(k: SampledKernel, tol: float = DEFAULT_TOL) -> ThetaRealization:
    """Reconstruct a Schur-class T with K = (I - T(z)T(w)*)/(1 - z conj(w))
    on the sample grid.

    Steps: factor the two Grams of dbr_test_disc, I - (1 - z conj(w)) K
    into defect rows F(w) and K into state rows G(w), fit a polar factor
    to the map

        (eta, conj(w) G(w)* eta)  ->  (F(w)* eta, G(w)* eta)

    on the span of the data, and extend it by sending an orthonormal basis
    of the domain complement to fresh defect directions: co-isometric by
    construction.  The one check is that the returned realization
    reproduces K on the grid (interpolation; no claim is made off the grid
    beyond Schur-class membership) to numlin.sampled(tol)."""
    k.grid.require("polydisc", 1, "dbr_reconstruct_disc")
    gram, defect = _dbr_grams(k.values, k.dim, _domain_factor(k.grid))
    f_adj = _dbr_factor(defect, "defect", tol).conj().T     # rf x n e
    g_adj = _dbr_factor(gram, "kernel", tol).conj().T       # rg x n e

    e = k.dim
    n = len(k.grid)
    w = k.grid.points[:, 0]
    rf = f_adj.shape[0]

    # data columns of the partial isometry, one per (grid point, value
    # direction): block i is (I, conj(w_i) G(w_i)*) -> (F(w_i)*, G(w_i)*),
    # where F(w_i) and G(w_i) are the i-th e-row blocks of the factors
    dom = np.vstack([np.tile(np.eye(e), n), np.repeat(np.conj(w), e) * g_adj])
    cod = np.vstack([f_adj, g_adj])

    u, sing, vh = np.linalg.svd(dom, full_matrices=True)
    rank = int(np.sum(sing > tol * (1.0 + sing[0])))      # a grid is never empty
    basis = u[:, :rank]
    complement = u[:, rank:]
    pad = complement.shape[1]
    if pad > MAX_PADDING:
        raise RankOverflowError(
            f"isometric extension needs {pad} padded directions, cap {MAX_PADDING}")
    # on span(dom), the isometry U minimising ||U dom - cod||_F is the polar
    # factor P Q* of cod dom* basis = cod V_r diag(sing_r) (Procrustes)
    p, _, qh = np.linalg.svd(cod @ (vh.conj().T[:, :rank] * sing[:rank]), full_matrices=False)
    image = p @ qh
    # codomain layout: [original defect rows; padded defect rows; state rows]
    vmat = np.vstack([image[:rf] @ basis.conj().T, complement.conj().T,
                      image[rf:] @ basis.conj().T])
    f_dim = rf + pad
    theta = ThetaRealization(vmat[:f_dim, :e], vmat[:f_dim, e:], vmat[f_dim:, :e],
                             vmat[f_dim:, e:])

    residual = float(np.max(np.abs(theta.kernel_values(k.grid) - k.values), initial=0.0))
    if residual > numlin.sampled(tol):
        raise IdentityViolatedError(
            f"reconstruction misses the sampled kernel (residual {residual:.3e})")
    theta.max_residual = residual
    return theta
