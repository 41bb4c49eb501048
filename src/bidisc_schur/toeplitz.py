"""Truncated block Toeplitz machinery for multiplication operators on the
bidisc Hardy space, and the structured-colligation inner certificate.

The infinite operator (block lower-triangular Toeplitz, with lower-
triangular Toeplitz blocks) is represented by its leading order-M
compression, which the M x M table of the symbol's Taylor coefficients
determines; the M^2 x M^2 matrix itself is never formed.  Isometry
statements are window-restricted: the leading window x window corner of
Y_i* Y_j is compared against delta_ij I, with window <= M/2 to keep edge
effects out of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .colligation import (
    Colligation,
    _power_rows,
    _require_structured,
    series_coefficient_table,
    structure_report,
    StructureReport,
    transfer_torus,
)
from .errors import (
    InsufficientTruncationError,
    NotStructuredError,
    ResolventIllConditionedError,
    WindowTooLargeError,
)
from .functions import (ModulusReport, PowerSeries2, boundary_modulus_test,
                        modulus_report, shared_grid)
from .numlin import DEFAULT_TOL, below_one, frob, sampled, spectral_radius

# side of the boundary scan's torus grid; order of certify_inner's defect
TORUS_SCAN = 64
DEFECT_ORDER = 16
# the proof quantities' window: lags k = 1..PROOF_LAGS, shifts j = 0..PROOF_SHIFTS
PROOF_LAGS = 8
PROOF_SHIFTS = 2


@dataclass
class ToeplitzTruncation:
    """Order-M compression, held as the M x M coefficient table of the
    symbol: block Phi_k of the compression is the M x M lower-triangular
    Toeplitz matrix whose first column is table[k]."""

    order: int
    table: np.ndarray

    @property
    def blocks(self) -> np.ndarray:
        """Phi_0..Phi_{M-1} stacked (M x M x M), built from the table.  No
        computation here needs them; bench/toeplitz_series.py reads them."""
        m = self.order
        return np.tril(self.table[:, np.subtract.outer(np.arange(m), np.arange(m))])


def toeplitz_truncate(series: PowerSeries2, order: int) -> ToeplitzTruncation:
    """Compression of the multiplication operator with the given symbol."""
    n1, n2 = series.orders
    if n1 < order - 1 or n2 < order - 1:
        raise InsufficientTruncationError(
            f"order-{order} truncation needs series orders >= {order - 1}, got {series.orders}"
        )
    return ToeplitzTruncation(order, series.coeffs[:order, :order].copy())


def phi_blocks_from_colligation(v: Colligation, order: int,
                                tol: float = DEFAULT_TOL) -> ToeplitzTruncation:
    """Truncation of the transfer series of a triangular colligation, whose
    coefficients come straight from the blocks (series_coefficient_table)."""
    return toeplitz_truncate(
        PowerSeries2(series_coefficient_table(v, order - 1, order - 1, tol)), order)


def isometry_defect(t: ToeplitzTruncation, window: int) -> float:
    """Windowed defect from being an isometry.

    max over i <= j < window of the Frobenius distance between the leading
    window x window corner of Y_i* Y_j and delta_ij I, where Y_j is block
    column j of the compression.  Zero for aligned truncations of inner
    symbols; tends to zero with the order for inner symbols generally.

    Column (k, q) of the compression is the coefficient table shifted down
    by k rows and right by q columns (cut to M x M).  With R_u the w x M
    matrix whose row q is row u of the table shifted right by q, the corner
    of Y_k* Y_{k+s} is

        G(k, s) = sum_{u=s}^{M-1-k} conj(R_u) R_{u-s}^T,

    a sum of row-pair Grams.  Rows u <= M - w enter every corner with k + s
    < w, so one batched product over the shifts s (w^3 M^2 multiply-adds in
    all) gives that head.  Row M - w + i enters only the corners with
    k < w - i, so the products of the at most w - 1 rows below the head,
    added on one at a time, give G(k, s) for k = w - 1, w - 2, ..., 0."""
    m = t.order
    if window < 1 or 2 * window > m:
        raise WindowTooLargeError(f"window must satisfy 1 <= window <= order/2 = {m / 2}")
    w = window
    head = m - w + 1
    # stack[q, w + u] = R_u[q], after w zero rows that stand for R_{u-s}, u < s
    stack = np.zeros((w, m + w, m), dtype=np.complex128)
    for q in range(w):
        stack[q, w:, q:] = t.table[:, :m - q]
    left = stack[:, w:].conj()
    # right[s, u, :, q] = R_{u-s}[q]
    right = sliding_window_view(stack, m, axis=1)[:, w:0:-1].transpose(1, 3, 2, 0)
    # gram[0, s] is the sum over the head, gram[j, s] the product of row
    # M - w + j alone; after the running sum over j, gram[j, s] = G(w - 1 - j, s)
    gram = np.empty((w, w, w, w), dtype=np.complex128)
    np.matmul(left[:, :head].reshape(w, head * m), right[:, :head].reshape(w, head * m, w),
              out=gram[0])
    np.matmul(left[:, head:].transpose(1, 0, 2), right[:, head:],
              out=gram[1:].transpose(1, 0, 2, 3))
    # running sum by in-place adds: right after the products, np.cumsum cost
    # 0.4 ms a call on a 2-core Xeon with OpenBLAS, as much as all the rest
    for j in range(1, w):
        gram[j] += gram[j - 1]
    gram[:, 0] -= np.eye(w)
    # the corners with k + s < w are those with s <= j
    return float(np.linalg.norm(gram, axis=(2, 3))[np.tril_indices(w)].max())


# ---------------------------------------------------------------------------
# proof-quantity diagnostics


def _stein_sums(d: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_{k >= 0} D*^k X D^k for every X stacked along the leading axes of
    x (shape (..., h, h)), by squared Smith doubling (R. A. Smith, SIAM J.
    Appl. Math. 16, 1968): after n steps of
    X <- X + A* X A, A <- A^2 (starting from A = D) the sum holds the first
    2^n terms.  The rest of the sum is A* S A for the full sum S, so the loop
    stops once ||A||^2 is below rounding.  The caller ensures spectral
    radius < 1; 64 doublings bound the loop."""
    a = d
    for _ in range(64):
        if frob(a) ** 2 <= np.finfo(float).eps:
            break
        x = x + a.conj().T @ x @ a
        a = a @ a
    return x


@dataclass(frozen=True)
class ProofDiagnostics:
    """The scalar sequences that make the symbol's multiplication operator an
    isometry: y_0 should be 1 and every other y_k and every c coefficient
    should vanish.  The geometric sums behind them are exact Stein sums
    (to rounding).

    For isometric colligations the two geometric sums themselves equal the
    identity; their distances from I are reported as partial_sum_defects
    (first-block sum of D1*^j B1* B1 D1^j, then the second-block sum of
    D3*^j (B2* B2 + D2* D2) D3^j)."""

    y0: float
    y_offdiag: np.ndarray        # y_1 .. y_K, K = PROOF_LAGS
    c_table: np.ndarray          # c[j, K + k] for shifts 0 <= j <= PROOF_SHIFTS, -K <= k <= K
    partial_sum_defects: tuple

    @property
    def max_y_offdiag(self) -> float:
        return float(np.max(np.abs(self.y_offdiag), initial=0.0))

    @property
    def max_c(self) -> float:
        return float(np.max(np.abs(self.c_table), initial=0.0))


def proof_diagnostics(v: Colligation, tol: float = DEFAULT_TOL) -> ProofDiagnostics:
    """Diagonal and cross diagnostics of the column Gram matrices, computed
    from the colligation by geometric sums (never from a finite
    compression), for lags k <= PROOF_LAGS and shifts j <= PROOF_SHIFTS.
    The sums run to convergence.  They exist only when both diagonal D
    blocks have spectral radius below 1 - tol; otherwise NotStructuredError
    is raised.

    With G1 = sum_l D1*^l B1* B1 D1^l and
    G3 = sum_r D3*^r (B2* B2 + D2* G1 D2) D3^r:

        y_0 = |a|^2 + C1* G1 C1 + C2* G3 C2
        y_k = a C2* D3*^{k-1} B2* + C2* D3*^{k-1} D2* G1 C1 + C2* D3*^k G3 C2

    and, for each shift j, with mix = B2* B1 + D2* D1,
    row = conj(a) B1 + C1* D1, and A_j = sum_m D3*^m mix D1^{j+1} D2 D3^m:

        c_0   = row D1^{j+1} C1 + C2* A_j C2
        c_k   = C2* D3*^{k-1} mix D1^{j+1} C1 + C2* D3*^k A_j C2
        c_{-k} = row D1^{j+1} D2 D3^{k-1} C2 + C2* A_j D3^k C2
    """
    _require_structured(v, tol)
    a = v.a
    b1, b2, c1, c2 = v.B1, v.B2, v.C1, v.C2
    d1, d2, d3 = v.D1, v.D2, v.D4
    h1, h2 = v.partition
    for name, block in (("D1", d1), ("D3", d3)):
        radius = spectral_radius(block)
        if not below_one(radius, tol):
            raise NotStructuredError(
                f"{name} has spectral radius {radius:.3e} >= 1 - tol; "
                "the proof sums do not converge")

    kmax, jmax = PROOF_LAGS, PROOF_SHIFTS
    g1 = _stein_sums(d1, b1.conj().T @ b1)
    # [row; mix] D1^{j+1} [C1, D2] for every shift j, as (jmax+1) blocks
    rowmix = np.concatenate([np.conj(a) * b1 + c1.conj().T @ d1,
                             b2.conj().T @ b1 + d2.conj().T @ d1])
    shifted = _power_rows(rowmix, d1, jmax + 2)[0][1:] @ np.concatenate([c1, d2], axis=1)
    b2sq = b2.conj().T @ b2
    sums = _stein_sums(d3, np.concatenate(
        [[b2sq + d2.conj().T @ g1 @ d2, b2sq + d2.conj().T @ d2], shifted[:, 1:, 1:]]))
    g3, sum2, acc = sums[0], sums[1], sums[2:]
    sum_defects = (frob(g1 - np.eye(h1)), frob(sum2 - np.eye(h2)))

    y0 = abs(a) ** 2 + (c1.conj().T @ g1 @ c1).real[0, 0] + (c2.conj().T @ g3 @ c2).real[0, 0]

    # row k of pows is D3^k C2, so pows.conj() @ x gives C2* D3*^k x
    pows = _power_rows(c2.T, d3.T, kmax + 1)[0][:, 0]
    ys = pows[:kmax].conj() @ (a * b2.conj().T + d2.conj().T @ g1 @ c1
                               + d3.conj().T @ g3 @ c2)[:, 0]

    cs = np.empty((jmax + 1, 2 * kmax + 1), dtype=np.complex128)
    cs[:, kmax] = shifted[:, 0, 0] + (c2.conj().T @ acc @ c2)[:, 0, 0]
    cs[:, kmax + 1:] = shifted[:, 1:, 0] @ pows[:kmax].conj().T \
        + (acc @ c2)[:, :, 0] @ pows[1:].conj().T
    cs[:, :kmax] = (shifted[:, 0, 1:] @ pows[:kmax].T
                    + (c2.conj().T @ acc)[:, 0, :] @ pows[1:].T)[:, ::-1]
    return ProofDiagnostics(float(y0), ys, cs, sum_defects)


# ---------------------------------------------------------------------------
# inner certification


@dataclass(frozen=True)
class InnerCertificate:
    """Three-valued verdict with the evidence bundle behind it."""

    verdict: str                       # "certified" | "refuted" | "inconclusive"
    detail: str
    structure: StructureReport
    boundary_deviation: Optional[float]
    boundary_passed: Optional[bool]
    defect: Optional[float]
    diagnostics: Optional[ProofDiagnostics]


def boundary_scan(f, tol: float) -> Optional[ModulusReport]:
    """The boundary modulus test on the TORUS_SCAN x TORUS_SCAN torus grid
    at numlin.sampled(tol), or None when a colligation's resolvent is too
    ill conditioned on the torus to evaluate there.

    A colligation is evaluated by transfer_torus.  Where that refuses (a
    pole on the grid, or, behind a coupling block, growing powers of the
    reduced D that defeat the aliased sums) the per-point resolvent solves of its call decide, as for
    any other function kind."""
    grid = shared_grid("torus2", TORUS_SCAN)
    if isinstance(f, Colligation):
        try:
            return modulus_report(transfer_torus(f, TORUS_SCAN).ravel(), grid, sampled(tol))
        except ResolventIllConditionedError:
            pass
    try:
        return boundary_modulus_test(f, grid, sampled(tol))
    except ResolventIllConditionedError:
        return None


def certify_inner(v: Colligation, tol: float = DEFAULT_TOL) -> InnerCertificate:
    """Certify, refute, or decline to decide whether the transfer function
    is inner.

    Certification is sound: an isometric colligation with vanishing
    lower-left coupling block and both diagonal D-blocks of spectral radius
    below 1 - tol has an inner transfer function.  The converse fails, so a
    colligation that misses the structural hypotheses is never refuted on
    structure alone; refutation comes only from boundary sampling."""
    report = structure_report(v, tol)
    certified = report.is_isometry and report.lower_left_zero and all(report.c0dot)

    boundary = boundary_scan(v, tol)
    bdev = boundary.max_deviation if boundary else None
    bpass = boundary.passed if boundary else None

    # the truncation needs the zero coupling block, the proof sums also
    # both radii below 1 - tol: the report's own tests, so neither refuses
    defect = None
    diagnostics = None
    if report.lower_left_zero:
        defect = isometry_defect(
            phi_blocks_from_colligation(v, DEFECT_ORDER, tol), DEFECT_ORDER // 2)
        if all(report.c0dot):
            diagnostics = proof_diagnostics(v, tol=tol)

    if certified:
        verdict, detail = "certified", "structural hypotheses verified"
    elif bpass is False:
        verdict, detail = "refuted", "boundary modulus deviates from 1"
    elif bpass:
        verdict, detail = "inconclusive", "inconclusive-by-structure, inner-by-sampling"
    else:
        verdict, detail = "inconclusive", "inconclusive-by-structure, boundary sampling unavailable"
    return InnerCertificate(verdict, detail, report, bdev, bpass, defect, diagnostics)
