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

from .colligation import (
    Colligation,
    _require_structured,
    as_transfer_callable,
    series_2d,
    structure_report,
    StructureReport,
)
from .errors import (
    InsufficientTruncationError,
    NotStructuredError,
    ResolventIllConditionedError,
    WindowTooLargeError,
)
from .functions import PowerSeries2, boundary_modulus_test, make_grid
from .numlin import DEFAULT_TOL, frob


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
    return toeplitz_truncate(series_2d(v, order - 1, order - 1, tol), order)


def isometry_defect(t: ToeplitzTruncation, window: int) -> float:
    """Windowed defect from being an isometry.

    max over i <= j < window of the Frobenius distance between the leading
    window x window corner of Y_i* Y_j and delta_ij I, where Y_j is block
    column j of the compression.  Zero for aligned truncations of inner
    symbols; tends to zero with the order for inner symbols generally.

    Column (k, q) of the compression is the coefficient table shifted down
    by k rows and right by q columns (cut to M x M), so the w^2 columns with
    k, q < w form an M^2 x w^2 matrix S, and every corner is a block of the
    one Gram product S* S."""
    m = t.order
    if window < 1 or 2 * window > m:
        raise WindowTooLargeError(f"window must satisfy 1 <= window <= order/2 = {m / 2}")
    w = window
    padded = np.zeros((m + w, m + w), dtype=np.complex128)
    padded[w:, w:] = t.table
    # shifts[k, q] = padded[w - k : w - k + m, w - q : w - q + m]
    shifts = np.lib.stride_tricks.sliding_window_view(padded, (m, m))[w:0:-1, w:0:-1]
    cols = shifts.reshape(w * w, m * m)
    gram = (cols.conj() @ cols.T - np.eye(w * w)).reshape(w, w, w, w)
    return max(frob(gram[i, :, j, :]) for i in range(w) for j in range(i, w))


# ---------------------------------------------------------------------------
# proof-quantity diagnostics


def _geometric_sum(d: np.ndarray, x: np.ndarray, terms: int, term_tol: float) -> np.ndarray:
    """sum_{k=0}^{terms} D*^k X D^k, stopping early once terms are negligible."""
    acc = x.copy()
    t = x.copy()
    for _ in range(terms):
        t = d.conj().T @ t @ d
        acc += t
        if frob(t) < term_tol:
            break
    return acc


@dataclass(frozen=True)
class ProofDiagnostics:
    """Truncated-sum versions of the scalar sequences that make the symbol's
    multiplication operator an isometry: y_0 should be 1 and every other
    y_k and every c coefficient should vanish.

    For isometric colligations the two geometric sums themselves converge
    to the identity; their truncated distances from I are reported as
    partial_sum_defects (first-block sum of D1*^j B1* B1 D1^j, then the
    second-block sum of D3*^j (B2* B2 + D2* D2) D3^j)."""

    y0: float
    y_offdiag: np.ndarray        # y_1 .. y_kmax
    c_table: np.ndarray          # c[j, kmax + k] for j >= 0 shifts, -kmax <= k <= kmax
    partial_sum_defects: tuple

    @property
    def max_y_offdiag(self) -> float:
        return float(np.max(np.abs(self.y_offdiag), initial=0.0))

    @property
    def max_c(self) -> float:
        return float(np.max(np.abs(self.c_table), initial=0.0))


def _scalar(m) -> complex:
    return complex(np.asarray(m).reshape(()))


def proof_diagnostics(v: Colligation, kmax: int = 8, jmax: int = 2,
                      terms: int = 64, term_tol: float = 1e-14,
                      tol: float = DEFAULT_TOL) -> ProofDiagnostics:
    """Diagonal and cross diagnostics of the truncated column Gram matrices,
    computed from the colligation by truncated geometric sums (never from
    a finite compression, so truncation error enters only through the
    geometric tails).

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

    g1 = _geometric_sum(d1, b1.conj().T @ b1, terms, term_tol)
    g3 = _geometric_sum(
        d3, b2.conj().T @ b2 + d2.conj().T @ g1 @ d2, terms, term_tol)
    sum2 = _geometric_sum(d3, b2.conj().T @ b2 + d2.conj().T @ d2, terms, term_tol)
    sum_defects = (frob(g1 - np.eye(h1)), frob(sum2 - np.eye(h2)))

    y0 = abs(a) ** 2
    if h1:
        y0 += _scalar(c1.conj().T @ g1 @ c1).real
    if h2:
        y0 += _scalar(c2.conj().T @ g3 @ c2).real

    ys = np.zeros(kmax, dtype=np.complex128)
    if h2:
        pow_prev = np.eye(h2, dtype=np.complex128)  # D3^{k-1}
        for k in range(1, kmax + 1):
            left = c2.conj().T @ pow_prev.conj().T   # C2* D3*^{k-1}
            val = a * _scalar(left @ b2.conj().T)
            if h1:
                val += _scalar(left @ d2.conj().T @ g1 @ c1)
            val += _scalar(left @ d3.conj().T @ g3 @ c2)
            ys[k - 1] = val
            pow_prev = pow_prev @ d3

    cs = np.zeros((jmax + 1, 2 * kmax + 1), dtype=np.complex128)
    if h1:
        mix = b2.conj().T @ b1 + d2.conj().T @ d1    # h2 x h1
        row = np.conj(a) * b1 + c1.conj().T @ d1     # 1 x h1
        for j in range(jmax + 1):
            d1j = np.linalg.matrix_power(d1, j + 1)
            acc = _geometric_sum(d3, mix @ d1j @ d2, terms, term_tol) if h2 \
                else np.zeros((0, 0), dtype=np.complex128)
            cs[j, kmax] = _scalar(row @ d1j @ c1)
            if h2:
                cs[j, kmax] += _scalar(c2.conj().T @ acc @ c2)
                pow_prev = np.eye(h2, dtype=np.complex128)  # D3^{k-1}
                for k in range(1, kmax + 1):
                    pow_k = pow_prev @ d3
                    pos = _scalar(c2.conj().T @ pow_prev.conj().T @ mix @ d1j @ c1)
                    pos += _scalar(c2.conj().T @ pow_k.conj().T @ acc @ c2)
                    cs[j, kmax + k] = pos
                    neg = _scalar(row @ d1j @ d2 @ pow_prev @ c2)
                    neg += _scalar(c2.conj().T @ acc @ pow_k @ c2)
                    cs[j, kmax - k] = neg
                    pow_prev = pow_k
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


def certify_inner(v: Colligation, tol: float = DEFAULT_TOL,
                  torus_resolution: int = 64, defect_order: int = 16) -> InnerCertificate:
    """Certify, refute, or decline to decide whether the transfer function
    is inner.

    Certification is sound: an isometric colligation with vanishing
    lower-left coupling block and both diagonal D-blocks of spectral radius
    below 1 - tol has an inner transfer function.  The converse fails, so a
    colligation that misses the structural hypotheses is never refuted on
    structure alone; refutation comes only from boundary sampling."""
    if v.nvars != 2:
        raise ValueError("certify_inner needs a two-variable colligation")
    report = structure_report(v, tol)
    certified = (report.is_isometry and report.lower_left_zero
                 and report.c0dot_block1 and report.c0dot_block2)

    grid = make_grid("torus2", torus_resolution)
    try:
        boundary = boundary_modulus_test(as_transfer_callable(v), grid, 10.0 * tol)
        bdev: Optional[float] = boundary.max_deviation
        bpass: Optional[bool] = boundary.passed
    except ResolventIllConditionedError:
        bdev, bpass = None, None

    defect = None
    diagnostics = None
    if report.lower_left_zero:
        try:
            defect = isometry_defect(
                phi_blocks_from_colligation(v, defect_order, tol), defect_order // 2)
            diagnostics = proof_diagnostics(v, tol=tol)
        except NotStructuredError:  # borderline coupling block
            pass

    if certified:
        return InnerCertificate("certified", "structural hypotheses verified",
                                report, bdev, bpass, defect, diagnostics)
    if bpass is False:
        return InnerCertificate("refuted", "boundary modulus deviates from 1",
                                report, bdev, bpass, defect, diagnostics)
    if bpass is True:
        detail = "inconclusive-by-structure, inner-by-sampling"
    else:
        detail = "inconclusive-by-structure, boundary sampling unavailable"
    return InnerCertificate("inconclusive", detail, report, bdev, bpass,
                            defect, diagnostics)
