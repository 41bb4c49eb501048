"""Dense complex-matrix utilities consumed by every other module, and the
package's one tolerance policy.

Matrices are plain numpy complex128 arrays.  The rule: the residual of an
identity that holds in exact arithmetic passes when it is at most
bound(tol, s) = tol (1 + s), s the Frobenius norm of the sides compared
(||A||_F for a test on A, ||I||_F = sqrt(n) for V* V = I, 0 for a scalar
against 0).  The default tol is 1e-9; the CLI accepts finite 0 < tol < 1.
A spectral radius counts as < 1 when it is < 1 - tol.  Every other
threshold is one of the named guards below, each with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DeltaNotInvertibleError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    NotPsdError,
    PNotInvertibleError,
)

DEFAULT_TOL = 1e-9

# condition-number guard for explicit inversions: reject beyond 1/(100*tol)
_COND_GUARD = 100.0
# a value exact in its input or closed form (a unimodular constant, a torus
# coordinate, a zero axis value, a denominator value relative to its largest
# coefficient) is off only by the rounding of that input
EXACT_GUARD = 1e-12
# a residual re-checked after a solve or fit whose conditioning is not
# controlled (resolvents near a pole, sampled spans) only catches failures
RESIDUAL_GUARD = 1e-6
# a residual summing the rounding of a few interior resolvent solves is
# never held below this, whatever tol is
ROUNDING_FLOOR = 1e-10
# a verdict read off sampled values (the torus scan, a rebuilt kernel)
# carries each sample's solve rounding, worst where the resolvent is worst
# conditioned; 10 tol keeps rounding alone from refuting an inner function
SAMPLED_SLACK = 10.0


def sound_tol(tol: float) -> bool:
    return bool(np.isfinite(tol) and 0.0 < tol < 1.0)


def bound(tol: float, scale):
    """The rule: tol (1 + scale), scale the norm of the sides compared."""
    return tol * (1.0 + scale)


def floored(tol: float, scale) -> float:
    return max(tol, bound(ROUNDING_FLOOR, scale))


def sampled(tol: float) -> float:
    return SAMPLED_SLACK * tol


def below_one(radius: float, tol: float) -> bool:
    """Spectral radius test: the powers of the matrix tend to zero."""
    return radius < 1.0 - tol


def inverse_bound(tol: float, m: np.ndarray, scale: float) -> float:
    """Threshold for X - c M^{-1}, ||c M^{-1}||_F near scale: the rule plus
    the inversion's own rounding eps cond(M) scale."""
    return bound(tol, scale) + np.finfo(float).eps * np.linalg.cond(m) * scale


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array (scalars become 1x1)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix entries must be finite")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def _require_square(a: np.ndarray, op: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise NonSquareError(f"{op} requires a square matrix, got {a.shape}")


@dataclass(frozen=True)
class PsdReport:
    is_psd: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.is_psd


@dataclass(frozen=True)
class PsdFactorization:
    """Low-rank factorization A ~ factor @ factor*  of a PSD matrix."""

    rank: int
    factor: np.ndarray


@dataclass(frozen=True)
class OperatorClass:
    is_isometry: bool
    is_coisometry: bool
    is_unitary: bool
    is_contraction: bool


def _hermitian_part(a, tol: float, op: str):
    """(A + A*)/2 and the cut bound(tol, ||A||_F) of a square matrix A.

    Raises NonHermitianError when ||A - A*||_F exceeds the cut."""
    a = as_matrix(a)
    _require_square(a, op)
    cut = bound(tol, frob(a))
    skew = frob(a - a.conj().T)
    if skew > cut:
        raise NonHermitianError(f"matrix is not Hermitian within tolerance ({skew:.3e})")
    return (a + a.conj().T) / 2.0, cut


def is_psd(a, tol: float = DEFAULT_TOL) -> PsdReport:
    """Hermitian PSD test: the least eigenvalue of the Hermitian part against
    -tol*(1 + ||A||_F).

    Raises NonHermitianError when ||A - A*||_F exceeds tol*(1 + ||A||_F);
    the eigenvalue report is kept so callers can surface lambda_min in
    diagnostics.
    """
    herm, cut = _hermitian_part(a, tol, "is_psd")
    if herm.size == 0:
        return PsdReport(True, 0.0)
    lam_min = float(np.linalg.eigvalsh(herm)[0])
    return PsdReport(lam_min >= -cut, lam_min)


def psd_factor(a, tol: float = DEFAULT_TOL) -> PsdFactorization:
    """Eigen-truncated factorization A ~ F F* with F of shape (n, rank).

    One eigendecomposition of the Hermitian part gives both the PSD test of
    is_psd (NotPsdError below -tol*(1 + ||A||_F)) and the factor.
    Eigen-truncation (rather than Cholesky) handles the rank-deficient Gram
    matrices of sampled kernels gracefully: rank is the number of
    eigenvalues above tol*(1 + ||A||_F).
    """
    herm, cut = _hermitian_part(a, tol, "psd_factor")
    vals, vecs = np.linalg.eigh(herm)
    if vals.size and vals[0] < -cut:
        raise NotPsdError(f"matrix is not PSD (lambda_min = {vals[0]:.3e})", float(vals[0]))
    keep = vals > cut
    return PsdFactorization(int(keep.sum()), vecs[:, keep] * np.sqrt(vals[keep]))


def classify(v, tol: float = DEFAULT_TOL) -> OperatorClass:
    """Isometry / co-isometry / unitary / contraction classification: V* V
    against I_cols at bound(tol, sqrt(cols)), V V* against I_rows at
    bound(tol, sqrt(rows)), and the largest singular value against 1."""
    v = as_matrix(v)
    rows, cols = v.shape
    iso = bool(frob(v.conj().T @ v - np.eye(cols)) <= bound(tol, np.sqrt(cols)))
    coiso = bool(frob(v @ v.conj().T - np.eye(rows)) <= bound(tol, np.sqrt(rows)))
    smax = float(np.linalg.svd(v, compute_uv=False)[0]) if v.size else 0.0
    return OperatorClass(iso, coiso, iso and coiso, smax <= 1.0 + bound(tol, 1.0))


def spectral_radius(d) -> float:
    d = as_matrix(d)
    _require_square(d, "spectral_radius")
    if d.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(d))))


def _guarded_inverse(m: np.ndarray, tol: float, err, what: str) -> np.ndarray:
    if m.size == 0:
        return m.copy()
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > 1.0 / (_COND_GUARD * tol):
        raise err(f"{what} is numerically singular (cond = {cond:.3e})")
    return np.linalg.inv(m)


def block_inverse_2x2(p, q, r, s, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of [[P, Q], [R, S]] by the Schur-complement formula.

    Requires P invertible; raises DeltaNotInvertibleError when the
    complement S - R P^{-1} Q is singular, which certifies that the block
    matrix itself is singular.
    """
    p, q, r, s = as_matrix(p), as_matrix(q), as_matrix(r), as_matrix(s)
    _require_square(p, "block_inverse_2x2 (P block)")
    _require_square(s, "block_inverse_2x2 (S block)")
    m, n = p.shape[0], s.shape[0]
    if q.shape != (m, n) or r.shape != (n, m):
        raise ValueError(
            f"blocks not conformable: P {p.shape}, Q {q.shape}, R {r.shape}, S {s.shape}"
        )
    p_inv = _guarded_inverse(p, tol, PNotInvertibleError, "P block")
    delta = s - r @ p_inv @ q
    delta_inv = _guarded_inverse(delta, tol, DeltaNotInvertibleError, "S - R P^{-1} Q")
    out = np.empty((m + n, m + n), dtype=np.complex128)
    out[:m, :m] = p_inv + p_inv @ q @ delta_inv @ r @ p_inv
    out[:m, m:] = -p_inv @ q @ delta_inv
    out[m:, :m] = -delta_inv @ r @ p_inv
    out[m:, m:] = delta_inv
    return out
