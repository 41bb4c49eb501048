"""Bivariate polynomials, rational inner functions, truncated power series,
and sample grids on the disc, bidisc, torus, polydisc and ball.

Rational inner functions are stored in monomial-times-reflection form

    f(z) = u * z1^m1 * z2^m2 * p~(z) / p(z),

where p has no zeros on the closed bidisc, p~ is its coefficient reflection
and |u| = 1.  Zero-freeness of p is checked numerically on a dense grid of
the closed bidisc; exact root isolation is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .errors import NearPoleError, ZeroPolynomialError

# interior sample grids stay inside radius 0.95 so downstream resolvents
# (I - E(z) D)^{-1} remain well conditioned
INTERIOR_RADIUS = 0.95

_ZERO_FREE_ANGLES = 50
_ZERO_FREE_RADII = 10


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficient table of the product of two bivariate polynomials (the
    full 2-d convolution): a sum of shifted copies of the larger table, one
    per nonzero entry of the smaller."""
    if a.size > b.size:
        a, b = b, a
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1),
                   dtype=np.result_type(a, b))
    for (i, j), aij in np.ndenumerate(a):
        if aij != 0:
            out[i:i + b.shape[0], j:j + b.shape[1]] += aij * b
    return out


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Drop trailing all-zero rows/columns (canonical degree)."""
    c = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
    if c.ndim != 2:
        raise ValueError("coefficient table must be 2-d")
    nz = np.argwhere(c != 0)
    if nz.size == 0:
        return np.zeros((1, 1), dtype=np.complex128)
    d1, d2 = nz.max(axis=0)
    return np.ascontiguousarray(c[: d1 + 1, : d2 + 1])


class Poly2:
    """Bivariate polynomial sum_{i,j} c[i,j] z1^i z2^j with trimmed table."""

    def __init__(self, coeffs):
        self.coeffs = _trim(coeffs)
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("polynomial coefficients must be finite")

    @property
    def degree(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0))

    def eval(self, z1, z2):
        return polyval2d(z1, z2, self.coeffs)

    def __call__(self, z1, z2):
        return self.eval(z1, z2)

    def mul(self, other: "Poly2") -> "Poly2":
        return Poly2(_convolve(self.coeffs, other.coeffs))

    def scale(self, c: complex) -> "Poly2":
        return Poly2(self.coeffs * c)

    def swap_variables(self) -> "Poly2":
        return Poly2(self.coeffs.T)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs.shape == other.coeffs.shape \
            and bool(np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"Poly2(degree={self.degree})"


def reflect(p: Poly2) -> Poly2:
    """Coefficient reversal plus conjugation: out[i,j] = conj(p[d1-i, d2-j]).

    This is z1^d1 z2^d2 * conj(p(1/conj(z1), 1/conj(z2))), the numerator of
    the Rudin form of a rational inner function.
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot reflect the zero polynomial")
    return Poly2(np.conj(p.coeffs[::-1, ::-1]))


class RationalFunction2:
    """Rational inner function u * z1^m1 z2^m2 * reflect(p)/p on the bidisc."""

    def __init__(self, monomial, denominator: Poly2, unimodular: complex = 1.0,
                 check_zero_free: bool = True):
        m1, m2 = int(monomial[0]), int(monomial[1])
        if m1 < 0 or m2 < 0:
            raise ValueError("monomial exponents must be nonnegative")
        u = complex(unimodular)
        if abs(abs(u) - 1.0) > 1e-12:
            raise ValueError(f"constant must be unimodular, got |u| = {abs(u)}")
        self.monomial = (m1, m2)
        self.denominator = denominator
        self.unimodular = u
        self.numerator = reflect(denominator).scale(u)
        if check_zero_free:
            self._check_zero_free()

    def _check_zero_free(self, tol: float = 1e-8) -> None:
        # closed-bidisc surrogate: polar grid with radii up to 1 inclusive
        angles = np.exp(2j * np.pi * np.arange(_ZERO_FREE_ANGLES) / _ZERO_FREE_ANGLES)
        radii = np.linspace(0.0, 1.0, _ZERO_FREE_RADII)
        vals = (radii[:, None] * angles[None, :]).ravel()
        z1, z2 = np.meshgrid(vals, vals, indexing="ij")
        mags = np.abs(self.denominator.eval(z1, z2))
        cut = tol * (1.0 + float(mags.max(initial=0.0)))
        if mags.min() <= cut:
            k = np.unravel_index(int(np.argmin(mags)), mags.shape)
            raise ZeroPolynomialError(
                "denominator vanishes on the closed bidisc near "
                f"({z1[k]:.6g}, {z2[k]:.6g}); |p| = {mags[k]:.3e}"
            )

    def eval(self, z1, z2, pole_tol: float = 1e-12):
        den = self.denominator.eval(z1, z2)
        if np.min(np.abs(den)) <= pole_tol:
            raise NearPoleError("denominator vanishes at an evaluation point")
        m1, m2 = self.monomial
        z1 = np.asarray(z1, dtype=np.complex128)
        z2 = np.asarray(z2, dtype=np.complex128)
        out = (z1 ** m1) * (z2 ** m2) * self.numerator.eval(z1, z2) / den
        return out[()] if out.ndim == 0 else out

    def __call__(self, z1, z2):
        return self.eval(z1, z2)

    def swap_variables(self) -> "RationalFunction2":
        m1, m2 = self.monomial
        return RationalFunction2((m2, m1), self.denominator.swap_variables(),
                                 self.unimodular, check_zero_free=False)

    def __repr__(self) -> str:
        return (f"RationalFunction2(monomial={self.monomial}, "
                f"den_degree={self.denominator.degree})")


def mobius_of_product(t: float) -> RationalFunction2:
    """The inner function (z1 z2 - t)/(1 - t z1 z2) for t in (0, 1)."""
    if not 0 < t < 1:
        raise ValueError("parameter must lie strictly between 0 and 1")
    return RationalFunction2((0, 0), Poly2([[1.0, 0.0], [0.0, -t]]))


class PowerSeries2:
    """Truncated coefficient table of a power series on the bidisc.

    The tail beyond the truncation orders is unknown, never implicitly
    zero; comparisons between series only use the common truncation.
    """

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        if self.coeffs.ndim != 2:
            raise ValueError("coefficient table must be 2-d")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("series coefficients must be finite")

    @property
    def orders(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def eval(self, z1, z2):
        """Value of the truncation (not of the underlying function)."""
        return polyval2d(z1, z2, self.coeffs)

    def __call__(self, z1, z2):
        return self.eval(z1, z2)

    def common_truncation(self, other: "PowerSeries2") -> tuple[np.ndarray, np.ndarray]:
        n1 = min(self.coeffs.shape[0], other.coeffs.shape[0])
        n2 = min(self.coeffs.shape[1], other.coeffs.shape[1])
        return self.coeffs[:n1, :n2], other.coeffs[:n1, :n2]

    def mul(self, other: "PowerSeries2") -> "PowerSeries2":
        a, b = self.common_truncation(other)
        full = _convolve(a, b)
        return PowerSeries2(full[: a.shape[0], : a.shape[1]])

    def swap_variables(self) -> "PowerSeries2":
        return PowerSeries2(self.coeffs.T)

    def __repr__(self) -> str:
        return f"PowerSeries2(orders={self.orders})"


def _series_inverse(p: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Power-series inverse of p (p[0,0] != 0), truncated at (n1, n2)."""
    inv = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    p0 = p[0, 0]
    inv[0, 0] = 1.0 / p0
    d1, d2 = p.shape
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            if i == 0 and j == 0:
                continue
            acc = 0.0 + 0.0j
            for k in range(max(0, i - d1 + 1), i + 1):
                for l in range(max(0, j - d2 + 1), j + 1):
                    if k == i and l == j:
                        continue
                    acc += inv[k, l] * p[i - k, j - l]
            inv[i, j] = -acc / p0
    return inv


def series_of(f: RationalFunction2, n1: int, n2: int) -> PowerSeries2:
    """Taylor coefficients of f at the origin up to orders (n1, n2),
    computed by recursive division of the reflected numerator by p."""
    p = f.denominator.coeffs
    if abs(p[0, 0]) <= 1e-14:
        raise NearPoleError("denominator vanishes at the origin")
    m1, m2 = f.monomial
    inv = _series_inverse(p, n1, n2)
    q = _convolve(f.numerator.coeffs, inv)[: n1 + 1, : n2 + 1]
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    out[m1:, m2:] = q[: n1 + 1 - m1, : n2 + 1 - m2]
    return PowerSeries2(out)


def taylor_from_samples(f, n1: int, n2: int, radius: float = 0.5,
                        fft_size: int = 64) -> PowerSeries2:
    """Numerical Taylor coefficients via FFT on a torus of the given radius.

    For Schur-class f the coefficients are bounded by 1, so aliasing decays
    like radius**fft_size; the defaults keep it at machine level.
    """
    m = max(fft_size, 2 * (max(n1, n2) + 1))
    w = radius * np.exp(2j * np.pi * np.arange(m) / m)
    z1, z2 = np.meshgrid(w, w, indexing="ij")
    samples = np.asarray(f(z1, z2), dtype=np.complex128)
    coeffs = np.fft.fft2(samples) / (m * m)
    i = np.arange(n1 + 1)[:, None]
    j = np.arange(n2 + 1)[None, :]
    return PowerSeries2(coeffs[: n1 + 1, : n2 + 1] / radius ** (i + j))


# ---------------------------------------------------------------------------
# point grids


_AMBIENTS = ("disc", "bidisc", "torus2", "polydisc", "ball")


def _ambient_nvars(ambient: str) -> int:
    if ambient == "disc":
        return 1
    if ambient in ("bidisc", "torus2"):
        return 2
    for prefix in ("polydisc-", "ball-"):
        if ambient.startswith(prefix):
            n = int(ambient[len(prefix):])
            if n < 1:
                raise ValueError(f"bad ambient dimension in {ambient!r}")
            return n
    raise ValueError(f"unknown ambient {ambient!r}")


@dataclass(frozen=True, eq=False)
class PointGrid:
    """Finite sample set in one of the supported domains.

    points has shape (npoints, nvars); membership is validated on
    construction (strict interior, or exactly unimodular coordinates for
    the torus).  Compare with same_points, not ==.
    """

    ambient: str
    points: np.ndarray

    def __post_init__(self):
        n = _ambient_nvars(self.ambient)
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.complex128))
        if pts.shape[1] != n:
            raise ValueError(f"{self.ambient} points need {n} coordinates, got {pts.shape[1]}")
        object.__setattr__(self, "points", pts)
        mags = np.abs(pts)
        if self.ambient == "torus2":
            if mags.size and np.max(np.abs(mags - 1.0)) > 1e-12:
                raise ValueError("torus points must have unimodular coordinates")
        elif self.ambient.startswith("ball"):
            norms = np.sqrt(np.sum(mags ** 2, axis=1))
            if norms.size and norms.max() >= 1.0:
                raise ValueError("ball points must satisfy ||z|| < 1")
        else:
            if mags.size and mags.max() >= 1.0:
                raise ValueError("interior points must satisfy |z_k| < 1")

    @property
    def nvars(self) -> int:
        return _ambient_nvars(self.ambient)

    def __len__(self) -> int:
        return self.points.shape[0]

    def coordinate(self, k: int) -> np.ndarray:
        return self.points[:, k]

    def same_points(self, other: "PointGrid", tol: float = 0.0) -> bool:
        return (self.ambient == other.ambient
                and self.points.shape == other.points.shape
                and float(np.max(np.abs(self.points - other.points), initial=0.0)) <= tol)


def make_grid(ambient: str, size: int, seed: int = 0) -> PointGrid:
    """Deterministic sample grids.

    torus2: size x size points at uniform angle pairs.  Interior domains:
    `size` pseudo-random points from a seeded generator, capped at radius
    0.95 (coordinate-wise for discs/polydiscs, in norm for balls).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    n = _ambient_nvars(ambient)
    if ambient == "torus2":
        ang = np.exp(2j * np.pi * np.arange(size) / size)
        z1, z2 = np.meshgrid(ang, ang, indexing="ij")
        return PointGrid(ambient, np.column_stack([z1.ravel(), z2.ravel()]))
    rng = np.random.default_rng(seed)
    if ambient.startswith("ball"):
        direction = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radii = INTERIOR_RADIUS * rng.uniform(size=size) ** (1.0 / (2 * n))
        return PointGrid(ambient, direction * radii[:, None])
    radii = INTERIOR_RADIUS * np.sqrt(rng.uniform(size=(size, n)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(size, n))
    return PointGrid(ambient, radii * np.exp(1j * angles))


@dataclass(frozen=True)
class ModulusReport:
    passed: bool
    max_deviation: float
    argmax_point: tuple


def as_evaluable(f):
    """Normalize the many function spellings to a callable f(z1, z2)."""
    if callable(f):
        return f
    if hasattr(f, "eval"):
        return f.eval
    raise TypeError(f"not evaluable: {type(f).__name__}")


def boundary_modulus_test(f, grid: PointGrid, tol: float = 1e-9) -> ModulusReport:
    """Max of | |f| - 1 | over a torus grid, with the offending point."""
    if grid.ambient != "torus2":
        raise ValueError("boundary modulus test needs a torus2 grid")
    if len(grid) == 0:
        raise ValueError("grid is empty")
    fn = as_evaluable(f)
    vals = np.asarray(fn(grid.points[:, 0], grid.points[:, 1]), dtype=np.complex128)
    dev = np.abs(np.abs(vals) - 1.0)
    k = int(np.argmax(dev))
    point = tuple(grid.points[k])
    return ModulusReport(bool(dev[k] <= tol), float(dev[k]), point)
