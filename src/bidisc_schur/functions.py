"""Bivariate polynomials, rational inner functions, truncated power series,
and sample grids on the disc, bidisc, torus, polydisc and ball.

Rational inner functions are stored in monomial-times-reflection form

    f(z) = u * z1^m1 * z2^m2 * p~(z) / p(z),

where p has no zeros on the closed bidisc, p~ is its coefficient reflection
and |u| = 1.  Zero-freeness of p is decided by Huang's criterion, reduced to
1-D root finding and the unimodular roots of a resultant (see
RationalFunction2._check_zero_free); no grid is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .errors import NearPoleError, NonFiniteError, NotDivisibleError, ZeroPolynomialError
from .numlin import DEFAULT_TOL, EXACT_GUARD, bound

# interior sample grids stay inside radius 0.95 so downstream resolvents
# (I - E(z) D)^{-1} remain well conditioned
INTERIOR_RADIUS = 0.95

# A denominator is refused when a zero it is shown to have lies within this
# distance of the closed bidisc, i.e. has modulus <= 1 + ZERO_FREE_MARGIN in
# the coordinate that is tested; see RationalFunction2._check_zero_free.
ZERO_FREE_MARGIN = 1e-8

# resultant roots this close to the unit circle are checked as possible
# torus zeros; the check decides, so the window only has to cover the
# rounding of clustered roots, and widening it costs time, not soundness
_TORUS_CANDIDATE_WINDOW = 1e-3


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

    nvars = 2

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

    def __call__(self, z1, z2):
        return polyval2d(z1, z2, self.coeffs)

    def scale(self, c: complex) -> "Poly2":
        return Poly2(self.coeffs * c)

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

    nvars = 2

    def __init__(self, monomial, denominator: Poly2, unimodular: complex = 1.0,
                 check_zero_free: bool = True):
        m1, m2 = (int(m) for m in monomial)
        if m1 < 0 or m2 < 0:
            raise ValueError("monomial exponents must be nonnegative")
        u = complex(unimodular)
        if abs(abs(u) - 1.0) > EXACT_GUARD:
            raise ValueError(f"constant must be unimodular, got |u| = {abs(u)}")
        self.monomial = (m1, m2)
        self.denominator = denominator
        self.unimodular = u
        self.numerator = reflect(denominator).scale(u)
        if check_zero_free:
            self._check_zero_free()

    def _check_zero_free(self) -> None:
        """Refuse p unless p(z1, z2) != 0 for |z1| <= 1, |z2| <= 1.

        Huang's criterion (Huang 1972; the resultant reduction follows
        Knese, Analysis & PDE 2010): p is zero-free on the closed bidisc iff
          (i)   every root of p(., 0) has modulus > 1,
          (ii)  every root of p(1, .) has modulus > 1, and
          (iii) p has no zero on the torus.
        (ii) and (iii) together give p(w, .) != 0 on the closed disc for every
        unimodular w, because the roots of p(w, .) can only enter the disc
        across the torus.  For (iii), a torus zero (z1, z2) is a common root
        z2 of p(z1, .) and reflect(p)(z1, .), so z1 is a root of the resultant
        Res_{z2}(p, reflect(p)) = det S(z1), where S(z1), their Sylvester
        matrix, is a matrix polynomial of degree d1 in z1.  Its roots are
        taken as the eigenvalues of a companion pencil of S, not from the
        resultant's coefficients, whose roots lose all accuracy by degree
        (8, 8).  At each root z1 near the circle the roots of p(z1/|z1|, .)
        are tested as in (ii).

        Soundness: a zero is refused when its tested modulus is
        <= 1 + ZERO_FREE_MARGIN, so the verdict is exact for every p whose
        computed roots are within ZERO_FREE_MARGIN of the true ones, as
        simple roots of p scaled to unit max coefficient are (rounding near
        eps times their condition).  A root of multiplicity m on the circle
        is computed as a cluster of radius about eps^(1/m) around it, and
        the member of least modulus still falls within the margin.  The
        pencil needs one well-conditioned S(w): p is also refused when
        s_min / s_max of S(w) is <= ZERO_FREE_MARGIN at all 2 d1 d2 + 1
        roots of unity w.  A p sharing a factor with its reflection has a
        zero on the closed bidisc and always lands there, but so can a valid
        p whose roots in z2 crowd the circle, e.g. (1 - z1/2)(1 - 0.999 z2)^3,
        whose triple zero lies 1e-3 outside it.
        """
        c = self.denominator.coeffs / np.max(np.abs(self.denominator.coeffs))
        d1, d2 = self.denominator.degree
        if c[0, 0] == 0:
            raise _refusal("(i), p(0, 0) = 0", 0.0, 0.0, "|z1|", 0.0)
        z1 = _smallest_root(c[:, 0])
        if z1 is not None and abs(z1) <= 1.0 + ZERO_FREE_MARGIN:
            raise _refusal("(i), a root of p(., 0)", z1, 0.0, "|z1|", abs(z1))
        _check_row(c, 1.0, "(ii), a root of p(1, .)")
        if d1 == 0 or d2 == 0:
            # (iii) then follows from (i) (d2 = 0) or from (ii) (d1 = 0)
            return
        # S(z1) = sum_k z1^k pencil[k], sampled where a nonzero det of
        # degree <= 2 d1 d2 cannot vanish everywhere
        pencil = _sylvester(c, np.conj(c[::-1, ::-1]))
        n = 2 * d1 * d2 + 1
        omega = np.exp(2j * np.pi * np.arange(n) / n)
        sv = np.linalg.svd(np.tensordot(omega[:, None] ** np.arange(d1 + 1), pencil, axes=1),
                           compute_uv=False)
        ratio = sv[:, -1] / sv[:, 0]
        best = int(np.argmax(ratio))
        if ratio[best] <= ZERO_FREE_MARGIN:
            found = [(abs(r), w, r) for w, r in zip(omega, map(_smallest_root, _rows_at(c, omega)))
                     if r is not None]
            _, w, z2 = min(found, key=lambda t: t[0], default=(0, 1.0, np.nan))
            raise _refusal(
                "(iii) undecided: the Sylvester matrices S(w) of p(w, .) and "
                f"reflect(p)(w, .) at {n} roots of unity w have s_min / s_max "
                f"<= {ratio[best]:.3e} <= ZERO_FREE_MARGIN (a factor shared with "
                "reflect(p), or roots in z2 crowding the circle); nearest root of "
                "p(w, .) there", w, z2, "|z2|", abs(z2))
        for z in _pencil_eigenvalues(pencil, omega[best]):
            if abs(abs(z) - 1.0) <= _TORUS_CANDIDATE_WINDOW:
                _check_row(c, z / abs(z), "(iii), a torus zero at a unimodular "
                           "root z1 of Res_z2(p, reflect(p))")

    def __call__(self, z1, z2):
        # poles are judged relative to max|coeffs of p|, since f ignores the scale of p
        den = self.denominator(z1, z2)
        if np.min(np.abs(den)) <= EXACT_GUARD * np.max(np.abs(self.denominator.coeffs)):
            raise NearPoleError("denominator vanishes at an evaluation point")
        m1, m2 = self.monomial
        z1 = np.asarray(z1, dtype=np.complex128)
        z2 = np.asarray(z2, dtype=np.complex128)
        out = (z1 ** m1) * (z2 ** m2) * self.numerator(z1, z2) / den
        return out[()] if out.ndim == 0 else out

    def __repr__(self) -> str:
        return (f"RationalFunction2(monomial={self.monomial}, "
                f"den_degree={self.denominator.degree})")


def _refusal(condition: str, z1, z2, which: str, modulus: float) -> ZeroPolynomialError:
    side = "<=" if modulus <= 1.0 + ZERO_FREE_MARGIN else ">"
    return ZeroPolynomialError(
        f"denominator refused by condition {condition}: zero at (z1, z2) = "
        f"({complex(z1):.10g}, {complex(z2):.10g}); {which} = {modulus:.10g} "
        f"{side} 1 + ZERO_FREE_MARGIN (ZERO_FREE_MARGIN = {ZERO_FREE_MARGIN:g})")


def _smallest_root(c: np.ndarray):
    """The root of sum_k c[k] z^k (lowest degree first) of least modulus, or
    None if it has none.  Leading coefficients at rounding level relative to
    the largest are dropped first: they only add spurious huge roots and
    inflate the companion matrix."""
    big = np.flatnonzero(np.abs(c) > 64 * np.finfo(float).eps * np.max(np.abs(c), initial=0.0))
    r = np.roots(c[: big[-1] + 1][::-1]) if big.size else np.zeros(0)
    return r[np.argmin(np.abs(r))] if r.size else None


def _rows_at(c: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Coefficients in z2 of p(z1, .) for each z1: one row per point."""
    return (np.asarray(z1)[:, None] ** np.arange(c.shape[0])) @ c


def _check_row(c: np.ndarray, w: complex, condition: str) -> None:
    """Refuse p when p(w, .) has a root of modulus <= 1 + ZERO_FREE_MARGIN."""
    z2 = _smallest_root(_rows_at(c, np.array([w]))[0])
    if z2 is not None and abs(z2) <= 1.0 + ZERO_FREE_MARGIN:
        raise _refusal(condition, w, z2, "|z2|", abs(z2))


def _sylvester(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Sylvester matrices of pairs of polynomials of formal degree
    d (rows of a and b, lowest degree first): shape (n, 2d, 2d)."""
    n, d = a.shape[0], a.shape[1] - 1
    out = np.zeros((n, 2 * d, 2 * d), dtype=np.complex128)
    shift = np.arange(d)[:, None]
    cols = shift + np.arange(d + 1)[None, :]
    out[:, shift, cols] = a[:, None, :]
    out[:, d + shift, cols] = b[:, None, :]
    return out


def _pencil_eigenvalues(s: np.ndarray, sigma: complex) -> np.ndarray:
    """Finite roots z of det(sum_k z^k s[k]), given sum_k sigma^k s[k]
    invertible: the eigenvalues of the companion pencil z B - A, taken as
    mu = 1/(z - sigma), the eigenvalues of (A - sigma B)^{-1} B.  Infinite
    roots (a singular s[-1]) give mu = 0 and are dropped."""
    d, m = s.shape[0] - 1, s.shape[1]
    a = np.eye(d * m, k=-m, dtype=np.complex128)
    a[:m] = -np.concatenate(s[d - 1::-1], axis=1)
    b = np.eye(d * m, dtype=np.complex128)
    b[:m, :m] = s[d]
    mu = np.linalg.eigvals(np.linalg.solve(a - sigma * b, b))
    return sigma + 1.0 / mu[mu != 0]


def mobius_of_product(t: float) -> RationalFunction2:
    """The inner function (z1 z2 - t)/(1 - t z1 z2) for t in (0, 1)."""
    if not 0 < t < 1:
        raise ValueError("parameter must lie strictly between 0 and 1")
    return RationalFunction2((0, 0), Poly2([[1.0, 0.0], [0.0, -t]]))


class PowerSeries2:
    """Truncated coefficient table of a power series on the bidisc.

    The tail beyond the truncation orders is unknown, never implicitly
    zero.
    """

    nvars = 2

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.complex128))
        if self.coeffs.ndim != 2:
            raise ValueError("coefficient table must be 2-d")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("series coefficients must be finite")

    @property
    def orders(self) -> tuple[int, int]:
        return (self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1)

    def __call__(self, z1, z2):
        """Value of the truncation (not of the underlying function)."""
        return polyval2d(z1, z2, self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries2(orders={self.orders})"


def _inverse_1d(a: np.ndarray, n: int) -> np.ndarray:
    """First n + 1 Taylor coefficients of 1/a(z), a[0] != 0, by Newton's
    iteration q <- q + q (1 - a q), which doubles the correct length per step."""
    a = np.concatenate([a[: n + 1], np.zeros(max(0, n + 1 - a.size), dtype=a.dtype)])
    q = np.array([1.0 / a[0]])
    while q.size <= n:
        m = min(2 * q.size, n + 1)
        # a q = 1 + z^s e(z) with s = q.size; the next coefficients are -(q e)
        e = np.convolve(a[:m], q)[q.size:m]
        q = np.concatenate([q, -np.convolve(q, e)[: m - q.size]])
    return q


def _divide(num: np.ndarray, p: np.ndarray, r1: int, r2: int) -> np.ndarray:
    """The first r1 x r2 Taylor coefficients of num/p (p[0, 0] != 0), row by
    row in z1: with N_i, P_i, F_i the coefficients of z1^i as series in z2,
    F_i = (N_i - sum_{k >= 1} P_k F_{i-k}) / P_0, and 1/P_0 is inverted once."""
    inv0 = _inverse_1d(p[0], r2 - 1)
    out = np.zeros((r1, r2), dtype=np.complex128)
    for i in range(r1):
        acc = np.zeros(r2, dtype=np.complex128)
        if i < num.shape[0]:
            row = num[i, :r2]
            acc[: row.size] = row
        for k in range(1, min(i, p.shape[0] - 1) + 1):
            acc -= np.convolve(p[k], out[i - k])[:r2]
        out[i] = np.convolve(inv0, acc)[:r2]
    return out


def series_of(f: RationalFunction2, n1: int, n2: int) -> PowerSeries2:
    """Taylor coefficients of f at the origin up to orders (n1, n2),
    computed by row-wise division of the reflected numerator by p."""
    p = f.denominator.coeffs
    if abs(p[0, 0]) <= EXACT_GUARD * np.max(np.abs(p)):
        raise NearPoleError("denominator vanishes at the origin")
    m1, m2 = f.monomial
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    if m1 <= n1 and m2 <= n2:
        out[m1:, m2:] = _divide(f.numerator.coeffs, p, n1 + 1 - m1, n2 + 1 - m2)
    return PowerSeries2(out)


def strip_monomial(f, *, tol: float = DEFAULT_TOL):
    """Factor out the largest pure power of the first variable.

    Returns (p, stripped) where stripped has a nonzero value at the origin.
    For a rational function p is its monomial exponent m1, read exactly,
    and the origin is zero when |stripped(0, 0)| <= tol; for a power
    series p is the first row of the table with an entry above
    bound(tol, max |coeffs|), the origin's threshold too.  Otherwise
    NotDivisibleError says why: a second-variable power divides too, or
    no monomial accounts for the zero (reflect(p) vanishes there).
    """
    return _strip(f, tol, 0)


def strip_monomial_var2(f, *, tol: float = DEFAULT_TOL):
    """Symmetric twin of strip_monomial acting on the second variable."""
    return _strip(f, tol, 1)


def _strip(f, tol: float, axis: int):
    """strip_monomial of f in the variable with index axis, read in place:
    the monomial exponent, or that axis of the series table.  q is the power
    of the other variable that divides the quotient."""
    own, other = ("first", "second")[axis], ("second", "first")[axis]
    if isinstance(f, RationalFunction2):
        p, q = f.monomial[axis], f.monomial[1 - axis]
        stripped = RationalFunction2((0, 0), f.denominator, f.unimodular, check_zero_free=False)
        vanishes = abs(complex(stripped(0.0, 0.0))) <= tol
        cause = "the numerator reflect(p) vanishes at the origin"
    elif isinstance(f, PowerSeries2):
        live = np.abs(f.coeffs) > bound(tol, float(np.abs(f.coeffs).max(initial=0.0)))
        powers = np.flatnonzero(np.any(live, axis=1 - axis))
        if powers.size == 0:
            raise NotDivisibleError("series vanishes identically to truncation")
        p = int(powers[0])
        rest = (slice(None),) * axis + (slice(p, None),)     # from the p-th power on
        q = int(np.flatnonzero(np.any(live[rest], axis=axis))[0])
        vanishes = not live[rest][0, 0] and q == 0
        stripped = PowerSeries2(f.coeffs[rest])
        cause = "the series vanishes at the origin"
    else:
        raise TypeError("strip_monomial needs a rational function or a power series")
    done = f"after removing {p} {own}-variable power(s)," if p else \
        f"no power of the {own} variable divides, and"
    if vanishes:
        raise NotDivisibleError(f"{done} {cause}, which no monomial factor accounts for")
    if q:
        advice = f"no power of the {own} variable alone leaves" if p else "strip it to get"
        raise NotDivisibleError(f"{done} a power of the {other} variable divides: "
                                f"{advice} a quotient nonzero at the origin")
    return p, (stripped if p else f)


# ---------------------------------------------------------------------------
# point grids


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
        if pts.size == 0:
            raise ValueError(f"{self.ambient} grid is empty")
        if pts.shape[1] != n:
            raise ValueError(f"{self.ambient} points need {n} coordinates, got {pts.shape[1]}")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteError("grid points must be finite")
        object.__setattr__(self, "points", pts)
        mags = np.abs(pts)
        if self.ambient == "torus2":
            if mags.size and np.max(np.abs(mags - 1.0)) > EXACT_GUARD:
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

    def same_points(self, other: "PointGrid") -> bool:
        return self.ambient == other.ambient and np.array_equal(self.points, other.points)


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


@cache
def shared_grid(ambient: str, size: int, seed: int = 0) -> PointGrid:
    """make_grid(ambient, size, seed), built once per argument triple for
    the grids the program samples on every call; its points are read-only."""
    grid = make_grid(ambient, size, seed)
    grid.points.flags.writeable = False
    return grid


@dataclass(frozen=True)
class ModulusReport:
    passed: bool
    max_deviation: float
    argmax_point: tuple


def boundary_modulus_test(f, grid: PointGrid, tol: float = DEFAULT_TOL) -> ModulusReport:
    """Max of | |f| - 1 | over a torus grid, with the offending point; it
    passes when at most tol."""
    return modulus_report(f(grid.points[:, 0], grid.points[:, 1]), grid, tol)


def modulus_report(values, grid: PointGrid, tol: float) -> ModulusReport:
    """Max of | |f| - 1 | over the values of f at the points of a torus grid."""
    if grid.ambient != "torus2":
        raise ValueError("boundary modulus test needs a torus2 grid")
    dev = np.abs(np.abs(np.asarray(values, dtype=np.complex128)) - 1.0)
    k = int(np.argmax(dev))
    return ModulusReport(bool(dev[k] <= tol), float(dev[k]), tuple(grid.points[k]))
