"""Colligation operators V = [[a, B], [C, D]] on C + H with a partitioned
state space, their transfer functions on the disc and polydisc, structural
predicates, and model-space realizations of finite Blaschke products.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import numlin
from .errors import (
    ConditionFailedError,
    NotStructuredError,
    ResolventIllConditionedError,
    ZeroOnBoundaryError,
)
from .numlin import DEFAULT_TOL, RESIDUAL_GUARD, as_matrix, bound, frob


class Colligation:
    """Block operator matrix [[a, B], [C, D]] with a state partition.

    a is a scalar, B is 1 x h, C is h x 1, D is h x h, and partition lists
    the state-block dimensions, one per variable z1, ..., zd (any d >= 1).
    For two variables the D sub-blocks follow the usual labels: D1
    (upper-left), D2 (upper-right), D4 (lower-right) and lower_left for the
    coupling block.  Formulas for the triangular form, where the lower-left
    block vanishes, write D3 for the lower-right block D4.
    """

    def __init__(self, a, B, C, D, partition):
        self.a = complex(np.asarray(a).reshape(()))
        self.B = as_matrix(B)
        self.C = as_matrix(C)
        self.D = as_matrix(D)
        self.partition = tuple(int(h) for h in partition)
        if not self.partition:
            raise ValueError("partition must have at least one block")
        if any(h < 0 for h in self.partition):
            raise ValueError("partition entries must be nonnegative")
        h = sum(self.partition)
        if not h:
            # the empty ports of a stateless colligation, however they are nested
            self.B, self.C, self.D = (m if m.size else m.reshape(shape) for m, shape in (
                (self.B, (1, 0)), (self.C, (0, 1)), (self.D, (0, 0))))
        if self.B.shape != (1, h) or self.C.shape != (h, 1) or self.D.shape != (h, h):
            raise ValueError(
                f"inconsistent dimensions: partition sums to {h}, "
                f"B {self.B.shape}, C {self.C.shape}, D {self.D.shape}"
            )

    @property
    def h(self) -> int:
        return sum(self.partition)

    @property
    def nvars(self) -> int:
        return len(self.partition)

    @property
    def V(self) -> np.ndarray:
        h = self.h
        v = np.empty((1 + h, 1 + h), dtype=np.complex128)
        v[0, 0] = self.a
        v[0, 1:] = self.B[0]
        v[1:, 0] = self.C[:, 0]
        v[1:, 1:] = self.D
        return v

    # block views (two-variable colligations)

    def _h1(self) -> int:
        if self.nvars != 2:
            raise ValueError("block views need a two-variable colligation")
        return self.partition[0]

    B1 = property(lambda self: self.B[:, : self._h1()])
    B2 = property(lambda self: self.B[:, self._h1():])
    C1 = property(lambda self: self.C[: self._h1(), :])
    C2 = property(lambda self: self.C[self._h1():, :])
    D1 = property(lambda self: self.D[: self._h1(), : self._h1()])
    D2 = property(lambda self: self.D[: self._h1(), self._h1():])
    lower_left = property(lambda self: self.D[self._h1():, : self._h1()])
    D4 = property(lambda self: self.D[self._h1():, self._h1():])

    def __call__(self, *z):
        """The transfer function at broadcast coordinates, v(z1, ..., zd)
        (v(z) for one variable), through one transfer_grid call."""
        if len(z) != self.nvars:
            raise ValueError(f"a {self.nvars}-variable colligation takes {self.nvars} "
                             f"coordinate(s), got {len(z)}")
        z = np.broadcast_arrays(*(np.asarray(c, dtype=np.complex128) for c in z))
        out = transfer_grid(self, np.stack([c.ravel() for c in z], axis=1)).reshape(z[0].shape)
        return out[()] if out.ndim == 0 else out

    def classify(self, tol: float = DEFAULT_TOL) -> numlin.OperatorClass:
        return numlin.classify(self.V, tol)

    def __repr__(self) -> str:
        return f"Colligation(partition={list(self.partition)})"


def _resolvent_solve(d: np.ndarray, reps: np.ndarray, rhs: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
    """Solve (I - E D) x = rhs, or (I - E D)^T x = (I - D^T E) x = rhs, for
    every diagonal E = diag(reps[p]) at once.

    reps is n x h (row p holds the diagonal of E at point p, for example
    E(z) = z1 I (+) z2 I along a state partition) and rhs is h x k or
    n x h x k; the result is n x h x k.  When D is upper triangular (the D
    of every cascade, model realization and Blaschke section) the systems
    are triangular and are solved by substitution over the stacked points;
    any other D takes one batched LU solve.  Both pass _pole_guard."""
    n, h = reps.shape
    rhs = np.broadcast_to(rhs, (n,) + rhs.shape[-2:])
    if np.tril(d, -1).any():
        mats = np.multiply(reps[:, :, None], -d, out=np.empty((n, h, h), dtype=np.complex128))
        mats.reshape(n, h * h)[:, :: h + 1] += 1.0      # a view: mats is C-contiguous
        x = _lu_solve(mats.transpose(0, 2, 1) if transpose else mats, rhs)
    else:
        x = _substitute(d, reps, rhs, transpose)
    # the residual x - E (D x) - rhs, or x - D^T (E x) - rhs, with one product
    xs, e = x.transpose(1, 0, 2), reps.T[:, :, None]    # state-major: h x n x k
    resid = xs - (_apply(d.T, e * xs) if transpose else e * _apply(d, xs))
    resid -= rhs.transpose(1, 0, 2)
    return _pole_guard(x, resid.transpose(1, 0, 2))


def _apply(d: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """d applied at every point of a state-major stack xs (h x n x k)."""
    h, n, k = xs.shape
    return (d @ xs.reshape(h, n * k)).reshape(h, n, k)


def _substitute(d: np.ndarray, reps: np.ndarray, rhs: np.ndarray, transpose: bool) -> np.ndarray:
    """_resolvent_solve for an upper-triangular D, one state at a time over
    all points: back substitution for I - E D,
        x_i = (rhs_i + e_i sum_{j>i} D_ij x_j) / (1 - e_i D_ii),
    and forward substitution for I - D^T E,
        x_i = (rhs_i + sum_{j<i} D_ji e_j x_j) / (1 - e_i D_ii).
    An exact zero pivot is a singular system."""
    n, h = reps.shape
    k = rhs.shape[-1]
    e = reps.T[:, :, None]
    pivots = 1.0 - e * np.diagonal(d)[:, None, None]
    if not pivots.all():
        raise ResolventIllConditionedError("singular resolvent: zero pivot at a grid point")
    rhs = rhs.transpose(1, 0, 2)
    x = np.empty((h, n, k), dtype=np.complex128)        # state-major: x[i] is state i
    if transpose:
        ex = np.empty_like(x)                            # E x, the states D^T sees
        for i in range(h):
            x[i] = (rhs[i] + (d[:i, i] @ ex[:i].reshape(i, n * k)).reshape(n, k)) / pivots[i]
            ex[i] = e[i] * x[i]
    else:
        for i in range(h - 1, -1, -1):
            tail = (d[i, i + 1:] @ x[i + 1:].reshape(h - 1 - i, n * k)).reshape(n, k)
            x[i] = (rhs[i] + e[i] * tail) / pivots[i]
    return x.transpose(1, 0, 2)


def _lu_solve(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError as exc:
        raise ResolventIllConditionedError(str(exc)) from exc


def _pole_guard(x: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """The one pole guard of every solve, after its singular case (an exact
    zero pivot, or LAPACK's): a non-finite x, or at some point p a residual
    resid[p] above bound(RESIDUAL_GUARD, ||x[p]||), raises
    ResolventIllConditionedError: the point is too close to a pole."""
    if not np.all(np.isfinite(x)) or np.any(np.linalg.norm(resid, axis=(1, 2)) > bound(
            RESIDUAL_GUARD, np.linalg.norm(x, axis=(1, 2)))):
        raise ResolventIllConditionedError("resolvent ill conditioned at a grid point")
    return x


def _is_constant(v: Colligation) -> bool:
    # with B = 0 or C = 0 the transfer is the constant a, whatever D does
    return v.h == 0 or not v.B.any() or not v.C.any()


def transfer_grid(v: Colligation, points) -> np.ndarray:
    """a + B (I - E(z) D)^{-1} E(z) C at every point z, one batched solve.

    E(z) = z1 I (+) ... (+) zd I along the state partition (z I for d = 1).
    points holds one point per row; a scalar or a flat array is read as
    consecutive points of nvars coordinates each, so four numbers are four
    points of one variable, or two of two.  A state whose E entry vanishes
    at every point has x = 0 there, so it is dropped and the principal
    block of the live states is solved."""
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim < 2:
        pts = pts.reshape(-1, v.nvars)
    reps = np.repeat(pts, v.partition, axis=1)
    live = np.repeat(np.any(pts != 0, axis=0), v.partition)
    if _is_constant(v) or not live.any():
        return np.full(pts.shape[0], v.a, dtype=np.complex128)
    b, c, d = v.B, v.C, v.D
    if not live.all():
        reps, b, c, d = reps[:, live], b[:, live], c[live], d[np.ix_(live, live)]
    x = _resolvent_solve(d, reps, reps[:, :, None] * c)
    return v.a + (b @ x)[:, 0, 0]


def _zero_coupling_parts(v: Colligation, z1: np.ndarray, z2: np.ndarray):
    """For a two-variable colligation whose lower-left coupling block is
    exactly zero, and coordinate arrays z1 and z2: f(z1, 0), the rows
    B2 + r D2 at z1 and the columns x2 at z2, where
        r = z1 B1 (I - z1 D1)^{-1},   x2 = z2 (I - z2 D4)^{-1} C2,
    each from one guarded solve with one right-hand column.  Then, exactly,
        f(z1, 0) = a + r C1,   f(0, z2) = a + B2 x2,
        f(z1, z2) = a + r C1 + (B2 + r D2) x2.
    With B = 0 or C = 0 nothing is solved: r = 0 and x2 = 0."""
    h1, h2 = v.partition
    if _is_constant(v):
        r = np.zeros((len(z1), h1), dtype=np.complex128)
        x2 = np.zeros((len(z2), h2), dtype=np.complex128)
    else:
        r = z1[:, None] * _resolvent_solve(
            v.D1, np.repeat(z1[:, None], h1, axis=1), v.B1.T, transpose=True)[:, :, 0]
        x2 = z2[:, None] * _resolvent_solve(
            v.D4, np.repeat(z2[:, None], h2, axis=1), v.C2)[:, :, 0]
    return v.a + r @ v.C1[:, 0], v.B2 + r @ v.D2, x2


def transfer_torus(v: Colligation, m: int) -> np.ndarray:
    """The m x m table f(w^j, w^k), w = exp(2 pi i / m), of a two-variable
    transfer function: row j is z1 = w^j and column k is z2 = w^k, the
    order of make_grid("torus2", m).

    When the lower-left coupling block is exactly zero (every cascade and
    model realization), the table is the outer product
        a + r C1 + (B2 + r D2) x2,   r = z1 B1 (I - z1 D1)^{-1},
                                     x2 = z2 (I - z2 D4)^{-1} C2,
    from one row solve with I - z1 D1 and one column solve with I - z2 D4
    at the m roots (_zero_coupling_parts): exact, with no aliasing and no
    rounding gate.  Otherwise, at each z1 one batched solve with I - z1 D1
    eliminates the first state block and leaves the one-variable realization
        a' + B' z2 (I - z2 D')^{-1} C',
    and where z^m = 1 the identity
        z (I - z D')^{-1} = sum_{r=1}^{m} z^r D'^{r-1} (I - D'^m)^{-1}
    is exact, so with y = (I - D'^m)^{-1} C' the row is a' plus the length-m
    DFT of the aliased coefficients B' D'^{r-1} y: no series is truncated.
    Every solve passes _pole_guard, and on the aliased path a rounding bound
    on the sums, m (h2 + 1) eps max_r ||B' D'^r|| ||y||, above
    bound(RESIDUAL_GUARD, max_k |f(z1, w^k)|) raises
    ResolventIllConditionedError as well."""
    if v.nvars != 2:
        raise NotStructuredError("transfer_torus needs a two-variable colligation")
    if m < 1:
        raise ValueError("the torus grid needs m >= 1")
    if _is_constant(v):
        return np.full((m, m), v.a, dtype=np.complex128)
    h1, h2 = v.partition
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    if not v.lower_left.any():
        first, rows, x2 = _zero_coupling_parts(v, roots, roots)
        return first[:, None] + rows @ x2.T
    # x1 = z1 (I - z1 D1)^{-1} (C1 + D2 x2) for every z1 at once
    w = roots[:, None, None] * _resolvent_solve(
        v.D1, np.repeat(roots[:, None], h1, axis=1), np.concatenate([v.C1, v.D2], axis=1))
    a1 = v.a + (v.B1 @ w[:, :, :1])[:, 0, 0]
    b1 = v.B2 + v.B1 @ w[:, :, 1:]
    c1 = v.C2 + v.lower_left @ w[:, :, :1]
    d1 = v.D4 + v.lower_left @ w[:, :, 1:]
    rows, dm = _power_rows(b1, d1, m)
    rows = rows[:, :, 0]
    mats = np.eye(h2) - dm
    y = _lu_solve(mats, c1)
    _pole_guard(y, mats @ y - c1)
    coeffs = (rows @ y)[:, :, 0]                      # B' D'^{r-1} y, r = 1..m
    # r = m aliases to frequency 0; the DFT of the rest is m ifft
    table = a1[:, None] + m * np.fft.ifft(np.roll(coeffs, 1, axis=1), axis=1)
    growth = np.linalg.norm(rows, axis=2).max(axis=1, initial=0.0)
    rounding = m * (h2 + 1) * np.finfo(float).eps * growth * np.linalg.norm(y, axis=(1, 2))
    if np.any(rounding > bound(RESIDUAL_GUARD, np.abs(table).max(axis=1))):
        raise ResolventIllConditionedError(
            "aliased torus sums lose more than the residual guard to rounding")
    return table


def _power_rows(b: np.ndarray, d: np.ndarray, m: int):
    """The blocks b, b d, ..., b d^{m-1} stacked along a new axis -3, and
    d^m (None for m = 0), for a block b of k rows (... x k x h) and d
    (... x h x h) of the same leading shape, by doubling: about 2 log2(m)
    products.  The blocks are kept end to end as rows, so each doubling
    multiplies all of them by d^(2^i) in one product."""
    k, h = b.shape[-2:]
    rows, p, dm = b, d, None
    for i in range(int(m).bit_length()):
        if i:
            p = p @ p                                  # d^(2^i)
        if m >> i & 1:
            dm = p if dm is None else dm @ p
        if rows.shape[-2] < m * k:
            rows = np.concatenate([rows, rows @ p], axis=-2)
    return rows[..., :m * k, :].reshape(b.shape[:-2] + (m, k, h)), dm


def transfer_1d(v: Colligation, z: complex) -> complex:
    """a + z B (I - z D)^{-1} C for a one-variable colligation: v(z)."""
    return complex(v(z))


def transfer_2d(v: Colligation, z) -> complex:
    """a + B (I - E(z) D)^{-1} E(z) C for a two-variable colligation: v(*z)."""
    return complex(v(*z))


def as_transfer_callable(v: Colligation) -> Colligation:
    """The transfer function as a vectorized callable: the colligation itself,
    which is one (kept by name for the benchmark scripts)."""
    return v


def _lower_left_zero(v: Colligation, tol: float) -> bool:
    return frob(v.lower_left) <= bound(tol, frob(v.D))


def _require_structured(v: Colligation, tol: float) -> None:
    if v.nvars != 2:
        raise NotStructuredError("structured form needs a two-variable colligation")
    if not _lower_left_zero(v, tol):
        raise NotStructuredError(
            f"lower-left D block is nonzero (norm {frob(v.lower_left):.3e})"
        )


def series_coefficient_table(v: Colligation, n1: int, n2: int,
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Raw coefficient table of the transfer expansion of a triangular
    colligation:

        phi_{i0} = B1 D1^{i-1} C1,   phi_{0j} = B2 D3^{j-1} C2,
        phi_{ij} = B1 D1^{i-1} D2 D3^{j-1} C2.
    """
    _require_structured(v, tol)
    # rows of B1 D1^{i-1} and of (D3^{j-1} C2)^T
    lefts = _power_rows(v.B1, v.D1, n1)[0][:, 0]
    rights = _power_rows(v.C2.T, v.D4.T, n2)[0][:, 0]
    out = np.empty((n1 + 1, n2 + 1), dtype=np.complex128)
    out[0, 0] = v.a
    out[1:, 0] = lefts @ v.C1[:, 0]
    out[0, 1:] = rights @ v.B2[0]
    out[1:, 1:] = lefts @ v.D2 @ rights.T
    return out


@dataclass(frozen=True)
class StructureReport(numlin.OperatorClass):
    """The operator class of V, with lower_left_zero, radii (the spectral
    radii of D1 and D4), c0dot (whether each is below 1 - tol) and the
    factorization condition; the CLI prints the report field for field."""

    lower_left_zero: bool
    radii: tuple
    c0dot: tuple
    factorization_condition: bool


def structure_report(v: Colligation, tol: float = DEFAULT_TOL) -> StructureReport:
    """Structural predicates of a two-variable colligation; any other
    colligation raises NotStructuredError.

    Membership of a finite matrix in the class of contractions with powers
    tending to zero is decided by numlin.below_one (spectral radius < 1 - tol).
    """
    if v.nvars != 2:
        raise NotStructuredError("structure_report needs a two-variable colligation")
    radii = (numlin.spectral_radius(v.D1), numlin.spectral_radius(v.D4))
    cond = frob(v.a * v.D2 - v.C1 @ v.B2) <= bound(tol, frob(v.D))
    return StructureReport(
        *astuple(v.classify(tol)), _lower_left_zero(v, tol), radii,
        tuple(numlin.below_one(r, tol) for r in radii), cond,
    )


# ---------------------------------------------------------------------------
# cascades and the model-space realization


def cascade_blocks(v1: Colligation, v2: Colligation):
    """The blocks (a, B, C, D) of the product colligation

        [[a1 a2, B1, a1 B2], [a2 C1, D1, C1 B2], [C2, 0, D2]]

    whose transfer function is the product of the factors' transfer
    functions (in separate variables, or in the shared variable when both
    factors depend on the same one).  The state splits as v1.h + v2.h."""
    if v1.nvars != 1 or v2.nvars != 1:
        raise NotStructuredError("cascade needs one-variable factors")
    h1, h2 = v1.h, v2.h
    a = v1.a * v2.a
    b = np.concatenate([v1.B, v1.a * v2.B], axis=1)
    c = np.concatenate([v2.a * v1.C, v2.C], axis=0)
    d = np.zeros((h1 + h2, h1 + h2), dtype=np.complex128)
    d[:h1, :h1] = v1.D
    d[:h1, h1:] = v1.C @ v2.B
    d[h1:, h1:] = v2.D
    return a, b, c, d


def _cascade_1d(v1: Colligation, v2: Colligation) -> Colligation:
    return Colligation(*cascade_blocks(v1, v2), [v1.h + v2.h])


def blaschke_section(alpha: complex) -> Colligation:
    """Unitary realization of the single factor (z - alpha)/(1 - conj(alpha) z)."""
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ZeroOnBoundaryError(f"zero not strictly inside the disc: |{alpha}| >= 1")
    gamma = np.sqrt(1.0 - abs(alpha) ** 2)
    return Colligation(-alpha, [[gamma]], [[gamma]], [[np.conj(alpha)]], [1])


def model_colligation(constant: complex, zeros) -> Colligation:
    """Unitary colligation of a finite Blaschke product on its model space.

    The state space is H^2 minus the shift-invariant subspace generated by
    the product, and the matrices of the projection onto constants, the
    backward shift composed with multiplication, and the compressed
    backward shift are taken in the Takenaka-Malmquist orthonormal basis
    (zeros processed in input order).  This fixes the matrices
    reproducibly; the same operators in that basis arise from cascading
    one-zero unitary sections and then folding the unimodular constant c
    into a and C, as cascading the constant colligation [[c]] would.
    """
    constant = complex(constant)
    if abs(abs(constant) - 1.0) > numlin.EXACT_GUARD:
        raise ConditionFailedError(
            f"leading constant must be unimodular, got |c| = {abs(constant)}")
    v = Colligation(1.0, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0])
    for alpha in zeros:
        v = _cascade_1d(v, blaschke_section(alpha))
    return Colligation(v.a * constant, v.B, constant * v.C, v.D, [v.h])
