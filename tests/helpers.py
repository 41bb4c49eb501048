"""Shared fixture builders and independent oracles for the test suite."""

import numpy as np

import bidisc_schur as bs
from bidisc_schur import factor, kernels, numlin
from bidisc_schur.errors import IdentityViolatedError
from bidisc_schur.kernels import ThetaRealization
from bidisc_schur.numlin import DEFAULT_TOL, EXACT_GUARD, RESIDUAL_GUARD, bound


def tabulate(points, fn):
    """fn(z_i, z_j) at every pair of points, as an (n, n) table of scalars
    or an (n, n, e, e) table of e x e values: one call per pair."""
    return np.array([[fn(z, w) for w in points] for z in points], dtype=np.complex128)


def szego_gram(grid):
    """Product Szego kernel values Prod_k 1/(1 - z_k conj(w_k)) on the grid."""
    out = np.ones((len(grid), len(grid)), dtype=np.complex128)
    for k in range(grid.nvars):
        out /= 1.0 - kernels._coordinate_products(grid, k)
    return out


def drury_arveson_gram(grid):
    """Kernel values 1/(1 - <z, w>) on a ball grid."""
    return 1.0 / (1.0 - grid.points @ grid.points.conj().T)


def convolve(a, b):
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


def poly_mul(p, q):
    """The product of two Poly2."""
    return bs.Poly2(convolve(p.coeffs, q.coeffs))


def common_truncation(a, b):
    """The coefficient tables of two PowerSeries2 cut to their common
    orders: a series' tail beyond its orders is unknown, not zero."""
    n1 = min(a.coeffs.shape[0], b.coeffs.shape[0])
    n2 = min(a.coeffs.shape[1], b.coeffs.shape[1])
    return a.coeffs[:n1, :n2], b.coeffs[:n1, :n2]


def series_mul(a, b):
    """The product of two PowerSeries2, to their common orders."""
    ca, cb = common_truncation(a, b)
    full = convolve(ca, cb)
    return bs.PowerSeries2(full[: ca.shape[0], : ca.shape[1]])


def random_unitary(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_blaschke(rng, max_degree=4, radius=0.8, min_degree=1):
    deg = int(rng.integers(min_degree, max_degree + 1))
    zeros = radius * np.sqrt(rng.uniform(size=deg)) * np.exp(
        2j * np.pi * rng.uniform(size=deg))
    constant = np.exp(2j * np.pi * rng.uniform())
    return complex(constant), list(zeros)


def blaschke_callable(constant, zeros):
    def fn(z):
        out = np.full_like(np.asarray(z, dtype=complex), complex(constant))
        for a in zeros:
            out = out * (z - a) / (1 - np.conj(a) * z)
        return out
    return fn


def mobius(a):
    return lambda z: (z - a) / (1 - np.conj(a) * z)


def not_separable_tiny_origin():
    """m(z1 z2) b(z1) b(z2) as rational2: p = (1 - z1 z2/2)(1 - c z1)^4
    (1 - c z2)^4, c = 0.0897, so |f(0)| = c^8 / 2 = 2.1e-9 sits just above
    the default tol while f is not separable."""
    c = 0.0897
    b4 = np.poly1d([-c, 1.0]) ** 4
    coeffs = np.zeros((6, 6), dtype=complex)
    coeffs[:5, :5] = np.outer(b4.coeffs[::-1], b4.coeffs[::-1])
    coeffs[1:, 1:] -= 0.5 * coeffs[:5, :5]
    return bs.RationalFunction2((0, 0), bs.Poly2(coeffs))


def permutation_colligation():
    # realizes z1 * z2
    return bs.Colligation(0.0, [[1, 0]], [[0], [1]], [[0, 1], [0, 0]], [1, 1])


def gauge_shifted_agler_pair(grid, c):
    """The Agler kernels (1, z1 conj w1) of z1 z2 (permutation_colligation)
    shifted to K1 + c (1 - z2 conj w2) and K2 - c (1 - z1 conj w1): the
    decomposition identity stays exact, and for large c neither is PSD."""
    p1, p2 = (kernels._coordinate_products(grid, i) for i in (0, 1))
    return (bs.SampledKernel(grid, 1.0 + c * (1.0 - p2)),
            bs.SampledKernel(grid, p1 - c * (1.0 - p1)))


def vt_colligation(t):
    # unitary realization of (z1 z2 - t)/(1 - t z1 z2); lower-left entry is t
    g = np.sqrt(1 - t * t)
    return bs.Colligation(-t, [[g, 0]], [[0], [g]], [[0, 1], [t, 0]], [1, 1])


def unitary_colligation(rng, partition):
    """Random unitary colligation with the given state partition, any
    number of blocks."""
    u = random_unitary(rng, 1 + sum(partition))
    return bs.Colligation(u[0, 0], u[:1, 1:], u[1:, :1], u[1:, 1:], partition)


def random_two_var_unitary(rng, hmax=6):
    h = int(rng.integers(1, hmax + 1))
    h1 = int(rng.integers(0, h + 1))
    u = random_unitary(rng, 1 + h)
    return bs.Colligation(u[0, 0], u[:1, 1:], u[1:, :1], u[1:, 1:], [h1, h - h1])


def random_triangular(rng, h1, h2, radius=0.7):
    """Random colligation with a zero lower-left block and both diagonal D
    blocks scaled to spectral radius `radius` (not isometric)."""
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def scaled(h):
        m = cplx(h, h)
        return radius * m / np.max(np.abs(np.linalg.eigvals(m)), initial=1.0)

    d = np.zeros((h1 + h2, h1 + h2), dtype=complex)
    d[:h1, :h1] = scaled(h1)
    d[:h1, h1:] = cplx(h1, h2)
    d[h1:, h1:] = scaled(h2)
    return bs.Colligation(complex(cplx()), cplx(1, h1 + h2), cplx(h1 + h2, 1), d, [h1, h2])


def random_theta(rng, hmax=5):
    h = int(rng.integers(1, hmax + 1))
    u = random_unitary(rng, 1 + h)
    return ThetaRealization(u[:1, :1], u[:1, 1:], u[1:, :1], u[1:, 1:], 1)


def composed_blaschke(rng, max_degree=4, radius=0.8):
    c1, z1 = random_blaschke(rng, max_degree, radius)
    c2, z2 = random_blaschke(rng, max_degree, radius)
    v = bs.compose_colligations(bs.model_colligation(c1, z1),
                                bs.model_colligation(c2, z2))
    f1 = blaschke_callable(c1, z1)
    f2 = blaschke_callable(c2, z2)
    return v, f1, f2


def dense_resolvent_solve(d, reps, rhs, transpose=False):
    """Reference for colligation._resolvent_solve, point by point: assemble
    I - E D with E = diag(reps[p]) and solve it (or its transpose) densely."""
    n, h = reps.shape
    rhs = np.broadcast_to(rhs, (n,) + np.shape(rhs)[-2:])
    out = np.array(rhs, dtype=complex)              # h = 0: nothing to solve
    for p in range(n if h else 0):
        mat = np.eye(h) - np.diag(reps[p]) @ d
        out[p] = np.linalg.solve(mat.T if transpose else mat, rhs[p])
    return out


def count_calls(monkeypatch, owner, name):
    """Record the positional arguments of every call of owner.name from here
    on; returns the list that each call appends to."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_linalg_solves(monkeypatch):
    """Count the calls of np.linalg.solve from here on; returns the list
    that each call appends to."""
    return count_calls(monkeypatch, np.linalg, "solve")


def contraction(rng, h1, h2, zero_lower_left=False, norm=1.0):
    """Random two-variable colligation V with ||V|| = norm, optionally with
    a zero lower-left D block."""
    h = h1 + h2
    m = rng.normal(size=(1 + h, 1 + h)) + 1j * rng.normal(size=(1 + h, 1 + h))
    if zero_lower_left:
        m[1 + h1:, 1:1 + h1] = 0.0
    m *= norm / np.linalg.norm(m, 2)
    return bs.Colligation(m[0, 0], m[:1, 1:], m[1:, :1], m[1:, 1:], [h1, h2])


def triangular_contraction(rng, h1, h2):
    """Random two-variable colligation of norm 1 with an upper-triangular D
    (so a zero lower-left block), solved by substitution throughout."""
    h = h1 + h2
    m = rng.normal(size=(1 + h, 1 + h)) + 1j * rng.normal(size=(1 + h, 1 + h))
    m[1:, 1:] = np.triu(m[1:, 1:])
    m /= np.linalg.norm(m, 2)
    return bs.Colligation(m[0, 0], m[:1, 1:], m[1:, :1], m[1:, 1:], [h1, h2])


def dense_transfer(v, points):
    """a + B (I - E(z) D)^{-1} E(z) C at each row of points, by dense_resolvent_solve."""
    pts = np.asarray(points, dtype=complex).reshape(-1, v.nvars)
    reps = np.repeat(pts, v.partition, axis=1)
    return v.a + (v.B @ dense_resolvent_solve(v.D, reps, reps[:, :, None] * v.C))[:, 0, 0]


def random_upper_triangular(rng, h, radius=0.9):
    """Random complex upper-triangular h x h matrix with diagonal entries of
    modulus at most radius."""
    d = np.triu(rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))) / np.sqrt(h + 1)
    d[np.diag_indices(h)] = radius * np.sqrt(rng.uniform(size=h)) \
        * np.exp(2j * np.pi * rng.uniform(size=h))
    return d


def model_matrices_boundary_oracle(constant, zeros, npts=4096):
    """Model-space colligation entries by H^2 boundary integrals against the
    Takenaka-Malmquist basis, independent of the library's construction."""
    z = np.exp(2j * np.pi * np.arange(npts) / npts)
    basis = []
    prod = np.ones_like(z)
    for a in zeros:
        gamma = np.sqrt(1 - abs(a) ** 2)
        basis.append(gamma * prod / (1 - np.conj(a) * z))
        prod = prod * (z - a) / (1 - np.conj(a) * z)
    b_vals = constant * prod

    def ip(f, g):
        return complex(np.mean(f * np.conj(g)))

    d = len(zeros)
    a_entry = ip(b_vals, np.ones_like(z))
    b_row = np.array([[ip(e, np.ones_like(z)) for e in basis]])
    back_b = (b_vals - a_entry) / z
    c_col = np.array([[ip(back_b, e)] for e in basis])
    d_mat = np.empty((d, d), dtype=complex)
    for k, ek in enumerate(basis):
        back = (ek - ip(ek, np.ones_like(z))) / z
        for j, ej in enumerate(basis):
            d_mat[j, k] = ip(back, ej)
    return a_entry, b_row.reshape(1, d), c_col.reshape(d, 1), d_mat


def dense_toeplitz(t):
    """Reference M^2 x M^2 assembly of a ToeplitzTruncation, entry by entry
    from its coefficient table: block (i, k) is the lower-triangular Toeplitz
    matrix with first column table[i - k] when i >= k, and zero otherwise."""
    m = t.order
    out = np.zeros((m * m, m * m), dtype=complex)
    for i in range(m):
        for k in range(i + 1):
            for s in range(m):
                for q in range(s + 1):
                    out[i * m + s, k * m + q] = t.table[i - k, s - q]
    return out


def dense_isometry_defect(t, window):
    """The windowed isometry defect taken on the dense assembly: max over
    i <= j < window of || (Y_i* Y_j)[:window, :window] - delta_ij I ||_F."""
    m = t.order
    dense = dense_toeplitz(t)
    cols = [dense[:, j * m:(j + 1) * m] for j in range(window)]
    worst = 0.0
    for i in range(window):
        for j in range(i, window):
            corner = (cols[i].conj().T @ cols[j])[:window, :window]
            target = np.eye(window) if i == j else 0.0
            worst = max(worst, float(np.linalg.norm(corner - target)))
    return worst


def shifted_copy_isometry_defect(t, window):
    """The windowed isometry defect from one Gram product, for orders too
    large for dense_isometry_defect: column (k, q) of the compression is the
    coefficient table shifted down by k rows and right by q columns (cut to
    M x M), so the window^2 columns with k, q < window, flattened, are the
    rows of a window^2 x M^2 matrix S, and corner (i, j) is block (i, j) of
    conj(S) S^T."""
    m, w = t.order, window
    padded = np.zeros((m + w, m + w), dtype=complex)
    padded[w:, w:] = t.table
    cols = np.array([padded[w - k:w - k + m, w - q:w - q + m].ravel()
                     for k in range(w) for q in range(w)])
    gram = (cols.conj() @ cols.T - np.eye(w * w)).reshape(w, w, w, w)
    return max(float(np.linalg.norm(gram[i, :, j, :]))
               for i in range(w) for j in range(i, w))


def loop_series_inverse(p, n1, n2):
    """Reference power-series inverse of p (p[0,0] != 0) truncated at
    (n1, n2): the coefficient recurrence, one (i, j, k, l) term at a time."""
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


def loop_series_of(f, n1, n2):
    """Reference Taylor table of a RationalFunction2 to orders (n1, n2): the
    loop inverse of the denominator times the numerator, shifted by the
    monomial."""
    inv = loop_series_inverse(f.denominator.coeffs, n1, n2)
    num = f.numerator.coeffs
    q = np.zeros((n1 + num.shape[0], n2 + num.shape[1]), dtype=np.complex128)
    for (i, j), c in np.ndenumerate(num):
        q[i:i + n1 + 1, j:j + n2 + 1] += c * inv
    m1, m2 = f.monomial
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    if m1 <= n1 and m2 <= n2:
        out[m1:, m2:] = q[: n1 + 1 - m1, : n2 + 1 - m2]
    return out


def loop_defect_gram(k, weight, identity=None):
    """Reference Gram matrix of identity(z, w) I - weight(z, w) K(z, w) on
    the kernel's grid (identity defaults to 1), entry by entry: row
    i e + a, column j e + b holds delta_ab identity[i, j] - weight[i, j]
    K(z_i, z_j)[a, b]."""
    n, e = len(k.grid), k.dim
    vals = k.values.reshape(n, n, e, e)
    ident = np.ones((n, n)) if identity is None else identity
    out = np.empty((n * e, n * e), dtype=complex)
    for i in range(n):
        for j in range(n):
            for a in range(e):
                for b in range(e):
                    out[i * e + a, j * e + b] = \
                        (ident[i, j] if a == b else 0.0) - weight[i, j] * vals[i, j, a, b]
    return out


def loop_section_residual(f, k2):
    """Reference section residual of the factorization conditions on the
    product grid of K2, whose axes factor._product_axes recovers: one
    first-axis value w1 at a time, max over the grid of
    |conj(f(0,0)) K2(., (w1, 0)) - conj(f(w1, 0)) K2(., (0, 0))|."""
    axis1, axis2, origin1, origin2 = factor._product_axes(k2.grid)
    origin = complex(np.asarray(f(0.0, 0.0)).reshape(()))
    col0 = k2.values[:, origin1 * len(axis2) + origin2]
    worst = 0.0
    for i, w1 in enumerate(axis1):
        coli = k2.values[:, i * len(axis2) + origin2]
        fw = complex(np.asarray(f(w1, 0.0)).reshape(()))
        worst = max(worst, float(np.max(np.abs(np.conj(origin) * coli - np.conj(fw) * col0))))
    return worst


def loop_geometric_sum(d, x, terms):
    """Reference partial sum sum_{k=0}^{terms} D*^k X D^k, one term at a
    time."""
    acc = x.copy()
    t = x.copy()
    for _ in range(terms):
        t = d.conj().T @ t @ d
        acc += t
    return acc


def loop_series_coefficient_table(v, n1, n2):
    """Reference transfer coefficient table of a triangular colligation,
    one (i, j) entry at a time from B1 D1^{i-1}, D3^{j-1} C2 and D2."""
    b1, b2, c1, c2 = v.B1, v.B2, v.C1, v.C2
    d1, d2, d3 = v.D1, v.D2, v.D4
    out = np.zeros((n1 + 1, n2 + 1), dtype=np.complex128)
    out[0, 0] = v.a
    lefts = [b1 @ np.linalg.matrix_power(d1, i) for i in range(n1)]
    rights = [np.linalg.matrix_power(d3, j) @ c2 for j in range(n2)]
    for i, li in enumerate(lefts, start=1):
        out[i, 0] = (li @ c1)[0, 0]
    for j, rj in enumerate(rights, start=1):
        out[0, j] = (b2 @ rj)[0, 0]
    for i, li in enumerate(lefts, start=1):
        for j, rj in enumerate(rights, start=1):
            out[i, j] = (li @ d2 @ rj)[0, 0]
    return out


def loop_proof_diagnostics(v, kmax, jmax, terms):
    """Reference proof quantities of a triangular colligation: the formulas
    of toeplitz.proof_diagnostics evaluated one k and one j at a time, with
    every geometric sum cut at `terms` + 1 terms (loop_geometric_sum).
    Returns (y0, y_offdiag, c_table, partial_sum_defects)."""
    a = v.a
    b1, b2, c1, c2 = v.B1, v.B2, v.C1, v.C2
    d1, d2, d3 = v.D1, v.D2, v.D4
    h1, h2 = v.partition

    def scalar(m):
        return complex(np.asarray(m).reshape(()))

    g1 = loop_geometric_sum(d1, b1.conj().T @ b1, terms)
    g3 = loop_geometric_sum(d3, b2.conj().T @ b2 + d2.conj().T @ g1 @ d2, terms)
    sum2 = loop_geometric_sum(d3, b2.conj().T @ b2 + d2.conj().T @ d2, terms)
    defects = (np.linalg.norm(g1 - np.eye(h1)), np.linalg.norm(sum2 - np.eye(h2)))
    y0 = abs(a) ** 2 + scalar(c1.conj().T @ g1 @ c1).real + scalar(c2.conj().T @ g3 @ c2).real
    ys = np.zeros(kmax, dtype=np.complex128)
    for k in range(1, kmax + 1):
        left = c2.conj().T @ np.linalg.matrix_power(d3, k - 1).conj().T
        ys[k - 1] = (a * scalar(left @ b2.conj().T) + scalar(left @ d2.conj().T @ g1 @ c1)
                     + scalar(left @ d3.conj().T @ g3 @ c2))
    cs = np.zeros((jmax + 1, 2 * kmax + 1), dtype=np.complex128)
    mix = b2.conj().T @ b1 + d2.conj().T @ d1
    row = np.conj(a) * b1 + c1.conj().T @ d1
    for j in range(jmax + 1):
        d1j = np.linalg.matrix_power(d1, j + 1)
        acc = loop_geometric_sum(d3, mix @ d1j @ d2, terms)
        cs[j, kmax] = scalar(row @ d1j @ c1) + scalar(c2.conj().T @ acc @ c2)
        for k in range(1, kmax + 1):
            prev = np.linalg.matrix_power(d3, k - 1)
            pow_k = prev @ d3
            cs[j, kmax + k] = (scalar(c2.conj().T @ prev.conj().T @ mix @ d1j @ c1)
                               + scalar(c2.conj().T @ pow_k.conj().T @ acc @ c2))
            cs[j, kmax - k] = (scalar(row @ d1j @ d2 @ prev @ c2)
                               + scalar(c2.conj().T @ acc @ pow_k @ c2))
    return float(y0), ys, cs, defects


def taylor_from_samples(f, n1, n2):
    """Numerical Taylor coefficients via FFT on the torus of radius 1/2.

    For Schur-class f the coefficients are bounded by 1, so aliasing decays
    like radius**m with m >= 64 samples per circle: machine level.
    """
    radius = 0.5
    m = max(64, 2 * (max(n1, n2) + 1))
    w = radius * np.exp(2j * np.pi * np.arange(m) / m)
    z1, z2 = np.meshgrid(w, w, indexing="ij")
    samples = np.asarray(f(z1, z2), dtype=np.complex128)
    coeffs = np.fft.fft2(samples) / (m * m)
    i = np.arange(n1 + 1)[:, None]
    j = np.arange(n2 + 1)[None, :]
    return bs.PowerSeries2(coeffs[: n1 + 1, : n2 + 1] / radius ** (i + j))


def difference_quotient_colligation(f, kernel1, kernel2, grid, tol=DEFAULT_TOL):
    """Assemble the colligation whose blocks act on the reproducing-kernel
    spaces of the two Agler kernels by difference quotients:

        (D1 g)(w) = (g(w) - g(0,0)) / w1          on the first space,
        (D2 g)(w) = (g(w1, 0) - g(0,0)) / w1      second space -> first,
        (D4 g)(w) = (g(w) - g(w1, 0)) / w2        on the second space,
        (C1 1)(w) = (f(w1, 0) - f(0,0)) / w1,
        (C2 1)(w) = (f(w) - f(w1, 0)) / w2,
        (B g)    = g(0,0),

    with matrices taken in the coordinates of low-rank factorizations of
    the sampled kernel Gram matrices.  kernel1/kernel2 are callables
    k(z, w) of two bidisc points.  Intended for cross-checking splits on
    kernels with finite-dimensional spaces (the sampled span is then the
    whole space and the matrices are exact up to round-off).  grid is a
    product grid, whose axes factor._product_axes recovers."""
    pts = grid.points
    axis1, axis2, origin1, origin2 = factor._product_axes(grid)

    f1 = numlin.psd_factor(tabulate(pts, kernel1), tol)   # sample-value bases
    f2 = numlin.psd_factor(tabulate(pts, kernel2), tol)

    idx0 = origin1 * len(axis2) + origin2
    proj1 = np.repeat(np.arange(len(axis1)) * len(axis2) + origin2,
                      len(axis2))                         # w -> (w1, 0)
    w1 = pts[:, 0]
    w2 = pts[:, 1]
    rows1 = np.abs(w1) > EXACT_GUARD
    rows2 = np.abs(w2) > EXACT_GUARD

    def coords(basis, numer, denom, rows):
        samples = np.atleast_2d(numer[rows]) / denom[rows, None]
        sol, _, _, _ = np.linalg.lstsq(basis[rows], samples, rcond=None)
        recon = basis[rows] @ sol
        if np.max(np.abs(recon - samples), initial=0.0) > bound(RESIDUAL_GUARD, np.abs(samples).max()):
            raise IdentityViolatedError(
                "difference-quotient action leaves the sampled span")
        return sol

    d1 = coords(f1, f1 - f1[idx0], w1, rows1)
    d2 = coords(f1, f2[proj1] - f2[idx0], w1, rows1)
    d4 = coords(f2, f2 - f2[proj1], w2, rows2)
    fvals = np.asarray(f(w1, w2), dtype=np.complex128)
    fsec = fvals[proj1]
    c1 = coords(f1, (fsec - fvals[idx0])[:, None], w1, rows1)
    c2 = coords(f2, (fvals - fsec)[:, None], w2, rows2)
    b1 = f1[idx0][None, :]
    b2 = f2[idx0][None, :]

    h1, h2 = f1.shape[1], f2.shape[1]
    d = np.zeros((h1 + h2, h1 + h2), dtype=np.complex128)
    d[:h1, :h1] = d1
    d[:h1, h1:] = d2
    d[h1:, h1:] = d4
    b = np.concatenate([b1, b2], axis=1)
    c = np.concatenate([c1, c2], axis=0)
    return bs.Colligation(fvals[idx0], b, c, d, [h1, h2])
