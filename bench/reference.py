"""Computations made apart from bidisc_schur, against which the benchmark
checks the program's outputs.

Nothing here imports the package: closed forms of the benchmark's symbols,
a plain resolvent evaluation of colligation matrices, Taylor coefficients by
a 2-D FFT of closed-form samples, the windowed isometry defect straight from
a coefficient table, and a minimal JSON codec for the CLI's file formats.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# closed forms


def blaschke(constant: complex, zeros, z) -> np.ndarray:
    """constant * prod_k (z - a_k) / (1 - conj(a_k) z)."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.full(z.shape, complex(constant), dtype=np.complex128)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def product_mobius(t: float, z1, z2) -> np.ndarray:
    """(z1 z2 - t) / (1 - t z1 z2)."""
    w = np.asarray(z1, dtype=np.complex128) * np.asarray(z2, dtype=np.complex128)
    return (w - t) / (1.0 - t * w)


def product_mobius_taylor(t: float, order: int) -> np.ndarray:
    """Coefficients of (w - t)/(1 - t w), w = z1 z2, up to order-1 in each
    variable: -t on the origin and (1 - t^2) t^(k-1) at (k, k)."""
    out = np.zeros((order, order), dtype=np.complex128)
    out[0, 0] = -t
    k = np.arange(1, order)
    out[k, k] = (1.0 - t * t) * t ** (k - 1)
    return out


def taylor_fft2(f, order: int, radius: float = 0.95, size: int = 128) -> np.ndarray:
    """Taylor coefficients c[i, j], i, j < order, of f(z1, z2) from a 2-D FFT
    of samples on the torus of the given radius.  Aliasing is of order
    radius**size times the coefficient decay; rounding is amplified by
    radius**-(i+j), which stays below 1e3 for order <= 48 at radius 0.95."""
    size = max(size, 2 * order)
    w = radius * np.exp(2j * np.pi * np.arange(size) / size)
    z1, z2 = np.meshgrid(w, w, indexing="ij")
    coeffs = np.fft.fft2(f(z1, z2)) / (size * size)
    i = np.arange(order)
    return coeffs[:order, :order] / radius ** (i[:, None] + i[None, :])


# ---------------------------------------------------------------------------
# colligation matrices evaluated by a plain resolvent solve


def colligation_transfer(a, B, C, D, partition, points) -> np.ndarray:
    """a + B (I - E(z) D)^{-1} E(z) C at each row of points (one column per
    variable, E(z) the diagonal of z_k repeated over block k)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.complex128))
    B, C, D = (np.atleast_2d(np.asarray(m, dtype=np.complex128)) for m in (B, C, D))
    h = D.shape[0]
    if h == 0:
        return np.full(pts.shape[0], complex(a), dtype=np.complex128)
    reps = np.repeat(pts, partition, axis=1)                 # (n, h)
    mats = np.eye(h) - reps[:, :, None] * D[None, :, :]
    rhs = (reps * C[:, 0][None, :])[:, :, None]
    x = np.linalg.solve(mats, rhs)[:, :, 0]
    return complex(a) + x @ B[0]


def theta_values(A, B, C, D, z) -> np.ndarray:
    """T(z) = A* + z C* (I - z D*)^{-1} B* at each z (e_star x e blocks)."""
    A, B, C, D = (np.atleast_2d(np.asarray(m, dtype=np.complex128)) for m in (A, B, C, D))
    z = np.asarray(z, dtype=np.complex128).ravel()
    h = D.shape[0]
    mats = np.eye(h)[None] - z[:, None, None] * D.conj().T[None]
    res = np.linalg.solve(mats, np.broadcast_to(B.conj().T, (len(z),) + B.T.shape))
    return A.conj().T[None] + z[:, None, None] * (C.conj().T[None] @ res)


def disc_dbr_kernel(tvals: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(I - T(z_i) T(z_j)*) / (1 - z_i conj(z_j)) as an (n, n, e, e) table."""
    e = tvals.shape[1]
    prod = np.einsum("iab,jcb->ijac", tvals, tvals.conj())
    denom = 1.0 - z[:, None] * np.conj(z)[None, :]
    return (np.eye(e)[None, None] - prod) / denom[:, :, None, None]


def gram(table: np.ndarray) -> np.ndarray:
    """(n e) x (n e) Gram matrix of an (n, n, e, e) kernel table."""
    n, _, e, _ = table.shape
    return table.transpose(0, 2, 1, 3).reshape(n * e, n * e)


def min_eig(g: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0])


# ---------------------------------------------------------------------------
# Toeplitz diagnostics from a coefficient table


def windowed_defect(coeffs: np.ndarray, window: int) -> float:
    """max over i <= j < window of || corner(Y_i* Y_j) - delta_ij I ||_F.

    Column s of block column i of the compression is the table shifted by i
    rows and s columns and cut to its leading order x order part, so all
    window^2 columns needed for the corners are shifted copies of the table
    and one Gram product gives every corner."""
    m = coeffs.shape[0]
    cols = np.zeros((window, window, m, m), dtype=np.complex128)
    for i in range(window):
        for s in range(window):
            cols[i, s, i:, s:] = coeffs[: m - i, : m - s]
    flat = cols.reshape(window * window, m * m)
    g = (flat.conj() @ flat.T).reshape(window, window, window, window)
    worst = 0.0
    for i in range(window):
        for j in range(i, window):
            corner = g[i, :, j, :] - (np.eye(window) if i == j else 0.0)
            worst = max(worst, float(np.linalg.norm(corner)))
    return worst


# ---------------------------------------------------------------------------
# the CLI's JSON formats


def cjson(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def matrix_json(m) -> list:
    return [[cjson(v) for v in row] for row in np.atleast_2d(m)]


def from_pairs(obj) -> np.ndarray:
    """Nested lists ending in [re, im] pairs, as a complex array."""
    arr = np.asarray(obj, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def colligation_json(a, B, C, D, partition) -> dict:
    return {"kind": "colligation", "a": cjson(a), "B": matrix_json(B),
            "C": matrix_json(C), "D": matrix_json(D), "partition": list(partition)}


def kernel_json(ambient: str, points: np.ndarray, table: np.ndarray) -> dict:
    """Kernel file; table is (n, n) for scalar kernels or (n, n, e, e)."""
    pts = [[cjson(z) for z in row] for row in np.atleast_2d(points)]
    if table.ndim == 4 and table.shape[2] == 1:
        table = table[:, :, 0, 0]
    dim = 1 if table.ndim == 2 else table.shape[2]
    values = np.stack([table.real, table.imag], axis=-1).tolist()
    return {"kind": "kernel", "grid": {"kind": "grid", "ambient": ambient, "points": pts},
            "dim": dim, "values": values}


def kernel_from_json(obj: dict):
    """(points, table) of a kernel file, table as (n, n, e, e)."""
    pts = from_pairs(obj["grid"]["points"])
    table = from_pairs(obj["values"])
    if table.ndim == 2:
        table = table[:, :, None, None]
    return pts, table
