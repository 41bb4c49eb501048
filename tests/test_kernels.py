import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import kernels
from bidisc_schur.errors import GridMismatchError, NotCoisometricError, NotDbrError
from bidisc_schur.kernels import (
    SampledKernel,
    ThetaRealization,
    drury_arveson_gram,
    szego_gram,
)
from helpers import (
    composed_blaschke,
    loop_defect_gram,
    permutation_colligation,
    random_theta,
    random_two_var_unitary,
    random_unitary,
)


def disc_grid(seed=0, n=10):
    return bs.make_grid("disc", n, seed=seed)


def test_agler_kernels_permutation():
    grid = bs.make_grid("bidisc", 12, seed=19)
    pair = bs.agler_kernels_of(permutation_colligation(), grid)
    z1 = grid.points[:, 0]
    assert np.allclose(pair.k1.values, 1.0)
    assert np.allclose(pair.k2.values, z1[:, None] * np.conj(z1)[None, :])
    assert pair.max_residual < 1e-14


def test_agler_kernels_constant():
    v = bs.Colligation(np.exp(0.4j), np.zeros((1, 0)), np.zeros((0, 1)),
                       np.zeros((0, 0)), [0, 0])
    grid = bs.make_grid("bidisc", 8, seed=20)
    pair = bs.agler_kernels_of(v, grid)
    assert np.allclose(pair.k1.values, 0.0)
    assert np.allclose(pair.k2.values, 0.0)


def test_agler_kernels_composed_blaschke_closed_forms():
    rng = np.random.default_rng(21)
    grid = bs.make_grid("bidisc", 15, seed=22)
    z1, z2 = grid.points[:, 0], grid.points[:, 1]
    for _ in range(5):
        v, f1, f2 = composed_blaschke(rng, max_degree=3, radius=0.7)
        pair = bs.agler_kernels_of(v, grid)
        p1, p2 = f1(z1), f2(z2)
        k1_closed = (1 - p1[:, None] * np.conj(p1)[None, :]) \
            / (1 - z1[:, None] * np.conj(z1)[None, :])
        k2_closed = p1[:, None] * np.conj(p1)[None, :] \
            * (1 - p2[:, None] * np.conj(p2)[None, :]) \
            / (1 - z2[:, None] * np.conj(z2)[None, :])
        assert np.max(np.abs(pair.k1.values - k1_closed)) < 1e-9
        assert np.max(np.abs(pair.k2.values - k2_closed)) < 1e-9


def test_agler_kernels_rejects_non_coisometric():
    v = bs.Colligation(0.0, [[0.5, 0.0]], [[1.0], [0.0]], np.zeros((2, 2)), [1, 1])
    with pytest.raises(NotCoisometricError):
        bs.agler_kernels_of(v, bs.make_grid("bidisc", 5, seed=1))


def test_verify_decomposition_permutation():
    grid = bs.make_grid("bidisc", 12, seed=23)
    pair = bs.agler_kernels_of(permutation_colligation(), grid)
    rep = bs.verify_agler_decomposition(lambda a, b: a * b, pair.k1, pair.k2, 1e-12)
    assert rep.passed and rep.max_residual < 1e-14


def test_verify_decomposition_zero_kernels_fail():
    grid = bs.make_grid("bidisc", 8, seed=24)
    zero = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    rep = bs.verify_agler_decomposition(lambda a, b: a * b, zero, zero, 1e-9)
    assert not rep.passed


def test_verify_decomposition_grid_mismatch():
    g1 = bs.make_grid("bidisc", 6, seed=1)
    g2 = bs.make_grid("bidisc", 6, seed=2)
    k1 = SampledKernel(g1, np.zeros((6, 6), dtype=complex))
    k2 = SampledKernel(g2, np.zeros((6, 6), dtype=complex))
    with pytest.raises(GridMismatchError):
        bs.verify_agler_decomposition(lambda a, b: a * b, k1, k2)


def test_roundtrip_random_coisometric():
    rng = np.random.default_rng(25)
    grid = bs.make_grid("bidisc", 40, seed=26)
    for _ in range(10):
        v = random_two_var_unitary(rng)
        pair = bs.agler_kernels_of(v, grid)
        assert pair.k1.is_psd(1e-9)
        assert pair.k2.is_psd(1e-9)
        rep = bs.verify_agler_decomposition(v, pair.k1, pair.k2, 1e-9)
        assert rep.passed


def test_dbr_disc_constant_kernel():
    grid = disc_grid(27)
    k = SampledKernel(grid, np.ones((10, 10), dtype=complex))
    rep = bs.dbr_test_disc(k)
    assert rep.is_dbr
    # defect table is the rank-one Gram z conj(w)
    assert rep.factorization is not None and rep.factorization.rank == 1


def test_dbr_disc_twice_szego_fails():
    grid = disc_grid(28)
    rep = bs.dbr_test_disc(SampledKernel(grid, 2 * szego_gram(grid)))
    assert not rep.is_dbr
    assert rep.min_eigenvalue < -0.5


def test_dbr_disc_theta_kernel():
    rng = np.random.default_rng(29)
    grid = disc_grid(30, n=12)
    for _ in range(5):
        theta = random_theta(rng)
        k = SampledKernel(grid, theta.kernel_values(grid))
        assert bs.dbr_test_disc(k).is_dbr


def test_dbr_reconstruct_constant_kernel():
    grid = bs.PointGrid("disc", np.array([[0.0], [0.4], [-0.3j]]))
    k = SampledKernel(grid, np.ones((3, 3), dtype=complex))
    theta = bs.dbr_reconstruct_disc(k)
    assert np.max(np.abs(theta.kernel_values(grid) - k.values)) <= 1e-8
    # gauge freedom: |theta| must match |z| on the grid
    mods = [float(np.abs(theta.theta(complex(z)))[0, 0]) for z in grid.points[:, 0]]
    assert mods == pytest.approx([0.0, 0.4, 0.3], abs=1e-8)


def test_dbr_reconstruct_szego_gives_null_symbol():
    grid = bs.PointGrid("disc", np.array([[0.0], [0.4], [-0.3j]]))
    k = SampledKernel(grid, szego_gram(grid))
    theta = bs.dbr_reconstruct_disc(k)
    assert np.max(np.abs(theta.kernel_values(grid) - k.values)) <= 1e-8
    for z in grid.points[:, 0]:
        assert np.max(np.abs(theta.theta(complex(z)))) <= 1e-10


def test_dbr_reconstruct_mobius_roundtrip():
    half = ThetaRealization([[0.5]], [[np.sqrt(3) / 2]], [[np.sqrt(3) / 2]],
                            [[-0.5]], 1)
    # sanity: this realization evaluates to (z + 1/2)/(1 + z/2)
    assert half.theta(0.3)[0, 0] == pytest.approx(0.8 / 1.15)
    grid = disc_grid(31, n=12)
    k = SampledKernel(grid, half.kernel_values(grid))
    rebuilt = bs.dbr_reconstruct_disc(k)
    assert np.max(np.abs(rebuilt.kernel_values(grid) - k.values)) <= 1e-8


def test_dbr_reconstruct_rejects_non_dbr():
    grid = disc_grid(32)
    with pytest.raises(NotDbrError):
        bs.dbr_reconstruct_disc(SampledKernel(grid, 2 * szego_gram(grid)))


def test_dbr_reconstruct_roundtrip_random():
    rng = np.random.default_rng(33)
    grid = disc_grid(34, n=12)
    for _ in range(10):
        theta = random_theta(rng)
        k = SampledKernel(grid, theta.kernel_values(grid))
        rebuilt = bs.dbr_reconstruct_disc(k)
        assert rebuilt.coisometry_defect() < 1e-9
        assert np.max(np.abs(rebuilt.kernel_values(grid) - k.values)) <= 1e-7


def test_dbr_reconstruct_operator_valued():
    rng = np.random.default_rng(35)
    e, h = 2, 3
    u = random_unitary(rng, e + h)
    theta = ThetaRealization(u[:e, :e], u[:e, e:], u[e:, :e], u[e:, e:], e)
    grid = disc_grid(36, n=8)
    k = SampledKernel(grid, theta.kernel_values(grid), dim=e)
    rebuilt = bs.dbr_reconstruct_disc(k)
    assert rebuilt.e_star == e
    assert np.max(np.abs(rebuilt.kernel_values(grid) - k.values)) <= 1e-7


def test_dbr_grams_decomposed_once(monkeypatch):
    # one eigvalsh (the PSD test) and one eigh (the factor) per Gram: the
    # defect Gram in dbr_test_disc, and the kernel Gram too on reconstruction
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    theta = random_theta(np.random.default_rng(39))
    grid = disc_grid(40, n=12)
    k = SampledKernel(grid, theta.kernel_values(grid))
    bs.dbr_test_disc(k)
    assert calls == {"eigvalsh": 1, "eigh": 1}
    bs.dbr_reconstruct_disc(k)
    assert calls == {"eigvalsh": 3, "eigh": 3}


def test_reconstruction_gauge_covariance():
    # composing the defect space with a unitary is another valid extension;
    # the kernel it generates on the grid is unchanged
    rng = np.random.default_rng(37)
    grid = disc_grid(38, n=10)
    theta = random_theta(rng)
    k = SampledKernel(grid, theta.kernel_values(grid))
    rebuilt = bs.dbr_reconstruct_disc(k)
    u = random_unitary(rng, rebuilt.e)
    rotated = ThetaRealization(u @ rebuilt.A, u @ rebuilt.B, rebuilt.C,
                               rebuilt.D, rebuilt.e_star)
    assert np.max(np.abs(rotated.kernel_values(grid) - rebuilt.kernel_values(grid))) < 1e-12


def test_dbr_monotone_under_subgrids():
    # PSD of the full Gram implies PSD of any principal subgrid Gram: a
    # failing test cannot become passing by adding points
    rng = np.random.default_rng(39)
    grid = disc_grid(40, n=10)
    theta = random_theta(rng)
    k_full = SampledKernel(grid, theta.kernel_values(grid))
    assert bs.dbr_test_disc(k_full).is_dbr
    sub = bs.PointGrid("disc", grid.points[:4])
    k_sub = SampledKernel(sub, k_full.values[:4, :4])
    assert bs.dbr_test_disc(k_sub).is_dbr

    small = bs.PointGrid("disc", bs.make_grid("disc", 4, seed=5).points)
    big = bs.PointGrid("disc", np.concatenate(
        [small.points, bs.make_grid("disc", 6, seed=6).points]))
    assert not bs.dbr_test_disc(SampledKernel(small, 2 * szego_gram(small))).is_dbr
    assert not bs.dbr_test_disc(SampledKernel(big, 2 * szego_gram(big))).is_dbr


def test_nf_szego_and_zero():
    grid = disc_grid(41)
    s = SampledKernel(grid, szego_gram(grid))
    rep = bs.dbr_test_nf(s)
    assert rep.dominated_by_szego and rep.hadamard_psd
    zero = SampledKernel(grid, np.zeros((10, 10), dtype=complex))
    rep0 = bs.dbr_test_nf(zero)
    assert rep0.dominated_by_szego and rep0.hadamard_psd


def test_nf_twice_szego():
    grid = disc_grid(42)
    rep = bs.dbr_test_nf(SampledKernel(grid, 2 * szego_gram(grid)))
    assert not rep.dominated_by_szego
    assert rep.hadamard_psd


def test_polydisc_canonical_pass():
    grid = bs.make_grid("bidisc", 10, seed=43)
    s2 = SampledKernel(grid, szego_gram(grid))
    z1 = grid.points[:, 0]
    k1 = SampledKernel(grid, 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    k2 = SampledKernel(grid, np.zeros((10, 10), dtype=complex))
    rep = bs.dbr_test_polydisc(s2, [k1, k2])
    assert rep.passed
    assert rep.sum_residual < 1e-12


def test_polydisc_zero_pass():
    grid = bs.make_grid("bidisc", 8, seed=44)
    zero = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    assert bs.dbr_test_polydisc(zero, [zero, zero]).passed


def test_polydisc_hadamard_failure():
    grid = bs.make_grid("bidisc", 10, seed=45)
    s2 = SampledKernel(grid, 2 * szego_gram(grid))
    z1 = grid.points[:, 0]
    k1 = SampledKernel(grid, 2.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    k2 = SampledKernel(grid, np.zeros((10, 10), dtype=complex))
    rep = bs.dbr_test_polydisc(s2, [k1, k2])
    assert not rep.passed
    assert rep.sum_residual < 1e-12            # the sum identity still holds
    assert rep.hadamard_min_eigenvalue < -0.5  # diagonal entries are -1


def test_polydisc_from_agler_kernels():
    # for f = tau of a co-isometric colligation, the normalized kernel
    # (1 - f(z) conj(f(w))) / prod 1 - z_i conj(w_i) decomposes with the
    # Agler kernels as components and passes every polydisc check
    rng = np.random.default_rng(86)
    grid = bs.make_grid("bidisc", 12, seed=87)
    for _ in range(3):
        v = random_two_var_unitary(rng, hmax=4)
        pair = bs.agler_kernels_of(v, grid)
        vals = v(grid.points[:, 0], grid.points[:, 1])
        s2inv = np.prod([1.0 - grid.points[:, i, None] * np.conj(grid.points[None, :, i])
                         for i in range(2)], axis=0)
        k = SampledKernel(grid, (1.0 - vals[:, None] * np.conj(vals)[None, :]) / s2inv)
        rep = bs.dbr_test_polydisc(k, [pair.k1, pair.k2], 1e-9)
        assert rep.passed
        # breaking the sum identity must fail even with PSD components
        bad = bs.dbr_test_polydisc(k, [pair.k2, pair.k1], 1e-9)
        if bad.sum_residual > 1e-9:
            assert not bad.passed


def test_polydisc_three_variables():
    grid = bs.make_grid("polydisc-3", 8, seed=46)
    s3 = SampledKernel(grid, szego_gram(grid))
    z1 = grid.points[:, 0]
    k1 = SampledKernel(grid, 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    zero = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    assert bs.dbr_test_polydisc(s3, [k1, zero, zero]).passed


def test_ball_drury_arveson():
    grid = bs.make_grid("ball-2", 10, seed=47)
    assert bs.dbr_test_ball(SampledKernel(grid, drury_arveson_gram(grid))).passed


def test_ball_constant_kernel():
    grid = bs.make_grid("ball-2", 10, seed=48)
    assert bs.dbr_test_ball(SampledKernel(grid, np.ones((10, 10), dtype=complex))).passed


def test_ball_twice_drury_arveson_fails():
    grid = bs.make_grid("ball-2", 10, seed=49)
    rep = bs.dbr_test_ball(SampledKernel(grid, 2 * drury_arveson_gram(grid)))
    assert not rep.passed
    assert rep.min_eigenvalue < -0.5


def operator_theta(rng, e=2, h=3):
    u = random_unitary(rng, e + h)
    return ThetaRealization(u[:e, :e], u[:e, e:], u[e:, :e], u[e:, e:], e)


def test_kernel_values_match_pairwise_reference():
    rng = np.random.default_rng(85)
    grid = disc_grid(86, n=7)
    for e in (1, 2, 3):
        theta = operator_theta(rng, e=e, h=3)
        z = grid.points[:, 0]
        expected = np.empty((7, 7, e, e), dtype=complex)
        for i in range(7):
            for j in range(7):
                ti, tj = theta.theta(z[i]), theta.theta(z[j])
                expected[i, j] = (np.eye(e) - ti @ tj.conj().T) / (1 - z[i] * np.conj(z[j]))
        values = theta.kernel_values(grid)
        assert values.shape == ((7, 7) if e == 1 else (7, 7, e, e))
        assert np.max(np.abs(values.reshape(expected.shape) - expected)) < 1e-13


def test_dbr_disc_operator_valued():
    rng = np.random.default_rng(81)
    grid = disc_grid(82, n=6)
    theta = operator_theta(rng)
    k = SampledKernel(grid, theta.kernel_values(grid), dim=2)
    rep = bs.dbr_test_disc(k)
    assert rep.is_dbr
    # doubling breaks the defect positivity just like in the scalar case
    k2 = SampledKernel(grid, 2 * theta.kernel_values(grid), dim=2)
    assert not bs.dbr_test_disc(k2).is_dbr


def test_dbr_nf_operator_valued():
    rng = np.random.default_rng(83)
    grid = disc_grid(84, n=6)
    theta = operator_theta(rng)
    # K = T(z) T(w)* / (1 - z conj(w)) passes both halves of the pair
    s = 1.0 / (1.0 - grid.points[:, 0][:, None] * np.conj(grid.points[:, 0])[None, :])
    thetas = [theta.theta(complex(z)) for z in grid.points[:, 0]]
    vals = np.empty((6, 6, 2, 2), dtype=complex)
    for i in range(6):
        for j in range(6):
            vals[i, j] = s[i, j] * (thetas[i] @ thetas[j].conj().T)
    k = SampledKernel(grid, vals, dim=2)
    rep = bs.dbr_test_nf(k)
    assert rep.dominated_by_szego and rep.hadamard_psd


def test_dbr_polydisc_operator_valued():
    grid = bs.make_grid("bidisc", 6, seed=85)
    n = len(grid)
    eye = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
    s2 = szego_gram(grid)
    z1 = grid.points[:, 0]
    s_var1 = 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :])
    k = SampledKernel(grid, s2[:, :, None, None] * eye, dim=2)
    k1 = SampledKernel(grid, s_var1[:, :, None, None] * eye, dim=2)
    k2 = SampledKernel(grid, np.zeros((n, n, 2, 2), dtype=complex), dim=2)
    assert bs.dbr_test_polydisc(k, [k1, k2]).passed


def test_value_dimension_guard():
    grid = disc_grid(86, n=2)
    with pytest.raises(ValueError):
        SampledKernel(grid, np.zeros((2, 2, 9, 9), dtype=complex), dim=9)


def test_sampled_kernel_validation():
    grid = disc_grid(50, n=3)
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        SampledKernel(grid, bad)   # not Hermitian in the pair
    with pytest.raises(ValueError):
        SampledKernel(grid, np.ones((2, 2), dtype=complex))
    operator_valued = np.zeros((3, 3, 2, 2))
    operator_valued[1, 1, 0, 0] = np.inf
    for values, dim in ((np.diag([1.0, np.nan, 1.0]), 1), (operator_valued, 2)):
        with pytest.raises(ValueError, match="finite"):
            SampledKernel(grid, values, dim)


def random_kernel(rng, grid, dim):
    """A PSD kernel of value dimension dim and rank 3 on the grid, of norm ~ 1."""
    n = len(grid)
    rows = (rng.normal(size=(n * dim, 3)) + 1j * rng.normal(size=(n * dim, 3))) / np.sqrt(n * dim)
    vals = (rows @ rows.conj().T).reshape(n, dim, n, dim).transpose(0, 2, 1, 3)
    return SampledKernel(grid, vals[:, :, 0, 0] if dim == 1 else vals, dim)


def smallest_eigenvalue(g):
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2.0)[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dbr_tests_match_loop_defect_gram(dim):
    rng = np.random.default_rng(90 + dim)
    products = lambda z: z[:, None] * np.conj(z)[None, :]

    disc = random_kernel(rng, disc_grid(91, n=9), dim)
    s = 1.0 - products(disc.grid.points[:, 0])
    want = smallest_eigenvalue(loop_defect_gram(disc, s))
    assert abs(bs.dbr_test_disc(disc).min_eigenvalue - want) <= 1e-12
    nf = bs.dbr_test_nf(disc).min_eigenvalues
    assert abs(nf[0] - smallest_eigenvalue(loop_defect_gram(disc, np.ones_like(s), 1.0 / s))) <= 1e-12
    assert abs(nf[1] - smallest_eigenvalue(loop_defect_gram(disc, -s, np.zeros_like(s)))) <= 1e-12

    poly = random_kernel(rng, bs.make_grid("polydisc-2", 8, seed=92), dim)
    pts = poly.grid.points
    full = (1.0 - products(pts[:, 0])) * (1.0 - products(pts[:, 1]))
    rep = bs.dbr_test_polydisc(poly, [poly, poly])
    assert abs(rep.hadamard_min_eigenvalue
               - smallest_eigenvalue(loop_defect_gram(poly, full))) <= 1e-12

    ball = random_kernel(rng, bs.make_grid("ball-2", 8, seed=93), dim)
    pts = ball.grid.points
    weight = 1.0 - pts @ pts.conj().T
    assert abs(bs.dbr_test_ball(ball).min_eigenvalue
               - smallest_eigenvalue(loop_defect_gram(ball, weight))) <= 1e-12


def test_block_view_is_not_a_copy():
    k = random_kernel(np.random.default_rng(94), disc_grid(95, n=4), 1)
    assert k.values.shape == (4, 4)
    blocks = kernels._blocks(k.values, k.dim)
    assert blocks.shape == (4, 4, 1, 1) and np.shares_memory(blocks, k.values)
