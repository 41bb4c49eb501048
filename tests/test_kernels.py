import os
import tracemalloc

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import kernels, numlin
from bidisc_schur.errors import GridMismatchError, NotCoisometricError, NotDbrError
from bidisc_schur.kernels import SampledKernel, ThetaRealization
from helpers import (
    composed_blaschke,
    dense_resolvent_solve,
    drury_arveson_gram,
    gauge_shifted_agler_pair,
    loop_defect_gram,
    permutation_colligation,
    random_theta,
    random_two_var_unitary,
    random_unitary,
    szego_gram,
    unitary_colligation,
)


def disc_grid(seed=0, n=10):
    return bs.make_grid("disc", n, seed=seed)


def test_agler_kernels_permutation():
    grid = bs.make_grid("bidisc", 12, seed=19)
    pair = bs.agler_kernels_of(permutation_colligation(), grid)
    z1 = grid.points[:, 0]
    k1, k2 = pair.kernels
    assert np.allclose(k1.values, 1.0)
    assert np.allclose(k2.values, z1[:, None] * np.conj(z1)[None, :])
    assert pair.max_residual < 1e-14


def test_agler_kernels_constant():
    v = bs.Colligation(np.exp(0.4j), np.zeros((1, 0)), np.zeros((0, 1)),
                       np.zeros((0, 0)), [0, 0])
    grid = bs.make_grid("bidisc", 8, seed=20)
    pair = bs.agler_kernels_of(v, grid)
    assert all(np.allclose(k.values, 0.0) for k in pair.kernels)


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
        k1, k2 = pair.kernels
        assert np.max(np.abs(k1.values - k1_closed)) < 1e-9
        assert np.max(np.abs(k2.values - k2_closed)) < 1e-9
        # the state rows H(z) = B (I - E(z) D)^{-1}, solved densely point by point
        reps = np.repeat(grid.points, v.partition, axis=1)
        rows = dense_resolvent_solve(v.D, reps, v.B.T, transpose=True)[:, :, 0]
        h1 = v.partition[0]
        for got, r in ((k1.values, rows[:, :h1]), (k2.values, rows[:, h1:])):
            want = r @ r.conj().T
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


def test_agler_kernels_rejects_non_coisometric():
    v = bs.Colligation(0.0, [[0.5, 0.0]], [[1.0], [0.0]], np.zeros((2, 2)), [1, 1])
    with pytest.raises(NotCoisometricError):
        bs.agler_kernels_of(v, bs.make_grid("bidisc", 5, seed=1))


def test_agler_kernels_three_blocks_round_trip():
    # colligation -> one Agler kernel per state block on a polydisc-3 grid ->
    # verify_agler_decomposition -> dbr_test_polydisc on
    # K = (1 - f f*) / prod_j (1 - z_j conj(w_j)) with those components
    v = unitary_colligation(np.random.default_rng(1), [2, 1, 2])
    grid = bs.make_grid("polydisc-3", 50, seed=1)
    pair = bs.agler_kernels_of(v, grid)
    assert len(pair.kernels) == 3 and pair.max_residual <= 1e-13
    assert all(k.is_psd(1e-9) for k in pair.kernels)
    rep = bs.verify_agler_decomposition(v, pair.kernels, 1e-9)
    assert rep.passed and rep.max_residual <= 1e-13
    pts = grid.points
    vals = v(*pts.T)
    weight = np.prod([1.0 - pts[:, i, None] * np.conj(pts[None, :, i]) for i in range(3)], axis=0)
    k = SampledKernel(grid, (1.0 - vals[:, None] * np.conj(vals)[None, :]) / weight)
    poly = bs.dbr_test_polydisc(k, pair.kernels, 1e-9)
    assert poly.passed and poly.sum_residual <= 1e-12


@pytest.mark.parametrize("partition,ambient", [([3], "bidisc"), ([1, 2], "polydisc-3"),
                                               ([1, 2], "torus2"), ([1, 1, 1], "ball-3")])
def test_agler_kernels_need_a_polydisc_grid_of_the_colligations_arity(partition, ambient):
    v = unitary_colligation(np.random.default_rng(3), partition)
    grid = bs.make_grid(ambient, 4, seed=1)
    name = {1: "disc", 2: "bidisc"}.get(len(partition), f"polydisc-{len(partition)}")
    with pytest.raises(GridMismatchError, match=f"agler_kernels_of needs a {name} grid"):
        bs.agler_kernels_of(v, grid)


def test_agler_kernels_one_block_is_the_disc_kernel():
    # one state block: K_1 = (1 - f f*) / (1 - z conj(w)), the disc's
    # de Branges-Rovnyak kernel of the Blaschke product f
    v = bs.model_colligation(1.0, [0.5, -0.3j])
    grid = bs.make_grid("disc", 12, seed=4)
    (k1,) = bs.agler_kernels_of(v, grid).kernels
    z, vals = grid.points[:, 0], v(grid.points[:, 0])
    want = (1.0 - vals[:, None] * np.conj(vals)[None, :]) / (1.0 - z[:, None] * np.conj(z)[None, :])
    assert np.max(np.abs(k1.values - want)) <= 1e-12
    assert bs.verify_agler_decomposition(v, [k1]).passed


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_verify_decomposition_flips_at_the_floored_threshold(tol, factor):
    # f = c: 1 - |c|^2 = (1 - z1 conj(w1)) K1 with K1 = (1 - |c|^2)/(1 - z1 conj(w1))
    # and K2 = 0, exactly up to rounding; a diagonal entry added to K2 moves
    # the residual to factor x numlin.floored(tol, ||1 - f f*||_F), whose
    # floor decides at tol = 1e-12 and tol itself at 1e-6
    grid = bs.make_grid("bidisc", 12, seed=5)
    z1, z2 = grid.points.T
    c = 0.5
    k1 = SampledKernel(grid, (1 - c * c) / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    threshold = numlin.floored(tol, (1 - c * c) * len(grid))
    delta = np.zeros((len(grid), len(grid)), dtype=complex)
    delta[0, 0] = factor * threshold / (1.0 - abs(z2[0]) ** 2)
    rep = bs.verify_agler_decomposition(lambda a, b: np.full(a.shape, c),
                                        [k1, SampledKernel(grid, delta)], tol)
    assert rep.max_residual == pytest.approx(factor * threshold, rel=1e-6)
    assert rep.passed == (factor < 1)


def test_verify_decomposition_permutation():
    grid = bs.make_grid("bidisc", 12, seed=23)
    pair = bs.agler_kernels_of(permutation_colligation(), grid)
    rep = bs.verify_agler_decomposition(lambda a, b: a * b, pair.kernels, 1e-12)
    assert rep.passed and rep.max_residual < 1e-14


def test_verify_decomposition_zero_kernels_fail():
    grid = bs.make_grid("bidisc", 8, seed=24)
    zero = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    rep = bs.verify_agler_decomposition(lambda a, b: a * b, [zero, zero], 1e-9)
    assert not rep.passed


def test_verify_decomposition_grid_mismatch():
    g1 = bs.make_grid("bidisc", 6, seed=1)
    g2 = bs.make_grid("bidisc", 6, seed=2)
    k1 = SampledKernel(g1, np.zeros((6, 6), dtype=complex))
    k2 = SampledKernel(g2, np.zeros((6, 6), dtype=complex))
    with pytest.raises(GridMismatchError):
        bs.verify_agler_decomposition(lambda a, b: a * b, [k1, k2])


def test_roundtrip_random_coisometric():
    rng = np.random.default_rng(25)
    grid = bs.make_grid("bidisc", 40, seed=26)
    for _ in range(10):
        v = random_two_var_unitary(rng)
        pair = bs.agler_kernels_of(v, grid)
        assert all(k.is_psd(1e-9) for k in pair.kernels)
        rep = bs.verify_agler_decomposition(v, pair.kernels, 1e-9)
        assert rep.passed


def test_dbr_disc_constant_kernel():
    grid = disc_grid(27)
    k = SampledKernel(grid, np.ones((10, 10), dtype=complex))
    assert bs.dbr_test_disc(k).is_psd
    # defect table is the rank-one Gram z conj(w)
    s = kernels._domain_factor(grid)
    assert bs.psd_factor(kernels._dbr_grams(k.values, k.dim, s)[1]).shape == (10, 1)


def test_dbr_disc_twice_szego_fails():
    grid = disc_grid(28)
    rep = bs.dbr_test_disc(SampledKernel(grid, 2 * szego_gram(grid)))
    assert not rep.is_psd
    assert rep.min_eigenvalue < -0.5


@pytest.mark.parametrize("name", ["negative-szego", "1.02-mobius"])
def test_dbr_disc_refuses_a_kernel_that_is_not_psd(name):
    # I - (1 - z conj(w)) K is PSD for both (2 and T(z)T(w)*), so only the
    # Gram of K can refuse them; the report is its own
    k = mobius_kernel(1.02, 30)
    if name == "negative-szego":
        k = SampledKernel(k.grid, -szego_gram(k.grid))
    assert bs.is_psd(loop_defect_gram(k, kernels._domain_factor(k.grid)))
    rep = bs.dbr_test_disc(k)
    assert not rep.is_psd
    assert rep.min_eigenvalue == bs.is_psd(k.gram()).min_eigenvalue < -0.5
    with pytest.raises(NotDbrError, match="kernel Gram not PSD"):
        bs.dbr_reconstruct_disc(k)


def test_dbr_ball_refuses_negated_drury_arveson():
    grid = bs.make_grid("ball-2", 20, seed=0)
    assert bs.dbr_test_ball(SampledKernel(grid, drury_arveson_gram(grid))).is_psd
    rep = bs.dbr_test_ball(SampledKernel(grid, -drury_arveson_gram(grid)))
    assert not rep.is_psd and rep.min_eigenvalue < -0.5


def test_verify_agler_decomposition_requires_psd_kernels():
    grid = bs.make_grid("bidisc", 12, seed=19)
    pair = gauge_shifted_agler_pair(grid, 10.0)
    rep = bs.verify_agler_decomposition(permutation_colligation(), pair)
    assert rep.max_residual < 1e-12
    assert rep.kernels_psd == (False, False)
    assert not rep.passed


def test_dbr_disc_theta_kernel():
    rng = np.random.default_rng(29)
    grid = disc_grid(30, n=12)
    for _ in range(5):
        theta = random_theta(rng)
        k = SampledKernel(grid, theta.kernel_values(grid))
        assert bs.dbr_test_disc(k).is_psd


def test_dbr_reconstruct_constant_kernel():
    grid = bs.PointGrid("disc", np.array([[0.0], [0.4], [-0.3j]]))
    k = SampledKernel(grid, np.ones((3, 3), dtype=complex))
    theta = bs.dbr_reconstruct_disc(k)
    assert np.max(np.abs(theta.kernel_values(grid) - k.values)) <= 1e-8
    # gauge freedom: |theta| must match |z| on the grid
    mods = [float(np.abs(theta(complex(z)))[0, 0]) for z in grid.points[:, 0]]
    assert mods == pytest.approx([0.0, 0.4, 0.3], abs=1e-8)


def test_dbr_reconstruct_szego_gives_null_symbol():
    grid = bs.PointGrid("disc", np.array([[0.0], [0.4], [-0.3j]]))
    k = SampledKernel(grid, szego_gram(grid))
    theta = bs.dbr_reconstruct_disc(k)
    assert np.max(np.abs(theta.kernel_values(grid) - k.values)) <= 1e-8
    for z in grid.points[:, 0]:
        assert np.max(np.abs(theta(complex(z)))) <= 1e-10


def test_dbr_reconstruct_mobius_roundtrip():
    half = ThetaRealization([[0.5]], [[np.sqrt(3) / 2]], [[np.sqrt(3) / 2]],
                            [[-0.5]])
    # sanity: this realization evaluates to (z + 1/2)/(1 + z/2)
    assert half(0.3)[0, 0] == pytest.approx(0.8 / 1.15)
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
    theta = ThetaRealization(u[:e, :e], u[:e, e:], u[e:, :e], u[e:, e:])
    grid = disc_grid(36, n=8)
    k = SampledKernel(grid, theta.kernel_values(grid), dim=e)
    rebuilt = bs.dbr_reconstruct_disc(k)
    assert rebuilt.e_star == e
    assert np.max(np.abs(rebuilt.kernel_values(grid) - k.values)) <= 1e-7


def test_dbr_grams_decomposed_once(monkeypatch):
    # one eigensolve per Gram of the de Branges-Rovnyak rule: in
    # dbr_test_disc one eigvalsh each for the PSD tests of the kernel and
    # defect Grams, and on reconstruction one eigh each for their factors,
    # which also decides that they are PSD
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
    assert calls == {"eigvalsh": 2, "eigh": 0}
    bs.dbr_reconstruct_disc(k)
    assert calls == {"eigvalsh": 2, "eigh": 2}
    # a refusal reports the least eigenvalue of the one eigh that found it
    bad = SampledKernel(grid, 2 * szego_gram(grid))
    with pytest.raises(NotDbrError) as err:
        bs.dbr_reconstruct_disc(bad)
    assert calls == {"eigvalsh": 2, "eigh": 3}
    s = kernels._domain_factor(grid)
    lam_min = bs.is_psd(kernels._dbr_grams(bad.values, bad.dim, s)[1]).min_eigenvalue
    assert str(err.value) == f"defect Gram not PSD (lambda_min = {lam_min:.3e})"


def mobius_kernel(r, n):
    """(1 - T(z) conj(T(w)))/(1 - z conj(w)) of T = r (z - 0.4)/(1 - 0.4 z)
    on a seeded disc grid: a Schur symbol, inner only for r = 1."""
    grid = disc_grid(3, n=n)
    z = grid.points[:, 0]
    t = r * (z - 0.4) / (1 - 0.4 * z)
    return SampledKernel(grid, (1 - np.outer(t, np.conj(t))) / (1 - np.outer(z, np.conj(z))))


def test_dbr_test_disc_peak_allocation():
    # K is decided, and its Gram freed, before the domain factor s and the
    # table I - s K are built: 48.8 B n^2 at n = 400, where holding all three
    # at once took 64.8
    n = 400
    k = mobius_kernel(0.9, n)
    tracemalloc.start()
    try:
        assert bs.dbr_test_disc(k).is_psd
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50 * n ** 2


@pytest.mark.parametrize("r", [0.3, 0.8, 0.99])
def test_dbr_reconstruct_non_inner_is_coisometric_to_rounding(r):
    # the isometry is a polar factor, so it is co-isometric to rounding
    # whatever the conditioning of the data map
    k = mobius_kernel(r, 8)
    theta = bs.dbr_reconstruct_disc(k)
    assert theta.coisometry_defect() <= 1e-13
    assert np.max(np.abs(theta.kernel_values(k.grid) - k.values)) <= 1e-12


def test_dbr_reconstruct_has_no_isometry_check():
    # the isometry is built, not checked; the kernel residual is the one gate
    src = os.path.join(os.path.dirname(bs.__file__))
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                assert "not isometric on its span" not in fh.read(), name


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
                               rebuilt.D)
    assert np.max(np.abs(rotated.kernel_values(grid) - rebuilt.kernel_values(grid))) < 1e-12


def test_dbr_monotone_under_subgrids():
    # PSD of the full Gram implies PSD of any principal subgrid Gram: a
    # failing test cannot become passing by adding points
    rng = np.random.default_rng(39)
    grid = disc_grid(40, n=10)
    theta = random_theta(rng)
    k_full = SampledKernel(grid, theta.kernel_values(grid))
    assert bs.dbr_test_disc(k_full).is_psd
    sub = bs.PointGrid("disc", grid.points[:4])
    k_sub = SampledKernel(sub, k_full.values[:4, :4])
    assert bs.dbr_test_disc(k_sub).is_psd

    small = bs.PointGrid("disc", bs.make_grid("disc", 4, seed=5).points)
    big = bs.PointGrid("disc", np.concatenate(
        [small.points, bs.make_grid("disc", 6, seed=6).points]))
    assert not bs.dbr_test_disc(SampledKernel(small, 2 * szego_gram(small))).is_psd
    assert not bs.dbr_test_disc(SampledKernel(big, 2 * szego_gram(big))).is_psd


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
        rep = bs.dbr_test_polydisc(k, pair.kernels, 1e-9)
        assert rep.passed
        # breaking the sum identity must fail even with PSD components
        bad = bs.dbr_test_polydisc(k, pair.kernels[::-1], 1e-9)
        if bad.sum_residual > 1e-9:
            assert not bad.passed


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
def test_polydisc_sum_identity_passes_at_the_floored_threshold(tol, scale, passed):
    # the bidisc dBR kernel of a unitary colligation with its Agler kernels
    # as components; lowering one diagonal entry of K moves the sum residual
    # to scale times numlin.floored(tol, ||K||_F) and keeps the Gram of
    # I - (1 - z1 conj(w1))(1 - z2 conj(w2)) K PSD.  At tol = 1e-6 the
    # threshold is tol, at tol = 1e-12 the rounding floor
    v = unitary_colligation(np.random.default_rng(88), [2, 1])
    grid = bs.make_grid("bidisc", 12, seed=89)
    pair = bs.agler_kernels_of(v, grid)
    vals = v(*grid.points.T)
    weight = np.prod([1.0 - grid.points[:, i, None] * np.conj(grid.points[None, :, i])
                      for i in range(2)], axis=0)
    table = (1.0 - vals[:, None] * np.conj(vals)[None, :]) / weight
    threshold = numlin.floored(tol, numlin.frob(table))
    assert (threshold == tol) == (tol == 1e-6)
    table[0, 0] -= scale * threshold
    rep = bs.dbr_test_polydisc(SampledKernel(grid, table), pair.kernels, tol)
    assert rep.sum_residual == pytest.approx(scale * threshold, rel=1e-4)
    assert all(rep.kernels_psd) and rep.hadamard_min_eigenvalue >= -tol
    assert rep.passed is passed


def test_polydisc_three_variables():
    grid = bs.make_grid("polydisc-3", 8, seed=46)
    s3 = SampledKernel(grid, szego_gram(grid))
    z1 = grid.points[:, 0]
    k1 = SampledKernel(grid, 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    zero = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    assert bs.dbr_test_polydisc(s3, [k1, zero, zero]).passed


def test_ball_drury_arveson():
    grid = bs.make_grid("ball-2", 10, seed=47)
    assert bs.dbr_test_ball(SampledKernel(grid, drury_arveson_gram(grid))).is_psd


def test_ball_constant_kernel():
    grid = bs.make_grid("ball-2", 10, seed=48)
    assert bs.dbr_test_ball(SampledKernel(grid, np.ones((10, 10), dtype=complex))).is_psd


def test_ball_twice_drury_arveson_fails():
    grid = bs.make_grid("ball-2", 10, seed=49)
    rep = bs.dbr_test_ball(SampledKernel(grid, 2 * drury_arveson_gram(grid)))
    assert not rep.is_psd
    assert rep.min_eigenvalue < -0.5


def operator_theta(rng, e=2, h=3):
    u = random_unitary(rng, e + h)
    return ThetaRealization(u[:e, :e], u[:e, e:], u[e:, :e], u[e:, e:])


def test_symbol_call_is_vectorized():
    # T(z) = A* + z C* (I - z D*)^{-1} B*, an e_star x e matrix at each
    # point of z, stacked as z.shape + (e_star, e)
    rng = np.random.default_rng(87)
    e, e_star, h = 2, 3, 4
    m = rng.normal(size=(e + h, e_star + h)) + 1j * rng.normal(size=(e + h, e_star + h))
    m /= 2 * np.linalg.norm(m, 2)
    a, b, c, d = m[:e, :e_star], m[:e, e_star:], m[e:, :e_star], m[e:, e_star:]
    theta = ThetaRealization(a, b, c, d)
    z = disc_grid(88, n=12).points[:, 0]
    want = np.array([a.conj().T + w * c.conj().T @ np.linalg.solve(
        np.eye(h) - w * d.conj().T, b.conj().T) for w in z])
    single = np.array([theta(w) for w in z])
    assert theta(z[0]).shape == (e_star, e)
    assert np.max(np.abs(single - want)) < 1e-14
    assert np.max(np.abs(theta(z) - single)) < 1e-15
    grid = theta(z.reshape(3, 4))
    assert grid.shape == (3, 4, e_star, e)
    assert np.max(np.abs(grid - single.reshape(3, 4, e_star, e))) < 1e-15


def test_kernel_values_match_pairwise_reference():
    rng = np.random.default_rng(85)
    grid = disc_grid(86, n=7)
    for e in (1, 2, 3):
        theta = operator_theta(rng, e=e, h=3)
        z = grid.points[:, 0]
        expected = np.empty((7, 7, e, e), dtype=complex)
        for i in range(7):
            for j in range(7):
                ti, tj = theta(z[i]), theta(z[j])
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
    assert rep.is_psd
    # doubling breaks the defect positivity just like in the scalar case
    k2 = SampledKernel(grid, 2 * theta.kernel_values(grid), dim=2)
    assert not bs.dbr_test_disc(k2).is_psd


def test_dbr_nf_operator_valued():
    rng = np.random.default_rng(83)
    grid = disc_grid(84, n=6)
    theta = operator_theta(rng)
    # K = T(z) T(w)* / (1 - z conj(w)) passes both halves of the pair
    s = 1.0 / (1.0 - grid.points[:, 0][:, None] * np.conj(grid.points[:, 0])[None, :])
    thetas = [theta(complex(z)) for z in grid.points[:, 0]]
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
