import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import colligation, factor, numlin, serialize
from bidisc_schur.colligation import _zero_coupling_parts, transfer_grid, transfer_torus
from bidisc_schur.errors import (
    AxesOnlyGridError,
    ClassMismatchError,
    ConditionFailedError,
    GridMismatchError,
    GridNotCompanionedError,
    IdentityViolatedError,
    OriginZeroError,
    ResolventIllConditionedError,
)
from bidisc_schur.functions import shared_grid
from bidisc_schur.kernels import SampledKernel
from helpers import (
    as_json,
    blaschke_callable,
    composed_blaschke,
    contraction,
    count_calls,
    count_linalg_solves,
    difference_quotient_colligation,
    loop_section_residual,
    mobius,
    not_separable_tiny_origin,
    permutation_colligation,
    random_blaschke,
    szego_gram,
    tabulate,
    triangular_contraction,
    vt_colligation,
)


@pytest.fixture
def bidisc_grid():
    return bs.make_grid("bidisc", 40, seed=51)


def test_separability_mobius_product(bidisc_grid):
    f = lambda z1, z2: mobius(-0.5)(z1) * mobius(1 / 3)(z2)
    rep = bs.separability_test(f, bidisc_grid, 1e-12)
    assert rep.separable and rep.max_residual < 1e-12
    # factor samples multiply back to the function values
    z1, z2 = bidisc_grid.points[:, 0], bidisc_grid.points[:, 1]
    assert np.allclose(rep.factor1_samples * rep.factor2_samples, f(z1, z2))
    k = int(np.argmax(np.abs(rep.factor1_samples)))
    assert rep.factor1_samples[k].imag == pytest.approx(0.0, abs=1e-12)
    assert rep.factor1_samples[k].real > 0
    assert np.max(np.abs(rep.factor1_samples)) <= 1.0 + 1e-12


def test_separability_rejects_product_mobius(bidisc_grid):
    phi = bs.mobius_of_product(0.5)
    rep = bs.separability_test(phi, bidisc_grid)
    assert not rep.separable
    # closed form of the residual: |phi(z) phi(0) - t^2| = t(1-t^2)|z1 z2|/|1-t z1 z2|
    t = 0.5
    z1, z2 = bidisc_grid.points[:, 0], bidisc_grid.points[:, 1]
    expected = np.max(t * (1 - t * t) * np.abs(z1 * z2) / np.abs(1 - t * z1 * z2))
    assert rep.max_residual == pytest.approx(float(expected), rel=1e-9)


def test_separability_constant(bidisc_grid):
    rep = bs.separability_test(lambda z1, z2: 0.3 + 0.0 * z1, bidisc_grid, 1e-12)
    assert rep.separable


def test_separability_origin_zero(bidisc_grid):
    with pytest.raises(OriginZeroError):
        bs.separability_test(lambda z1, z2: z1 * z2, bidisc_grid)


def test_separability_is_decided_relative_to_the_origin():
    f = not_separable_tiny_origin()
    assert abs(f(0.0, 0.0)) == pytest.approx(0.0897 ** 8 / 2, rel=1e-12)
    # the default CLI grid; the residual is below tol taken absolutely
    rep = bs.separability_test(f, bs.make_grid("bidisc", 40, seed=0))
    assert rep.max_residual < numlin.DEFAULT_TOL
    assert not rep.separable


def test_separability_at_a_small_origin_value(bidisc_grid):
    # f(0) = 1e-8, above tol; the identity holds up to its rounding relative to f(0)
    f = lambda z1, z2: mobius(1e-4)(z1) * mobius(1e-4)(z2)
    rep = bs.separability_test(f, bidisc_grid)
    assert rep.separable


def test_separability_solves_cascades_by_substitution(bidisc_grid, monkeypatch):
    # a cascade's D is upper triangular: no LU solve; V_t's coupling entry
    # t sits below the diagonal, so its solves are LU solves
    v, f1, f2 = composed_blaschke(np.random.default_rng(53), max_degree=6)
    calls = count_linalg_solves(monkeypatch)
    solves = count_calls(monkeypatch, colligation, "_resolvent_solve")
    grids = count_calls(monkeypatch, colligation, "transfer_grid")
    rep = bs.separability_test(v, bidisc_grid)
    assert rep.separable and calls == []
    # zero coupling: one row solve and one column solve, and transfer_grid
    # only for f(0, 0), which solves nothing
    assert len(solves) == 2 and len(grids) <= 1
    assert all(np.all(args[1] == 0) for args in grids)
    z1, z2 = bidisc_grid.points[:, 0], bidisc_grid.points[:, 1]
    assert np.allclose(rep.factor1_samples * rep.factor2_samples, f1(z1) * f2(z2))
    del grids[:]
    assert not bs.separability_test(vt_colligation(0.5), bidisc_grid).separable
    assert calls
    # V_t has a coupling block: f(0, 0), f and its two sections
    assert len(grids) == 4


def agree(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want), initial=0.0) <= 1e-13


def zero_coupling_cases(rng, partition):
    """A triangular D (substitution) and full diagonal blocks D1 and D4
    (LU, wherever a block is larger than 1 x 1)."""
    v = contraction(rng, *partition, zero_lower_left=True)
    assert all(len(d) < 2 or np.tril(d, -1).any() for d in (v.D1, v.D4))
    return triangular_contraction(rng, *partition), v


@pytest.mark.parametrize("partition", [(0, 6), (6, 0), (1, 1), (3, 5), (12, 12)])
def test_zero_coupling_separability_matches_transfer_grid(partition):
    rng = np.random.default_rng(17 * partition[0] + partition[1])
    grid = bs.make_grid("bidisc", 200, seed=9)
    z1, z2 = grid.points[:, 0], grid.points[:, 1]
    zero = np.zeros_like(z1)
    torus = bs.make_grid("torus2", 16).points
    for v in zero_coupling_cases(rng, partition):
        sec1, rows, x2 = _zero_coupling_parts(v, z1, z2)
        assert agree(sec1 + np.einsum("ij,ij->i", rows, x2), transfer_grid(v, grid.points))
        assert agree(sec1, transfer_grid(v, np.column_stack([z1, zero])))
        assert agree(v.a + x2 @ v.B2[0], transfer_grid(v, np.column_stack([zero, z2])))
        # the report against the generic path, which a plain callable takes
        fast = bs.separability_test(v, grid)
        slow = bs.separability_test(lambda *z: v(*z), grid)
        assert agree(fast.max_residual, slow.max_residual)
        assert agree(fast.gauge, slow.gauge)
        assert agree(fast.factor1_samples, slow.factor1_samples)
        assert agree(fast.factor2_samples, slow.factor2_samples)
        assert agree(transfer_torus(v, 16), transfer_grid(v, torus).reshape(16, 16))


def test_zero_coupling_constant_ignores_poles():
    # B = 0: the transfer function is the constant a although I - z D is
    # singular at (1/2, 1/2) and on the torus at (1, 1)
    v = bs.Colligation(0.4, [[0.0, 0.0]], [[1.0], [1.0]], [[2.0, 1.0], [0.0, 2.0]], [1, 1])
    grid = bs.PointGrid("bidisc", [[0.5, 0.5], [0.1, -0.2j]])
    rep = bs.separability_test(v, grid)
    assert rep.separable and rep.max_residual == 0.0
    assert np.all(rep.factor1_samples * rep.factor2_samples == 0.4)
    assert np.all(transfer_torus(bs.Colligation(0.4, v.B, v.C, v.D / 2, [1, 1]), 8) == 0.4)


@pytest.mark.parametrize("d1,d4", [
    ([[2.0]], [[0.5]]), ([[0.5]], [[2.0]]),                       # substitution
    ([[1.0, 1.0], [1.0, 1.0]], [[0.5]]), ([[0.5]], [[1.0, 1.0], [1.0, 1.0]]),   # LU
])
def test_zero_coupling_pole_in_either_block_raises(d1, d4):
    # a pole at z = 1/2 in one diagonal block, met at the grid point (1/2, 1/2);
    # at twice the scale the same pole sits at z = 1 on the torus
    d1, d4 = np.array(d1), np.array(d4)
    h1, h2 = len(d1), len(d4)
    d = np.zeros((h1 + h2, h1 + h2))
    d[:h1, :h1], d[h1:, h1:], d[:h1, h1:] = d1, d4, 0.3
    v = bs.Colligation(0.5, np.ones((1, h1 + h2)), np.ones((h1 + h2, 1)), d, [h1, h2])
    grid = bs.PointGrid("bidisc", [[0.1, 0.2], [0.5, 0.5]])
    with pytest.raises(ResolventIllConditionedError):
        bs.separability_test(v, grid)
    with pytest.raises(ResolventIllConditionedError):
        bs.separability_test(lambda *z: v(*z), grid)
    with pytest.raises(ResolventIllConditionedError):
        transfer_torus(bs.Colligation(0.5, v.B, v.C, v.D / 2, [h1, h2]), 8)


def test_separability_refuses_a_grid_off_the_bidisc():
    with pytest.raises(GridMismatchError, match="needs a bidisc grid"):
        bs.separability_test(bs.mobius_of_product(0.5), bs.make_grid("torus2", 4))


@pytest.mark.parametrize("grid", [
    factor.product_grid(1, 1), factor.product_grid(2, 1), factor.product_grid(1, 5),
    bs.PointGrid("bidisc", [[0.5, 0.0], [0.0, -0.3j], [0.4, 1e-13]]),
], ids=["1x1", "2x1", "1x5", "near-axis"])
def test_separability_refuses_a_grid_on_the_axes(grid):
    # f(z) f(0) - f(z1, 0) f(0, z2) vanishes on both axes for every f, so
    # the non-separable (z1 z2 - 1/2)/(1 - z1 z2/2) would pass there
    with pytest.raises(AxesOnlyGridError, match="separability_test needs a grid point off"):
        bs.separability_test(bs.mobius_of_product(0.5), grid)


def test_separability_refuses_a_one_variable_colligation(bidisc_grid):
    with pytest.raises(ValueError, match="1-variable colligation"):
        bs.separability_test(bs.model_colligation(1.0, [0.5]), bidisc_grid)


@pytest.mark.parametrize("p", [np.outer([1.0, -0.3], [1.0, -0.5j]), [[1.0, 0.0], [0.0, -0.5]]],
                         ids=["separable", "mobius-of-product"])
def test_coefficient_separability_ignores_the_scale_of_p(p):
    def decide(scale):
        f = bs.RationalFunction2((0, 0), bs.Poly2(np.asarray(p) * scale))
        return factor._coefficient_separability(f)
    (separable, residual), (tiny_separable, tiny_residual) = decide(1.0), decide(1e-15)
    assert tiny_separable == separable
    assert tiny_residual == pytest.approx(residual, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("f", [bs.Poly2([[0.0]]), bs.PowerSeries2(np.zeros((3, 2)))],
                         ids=["poly", "series"])
def test_coefficient_separability_of_the_zero_table(f):
    assert factor._coefficient_separability(f) == (True, 0.0)


@pytest.mark.parametrize("scale,separable", [(0.5, True), (2.0, False)])
def test_coefficient_separability_passes_at_the_bound(scale, separable):
    # T = [[1, 0], [0, d]]: pivot T[0, 0] = 1, residual d, and s = 1, since
    # ||T||_F = sqrt(1 + d^2) rounds to 1
    d = scale * numlin.bound(numlin.DEFAULT_TOL, 1.0)
    got, residual = factor._coefficient_separability(bs.Poly2([[1.0, 0.0], [0.0, d]]))
    assert (got, residual) == (separable, d)


def test_condition4_composed():
    rng = np.random.default_rng(52)
    for _ in range(5):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.8)
        assert bs.check_condition_4(v)


def test_condition4_vt_false():
    assert not bs.check_condition_4(vt_colligation(0.5))


def test_condition4_state_free():
    # h = 0 needs a unimodular constant to be co-isometric; the block
    # conditions are then vacuous
    v = bs.Colligation(np.exp(0.3j), np.zeros((1, 0)), np.zeros((0, 1)),
                       np.zeros((0, 0)), [0, 0])
    assert bs.check_condition_4(v)
    small = bs.Colligation(0.9, np.zeros((1, 0)), np.zeros((0, 1)),
                           np.zeros((0, 0)), [0, 0])
    assert not bs.check_condition_4(small)


def test_split_mobius_composition():
    a1, a2 = 0.5, -1 / 3
    v = bs.compose_colligations(bs.model_colligation(1.0, [a1]),
                                bs.model_colligation(1.0, [a2]))
    res = bs.split_colligation(v)
    assert res.certificate <= 1e-10
    assert res.v2.a * res.v1.a == pytest.approx(v.a)
    assert res.v1.a.imag == pytest.approx(0.0)
    assert res.v1.a.real > 0
    # |y|^2 = |a|^2 + B2 B2* = 1 - B1 B1*
    b1sq = float(np.linalg.norm(v.B1) ** 2)
    b2sq = float(np.linalg.norm(v.B2) ** 2)
    assert abs(res.v1.a) ** 2 == pytest.approx(abs(v.a) ** 2 + b2sq)
    assert abs(res.v1.a) ** 2 == pytest.approx(1 - b1sq)
    assert res.v1.classify(1e-9).is_coisometry
    assert res.v2.classify(1e-9).is_coisometry
    # factors match the Mobius functions up to the scalar gauge
    grid = bs.make_grid("disc", 20, seed=53).points
    vals1 = transfer_grid(res.v1, grid)
    target1 = mobius(a1)(grid[:, 0])
    gauge = vals1[0] / target1[0]
    assert abs(abs(gauge) - 1.0) < 1e-9
    assert np.max(np.abs(vals1 - gauge * target1)) < 1e-9


def test_split_rejects_origin_zero():
    with pytest.raises(OriginZeroError):
        bs.split_colligation(permutation_colligation())


def test_split_rejects_vt():
    with pytest.raises(ConditionFailedError):
        bs.split_colligation(vt_colligation(0.5))


def test_split_coisometry_identities():
    rng = np.random.default_rng(54)
    for _ in range(10):
        v, _, _ = composed_blaschke(rng, max_degree=4, radius=0.8)
        res = bs.split_colligation(v)
        x, y = res.v2.a, res.v1.a
        b2sq = float(np.linalg.norm(v.B2) ** 2)
        assert abs(x) ** 2 + b2sq / abs(y) ** 2 == pytest.approx(1.0, abs=1e-9)
        c1c1 = (v.C1 @ v.C1.conj().T).astype(complex)
        d1d1 = v.D1 @ v.D1.conj().T
        assert np.allclose(c1c1 / abs(x) ** 2 + d1d1, np.eye(v.partition[0]), atol=1e-9)


def test_compose_shift_factors():
    shift = bs.Colligation(0.0, [[1.0]], [[1.0]], [[0.0]], [1])
    v = bs.compose_colligations(shift, shift)
    assert np.allclose(v.V, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert np.array_equal(v.V, permutation_colligation().V)


def test_compose_mobius_product():
    rng = np.random.default_rng(55)
    v1 = bs.model_colligation(1.0, [0.5])
    v2 = bs.model_colligation(1.0, [-1 / 3])
    v = bs.compose_colligations(v1, v2)
    pts = 0.9 * np.sqrt(rng.uniform(size=(30, 2))) * np.exp(
        2j * np.pi * rng.uniform(size=(30, 2)))
    vals = transfer_grid(v, pts)
    expected = mobius(0.5)(pts[:, 0]) * mobius(-1 / 3)(pts[:, 1])
    assert np.max(np.abs(vals - expected)) < 1e-11


def test_compose_constants():
    u1, u2 = np.exp(0.5j), np.exp(-1.1j)
    c1 = bs.Colligation(u1, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0])
    c2 = bs.Colligation(u2, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0])
    v = bs.compose_colligations(c1, c2)
    assert v.h == 0 and v.a == pytest.approx(u1 * u2)


def test_compose_preserves_class():
    rng = np.random.default_rng(56)
    for _ in range(5):
        c1, z1 = random_blaschke(rng, 3, 0.8)
        c2, z2 = random_blaschke(rng, 3, 0.8)
        v = bs.compose_colligations(bs.model_colligation(c1, z1),
                                    bs.model_colligation(c2, z2))
        assert v.classify(1e-9).is_unitary


def test_compose_class_mismatch():
    # square colligations are isometric iff unitary, so the shared-class
    # guard fires whenever one factor is a strict contraction
    unitary = bs.Colligation(0.0, [[1.0]], [[1.0]], [[0.0]], [1])
    contraction = bs.Colligation(0.0, [[0.5]], [[1.0]], [[0.0]], [1])
    with pytest.raises(ClassMismatchError):
        bs.compose_colligations(unitary, contraction)


def test_split_compose_roundtrip():
    rng = np.random.default_rng(57)
    grid = bs.make_grid("bidisc", 50, seed=58)
    for _ in range(10):
        v, _, _ = composed_blaschke(rng, max_degree=4, radius=0.8)
        res = bs.split_colligation(v)
        back = bs.compose_colligations(res.v1, res.v2)
        assert factor.product_residual(v, res.v1, res.v2, grid) < 1e-9
        vals_v = transfer_grid(v, grid.points)
        vals_back = transfer_grid(back, grid.points)
        assert np.max(np.abs(vals_v - vals_back)) < 1e-9


def test_certificate_grid_is_built_once():
    # one read-only grid, bit for bit the one make_grid builds, certifies
    # every split and composition
    grid = shared_grid("bidisc", factor._CERT_GRID_SIZE, factor._CERT_GRID_SEED)
    assert grid is shared_grid("bidisc", factor._CERT_GRID_SIZE, factor._CERT_GRID_SEED)
    assert not grid.points.flags.writeable
    fresh = bs.make_grid("bidisc", factor._CERT_GRID_SIZE, factor._CERT_GRID_SEED)
    assert grid.same_points(fresh)
    v, _, _ = composed_blaschke(np.random.default_rng(60))
    res = bs.split_colligation(v)
    assert res.certificate == factor.product_residual(v, res.v1, res.v2, fresh)


def test_scaling_gauge_invariance():
    rng = np.random.default_rng(59)
    v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.7)
    res = bs.split_colligation(v)
    u = np.exp(0.7j)
    v1u = bs.Colligation(u * res.v1.a, u * res.v1.B, res.v1.C, res.v1.D,
                         list(res.v1.partition))
    v2u = bs.Colligation(np.conj(u) * res.v2.a, np.conj(u) * res.v2.B,
                         res.v2.C, res.v2.D, list(res.v2.partition))
    grid = bs.make_grid("bidisc", 25, seed=60)
    base = transfer_grid(res.v1, grid.points[:, :1]) * transfer_grid(res.v2, grid.points[:, 1:])
    rotated = transfer_grid(v1u, grid.points[:, :1]) * transfer_grid(v2u, grid.points[:, 1:])
    assert np.max(np.abs(base - rotated)) < 1e-12


def test_weak_converse_composed():
    rng = np.random.default_rng(61)
    for _ in range(5):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.8)
        rep = factor.weak_converse_check(v)
        assert rep.adjoint_identity_residual <= 1e-9
        assert rep.coupling_residual <= 1e-9
        assert rep.factorization.certificate <= 1e-9


def tiny_constant_cascade():
    # two degree-12 Blaschke products, every zero of modulus 0.44: a unitary
    # cascade with f(0) = 0.44^24 = 2.8e-9 and cond(aD - CB) = 3.6e8
    rng = np.random.default_rng(7)
    zeros = [0.44 * np.exp(2j * np.pi * rng.uniform(size=12)) for _ in range(2)]
    return bs.compose_colligations(*(bs.model_colligation(1.0, z) for z in zeros)), zeros


def test_weak_converse_tiny_constant_term():
    # the adjoint identity misses tol (1 + ||D||) = 5.8e-9 by rounding alone
    # (residual near 8e-9); the inversion's rounding bound admits it
    v, zeros = tiny_constant_cascade()
    assert abs(v.a) < 3e-9 and v.classify().is_unitary
    rep = factor.weak_converse_check(v)
    assert rep.adjoint_identity_residual > 1e-9 * (1.0 + np.linalg.norm(v.D))
    assert rep.factorization.certificate <= 1e-12
    z = bs.make_grid("disc", 20, seed=9).points[:, 0]
    for u, zs in zip((rep.factorization.v1, rep.factorization.v2), zeros):
        got = transfer_grid(u, z[:, None])
        want = blaschke_callable(1.0, zs)(z)
        gauge = np.vdot(want, got) / np.vdot(want, want)
        assert np.max(np.abs(got - gauge * want)) <= 1e-9


def test_weak_converse_identity_miss_is_identity_violated(monkeypatch):
    # a unitary V satisfies the identity exactly, so a miss is numerical
    v, _, _ = composed_blaschke(np.random.default_rng(61), max_degree=3, radius=0.8)
    exact = bs.numlin.block_inverse_2x2
    monkeypatch.setattr(bs.numlin, "block_inverse_2x2", lambda *args: 1.01 * exact(*args))
    with pytest.raises(IdentityViolatedError, match="adjoint identity"):
        factor.weak_converse_check(v)


def test_weak_converse_rejects_vt():
    with pytest.raises(ConditionFailedError, match="lower-left"):
        factor.weak_converse_check(vt_colligation(0.5))


def test_weak_converse_rejects_non_unitary_contraction():
    # 0.9 times a certified cascade: a contraction, no longer unitary
    v, _, _ = composed_blaschke(np.random.default_rng(62), max_degree=3, radius=0.8)
    scaled = bs.Colligation(0.9 * v.a, 0.9 * v.B, 0.9 * v.C, 0.9 * v.D, v.partition)
    assert bs.classify(scaled.V).is_contraction and not bs.classify(scaled.V).is_unitary
    with pytest.raises(ConditionFailedError, match="not unitary"):
        factor.weak_converse_check(scaled)


def test_weak_converse_rejects_zero_constant():
    with pytest.raises(OriginZeroError):
        factor.weak_converse_check(permutation_colligation())


@pytest.mark.parametrize("n1,n2", [(0, 3), (3, 0), (-1, 2)])
def test_product_grid_refuses_empty_axes(n1, n2):
    with pytest.raises(ValueError, match="size must be >= 1"):
        factor.product_grid(n1, n2)


def product_agler_kernels(f1, f2):
    def k1(z, w):
        return (1 - f1(z[0]) * np.conj(f1(w[0]))) / (1 - z[0] * np.conj(w[0]))

    def k2(z, w):
        return f1(z[0]) * (1 - f2(z[1]) * np.conj(f2(w[1]))) * np.conj(f1(w[0])) \
            / (1 - z[1] * np.conj(w[1]))

    return k1, k2


def sample(kernel, grid):
    return SampledKernel(grid, tabulate(grid.points, kernel))


def test_factorization_conditions_separable():
    grid = factor.product_grid(5, 5, seed=62)
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    rep = factor.agler_factorization_conditions(f, sample(k1, grid), sample(k2, grid), 1e-10)
    assert rep.cond2
    assert rep.invariance_residual < 1e-12
    assert rep.section_residual < 1e-12


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("scale,passed", [(0.5, True), (2.0, False)])
@pytest.mark.parametrize("condition", ["invariance", "section"])
def test_factorization_conditions_pass_at_the_floored_thresholds(tol, scale, passed, condition):
    # separable kernels on a 5 x 5 product grid (0 first on both axes, so
    # point 1 is (0, axis2[1]) and point 5 is (axis1[1], 0)); one entry moves
    # one residual to scale times numlin.floored(tol, s): the diagonal entry
    # of K1 at point 1 for (a), s = ||K1||_F, and K2 at (point 1, point 5),
    # a column of (b) whose mirror entry (b) never reads, s = |f(0, 0)| times
    # the norm of those columns.  At tol = 1e-6 the threshold is tol, at
    # tol = 1e-12 the rounding floor
    grid = factor.product_grid(5, 5, seed=62)
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = (tabulate(grid.points, k) for k in product_agler_kernels(f1, f2))
    origin = abs(f(0.0, 0.0))
    if condition == "invariance":
        threshold = numlin.floored(tol, numlin.frob(k1))
        k1[1, 1] += scale * threshold
    else:
        threshold = numlin.floored(tol, origin * numlin.frob(k2.reshape(25, 5, 5)[:, :, 0]))
        k2[1, 5] += scale * threshold / origin
        k2[5, 1] = np.conj(k2[1, 5])
    assert (threshold == tol) == (tol == 1e-6)
    rep = factor.agler_factorization_conditions(
        f, SampledKernel(grid, k1), SampledKernel(grid, k2), tol)
    assert getattr(rep, f"{condition}_residual") == pytest.approx(scale * threshold, rel=1e-4)
    assert rep.cond2 is passed


def test_factorization_conditions_need_scalar_kernels():
    grid = factor.product_grid(3, 3, seed=64)
    k = SampledKernel(grid, szego_gram(grid)[:, :, None, None] * np.eye(2), 2)
    with pytest.raises(GridMismatchError, match="factorization conditions are for scalar kernels"):
        factor.agler_factorization_conditions(bs.mobius_of_product(0.5), k, k)


def test_factorization_conditions_product_mobius_fails():
    grid = factor.product_grid(5, 5, seed=63)
    pair = bs.agler_kernels_of(vt_colligation(0.5), grid)
    rep = factor.agler_factorization_conditions(
        bs.mobius_of_product(0.5), *pair.kernels, 1e-9)
    assert not rep.cond2


def condition_cases(grid):
    """(f, K1, K2) on the grid: a separable product of Mobius maps with its
    product Agler kernels, and the non-separable mobius_of_product(0.5) with
    the Agler kernels of its colligation."""
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    k1, k2 = product_agler_kernels(f1, f2)
    pair = bs.agler_kernels_of(vt_colligation(0.5), grid)
    return [(lambda z1, z2: f1(z1) * f2(z2), sample(k1, grid), sample(k2, grid)),
            (bs.mobius_of_product(0.5), *pair.kernels)]


def test_section_residual_matches_loop_reference():
    for f, sk1, sk2 in condition_cases(factor.product_grid(5, 5, seed=62)):
        rep = factor.agler_factorization_conditions(f, sk1, sk2, 1e-9)
        assert rep.section_residual == loop_section_residual(f, sk2)


def test_factorization_conditions_of_kernels_read_from_json():
    # the axes come from the kernels' own points, so kernels written to
    # JSON and parsed back give the same conditions, residuals included
    for f, sk1, sk2 in condition_cases(factor.product_grid(5, 5, seed=62)):
        back1, back2 = (serialize.parse_object(as_json(serialize.kernel_to_json(k)))
                        for k in (sk1, sk2))
        assert factor.agler_factorization_conditions(f, back1, back2, 1e-9) == \
            factor.agler_factorization_conditions(f, sk1, sk2, 1e-9)


def product_points(axis1, axis2):
    """The bidisc grid axis1 x axis2 in row-major order."""
    z1, z2 = np.meshgrid(axis1, axis2, indexing="ij")
    return bs.PointGrid("bidisc", np.column_stack([z1.ravel(), z2.ravel()]))


def test_factorization_conditions_on_a_hand_built_product_grid():
    # 0 is the second value of axis1 and the last of axis2; moving it to
    # the front of both permutes the points, which leaves each section
    # residual as it is
    axis1, axis2 = [0.3, 0.0, -0.2j, 0.1 + 0.4j], [0.5j, -0.25, 0.0]
    hand = [factor.agler_factorization_conditions(f, sk1, sk2, 1e-9)
            for f, sk1, sk2 in condition_cases(product_points(axis1, axis2))]
    front = [factor.agler_factorization_conditions(f, sk1, sk2, 1e-9)
             for f, sk1, sk2 in condition_cases(product_points(np.roll(axis1, -1),
                                                               np.roll(axis2, 1)))]
    assert [rep.cond2 for rep in hand] == [rep.cond2 for rep in front] == [True, False]
    for a, b in zip(hand, front):
        assert a.section_residual == pytest.approx(b.section_residual, rel=1e-12, abs=1e-15)


def test_factorization_conditions_refuse_kernels_on_two_grids():
    f, sk1, _ = condition_cases(factor.product_grid(3, 3, seed=1))[0]
    _, _, sk2 = condition_cases(factor.product_grid(3, 3, seed=2))[0]
    with pytest.raises(GridMismatchError):
        factor.agler_factorization_conditions(f, sk1, sk2, 1e-9)


@pytest.mark.parametrize("grid", [
    bs.make_grid("bidisc", 16, seed=72),
    product_points([0.1, 0.2], [0.0, 0.3]),
    product_points([0.0, 0.2], [0.1j, 0.3]),
    # axis1 x axis2 in column-major order
    bs.PointGrid("bidisc", [[0.0, 0.0], [0.2, 0.0], [0.0, 0.3], [0.2, 0.3]]),
], ids=["random", "no-origin-on-axis1", "no-origin-on-axis2", "column-major"])
def test_factorization_conditions_require_a_product_grid_with_origin(grid):
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    k1, k2 = product_agler_kernels(f1, f2)
    with pytest.raises(GridNotCompanionedError):
        factor.agler_factorization_conditions(
            lambda z1, z2: f1(z1) * f2(z2), sample(k1, grid), sample(k2, grid), 1e-9)


@pytest.mark.parametrize("n1,n2", [(1, 4), (1, 1), (4, 1)])
def test_factorization_conditions_refuse_an_axis_of_one_point(n1, n2):
    # every point lies on an axis, where V_t's kernels pass both conditions
    # with residual 0.0; on 5 x 5 they fail (test_..._product_mobius_fails)
    pair = bs.agler_kernels_of(vt_colligation(0.5), factor.product_grid(n1, n2))
    with pytest.raises(AxesOnlyGridError, match="agler_factorization_conditions needs"):
        factor.agler_factorization_conditions(bs.mobius_of_product(0.5), *pair.kernels)


def test_factorization_conditions_origin_zero_routed():
    grid = factor.product_grid(4, 4, seed=64)
    pair = bs.agler_kernels_of(permutation_colligation(), grid)
    with pytest.raises(OriginZeroError) as err:
        factor.agler_factorization_conditions(
            lambda z1, z2: z1 * z2, *pair.kernels, 1e-9)
    # the one origin gate, shared with separability_test and its CLI text
    with pytest.raises(OriginZeroError) as sep:
        bs.separability_test(lambda z1, z2: z1 * z2, grid)
    assert str(err.value) == str(sep.value) == \
        "value at the origin vanishes; strip monomial factors first"


def test_difference_quotient_colligation_cross_check():
    grid = factor.product_grid(5, 5, seed=65)
    f1, f2 = mobius(0.5), mobius(-1 / 3)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    v = difference_quotient_colligation(f, k1, k2, grid)
    assert v.partition == (1, 1)
    assert v.classify(1e-8).is_coisometry
    assert bs.check_condition_4(v, 1e-8)
    pts = bs.make_grid("bidisc", 30, seed=66).points
    assert np.max(np.abs(transfer_grid(v, pts) - f(pts[:, 0], pts[:, 1]))) < 1e-10
    res = bs.split_colligation(v, 1e-8)
    vals = transfer_grid(res.v1, pts[:, :1]) * transfer_grid(res.v2, pts[:, 1:])
    assert np.max(np.abs(vals - f(pts[:, 0], pts[:, 1]))) < 1e-9


def test_difference_quotient_higher_degree():
    grid = factor.product_grid(7, 7, seed=67)
    c1, zeros1 = 1.0, [0.3, -0.2j]
    c2, zeros2 = 1.0, [0.5]
    f1 = blaschke_callable(c1, zeros1)
    f2 = blaschke_callable(c2, zeros2)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    v = difference_quotient_colligation(f, k1, k2, grid)
    assert v.partition == (2, 1)
    pts = bs.make_grid("bidisc", 30, seed=68).points
    assert np.max(np.abs(transfer_grid(v, pts) - f(pts[:, 0], pts[:, 1]))) < 1e-9


def test_three_routes_agree():
    # separability test, condition-4 on a realizing colligation, and the
    # kernel conditions give one verdict per instance
    rng = np.random.default_rng(69)
    grid = bs.make_grid("bidisc", 30, seed=70)
    products = factor.product_grid(5, 5, seed=71)

    # separable instance
    v, f1, f2 = composed_blaschke(rng, max_degree=2, radius=0.6)
    f = lambda z1, z2: f1(z1) * f2(z2)
    assert bs.separability_test(f, grid, 1e-10).separable
    assert bs.check_condition_4(v)
    k1, k2 = product_agler_kernels(f1, f2)
    assert factor.agler_factorization_conditions(
        f, sample(k1, products), sample(k2, products), 1e-9).cond2

    # non-separable instance
    vt = vt_colligation(0.5)
    phi = bs.mobius_of_product(0.5)
    assert not bs.separability_test(phi, grid).separable
    assert not bs.check_condition_4(vt)
    pair = bs.agler_kernels_of(vt, products)
    assert not factor.agler_factorization_conditions(
        phi, *pair.kernels, 1e-9).cond2
