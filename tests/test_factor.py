import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import factor
from bidisc_schur.colligation import transfer_grid
from bidisc_schur.errors import (
    ClassMismatchError,
    ConditionFailedError,
    GridNotCompanionedError,
    IdentityViolatedError,
    OriginZeroError,
)
from bidisc_schur.kernels import SampledKernel
from helpers import (
    blaschke_callable,
    composed_blaschke,
    difference_quotient_colligation,
    loop_section_residual,
    mobius,
    permutation_colligation,
    random_blaschke,
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
    assert res.x * res.y == pytest.approx(v.a)
    assert res.y.imag == pytest.approx(0.0)
    assert res.y.real > 0
    # |y|^2 = |a|^2 + B2 B2* = 1 - B1 B1*
    b1sq = float(np.linalg.norm(v.B1) ** 2)
    b2sq = float(np.linalg.norm(v.B2) ** 2)
    assert abs(res.y) ** 2 == pytest.approx(abs(v.a) ** 2 + b2sq)
    assert abs(res.y) ** 2 == pytest.approx(1 - b1sq)
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
        x, y = res.x, res.y
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


def test_weak_converse_rejects_zero_constant():
    with pytest.raises(OriginZeroError):
        factor.weak_converse_check(permutation_colligation())


def test_companioned_grid_requires_origin():
    with pytest.raises(GridNotCompanionedError):
        factor.companioned_grid([0.1, 0.2], [0.0, 0.3])


def product_agler_kernels(f1, f2):
    def k1(z, w):
        return (1 - f1(z[0]) * np.conj(f1(w[0]))) / (1 - z[0] * np.conj(w[0]))

    def k2(z, w):
        return f1(z[0]) * (1 - f2(z[1]) * np.conj(f2(w[1]))) * np.conj(f1(w[0])) \
            / (1 - z[1] * np.conj(w[1]))

    return k1, k2


def sample(kernel, grid):
    return SampledKernel.from_function(grid, kernel)


def test_factorization_conditions_separable():
    cg = factor.product_grid(5, 5, seed=62)
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    rep = factor.agler_factorization_conditions(f, sample(k1, cg.grid),
                                                sample(k2, cg.grid), cg, 1e-10)
    assert rep.cond2
    assert rep.invariance_residual < 1e-12
    assert rep.section_residual < 1e-12


def test_factorization_conditions_product_mobius_fails():
    cg = factor.product_grid(5, 5, seed=63)
    pair = bs.agler_kernels_of(vt_colligation(0.5), cg.grid)
    rep = factor.agler_factorization_conditions(
        bs.mobius_of_product(0.5), pair.k1, pair.k2, cg, 1e-9)
    assert not rep.cond2


def test_section_residual_matches_loop_reference():
    cg = factor.product_grid(5, 5, seed=62)
    f1, f2 = mobius(0.4), mobius(-0.2 + 0.3j)
    k1, k2 = product_agler_kernels(f1, f2)
    pair = bs.agler_kernels_of(vt_colligation(0.5), cg.grid)
    cases = [(lambda z1, z2: f1(z1) * f2(z2), sample(k1, cg.grid), sample(k2, cg.grid)),
             (bs.mobius_of_product(0.5), pair.k1, pair.k2)]
    for f, sk1, sk2 in cases:
        rep = factor.agler_factorization_conditions(f, sk1, sk2, cg, 1e-9)
        assert rep.section_residual == loop_section_residual(f, sk2, cg)


def test_factorization_conditions_origin_zero_routed():
    cg = factor.product_grid(4, 4, seed=64)
    pair = bs.agler_kernels_of(permutation_colligation(), cg.grid)
    with pytest.raises(OriginZeroError):
        factor.agler_factorization_conditions(
            lambda z1, z2: z1 * z2, pair.k1, pair.k2, cg, 1e-9)


def test_difference_quotient_colligation_cross_check():
    cg = factor.product_grid(5, 5, seed=65)
    f1, f2 = mobius(0.5), mobius(-1 / 3)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    v = difference_quotient_colligation(f, k1, k2, cg)
    assert v.partition == (1, 1)
    assert v.classify(1e-8).is_coisometry
    assert bs.check_condition_4(v, 1e-8)
    pts = bs.make_grid("bidisc", 30, seed=66).points
    assert np.max(np.abs(transfer_grid(v, pts) - f(pts[:, 0], pts[:, 1]))) < 1e-10
    res = bs.split_colligation(v, 1e-8)
    vals = transfer_grid(res.v1, pts[:, :1]) * transfer_grid(res.v2, pts[:, 1:])
    assert np.max(np.abs(vals - f(pts[:, 0], pts[:, 1]))) < 1e-9


def test_difference_quotient_higher_degree():
    cg = factor.product_grid(7, 7, seed=67)
    c1, zeros1 = 1.0, [0.3, -0.2j]
    c2, zeros2 = 1.0, [0.5]
    f1 = blaschke_callable(c1, zeros1)
    f2 = blaschke_callable(c2, zeros2)
    f = lambda z1, z2: f1(z1) * f2(z2)
    k1, k2 = product_agler_kernels(f1, f2)
    v = difference_quotient_colligation(f, k1, k2, cg)
    assert v.partition == (2, 1)
    pts = bs.make_grid("bidisc", 30, seed=68).points
    assert np.max(np.abs(transfer_grid(v, pts) - f(pts[:, 0], pts[:, 1]))) < 1e-9


def test_three_routes_agree():
    # separability test, condition-4 on a realizing colligation, and the
    # kernel conditions give one verdict per instance
    rng = np.random.default_rng(69)
    grid = bs.make_grid("bidisc", 30, seed=70)
    cg = factor.product_grid(5, 5, seed=71)

    # separable instance
    v, f1, f2 = composed_blaschke(rng, max_degree=2, radius=0.6)
    f = lambda z1, z2: f1(z1) * f2(z2)
    assert bs.separability_test(f, grid, 1e-10).separable
    assert bs.check_condition_4(v)
    k1, k2 = product_agler_kernels(f1, f2)
    assert factor.agler_factorization_conditions(
        f, sample(k1, cg.grid), sample(k2, cg.grid), cg, 1e-9).cond2

    # non-separable instance
    vt = vt_colligation(0.5)
    phi = bs.mobius_of_product(0.5)
    assert not bs.separability_test(phi, grid).separable
    assert not bs.check_condition_4(vt)
    pair = bs.agler_kernels_of(vt, cg.grid)
    assert not factor.agler_factorization_conditions(
        phi, pair.k1, pair.k2, cg, 1e-9).cond2
