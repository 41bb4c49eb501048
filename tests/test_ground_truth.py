"""Soundness sweep: seeded kernel families whose verdict is known by theorem,
not by another run of the code.

- Disc: K = (1 - T(z) conj T(w))/(1 - z conj w) of T = r B, B a finite
  Blaschke product, is a de Branges-Rovnyak kernel for r <= 1 (Pick).  For
  r > 1, K = (1 - r^2) S + r^2 K_B, S the Szego kernel and K_B of rank
  deg B, is indefinite on more than deg B points, so it is not; nor is -S.
- Ball: the Drury-Arveson kernel (1 - f(z) conj f(w))/(1 - <z, w>) of the
  contractive multiplier f = (z1 + z2)/2 is one, and its negative is not.
- Agler: the kernels of a unitary colligation of d = 2-4 variables are PSD
  and satisfy the decomposition identity.
- Colligations: a finite unitary colligation realizes an inner function, so
  certify_inner never refutes one; with a and B scaled by r < 1, |f| = r on
  the torus, so it is never certified.  A cascade of two model_colligations
  realizes a product of Blaschke products in separate variables: inner,
  separable and splittable, and so is its image under a block-unitary
  similarity, a rotation of the variables (Lambda C, Lambda D) and a
  unimodular phase (c a, c B).  V_t realizes (z1 z2 - t)/(1 - t z1 z2),
  which is not separable for 0 < t < 1; V_t is unitary, so it is not
  refuted even at t >= 1 - 3e-8, where the boundary scan reads |f| off 1
  by more than the sampling bound.
- Rational inner functions: p~/p with p = a(z1) b(z2), each factor a
  product of 1 - c z, |c| <= 0.8, of degree 1-3, is separable; with one
  coefficient of p off the row and column of its largest moved by eps times
  that largest, eps = 1e-8, 1e-6 or 1e-3, it is not.  The coefficient
  decision of `factor` and the sampled separability_test agree with that.

Every row asserts that no verdict is unsound, and that dbr_test_disc passes
exactly when dbr_reconstruct_disc raises no NotDbrError.  The share of
de Branges-Rovnyak kernels that the reconstruction's residual gate refuses
(IdentityViolatedError), and the share of "inconclusive" inner verdicts, are
declined verdicts, not unsound ones: they are printed (pytest -s), not
asserted.
"""

import functools

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import factor
from bidisc_schur.errors import IdentityViolatedError, NotDbrError
from bidisc_schur.kernels import SampledKernel
from helpers import (
    blaschke_callable,
    drury_arveson_gram,
    random_blaschke,
    random_two_var_unitary,
    random_unitary,
    szego_gram,
    unitary_colligation,
    vt_colligation,
)

COUNT = 24


def disc_family(seed, scale):
    """COUNT seeded disc kernels of T = r B, with r = scale(rng), on grids
    of 8 to 40 points."""
    rng = np.random.default_rng(seed)
    for _ in range(COUNT):
        grid = bs.make_grid("disc", int(rng.integers(8, 41)), seed=int(rng.integers(1 << 30)))
        z = grid.points[:, 0]
        t = scale(rng) * blaschke_callable(*random_blaschke(rng, max_degree=3))(z)
        yield SampledKernel(grid, (1.0 - np.outer(t, np.conj(t))) * szego_gram(grid))


def negative_szego(seed):
    rng = np.random.default_rng(seed)
    for n in range(8, 8 + COUNT):
        grid = bs.make_grid("disc", n, seed=int(rng.integers(1 << 30)))
        yield SampledKernel(grid, -szego_gram(grid))


DISC_ROWS = {
    "r-blaschke": (True, lambda: disc_family(101, lambda rng: rng.uniform(0.05, 1.0))),
    "inner-blaschke": (True, lambda: disc_family(102, lambda rng: 1.0)),
    "c-blaschke": (False, lambda: disc_family(103, lambda rng: rng.uniform(1.02, 1.5))),
    "negative-szego": (False, lambda: negative_szego(104)),
}


@pytest.mark.parametrize("row", list(DISC_ROWS))
def test_disc_kernels(row):
    is_dbr, family = DISC_ROWS[row]
    gated = 0
    for k in family():
        assert bs.dbr_test_disc(k).is_psd is is_dbr
        try:
            bs.dbr_reconstruct_disc(k)
        except NotDbrError:
            assert not is_dbr
        except IdentityViolatedError:
            assert is_dbr
            gated += 1
        else:
            assert is_dbr
    print(f"{row}: {gated} of {COUNT} refused by the reconstruction's residual gate")


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_drury_arveson_kernels(sign):
    rng = np.random.default_rng(105)
    for _ in range(COUNT):
        grid = bs.make_grid("ball-2", int(rng.integers(8, 31)), seed=int(rng.integers(1 << 30)))
        f = grid.points.sum(axis=1) / 2.0
        k = SampledKernel(grid, sign * (1.0 - np.outer(f, np.conj(f))) * drury_arveson_gram(grid))
        assert bs.dbr_test_ball(k).is_psd is (sign > 0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_agler_kernels_of_unitaries(d):
    rng = np.random.default_rng(106 + d)
    grid = bs.make_grid("bidisc" if d == 2 else f"polydisc-{d}", 20, seed=107 + d)
    for _ in range(COUNT // 2):
        v = unitary_colligation(rng, [int(h) for h in rng.integers(0, 4, size=d)])
        kernels = bs.agler_kernels_of(v, grid).kernels
        rep = bs.verify_agler_decomposition(v, kernels)
        assert rep.passed and all(rep.kernels_psd)
        assert all(k.is_psd() for k in kernels)


UNITARY_DRAWS = 400
CASCADES = 30


@pytest.mark.parametrize("scale", [1.0, 0.999])
def test_unitary_colligations(scale):
    rng = np.random.default_rng(11)
    verdicts = {"certified": 0, "inconclusive": 0, "refuted": 0}
    for _ in range(UNITARY_DRAWS):
        u = random_two_var_unitary(rng, hmax=8)
        v = bs.Colligation(scale * u.a, scale * u.B, u.C, u.D, u.partition)
        verdicts[bs.certify_inner(v).verdict] += 1
    assert verdicts["certified" if scale < 1.0 else "refuted"] == 0
    print(f"{scale} unitary: {verdicts} of {UNITARY_DRAWS}, "
          f"{verdicts['inconclusive']} declined")


def cascade_transforms(v, rng):
    """v and its images under a block-unitary similarity (B W, W* C, W* D W)
    with W = W1 (+) W2, a rotation (Lambda C, Lambda D) with
    Lambda = l1 I (+) l2 I, which realizes f(l1 z1, l2 z2), and a
    unimodular phase (c a, c B), which realizes c f."""
    h1, h2 = v.partition
    w = np.zeros((v.h, v.h), dtype=complex)
    w[:h1, :h1] = random_unitary(rng, h1)
    w[h1:, h1:] = random_unitary(rng, h2)
    lam = np.repeat(np.exp(2j * np.pi * rng.uniform(size=2)), v.partition)[:, None]
    c = np.exp(2j * np.pi * rng.uniform())
    yield "cascade", v
    yield "similarity", bs.Colligation(v.a, v.B @ w, w.conj().T @ v.C,
                                       w.conj().T @ v.D @ w, v.partition)
    yield "rotation", bs.Colligation(v.a, v.B, lam * v.C, lam * v.D, v.partition)
    yield "phase", bs.Colligation(c * v.a, c * v.B, v.C, v.D, v.partition)


def test_cascades_of_model_colligations():
    rng = np.random.default_rng(108)
    grid = bs.make_grid("bidisc", 30, seed=109)
    for _ in range(CASCADES):
        v = bs.compose_colligations(*(bs.model_colligation(*random_blaschke(rng))
                                      for _ in range(2)))
        for name, w in cascade_transforms(v, rng):
            assert bs.certify_inner(w).verdict == "certified", name
            assert bs.separability_test(w, grid).separable, name
            bs.split_colligation(w)       # raises unless the factors reproduce w


@pytest.mark.parametrize("t", [0.2, 0.5, 0.8, 0.95])
def test_vt_is_not_separable(t):
    grid = bs.make_grid("bidisc", 40, seed=110)
    assert not bs.separability_test(vt_colligation(t), grid).separable


@pytest.mark.parametrize("t", [1 - 3e-8, 1 - 1e-8, 1 - 1e-9])
def test_vt_near_one_is_inner_by_realization(t):
    cert = bs.certify_inner(vt_colligation(t))
    assert cert.structure.is_unitary and cert.boundary_passed is False
    assert (cert.verdict, cert.detail) == (
        "inconclusive", "inconclusive-by-structure, inner-by-realization")


RATIONAL_DRAWS = 200
PERTURBATIONS = (0.0, 1e-8, 1e-6, 1e-3)


def one_variable_product(rng):
    """Coefficients of the product of 1 - c z over 1-3 seeded c, |c| <= 0.8."""
    n = rng.integers(1, 4)
    c = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))
    return functools.reduce(np.convolve, ([1.0, -ci] for ci in c), np.ones(1))


def perturbed_product(rng, eps):
    """p~/p, p = a(z1) b(z2) with one coefficient off the row and column of
    its largest moved by eps times that largest, so that the rank-one
    residual is eps to first order.  Every seeded p passes the zero-free
    check."""
    p = np.outer(one_variable_product(rng), one_variable_product(rng))
    j, k = np.unravel_index(np.argmax(np.abs(p)), p.shape)
    i = rng.choice([r for r in range(p.shape[0]) if r != j])
    m = rng.choice([c for c in range(p.shape[1]) if c != k])
    p[i, m] += eps * abs(p[j, k]) * np.exp(2j * np.pi * rng.uniform())
    return bs.RationalFunction2((0, 0), bs.Poly2(p))


def test_rational_separability_on_coefficients():
    rng = np.random.default_rng(120)
    grid = bs.make_grid("bidisc", 200, seed=121)
    verdicts = {"separable": 0, "not-separable": 0}
    for eps in PERTURBATIONS:
        for _ in range(RATIONAL_DRAWS):
            f = perturbed_product(rng, eps)
            separable, _ = factor._coefficient_separability(f)
            assert separable == (eps == 0.0), eps
            assert bs.separability_test(f, grid).separable == separable, eps
            verdicts["separable" if separable else "not-separable"] += 1
    print(f"rational2: {verdicts} of {len(PERTURBATIONS) * RATIONAL_DRAWS}")
