import os
import subprocess
import sys

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur.errors import NearPoleError, ZeroPolynomialError
from bidisc_schur.functions import INTERIOR_RADIUS, taylor_from_samples


def test_reflect_constant():
    assert bs.reflect(bs.Poly2([[1.0]])) == bs.Poly2([[1.0]])


def test_reflect_product_form():
    # 1 - t z1 z2  ->  z1 z2 - t
    t = 0.7
    p = bs.Poly2([[1.0, 0.0], [0.0, -t]])
    out = bs.reflect(p)
    assert np.allclose(out.coeffs, [[-t, 0.0], [0.0, 1.0]])


def test_reflect_univariate():
    out = bs.reflect(bs.Poly2([[2.0], [-1.0]]))    # 2 - z1 -> 2 z1 - 1
    assert np.allclose(out.coeffs, [[-1.0], [2.0]])


def test_reflect_zero_rejected():
    with pytest.raises(ZeroPolynomialError):
        bs.reflect(bs.Poly2([[0.0]]))


def test_reflect_involution():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d1, d2 = rng.integers(0, 4, size=2)
        c = rng.normal(size=(d1 + 1, d2 + 1)) + 1j * rng.normal(size=(d1 + 1, d2 + 1))
        c[0, 0] += 3.0   # pin the corner coefficients so the degree is stable
        c[d1, d2] += 3.0
        p = bs.Poly2(c)
        assert np.allclose(bs.reflect(bs.reflect(p)).coeffs, p.coeffs)


def test_poly_trim_canonical():
    p = bs.Poly2([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert p.degree == (0, 0)


def test_eval_product_mobius_origin():
    phi = bs.mobius_of_product(0.5)
    assert phi.eval(0.0, 0.0) == pytest.approx(-0.5)


def test_eval_product_mobius_unimodular_on_torus():
    phi = bs.mobius_of_product(0.5)
    for theta in np.linspace(0, 2 * np.pi, 7):
        val = phi.eval(np.exp(1j * theta), np.exp(-1j * theta))
        assert abs(val) == pytest.approx(1.0, abs=1e-12)


def test_eval_constant_poly():
    assert bs.Poly2([[1.0]]).eval(0.3 + 0.1j, -0.2) == pytest.approx(1.0)


def test_eval_near_pole_guard():
    phi = bs.RationalFunction2((0, 0), bs.Poly2([[1.0, 0.0], [0.0, -0.5]]),
                               check_zero_free=False)
    with pytest.raises(NearPoleError):
        # denominator formally vanishes at z1 z2 = 2
        phi.eval(2.0, 1.0)


def test_zero_free_check_rejects_boundary_zero():
    with pytest.raises(ZeroPolynomialError):
        # 1 - z1 vanishes at z1 = 1 on the closed bidisc
        bs.RationalFunction2((0, 0), bs.Poly2([[1.0], [-1.0]]))


def test_boundary_modulus_monomial():
    grid = bs.make_grid("torus2", 64)
    phi = bs.RationalFunction2((1, 1), bs.Poly2([[1.0]]))
    rep = bs.boundary_modulus_test(phi, grid, 1e-12)
    assert rep.passed and rep.max_deviation == pytest.approx(0.0, abs=1e-14)


def test_boundary_modulus_product_mobius():
    grid = bs.make_grid("torus2", 64)
    rep = bs.boundary_modulus_test(bs.mobius_of_product(0.5), grid, 1e-12)
    assert rep.passed


def test_boundary_modulus_fails_for_half_z1():
    grid = bs.make_grid("torus2", 32)
    rep = bs.boundary_modulus_test(lambda z1, z2: 0.5 * z1, grid, 1e-9)
    assert not rep.passed
    assert rep.max_deviation == pytest.approx(0.5)


def test_rudin_form_is_inner_on_torus():
    grid = bs.make_grid("torus2", 40)
    denominators = [
        bs.Poly2([[1.0, -0.3], [-0.4, 0.1]]),
        bs.Poly2([[1.0, 0.2j], [0.3, 0.0]]),
        bs.Poly2([[1.0, 0.0], [0.0, -0.8]]),
    ]
    for p in denominators:
        for mono in ((0, 0), (1, 0), (1, 2)):
            f = bs.RationalFunction2(mono, p)
            assert bs.boundary_modulus_test(f, grid, 1e-10).passed


def test_series_of_product_mobius():
    t = 0.5
    s = bs.series_of(bs.mobius_of_product(t), 6, 6)
    assert s.coeffs[0, 0] == pytest.approx(-t)
    assert s.coeffs[1, 1] == pytest.approx(1 - t ** 2)        # 0.75
    assert s.coeffs[2, 2] == pytest.approx(t * (1 - t ** 2))  # 0.375
    off = s.coeffs.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) < 1e-14


def test_series_of_monomial():
    s = bs.series_of(bs.RationalFunction2((1, 1), bs.Poly2([[1.0]])), 3, 3)
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(s.coeffs, expected)


def test_series_of_constant():
    c = 0.3 - 0.4j
    u = c / abs(c)
    s = bs.series_of(bs.RationalFunction2((0, 0), bs.Poly2([[1.0]]), unimodular=u), 2, 2)
    assert s.coeffs[0, 0] == pytest.approx(u)
    assert np.max(np.abs(s.coeffs.ravel()[1:])) == 0.0


def test_series_partial_sums_converge_geometrically():
    phi = bs.mobius_of_product(0.5)
    s = bs.series_of(phi, 16, 16)
    rng = np.random.default_rng(5)
    pts = 0.5 * np.sqrt(rng.uniform(size=(12, 2))) * np.exp(
        2j * np.pi * rng.uniform(size=(12, 2)))
    for z1, z2 in pts:
        assert s.eval(z1, z2) == pytest.approx(phi.eval(z1, z2), abs=1e-6)


def test_taylor_from_samples_matches_division():
    phi = bs.mobius_of_product(0.4)
    fft_series = taylor_from_samples(phi.eval, 8, 8)
    div_series = bs.series_of(phi, 8, 8)
    assert np.max(np.abs(fft_series.coeffs - div_series.coeffs)) < 1e-12


def test_series_tail_is_unknown_not_zero():
    a = bs.PowerSeries2(np.ones((3, 3)))
    b = bs.PowerSeries2(np.ones((5, 5)))
    ca, cb = a.common_truncation(b)
    assert ca.shape == cb.shape == (3, 3)


def test_make_grid_torus_resolution_4():
    grid = bs.make_grid("torus2", 4)
    assert len(grid) == 16
    angles = np.angle(grid.points.ravel())
    steps = np.unique(np.round(np.mod(angles, 2 * np.pi) / (np.pi / 2)))
    assert np.allclose(steps, [0, 1, 2, 3])


def test_make_grid_deterministic():
    g1 = bs.make_grid("disc", 5, seed=7)
    g2 = bs.make_grid("disc", 5, seed=7)
    assert np.array_equal(g1.points, g2.points)
    g3 = bs.make_grid("disc", 5, seed=8)
    assert not np.array_equal(g1.points, g3.points)


def test_make_grid_memberships():
    ball = bs.make_grid("ball-2", 10, seed=1)
    norms = np.linalg.norm(ball.points, axis=1)
    assert np.all(norms <= INTERIOR_RADIUS + 1e-12)
    poly = bs.make_grid("polydisc-3", 10, seed=1)
    assert poly.points.shape == (10, 3)
    assert np.max(np.abs(poly.points)) <= INTERIOR_RADIUS + 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        bs.PointGrid("bidisc", np.array([[1.0, 0.5]]))   # |z1| = 1 not interior
    with pytest.raises(ValueError):
        bs.PointGrid("torus2", np.array([[0.5, 1.0]]))


def test_poly_mul_is_pointwise_product():
    rng = np.random.default_rng(31)
    p = bs.Poly2(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    q = bs.Poly2(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
    z1, z2 = 0.7 * np.exp(2j * np.pi * rng.uniform(size=(2, 10)))
    pq = p.mul(q)
    assert pq.degree == (3, 4)
    assert np.max(np.abs(pq.eval(z1, z2) - p.eval(z1, z2) * q.eval(z1, z2))) < 1e-13


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(bs.__file__))
    code = ("import sys, bidisc_schur; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
