import os
import subprocess
import sys

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur.errors import (
    NearPoleError,
    NonFiniteError,
    NotDivisibleError,
    ZeroPolynomialError,
)
from bidisc_schur.functions import INTERIOR_RADIUS, ZERO_FREE_MARGIN
from helpers import (
    common_truncation,
    loop_series_inverse,
    loop_series_of,
    poly_mul,
    taylor_from_samples,
)


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
    assert phi(0.0, 0.0) == pytest.approx(-0.5)


def test_eval_product_mobius_unimodular_on_torus():
    phi = bs.mobius_of_product(0.5)
    for theta in np.linspace(0, 2 * np.pi, 7):
        val = phi(np.exp(1j * theta), np.exp(-1j * theta))
        assert abs(val) == pytest.approx(1.0, abs=1e-12)


def test_eval_constant_poly():
    assert bs.Poly2([[1.0]])(0.3 + 0.1j, -0.2) == pytest.approx(1.0)


def test_eval_near_pole_guard():
    phi = bs.RationalFunction2((0, 0), bs.Poly2([[1.0, 0.0], [0.0, -0.5]]),
                               check_zero_free=False)
    with pytest.raises(NearPoleError):
        # denominator formally vanishes at z1 z2 = 2
        phi(2.0, 1.0)


@pytest.mark.parametrize("scale", [1e-15, 1e15])
def test_pole_checks_are_scale_invariant(scale):
    # p and scale * p define the same f; the zero-free check accepts both,
    # and so must the pole checks of series_of and eval
    p = np.array([[1.0, 0.0], [0.0, -0.5]])
    f = bs.RationalFunction2((0, 0), bs.Poly2(p))
    g = bs.RationalFunction2((0, 0), bs.Poly2(scale * p))
    assert np.allclose(bs.series_of(g, 4, 4).coeffs, bs.series_of(f, 4, 4).coeffs,
                       rtol=1e-13, atol=1e-15)
    pts = bs.make_grid("bidisc", 6, seed=3).points
    assert np.allclose(g(pts[:, 0], pts[:, 1]), f(pts[:, 0], pts[:, 1]),
                       rtol=1e-13, atol=0.0)
    assert g(0.1, 0.2) == pytest.approx(f(0.1, 0.2), rel=1e-13)
    # the guard still fires at a pole of the scaled denominator
    h = bs.RationalFunction2((0, 0), bs.Poly2(scale * p), check_zero_free=False)
    with pytest.raises(NearPoleError):
        h(2.0, 1.0)


def test_zero_free_check_rejects_boundary_zero():
    with pytest.raises(ZeroPolynomialError):
        # 1 - z1 vanishes at z1 = 1 on the closed bidisc
        bs.RationalFunction2((0, 0), bs.Poly2([[1.0], [-1.0]]))


def _refusal(coeffs) -> str:
    with pytest.raises(ZeroPolynomialError) as info:
        bs.RationalFunction2((0, 0), bs.Poly2(coeffs))
    return str(info.value)


def _reported_zero(msg: str) -> tuple[complex, complex]:
    z1, z2 = msg.split("(z1, z2) = (")[1].split(")")[0].split(", ")
    return complex(z1), complex(z2)


_ROT = np.exp(-0.0628j)


@pytest.mark.parametrize("radius", [0.97, 1.0])
def test_zero_free_check_rejects_zero_near_positive_axis(radius):
    # 1 - e^{-0.0628i} z1 / r: a zero at z1 = r e^{0.0628i}, once inside the
    # disc and once on the circle; a polar grid scan accepted both
    msg = _refusal([[1.0], [-_ROT / radius]])
    assert "condition (i)" in msg
    assert f"|z1| = {radius:.10g} <= 1 + ZERO_FREE_MARGIN" in msg
    z1, z2 = _reported_zero(msg)
    assert abs(z1 - radius / _ROT) < 1e-9 and z2 == 0


def test_zero_free_check_finds_torus_zero():
    # 1 + 0.6 z1 - 0.6 z2: p(., 0) and p(1, .) are zero-free on the closed
    # disc, but p vanishes on the torus where z1 = -5/6 +- i sqrt(11)/6
    c = np.array([[1.0, -0.6], [0.6, 0.0]])
    assert np.min(np.abs(np.roots(c[::-1, 0]))) > 1.5
    assert np.min(np.abs(np.roots(c.sum(axis=0)[::-1]))) > 1.5
    msg = _refusal(c)
    assert "condition (iii)" in msg and "|z2| = 1 <= 1 + ZERO_FREE_MARGIN" in msg
    z1, z2 = _reported_zero(msg)
    assert abs(z1 - complex(-5 / 6, np.sign(z1.imag) * np.sqrt(11) / 6)) < 1e-9
    assert abs(1 + 0.6 * z1 - 0.6 * z2) < 1e-9 and abs(abs(z2) - 1) < 1e-9


def test_zero_free_check_condition_ii():
    # 1 - 0.5 z1 - 0.8 z2: p(., 0) vanishes only at z1 = 2, but p(1, .)
    # vanishes at z2 = 0.625
    msg = _refusal([[1.0, -0.8], [-0.5, 0.0]])
    assert "condition (ii)" in msg and "|z2| = 0.625 <= 1 + ZERO_FREE_MARGIN" in msg


@pytest.mark.parametrize("total", [1 - 1e-4, 1.0, 1 + 1e-6])
def test_zero_free_check_linear_oracle(total):
    # 1 - a z1 - b z2 is zero-free on the closed bidisc iff |a| + |b| < 1;
    # the split of the total between a and b runs over both edges and 40
    # seeded draws, each with random phases
    rng = np.random.default_rng(int(total * 1e6))
    splits = np.concatenate([[0.0, 1.0], rng.uniform(size=40)])
    for split in splits:
        alpha, beta = rng.uniform(0.0, 2 * np.pi, size=2)
        a = total * split * np.exp(1j * alpha)
        b = total * (1 - split) * np.exp(1j * beta)
        p = bs.Poly2([[1.0, -b], [-a, 0.0]])
        if total < 1:
            bs.RationalFunction2((0, 0), p)
        else:
            with pytest.raises(ZeroPolynomialError):
                bs.RationalFunction2((0, 0), p)


@pytest.mark.parametrize("coeffs, accepted", [
    ([[2.0 - 1.0j]], True),                    # constant
    ([[1.0], [-0.5j], [0.2]], True),           # d2 = 0
    ([[1.0], [0.0], [-1.2]], False),           # d2 = 0, zeros at +-1/sqrt(1.2)
    ([[1.0, 0.3, -0.5j]], True),               # d1 = 0
    ([[1.0, 0.0, -1.5]], False),               # d1 = 0, zeros at +-1/sqrt(1.5)
])
def test_zero_free_check_degenerate_shapes(coeffs, accepted):
    if accepted:
        bs.RationalFunction2((1, 0), bs.Poly2(coeffs))
    else:
        assert "<= 1 + ZERO_FREE_MARGIN" in _refusal(coeffs)


def test_zero_free_check_accepts_zeros_near_the_circle():
    # (1 - z1/2) prod_k (1 - a_k z2), |a_k| = 0.999 at three angles: zero-free,
    # with the zeros in z2 1e-3 outside the circle and s_min / s_max of the
    # Sylvester matrices far above ZERO_FREE_MARGIN
    b = np.poly(0.999 * np.exp(2j * np.pi * np.arange(3) / 7))
    f = bs.RationalFunction2((0, 0), bs.Poly2(np.outer([1.0, -0.5], b)))
    grid = bs.make_grid("torus2", 32)
    assert bs.boundary_modulus_test(f, grid, 1e-9).passed


@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_free_check_rejects_multiple_boundary_zero(m):
    # (1 - u z1)^m (1 - 0.3 z2) and (1 - 0.4 z1)(1 - u z2)^m, |u| = 1: the
    # computed roots form a cluster around 1/u, and one of them is refused
    u = np.exp(0.7j)
    power = np.poly(np.full(m, u))
    assert "condition (i)" in _refusal(np.outer(power, [1.0, -0.3]))
    assert "condition (ii)" in _refusal(np.outer([1.0, -0.4], power))


def test_zero_free_check_refuses_crowded_zeros():
    # (1 - z1/2)(1 - 0.999 z2)^3 is zero-free, but its triple zero 1e-3
    # outside the circle makes every Sylvester matrix of p(w, .) and
    # reflect(p)(w, .) singular to s_min / s_max <= ZERO_FREE_MARGIN: the
    # torus test is undecided and p is refused, naming the ratio and the
    # nearest root, which lies outside the margin
    msg = _refusal(np.outer([1.0, -0.5], np.poly(np.full(3, 0.999))))
    assert "condition (iii) undecided" in msg and "<= ZERO_FREE_MARGIN" in msg
    assert "> 1 + ZERO_FREE_MARGIN" in msg
    z1, z2 = _reported_zero(msg)
    assert abs(abs(z1) - 1) < 1e-9 and abs(z2 - 1 / 0.999) < 1e-4


def _factor(rng, total):
    # 1 - a z1 - b z2 with |a| + |b| = total and random phases
    split = rng.uniform(0.05, 0.95)
    a = total * split * np.exp(2j * np.pi * rng.uniform())
    b = total * (1 - split) * np.exp(2j * np.pi * rng.uniform())
    return bs.Poly2([[1.0, -b], [-a, 0.0]])


@pytest.mark.parametrize("seed", range(6))
def test_zero_free_check_degree_8(seed):
    # products of eight linear factors, degree (8, 8): resultant roots of
    # degree 128 near the circle.  Seven zero-free factors at |a| + |b| =
    # 0.97 times an eighth that is zero-free (0.999), crosses into the
    # bidisc (1.02, 1.001), or only touches the torus (1 + 0.6 z1 - 0.6 z2,
    # which conditions (i) and (ii) pass)
    rng = np.random.default_rng(seed)
    base = bs.Poly2([[1.0]])
    for _ in range(7):
        base = poly_mul(base, _factor(rng, 0.97))
    bs.RationalFunction2((0, 0), poly_mul(base, _factor(rng, 0.999)))
    for last in [_factor(rng, 1.02), _factor(rng, 1.001), bs.Poly2([[1.0, -0.6], [0.6, 0.0]])]:
        p = poly_mul(base, last)
        assert p.degree == (8, 8)
        msg = _refusal(p.coeffs)
        assert "condition (iii), a torus zero" in msg
        zero = _reported_zero(msg)
        # the message prints 10 significant digits
        assert abs(abs(zero[0]) - 1) < 1e-9 and abs(abs(zero[1]) - 1) < 1e-8
        assert abs(p(*zero)) < 1e-8 * np.abs(p.coeffs).sum()


def test_zero_free_check_rejects_zero_at_origin():
    msg = _refusal([[0.0, 1.0], [1.0, 0.5]])
    assert "p(0, 0) = 0" in msg and "(z1, z2) = (0+0j, 0+0j)" in msg


def _polar(radii: int, angles: int) -> np.ndarray:
    r = np.linspace(0.0, 1.0, radii)
    return (r[:, None] * np.exp(2j * np.pi * np.arange(angles) / angles)).ravel()


def test_zero_free_check_matches_dense_grid():
    # Cross-check on seeded random denominators of degree up to (3, 3).
    #  * On a polar grid of the closed bidisc every point lies within
    #    delta of a node in each coordinate, and |dp/dz_k| <= L_k there,
    #    so min |p| over the nodes > (L1 + L2) delta proves p zero-free:
    #    such a p must be accepted.
    #  * An accepted p has, for every z1 of a dense grid of the closed
    #    disc, only roots of modulus > 1 in z2.
    #  * A refused p is refused for a genuine zero within the margin of
    #    the closed bidisc.
    rng = np.random.default_rng(2024)
    radii, angles = 13, 48
    nodes = _polar(radii, angles)
    delta = 0.5 / (radii - 1) + np.pi / angles
    fine = _polar(21, 96)
    verdicts = {"certified": 0, "accepted": 0, "refused": 0}
    for _ in range(60):
        d1, d2 = rng.integers(0, 4, size=2)
        c = rng.normal(size=(d1 + 1, d2 + 1)) + 1j * rng.normal(size=(d1 + 1, d2 + 1))
        c[0, 0] = rng.uniform(0.6, 1.6) * (np.abs(c).sum() - abs(c[0, 0]) + 1e-3)
        p = bs.Poly2(c)
        i, j = np.indices(c.shape)
        lipschitz = np.sum((i + j) * np.abs(c))
        # p at every pair of nodes, V1 c V2^T with Vandermonde matrices
        on_grid = (nodes[:, None] ** np.arange(d1 + 1)) @ c @ (nodes[:, None] ** np.arange(d2 + 1)).T
        certified = float(np.min(np.abs(on_grid))) > lipschitz * delta
        try:
            bs.RationalFunction2((0, 0), p)
        except ZeroPolynomialError as exc:
            assert not certified
            zero = _reported_zero(str(exc))
            assert max(abs(zero[0]), abs(zero[1])) <= 1 + ZERO_FREE_MARGIN
            assert abs(p(*zero)) <= 1e-8 * (1 + lipschitz)
            verdicts["refused"] += 1
            continue
        if d2 > 0:
            # roots of p(z1, .) for every z1 of the fine grid at once, as the
            # eigenvalues of the companion matrices
            rows = (fine[:, None] ** np.arange(d1 + 1)) @ c
            companion = np.zeros((fine.size, d2, d2), dtype=complex)
            companion[:, 0, :] = -rows[:, -2::-1] / rows[:, -1:]
            companion[:, np.arange(1, d2), np.arange(d2 - 1)] = 1.0
            assert np.min(np.abs(np.linalg.eigvals(companion))) > 1
        verdicts["certified" if certified else "accepted"] += 1
    assert min(verdicts.values()) >= 5, verdicts


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
        assert s(z1, z2) == pytest.approx(phi(z1, z2), abs=1e-6)


def _zero_free_denominator(rng, d1, d2):
    c = rng.normal(size=(d1 + 1, d2 + 1)) + 1j * rng.normal(size=(d1 + 1, d2 + 1))
    c[0, 0] = 1.0 + 1.5 * (np.abs(c).sum() - abs(c[0, 0]))   # dominant: zero-free
    return bs.Poly2(c)


@pytest.mark.parametrize("orders", [(0, 0), (5, 9), (47, 47), (1, 4)])
def test_series_of_matches_loop_reference(orders):
    # (1, 4) with d1 = 3 covers a degree above the order (d1 > n1 + 1)
    n1, n2 = orders
    rng = np.random.default_rng(n1 * 100 + n2)
    degrees = [(0, 0), (1, 0), (0, 2), (1, 1), (2, 3), (3, 2), (3, 3)]
    for (d1, d2), mono in zip(degrees, [(0, 0), (1, 2), (0, 1)] * 3):
        p = _zero_free_denominator(rng, d1, d2)
        f = bs.RationalFunction2(mono, p, unimodular=np.exp(2j * np.pi * rng.uniform()))
        want = loop_series_of(f, n1, n2)
        got = bs.series_of(f, n1, n2).coeffs
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want), initial=1.0)


def test_series_of_inverse_matches_loop_reference():
    # with numerator 1 the row-wise division is the plain series inverse
    rng = np.random.default_rng(12)
    p = _zero_free_denominator(rng, 3, 3)
    f = bs.RationalFunction2((0, 0), p)
    f.numerator = bs.Poly2([[1.0]])
    want = loop_series_inverse(p.coeffs, 20, 30)
    got = bs.series_of(f, 20, 30).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_series_of_monomial_beyond_order():
    f = bs.RationalFunction2((3, 0), bs.mobius_of_product(0.5).denominator)
    assert np.array_equal(bs.series_of(f, 2, 4).coeffs, np.zeros((3, 5)))


def test_taylor_from_samples_matches_division():
    phi = bs.mobius_of_product(0.4)
    fft_series = taylor_from_samples(phi, 8, 8)
    div_series = bs.series_of(phi, 8, 8)
    assert np.max(np.abs(fft_series.coeffs - div_series.coeffs)) < 1e-12


def test_series_tail_is_unknown_not_zero():
    a = bs.PowerSeries2(np.ones((3, 3)))
    b = bs.PowerSeries2(np.ones((5, 5)))
    ca, cb = common_truncation(a, b)
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
    for ambient, pts in (("disc", [[np.nan], [0.5]]), ("bidisc", [[0.1, np.inf]]),
                         ("ball-2", [[np.nan, 0.0]]), ("torus2", [[1.0, np.nan]])):
        with pytest.raises(NonFiniteError):
            bs.PointGrid(ambient, pts)


def test_poly_mul_is_pointwise_product():
    rng = np.random.default_rng(31)
    p = bs.Poly2(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    q = bs.Poly2(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
    z1, z2 = 0.7 * np.exp(2j * np.pi * rng.uniform(size=(2, 10)))
    pq = poly_mul(p, q)
    assert pq.degree == (3, 4)
    assert np.max(np.abs(pq(z1, z2) - p(z1, z2) * q(z1, z2))) < 1e-13


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(bs.__file__))
    code = ("import sys, bidisc_schur; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


# -- monomial stripping -------------------------------------------------------


def blaschke_times_power(m1):
    """z1^m1 (z1 - 1/2)/(1 - z1/2) in Rudin form."""
    return bs.RationalFunction2((m1, 0), bs.Poly2([[1.0], [-0.5]]))


def test_strip_monomial_reads_the_exponent():
    # the power is the monomial exponent, however large
    p, stripped = bs.strip_monomial(blaschke_times_power(17))
    assert p == 17 and stripped.monomial == (0, 0)
    assert stripped(0.0, 0.0) == pytest.approx(-0.5)


def test_strip_monomial_var2_reads_the_exponent():
    f = bs.RationalFunction2((0, 17), bs.Poly2([[1.0, -0.5]]))     # z2^17 (z2 - 1/2)/(1 - z2/2)
    p, stripped = bs.strip_monomial_var2(f)
    assert p == 17 and stripped.monomial == (0, 0)
    z1, z2 = bs.make_grid("bidisc", 10, seed=2).points.T
    assert np.allclose(z2 ** 17 * stripped(z1, z2), f(z1, z2), rtol=1e-12, atol=0)


def test_strip_monomial_names_a_vanishing_numerator():
    # f = (z1 z2 - 0.4 z1 - 0.4 z2)/(1 - 0.4 z1 - 0.4 z2): p[1, 1] = 0, so
    # reflect(p) vanishes at the origin and no stripping removes the zero;
    # neither call sends the user to the other variable, and each names its own
    den = bs.Poly2([[1.0, -0.4], [-0.4, 0.0]])
    for monomial in ((0, 0), (1, 0)):
        f = bs.RationalFunction2(monomial, den)
        for strip, own, other in ((bs.strip_monomial, "first", "second"),
                                  (bs.strip_monomial_var2, "second", "first")):
            with pytest.raises(NotDivisibleError) as err:
                strip(f)
            text = str(err.value)
            assert "the numerator reflect(p) vanishes at the origin" in text, (monomial, text)
            assert own in text and other not in text, (monomial, text)


def test_strip_monomial_with_both_powers_names_the_other():
    # z1 z2 times an inner factor nonzero at the origin: each call says the
    # other variable's power divides too, without sending the user back
    f = bs.RationalFunction2((1, 1), bs.mobius_of_product(0.5).denominator)
    for strip, own, other in ((bs.strip_monomial, "first", "second"),
                              (bs.strip_monomial_var2, "second", "first")):
        with pytest.raises(NotDivisibleError, match=f"after removing 1 {own}-variable power.* "
                                                     f"the {other} variable divides: no power"):
            strip(f)


def test_strip_monomial_series_advice():
    # pure z2: the first variable's call points at the second, which strips it
    table = np.zeros((3, 3), dtype=complex)
    table[0, 1] = 1.0
    with pytest.raises(NotDivisibleError, match="the second variable divides: strip it"):
        bs.strip_monomial(bs.PowerSeries2(table))
    assert bs.strip_monomial_var2(bs.PowerSeries2(table))[0] == 1
    # z1 + z2: no monomial divides, and each call says so in its own terms
    table[1, 0] = 1.0
    for strip, own in ((bs.strip_monomial, "first"), (bs.strip_monomial_var2, "second")):
        with pytest.raises(NotDivisibleError, match=f"no power of the {own} variable divides, "
                                                     "and the series vanishes at the origin"):
            strip(bs.PowerSeries2(table))


def zero_free_denominator(rng):
    """1 + q of bidegree (2, 2), the coefficients of q summing to 0.8 in
    modulus, so |p| >= 0.2 on the closed bidisc."""
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c[0, 0] = 0.0
    c *= 0.8 / np.abs(c).sum()
    c[0, 0] = 1.0
    return bs.Poly2(c)


def test_strip_monomial_table():
    # the power is m1 whatever its size; any z2 factor is left over
    rng = np.random.default_rng(22)
    z1, z2 = bs.make_grid("bidisc", 20, seed=22).points.T
    for m1 in (0, 1, 5, 16, 17, 24):
        for m2 in (0, 3, 17):
            f = bs.RationalFunction2((m1, m2), zero_free_denominator(rng),
                                     np.exp(2j * np.pi * rng.uniform()))
            if m2:
                with pytest.raises(NotDivisibleError, match="second.variable"):
                    bs.strip_monomial(f)
                continue
            p, stripped = bs.strip_monomial(f)
            assert p == m1, (m1, m2)
            assert np.allclose(z1 ** p * stripped(z1, z2), f(z1, z2), rtol=1e-12, atol=0)
