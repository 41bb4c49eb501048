import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import toeplitz
from bidisc_schur.colligation import series_coefficient_table
from bidisc_schur.errors import (
    InsufficientTruncationError,
    NotStructuredError,
    WindowTooLargeError,
)
from bidisc_schur.functions import modulus_report
from helpers import (
    composed_blaschke,
    dense_isometry_defect,
    dense_toeplitz,
    loop_geometric_sum,
    loop_proof_diagnostics,
    permutation_colligation,
    random_triangular,
    shifted_copy_isometry_defect,
    vt_colligation,
)


def series_table(entries, shape=(8, 8)):
    table = np.zeros(shape, dtype=complex)
    for (i, j), val in entries.items():
        table[i, j] = val
    return bs.PowerSeries2(table)


def phi(t, k):
    """Block Phi_k of the compression: block row k of block column 0."""
    m = t.order
    return dense_toeplitz(t)[k * m:(k + 1) * m, :m]


def test_truncate_monomial_z1z2():
    t = bs.toeplitz_truncate(series_table({(1, 1): 1.0}), 3)
    assert np.allclose(phi(t, 0), 0.0)
    assert np.allclose(phi(t, 1), np.eye(3, k=-1))     # truncated shift
    assert np.allclose(phi(t, 2), 0.0)
    assembled = dense_toeplitz(t)
    assert set(np.unique(np.abs(assembled))) <= {0.0, 1.0}
    assert np.count_nonzero(assembled) == 4            # partial permutation


def test_truncate_constant():
    t = bs.toeplitz_truncate(series_table({(0, 0): 0.3}), 4)
    assert np.allclose(dense_toeplitz(t), 0.3 * np.eye(16))


def test_truncate_z2_diagonal_of_shifts():
    t = bs.toeplitz_truncate(series_table({(0, 1): 1.0}), 4)
    assert np.allclose(phi(t, 0), np.eye(4, k=-1))
    for k in range(1, 4):
        assert np.allclose(phi(t, k), 0.0)


def test_blocks_view_matches_dense_assembly():
    rng = np.random.default_rng(71)
    series = bs.PowerSeries2(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    t = bs.toeplitz_truncate(series, 6)
    assert np.array_equal(t.blocks, [phi(t, k) for k in range(6)])


def test_truncate_insufficient():
    with pytest.raises(InsufficientTruncationError):
        bs.toeplitz_truncate(series_table({(0, 0): 1.0}, shape=(4, 4)), 6)


def test_blocks_from_permutation_match_series_route():
    v = permutation_colligation()
    direct = bs.phi_blocks_from_colligation(v, 3)
    via_series = bs.toeplitz_truncate(bs.PowerSeries2(series_coefficient_table(v, 2, 2)), 3)
    assert np.array_equal(dense_toeplitz(direct), dense_toeplitz(via_series))
    assert np.allclose(dense_toeplitz(direct),
                       dense_toeplitz(bs.toeplitz_truncate(series_table({(1, 1): 1.0}), 3)))


def test_blocks_from_composed_match_series_route():
    rng = np.random.default_rng(14)
    for _ in range(5):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.7)
        direct = bs.phi_blocks_from_colligation(v, 6)
        via_series = bs.toeplitz_truncate(bs.PowerSeries2(series_coefficient_table(v, 5, 5)), 6)
        assert np.max(np.abs(dense_toeplitz(direct) - dense_toeplitz(via_series))) < 1e-10


def test_blocks_state_free():
    v = bs.Colligation(0.6, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0, 0])
    t = bs.phi_blocks_from_colligation(v, 3)
    assert np.allclose(phi(t, 0), 0.6 * np.eye(3))
    assert np.allclose(phi(t, 1), 0.0)


def test_blocks_require_structure():
    with pytest.raises(NotStructuredError):
        bs.phi_blocks_from_colligation(vt_colligation(0.5), 4)


def test_defect_zero_for_monomial():
    for order, window in ((6, 3), (8, 4), (16, 8)):
        t = bs.toeplitz_truncate(series_table({(1, 1): 1.0}, (order, order)), order)
        assert bs.isometry_defect(t, window) == pytest.approx(0.0)


def test_defect_product_mobius_decreases_with_order():
    phi = bs.mobius_of_product(0.5)
    defects = []
    for order in (12, 24, 48):
        t = bs.toeplitz_truncate(bs.series_of(phi, order - 1, order - 1), order)
        defects.append(bs.isometry_defect(t, 6))
    assert defects[0] > defects[1] > defects[2]
    t24 = bs.toeplitz_truncate(bs.series_of(phi, 23, 23), 24)
    assert bs.isometry_defect(t24, 8) <= 0.05


def test_defect_half_z1_not_inner():
    t = bs.toeplitz_truncate(series_table({(1, 0): 0.5}, (16, 16)), 16)
    defect = bs.isometry_defect(t, 8)
    assert defect >= 0.7
    # exact value: the windowed diagonal sits at 1/4 instead of 1
    assert defect == pytest.approx(0.75 * np.sqrt(8))


def test_defect_window_guard():
    t = bs.toeplitz_truncate(series_table({(0, 0): 1.0}), 8)
    with pytest.raises(WindowTooLargeError):
        bs.isometry_defect(t, 5)


def test_defect_matches_dense_reference():
    # the dense assembly up to order 24 and the shifted-copy Gram above it;
    # odd orders, window 1 (no rows past the head) and order = 2 window; the
    # product-Moebius symbol at t = 0.9 is near inner, its defect small
    rng = np.random.default_rng(70)
    for order, reference in ((12, dense_isometry_defect), (13, dense_isometry_defect),
                             (17, dense_isometry_defect), (24, dense_isometry_defect),
                             (32, shifted_copy_isometry_defect),
                             (48, shifted_copy_isometry_defect)):
        symbols = [bs.series_of(bs.mobius_of_product(c), order - 1, order - 1)
                   for c in (0.5, 0.9)]
        symbols += [bs.PowerSeries2(rng.normal(size=(order, order))
                                    + 1j * rng.normal(size=(order, order)))
                    for _ in range(3)]
        for series in symbols:
            t = bs.toeplitz_truncate(series, order)
            for window in (1, order // 4, order // 2):
                expected = reference(t, window)
                assert bs.isometry_defect(t, window) == pytest.approx(
                    expected, rel=1e-12, abs=1e-14)


def test_symbol_calculus_on_truncations():
    rng = np.random.default_rng(15)
    for _ in range(5):
        a = bs.PowerSeries2(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        b = bs.PowerSeries2(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        order = 4
        ta = dense_toeplitz(bs.toeplitz_truncate(a, order))
        tb = dense_toeplitz(bs.toeplitz_truncate(b, order))
        tab = dense_toeplitz(bs.toeplitz_truncate(a.mul(b), order))
        assert np.max(np.abs(ta @ tb - tab)) < 1e-12


def test_proof_diagnostics_certified():
    rng = np.random.default_rng(16)
    for _ in range(10):
        v, _, _ = composed_blaschke(rng, max_degree=4, radius=0.8)
        diag = toeplitz.proof_diagnostics(v)
        assert diag.y0 == pytest.approx(1.0, abs=1e-9)
        assert diag.max_y_offdiag <= 1e-8
        assert diag.max_c <= 1e-8
        # the geometric sums equal the identity
        assert max(diag.partial_sum_defects) <= 1e-9


def test_stein_sums_match_loop_reference():
    rng = np.random.default_rng(21)
    for h, radius in ((0, 0.5), (1, 0.5), (4, 0.9), (7, 0.95)):
        m = rng.normal(size=(h, h)) + 1j * rng.normal(size=(h, h))
        d = radius * m / np.max(np.abs(np.linalg.eigvals(m)), initial=1.0)
        x = rng.normal(size=(3, h, h)) + 1j * rng.normal(size=(3, h, h))
        x[0] = x[0] @ x[0].conj().T
        exact = toeplitz._stein_sums(d, x)
        reference = np.stack([loop_geometric_sum(d, xi, 3000) for xi in x])
        assert np.max(np.abs(exact - reference), initial=0.0) <= \
            1e-12 * (1.0 + np.max(np.abs(reference), initial=0.0))
        # a cap sums the largest power of two of terms not above it
        for terms, summed in ((1, 1), (5, 4), (64, 64)):
            capped = toeplitz._stein_sums(d, x, terms)
            reference = np.stack([loop_geometric_sum(d, xi, summed - 1) for xi in x])
            assert np.max(np.abs(capped - reference), initial=0.0) <= \
                1e-12 * (1.0 + np.max(np.abs(reference), initial=0.0))


@pytest.mark.parametrize("partition", [(3, 4), (5, 0), (0, 5), (1, 1)])
@pytest.mark.parametrize("kmax,jmax", [(8, 2), (0, 0), (3, 5)])
def test_proof_diagnostics_match_loop_reference(partition, kmax, jmax):
    rng = np.random.default_rng(22)
    for _ in range(3):
        v = random_triangular(rng, *partition, radius=0.7)
        diag = toeplitz.proof_diagnostics(v, kmax=kmax, jmax=jmax)
        y0, ys, cs, defects = loop_proof_diagnostics(v, kmax, jmax, 400)
        scale = 1.0 + abs(y0) + np.max(np.abs(cs), initial=0.0)
        assert abs(diag.y0 - y0) <= 1e-12 * scale
        assert diag.y_offdiag.shape == ys.shape and diag.c_table.shape == cs.shape
        assert np.max(np.abs(diag.y_offdiag - ys), initial=0.0) <= 1e-12 * scale
        assert np.max(np.abs(diag.c_table - cs), initial=0.0) <= 1e-12 * scale
        assert np.allclose(diag.partial_sum_defects, defects, rtol=1e-12, atol=1e-12)


def _cascade_with_zero_modulus(rng, r, degree):
    zeros = [r * np.exp(2j * np.pi * rng.uniform(size=degree)) for _ in range(2)]
    consts = np.exp(2j * np.pi * rng.uniform(size=2))
    return bs.compose_colligations(bs.model_colligation(consts[0], zeros[0]),
                                   bs.model_colligation(consts[1], zeros[1]))


@pytest.mark.parametrize("r", [0.9, 0.97, 0.99])
def test_proof_quantities_exact_near_the_circle(r):
    # certified degree-(6, 6) cascades whose zeros all have modulus r: the
    # proof quantities are exact sums, so they vanish to rounding however
    # slowly the powers of D decay
    rng = np.random.default_rng(23)
    for _ in range(5):
        cert = bs.certify_inner(_cascade_with_zero_modulus(rng, r, 6))
        assert cert.verdict == "certified"
        diag = cert.diagnostics
        assert abs(diag.y0 - 1.0) <= 1e-10
        assert diag.max_y_offdiag <= 1e-10
        assert diag.max_c <= 1e-10
        assert max(diag.partial_sum_defects) <= 1e-10


def test_proof_diagnostics_refuses_divergent_sum():
    # D1 = 1 has spectral radius 1, so the first-block sum diverges
    v = bs.Colligation(0.0, [[0.5, 0.0]], [[0.0], [0.0]], np.diag([1.0, 0.0]), [1, 1])
    with pytest.raises(NotStructuredError, match="spectral radius"):
        toeplitz.proof_diagnostics(v)
    cert = bs.certify_inner(v)
    assert cert.verdict == "refuted"
    assert cert.diagnostics is None


def test_proof_diagnostics_not_inner():
    # isometric column embedding of z1/2 misses the defect identities
    v = bs.Colligation(0.0, [[0.5, 0.0]], [[1.0], [0.0]],
                       np.zeros((2, 2)), [1, 1])
    diag = toeplitz.proof_diagnostics(v)
    assert abs(diag.y0 - 1.0) > 0.5


def test_certify_permutation():
    cert = bs.certify_inner(permutation_colligation())
    assert cert.verdict == "certified"
    assert cert.boundary_passed
    assert cert.defect == pytest.approx(0.0, abs=1e-12)


def test_certify_vt_inconclusive_but_inner_by_sampling():
    cert = bs.certify_inner(vt_colligation(0.5))
    assert cert.verdict == "inconclusive"
    assert "inner-by-sampling" in cert.detail
    assert cert.boundary_passed
    assert not cert.structure.lower_left_zero


def test_certify_boundary_sampling_unavailable():
    # z1 z2 / (1 - z1 z2) has a pole at (1, 1), a point of the scan grid
    v = bs.Colligation(0, [[1, 0]], [[0], [1]], [[0, 1], [1, 0]], [1, 1])
    cert = bs.certify_inner(v)
    assert cert.verdict == "inconclusive"
    assert cert.detail == "inconclusive-by-structure, boundary sampling unavailable"
    assert cert.boundary_deviation is None and cert.boundary_passed is None


def test_boundary_scan_grid_is_built_once():
    # one read-only grid shared by every scan; reports, argmax point
    # included, equal those on a freshly built grid
    grid = toeplitz._scan_grid(toeplitz.TORUS_SCAN)
    assert grid is toeplitz._scan_grid(toeplitz.TORUS_SCAN)
    assert not grid.points.flags.writeable
    fresh = bs.make_grid("torus2", toeplitz.TORUS_SCAN)
    assert grid.same_points(fresh)
    v = composed_blaschke(np.random.default_rng(23))[0]
    scaled = bs.Colligation(0.9 * v.a, 0.9 * v.B, 0.9 * v.C, 0.9 * v.D, v.partition)
    f = bs.mobius_of_product(0.5)
    assert toeplitz.boundary_scan(f, 1e-9) == bs.boundary_modulus_test(f, fresh, 1e-8)
    for v in (vt_colligation(0.5), scaled):
        report = toeplitz.boundary_scan(v, 1e-9)
        assert report == modulus_report(bs.transfer_torus(v, 64).ravel(), fresh, 1e-8)
    assert report.argmax_point != tuple(fresh.points[0])


def test_certify_refutes_half_z1():
    # contractive realization of z1/2 through an isometrically embedded
    # state column; |tau| = 1/2 on the torus, so sampling refutes
    v = bs.Colligation(0.0, [[0.5, np.sqrt(3) / 2]], [[1.0], [0.0]],
                       np.zeros((2, 2)), [1, 1])
    assert bs.classify(v.C).is_isometry
    assert bs.transfer_2d(v, (0.4, -0.3j)) == pytest.approx(0.2)
    cert = bs.certify_inner(v)
    assert cert.verdict == "refuted"
    assert cert.boundary_deviation == pytest.approx(0.5, abs=1e-9)


def test_certified_random_composed():
    rng = np.random.default_rng(17)
    for _ in range(10):
        v, _, _ = composed_blaschke(rng, max_degree=4, radius=0.8)
        assert bs.certify_inner(v).verdict == "certified"


def test_certify_one_sided_partitions():
    m = bs.model_colligation(1.0, [0.4])
    const = bs.Colligation(1.0, np.zeros((1, 0)), np.zeros((0, 1)),
                           np.zeros((0, 0)), [0])
    for v in (bs.compose_colligations(m, const), bs.compose_colligations(const, m)):
        assert 0 in v.partition
        cert = bs.certify_inner(v)
        assert cert.verdict == "certified"
        assert max(cert.diagnostics.partial_sum_defects) < 1e-12


def test_defect_monotone_in_order_certified():
    rng = np.random.default_rng(18)
    for _ in range(5):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.6)
        defects = [bs.isometry_defect(bs.phi_blocks_from_colligation(v, m), 6)
                   for m in (12, 24, 36)]
        assert defects[0] >= defects[1] >= defects[2] - 1e-15
