import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import colligation
from bidisc_schur.colligation import (
    _power_rows,
    _resolvent_solve,
    blaschke_section,
    series_coefficient_table,
    transfer_grid,
    transfer_torus,
)
from bidisc_schur.errors import (
    ConditionFailedError,
    NotDivisibleError,
    NotStructuredError,
    ResolventIllConditionedError,
    ZeroOnBoundaryError,
)
from bidisc_schur.toeplitz import boundary_scan
from helpers import (
    blaschke_callable,
    composed_blaschke,
    contraction,
    count_calls,
    count_linalg_solves,
    dense_resolvent_solve,
    dense_transfer,
    loop_series_coefficient_table,
    model_matrices_boundary_oracle,
    permutation_colligation,
    random_blaschke,
    random_triangular,
    random_two_var_unitary,
    random_unitary,
    random_upper_triangular,
    taylor_from_samples,
    triangular_contraction,
    unitary_colligation,
    vt_colligation,
)


def test_transfer_1d_shift():
    v = bs.Colligation(0.0, [[1.0]], [[1.0]], [[0.0]], [1])
    for z in (0.3, -0.5j, 0.1 + 0.2j):
        assert v(z) == pytest.approx(z)


def test_transfer_1d_identity_colligation():
    v = bs.Colligation(1.0, [[0.0, 0.0]], [[0.0], [0.0]], np.eye(2), [2])
    assert v(0.4) == pytest.approx(1.0)


def test_transfer_1d_mobius():
    r = np.sqrt(3) / 2
    v = bs.Colligation(0.5, [[r]], [[r]], [[-0.5]], [1])
    assert v(0.3) == pytest.approx(0.8 / 1.15)
    z = 0.2 - 0.6j
    assert v(z) == pytest.approx((z + 0.5) / (1 + 0.5 * z))


def test_transfer_grid_one_variable_mobius():
    # one-variable points, as a column or as a flat array, take the same
    # batched solve as two-variable ones
    alpha = 0.3 - 0.4j
    v = blaschke_section(alpha)
    z = bs.make_grid("disc", 30, seed=9).points[:, 0]
    expected = (z - alpha) / (1 - np.conj(alpha) * z)
    for pts in (z[:, None], z):
        assert np.max(np.abs(transfer_grid(v, pts) - expected)) < 1e-14
    assert v(z[0]) == pytest.approx(expected[0], abs=1e-14)


def test_transfer_1d_pole_guard():
    v = bs.Colligation(1.0, [[1.0]], [[1.0]], [[1.0]], [1])
    with pytest.raises(ResolventIllConditionedError):
        v(1.0)


def close(got, want):
    return got.shape == want.shape and np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


def bidisc_points(rng, n):
    pts = 0.95 * np.sqrt(rng.uniform(size=(n, 2))) * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))
    pts[:3, 0] = 0.0                    # states whose E entry vanishes
    pts[3:5, 1] = 0.0
    return pts


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("h", [0, 1, 7, 24])
@pytest.mark.parametrize("split", ["first", "second", "both"])
def test_resolvent_substitution_matches_dense_reference(h, split, transpose, monkeypatch):
    rng = np.random.default_rng(100 * h + len(split) + transpose)
    h1 = {"first": h, "second": 0, "both": (h + 1) // 2}[split]
    h2 = h - h1
    d = random_upper_triangular(rng, h)
    n = 40
    reps = np.repeat(bidisc_points(rng, n), [h1, h2], axis=1)
    for k in sorted({1, 1 + h2}):
        rhs = rng.normal(size=(n, h, k)) + 1j * rng.normal(size=(n, h, k))
        for r in (rhs, rhs[0]):                         # n x h x k, and one h x k for all
            want = dense_resolvent_solve(d, reps, r, transpose)
            calls = count_linalg_solves(monkeypatch)
            assert close(_resolvent_solve(d, reps, r, transpose), want), (k, r.ndim)
            assert calls == []


def test_resolvent_pole_guard_on_both_paths(monkeypatch):
    # 1 - z D_11 = 0 at z = 0.5: an exact pole, first with a triangular D,
    # then behind a below-diagonal entry, where I - z D is singular as well
    tri = bs.Colligation(0, [[1]], [[1]], [[2.0]], [1])
    full = bs.Colligation(0, [[1, 0]], [[1], [0]], [[2.0, 0], [1.0, 0]], [2])
    for v, solves in ((tri, False), (full, True)):
        calls = count_linalg_solves(monkeypatch)
        with pytest.raises(ResolventIllConditionedError):
            v(0.5)
        for transpose in (False, True):
            with pytest.raises(ResolventIllConditionedError):
                _resolvent_solve(v.D, np.full((3, v.h), 0.5), np.ones((v.h, 1)), transpose)
        assert bool(calls) == solves
        assert np.isfinite(v(0.25))


@pytest.mark.parametrize("transpose", [False, True])
def test_resolvent_tiny_below_diagonal_entry_takes_lu(transpose, monkeypatch):
    rng = np.random.default_rng(8)
    d = random_upper_triangular(rng, 7)
    reps = np.repeat(bidisc_points(rng, 30), [3, 4], axis=1)
    rhs = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    want = _resolvent_solve(d, reps, rhs, transpose)
    d[5, 2] = 1e-300
    calls = count_linalg_solves(monkeypatch)
    got = _resolvent_solve(d, reps, rhs, transpose)
    assert calls
    assert close(got, want)
    assert close(got, dense_resolvent_solve(d, reps, rhs, transpose))


def test_transfer_constant_when_ports_vanish():
    # B = 0 or C = 0 forces a constant transfer; no resolvent is needed even
    # where I - z D is singular
    v = bs.Colligation(0.3j, [[0.0]], [[1.0]], [[1.0]], [1])
    assert v(1.0) == pytest.approx(0.3j)
    v2 = bs.Colligation(1.0, np.zeros((1, 2)), np.zeros((2, 1)), np.eye(2), [1, 1])
    assert v2(1.0, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [1, 3, 5, 64, 100])
def test_transfer_torus_matches_transfer_grid(m):
    rng = np.random.default_rng(m)
    cases = [contraction(rng, h1, h2, zero) for h1, h2, zero in
             ((7, 0, False), (0, 9, False), (12, 12, False), (12, 12, True),
              (5, 19, False), (5, 19, True))]
    u = random_unitary(rng, 25)
    cases.append(bs.Colligation(u[0, 0], u[:1, 1:], u[1:, :1], u[1:, 1:], [10, 14]))
    cascades = [composed_blaschke(rng, max_degree=12)[0] for _ in range(2)]
    points = bs.make_grid("torus2", m).points
    for v in cases + cascades:
        want = transfer_grid(v, points).reshape(m, m)
        got = transfer_torus(v, m)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want))), v.partition
    # cascades are solved by substitution: both against the dense reference
    for v in cascades:
        want = dense_transfer(v, points).reshape(m, m)
        assert close(transfer_grid(v, points).reshape(m, m), want), v.partition
        assert close(transfer_torus(v, m), want), v.partition


@pytest.mark.parametrize("m", [1, 3, 64])
def test_transfer_torus_pole_guard(m):
    # z1 z2 / (1 - z1 z2): a pole at (1, 1), a point of every torus grid
    v = bs.Colligation(0, [[1, 0]], [[0], [1]], [[0, 1], [1, 0]], [1, 1])
    with pytest.raises(ResolventIllConditionedError):
        transfer_torus(v, m)


def test_transfer_torus_refuses_growing_powers():
    # D4 = S diag(3, 1/2) S^-1 has no pole on the torus, so the per-point
    # solves succeed; but its powers mix a growing and a decaying direction.
    # Behind a nonzero coupling block (D1 = D2 = 0 and C1 = 0, so D' = D4
    # and C' = C2 at every z1) the aliased sums run, and their rounding bound
    # refuses them
    s = np.array([[1.0, 1.0], [0.0, 1.0]])
    d4 = s @ np.diag([3.0, 0.5]) @ np.linalg.inv(s)
    d = np.zeros((3, 3))
    d[1, 0] = 1.0
    d[1:, 1:] = d4
    v = bs.Colligation(0.0, [[0.0, 1.0, 0.0]], [[0.0], [0.0], [1.0]], d, [1, 2])
    grid = bs.make_grid("torus2", 64)
    assert np.all(np.isfinite(transfer_grid(v, grid.points)))
    with pytest.raises(ResolventIllConditionedError, match="rounding"):
        transfer_torus(v, 64)
    # the boundary scan then falls back to the per-point solves
    assert boundary_scan(v, 1e-9) == bs.boundary_modulus_test(v, grid, 1e-8)
    # with no coupling block the outer product needs no aliased sums
    v = bs.Colligation(0.0, [[1.0, 0.0]], [[0.0], [1.0]], d4, [0, 2])
    want = transfer_grid(v, grid.points).reshape(64, 64)
    assert close(transfer_torus(v, 64), want)


@pytest.mark.parametrize("m", [1, 2, 7, 64])
@pytest.mark.parametrize("partition", [(0, 0), (1, 0), (24, 0), (0, 1), (0, 24),
                                       (1, 1), (3, 9), (12, 12), (20, 4)])
def test_transfer_torus_zero_coupling_matches_dense_reference(partition, m):
    rng = np.random.default_rng(1000 * m + 31 * partition[0] + partition[1])
    points = bs.make_grid("torus2", m).points
    for v in (triangular_contraction(rng, *partition),
              contraction(rng, *partition, zero_lower_left=True)):
        assert close(transfer_torus(v, m), dense_transfer(v, points).reshape(m, m))


def test_transfer_torus_pole_in_the_second_block():
    # z2 / (1 - z2): a pole at z2 = 1, met by the zero-coupling solve
    v = bs.Colligation(0, [[1]], [[1]], [[1.0]], [0, 1])
    with pytest.raises(ResolventIllConditionedError):
        transfer_torus(v, 64)
    assert boundary_scan(v, 1e-9) is None


@pytest.mark.parametrize("v,m,message", [
    (bs.model_colligation(1.0, [0.5]), 8, "two-variable"),
    (permutation_colligation(), 0, "m >= 1"),
    (permutation_colligation(), -3, "m >= 1"),
])
def test_transfer_torus_refuses_one_variable_and_empty_grids(v, m, message):
    with pytest.raises(ValueError, match=message):
        transfer_torus(v, m)


def test_transfer_torus_zero_coupling_takes_no_power_rows_and_no_lu(monkeypatch):
    rng = np.random.default_rng(13)
    cascade = composed_blaschke(rng, max_degree=12)[0]
    want = transfer_grid(cascade, bs.make_grid("torus2", 64).points).reshape(64, 64)

    def refuse(*args):
        raise AssertionError("zero coupling took the aliased sums")

    calls = count_linalg_solves(monkeypatch)
    solves = count_calls(monkeypatch, colligation, "_resolvent_solve")
    with monkeypatch.context() as patch:
        patch.setattr(colligation, "_power_rows", refuse)
        assert close(transfer_torus(cascade, 64), want)
    assert calls == []
    # one row solve with D1 and one column solve with D4, one right-hand
    # column each
    h1, h2 = cascade.partition
    assert [(args[0].shape, np.shape(args[2])) for args in solves] == \
        [((h1, h1), (h1, 1)), ((h2, h2), (h2, 1))]
    # a (10, 2) cascade: certify_inner makes no LU solve either (its series
    # table takes _power_rows, but the aliased sums would LU-solve I - D'^m)
    v = bs.compose_colligations(bs.model_colligation(1.0, 0.6 * np.exp(0.7j * np.arange(10))),
                                bs.model_colligation(-1.0, [0.5, -0.3j]))
    assert v.partition == (10, 2)
    assert bs.certify_inner(v).verdict == "certified"
    assert calls == []
    monkeypatch.undo()
    # V_t has a coupling block: the aliased path and its LU solve of I - D'^m
    calls = count_linalg_solves(monkeypatch)
    transfer_torus(vt_colligation(0.5), 64)
    assert calls


def test_transfer_torus_non_contractive_agrees_or_refuses():
    rng = np.random.default_rng(5)
    points = bs.make_grid("torus2", 64).points
    outcomes = set()
    for _ in range(12):
        h1, h2 = (int(k) for k in rng.integers(1, 7, size=2))
        v = contraction(rng, h1, h2, norm=rng.uniform(1.2, 3.0))
        try:
            got = transfer_torus(v, 64)
        except ResolventIllConditionedError:
            outcomes.add("refused")
            continue
        want = transfer_grid(v, points).reshape(64, 64)
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))
        outcomes.add("agreed")
    assert outcomes == {"agreed", "refused"}


def test_transfer_grid_on_an_axis_is_the_one_variable_factor():
    # where z2 = 0 the second block's states have x = 0 and are dropped, so
    # f(z1, 0) is computed exactly as the colligation [[a, B1], [C1, D1]]
    v = contraction(np.random.default_rng(11), 5, 7)
    z = bs.make_grid("disc", 40, seed=2).points
    zero = np.zeros_like(z)
    first = bs.Colligation(v.a, v.B1, v.C1, v.D1, [5])
    second = bs.Colligation(v.a, v.B2, v.C2, v.D4, [7])
    assert np.array_equal(transfer_grid(v, np.hstack([z, zero])), transfer_grid(first, z))
    assert np.array_equal(transfer_grid(v, np.hstack([zero, z])), transfer_grid(second, z))
    assert np.array_equal(transfer_grid(v, np.zeros((3, 2))), np.full(3, v.a))


def test_transfer_grid_three_blocks_matches_dense_solve():
    # E(z) = z1 I (+) z2 I (+) z3 I along the partition (2, 1, 2), solved
    # point by point with dense matrices; the colligation is unitary, so
    # |f| = 1 on the torus T^3
    v = unitary_colligation(np.random.default_rng(1), [2, 1, 2])
    pts = bs.make_grid("polydisc-3", 50, seed=1).points
    assert np.max(np.abs(transfer_grid(v, pts) - dense_transfer(v, pts))) <= 1e-14
    torus = np.exp(2j * np.pi * np.random.default_rng(2).uniform(size=(400, 3)))
    assert np.max(np.abs(np.abs(v(*torus.T)) - 1.0)) <= 1e-13


@pytest.mark.parametrize("partition", [[], ()])
def test_colligation_refuses_an_empty_partition(partition):
    with pytest.raises(ValueError, match="partition must have at least one block"):
        bs.Colligation(1.0, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), partition)


def test_transfer_2d_permutation():
    v = permutation_colligation()
    for z in ((0.3, 0.5), (0.2j, -0.4), (0.1 + 0.1j, 0.6)):
        assert v(*z) == pytest.approx(z[0] * z[1])


def test_transfer_2d_product_mobius_realization():
    phi = bs.mobius_of_product(0.5)
    v = vt_colligation(0.5)
    rng = np.random.default_rng(6)
    pts = 0.9 * np.sqrt(rng.uniform(size=(20, 2))) * np.exp(
        2j * np.pi * rng.uniform(size=(20, 2)))
    for z1, z2 in pts:
        assert v(z1, z2) == pytest.approx(phi(z1, z2), abs=1e-12)


def test_transfer_2d_state_free():
    v = bs.Colligation(0.7j, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0, 0])
    assert v(0.5, 0.5) == pytest.approx(0.7j)


def test_transfer_grid_matches_pointwise():
    v = random_two_var_unitary(np.random.default_rng(7))
    grid = bs.make_grid("bidisc", 15, seed=3)
    batched = transfer_grid(v, grid.points)
    single = [v(*p) for p in grid.points]
    assert np.allclose(batched, single, atol=1e-12)


def test_colligation_call_broadcasts_like_transfer_grid():
    v = random_two_var_unitary(np.random.default_rng(9))
    z1 = 0.6 * np.exp(1j * np.arange(12)).reshape(3, 4)
    z2 = 0.5 * np.exp(-2j * np.arange(4))
    vals = v(z1, z2)
    assert vals.shape == (3, 4)
    pts = np.column_stack([z1.ravel(), np.broadcast_to(z2, (3, 4)).ravel()])
    assert np.array_equal(vals.ravel(), transfer_grid(v, pts))
    assert np.ndim(v(0.3, -0.2j)) == 0
    assert v(0.3, -0.2j) == bs.transfer_2d(v, (0.3, -0.2j))
    assert bs.as_transfer_callable(v) is v


def test_colligation_call_one_variable():
    v = bs.model_colligation(1.0, [0.5, -0.25j])
    z = np.array([[0.0, 0.3], [-0.4 + 0.5j, 0.9j]])
    vals = v(z)
    assert vals.shape == (2, 2)
    assert np.allclose(vals, [[bs.transfer_1d(v, w) for w in row] for row in z], atol=1e-15)
    assert v(0.3) == bs.transfer_1d(v, 0.3)


@pytest.mark.parametrize("v,coords", [
    (permutation_colligation(), (0.3,)),
    (permutation_colligation(), (0.3, 0.1, 0.2)),
    (bs.model_colligation(1.0, [0.5]), (0.3, 0.1)),
])
def test_colligation_call_needs_one_coordinate_per_variable(v, coords):
    with pytest.raises(ValueError, match=f"{v.nvars}-variable colligation takes"):
        v(*coords)


def test_colligation_call_is_one_module_transfer_grid_call(monkeypatch):
    # the call looks transfer_grid up when it runs, so a wrapper installed
    # on the module (as a tracer does) sees every evaluation
    from bidisc_schur import colligation
    calls = []
    original = colligation.transfer_grid

    def counting(v, points):
        calls.append(np.shape(points))
        return original(v, points)
    monkeypatch.setattr(colligation, "transfer_grid", counting)
    permutation_colligation()(np.zeros(5), np.ones(5) / 2)
    assert calls == [(5, 2)]


def test_series_2d_permutation():
    s = bs.PowerSeries2(series_coefficient_table(permutation_colligation(), 4, 4))
    expected = np.zeros((5, 5))
    expected[1, 1] = 1.0
    assert np.allclose(s.coeffs, expected)


def test_series_2d_composed_product_series():
    # coefficients of a product factor as the outer product of the factors'
    # one-variable expansions: (z-a)/(1-conj(a)z) has c_0 = -a and
    # c_k = (1-|a|^2) conj(a)^{k-1} for k >= 1
    def mobius_series(a, n):
        c = np.empty(n + 1, dtype=complex)
        c[0] = -a
        c[1:] = (1 - abs(a) ** 2) * np.conj(a) ** np.arange(n)
        return c

    a1, a2 = 0.5, -1 / 3
    v = bs.compose_colligations(bs.model_colligation(1.0, [a1]),
                                bs.model_colligation(1.0, [a2]))
    s = bs.PowerSeries2(series_coefficient_table(v, 8, 8))
    expected = np.outer(mobius_series(a1, 8), mobius_series(a2, 8))
    assert np.max(np.abs(s.coeffs - expected)) < 1e-12


def test_series_2d_state_free():
    v = bs.Colligation(0.4, np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((0, 0)), [0, 0])
    s = bs.PowerSeries2(series_coefficient_table(v, 3, 3))
    assert s.coeffs[0, 0] == pytest.approx(0.4)
    assert np.max(np.abs(s.coeffs.ravel()[1:])) == 0.0


@pytest.mark.parametrize("partition", [(3, 4), (6, 0), (0, 6)])
@pytest.mark.parametrize("n1,n2", [(0, 0), (15, 15), (3, 9)])
def test_series_table_matches_loop_reference(partition, n1, n2):
    rng = np.random.default_rng(24)
    for _ in range(3):
        v = random_triangular(rng, *partition, radius=0.9)
        table = series_coefficient_table(v, n1, n2)
        reference = loop_series_coefficient_table(v, n1, n2)
        assert table.shape == reference.shape
        assert np.max(np.abs(table - reference)) <= 1e-12 * (1.0 + np.max(np.abs(reference)))


def test_powers_stack():
    # b d^i for i < m stacked along axis -3, and d^m, for a block b of k
    # rows, alone and in a batch of three (d scaled to norm 1)
    rng = np.random.default_rng(25)
    d = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    d /= np.linalg.norm(d, 2, axis=(1, 2), keepdims=True)
    for k in (1, 2):
        b = rng.normal(size=(3, k, 4)) + 1j * rng.normal(size=(3, k, 4))
        for m in (0, 1, 2, 5, 8, 64):
            want = np.array([[bj @ np.linalg.matrix_power(dj, i) for i in range(m)]
                             for bj, dj in zip(b, d)]).reshape(3, m, k, 4)
            for bb, dd, ww in ((b, d, want), (b[1], d[1], want[1])):
                rows, dm = _power_rows(bb, dd, m)
                assert rows.shape == ww.shape
                assert np.allclose(rows, ww, rtol=1e-12, atol=1e-12)
                if m:
                    assert np.allclose(dm, np.linalg.matrix_power(dd, m), rtol=1e-12, atol=1e-12)


def test_series_2d_needs_structure():
    with pytest.raises(NotStructuredError):
        series_coefficient_table(vt_colligation(0.5), 4, 4)


def test_series_2d_matches_fft_taylor():
    rng = np.random.default_rng(8)
    for _ in range(5):
        c1, z1 = random_blaschke(rng, 3, 0.7)
        c2, z2 = random_blaschke(rng, 3, 0.7)
        v = bs.compose_colligations(bs.model_colligation(c1, z1),
                                    bs.model_colligation(c2, z2))
        direct = bs.PowerSeries2(series_coefficient_table(v, 8, 8))
        sampled = taylor_from_samples(v, 8, 8)
        assert np.max(np.abs(direct.coeffs - sampled.coeffs)) < 1e-7


def test_structure_report_permutation():
    rep = bs.structure_report(permutation_colligation())
    assert rep.is_unitary and rep.lower_left_zero
    assert rep.radii == pytest.approx((0.0, 0.0))
    assert rep.c0dot == (True, True)


def test_structure_report_vt():
    rep = bs.structure_report(vt_colligation(0.5))
    assert rep.is_unitary
    assert not rep.lower_left_zero
    assert not rep.factorization_condition


def test_structure_report_identity():
    v = bs.Colligation(1.0, np.zeros((1, 2)), np.zeros((2, 1)), np.eye(2), [1, 1])
    rep = bs.structure_report(v)
    assert rep.is_unitary and rep.lower_left_zero
    assert rep.radii == pytest.approx((1.0, 1.0))
    assert rep.c0dot == (False, False)


@pytest.mark.parametrize("check", [bs.structure_report, bs.certify_inner,
                                   bs.weak_converse_check, bs.check_condition_4])
def test_structure_report_is_the_arity_gate(check):
    # each check built on the structure report refuses one variable through it
    with pytest.raises(NotStructuredError, match="structure_report needs a two-variable"):
        check(bs.model_colligation(1.0, [0.5]))


def test_contraction_maps_bidisc_into_disc():
    rng = np.random.default_rng(9)
    grid = bs.make_grid("bidisc", 30, seed=5)
    for _ in range(10):
        v = random_two_var_unitary(rng)
        vals = transfer_grid(v, grid.points)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        # strict contractions too, not only unitaries
        shrunk = bs.Colligation(0.9 * v.a, 0.9 * v.B, 0.9 * v.C, 0.9 * v.D,
                                list(v.partition))
        assert shrunk.classify().is_contraction
        assert np.max(np.abs(transfer_grid(shrunk, grid.points))) <= 1.0 + 1e-9


def test_model_colligation_shift():
    v = bs.model_colligation(1.0, [0.0])
    assert np.allclose(v.V, np.array([[0, 1], [1, 0]], dtype=complex))


def test_model_colligation_shift_squared():
    v = bs.model_colligation(1.0, [0.0, 0.0])
    assert v.a == pytest.approx(0.0)
    assert np.allclose(v.B, [[1.0, 0.0]])
    assert np.allclose(v.C, [[0.0], [1.0]])
    assert np.allclose(v.D, [[0.0, 1.0], [0.0, 0.0]])
    for w in (0.3, -0.2 + 0.5j):
        assert v(w) == pytest.approx(w ** 2)


def test_model_colligation_constant():
    c = np.exp(0.3j)
    v = bs.model_colligation(c, [])
    assert v.h == 0
    assert v.a == pytest.approx(c)


@pytest.mark.parametrize("c", [0.5, 1.0 + 1e-9, 2j, 0.0])
def test_model_colligation_refuses_non_unimodular_constant(c):
    with pytest.raises(ConditionFailedError, match="unimodular"):
        bs.model_colligation(c, [0.5])


def test_model_colligation_zero_on_boundary():
    with pytest.raises(ZeroOnBoundaryError):
        bs.model_colligation(1.0, [1.0])
    with pytest.raises(ZeroOnBoundaryError):
        blaschke_section(np.exp(1j))


def test_model_colligation_matches_boundary_integral_oracle():
    rng = np.random.default_rng(10)
    for _ in range(6):
        constant, zeros = random_blaschke(rng, 4, 0.85)
        v = bs.model_colligation(constant, zeros)
        a, b, c, d = model_matrices_boundary_oracle(constant, zeros)
        assert abs(v.a - a) < 1e-10
        assert np.max(np.abs(v.B - b)) < 1e-10
        assert np.max(np.abs(v.C - c)) < 1e-10
        assert np.max(np.abs(v.D - d)) < 1e-10


def test_model_colligation_random_products():
    rng = np.random.default_rng(11)
    disc = bs.make_grid("disc", 50, seed=12).points[:, 0]
    for _ in range(100):
        constant, zeros = random_blaschke(rng, 6, 0.9, min_degree=0)
        v = bs.model_colligation(constant, zeros)
        assert v.classify(1e-9).is_unitary
        target = blaschke_callable(constant, zeros)(disc)
        values = transfer_grid(v, disc[:, None])
        assert np.max(np.abs(values - target)) < 1e-9


def test_block_triangular_c0dot_iff_blocks():
    rng = np.random.default_rng(13)
    for _ in range(20):
        h1, h2 = rng.integers(1, 4, size=2)
        d1 = 0.6 * np.linalg.qr(rng.normal(size=(h1, h1)))[0] * rng.uniform(0.2, 1.5)
        d3 = 0.6 * np.linalg.qr(rng.normal(size=(h2, h2)))[0] * rng.uniform(0.2, 1.5)
        d = np.block([[d1, rng.normal(size=(h1, h2))], [np.zeros((h2, h1)), d3]])
        whole = bs.spectral_radius(d) < 1
        blocks = bs.spectral_radius(d1) < 1 and bs.spectral_radius(d3) < 1
        assert whole == blocks


def test_strip_monomial_z1z2_not_divisible():
    f = bs.RationalFunction2((1, 1), bs.Poly2([[1.0]]))
    with pytest.raises(NotDivisibleError, match="second"):
        bs.strip_monomial(f)


def test_strip_monomial_z1_times_inner():
    f = bs.RationalFunction2((1, 0), bs.mobius_of_product(0.5).denominator)
    p, stripped = bs.strip_monomial(f)
    assert p == 1
    assert stripped(0.0, 0.0) == pytest.approx(-0.5)
    grid = bs.make_grid("bidisc", 10, seed=1)
    z1, z2 = grid.points[:, 0], grid.points[:, 1]
    assert np.allclose(z1 * stripped(z1, z2), f(z1, z2))


def test_strip_monomial_noop():
    f = bs.mobius_of_product(0.5)
    p, stripped = bs.strip_monomial(f)
    assert p == 0 and stripped is f


def test_strip_monomial_series_input():
    table = np.zeros((4, 4), dtype=complex)
    table[2, 0] = 1.0
    table[3, 1] = 0.5
    p, stripped = bs.strip_monomial(bs.PowerSeries2(table))
    assert p == 2
    assert stripped.coeffs[0, 0] == pytest.approx(1.0)


def test_strip_monomial_var2():
    f = bs.RationalFunction2((0, 2), bs.mobius_of_product(0.5).denominator)
    p, stripped = bs.strip_monomial_var2(f)
    assert p == 2
    assert stripped(0.0, 0.0) == pytest.approx(-0.5)


def test_strip_monomial_no_z1_factor():
    table = np.zeros((3, 3), dtype=complex)
    table[0, 1] = 1.0   # pure z2: nothing to strip in the first variable
    with pytest.raises(NotDivisibleError):
        bs.strip_monomial(bs.PowerSeries2(table))
