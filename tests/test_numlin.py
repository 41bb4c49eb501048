import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import numlin
from bidisc_schur.errors import (
    DeltaNotInvertibleError,
    DomainError,
    NonFiniteError,
    NonHermitianError,
    NonSquareError,
    NotPsdError,
    PNotInvertibleError,
)
from helpers import random_unitary


def szego_gram_3():
    pts = np.array([0.0, 0.3, 0.5 + 0.2j])
    return 1.0 / (1.0 - pts[:, None] * np.conj(pts)[None, :])


def test_is_psd_identity():
    rep = bs.is_psd(np.eye(2), 1e-10)
    assert rep.is_psd and rep.min_eigenvalue == pytest.approx(1.0)


def test_is_psd_indefinite_symmetric():
    rep = bs.is_psd(np.array([[1, 2], [2, 1]], dtype=complex))
    assert not rep.is_psd
    assert rep.min_eigenvalue == pytest.approx(-1.0)


def test_is_psd_szego_gram():
    g = szego_gram_3()
    lam = np.linalg.eigvalsh((g + g.conj().T) / 2)   # oracle: direct eigenvalues
    assert lam[0] > 0
    rep = bs.is_psd(g)
    assert rep.is_psd
    assert rep.min_eigenvalue == pytest.approx(float(lam[0]), abs=1e-12)


def test_is_psd_errors():
    with pytest.raises(NonSquareError):
        bs.is_psd(np.ones((2, 3)))
    with pytest.raises(NonHermitianError):
        bs.is_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_factor_zero_matrix():
    fact = bs.psd_factor(np.zeros((3, 3)))
    assert fact.rank == 0
    assert fact.factor.shape == (3, 0)
    assert np.allclose(fact.factor @ fact.factor.conj().T, 0.0, atol=1e-12)


def test_psd_factor_rank_one():
    v = np.array([[1.0], [1.0j]])
    a = v @ v.conj().T
    fact = bs.psd_factor(a)
    assert fact.rank == 1
    assert np.allclose(fact.factor @ fact.factor.conj().T, a, atol=1e-12)


def test_psd_factor_szego_rank():
    g = szego_gram_3()
    cut = 1e-9 * (1.0 + np.linalg.norm(g))
    expected_rank = int(np.sum(np.linalg.eigvalsh(g) > cut))  # oracle: eigenvalue count
    assert expected_rank == 3
    assert bs.psd_factor(g).rank == 3


def test_psd_factor_rejects_indefinite():
    with pytest.raises(NotPsdError):
        bs.psd_factor(np.array([[1, 2], [2, 1]], dtype=complex))


def _hermitian_cases(rng):
    """(name, matrix) pairs: PSD of full rank, rank-deficient PSD, and
    indefinite Hermitian matrices, a few sizes each."""
    for n in (1, 4, 9):
        for rank in (n, max(n // 2, 1), 0):
            m = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            yield f"psd-{n}-rank{rank}", m @ m.conj().T
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        yield f"hermitian-{n}", h + h.conj().T
        # PSD but for one eigenvalue just below and one just above the cut
        q = np.linalg.qr(h)[0]
        cut = 1e-9 * (1.0 + np.sqrt(n))
        for lam in (-2.0 * cut, -0.25 * cut):
            vals = np.ones(n)
            vals[0] = lam
            yield f"edge-{n}-{lam:+.0e}", (q * vals) @ q.conj().T


def test_psd_factor_raises_exactly_when_is_psd_fails():
    rng = np.random.default_rng(3)
    seen = set()
    for name, a in _hermitian_cases(rng):
        report = bs.is_psd(a)
        seen.add(report.is_psd)
        if report.is_psd:
            fact = bs.psd_factor(a)
            assert fact.factor.shape == (a.shape[0], fact.rank), name
            assert np.linalg.norm(fact.factor @ fact.factor.conj().T - a) \
                <= 1e-8 * (1.0 + np.linalg.norm(a)), name
        else:
            with pytest.raises(NotPsdError):
                bs.psd_factor(a)
    assert seen == {True, False}
    skew = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for fn in (bs.is_psd, bs.psd_factor):
        with pytest.raises(NonHermitianError):
            fn(skew)


def test_psd_factor_idempotent_rank():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        fact = bs.psd_factor(m @ m.conj().T)
        again = bs.psd_factor(fact.factor @ fact.factor.conj().T)
        assert again.rank == fact.rank == 3


def test_classify_identity():
    cls = bs.classify(np.eye(2))
    assert cls.is_isometry and cls.is_coisometry and cls.is_unitary and cls.is_contraction


def test_classify_column_embedding():
    cls = bs.classify(np.array([[1.0], [0.0]]))
    assert cls.is_isometry and not cls.is_coisometry and not cls.is_unitary


def test_classify_reflection_unitary():
    v = np.array([[0.5, np.sqrt(3) / 2], [np.sqrt(3) / 2, -0.5]])
    assert np.allclose(v.conj().T @ v, np.eye(2))   # oracle: direct multiplication
    assert bs.classify(v).is_unitary


def test_classify_random_unitaries():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        assert bs.classify(random_unitary(rng, n), 1e-9).is_unitary


def test_spectral_radius():
    assert bs.spectral_radius(np.array([[0, 1], [0, 0]])) == pytest.approx(0.0)
    assert bs.spectral_radius(np.array([[1.0]])) == pytest.approx(1.0)
    assert bs.spectral_radius(np.array([[0, 1], [0.25, 0]])) == pytest.approx(0.5)
    assert bs.spectral_radius(np.zeros((0, 0))) == 0.0
    with pytest.raises(NonSquareError):
        bs.spectral_radius(np.ones((2, 3)))


def test_spectral_radius_block_triangular_union():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n1, n2 = rng.integers(1, 5, size=2)
        d1 = rng.normal(size=(n1, n1)) + 1j * rng.normal(size=(n1, n1))
        d3 = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
        d2 = rng.normal(size=(n1, n2)) + 1j * rng.normal(size=(n1, n2))
        block = np.block([[d1, d2], [np.zeros((n2, n1)), d3]])
        expected = max(bs.spectral_radius(d1), bs.spectral_radius(d3))
        assert bs.spectral_radius(block) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_block_inverse_identity_blocks():
    out = bs.block_inverse_2x2(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    assert np.allclose(out, np.eye(4))


def test_block_inverse_scalar_blocks():
    out = bs.block_inverse_2x2([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert np.allclose(out, np.array([[1.0, -1.0], [0.0, 1.0]]))


def test_block_inverse_singular_complement():
    with pytest.raises(DeltaNotInvertibleError):
        bs.block_inverse_2x2([[1.0]], [[1.0]], [[1.0]], [[1.0]])


def test_block_inverse_singular_p():
    with pytest.raises(PNotInvertibleError):
        bs.block_inverse_2x2([[0.0]], [[1.0]], [[1.0]], [[1.0]])


def test_block_inverse_matches_direct_inversion():
    rng = np.random.default_rng(3)
    done = 0
    while done < 200:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        x = rng.normal(size=(m + n, m + n)) + 1j * rng.normal(size=(m + n, m + n))
        x += 3.0 * np.eye(m + n)    # keep the draw well conditioned
        if np.linalg.cond(x) > 1e3 or np.linalg.cond(x[:m, :m]) > 1e3:
            continue
        out = bs.block_inverse_2x2(x[:m, :m], x[:m, m:], x[m:, :m], x[m:, m:])
        direct = np.linalg.inv(x)
        assert np.linalg.norm(out - direct) <= 1e-9 * np.linalg.norm(direct)
        assert np.allclose(out @ x, np.eye(m + n), atol=1e-9)
        done += 1


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        numlin.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    # typed, and still a ValueError for callers that catch that
    with pytest.raises(NonFiniteError):
        numlin.as_matrix([[1.0, np.inf]])
    assert issubclass(NonFiniteError, DomainError) and issubclass(NonFiniteError, ValueError)


def test_classify_follows_the_rule():
    # c I_4 has ||V* V - I||_F = 2 |c^2 - 1|; the isometry test passes at
    # bound(tol, ||I_4||_F) = 3 tol, so a defect of 2.8 tol passes
    tol = 1e-6
    v = np.sqrt(1.0 + 1.4e-6) * np.eye(4)
    assert numlin.bound(tol, np.sqrt(4)) == pytest.approx(3e-6)
    assert numlin.classify(v, tol).is_unitary
    assert not numlin.classify(np.sqrt(1.0 + 1.6e-6) * np.eye(4), tol).is_isometry
    # the largest singular value against 1, at bound(tol, 1) = 2 tol
    assert numlin.classify((1.0 + 1.9e-6) * np.eye(2), tol).is_contraction
    assert not numlin.classify((1.0 + 2.1e-6) * np.eye(2), tol).is_contraction


def test_inverse_bound_adds_the_inversions_rounding():
    m = np.diag([1.0, 1e-8])
    eps = np.finfo(float).eps
    assert numlin.inverse_bound(1e-9, m, 2.0) == pytest.approx(3e-9 + eps * 1e8 * 2.0)
    assert numlin.floored(1e-12, 0.0) == numlin.ROUNDING_FLOOR
    assert numlin.floored(1e-9, 0.0) == 1e-9
    assert numlin.below_one(1.0 - 2e-9, 1e-9) and not numlin.below_one(1.0 - 1e-9, 1e-9)
