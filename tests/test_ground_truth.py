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

Every row asserts that no verdict is unsound, and that dbr_test_disc passes
exactly when dbr_reconstruct_disc raises no NotDbrError.  The share of
de Branges-Rovnyak kernels that the reconstruction's residual gate refuses
(IdentityViolatedError) is a declined verdict, not an unsound one: it is
printed (pytest -s), not asserted.
"""

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur.errors import IdentityViolatedError, NotDbrError
from bidisc_schur.kernels import SampledKernel
from helpers import (
    blaschke_callable,
    drury_arveson_gram,
    random_blaschke,
    szego_gram,
    unitary_colligation,
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
