"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines as they go by."""

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import factor, toeplitz
from bidisc_schur.colligation import transfer_grid
from bidisc_schur.errors import ConditionFailedError
from bidisc_schur.kernels import SampledKernel
from helpers import (
    blaschke_callable,
    composed_blaschke,
    drury_arveson_gram,
    random_blaschke,
    random_theta,
    random_two_var_unitary,
    szego_gram,
    vt_colligation,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[acceptance {number:2d}] {tag} - {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_realization_fidelity():
    rng = np.random.default_rng(101)
    pts = 0.95 * np.sqrt(rng.uniform(size=(100, 2))) * np.exp(
        2j * np.pi * rng.uniform(size=(100, 2)))
    worst = 0.0
    for t in (0.1, 0.5, 0.9):
        v = vt_colligation(t)
        phi = bs.mobius_of_product(t)
        vals = transfer_grid(v, pts)
        worst = max(worst, float(np.max(np.abs(vals - phi(pts[:, 0], pts[:, 1])))))
    report(1, "transfer matches the closed form at 100 bidisc points",
           worst <= 1e-10, f"max error {worst:.2e}")


def test_criterion_02_certificate_soundness():
    rng = np.random.default_rng(102)
    torus = bs.make_grid("torus2", 64)
    ok = True
    worst_dev = 0.0
    for _ in range(50):
        v, _, _ = composed_blaschke(rng, max_degree=4, radius=0.8)
        cert = bs.certify_inner(v)
        boundary = bs.boundary_modulus_test(v, torus, 1e-8)
        worst_dev = max(worst_dev, boundary.max_deviation)
        ok = ok and cert.verdict == "certified" and boundary.passed
    report(2, "50 composed unitary colligations certified; |transfer| = 1 on the torus",
           ok, f"max boundary deviation {worst_dev:.2e}")


def test_criterion_03_converse_failure_regression():
    cert = bs.certify_inner(vt_colligation(0.5))
    ok = (cert.verdict == "inconclusive"
          and "inner-by-sampling" in cert.detail
          and cert.boundary_passed is True
          and not cert.structure.lower_left_zero)
    report(3, "structured certificate inconclusive while boundary sampling passes", ok,
           f"verdict {cert.verdict!r}")


def test_criterion_04_toeplitz_diagnostics():
    # defect thresholds are empirical: tails decay like rho^(2(M - window)),
    # so this fixture set keeps zeros small (|alpha| <= 0.1, degree <= 3)
    rng = np.random.default_rng(104)
    ok = True
    worst = {"y0": 0.0, "yk": 0.0, "ck": 0.0, "defect": 0.0}
    for _ in range(20):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.1)
        assert bs.certify_inner(v).verdict == "certified"
        diag = toeplitz.proof_diagnostics(v)
        defect = bs.isometry_defect(bs.phi_blocks_from_colligation(v, 16), 8)
        worst["y0"] = max(worst["y0"], abs(diag.y0 - 1.0))
        worst["yk"] = max(worst["yk"], diag.max_y_offdiag)
        worst["ck"] = max(worst["ck"], diag.max_c)
        worst["defect"] = max(worst["defect"], defect)
    ok = (worst["y0"] <= 1e-9 and worst["yk"] <= 1e-8
          and worst["ck"] <= 1e-8 and worst["defect"] <= 1e-8)

    half = np.zeros((16, 16), dtype=complex)
    half[1, 0] = 0.5
    bad_defect = bs.isometry_defect(bs.toeplitz_truncate(bs.PowerSeries2(half), 16), 8)
    ok = ok and bad_defect >= 0.5
    report(4, "proof quantities and windowed defects at the stated tolerances", ok,
           f"y0 err {worst['y0']:.1e}, yk {worst['yk']:.1e}, ck {worst['ck']:.1e}, "
           f"defect {worst['defect']:.1e}, non-inner defect {bad_defect:.2f}")


def test_criterion_05_agler_decomposition_identity():
    rng = np.random.default_rng(105)
    ok = True
    worst = 0.0
    for i in range(50):
        v = random_two_var_unitary(rng, hmax=6)
        grid = bs.make_grid("bidisc", 40, seed=1000 + i)
        pair = bs.agler_kernels_of(v, grid, 1e-9)
        psd = all(k.is_psd(1e-9) for k in pair.kernels)
        rep = bs.verify_agler_decomposition(v, pair.kernels, 1e-9)
        worst = max(worst, rep.max_residual)
        ok = ok and psd and rep.passed
    report(5, "50 co-isometric colligations: PSD kernels, identity residual <= 1e-9",
           ok, f"max residual {worst:.2e}")


def test_criterion_06_dbr_round_trip():
    rng = np.random.default_rng(106)
    ok = True
    worst = 0.0
    for i in range(30):
        theta = random_theta(rng, hmax=5)
        grid = bs.make_grid("disc", 12, seed=2000 + i)
        k = SampledKernel(grid, theta.kernel_values(grid))
        if not bs.dbr_test_disc(k, 1e-9).is_psd:
            ok = False
            continue
        rebuilt = bs.dbr_reconstruct_disc(k, 1e-9)
        residual = float(np.max(np.abs(rebuilt.kernel_values(grid) - k.values)))
        worst = max(worst, residual)
        ok = ok and residual <= 1e-7
    report(6, "30 random symbols: kernel test passes and reconstruction returns",
           ok, f"max grid residual {worst:.2e}")


def test_criterion_07_kernel_verifier_fixtures():
    grid = bs.make_grid("disc", 10, seed=107)
    ones = SampledKernel(grid, np.ones((10, 10), dtype=complex))
    s = SampledKernel(grid, szego_gram(grid))
    twice = SampledKernel(grid, 2 * szego_gram(grid))
    zero = SampledKernel(grid, np.zeros((10, 10), dtype=complex))
    theta_k = SampledKernel(grid, random_theta(
        np.random.default_rng(108)).kernel_values(grid))

    checks = [
        bs.dbr_test_disc(ones).is_psd is True,
        bs.dbr_test_disc(twice).is_psd is False,
        bs.dbr_test_disc(theta_k).is_psd is True,
        (bs.dbr_test_nf(s).dominated_by_szego, bs.dbr_test_nf(s).hadamard_psd) == (True, True),
        (bs.dbr_test_nf(zero).dominated_by_szego, bs.dbr_test_nf(zero).hadamard_psd) == (True, True),
        (bs.dbr_test_nf(twice).dominated_by_szego, bs.dbr_test_nf(twice).hadamard_psd) == (False, True),
    ]

    g2 = bs.make_grid("bidisc", 10, seed=109)
    s2 = SampledKernel(g2, szego_gram(g2))
    z1 = g2.points[:, 0]
    k1 = SampledKernel(g2, 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    zero2 = SampledKernel(g2, np.zeros((10, 10), dtype=complex))
    checks.append(bs.dbr_test_polydisc(s2, [k1, zero2]).passed is True)
    checks.append(bs.dbr_test_polydisc(zero2, [zero2, zero2]).passed is True)
    twice2 = SampledKernel(g2, 2 * szego_gram(g2))
    twice_k1 = SampledKernel(g2, 2.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    checks.append(bs.dbr_test_polydisc(twice2, [twice_k1, zero2]).passed is False)

    gb = bs.make_grid("ball-2", 10, seed=110)
    da = SampledKernel(gb, drury_arveson_gram(gb))
    ones_b = SampledKernel(gb, np.ones((10, 10), dtype=complex))
    twice_da = SampledKernel(gb, 2 * drury_arveson_gram(gb))
    checks.append(bs.dbr_test_ball(da).is_psd is True)
    checks.append(bs.dbr_test_ball(ones_b).is_psd is True)
    checks.append(bs.dbr_test_ball(twice_da).is_psd is False)

    report(7, "disc/normalized-form/polydisc/ball verifier fixtures all verdicts exact",
           all(checks), f"{sum(checks)}/{len(checks)} fixtures")


def test_criterion_08_factorization_equivalence():
    rng = np.random.default_rng(111)
    grid = bs.make_grid("bidisc", 40, seed=112)
    ok = True
    worst_sep = 0.0
    worst_cert = 0.0
    for _ in range(30):
        v, f1, f2 = composed_blaschke(rng, max_degree=3, radius=0.8)
        if abs(v.a) <= 1e-6:    # factor vanishing at 0 is a different regime
            continue
        f = lambda z1, z2: f1(z1) * f2(z2)
        sep = bs.separability_test(f, grid, 1e-10)
        cond = bs.check_condition_4(v)
        res = bs.split_colligation(v)
        worst_sep = max(worst_sep, sep.max_residual)
        worst_cert = max(worst_cert, res.certificate)
        ok = ok and sep.separable and cond and res.certificate <= 1e-9

    vt = vt_colligation(0.5)
    phi = bs.mobius_of_product(0.5)
    rejects = [not bs.separability_test(phi, grid).separable,
               not bs.check_condition_4(vt)]
    try:
        bs.split_colligation(vt)
        rejects.append(False)
    except ConditionFailedError:
        rejects.append(True)
    ok = ok and all(rejects)
    report(8, "30 separable products accepted by all three routes; the "
              "non-factorable control rejected by all three", ok,
           f"sep residual {worst_sep:.1e}, split certificate {worst_cert:.1e}")


def test_criterion_09_block_inverse_pipeline():
    rng = np.random.default_rng(113)
    ok = True
    worst_identity = 0.0
    for _ in range(20):
        v, _, _ = composed_blaschke(rng, max_degree=3, radius=0.8)
        if abs(v.a) <= 1e-6:
            continue
        rep = factor.weak_converse_check(v, 1e-9)
        worst_identity = max(worst_identity, rep.adjoint_identity_residual)
        ok = ok and rep.adjoint_identity_residual <= 1e-9

    worst_inv = 0.0
    done = 0
    while done < 200:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        x = rng.normal(size=(m + n, m + n)) + 1j * rng.normal(size=(m + n, m + n))
        x += 3.0 * np.eye(m + n)
        if np.linalg.cond(x) > 1e3 or np.linalg.cond(x[:m, :m]) > 1e3:
            continue
        out = bs.block_inverse_2x2(x[:m, :m], x[:m, m:], x[m:, :m], x[m:, m:])
        direct = np.linalg.inv(x)
        rel = float(np.linalg.norm(out - direct) / np.linalg.norm(direct))
        worst_inv = max(worst_inv, rel)
        done += 1
    ok = ok and worst_inv <= 1e-9
    report(9, "adjoint block-inverse identity and 200 random block inversions at 1e-9",
           ok, f"identity {worst_identity:.1e}, inversion {worst_inv:.1e}")


def test_criterion_10_model_colligation():
    rng = np.random.default_rng(114)
    disc = bs.make_grid("disc", 50, seed=115).points
    ok = True
    worst = 0.0
    for _ in range(100):
        constant, zeros = random_blaschke(rng, max_degree=6, radius=0.9, min_degree=0)
        v = bs.model_colligation(constant, zeros)
        unitary = v.classify(1e-9).is_unitary
        target = blaschke_callable(constant, zeros)(disc[:, 0])
        err = float(np.max(np.abs(transfer_grid(v, disc) - target)))
        worst = max(worst, err)
        ok = ok and unitary and err <= 1e-9
    report(10, "100 model colligations unitary and reproducing their products",
           ok, f"max transfer error {worst:.2e}")
