import gc
import json
import os
import warnings

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import cli, factor, numlin, serialize, toeplitz
from bidisc_schur.cli import build_parser, main, parse_grid_spec
from bidisc_schur.errors import ParseError, SchemaError
from bidisc_schur.kernels import SampledKernel, ThetaRealization
from helpers import (
    as_json,
    composed_blaschke,
    gauge_shifted_agler_pair,
    not_separable_tiny_origin,
    permutation_colligation,
    random_theta,
    random_unitary,
    szego_gram,
    vt_colligation,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")


# -- serialization round trips ------------------------------------------------


def negative_zero_colligation():
    # vt_colligation(0.5) with imaginary parts -0.0 in a and in B
    v = vt_colligation(0.5)
    b = v.B.copy()
    b.imag[0, 1] = -0.0
    return bs.Colligation(complex(v.a.real, -0.0), b, v.C, v.D, v.partition)


@pytest.mark.parametrize("v", [
    vt_colligation(0.5),
    bs.model_colligation(1.0, []),      # state dimension 0: B is [[]], C and D are []
    negative_zero_colligation(),
], ids=["vt", "state-dim-0", "negative-zero"])
def test_colligation_roundtrip(v):
    obj = serialize.colligation_to_json(v)
    back = serialize.parse_object(as_json(obj))
    assert np.array_equal(back.V, v.V)
    assert back.partition == v.partition
    assert np.array_equal(np.signbit(back.V.imag), np.signbit(v.V.imag))
    assert serialize.dumps(serialize.colligation_to_json(back)) == serialize.dumps(obj)


def test_rational_roundtrip():
    f = bs.mobius_of_product(0.25)
    back = serialize.parse_object(as_json(serialize.rational_to_json(f)))
    assert back.monomial == f.monomial
    assert np.array_equal(back.denominator.coeffs, f.denominator.coeffs)
    assert np.array_equal(back.numerator.coeffs, f.numerator.coeffs)


def test_rational_numerator_validation():
    obj = as_json(serialize.rational_to_json(bs.mobius_of_product(0.25)))
    obj["numerator"]["coeffs"][0][0] = [5.0, 0.0]
    with pytest.raises(SchemaError):
        serialize.parse_object(obj)


def test_kernel_roundtrip():
    grid = bs.make_grid("disc", 5, seed=72)
    k = SampledKernel(grid, szego_gram(grid))
    back = serialize.parse_object(as_json(serialize.kernel_to_json(k)))
    assert np.allclose(back.values, k.values)
    assert back.grid.ambient == "disc"


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_roundtrip_operator_valued(dim):
    grid = bs.make_grid("disc", 3, seed=73)
    rng = np.random.default_rng(74)
    rows = rng.normal(size=(3 * dim, 2)) + 1j * rng.normal(size=(3 * dim, 2))
    vals = np.empty((3, 3, dim, dim), dtype=complex)
    for i in range(3):
        for j in range(3):
            vals[i, j] = rows[dim * i: dim * i + dim] @ rows[dim * j: dim * j + dim].conj().T
    k = SampledKernel(grid, vals, dim=dim)
    obj = serialize.kernel_to_json(k)
    back = serialize.parse_object(as_json(obj))
    assert back.dim == dim
    assert np.allclose(back.values, k.values)
    assert serialize.dumps(serialize.kernel_to_json(back)) == serialize.dumps(obj)


def test_theta_roundtrip():
    theta = random_theta(np.random.default_rng(75))
    back = serialize.parse_object(as_json(serialize.theta_to_json(theta)))
    grid = bs.make_grid("disc", 6, seed=76)
    assert np.allclose(back.kernel_values(grid), theta.kernel_values(grid))


def test_kind_inference():
    obj = as_json(serialize.colligation_to_json(permutation_colligation()))
    del obj["kind"]
    assert isinstance(serialize.parse_object(obj), bs.Colligation)


def _kinded_objects():
    """kind -> (JSON object with "kind", emitter) for every kind but poly2."""
    grid = bs.make_grid("disc", 4, seed=77)
    theta = random_theta(np.random.default_rng(78))
    f = bs.mobius_of_product(0.25)
    return {
        "series2": (serialize.series_to_json(bs.PowerSeries2(np.arange(6.0).reshape(2, 3))),
                    serialize.series_to_json),
        "rational2": (serialize.rational_to_json(f), serialize.rational_to_json),
        "grid": (serialize.grid_to_json(grid), serialize.grid_to_json),
        "colligation": (serialize.colligation_to_json(vt_colligation(0.5)),
                        serialize.colligation_to_json),
        "kernel": (serialize.kernel_to_json(SampledKernel(grid, szego_gram(grid))),
                   serialize.kernel_to_json),
        "blaschke": (serialize.blaschke_to_json(1j, [0.5, -0.25j]),
                     lambda pair: serialize.blaschke_to_json(*pair)),
        "theta": (serialize.theta_to_json(theta), serialize.theta_to_json),
    }


@pytest.mark.parametrize("kind", ["series2", "rational2", "grid", "colligation",
                                  "kernel", "blaschke", "theta"])
def test_kindless_object_parses_as_its_kind(kind):
    obj, emit = _kinded_objects()[kind]
    obj = as_json(obj)
    kindless = {key: val for key, val in obj.items() if key != "kind"}
    with_kind, without = serialize.parse_object(obj), serialize.parse_object(kindless)
    assert type(without) is type(with_kind)
    assert serialize.dumps(emit(without)) == serialize.dumps(emit(with_kind))
    assert emit(without)["kind"] == kind


def test_kindless_poly_reads_as_series():
    obj = as_json(serialize.poly_to_json(bs.Poly2([[1.0, 0.5], [0.25j, 0.0]])))
    del obj["kind"]
    back = serialize.parse_object(obj)
    assert isinstance(back, bs.PowerSeries2)
    assert np.array_equal(back.coeffs, [[1.0, 0.5], [0.25j, 0.0]])


def test_unknown_keys_and_bare_numbers_are_schema_errors():
    with pytest.raises(SchemaError, match="cannot infer object kind"):
        serialize.parse_object({"a": [1.0, 0.0], "rows": 2})
    # numbers where [re, im] pairs belong
    for obj, ndim in ((0.5, 0), ([0.5, 0.25, 1.0], 1), ([[0.5], [0.25]], 2)):
        with pytest.raises(SchemaError, match=r"\[re, im\] pairs nested"):
            serialize.pairs_from_json(obj, ndim)
    obj = as_json(serialize.colligation_to_json(vt_colligation(0.5)))
    obj["a"] = 0.5
    with pytest.raises(SchemaError, match=r"\[re, im\] pairs nested"):
        serialize.parse_object(obj)


def test_grid_spec_parsing():
    assert len(parse_grid_spec("torus2:8", 0)) == 64
    g = parse_grid_spec("bidisc:rand:40:seed=7", 0)
    assert len(g) == 40 and g.ambient == "bidisc"
    assert np.array_equal(g.points, bs.make_grid("bidisc", 40, seed=7).points)
    g = parse_grid_spec("product:4x5", 3)
    assert len(g) == 20 and g.ambient == "bidisc"
    assert np.any(g.points[:, 0] == 0) and np.any(g.points[:, 1] == 0)
    assert len(parse_grid_spec("ball-2:rand:10", 1)) == 10
    with pytest.raises(ParseError):
        parse_grid_spec("nonsense", 0)
    # a seed that is no integer, a surplus field and an option other than seed
    for spec in ("bidisc:rand:5:seed=abc", "torus2:4:extra", "bidisc:rand:3:junk",
                 "product:3x3:junk", "disc:rand:4:size=4"):
        with pytest.raises(ParseError, match="bad grid spec"):
            parse_grid_spec(spec, 0)


# -- CLI commands --------------------------------------------------------------


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_inner_check_certified(tmp_path, capsys):
    path = write(tmp_path, "perm.json",
                 serialize.colligation_to_json(permutation_colligation()))
    code, report = run_cli(capsys, "inner-check", path)
    assert code == 0
    assert report["verdict"] == "certified"
    assert report["evidence"]["structure"]["is_unitary"]


def test_cli_inner_check_vt_inconclusive(tmp_path, capsys):
    path = write(tmp_path, "vt.json", serialize.colligation_to_json(vt_colligation(0.5)))
    code, report = run_cli(capsys, "inner-check", path)
    assert code == 1
    assert report["verdict"] == "inconclusive"
    assert report["evidence"]["boundary_passed"] is True


def test_cli_inner_check_reports_the_library_proof_window(tmp_path, capsys):
    v, _, _ = composed_blaschke(np.random.default_rng(173), max_degree=4, radius=0.8)
    path = write(tmp_path, "cascade.json", serialize.colligation_to_json(v))
    code, report = run_cli(capsys, "inner-check", path)
    assert code == 0 and report["verdict"] == "certified"
    quantities = report["evidence"]["proof_quantities"]
    diag = toeplitz.proof_diagnostics(v)
    assert quantities["y0"] == diag.y0
    assert quantities["max_y_offdiag"] == diag.max_y_offdiag
    assert quantities["max_c"] == diag.max_c
    assert quantities["partial_sum_defects"] == list(diag.partial_sum_defects)
    assert diag.y_offdiag.shape == (toeplitz.PROOF_LAGS,)
    assert diag.c_table.shape == (toeplitz.PROOF_SHIFTS + 1, 2 * toeplitz.PROOF_LAGS + 1)


def test_cli_factor_vt_condition_failed(tmp_path, capsys):
    path = write(tmp_path, "vt.json", serialize.colligation_to_json(vt_colligation(0.5)))
    code, report = run_cli(capsys, "factor", path)
    assert code == 1
    assert report["verdict"].startswith("ConditionFailed")


def test_cli_factor_mobius_of_product_is_not_separable(tmp_path, capsys):
    # (z1 z2 - 1/2)/(1 - z1 z2/2): p = 1 - z1 z2/2 has rank two, and the
    # pivot at p[0, 0] = 1 leaves the residual |p[1, 1]| = 1/2
    path = write(tmp_path, "phit.json",
                 serialize.rational_to_json(bs.mobius_of_product(0.5)))
    code, report = run_cli(capsys, "factor", path)
    assert code == 1 and report["verdict"] == "not-separable"
    assert report["evidence"] == {"separable": False, "max_residual": 0.5, "V1": None, "V2": None}


def test_cli_eval_product_mobius_origin(tmp_path, capsys):
    path = write(tmp_path, "phit.json",
                 serialize.rational_to_json(bs.mobius_of_product(0.5)))
    code, report = run_cli(capsys, "eval", path, "--at", "[[0,0],[0,0]]")
    assert code == 0
    assert report["evidence"]["values"][0] == [-0.5, 0.0]


def test_cli_factor_separable_colligation_is_split_plus_flag(capsys):
    path = os.path.join(EXAMPLES, "separable_colligation.json")
    code, report = run_cli(capsys, "factor", path)
    assert code == 0 and report["verdict"] == "separable"
    with open(path, encoding="utf-8") as fh:
        v = serialize.parse_object(json.load(fh))
    split = serialize.factorization_to_json(bs.split_colligation(v, numlin.DEFAULT_TOL))
    assert report["evidence"] == dict(as_json(split), separable=True)


def test_cli_split_and_compose_roundtrip(tmp_path, capsys):
    v1 = bs.model_colligation(1.0, [0.5])
    v2 = bs.model_colligation(1.0, [-1 / 3])
    p1 = write(tmp_path, "m1.json", serialize.colligation_to_json(v1))
    p2 = write(tmp_path, "m2.json", serialize.colligation_to_json(v2))
    code, report = run_cli(capsys, "compose", p1, p2)
    assert code == 0
    composed = write(tmp_path, "composed.json", report["evidence"]["colligation"])
    code, report = run_cli(capsys, "split", composed)
    assert code == 0
    assert report["evidence"]["certificate"] <= 1e-9
    back = serialize.parse_object(report["evidence"]["V1"])
    assert isinstance(back, bs.Colligation) and back.nvars == 1


def test_cli_model(tmp_path, capsys):
    path = write(tmp_path, "b.json", serialize.blaschke_to_json(1.0, [0.5, -0.25j]))
    code, report = run_cli(capsys, "model", path)
    assert code == 0
    assert report["evidence"]["is_unitary"] is True
    v = serialize.parse_object(report["evidence"]["colligation"])
    assert v.h == 2


def test_cli_agler_pipeline(tmp_path, capsys):
    vpath = write(tmp_path, "perm.json",
                  serialize.colligation_to_json(permutation_colligation()))
    k1 = str(tmp_path / "k1.json")
    k2 = str(tmp_path / "k2.json")
    code, report = run_cli(capsys, "agler-kernels", vpath,
                           "--grid", "bidisc:rand:12:seed=5",
                           "--out-k1", k1, "--out-k2", k2)
    assert code == 0
    # the files hold the report's K1 and K2 at top level, byte for byte
    for name, key in (("k1.json", "K1"), ("k2.json", "K2")):
        assert (tmp_path / name).read_text() == serialize.dumps(report["evidence"][key]) + "\n"
    code, report = run_cli(capsys, "agler-verify", vpath, k1, k2)
    assert code == 0
    assert report["verdict"] == "pass"


def test_cli_agler_pipeline_three_blocks(tmp_path, capsys):
    # the documented z1 z2 z3 realization: K1 and K2 from the flags, K3
    # from the --out report, and agler-verify reading all three files
    path = os.path.join(EXAMPLES, "polydisc_colligation.json")
    k1, k2, k3 = (str(tmp_path / f"k{i}.json") for i in (1, 2, 3))
    code, report = run_cli(capsys, "agler-kernels", path, "--grid", "polydisc-3:rand:20",
                           "--out-k1", k1, "--out-k2", k2, "--out", str(tmp_path / "r.json"))
    assert code == 0 and set(report["evidence"]) == {"K1", "K2", "K3", "max_residual"}
    with open(tmp_path / "r.json", encoding="utf-8") as fh:
        write(tmp_path, "k3.json", json.load(fh)["evidence"]["K3"])
    code, report = run_cli(capsys, "agler-verify", path, k1, k2, k3)
    assert code == 0 and report["verdict"] == "pass"
    code, report = run_cli(capsys, "agler-verify", path, k1, k2)
    assert code == 2
    assert report["verdict"] == \
        "GridMismatch: decomposition verification of 2 kernel(s) needs a bidisc grid"


def test_cli_agler_kernels_out_k2_on_one_block(tmp_path, capsys):
    # a one-block colligation has K1 only: --out-k2 is refused before any
    # file is written, and --out-k1 alone writes K1
    path = write(tmp_path, "b.json", serialize.colligation_to_json(bs.model_colligation(1.0, [0.5])))
    k1, k2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    code, report = run_cli(capsys, "agler-kernels", path, "--grid", "disc:rand:6",
                           "--out-k1", k1, "--out-k2", k2)
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"] == \
        "ParseError: --out-k2 asks for K2, but the colligation has 1 state block"
    assert not os.path.exists(k1) and not os.path.exists(k2)
    code, report = run_cli(capsys, "agler-kernels", path, "--grid", "disc:rand:6", "--out-k1", k1)
    assert code == 0 and set(report["evidence"]) == {"K1", "max_residual"}
    code, report = run_cli(capsys, "agler-verify", path, k1)
    assert code == 0 and report["verdict"] == "pass"


def test_cli_dbr_polydisc_refuses_torus_kernels(tmp_path, capsys):
    # on the torus the weights 1 - z_j conj(w_j) vanish on the diagonal
    grid = bs.make_grid("torus2", 2)
    k = write(tmp_path, "t.json", serialize.kernel_to_json(SampledKernel(grid, np.ones((4, 4)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # a division by zero would raise here
        code, report = run_cli(capsys, "dbr-polydisc", k, k, k)
    assert code == 2 and report["verdict"] == "GridMismatch: dbr_test_polydisc needs a bidisc grid"


def test_cli_dbr_reconstruct_at_a_coarse_tolerance(capsys):
    # the cut at tol 0.5 drops directions the data carry; the polar factor
    # still gives an isometry, and the residual meets the gate 10 tol
    code, report = run_cli(capsys, "--tol", "0.5", "dbr-reconstruct",
                           os.path.join(EXAMPLES, "dbr_kernel.json"))
    assert code == 0 and report["verdict"] == "reconstructed"
    assert report["evidence"]["max_residual"] <= numlin.sampled(0.5)


def test_cli_dbr_commands(tmp_path, capsys):
    grid = bs.make_grid("disc", 8, seed=77)
    theta = random_theta(np.random.default_rng(78))
    k = SampledKernel(grid, theta.kernel_values(grid))
    kpath = write(tmp_path, "k.json", serialize.kernel_to_json(k))
    code, report = run_cli(capsys, "dbr-check", kpath)
    assert code == 0 and report["verdict"] == "is-dbr"
    code, report = run_cli(capsys, "dbr-reconstruct", kpath)
    assert code == 0
    assert report["evidence"]["max_residual"] <= 1e-7

    bad = SampledKernel(grid, 2 * szego_gram(grid))
    bpath = write(tmp_path, "bad.json", serialize.kernel_to_json(bad))
    code, report = run_cli(capsys, "dbr-check", bpath)
    assert code == 1 and report["verdict"] == "not-dbr"
    code, report = run_cli(capsys, "dbr-nf-check", bpath)
    assert code == 1
    assert report["evidence"]["dominated_by_szego"] is False
    assert report["evidence"]["hadamard_psd"] is True


def test_cli_dbr_polydisc_and_ball(tmp_path, capsys):
    grid = bs.make_grid("bidisc", 8, seed=79)
    s2 = SampledKernel(grid, szego_gram(grid))
    z1 = grid.points[:, 0]
    k1 = SampledKernel(grid, 1.0 / (1.0 - z1[:, None] * np.conj(z1)[None, :]))
    k2 = SampledKernel(grid, np.zeros((8, 8), dtype=complex))
    kp = write(tmp_path, "s2.json", serialize.kernel_to_json(s2))
    k1p = write(tmp_path, "k1.json", serialize.kernel_to_json(k1))
    k2p = write(tmp_path, "k2.json", serialize.kernel_to_json(k2))
    code, report = run_cli(capsys, "dbr-polydisc", kp, k1p, k2p)
    assert code == 0 and report["verdict"] == "pass"

    ball = bs.make_grid("ball-2", 6, seed=80)
    da = SampledKernel(ball, 1.0 / (1.0 - ball.points @ ball.points.conj().T))
    dpath = write(tmp_path, "da.json", serialize.kernel_to_json(da))
    code, report = run_cli(capsys, "dbr-ball", dpath)
    assert code == 0 and report["verdict"] == "pass"


def test_cli_strip(tmp_path, capsys):
    f = bs.RationalFunction2((1, 0), bs.mobius_of_product(0.5).denominator)
    path = write(tmp_path, "f.json", serialize.rational_to_json(f))
    code, report = run_cli(capsys, "strip", path)
    assert code == 0
    assert report["evidence"]["power"] == 1

    z1z2 = write(tmp_path, "m.json",
                 serialize.rational_to_json(bs.RationalFunction2((1, 1), bs.Poly2([[1.0]]))))
    code, report = run_cli(capsys, "strip", z1z2)
    assert code == 1
    assert report["verdict"].startswith("NotDivisible")


def test_cli_strip_reads_the_monomial_exponent(tmp_path, capsys):
    # z1^17 (z1 - 1/2)/(1 - z1/2): the power is its monomial exponent
    den = bs.Poly2([[1.0], [-0.5]])
    path = write(tmp_path, "f.json", serialize.rational_to_json(bs.RationalFunction2((17, 0), den)))
    code, report = run_cli(capsys, "strip", path)
    assert code == 0 and report["verdict"] == "stripped"
    assert report["evidence"] == as_json({
        "power": 17, "function": serialize.rational_to_json(bs.RationalFunction2((0, 0), den))})


def test_cli_toeplitz_check(tmp_path, capsys):
    v = bs.compose_colligations(bs.model_colligation(1.0, [0.2]),
                                bs.model_colligation(1.0, [0.1j]))
    path = write(tmp_path, "v.json", serialize.colligation_to_json(v))
    code, report = run_cli(capsys, "toeplitz-check", path, "--orders", "8,16")
    assert code == 0
    defects = report["evidence"]["isometry_defect_by_M"]
    assert set(defects) == {"8", "16"}
    assert defects["16"] <= defects["8"]


def test_cli_toeplitz_check_rational_input(tmp_path, capsys):
    path = write(tmp_path, "phit.json",
                 serialize.rational_to_json(bs.mobius_of_product(0.5)))
    code, report = run_cli(capsys, "toeplitz-check", path, "--orders", "16,24")
    assert code == 0
    assert report["evidence"]["structure"] is None
    assert report["evidence"]["boundary_deviation"] <= 1e-12
    defects = report["evidence"]["isometry_defect_by_M"]
    assert defects["24"] <= defects["16"] <= 0.05


def test_cli_eval_on_grid(tmp_path, capsys):
    path = write(tmp_path, "phit.json",
                 serialize.rational_to_json(bs.mobius_of_product(0.5)))
    code, report = run_cli(capsys, "eval", path, "--grid", "bidisc:rand:5:seed=2")
    assert code == 0
    assert len(report["evidence"]["values"]) == 5
    grid = bs.make_grid("bidisc", 5, seed=2)
    expected = bs.mobius_of_product(0.5)(grid.points[:, 0], grid.points[:, 1])
    got = [complex(re, im) for re, im in report["evidence"]["values"]]
    assert np.allclose(got, expected)


@pytest.mark.parametrize("kind", ["rational2", "poly2", "series2"])
def test_cli_eval_refuses_values_that_are_not_finite(tmp_path, capsys, kind):
    # far outside the bidisc the rational function is nan/nan, and z1 + z2 + z1 z2 overflows
    if kind == "rational2":
        path = os.path.join(EXAMPLES, "product_mobius_rational.json")
    else:
        coeffs = [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]
        path = write(tmp_path, "f.json", {"kind": kind, "coeffs": coeffs})
    code, report = run_cli(capsys, "eval", path, "--at", "[[1e200,0],[1e200,0]]")
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"] == "NonFinite: the function is not finite at 1 of the 1 point(s)"


@pytest.mark.parametrize("command, name", [
    ("eval", "product_mobius_rational.json"),
    ("agler-kernels", "product_mobius_colligation.json"),
])
def test_cli_product_grid_spec(capsys, command, name):
    code, report = run_cli(capsys, command, os.path.join(EXAMPLES, name), "--grid", "product:3x3")
    assert code == 0, report


@pytest.mark.parametrize("name", ["separable_colligation.json", "product_mobius_colligation.json"])
def test_cli_product_grid_kernels_read_back_give_the_same_conditions(tmp_path, capsys, name):
    # agler_factorization_conditions reads the axes from the kernels' points,
    # so the kernel files of agler-kernels serve as well as the kernels in memory
    path = os.path.join(EXAMPLES, name)
    out1, out2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    code, _ = run_cli(capsys, "agler-kernels", path, "--grid", "product:5x5",
                      "--out-k1", out1, "--out-k2", out2)
    assert code == 0
    def load(p):
        with open(p, encoding="utf-8") as fh:
            return serialize.parse_object(json.load(fh))
    v = load(path)
    pair = bs.agler_kernels_of(v, factor.product_grid(5, 5, seed=0))
    assert factor.agler_factorization_conditions(v, load(out1), load(out2)) == \
        factor.agler_factorization_conditions(v, *pair.kernels)


# each report below against the library call made directly


@pytest.mark.parametrize("f,verdict", [
    (bs.mobius_of_product(0.5), "not-separable"),
    (bs.Poly2([[1.0, -0.3], [0.5, -0.15]]), "separable"),      # (1 + z1/2)(1 - 0.3 z2)
], ids=["rational", "poly"])
def test_cli_factor_function_input(tmp_path, capsys, f, verdict):
    obj = serialize.rational_to_json(f) if isinstance(f, bs.RationalFunction2) \
        else serialize.poly_to_json(f)
    path = write(tmp_path, "f.json", obj)
    code, report = run_cli(capsys, "factor", path)
    separable, residual = factor._coefficient_separability(f, numlin.DEFAULT_TOL)
    assert report["verdict"] == verdict == ("separable" if separable else "not-separable")
    assert code == (0 if separable else 1)
    assert report["evidence"] == as_json({"separable": separable, "V1": None, "V2": None,
                                           "max_residual": residual})


def test_cli_factor_tiny_origin_is_not_separable(tmp_path, capsys):
    # |f(0)| = 2.1e-9 is just above tol, and no division by it is made: the
    # factor 1 - z1 z2/2 of p leaves the rank-one residual 1/2
    path = write(tmp_path, "f.json", serialize.rational_to_json(not_separable_tiny_origin()))
    code, report = run_cli(capsys, "factor", path)
    assert code == 1 and report["verdict"] == "not-separable"
    assert report["evidence"]["max_residual"] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("name", ["product_mobius_rational.json", "separable_colligation.json"])
def test_cli_factor_takes_no_grid(capsys, name):
    code = main(["factor", os.path.join(EXAMPLES, name), "--grid", "bidisc:rand:5"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["verdict"] == "ParseError: unrecognized arguments: --grid bidisc:rand:5"


@pytest.mark.parametrize("f,verdict", [
    (bs.Poly2([[0.0, 1.0]]), "separable"),                                  # z2
    (bs.Poly2([[0.0, 0.0], [0.0, 1.0]]), "separable"),                      # z1 z2
    (bs.Poly2([[0.0, 1.0], [1.0, 0.0]]), "not-separable"),                  # z1 + z2
    (bs.PowerSeries2(np.outer([0.0, 1.0, 0.5], [1.0, -0.2])), "separable"),  # (z1 + z1^2/2)(1 - z2/5)
    (bs.RationalFunction2((1, 0), bs.Poly2(np.outer([1.0, -0.3], [1.0, -0.5]))),
     "separable"),                                # z1 p~/p, p = (1 - 0.3 z1)(1 - 0.5 z2)
], ids=["z2", "z1z2", "z1+z2", "series", "monomial-rational"])
def test_cli_factor_function_vanishing_at_origin(tmp_path, capsys, f, verdict):
    # f(0, 0) = 0 is no obstacle: the verdict is read off a coefficient table
    obj = serialize.rational_to_json(f) if isinstance(f, bs.RationalFunction2) \
        else serialize.series_to_json(f) if isinstance(f, bs.PowerSeries2) \
        else serialize.poly_to_json(f)
    path = write(tmp_path, "f.json", obj)
    code, report = run_cli(capsys, "factor", path)
    assert f(0.0, 0.0) == 0
    assert report["verdict"] == verdict and code == (0 if verdict == "separable" else 1)
    assert report["evidence"]["separable"] == (code == 0)


def test_cli_toeplitz_check_series_input(tmp_path, capsys):
    path = write(tmp_path, "s.json",
                 serialize.series_to_json(bs.series_of(bs.mobius_of_product(0.5), 15, 15)))
    code, report = run_cli(capsys, "toeplitz-check", path, "--orders", "8,16")
    with open(path, encoding="utf-8") as fh:
        s = serialize.parse_object(json.load(fh))
    defects = {str(m): bs.isometry_defect(bs.toeplitz_truncate(s, m), min(8, m // 2))
               for m in (8, 16)}
    assert code == 0 and report["verdict"] == "computed"
    assert report["evidence"] == as_json({"isometry_defect_by_M": defects, "structure": None,
                                           "radii": None, "boundary_deviation": None})


def test_cli_strip_series_input(tmp_path, capsys):
    f = bs.RationalFunction2((2, 0), bs.mobius_of_product(0.5).denominator)
    s = bs.series_of(f, 8, 8)
    path = write(tmp_path, "s.json", serialize.series_to_json(s))
    code, report = run_cli(capsys, "strip", path)
    p, stripped = bs.strip_monomial(s, tol=numlin.DEFAULT_TOL)
    assert code == 0 and report["verdict"] == "stripped" and p == 2
    assert report["evidence"] == as_json({"power": p,
                                           "function": serialize.series_to_json(stripped)})
    back = serialize.parse_object(report["evidence"]["function"])
    assert np.array_equal(back.coeffs, stripped.coeffs)


def test_cli_eval_one_variable_colligation_on_disc_grid(tmp_path, capsys):
    v = bs.model_colligation(1.0, [0.5, 0.25j])
    path = write(tmp_path, "v.json", serialize.colligation_to_json(v))
    code, report = run_cli(capsys, "eval", path, "--grid", "disc:rand:7:seed=2")
    z = bs.make_grid("disc", 7, seed=2).points
    assert code == 0 and report["verdict"] == "computed"
    assert report["evidence"] == as_json({"points": z, "values": v(z[:, 0])})
    got = [complex(re, im) for re, im in report["evidence"]["values"]]
    assert np.allclose(got, [v(w) for w in z[:, 0]], rtol=0, atol=1e-14)


def test_cli_agler_verify_failure(tmp_path, capsys):
    vpath = write(tmp_path, "perm.json",
                  serialize.colligation_to_json(permutation_colligation()))
    grid = bs.make_grid("bidisc", 6, seed=87)
    zero = bs.SampledKernel(grid, np.zeros((6, 6), dtype=complex))
    zpath = write(tmp_path, "zero.json", serialize.kernel_to_json(zero))
    code, report = run_cli(capsys, "agler-verify", vpath, zpath, zpath)
    assert code == 1
    assert report["verdict"].startswith("failed")


def test_cli_agler_verify_refuses_a_kernel_that_is_not_psd(tmp_path, capsys):
    # the identity holds exactly, so only the PSD requirement refuses it
    vpath = write(tmp_path, "perm.json",
                  serialize.colligation_to_json(permutation_colligation()))
    k1, k2 = gauge_shifted_agler_pair(bs.make_grid("bidisc", 12, seed=19), 10.0)
    paths = [write(tmp_path, f"k{i}.json", serialize.kernel_to_json(k))
             for i, k in enumerate((k1, k2), 1)]
    code, report = run_cli(capsys, "agler-verify", vpath, *paths)
    assert code == 1
    assert report["verdict"] == "failed: K1 is not PSD"
    assert report["evidence"] == {"kernel": "K1"}


def test_cli_dbr_refuses_kernels_that_are_not_psd(tmp_path, capsys):
    # -S and the kernel of 1.02 (z - 0.4)/(1 - 0.4 z) on the disc, and
    # -(Drury-Arveson) on the ball: I - s K is PSD for each, K is not
    grid = parse_grid_spec("disc:rand:30:seed=3", 0)
    z = grid.points[:, 0]
    t = 1.02 * (z - 0.4) / (1 - 0.4 * z)
    ball = parse_grid_spec("ball-2:rand:20", 0)
    runs = [("dbr-check", SampledKernel(grid, -szego_gram(grid)), "not-dbr"),
            ("dbr-check", SampledKernel(grid, (1 - np.outer(t, np.conj(t))) * szego_gram(grid)),
             "not-dbr"),
            ("dbr-ball", SampledKernel(ball, -1.0 / (1.0 - ball.points @ ball.points.conj().T)),
             "failed")]
    for command, k, verdict in runs:
        path = write(tmp_path, "k.json", serialize.kernel_to_json(k))
        code, report = run_cli(capsys, command, path)
        assert (code, report["verdict"]) == (1, verdict)
        assert report["evidence"]["min_eigenvalue"] < -0.5


def test_cli_classify(tmp_path, capsys):
    path = write(tmp_path, "vt.json", serialize.colligation_to_json(vt_colligation(0.5)))
    code, report = run_cli(capsys, "classify", path)
    assert code == 0
    assert report["evidence"]["is_unitary"] is True
    assert report["evidence"]["structure"]["lower_left_zero"] is False


def test_cli_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "perm.json",
                 serialize.colligation_to_json(permutation_colligation()))
    _, _ = run_cli(capsys, "agler-kernels", path, "--grid", "bidisc:rand:10:seed=3")
    first = capsys.readouterr()
    code1 = main(["agler-kernels", path, "--grid", "bidisc:rand:10:seed=3"])
    out1 = capsys.readouterr().out
    code2 = main(["agler-kernels", path, "--grid", "bidisc:rand:10:seed=3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_emitted_json_reparses(tmp_path, capsys):
    path = write(tmp_path, "b.json", serialize.blaschke_to_json(-1.0, [0.3 + 0.1j]))
    code, report = run_cli(capsys, "model", path)
    v = serialize.parse_object(report["evidence"]["colligation"])
    again = serialize.colligation_to_json(v)
    assert serialize.dumps(again) == serialize.dumps(report["evidence"]["colligation"])


def test_dumps_converts_numpy_and_complex_values():
    native = {"flag": True, "n": 3, "x": 0.1, "z": [1.0, -2.0], "rows": [[0.5, 1.5]]}
    numpy_valued = {"flag": np.bool_(True), "n": np.int64(3), "x": np.float64(0.1),
                    "z": np.complex128(1 - 2j), "rows": np.array([[0.5, 1.5]])}
    assert serialize.dumps(numpy_valued) == serialize.dumps(native)
    with pytest.raises(TypeError):
        serialize.dumps({"bad": object()})


def test_cli_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(capsys, "classify", str(bad))
    assert code == 2
    assert report["verdict"].startswith("ParseError")


def test_cli_schema_error_exit_2(tmp_path, capsys):
    path = write(tmp_path, "grid.json",
                 serialize.grid_to_json(bs.make_grid("disc", 3, seed=1)))
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert report["verdict"].startswith("SchemaError")


@pytest.mark.parametrize("where, literal", [
    ("value", "[NaN, 0.0]"),
    ("value", "[0.0, Infinity]"),
    ("value", "[-Infinity, 1.0]"),
    ("value", "[null, 0.0]"),
    ("value", "[1.0]"),
    ("value", "[1.0, 0.0, 0.0]"),
    ("row", "[[1.0, 0.0]]"),            # a ragged row of the value table
    ("point", "[NaN, 0.0]"),
    ("value", "[true, 0.0]"),
    ("value", '["0.5", 0.0]'),
    # an integer beyond the double range: an OverflowError traceback before
    pytest.param("value", "[1" + "0" * 400 + ", 0.0]", id="value-[10**400, 0.0]"),
])
def test_cli_malformed_array_entries_exit_2(tmp_path, capsys, where, literal):
    grid = bs.make_grid("disc", 3, seed=1)
    obj = as_json(serialize.kernel_to_json(SampledKernel(grid, szego_gram(grid))))
    if where == "value":
        obj["values"][0][1] = "@"
    elif where == "row":
        obj["values"][1] = "@"
    else:
        obj["grid"]["points"][2][0] = "@"
    path = tmp_path / "k.json"
    path.write_text(json.dumps(obj).replace('"@"', literal))
    code, report = run_cli(capsys, "dbr-check", str(path))
    assert code == 2
    assert report["verdict"].startswith("SchemaError: ")


@pytest.mark.parametrize("obj, ndim", [
    ([[True, False]], 1),
    ([["0.5", "1e0"]], 1),
    ([[0.5, True]], 1),
    ([[0.5, None]], 1),
    ([[0.5, [0.0]]], 1),
    ([[0.5, 0.0], [0.5]], 1),
    ({"re": 0.5}, 0),
])
def test_pairs_must_be_numbers_in_rectangular_nests(obj, ndim):
    with pytest.raises(SchemaError, match="expected "):
        serialize.pairs_from_json(obj, ndim)


def test_pairs_accept_ints_and_keep_empty_shapes():
    assert serialize.pairs_from_json([[1, -2]], 1).tolist() == [1 - 2j]
    assert serialize.pairs_from_json([], 1).shape == (0,)
    assert serialize.pairs_from_json([[]], 2).shape == (1, 0)
    assert serialize.pairs_from_json([], 2).shape == (0, 0)
    # an int beyond the double range is refused, not raised as OverflowError
    with pytest.raises(SchemaError, match="finite"):
        serialize.pairs_from_json([10 ** 400, 0], 0)


@pytest.mark.parametrize("patched,command,flags", [
    ("make_grid", "eval", ["--grid", "torus2:4"]),
    ("series_of", "toeplitz-check", ["--orders", "8"]),
])
def test_cli_memory_error_exit_2(capsys, monkeypatch, patched, command, flags):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli, patched, exhausted)
    code, report = run_cli(capsys, command,
                           os.path.join(EXAMPLES, "product_mobius_rational.json"), *flags)
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"] == "MemoryError: Unable to allocate 1.00 TiB"


def test_cli_oversized_order_exit_2(capsys):
    # the first allocation, a 4e6 x 4e6 complex table, exceeds a 47-bit
    # address space, so it fails at once
    code, report = run_cli(capsys, "toeplitz-check",
                           os.path.join(EXAMPLES, "product_mobius_rational.json"),
                           "--orders", "4000000")
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"].startswith("MemoryError: ")


def test_cli_precondition_error_exit_2(tmp_path, capsys):
    # a one-variable colligation into a two-variable command is an error
    # report, not a traceback
    path = write(tmp_path, "m.json",
                 serialize.colligation_to_json(bs.model_colligation(1.0, [0.5])))
    code, report = run_cli(capsys, "inner-check", path)
    assert code == 2
    assert report["verdict"].startswith("NotStructured: ")


def test_cli_denominator_with_zero_inside_exit_2(tmp_path, capsys):
    # 1 - e^{-0.0628i} z1 / 0.97 vanishes at radius 0.97: not an inner
    # function's denominator, so toeplitz-check refuses it
    p = bs.Poly2([[1.0], [-np.exp(-0.0628j) / 0.97]])
    path = write(tmp_path, "f.json", {"kind": "rational2", "monomial": [0, 0],
                                      "denominator": serialize.poly_to_json(p)})
    code, report = run_cli(capsys, "toeplitz-check", path)
    assert code == 2
    assert report["verdict"].startswith("ZeroPolynomial: ")
    assert "condition (i)" in report["verdict"]


def test_cli_flags_after_subcommand(tmp_path, capsys):
    path = write(tmp_path, "perm.json",
                 serialize.colligation_to_json(permutation_colligation()))
    code, report = run_cli(capsys, "classify", path, "--tol", "1e-7")
    assert code == 0 and report["tol"] == 1e-7
    out = tmp_path / "r.json"
    code, report = run_cli(capsys, "classify", path, "--out", str(out))
    assert code == 0 and json.loads(out.read_text()) == report


def test_cli_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BIDISC_SCHUR_TOL", "1e-6")
    path = write(tmp_path, "perm.json",
                 serialize.colligation_to_json(permutation_colligation()))
    code, report = run_cli(capsys, "classify", path)
    assert report["tol"] == 1e-6
    code, report = run_cli(capsys, "--tol", "1e-12", "classify", path)
    assert report["tol"] == 1e-12


def test_cli_out_file(tmp_path, capsys):
    path = write(tmp_path, "perm.json",
                 serialize.colligation_to_json(permutation_colligation()))
    out = tmp_path / "report.json"
    code, report = run_cli(capsys, "--out", str(out), "classify", path)
    assert code == 0
    assert json.loads(out.read_text()) == report


def test_cli_reused_parser_keeps_no_flags(tmp_path, capsys, monkeypatch):
    # build_parser is built once per process; a flag given to one call, before
    # or after the subcommand, must not reach the next call
    monkeypatch.delenv("BIDISC_SCHUR_TOL", raising=False)
    kernel = os.path.join(EXAMPLES, "dbr_kernel.json")
    out = tmp_path / "r.json"
    flags = ["--tol", "1e-6", "--seed", "5", "--out", str(out)]
    for first in (flags + ["dbr-check", kernel], ["dbr-check", kernel] + flags):
        code, report = run_cli(capsys, *first)
        assert code == 0 and report["tol"] == 1e-6 and report["seed"] == 5 and out.exists()
        out.unlink()
        code, report = run_cli(capsys, "dbr-check", kernel)
        assert code == 0 and report["tol"] == numlin.DEFAULT_TOL and report["seed"] == 0
        assert not out.exists()
    assert build_parser() is build_parser()


# -- the collector pause ------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_cli_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled):
    # after a report, a usage error report on a bad flag, and an exception that
    # main does not catch, raised by a handler that runs with the collector off
    kernel = os.path.join(EXAMPLES, "dbr_kernel.json")
    seen = []

    def raising(*args):
        seen.append(gc.isenabled())
        raise KeyError("not caught by main")

    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["dbr-check", kernel]) == 0
        assert gc.isenabled() is enabled
        assert main(["dbr-check", kernel, "--no-such-flag"]) == 2
        assert gc.isenabled() is enabled
        monkeypatch.setattr(cli.kernels_mod, "dbr_test_disc", raising)
        with pytest.raises(KeyError, match="not caught by main"):
            main(["dbr-check", kernel])
        assert gc.isenabled() is enabled and seen == [False]
    finally:
        gc.enable()
    capsys.readouterr()


def test_cli_command_starts_no_collection(tmp_path, capsys):
    # a 60-point kernel of value dimension 2 parses into 14400 [re, im]
    # lists, each of which counts toward a gen-0 collection while the
    # collector runs
    grid = bs.make_grid("disc", 60, seed=81)
    u = random_unitary(np.random.default_rng(82), 5)
    theta = ThetaRealization(u[:2, :2], u[:2, 2:], u[2:, :2], u[2:, 2:])
    k = SampledKernel(grid, theta.kernel_values(grid), dim=2)
    path = write(tmp_path, "k.json", serialize.kernel_to_json(k))
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        code = main(["dbr-check", path])
    finally:
        gc.callbacks.remove(record)
    capsys.readouterr()
    assert code == 0 and started == []
