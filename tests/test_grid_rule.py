"""Where the points live is decided in one place: every grid gate lets a
grid through exactly when its (domain, number of coordinates) is the one
the gate names, an ambient name whose count is not plain ASCII digits is
refused, and no module but functions.py reads a grid's ambient name
(serialize's grid codec and the agler-verify message excepted)."""

import ast
import json
import os
import pathlib
import re

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import factor
from bidisc_schur.cli import main
from bidisc_schur.errors import GridMismatchError, GridNotCompanionedError
from bidisc_schur.kernels import SampledKernel, ThetaRealization
from helpers import unitary_colligation

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bidisc_schur"
EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")

# ambient name -> (domain, number of coordinates), written out here so the
# test does not read the rule from the code it checks
AMBIENTS = {
    "disc": ("polydisc", 1), "polydisc-1": ("polydisc", 1), "ball-1": ("ball", 1),
    "bidisc": ("polydisc", 2), "polydisc-2": ("polydisc", 2), "torus2": ("torus", 2),
    "ball-2": ("ball", 2), "polydisc-3": ("polydisc", 3),
}
NAMES = {("polydisc", 1): "disc", ("polydisc", 2): "bidisc", ("polydisc", 3): "polydisc-3",
         ("torus", 2): "torus2"}


def ones(grid):
    """The constant kernel 1 on grid: on the disc and the ball a de
    Branges-Rovnyak kernel (I - s K = <z, w>), which the disc rebuilds."""
    return SampledKernel(grid, np.ones((len(grid), len(grid))))


def agler(blocks):
    v = unitary_colligation(np.random.default_rng(blocks), [1] * blocks)
    return lambda grid: bs.agler_kernels_of(v, grid)


def factorization_conditions(grid):
    """agler_factorization_conditions on kernels sampled on grid: a grid its
    bidisc gate lets through is then refused as not axis1 x axis2, since no
    grid make_grid draws is a product grid."""
    with pytest.raises(GridNotCompanionedError):
        factor.agler_factorization_conditions(bs.mobius_of_product(0.5), ones(grid), ones(grid))


# gate -> (its domain, its number of coordinates, None for any), the call
GATES = {
    "agler_kernels_of-1": ("polydisc", 1, agler(1)),
    "agler_kernels_of-2": ("polydisc", 2, agler(2)),
    "agler_kernels_of-3": ("polydisc", 3, agler(3)),
    "verify_agler_decomposition": ("polydisc", 2, lambda grid: bs.verify_agler_decomposition(
        lambda *z: np.zeros_like(z[0]), [ones(grid), ones(grid)])),
    "dbr_test_disc": ("polydisc", 1, lambda grid: bs.dbr_test_disc(ones(grid))),
    "dbr_test_nf": ("polydisc", 1, lambda grid: bs.dbr_test_nf(ones(grid))),
    "dbr_test_ball": ("ball", None, lambda grid: bs.dbr_test_ball(ones(grid))),
    "dbr_test_polydisc": ("polydisc", None, lambda grid: bs.dbr_test_polydisc(
        ones(grid), [ones(grid)] * grid.nvars)),
    "dbr_reconstruct_disc": ("polydisc", 1, lambda grid: bs.dbr_reconstruct_disc(ones(grid))),
    "agler_factorization_conditions": ("polydisc", 2, factorization_conditions),
    "separability_test": ("polydisc", 2, lambda grid: bs.separability_test(
        bs.mobius_of_product(0.5), grid)),
    "boundary_modulus_test": ("torus", 2, lambda grid: bs.boundary_modulus_test(
        bs.mobius_of_product(0.5), grid)),
    "ThetaRealization.kernel_values": ("polydisc", 1, lambda grid: ThetaRealization(
        [[0.0]], [[0.0]], [[0.0]], [[0.0]]).kernel_values(grid)),
}


@pytest.mark.parametrize("gate", list(GATES))
@pytest.mark.parametrize("ambient", list(AMBIENTS))
def test_a_grid_passes_a_gate_exactly_when_its_domain_and_count_match(ambient, gate):
    domain, n, call = GATES[gate]
    grid = bs.make_grid(ambient, 3 if ambient == "torus2" else 6, seed=5)
    count = grid.nvars if n is None else n
    passes = AMBIENTS[ambient] == (domain, count)
    if passes:
        call(grid)
    else:
        name = "ball" if domain == "ball" else NAMES[(domain, count)]
        with pytest.raises(GridMismatchError, match=f" needs a {name} grid$"):
            call(grid)


# ambient names whose count is not ASCII digits with no sign and no leading zero
BAD_COUNTS = ["ball-1_0", "polydisc- 2", "polydisc-+2", "polydisc-02", "polydisc-\uff12",
              "polydisc-2 ", "polydisc-0", "polydisc-", "ball-0", "polydisc-1e1"]


@pytest.mark.parametrize("ambient", BAD_COUNTS)
def test_an_ambient_count_that_is_not_plain_digits_is_refused(capsys, tmp_path, ambient):
    message = f"bad ambient dimension in {ambient!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bs.make_grid(ambient, 3)
    spec = f"{ambient}:rand:3"
    rational = os.path.join(EXAMPLES, "product_mobius_rational.json")
    assert main(["eval", rational, "--grid", spec]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == \
        f"ParseError: bad grid spec {spec!r}: {message}"
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"kind": "kernel", "values": [[[1.0, 0.0]]], "grid": {
        "kind": "grid", "ambient": ambient, "points": [[[0.1, 0.0], [0.2, 0.0]]]}}))
    assert main(["dbr-ball", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == \
        f"SchemaError: malformed kernel object: {message}"


# a check of kernels that must share one grid -> its refusal of a kernel of
# value dimension 2 among scalar ones
SHARED = {
    "verify_agler_decomposition": (
        lambda k1, k2: bs.verify_agler_decomposition(lambda *z: np.zeros_like(z[0]), [k1, k2]),
        "decomposition verification is for scalar kernels"),
    "dbr_test_polydisc": (lambda k1, k2: bs.dbr_test_polydisc(k1, [k1, k2]),
                          "dbr_test_polydisc of this kernel is for scalar kernels"),
    "agler_factorization_conditions": (
        lambda k1, k2: factor.agler_factorization_conditions(bs.mobius_of_product(0.5), k1, k2),
        "factorization conditions are for scalar kernels"),
}


@pytest.mark.parametrize("check", list(SHARED))
def test_kernels_that_must_share_a_grid_are_refused_by_one_check(check):
    call, scalar_refusal = SHARED[check]
    grid, other = (factor.product_grid(3, 3, seed=seed) for seed in (1, 2))
    with pytest.raises(GridMismatchError, match="^the kernels are sampled on different grids$"):
        call(ones(grid), ones(other))
    operator_valued = SampledKernel(grid, np.ones((9, 9, 1, 1)) * np.eye(2), 2)
    with pytest.raises(GridMismatchError, match=f"^{scalar_refusal}$"):
        call(ones(grid), operator_valued)


def ambient_readers(source):
    """The top-level definitions of a module that read an `.ambient`
    attribute, "<module>" for a statement outside any definition."""
    found = set()
    for node in ast.parse(source).body:
        if any(isinstance(n, ast.Attribute) and n.attr == "ambient" for n in ast.walk(node)):
            found.add(getattr(node, "name", "<module>"))
    return found


def test_ambient_readers_finds_functions_and_module_code():
    source = ("def f(g):\n    return g.ambient\n"
              "class C:\n    def m(self):\n        return self.domain\n"
              "x = y.ambient\n")
    assert ambient_readers(source) == {"f", "<module>"}


def test_only_functions_reads_a_grids_ambient_name():
    allowed = {"serialize.py": {"grid_to_json"}, "cli.py": {"_cmd_agler_verify"}}
    found = {path.name: ambient_readers(path.read_text(encoding="utf-8"))
             - allowed.get(path.name, set())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "functions.py"}
    assert {name: readers for name, readers in found.items() if readers} == {}
