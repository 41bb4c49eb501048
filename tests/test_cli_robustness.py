"""Every CLI command on malformed or out-of-domain inputs ends in a JSON
error report with exit code 2, never in a traceback.

A plain seeded loop: for each command, the input files of one kind are
replaced by a corrupted copy (a NaN entry at a seeded position, a top-level
array, an unknown kind, a bad partition, a kernel of value dimension 0 or 9,
a partition, dim or monomial entry that is not a JSON integer in range, a
grid point on the boundary, an empty grid, a grid of an unknown ambient or
with too few coordinates, a valid kernel on the wrong domain), --orders is
set to values below 2 or to a non-integer, functions are evaluated at
points with the wrong number of coordinates, and colligations with the
wrong number of variables, or a grid on the wrong domain, are sent.  A
kernel dim outside 1..8, an empty grid and a flag or point of the wrong
shape must be reported as such (the last two as a ParseError), not by a
symptom such as a shape mismatch or a missing argument; a kernel or grid on
the wrong domain, a kernel of value dimension 2 where a scalar one is
needed, too few component kernels and a function whose number of variables
is not the kernels' are a GridMismatch, a colligation with the wrong number
of variables is NotStructured, and a Blaschke constant that is not
unimodular is ConditionFailed.  A usage error (an unknown flag, a missing
argument, no or an unknown command) is a ParseError report too, printed on
stdout with nothing on stderr, that names the subcommand argparse parsed;
a --seed that is no non-negative integer is a ParseError naming --seed.
A stdout closed before the report is written ends the console script with
exit 2 and nothing on stderr."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import serialize
from bidisc_schur.cli import main
from bidisc_schur.errors import SchemaError
from bidisc_schur.kernels import SampledKernel, ThetaRealization
from helpers import as_json, drury_arveson_gram, szego_gram

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
SEEDS = (0, 1, 2)


def example(name):
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as fh:
        return json.load(fh)


def kernel_json(ambient, n, seed, gram, dim=1):
    grid = bs.make_grid(ambient, n, seed=seed)
    values = gram(grid) if dim == 1 else gram(grid)[:, :, None, None] * np.eye(dim)
    return as_json(serialize.kernel_to_json(SampledKernel(grid, values, dim)))


VALID = {
    "colligation": example("separable_colligation.json"),
    "colligation1": as_json(serialize.colligation_to_json(bs.model_colligation(1.0, [0.5, 0.25j]))),
    "colligation3": example("polydisc_colligation.json"),
    "rational": example("product_mobius_rational.json"),
    "blaschke": example("blaschke.json"),
    "disc": example("dbr_kernel.json"),
    "bidisc": kernel_json("bidisc", 6, 3, szego_gram),
    "ball": kernel_json("ball-2", 5, 4, drury_arveson_gram),
    "polydisc3": kernel_json("polydisc-3", 6, 5, szego_gram),
    "bidisc-dim2": kernel_json("bidisc", 6, 3, szego_gram, dim=2),
    "blaschke-c2": dict(example("blaschke.json"), constant=[2.0, 0.0]),
    "torus": kernel_json("torus2", 2, 0, lambda grid: np.ones((len(grid), len(grid)))),
}
# a valid kernel on another domain than the one a command needs
WRONG_AMBIENT = {"disc": "bidisc", "bidisc": "disc", "ball": "disc"}

# command, its positional inputs (kinds of VALID), extra flags
COMMANDS = [
    ("eval", ["rational"], ["--grid", "bidisc:rand:4"]),
    ("classify", ["colligation"], []),
    ("inner-check", ["colligation"], []),
    ("toeplitz-check", ["colligation"], ["--orders", "8"]),
    ("agler-kernels", ["colligation"], ["--grid", "bidisc:rand:6"]),
    ("agler-verify", ["colligation", "bidisc", "bidisc"], []),
    ("dbr-check", ["disc"], []),
    ("dbr-nf-check", ["disc"], []),
    ("dbr-reconstruct", ["disc"], []),
    ("dbr-polydisc", ["bidisc", "bidisc", "bidisc"], []),
    ("dbr-ball", ["ball"], []),
    ("factor", ["colligation"], []),
    ("compose", ["colligation1", "colligation1"], []),
    ("split", ["colligation"], []),
    ("model", ["blaschke"], []),
    ("strip", ["rational"], []),
]
# command, its positional inputs, flags, and the typed refusal they get:
# one- and three-variable colligations where two variables are needed,
# factors of more than one variable, grids on the wrong domain (a grid
# whose number of coordinates is not the colligation's, and torus kernels
# where interior polydisc ones are needed), a two-variable function with
# kernels sampled on a polydisc-3 grid, kernels of value dimension 2
# where scalar ones are needed, too few kernels, and a Blaschke constant
# that is not unimodular
REFUSALS = [
    ("inner-check", ["colligation1"], [], "NotStructured: "),
    ("split", ["colligation1"], [], "NotStructured: "),
    ("factor", ["colligation1"], [], "NotStructured: "),
    ("agler-kernels", ["colligation1"], ["--grid", "bidisc:rand:6"],
     "GridMismatch: agler_kernels_of needs a disc grid"),
    ("inner-check", ["colligation3"], [], "NotStructured: "),
    ("split", ["colligation3"], [], "NotStructured: "),
    ("factor", ["colligation3"], [], "NotStructured: "),
    ("toeplitz-check", ["colligation3"], [], "NotStructured: "),
    ("compose", ["colligation3", "colligation1"], [], "NotStructured: "),
    ("agler-kernels", ["colligation3"], ["--grid", "bidisc:rand:6"],
     "GridMismatch: agler_kernels_of needs a polydisc-3 grid"),
    ("agler-verify", ["colligation", "bidisc"], [],
     "GridMismatch: decomposition verification of 1 kernel(s) needs a disc grid"),
    ("agler-verify", ["colligation", "bidisc", "bidisc", "bidisc"], [],
     "GridMismatch: decomposition verification of 3 kernel(s) needs a polydisc-3 grid"),
    ("agler-verify", ["rational", "polydisc3", "polydisc3", "polydisc3"], [],
     "GridMismatch: the function takes 2 coordinate(s), but the kernels are sampled "
     "on a polydisc-3 grid"),
    ("agler-verify", ["colligation", "polydisc3", "polydisc3", "polydisc3"], [],
     "GridMismatch: the function takes 2 coordinate(s), but the kernels are sampled "
     "on a polydisc-3 grid"),
    ("dbr-polydisc", ["torus", "torus", "torus"], [],
     "GridMismatch: dbr_test_polydisc needs a bidisc grid"),
    ("compose", ["colligation", "colligation"], [], "NotStructured: "),
    ("agler-kernels", ["colligation"], ["--grid", "torus2:3"], "GridMismatch: "),
    ("agler-verify", ["colligation", "bidisc-dim2", "bidisc-dim2"], [],
     "GridMismatch: decomposition verification is for scalar kernels"),
    ("dbr-polydisc", ["bidisc", "bidisc"], [], "GridMismatch: expected 2 component kernels, got 1"),
    ("model", ["blaschke-c2"], [],
     "ConditionFailed: leading constant must be unimodular, got |c| = 2.0"),
    ("toeplitz-check", ["disc"], [],
     "SchemaError: toeplitz-check expects a colligation, rational2, or series2"),
]
# command, its positional inputs, flags that make it a ParseError, and what
# the verdict must name
BAD_FLAGS = [
    ("toeplitz-check", ["colligation"], ["--orders", "0"], "--orders"),
    ("toeplitz-check", ["colligation"], ["--orders", "-8"], "--orders"),
    ("toeplitz-check", ["colligation"], ["--orders", "8,0"], "--orders"),
    ("toeplitz-check", ["colligation"], ["--orders", "1"], "--orders takes integers >= 2, got '1'"),
    ("toeplitz-check", ["colligation"], ["--orders", "8,1"],
     "--orders takes integers >= 2, got '8,1'"),
    ("toeplitz-check", ["colligation"], ["--orders", "8,x"],
     "--orders takes integers >= 2, got '8,x'"),
    ("eval", ["colligation"], ["--at", "[[0.3,0]]"], "have 1 coordinate(s), but the function takes 2"),
    ("eval", ["colligation1"], ["--grid", "bidisc:rand:3"],
     "have 2 coordinate(s), but the function takes 1"),
    ("eval", ["rational"], ["--grid", "disc:rand:3"], "have 1 coordinate(s), but the function takes 2"),
    ("eval", ["rational"], ["--at", "[]"], "have 0 coordinate(s), but the function takes 2"),
    ("eval", ["rational"], ["--grid", "bidisc:rand:5:seed=abc"],
     "bad grid spec 'bidisc:rand:5:seed=abc': invalid literal"),
    ("eval", ["rational"], ["--grid", "torus2:4:extra"], "bad grid spec 'torus2:4:extra'"),
    ("eval", ["rational"], ["--grid", "bidisc:rand:3:junk"], "bad grid spec 'bidisc:rand:3:junk'"),
    ("agler-kernels", ["colligation"], ["--grid", "bidisc:rand:3:size=3"],
     "bad grid spec 'bidisc:rand:3:size=3'"),
    ("eval", ["rational"], ["--grid", "disc:rand:0"],
     "bad grid spec 'disc:rand:0': size must be >= 1"),
]
# corruptions whose report must name the fault itself, not a symptom of it
MESSAGES = {
    "dim-0": "value dimension must be in 1..8",
    "dim-9": "value dimension must be in 1..8",
    "empty-grid": "grid is empty",
    "fractional-partition": "partition entries must be integers",
    "bool-partition": "partition entries must be integers",
    "float-dim": "dim entries must be integers",
    "bool-dim": "dim entries must be integers",
    "fractional-monomial": "monomial entries must be integers",
    "huge-monomial": "monomial entries must be integers",
    "short-monomial": "expected 2, got 1",
    "top-level-array": "top-level JSON value must be an object",
    "unknown-kind": "unknown kind 'nope'",
    "unknown-ambient": "unknown ambient 'sphere-2'",
    "one-coordinate": "bidisc points need 2 coordinates, got 1",
}
# corruptions whose report must name the error type
PREFIXES = {"wrong-ambient": "GridMismatch: ", "top-level-array": "SchemaError: ",
            "unknown-kind": "SchemaError: "}
ARRAY_KEYS = ("a", "B", "C", "D", "values", "points", "coeffs", "constant", "zeros")


def numeric_leaves(obj, inside=False, path=()):
    """Paths to the numbers stored in the complex arrays of a JSON object."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from numeric_leaves(val, inside or key in ARRAY_KEYS, path + (key,))
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            yield from numeric_leaves(val, inside, path + (i,))
    elif inside and isinstance(obj, (int, float)):
        yield path


def set_path(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


def corruptions(kind, rng):
    """(name, corrupted JSON object) pairs for one input kind."""
    valid = VALID[kind]
    leaves = list(numeric_leaves(valid))
    nan = json.loads(json.dumps(valid))
    set_path(nan, leaves[rng.integers(len(leaves))], math.nan)
    yield "nan-entry", nan
    yield "top-level-array", [valid]
    yield "unknown-kind", dict(valid, kind="nope")
    if kind.startswith("colligation"):
        h = sum(valid["partition"])
        yield "negative-partition", dict(valid, partition=[-1, h + 1])
        # int() would truncate these to the valid partition
        yield "fractional-partition", dict(valid, partition=[p + 0.9 for p in valid["partition"]])
        if set(valid["partition"]) == {1}:
            yield "bool-partition", dict(valid, partition=[True for _ in valid["partition"]])
    if kind in WRONG_AMBIENT:
        yield "dim-0", dict(valid, dim=0)
        yield "dim-9", dict(valid, dim=9)
        yield "float-dim", dict(valid, dim=float(valid.get("dim", 1)))
        if valid.get("dim", 1) == 1:
            yield "bool-dim", dict(valid, dim=True)
        points = json.loads(json.dumps(valid["grid"]["points"]))
        points[rng.integers(len(points))][0] = [1.0, 0.0]
        yield "boundary-point", dict(valid, grid=dict(valid["grid"], points=points))
        yield "empty-grid", dict(valid, grid=dict(valid["grid"], points=[]), values=[])
        yield "wrong-ambient", VALID[WRONG_AMBIENT[kind]]
        yield "unknown-ambient", dict(valid, grid=dict(valid["grid"], ambient="sphere-2"))
    if kind == "bidisc":
        points = [row[:1] for row in valid["grid"]["points"]]
        yield "one-coordinate", dict(valid, grid=dict(valid["grid"], points=points))
    if kind == "rational":
        m1, m2 = valid["monomial"]
        yield "fractional-monomial", dict(valid, monomial=[m1 + 0.7, m2 + 0.2])
        yield "huge-monomial", dict(valid, monomial=[m1, 2 ** 64 + 1])
        yield "short-monomial", dict(valid, monomial=[m1])
    if kind == "blaschke":
        yield "zero-on-boundary", dict(valid, zeros=[[1.0, 0.0]])


def cases():
    """(label, command, kinds, corrupted kind, its corrupted object, flags,
    verdict prefix, text the verdict must contain)."""
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for command, kinds, flags in COMMANDS:
            for kind in dict.fromkeys(kinds):
                for name, obj in corruptions(kind, rng):
                    yield (f"{command}-{kind}-{name}-seed{seed}", command, kinds, kind, obj,
                           flags, PREFIXES.get(name, ""), MESSAGES.get(name, ""))
    for command, kinds, flags, prefix in REFUSALS:
        yield (f"{command}-{'='.join(kinds + flags)}", command, kinds, None, None, flags,
               prefix, "")
    for command, kinds, flags, message in BAD_FLAGS:
        yield (f"{command}-{'='.join(kinds + flags)}", command, kinds, None, None, flags,
               "ParseError: ", message)


def test_every_command_reports_bad_input_with_exit_2(tmp_path, capsys):
    seen = set()
    for label, command, kinds, corrupted, bad, flags, prefix, message in cases():
        paths = []
        for i, kind in enumerate(kinds):
            path = tmp_path / f"{label}-{i}.json"
            path.write_text(json.dumps(bad if kind == corrupted else VALID[kind]))
            paths.append(str(path))
        code = main([command, *paths, *flags])
        report = json.loads(capsys.readouterr().out)
        assert code == 2, f"{label}: exit {code}, verdict {report['verdict']!r}"
        assert report["command"] == command and report["evidence"] == {}, label
        assert isinstance(report["verdict"], str) and report["verdict"], label
        assert report["verdict"].startswith(prefix) and message in report["verdict"], \
            f"{label}: {report['verdict']!r}"
        seen.add(command)
    assert seen == {c for c, _, _ in COMMANDS}


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1", "abc"])
def test_unsound_tolerance_is_a_parse_error(tmp_path, capsys, monkeypatch, source, value):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(VALID["colligation"]))
    argv = ["inner-check", str(path)]
    if source == "flag":
        argv += ["--tol", value]
    else:
        monkeypatch.setenv("BIDISC_SCHUR_TOL", value)
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == \
        f"ParseError: tolerance must be a finite number with 0 < tol < 1, got {value!r}"
    assert report["evidence"] == {} and report["tol"] == value


@pytest.mark.parametrize("value,seed,shown", [("-1", -1, "-1"), ("x", "x", "'x'")])
@pytest.mark.parametrize("where", ["before", "after"])
def test_negative_seed_is_a_parse_error_that_names_it(tmp_path, capsys, where, value, seed,
                                                      shown):
    # refused as --seed, not as the default grid spec that it would seed; a
    # seed that is no integer is refused the same way, after the command is known
    path = tmp_path / "v.json"
    path.write_text(json.dumps(VALID["colligation"]))
    argv = ["agler-kernels", str(path)]
    argv = ["--seed", value] + argv if where == "before" else argv + ["--seed", value]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"] == f"ParseError: --seed takes a non-negative integer, got {shown}"
    assert report["evidence"] == {} and report["seed"] == seed
    assert report["command"] == "agler-kernels"


@pytest.mark.parametrize("argv,command,named", [
    (["factor", os.path.join(EXAMPLES, "product_mobius_rational.json"), "--grid", "bidisc:rand:5"],
     "factor", "--grid"),
    (["dbr-check"], "dbr-check", "input"),
    (["--out", "classify", "eval", "F", "--bogus"], "eval", "--bogus"),
    (["--ou", "classify", "eval", "F", "--bogus"], "eval", "--bogus"),
    ([], None, "command"),
    (["nope", "F"], None, "'nope'"),
], ids=["unknown-flag", "missing-input", "out-names-a-command", "abbreviated-out",
        "no-command", "unknown-command"])
def test_usage_error_is_one_report(capsys, argv, command, named):
    # argparse's wording differs across Python versions: the prefix and the
    # flag or argument it names are checked
    code = main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and err == ""
    assert report["verdict"].startswith("ParseError: ") and named in report["verdict"]
    assert report == {"command": command, "tol": None, "seed": None, "evidence": {},
                      "verdict": report["verdict"]}


def test_empty_input_path_is_an_io_error(capsys):
    # an empty path is opened like any other input, not skipped
    code = main(["dbr-check", ""])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"].startswith("IOError: ") and report["verdict"].endswith(": ''")


@pytest.mark.parametrize("spec", ["product:0x3", "product:3x0"])
def test_empty_product_grid_is_a_parse_error(tmp_path, capsys, spec):
    for command, kind in (("eval", "rational"), ("agler-kernels", "colligation")):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(VALID[kind]))
        code = main([command, str(path), "--grid", spec])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert code == 2 and report["evidence"] == {}, command
        assert report["verdict"] == f"ParseError: bad grid spec {spec!r}: size must be >= 1"
        assert "Traceback" not in err


@pytest.mark.parametrize("command,kernels", [
    ("eval", []), ("agler-verify", ["bidisc", "bidisc"]), ("factor", [])])
def test_symbol_realization_is_not_evaluable(tmp_path, capsys, command, kernels):
    # a ThetaRealization is callable, T(z), but it is a symbol, not a
    # function of the bidisc
    r = math.sqrt(3) / 2
    theta = as_json(serialize.theta_to_json(ThetaRealization([[0.5]], [[r]], [[r]], [[-0.5]])))
    paths = []
    for i, obj in enumerate([theta] + [VALID[kind] for kind in kernels]):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(obj))
    code = main([command, *map(str, paths)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"] == "SchemaError: input of type ThetaRealization is not evaluable"
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["before", "after"])
def test_unwritable_out_is_an_io_error(tmp_path, capsys, where):
    # the report is written before it is printed, so stdout holds one report
    path = tmp_path / "k.json"
    path.write_text(json.dumps(VALID["disc"]))
    flag = ["--out", str(tmp_path / "missing" / "r.json")]
    command = ["dbr-check", str(path)]
    code = main(flag + command if where == "before" else command + flag)
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["verdict"].startswith("IOError: ") and "r.json" in report["verdict"]
    assert report["evidence"] == {}


def nested(depth, leaf):
    return "[" * depth + leaf + "]" * depth


@pytest.mark.parametrize("leaf", ["1", "NaN"])
@pytest.mark.parametrize("command,kind,key,depth", [
    ("classify", "colligation", "partition", 5000),
    ("dbr-check", "disc", "values", 3000),
    ("dbr-check", "disc", "values", 100),
])
def test_deep_nesting_is_a_typed_error(tmp_path, capsys, command, kind, key, depth, leaf):
    # json.load ended these in a RecursionError traceback; the reader refuses
    # them as text nested too deeply, or parses them and the schema refuses
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**VALID[kind], key: "@"}).replace('"@"', nested(depth, leaf)))
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and report["evidence"] == {}
    assert report["verdict"].startswith(("ParseError: ", "SchemaError: ")), report["verdict"]
    assert "Traceback" not in err


def test_eval_at_deep_nesting_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(VALID["rational"]))
    code = main(["eval", str(path), "--at", nested(5000, "0")])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"].startswith("ParseError: bad --at value: ")


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_nesting_that_would_overflow_the_c_stack_is_refused(tmp_path, opener):
    # 300000 levels: orjson 3.8 recursing into them would end the process
    # (SIGSEGV), so the reader must not hand them to it; run in a child
    closer = "]" if opener == "[" else "}"
    path = tmp_path / "deep.json"
    path.write_text('{"partition": ' + opener * 300000 + "1" + closer * 300000 + "}")
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run([sys.executable, "-m", "bidisc_schur", "classify", str(path)],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 2, child.stderr[-2000:]
    report = json.loads(child.stdout)
    assert report["verdict"].startswith("ParseError: ") and "nests too deeply" in report["verdict"]


def test_closed_stdout_is_an_io_error_without_a_traceback():
    # the console script's stdout is a pipe whose read end is closed
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run([sys.executable, "-m", "bidisc_schur", "classify",
                                os.path.join(EXAMPLES, "separable_colligation.json")],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (2, b"")


def test_integer_beyond_64_bits_is_a_schema_error(tmp_path, capsys):
    # json reads such a literal as an int, orjson 3.8 beyond 2**64 as the
    # nearest double; either way it is refused, with the same message.  The
    # escaped key is not proved shallow, so that copy is read by json.
    for command, kind, field in (("classify", "colligation", "partition"),
                                 ("eval", "rational", "monomial")):
        for value in (2 ** 63, 2 ** 64 + 1, 10 ** 29):
            verdicts = set()
            for name, escape in (("orjson", False), ("json", True)):
                text = json.dumps({**VALID[kind], field: [value, 1]})
                path = tmp_path / f"{name}.json"
                path.write_text(text.replace('"kind"', '"\\u006bind"') if escape else text)
                code = main([command, str(path)])
                report = json.loads(capsys.readouterr().out)
                assert code == 2, (field, value, name)
                verdicts.add(report["verdict"])
            assert verdicts == {f"SchemaError: malformed {VALID[kind]['kind']} object: "
                                f"{field} entries must be integers in 0..2**63 - 1"}, value


@pytest.mark.parametrize("dims", [[1.0, 1, 1], [True, 1, 1], [1, -1, 1]])
def test_theta_dims_must_be_integers(dims):
    r = math.sqrt(3) / 2
    obj = as_json(serialize.theta_to_json(ThetaRealization([[0.5]], [[r]], [[r]], [[-0.5]])))
    with pytest.raises(SchemaError, match=r"dims entries must be integers in 0\.\.2\*\*63 - 1"):
        serialize.parse_object({**obj, "dims": dims})


@pytest.mark.parametrize("dims, h", [([1, 1, 5], 2), ([1, 1, 3], 0)])
def test_theta_dims_must_agree_with_the_blocks(dims, h):
    # the blocks fix (e_star, e, h), an empty C taking its shape from A, and
    # dims only checks them
    u = np.linalg.qr(np.random.default_rng(7).normal(size=(1 + h, 1 + h)))[0]
    theta = ThetaRealization(u[:1, :1], u[:1, 1:], u[1:, :1], u[1:, 1:])
    obj = as_json(serialize.theta_to_json(theta))
    assert obj["dims"] == [1, 1, h]
    with pytest.raises(SchemaError, match=rf"^dims \[1, 1, {dims[2]}\] disagree with the "
                       rf"blocks' \(e_star, e, h\) = \(1, 1, {h}\)$"):
        serialize.parse_object({**obj, "dims": dims})


def test_stateless_theta_survives_json():
    # T = A*, 2 x 3; its empty C, however it is nested, is 0 x e_star
    a = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))[0][:, :2]
    theta = ThetaRealization(a, np.zeros((3, 0)), [], np.zeros((0, 0)))
    assert theta.C.shape == (0, 2)
    back = serialize.parse_object(as_json(serialize.theta_to_json(theta)))
    assert (back.e_star, back.e, back.h) == (2, 3, 0)
    assert [m.shape for m in (back.A, back.B, back.C, back.D)] == [(3, 2), (3, 0), (0, 2), (0, 0)]
    grid = bs.make_grid("disc", 5, seed=3)
    assert np.array_equal(back.kernel_values(grid), theta.kernel_values(grid))


def test_empty_ports_are_shaped_by_the_colligation():
    # a stateless colligation takes its empty ports however they are nested;
    # an empty port of a colligation with a state is refused by the shape check
    obj = {"kind": "colligation", "a": [0.5, 0], "B": [], "C": [[]], "D": [[], []],
           "partition": [0]}
    v = serialize.parse_object(obj)
    assert (v.B.shape, v.C.shape, v.D.shape) == ((1, 0), (0, 1), (0, 0))
    assert serialize.parse_object(as_json(serialize.colligation_to_json(v))).V.shape == (1, 1)
    with pytest.raises(SchemaError, match=r"^malformed colligation object: inconsistent "
                       r"dimensions: partition sums to 1, B \(0, 0\), C \(0, 0\), D \(1, 1\)$"):
        serialize.parse_object({**obj, "C": [], "D": [[[0.5, 0]]], "partition": [1]})
