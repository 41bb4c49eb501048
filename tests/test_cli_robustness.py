"""Every CLI command on malformed or out-of-domain inputs ends in a JSON
error report with exit code 2, never in a traceback.

A plain seeded loop: for each command, the input files of one kind are
replaced by a corrupted copy (a NaN entry at a seeded position, a bad partition, a
kernel of value dimension 0 or 9, a grid point on the boundary, an empty
grid, a valid kernel on the wrong domain), the integer flags are set to
values <= 0, and functions are evaluated at points with the wrong number of
coordinates.  A kernel dim outside 1..8, an empty grid and a flag or point
of the wrong shape must be reported as such (the last two as a ParseError),
not by a symptom such as a shape mismatch or a missing argument."""

import json
import math
import os

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import serialize
from bidisc_schur.cli import main
from bidisc_schur.kernels import SampledKernel, drury_arveson_gram, szego_gram

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "examples")
SEEDS = (0, 1, 2)


def example(name):
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as fh:
        return json.load(fh)


def kernel_json(ambient, n, seed, gram):
    grid = bs.make_grid(ambient, n, seed=seed)
    return serialize.kernel_to_json(SampledKernel(grid, gram(grid)))


VALID = {
    "colligation": example("separable_colligation.json"),
    "colligation1": serialize.colligation_to_json(bs.model_colligation(1.0, [0.5, 0.25j])),
    "rational": example("product_mobius_rational.json"),
    "blaschke": example("blaschke.json"),
    "disc": example("dbr_kernel.json"),
    "bidisc": kernel_json("bidisc", 6, 3, szego_gram),
    "ball": kernel_json("ball-2", 5, 4, drury_arveson_gram),
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
# command, its positional inputs, flags that make it a ParseError, and what
# the verdict must name
BAD_FLAGS = [
    ("toeplitz-check", ["colligation"], ["--orders", "0"], "--orders"),
    ("toeplitz-check", ["colligation"], ["--orders", "-8"], "--orders"),
    ("toeplitz-check", ["colligation"], ["--orders", "8,0"], "--orders"),
    ("strip", ["rational"], ["--truncation", "0"], "--truncation"),
    ("strip", ["rational"], ["--truncation", "-1"], "--truncation"),
    ("eval", ["colligation"], ["--at", "[[0.3,0]]"], "have 1 coordinate(s), but the function takes 2"),
    ("eval", ["colligation1"], ["--grid", "bidisc:rand:3"],
     "have 2 coordinate(s), but the function takes 1"),
    ("eval", ["rational"], ["--grid", "disc:rand:3"], "have 1 coordinate(s), but the function takes 2"),
    ("eval", ["rational"], ["--at", "[]"], "have 0 coordinate(s), but the function takes 2"),
]
# corruptions whose report must name the fault itself, not a symptom of it
MESSAGES = {
    "dim-0": "value dimension must be in 1..8",
    "dim-9": "value dimension must be in 1..8",
    "empty-grid": "grid is empty",
}
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
    if kind.startswith("colligation"):
        h = sum(valid["partition"])
        yield "negative-partition", dict(valid, partition=[-1, h + 1])
        yield "three-block-partition", dict(valid, partition=[h, 0, 0])
    if kind in WRONG_AMBIENT:
        yield "dim-0", dict(valid, dim=0)
        yield "dim-9", dict(valid, dim=9)
        points = json.loads(json.dumps(valid["grid"]["points"]))
        points[rng.integers(len(points))][0] = [1.0, 0.0]
        yield "boundary-point", dict(valid, grid=dict(valid["grid"], points=points))
        yield "empty-grid", dict(valid, grid=dict(valid["grid"], points=[]), values=[])
        yield "wrong-ambient", VALID[WRONG_AMBIENT[kind]]
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
                           flags, "", MESSAGES.get(name, ""))
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
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1"])
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
    assert report["verdict"].startswith("ParseError: ")
    assert report["evidence"] == {} and report["tol"] == value


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
