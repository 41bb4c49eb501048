"""The JSON reader of serialize against its oracle, the json module.

serialize._read_json, the reader behind serialize.read, parses a file's
bytes with orjson (serialize.loads) and hands every text orjson refuses, or
that it cannot prove shallow, to json.load.  Where json.load parses a text,
the reader must give the identical value: the same types at every node (in
Python True == 1 == 1.0, so == is not enough) and the same float bits.
Where json.load refuses a text, the reader must raise the same exception
class with the same message.  The one documented exception, an integer
literal outside the 64-bit range, is kept out of the files here and checked
through the schema in test_cli_robustness.py.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import struct

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import cli, serialize
from bidisc_schur.errors import ParseError
from helpers import as_json
from test_golden import run_all

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(HERE, os.pardir, "docs", "examples")
GOLDEN = os.path.join(HERE, "golden")


def same(a, b) -> bool:
    """a and b are the same JSON value node by node: types, dict key order
    and float bits included (a loop, for nests deeper than the recursion
    limit)."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            pending += zip(a, b)
        elif isinstance(a, dict):
            if list(a) != list(b):
                return False
            pending += ((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def oracle(path):
    """json.load's value of the file, or the class and message it raises."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def read(path):
    """The reader's value, or the class and message of the error it reports
    (a ParseError carries json's own error as its cause)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return serialize._read_json(path, data)
    except ParseError as exc:
        assert str(exc).startswith(f"{path} "), exc
        assert str(exc).endswith(f": {exc.__cause__}"), exc
        return type(exc.__cause__), str(exc.__cause__)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_reads_like_json(path):
    expected, got = oracle(path), read(path)
    assert same(got, expected), path


def kernel_dict(ambient, n, dim, seed):
    """A kernel object with random entries, shaped like the kernel files the
    benchmark's kernel-cli workload writes."""
    grid = bs.make_grid(ambient, n, seed=seed)
    rng = np.random.default_rng(seed)
    shape = (n, n) if dim == 1 else (n, n, dim, dim)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values.flat[::7] *= 1e-300        # subnormal and tiny magnitudes
    values.flat[1::11] = -0.0
    return as_json({"kind": "kernel", "grid": serialize.grid_to_json(grid), "dim": dim,
                    "values": serialize.pairs_to_json(values)})


@pytest.mark.parametrize("name", sorted(os.listdir(EXAMPLES)))
def test_docs_examples_read_like_json(name):
    assert_reads_like_json(os.path.join(EXAMPLES, name))


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN)))
def test_golden_files_read_like_json(name):
    assert_reads_like_json(os.path.join(GOLDEN, name))


def test_readme_outputs_read_like_json(tmp_path):
    # the kernel files agler-kernels writes and the model written with --out
    run_all(str(tmp_path))
    for name in ("k1.json", "k2.json", "model.json"):
        assert_reads_like_json(str(tmp_path / name))


@pytest.mark.parametrize("ambient,n,dim", [
    ("disc", 30, 1), ("disc", 12, 2), ("disc", 8, 3), ("bidisc", 20, 1), ("ball-2", 25, 1)])
@pytest.mark.parametrize("writer", ["json.dumps", "serialize.dumps"])
def test_kernel_files_read_like_json(tmp_path, ambient, n, dim, writer):
    obj = kernel_dict(ambient, n, dim, seed=n + dim)
    path = tmp_path / "k.json"
    write = json.dumps if writer == "json.dumps" else serialize.dumps
    path.write_text(write(obj))
    assert_reads_like_json(str(path))
    assert write(read(str(path))) == write(obj)


@pytest.mark.parametrize("text", [
    '{"x": 1.5e-323, "y": [1.7976931348623157e308, 2.2250738585072014e-308, 1e-400]}',
    '{"big": [18446744073709551615, -9223372036854775808, -0, 0.0, -0.0]}',
    '{"e": [1E5, 1e+5, 1e-5, 0.1, 0.30000000000000004, 123456789012345678.5]}',
    '{"s": ["\\u00e9\\n\\"\\\\\\/", "\U0001d11e", "\\ud834\\udd1e", ""], "a": {}, "b": []}',
    '{"dup": 1, "dup": 2.0}',
    '  {"t": true, "f": false, "n": null}\r\n',
], ids=["float-extremes", "ints", "spellings", "strings", "duplicate-keys", "whitespace"])
def test_texts_json_parses_read_alike(tmp_path, text):
    path = tmp_path / "t.json"
    path.write_bytes(text.encode("utf-8"))
    assert not isinstance(oracle(str(path)), tuple)
    assert_reads_like_json(str(path))


@pytest.mark.parametrize("data", [
    b'{"values": [NaN, 0.0]}',
    b'{"values": [Infinity, 0.0]}',
    b'{"values": [-Infinity, 0.0]}',
    b'{"values": [1e400, -1e400]}',
    b'{"kind": "\\ud800"}',
    b'{"kind": "k\xff"}',
    b'\xef\xbb\xbf{"kind": "kernel"}',
    b'{\r\n  "a": [1,\r\n 2,]\r\n}',
    b'{\r\n  "a": 1\r\n  "b": 2\r\n}',
    b'',
    b'{"a": 1} x',
], ids=["nan", "infinity", "minus-infinity", "1e400", "lone-surrogate", "bad-utf8", "bom",
        "crlf-trailing-comma", "crlf-missing-comma", "empty", "extra-data"])
def test_texts_orjson_refuses_read_like_json(tmp_path, data):
    path = tmp_path / "t.json"
    path.write_bytes(data)
    assert_reads_like_json(str(path))


@pytest.mark.parametrize("depth", [65, 129, 500, 5000])
def test_deep_nesting_reads_like_json(tmp_path, depth):
    # deeper than the reader proves shallow: json decides, and beyond its
    # recursion limit the error is a ParseError whose cause json raised
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * depth + "1.5" + "]" * depth + "}")
    assert_reads_like_json(str(path))


@pytest.mark.parametrize("text,shallow", [
    ("[]", True), ('{"a": [[1, 2], {"b": []}]}', True),
    # every text nested at most 64 deep is proved shallow, none beyond 128
    ("[" * 64 + "]" * 64, True), ("[{" * 32 + "}]" * 32, True),
    ("[" * 129 + "]" * 129, False), ("[{" * 65 + "}]" * 65, False),
    # closing brackets inside a string do not hide depth
    ('["]]]]", ' + "[" * 63 + "]" * 63 + "]", True),
    ('["' + "]" * 200 + '", ' + "[" * 129 + "]" * 129 + "]", False),
    ('["\\"", []]', False),               # a backslash: strings are not delimited by quotes alone
    ("[[]", False), ("[]]", False), ("[}", False),
])
def test_shallow_is_a_sound_depth_bound(text, shallow):
    assert serialize._shallow(text.encode()) is shallow


# a seeded fuzz: small edits of a valid text, each parsed by both readers

BASE = ('{"kind": "kernel", "dim": 2, "a\\u00e9\\n": [[0.5, -0.0], [1e-5, 3]], '
        '"s": "x\\"y", "t": true, "n": null, "f": false, "e": []}')
ALPHABET = list('[]{},:"\\ \t\r\n0123456789.-+eEtrufalsnNaIiy\x00\x1fé\ud800') + [
    "\\u", "\\ud800", "\\udc00", "NaN", "Infinity", "1e400", "﻿", "\U0001d11e"]


def edits(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        text = BASE
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            roll = rng.random()
            cut = i + (roll >= 0.4)
            text = text[:i] + ("" if 0.4 <= roll < 0.7 else rng.choice(ALPHABET)) + text[cut:]
        yield text


@pytest.mark.parametrize("seed", range(3))
def test_edited_texts_parse_like_json(seed):
    parsed = 0
    for text in edits(seed, 1500):
        try:
            expected = json.loads(text)
        except (ValueError, RecursionError) as exc:
            expected = type(exc), str(exc)
        try:
            got = serialize.loads(text.encode("utf-8", "surrogatepass"), lambda: text)
        except (ValueError, RecursionError) as exc:
            got = type(exc), str(exc)
        assert same(got, expected), repr(text)
        parsed += not isinstance(expected, tuple)
    assert parsed > 100      # both outcomes are exercised


# the CLI reads each input file once: the bytes it digests are the bytes it parses


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def test_each_input_is_opened_once_per_command(tmp_path, monkeypatch):
    ex = {name: os.path.join(EXAMPLES, name) for name in os.listdir(EXAMPLES)}
    k1, k2 = str(tmp_path / "k1.json"), str(tmp_path / "k2.json")
    nan_kernel = tmp_path / "nan.json"      # orjson refuses NaN: json parses the same bytes
    nan_kernel.write_bytes(b'{"kind": "kernel", "values": [[[NaN, 0.0]]], '
                           b'"grid": {"ambient": "disc", "points": [[[0.1, 0.0]]]}}')
    opened = []

    def counting(file, *rest, **kwargs):
        opened.append(os.fspath(file))
        return open(file, *rest, **kwargs)
    monkeypatch.setattr(cli, "open", counting, raising=False)
    sep, nan = ex["separable_colligation.json"], str(nan_kernel)
    # argv -> the input files it names, each once
    commands = [
        (["agler-kernels", sep, "--grid", "bidisc:rand:40:seed=7", "--out-k1", k1, "--out-k2", k2],
         [sep]),
        (["agler-verify", sep, k1, k2], [sep, k1, k2]),
        (["dbr-polydisc", ex["bidisc_dbr_kernel.json"], k1, k2],
         [ex["bidisc_dbr_kernel.json"], k1, k2]),
        (["compose", sep, sep], [sep]),
        (["dbr-check", ex["dbr_kernel.json"]], [ex["dbr_kernel.json"]]),
        (["dbr-check", nan], [nan]),
        (["eval", ex["product_mobius_rational.json"], "--at", "[[0,0],[0,0]]"],
         [ex["product_mobius_rational.json"]]),
    ]
    for argv, inputs in commands:
        opened.clear()
        _, report = run_cli(argv)
        assert list(report["inputs_digest"]) == inputs
        for path, digest in report["inputs_digest"].items():
            assert opened.count(path) == 1, (argv, opened)
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest
    assert report["verdict"] == "computed"
    assert run_cli(["dbr-check", nan])[1]["verdict"] == \
        "SchemaError: array entries must be finite numbers"


def refusal(path):
    """The report of a command that reads path with open(path, "rb") and,
    where orjson refuses, with json.load(open(path, encoding="utf-8"))."""
    try:
        with open(path, "rb") as fh:
            fh.read()
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    except OSError as exc:
        return f"IOError: {exc}"
    except json.JSONDecodeError as exc:
        return f"ParseError: {path} is not valid JSON: {exc}"
    except UnicodeDecodeError as exc:
        return f"UnicodeDecodeError: {exc}"
    raise AssertionError(f"{path} reads as JSON")


@pytest.mark.parametrize("data", [
    b'\xef\xbb\xbf{"kind": "kernel"}',
    b'{\r\n"a": 1,\r\n\r\n}',
    b'{\r\n"kind": "x\ry",\r\n "q": 1}',
    b'{\r"a": [1,\r 2,,]}',
    b'{"a": "\xff\xfe"}',
    b'{\r\n"a":\r\n "\xc3"}',
    None,
    "directory",
], ids=["bom", "crlf", "cr-in-string", "cr", "bad-utf8", "bad-utf8-crlf", "missing", "directory"])
def test_unreadable_inputs_are_refused_as_before(tmp_path, data):
    path = tmp_path / "input.json"
    if data == "directory":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    code, report = run_cli(["dbr-check", str(path)])
    assert code == 2
    assert report["verdict"] == refusal(str(path))
