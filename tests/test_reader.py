"""The JSON reader of serialize against its oracles.

serialize.read has two steps.  The table step, serialize._read_tables,
takes each [re, im] table under a table key straight from the bytes into a
float64 array, and only where it proves the text qualifies.  Every other
text goes to the unchanged step, parse_object(_read_json(path, data)), so
read must give exactly what that step gives: a value of the same types,
dtypes, shapes and float bits, or an error of the same class and message.
The table step is checked against it on the docs examples, the goldens,
the benchmark's kernel-cli inputs, kernels written by json.dumps and by
serialize.dumps, seeded edits of a kernel text, and a table of texts it
must refuse.

serialize._read_json, the unchanged step's reader, parses a file's bytes
with orjson (serialize.loads) and hands every text orjson refuses, or that
it cannot prove shallow, to json.load.  Where json.load parses a text, the
reader must give the identical value: the same types at every node (in
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
import pickle
import random
import struct
import sys
import tracemalloc

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
BENCH = os.path.join(HERE, os.pardir, "bench")


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


def outcome(step):
    """The pickle of step()'s value (types, dtypes, shapes and float bits),
    or the class and message of the error it raises."""
    try:
        return pickle.dumps(step())
    except Exception as exc:        # whatever the error, both steps must raise it alike
        return type(exc), str(exc)


def taken(data) -> bool:
    """Whether the table step reads data, rather than leaving it to the
    unchanged step."""
    try:
        return serialize._read_tables(data) is not None
    except json.JSONDecodeError:
        return False


def assert_read_like_unchanged(path, data=None):
    """serialize.read gives what parse_object(_read_json(...)) gives; that
    outcome."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    unchanged = outcome(lambda: serialize.parse_object(serialize._read_json(path, data)))
    assert outcome(lambda: serialize.read(path, data)) == unchanged, path
    return unchanged


def kernel_dict(ambient, n, dim, seed):
    """A kernel object with random Hermitian entries, shaped like the kernel
    files the benchmark's kernel-cli workload writes."""
    grid = bs.make_grid(ambient, n, seed=seed)
    rng = np.random.default_rng(seed)
    shape = (n, n) if dim == 1 else (n, n, dim, dim)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values += np.conj(values.transpose((1, 0, 3, 2)[:values.ndim]))
    tiny = np.arange(n) % 3 == 0
    values[tiny[:, None] | tiny] *= 1e-300      # tiny magnitudes, in Hermitian pairs
    diagonal = np.arange(n)
    values[diagonal, diagonal] *= 1e-10         # subnormal where already tiny
    values.imag[diagonal, diagonal] = -0.0
    return as_json({"kind": "kernel", "grid": serialize.grid_to_json(grid), "dim": dim,
                    "values": serialize.pairs_to_json(values)})


@pytest.mark.parametrize("name", sorted(os.listdir(EXAMPLES)))
def test_docs_examples_read_like_json(name):
    assert_reads_like_json(os.path.join(EXAMPLES, name))
    assert_read_like_unchanged(os.path.join(EXAMPLES, name))


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN)))
def test_golden_files_read_like_json(name):
    # reports, not inputs: both steps refuse them with the same SchemaError
    assert_reads_like_json(os.path.join(GOLDEN, name))
    assert_read_like_unchanged(os.path.join(GOLDEN, name))


def test_readme_outputs_read_like_json(tmp_path):
    # the kernel files agler-kernels writes and the model written with --out
    run_all(str(tmp_path))
    for name in ("k1.json", "k2.json", "model.json"):
        assert_reads_like_json(str(tmp_path / name))


@pytest.mark.parametrize("ambient,n,dim", [
    ("disc", 30, 1), ("disc", 12, 2), ("disc", 8, 3), ("bidisc", 20, 1), ("bidisc", 10, 2),
    ("bidisc", 6, 3), ("ball-2", 25, 1), ("ball-2", 10, 2), ("ball-2", 6, 3),
    ("polydisc-3", 12, 1), ("polydisc-3", 8, 2), ("polydisc-3", 5, 3)])
@pytest.mark.parametrize("writer", ["json.dumps", "serialize.dumps"])
def test_kernel_files_read_like_json(tmp_path, ambient, n, dim, writer):
    obj = kernel_dict(ambient, n, dim, seed=n + dim)
    path = tmp_path / "k.json"
    write = json.dumps if writer == "json.dumps" else serialize.dumps
    path.write_text(write(obj))
    assert_reads_like_json(str(path))
    assert write(read(str(path))) == write(obj)
    assert taken(path.read_bytes())
    assert isinstance(assert_read_like_unchanged(str(path)), bytes)


@pytest.fixture(scope="module")
def kernel_cli_inputs(tmp_path_factory):
    """The input files of one kernel-cli pass at seed 1, the kernel files
    its agler-kernels commands write included."""
    work = str(tmp_path_factory.mktemp("kernel-cli"))
    sys.path.insert(0, BENCH)
    try:
        import kernel_cli
        ops = kernel_cli.build(1, work)
    finally:
        sys.path.remove(BENCH)
    for op in ops:
        if op.argv[0] == "agler-kernels":
            op.run()
    return sorted({path for op in ops for path in op.inputs})


def test_kernel_cli_inputs_read_like_unchanged(kernel_cli_inputs, monkeypatch):
    nested = []
    unchanged_nest = serialize._nest

    def recording(obj):
        nested.append(obj)
        return unchanged_nest(obj)
    for path in kernel_cli_inputs:
        with open(path, "rb") as fh:
            data = fh.read()
        assert taken(data), path
        nested.clear()
        monkeypatch.setattr(serialize, "_nest", recording)
        serialize.read(path, data)
        monkeypatch.undo()
        # every table reaches pairs_from_json as an array: only single
        # pairs (a colligation's "a", a constant) are walked
        assert all(len(obj) == 2 and not isinstance(obj[0], list) for obj in nested), path
        assert isinstance(assert_read_like_unchanged(path, data), bytes)


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


def edits(seed, count, base=BASE):
    rng = random.Random(seed)
    for _ in range(count):
        text = base
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


# a kernel text with no backslash, so that the table step can take it
KERNEL = ('{"kind": "kernel", "dim": 1, "grid": {"ambient": "disc", "points": '
          '[[[0.5, -0.0]], [[1.5e-5, 0.25]]]}, "values": [[[1.0, 0.0], [0.5, -0.25]], '
          '[[0.5, 0.25], [2.0, 0.0]]]}')


@pytest.mark.parametrize("seed", range(3))
def test_edited_kernel_texts_read_like_unchanged(seed):
    took = kernels = 0
    for text in edits(seed, 1500, base=KERNEL):
        data = text.encode("utf-8", "surrogatepass")
        unchanged = outcome(lambda: serialize.parse_object(serialize._read_json("k.json", data)))
        assert outcome(lambda: serialize.read("k.json", data)) == unchanged, repr(text)
        took += taken(data)
        kernels += isinstance(unchanged, bytes)
    assert took > 150 and kernels > 40      # the table step and both outcomes are exercised


def kernel_text(values: str, before: str = "", after: str = "") -> bytes:
    """A disc kernel text with the given values text (two points, so the
    values of a valid kernel are 2 x 2 pairs)."""
    return ('{"kind": "kernel"' + before + ', "grid": {"ambient": "disc", "points": '
            '[[[0.5, 0.0]], [[0.25, -0.5]]]}, "values": ' + values + after + '}').encode()


GOOD = "[[[1.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"

# texts the table step must leave to the unchanged step, each for a reason
# it cannot prove away: invalid JSON, a leaf that is not a number with a
# point, a shape that is not rectangular [re, im] pairs, or a text whose
# strings, keys or depth it does not see
REFUSED = {
    "ragged-rows": kernel_text("[[[1.5, 0.0], [0.5, -0.25]], [[0.5, 0.25]]]"),
    "empty-rows": kernel_text("[[]]"),
    "empty-table": kernel_text("[]"),
    "missing-comma-between-rows": kernel_text("[[[1.5, 0.0][0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "missing-comma-between-leaves": kernel_text("[[[1.5 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "spaced-digits": kernel_text("[[[1 2, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "number-before-a-row": kernel_text("[[5[, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "number-after-a-row": kernel_text("[[[1.5, 0.0]5, [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "number-split-by-a-bracket": kernel_text("[[1[.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "empty-leaf": kernel_text("[[[, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "leading-zero": kernel_text("[[[01.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "leading-zero-integer": kernel_text("[[[01, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "trailing-point": kernel_text("[[[1., 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "leading-point": kernel_text("[[[.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "plus-sign": kernel_text("[[[+1.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "bare-exponent": kernel_text("[[[1.5e, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "double-minus": kernel_text("[[[--1.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "ints": kernel_text("[[[1, 0], [0, 1]], [[0, 1], [1, 0]]]"),
    "exponent-without-point": kernel_text("[[[1e-05, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "two-points": kernel_text("[[[1..5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "point-then-bare-e": kernel_text("[[[.e, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "two-leaves-in-a-slot": kernel_text("[[[1.5 2.5, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "true-leaf": kernel_text("[[[true, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "null-leaf": kernel_text("[[[null, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "string-leaf": kernel_text('[[["1", 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]'),
    "nan": kernel_text("[[[NaN, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "infinity": kernel_text("[[[-Infinity, 0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "401-digit-integer": kernel_text("[[[1" + "0" * 400 + ", 0.0], [0.5, -0.25]], "
                                     "[[0.5, 0.25], [2.5, 0.0]]]"),
    "401-digit-float": kernel_text("[[[1" + "0" * 400 + ".5, 0.0], [0.5, -0.25]], "
                                   "[[0.5, 0.25], [2.5, 0.0]]]"),
    "form-feed": kernel_text("[[[1.5,\f0.0], [0.5, -0.25]], [[0.5, 0.25], [2.5, 0.0]]]"),
    "three-wide-leaves": kernel_text("[[[1.5, 0.0, 1.5], [0.5, -0.25, 1.5]], "
                                     "[[0.5, 0.25, 1.5], [2.5, 0.0, 1.5]]]"),
    "six-deep": kernel_text("[[[[[[1.5, 0.0]]]]]]"),
    "500-deep": kernel_text("[" * 499 + "1.5, 0.0" + "]" * 499),
    "key-inside-a-string": kernel_text(GOOD, before=', "note": "see "values": [[[1.5, 0.0]]]"'),
    "duplicate-values": kernel_text(GOOD, after=', "values": ' + GOOD),
    "values-then-not-a-table": kernel_text(GOOD, after=', "values": 5'),
    "garbage-after": kernel_text(GOOD + " 5"),
    "two-commas-after": kernel_text(GOOD, after=",, \"dim\": 1"),
    "deep-outer": kernel_text(GOOD, before=', "a": ' + "[" * 200 + "]" * 200),
    "backslash": kernel_text(GOOD, before=', "note": "a\\u00e9"'),
}

# texts the table step must take, with what the unchanged step gives
TAKEN = {
    "compact": kernel_text(GOOD),
    "tab-and-cr": kernel_text(GOOD.replace(", ", ",\t").replace("]], [[", "]],\r\n[[")),
    "spaced": kernel_text(GOOD.replace("[", "[ ").replace("]", "\n ]").replace(",", " ,\n")),
    "table-then-comma": kernel_text(GOOD + " \n ,\n", after='"dim": 1'),
    "not-a-table-then-values": kernel_text(GOOD, before=', "values": 5'),
    "spellings": kernel_text("[[[1.5E+5, -0.0], [4.9e-324, -2.5e-7]], "
                             "[[0.5, 1.7976931348623157e308], [1.0e-05, 0.0]]]"),
    "shape-the-schema-refuses": kernel_text("[[[1.5, 0.0], [0.5, -0.25]]]"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_table_step_refuses(name):
    data = REFUSED[name]
    assert not taken(data)
    assert_read_like_unchanged("k.json", data)


@pytest.mark.parametrize("name", sorted(TAKEN))
def test_table_step_takes(name):
    data = TAKEN[name]
    assert taken(data)
    assert json.loads(data) is not None
    assert_read_like_unchanged("k.json", data)


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


def peak(step) -> int:
    """The traced allocation peak of step(), in bytes."""
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ambient,n,dim,writer", [
    ("bidisc", 150, 1, serialize.dumps),    # an indented 150-point K1, as agler-kernels writes
    ("disc", 60, 3, json.dumps)])           # a compact dim-3 kernel, as kernel-cli's dBR chains
def test_table_step_peak_is_at_most_the_unchanged_one(ambient, n, dim, writer):
    data = writer(kernel_dict(ambient, n, dim, seed=5)).encode()
    assert taken(data)
    unchanged = peak(lambda: serialize.parse_object(serialize._read_json("k.json", data)))
    assert peak(lambda: serialize.read("k.json", data)) <= unchanged
