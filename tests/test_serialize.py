"""serialize.dumps against its oracle, the running interpreter's own
json.dumps(obj, sort_keys=True, indent=2, default=serialize._jsonable): the
two texts must be equal byte for byte, on every kind of value the encoder
treats apart (the float64-array fast path, the generic path, the default
hook, dict keys, escapes, RawJSON), on floats either side of every cut
between orjson's spelling and float.__repr__'s, on arrays in every memory
layout, on Hermitian kernel tables, signed zeros and NaNs, and on the
reports of the README commands.  Every structure emitter hands dumps its
floats as arrays, so none reaches the one-float-at-a-time path."""

import json
import random
import struct

import numpy as np
import pytest

import bidisc_schur as bs
from bidisc_schur import factor, numlin, serialize
from bidisc_schur.kernels import SampledKernel
from bidisc_schur.serialize import RawJSON, dumps, pairs_to_json
from helpers import composed_blaschke, random_theta, szego_gram
from test_golden import run_all

NAN, INF = float("nan"), float("inf")


def stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=serialize._jsonable)


def thaw(obj):
    """obj with every RawJSON replaced by the value its text encodes."""
    if isinstance(obj, RawJSON):
        return json.loads(obj)
    if isinstance(obj, dict):
        return {key: thaw(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [thaw(value) for value in obj]
    return obj


def kernel_values(n, dim, seed):
    rng = np.random.default_rng(seed)
    shape = (n, n, dim, dim)
    return pairs_to_json(rng.normal(size=shape) + 1j * rng.normal(size=shape))


def hermitian_values(n, dim, seed):
    """An (n, n, dim, dim) table, (n, n) for dim 1, with K[j, i] equal to
    K[i, j]* bit for bit: M + M* is exactly Hermitian, its diagonal
    imaginary parts 0.0."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n * dim,) * 2) + 1j * rng.normal(size=(n * dim,) * 2)
    table = (m + m.conj().T).reshape(n, dim, n, dim).transpose(0, 2, 1, 3)
    return table[:, :, 0, 0] if dim == 1 else table


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NEG_NAN = from_bits(0xFFF8000000000000)
CASES = {
    "nan": NAN,
    "inf": INF,
    "-inf": -INF,
    "negative-zero": -0.0,
    "subnormal": 5e-324,
    "large": 1e300,
    "non-finite-table": [[NAN, 1.0], [-INF, INF], [-0.0, 5e-324]],
    "float-list": [0.1, 1e-7, 1e22, 123456789.0],
    "empty-list": [],
    "empty-dict": {},
    "empty-row": [[]],
    "empty-rows": [[], []],
    "ragged": [[1.0], [2.0, 3.0]],
    "ragged-depth": [[1.0, 2.0], [[3.0], 4.0]],
    "int-and-float": [1, 2.0],
    "bool-and-float": [True, 1.5],
    "none-and-float": [[None, 1.0]],
    "tuples": (1.0, (2.0, 3.0)),
    "tuple-rows": [(1.0, 2.0), [3.0, 4.0]],
    "float-subclass": [np.float64(0.1), 0.2],
    "numpy-scalars": {"b": np.bool_(False), "i": np.int32(-7), "f": np.float32(0.1),
                      "d": np.float64(-0.0), "c": np.complex64(1 - 2j)},
    "numpy-arrays": {"m": np.arange(6.0).reshape(2, 3), "i": np.arange(3),
                     "c": np.array([1j, 2.0]), "empty": np.zeros((1, 0))},
    "numpy-array-in-list": [np.array([0.5, 1.5]), [2.5, 3.5]],
    "complex": [1 + 2j, complex(-0.0, INF), np.complex128(0.25)],
    "int-keys": {3: 0, 1: 1, -2: 2},
    "float-keys": {0.5: 1, INF: 2, -0.0: 3, NAN: 4},
    "bool-and-number-keys": {2: "two", True: "one", 0.5: "half", False: "zero"},
    "none-key": {None: 1},
    "text": {"\u043a\u043b\u044e\u0447": "na\u00efve \u2028 snow\u2603 \U0001F600",
             "escapes": "quote\" backslash\\ newline\n tab\t nul\x00 del\x7f"},
    "kernel-scalar": pairs_to_json(np.arange(9).reshape(3, 3) * (0.1 + 0.3j)),
    "kernel-depth-5": kernel_values(3, 2, 2),
    "mixed": {"a": [None, "s", [1.0, 2.0], {"k": [], "l": [[0.5]]}], "b": [[1.0, 2.0], 3]},
    "signed-zeros": [[0.0, -0.0], [-0.0, 0.0]],
    "signed-nans": [NAN, NEG_NAN, from_bits(0x7FF0000000000001), from_bits(0xFFF4000000000000)],
    "extremes": [[INF, -INF], [5e-324, -5e-324], [1.7976931348623157e308,
                                                    -1.7976931348623157e308]],
    "both-signs": [[0.1, -0.1], [-0.1, 0.1], [2.5, 2.5]],
    "several-tables": {"a": [[0.5, -0.5], [1.0, NAN]], "b": [-0.5, 0.25, -0.0],
                       "c": [{"d": [[0.25]]}, [1.0, 2]], "e": kernel_values(2, 1, 7)},
    # float64 arrays in every layout .ravel() must read in row-major order
    "transposed": (np.arange(12.0).reshape(3, 4) * 0.1 - 0.5).T,
    "fortran-order": np.asfortranarray(np.arange(24.0).reshape(2, 3, 4) * 1e-5),
    "strided": (np.arange(20.0) * 1e17)[::3],
    "big-endian": np.arange(4.0).astype(">f8") * 0.1,
    "non-finite-array": np.array([[NAN, 1.0], [-INF, INF], [NEG_NAN, 1e20]]),
    "signed-zeros-array": np.array([[0.0, -0.0], [-0.0, 0.0]]),
    "subnormal-array": np.array([5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]),
    "empty-axis": np.zeros((1, 0, 2)),           # [[]]
    "empty-pairs": pairs_to_json(np.zeros((2, 0))),
    "zero-d": np.array(0.1),
    "zero-d-pair": pairs_to_json(0.5 - 0.0j),
}


@pytest.mark.parametrize("name", list(CASES))
def test_dumps_equals_stdlib(name):
    assert dumps(CASES[name]) == stdlib(CASES[name])


@pytest.fixture
def blocks(monkeypatch):
    """The shapes of the tables the float-table formatter writes, in order."""
    shapes = []
    real = serialize._float_block

    def recording(table, level):
        shapes.append(table.shape)
        return real(table, level)
    monkeypatch.setattr(serialize, "_float_block", recording)
    return shapes


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 3, 3)])
def test_every_pairs_array_takes_the_fast_path(blocks, shape):
    values = np.arange(np.prod(shape, dtype=int)).reshape(shape) * (0.5 - 0.25j)
    table = pairs_to_json(values)
    assert type(table) is np.ndarray and table.dtype == np.float64
    assert table.shape == (*shape, 2)
    assert dumps(table) == stdlib(table)
    assert blocks == [(*shape, 2)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "nearly-hermitian"])
def test_dumps_equals_stdlib_on_kernel_tables(dim, hermitian):
    # n = 1-40: every small n, then a few larger ones (the oracle is slow)
    for n in [*range(1, 11), 16, 23, 31, 40]:
        values = hermitian_values(n, dim, seed=n)
        if not hermitian:
            # the last bit of every fifth entry moves, so some magnitudes pair and some do not
            values = values.copy()
            values.flat[::5] *= 1 + 2 ** -52
        table = pairs_to_json(values)
        assert dumps(table) == stdlib(table)


@pytest.fixture
def repr_calls(monkeypatch):
    """The floats the float-table formatter is called on, in order."""
    calls = []

    def counting(x):
        calls.append(x)
        return float.__repr__(x)
    monkeypatch.setattr(serialize, "_repr", counting)
    return calls


def test_repr_formats_only_the_leaves_orjson_spells_differently(repr_calls):
    # orjson spells 3e-06, 1e+20, 1e-09 and NaN otherwise; the rest it spells as repr does
    table = np.array([[0.5, 3e-6, -1e-10, 0.0], [1e20, NAN, 1e-4, -1e-9]])
    assert dumps(table) == stdlib(table)
    assert list(map(repr, repr_calls)) == ["3e-06", "1e+20", "nan", "-1e-09"]
    # and in the order of the text, whatever the memory layout
    repr_calls.clear()
    assert dumps(table.T) == stdlib(table.T)
    assert list(map(repr, repr_calls)) == ["1e+20", "3e-06", "nan", "-1e-09"]


def test_raw_json_is_not_formatted_again(repr_calls):
    raw = RawJSON(dumps({"k": np.array([[3e-6, -0.75]])}))
    report = {"K1": raw, "a": np.array([[0.75, -0.75], [1e20, 0.5]]),
              "b": {"c": np.array([NAN, 0.75])}}
    repr_calls.clear()
    assert dumps(report) == stdlib(thaw(report))
    assert list(map(repr, repr_calls)) == ["1e+20", "nan"]


def spelling_cases(seed):
    """Floats on both sides of every spelling rule: a power of ten and a
    random 17-digit mantissa in every decade from 5e-324 to 1e308, the
    doubles one ulp around 1e-9, 1e-4 and 1e16, integers, k/1000 and
    k/2^m, each with both signs, and +-0, NaN and +-inf."""
    rng = random.Random(seed)
    decades = [5e-324] + [float(f"{m}e{k}") for k in range(-323, 309)
               for m in (1, rng.randint(10 ** 16, 10 ** 17 - 1) / 10 ** 16)]
    cuts = [float(np.nextafter(c, to)) for c in (1e-9, 1e-4, 1e16) for to in (0.0, c, INF)]
    integers = [float(k) for k in [*range(1000), *(rng.randint(0, 2 ** 60) for _ in range(300))]]
    fractions = [k / 1000 for k in range(3000)] + [rng.randint(1, 2 ** 53) / 2 ** m
                                                    for m in range(1, 80) for _ in range(5)]
    positive = [x for x in decades + cuts + integers + fractions if x > 0 and x != INF]
    return positive + [-x for x in positive] + [0.0, -0.0, NAN, INF, -INF]


@pytest.mark.parametrize("seed", range(2))
def test_dumps_equals_stdlib_on_every_spelling(seed):
    # float64 arrays, as every report's tables are: orjson's numpy writer
    # spells them, and the oracle float.__repr__ of each entry
    values = np.array(spelling_cases(seed))
    assert dumps(values) == stdlib(values)
    table = values[:len(values) - len(values) % 4].reshape(-1, 4)
    assert dumps(table) == stdlib(table)
    assert dumps(table.T) == stdlib(table.T)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 3, 3)])
def test_complex_arrays_encode_through_pairs_to_json(blocks, shape):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) - 1j * rng.normal(size=shape)
    # the encoding of a complex array one complex number at a time
    one_by_one = json.dumps(values.tolist(), sort_keys=True, indent=2,
                            default=lambda z: [z.real, z.imag])
    assert dumps(values) == dumps(pairs_to_json(values)) == one_by_one
    # one float table each, not one per complex number
    assert blocks == [(*shape, 2)] * 2


def random_value(rng, depth):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([rng.random(), -rng.random() * 1e-8, 3, -0.0, True, None, "x\n",
                           NAN, INF, np.float64(0.1), np.int64(2), 1j])
    if roll < 0.45:
        # a float64 array, the fast path's case, or the same table as lists
        shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        table = np.random.default_rng(rng.randint(0, 999)).normal(size=shape)
        return table if rng.random() < 0.5 else table.tolist()
    if roll < 0.7:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice("abcd") + str(i): random_value(rng, depth + 1)
            for i in range(rng.randint(0, 3))}


@pytest.mark.parametrize("seed", range(4))
def test_dumps_equals_stdlib_on_random_nests(seed):
    rng = random.Random(seed)
    for _ in range(250):
        value = random_value(rng, 0)
        assert dumps(value) == stdlib(value)


@pytest.mark.parametrize("bad", [{"bad": object()}, [object()], {(1, 2): 0}, {1: 0, "a": 1}],
                         ids=["object-value", "object-item", "tuple-key", "unsortable-keys"])
def test_dumps_refuses_what_stdlib_refuses(bad):
    with pytest.raises(TypeError):
        stdlib(bad)
    with pytest.raises(TypeError):
        dumps(bad)


@pytest.mark.parametrize("name", ["kernel-depth-5", "text", "mixed", "empty-dict", "nan"])
def test_raw_json_embeds_exactly(name):
    value = CASES[name]
    raw = RawJSON(dumps(value))
    assert dumps(raw) == dumps(value)
    nested = {"a": {"b": [raw, 1.0]}, "c": raw}
    assert dumps(nested) == dumps({"a": {"b": [value, 1.0]}, "c": value})


def test_readme_reports_equal_stdlib(tmp_path, monkeypatch):
    """Every text cli.main formats for the README commands, the kernel
    files and the reports that embed them included."""
    seen = []
    real = serialize.dumps

    def spy(obj):
        text = real(obj)
        seen.append((obj, text))
        return text
    monkeypatch.setattr(serialize, "dumps", spy)
    run_all(str(tmp_path))
    assert any(isinstance(v, RawJSON) for obj, _ in seen for v in obj.get("evidence", {}).values())
    for obj, text in seen:
        assert text == stdlib(thaw(obj))


def emitted(seed):
    """name -> (value, output) of every structure emitter on a seeded value."""
    rng = np.random.default_rng(seed)
    grid = bs.make_grid("bidisc", 7, seed=seed)
    zeros = 0.8 * rng.random(3) * np.exp(2j * np.pi * rng.random(3))
    v, _, _ = composed_blaschke(rng)
    values = {
        "poly_to_json": bs.Poly2(rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))),
        "series_to_json": bs.PowerSeries2(rng.normal(size=(4, 2)) - 1j * rng.normal(size=(4, 2))),
        "rational_to_json": bs.mobius_of_product(rng.uniform(0.1, 0.9)),
        "grid_to_json": grid,
        "colligation_to_json": bs.model_colligation(np.exp(1j * rng.random()), zeros),
        "kernel_to_json": SampledKernel(grid, szego_gram(grid)),
        "blaschke_to_json": (np.exp(1j * rng.random()), zeros),
        "theta_to_json": random_theta(rng),
        "factorization_to_json": factor.split_colligation(v, numlin.DEFAULT_TOL),
    }
    emit = {name: getattr(serialize, name) for name in values}
    emit["blaschke_to_json"] = lambda pair: serialize.blaschke_to_json(*pair)
    return {name: emit[name](value) for name, value in values.items()}


def float_fields(obj):
    """The floats that are values of dict entries in obj (the nested dicts'
    included): report fields, not leaves of a table."""
    if not isinstance(obj, dict):
        return []
    return [x for value in obj.values()
            for x in ([value] if isinstance(value, float) else float_fields(value))]


@pytest.mark.parametrize("seed", range(3))
def test_emitters_hand_dumps_their_floats_as_arrays(monkeypatch, seed):
    # a float table that reached dumps as a list would be spelled one leaf at
    # a time by _scalar; every emitter's tables must take the array path
    outputs = emitted(seed)
    assert set(outputs) == {name for name in dir(serialize)
                            if name.endswith("_to_json") and name != "pairs_to_json"}
    spelled = []
    real = serialize._scalar

    def counting(o):
        if isinstance(o, float):
            spelled.append(o)
        return real(o)
    monkeypatch.setattr(serialize, "_scalar", counting)
    for name, out in outputs.items():
        spelled.clear()
        text = dumps(out)
        assert sorted(spelled) == sorted(float_fields(out)), name
        assert text == stdlib(out), name
