"""serialize.dumps against its oracle, the running interpreter's own
json.dumps(obj, sort_keys=True, indent=2, default=serialize._jsonable): the
two texts must be equal byte for byte, on every kind of value the encoder
treats apart (the float-table fast path, the generic path, the default hook,
dict keys, escapes, RawJSON), on floats either side of every cut between
orjson's spelling and float.__repr__'s, on Hermitian kernel tables, signed
zeros and NaNs, and on the reports of the README commands."""

import json
import random
import struct

import numpy as np
import pytest

from bidisc_schur import serialize
from bidisc_schur.serialize import RawJSON, dumps, pairs_to_json
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
}


@pytest.mark.parametrize("name", list(CASES))
def test_dumps_equals_stdlib(name):
    assert dumps(CASES[name]) == stdlib(CASES[name])


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 3, 3)])
def test_every_pairs_array_takes_the_fast_path(shape):
    values = np.arange(np.prod(shape, dtype=int)).reshape(shape) * (0.5 - 0.25j)
    nest = serialize._float_nest(pairs_to_json(values))
    assert nest is not None and nest[0] == [*shape, 2]


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
    table = [[0.5, 3e-6, -1e-10, 0.0], [1e20, NAN, 1e-4, -1e-9]]
    assert dumps(table) == stdlib(table)
    assert list(map(repr, repr_calls)) == ["3e-06", "1e+20", "nan", "-1e-09"]


def test_raw_json_is_not_formatted_again(repr_calls):
    raw = RawJSON(dumps({"k": [[3e-6, -0.75]]}))
    report = {"K1": raw, "a": [[0.75, -0.75], [1e20, 0.5]], "b": {"c": [NAN, 0.75]}}
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
    values = spelling_cases(seed)
    assert dumps(values) == stdlib(values)
    table = [values[i:i + 4] for i in range(0, len(values) - len(values) % 4, 4)]
    assert dumps(table) == stdlib(table)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 3, 3)])
def test_complex_arrays_encode_through_pairs_to_json(monkeypatch, shape):
    rng = np.random.default_rng(len(shape))
    values = rng.normal(size=shape) - 1j * rng.normal(size=shape)
    # the encoding of a complex array one complex number at a time
    one_by_one = json.dumps(values.tolist(), sort_keys=True, indent=2,
                            default=lambda z: [z.real, z.imag])
    blocks = []
    real = serialize._float_block
    monkeypatch.setattr(serialize, "_float_block", lambda *a: blocks.append(a) or real(*a))
    assert dumps(values) == dumps(pairs_to_json(values)) == one_by_one
    assert len(blocks) == 2         # one float table each, not one per complex number


def random_value(rng, depth):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([rng.random(), -rng.random() * 1e-8, 3, -0.0, True, None, "x\n",
                           NAN, INF, np.float64(0.1), np.int64(2), 1j])
    if roll < 0.45:
        # a rectangular table, the fast path's case
        shape = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        return np.random.default_rng(rng.randint(0, 999)).normal(size=shape).tolist()
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
