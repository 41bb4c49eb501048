"""The JSON boundary: the input reader, the schemas and the report writer.

Every complex array, whatever its shape, serializes as nested row-major
lists of [re, im] pairs (a scalar is a bare pair); pairs_to_json and
pairs_from_json are the one codec.  Every structure carries a "kind"
discriminator on output; on input the kind may be omitted and is inferred
from the keys.  A leaf of an [re, im] nest must be a float or an int, not a
bool or a string.

read(path, data) is the library value in the file at path whose bytes are
data: loads parses the text with orjson, or with the json module where
orjson refuses it or cannot prove it shallow (_shallow), and parse_object
builds the value.  The contract: any text json.load parses reads as the
identical object, with the same types and float bits, and any text it
refuses fails with its message, in a ParseError naming the path; NaN and
Infinity literals therefore still reach the finiteness check of
pairs_from_json.  One exception: orjson 3.8 reads an integer literal outside
the 64-bit range as the nearest double, where json keeps the int.  Only
integer fields could see it, and _count refuses any entry there that is not
a JSON integer in 0..2**63 - 1, with the same message from either reader.

Reports are written by dumps, whose text is exactly that of
json.dumps(obj, sort_keys=True, indent=2) with numpy and complex values
converted (a complex scalar or array through pairs_to_json).  The *_to_json
emitters return dicts whose tables are the float64 arrays of pairs_to_json,
values for dumps to write, not lists: a table stays an array until its text
is written.  One fast path: a non-empty float64 ndarray is a float table,
its shape read from the array and its text made in one join; everything
else, lists and tuples of floats, numpy scalars, ints, bools and arrays
with an empty axis or another dtype (as .tolist()) included, takes the
generic recursive path.  The leaves of a float table are spelled by one
orjson.dumps of a.ravel() (orjson's numpy writer) wherever that spelling is
float.__repr__'s: both write the shortest digits that round-trip, and
differ only in the exponent (orjson writes 1e-9, 1e16 and 0.00001 where
repr writes 1e-09, 1e+16 and 1e-05).  So the two agree exactly where repr
writes fixed notation, 1e-4 <= |x| < 1e16, or an exponent of -10 or lower,
|x| < 1e-9 (zero and subnormals included); the cuts are the doubles nearest
those numbers, and a shortest repr parses back to its own double, so
comparing the double with a cut decides on which side its spelling falls.
Every other leaf (NaN and +-inf too, which orjson writes as null) gets
float.__repr__.  RawJSON is text dumps already produced; embedded at indent
level L its newlines gain 2 L spaces, which is exact because encoded JSON
holds no raw newline inside a string.  So a table written to a file and
also embedded in a report is formatted once.
"""

from __future__ import annotations

import io
import json
import re
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

from .colligation import Colligation
from .errors import ParseError, SchemaError
from .factor import FactorizationResult
from .functions import Poly2, PointGrid, PowerSeries2, RationalFunction2
from .kernels import SampledKernel, ThetaRealization, check_value_dim


def pairs_to_json(a) -> np.ndarray:
    """The (..., 2) float64 array of the [re, im] pairs of a complex array
    of any shape, a scalar's being one pair; dumps writes it as nested lists."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1)


def pairs_from_json(obj, ndim: int) -> np.ndarray:
    """Complex array with ndim axes from nested [re, im] lists.  The nesting
    must be rectangular and every pair two finite numbers, each a float or
    an int (not a bool, not a string); an empty list stands for an array
    without entries (the matrix [[]] is 1 x 0)."""
    shape, leaves, kinds = _nest(obj)
    if kinds & {list, tuple}:
        raise SchemaError(f"expected nested [re, im] pairs, got rows of unequal "
                          f"length at depth {len(shape)}")
    if not kinds <= {float, int}:
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise SchemaError(f"expected [re, im] pairs of numbers, got {names}")
    try:
        arr = np.array(leaves, dtype=np.float64).reshape(shape)
    except OverflowError as exc:
        raise SchemaError(f"array entries must be finite numbers: {exc}") from exc
    if arr.size == 0 and arr.ndim <= ndim:
        return np.zeros(arr.shape + (0,) * (ndim - arr.ndim), dtype=np.complex128)
    if arr.shape[ndim:] != (2,):
        raise SchemaError(f"expected [re, im] pairs nested {ndim} deep, got shape {arr.shape}")
    # the json module reads NaN and Infinity literals, and 1e400 as inf
    if not np.all(np.isfinite(arr)):
        raise SchemaError("array entries must be finite numbers")
    # the view keeps every float as read, the sign of a zero included
    return arr.view(np.complex128)[..., 0]


def complex_from_json(obj) -> complex:
    return complex(pairs_from_json(obj, 0))


def matrix_from_json(obj, shape=None) -> np.ndarray:
    out = pairs_from_json(obj, 2)
    if shape is not None and out.size == 0:
        out = out.reshape(shape)
    return out


def _count(value, field: str) -> int:
    """A JSON integer (not a bool, not a float) in the range orjson and json both read exactly."""
    if type(value) is not int or not 0 <= value < 2 ** 63:
        raise ValueError(f"{field} entries must be integers in 0..2**63 - 1")
    return value


def poly_to_json(p: Poly2) -> dict:
    return {"kind": "poly2", "deg": list(p.degree), "coeffs": pairs_to_json(p.coeffs)}


def poly_from_json(obj) -> Poly2:
    return Poly2(matrix_from_json(obj["coeffs"]))


def series_to_json(s: PowerSeries2) -> dict:
    return {"kind": "series2", "deg": list(s.orders), "coeffs": pairs_to_json(s.coeffs)}


def series_from_json(obj) -> PowerSeries2:
    return PowerSeries2(matrix_from_json(obj["coeffs"]))


def rational_to_json(f: RationalFunction2) -> dict:
    return {
        "kind": "rational2",
        "monomial": list(f.monomial),
        "unimodular": pairs_to_json(f.unimodular),
        "denominator": poly_to_json(f.denominator),
        "numerator": poly_to_json(f.numerator),
    }


def rational_from_json(obj) -> RationalFunction2:
    den = poly_from_json(obj["denominator"])
    u = complex_from_json(obj.get("unimodular", [1.0, 0.0]))
    f = RationalFunction2([_count(m, "monomial") for m in obj["monomial"]], den, u)
    if "numerator" in obj:
        given = poly_from_json(obj["numerator"])
        if given != f.numerator:
            raise SchemaError("numerator is not the (scaled) reflection of the denominator")
    return f


def grid_to_json(g: PointGrid) -> dict:
    return {
        "kind": "grid",
        "ambient": g.ambient,
        "points": pairs_to_json(g.points),
    }


def grid_from_json(obj) -> PointGrid:
    return PointGrid(obj["ambient"], pairs_from_json(obj["points"], 2))


def colligation_to_json(v: Colligation) -> dict:
    return {
        "kind": "colligation",
        "a": pairs_to_json(v.a),
        "B": pairs_to_json(v.B),
        "C": pairs_to_json(v.C),
        "D": pairs_to_json(v.D),
        "partition": list(v.partition),
    }


def colligation_from_json(obj) -> Colligation:
    part = [_count(h, "partition") for h in obj["partition"]]
    return Colligation(complex_from_json(obj["a"]), matrix_from_json(obj["B"]),
                       matrix_from_json(obj["C"]), matrix_from_json(obj["D"]), part)


def kernel_to_json(k: SampledKernel) -> dict:
    return {"kind": "kernel", "grid": grid_to_json(k.grid), "dim": k.dim,
            "values": pairs_to_json(k.values)}


def kernel_from_json(obj) -> SampledKernel:
    grid = grid_from_json(obj["grid"])
    dim = _count(obj.get("dim", 1), "dim")
    check_value_dim(dim)  # before the values, whose nesting depth dim sets
    return SampledKernel(grid, pairs_from_json(obj["values"], 2 if dim == 1 else 4), dim)


def blaschke_from_json(obj) -> tuple:
    constant = complex_from_json(obj.get("constant", [1.0, 0.0]))
    zeros = pairs_from_json(obj.get("zeros", []), 1).tolist()
    return constant, zeros


def blaschke_to_json(constant, zeros) -> dict:
    return {"kind": "blaschke", "constant": pairs_to_json(constant),
            "zeros": pairs_to_json(zeros)}


def theta_to_json(t: ThetaRealization) -> dict:
    return {
        "kind": "theta",
        "dims": [t.e_star, t.e, t.h],
        "A": pairs_to_json(t.A),
        "B": pairs_to_json(t.B),
        "C": pairs_to_json(t.C),
        "D": pairs_to_json(t.D),
    }


def theta_from_json(obj) -> ThetaRealization:
    e_star, e, h = (_count(x, "dims") for x in obj["dims"])
    return ThetaRealization(
        matrix_from_json(obj["A"], shape=(e, e_star)),
        matrix_from_json(obj["B"], shape=(e, h)),
        matrix_from_json(obj["C"], shape=(h, e_star)),
        matrix_from_json(obj["D"], shape=(h, h)),
    )


def factorization_to_json(r: FactorizationResult) -> dict:
    return {
        "kind": "factorization",
        "V1": colligation_to_json(r.v1),
        "V2": colligation_to_json(r.v2),
        "x": pairs_to_json(r.v2.a),
        "y": pairs_to_json(r.v1.a),
        "certificate": r.certificate,
    }


_KIND_PARSERS = {
    "poly2": poly_from_json,
    "series2": series_from_json,
    "rational2": rational_from_json,
    "grid": grid_from_json,
    "colligation": colligation_from_json,
    "kernel": kernel_from_json,
    "blaschke": blaschke_from_json,
    "theta": theta_from_json,
}


def _infer_kind(obj: dict) -> str:
    if "partition" in obj:
        return "colligation"
    if "denominator" in obj:
        return "rational2"
    if "zeros" in obj or "constant" in obj:
        return "blaschke"
    if "values" in obj and "grid" in obj:
        return "kernel"
    if "ambient" in obj:
        return "grid"
    if "dims" in obj:
        return "theta"
    if "coeffs" in obj:
        return "series2"
    raise SchemaError(f"cannot infer object kind from keys {sorted(obj)}")


def parse_object(obj: dict):
    """Parse a JSON object into the library value it encodes."""
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = obj.get("kind") or _infer_kind(obj)
    if kind not in _KIND_PARSERS:
        raise SchemaError(f"unknown kind {kind!r}")
    try:
        return _KIND_PARSERS[kind](obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {kind} object: {exc}") from exc


# orjson 3.8 descends nested arrays and objects on the C stack and crashes
# the process near 10^5 levels; no input schema nests deeper than 6
_SHALLOW_ROUNDS = 64
# what _shallow keeps of a text: brackets, quotes and backslashes
_NOT_STRUCTURE = bytes(b for b in range(256) if b not in b'[]{}"\\')
_STRINGS = re.compile(rb'"[^"]*"')


def _shallow(data: bytes) -> bool:
    """Whether the JSON text data provably nests at most 2 _SHALLOW_ROUNDS
    deep.  Its brackets outside strings are peeled, [] then {} in each of
    _SHALLOW_ROUNDS rounds; a round takes one level or two, so every text
    nested at most _SHALLOW_ROUNDS deep passes.  A text with a backslash,
    whose strings may hold escaped quotes, is not proved shallow."""
    marks = data.translate(None, _NOT_STRUCTURE)
    if b"\\" in marks:
        return False
    marks = _STRINGS.sub(b"", marks)
    for _ in range(_SHALLOW_ROUNDS):
        if not marks:
            return True
        marks = marks.replace(b"[]", b"").replace(b"{}", b"")
    return not marks


def loads(data: bytes, text):
    """The value of the JSON text data, parsed by orjson.  A text orjson
    refuses, or not proved _shallow, is decided by the json module
    on text(), the same text decoded; so a NaN or Infinity literal still
    reaches the schema's finiteness check, and every malformed text raises
    json's own JSONDecodeError, or RecursionError for deep nesting."""
    if _shallow(data):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text())


def _read_json(path: str, data: bytes):
    """The JSON value of data, the bytes of the file at path (loads); a
    text that cannot be parsed is a ParseError.  The json module reads
    data decoded as open(path, encoding="utf-8") decodes it: UTF-8, with
    universal newlines."""
    try:
        return loads(data, lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path} nests too deeply to read: {exc}") from exc


def read(path: str, data: bytes):
    """The library value in the file at path, whose bytes are data."""
    return parse_object(_read_json(path, data))


def _jsonable(obj):
    """What json cannot encode itself: complex numbers, numpy arrays and scalars."""
    if isinstance(obj, (complex, np.complexfloating)):
        return pairs_to_json(obj)
    if isinstance(obj, np.ndarray):
        return pairs_to_json(obj) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class RawJSON(str):
    """Text that dumps already produced.  Inside a larger value dumps
    re-indents it instead of encoding it again, so a table that is written
    both to a file and into a report is formatted once."""


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the float formatter of the leaves orjson does not spell, by a module-level
# name that a test can count
_repr = float.__repr__


def _scalar(o):
    """The text of a str, None, bool, int or float, tested in json's order
    (bools before ints); None for any other value."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        text = float.__repr__(o)
        return _SPECIAL.get(text, text)
    return None


def _nest(o):
    """(shape, leaves, kinds) of the rectangular nest of lists and tuples at
    the top of o: the walk descends while every item is a list or a tuple and
    all have one length.  leaves are the items where it stops and kinds their
    set of types, which holds list or tuple where rows differ in length and
    is empty where an axis is."""
    shape, items = [], [o]
    while True:
        kinds = set(map(type, items))
        if not kinds or not kinds <= {list, tuple}:
            return shape, items, kinds
        sizes = set(map(len, items))
        if len(sizes) != 1:
            return shape, items, kinds
        shape.append(sizes.pop())
        items = list(chain.from_iterable(items))


def _float_block(table: np.ndarray, level: int) -> str:
    """The text of the non-empty float64 array table at indent level `level`.
    Its leaves, in row-major order, are float.__repr__'s spelling: orjson's
    text where the two agree (see the module docstring), _repr elsewhere.
    They are joined once, between two leaves the separator that closes and
    reopens the axes ending there."""
    flat = table.ravel()
    mags = np.abs(flat)
    shared = (mags < 1e-9) | ((mags >= 1e-4) & (mags < 1e16))
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    for i in np.flatnonzero(~shared).tolist():
        texts[i] = _repr(float(flat[i]))
    shape, n, ndim = table.shape, len(texts), table.ndim
    ind = ["\n" + "  " * (level + a) for a in range(ndim + 1)]

    def close(a):
        return "".join(ind[b] + "]" for b in reversed(range(a, ndim)))

    def reopen(a):
        return "".join("[" + ind[b + 1] for b in range(a, ndim))

    parts = ["," + ind[ndim]] * (2 * n + 1)
    parts[1::2] = texts
    stride = 1
    for a in range(ndim - 1, 0, -1):
        # axes a and deeper end after every stride-th leaf
        stride *= shape[a]
        sep = close(a) + "," + ind[a] + reopen(a)
        parts[2 * stride:2 * n:2 * stride] = [sep] * (n // stride - 1)
    parts[0], parts[-1] = reopen(0), close(0)
    text = "".join(parts)
    # repr spells the non-finite floats nan, inf and -inf; no finite one has an "n"
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _encode(o, level: int, out: list) -> None:
    """Append the text of o at indent level `level` to out, in pieces that
    dumps joins once."""
    if isinstance(o, RawJSON):
        out.append(o.replace("\n", "\n" + "  " * level))
        return
    text = _scalar(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = "\n" + "  " * (level + 1)
        out.append("[" + inner)
        for i, value in enumerate(o):
            if i:
                out.append("," + inner)
            _encode(value, level + 1, out)
        out.append(inner[:-2] + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        out.append("{" + inner)
        for i, (key, value) in enumerate(sorted(o.items())):
            text = _scalar(key)
            if text is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            if not isinstance(key, str):
                text = '"' + text + '"'     # a number, true, false or null as a key
            out.append(("," + inner if i else "") + text + ": ")
            _encode(value, level + 1, out)
        out.append(inner[:-2] + "}")
    elif type(o) is np.ndarray and o.dtype == np.float64 and o.size:
        out.append(_float_block(o, level))
    else:
        _encode(_jsonable(o), level, out)


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats.
    numpy values and complex numbers ([re, im]) are converted while encoding.
    The text is exactly json.dumps(obj, sort_keys=True, indent=2,
    default=_jsonable), which with an indent runs the pure-Python encoder up
    to Python 3.12; this encoder writes each non-empty float64 array, the
    tables of every *_to_json emitter, from the array itself: its leaves
    with one orjson.dumps, float.__repr__ only where orjson's spelling
    differs (see the module docstring).  It embeds RawJSON without encoding
    it again."""
    out = []
    _encode(obj, 0, out)
    return "".join(out)
