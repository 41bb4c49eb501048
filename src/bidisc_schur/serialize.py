"""JSON schemas for everything that crosses the CLI boundary.

Every complex array, whatever its shape, serializes as nested row-major
lists of [re, im] pairs (a scalar is a bare pair); pairs_to_json and
pairs_from_json are the one codec.  Every structure carries a "kind"
discriminator on output; on input the kind may be omitted and is inferred
from the keys.  A leaf of an [re, im] nest must be a float or an int, not a
bool or a string.

The CLI parses its inputs with orjson (cli._parse_json), and hands a text
orjson refuses, or one it cannot prove shallow (cli._shallow), to the json
module.  The contract: any text json.load parses reads as the identical
object, with the same types and float bits, and any text json.load refuses
fails with its error message; NaN and Infinity literals therefore still
reach the finiteness check of pairs_from_json.  One exception: orjson 3.8
reads an integer literal outside the 64-bit range as the nearest double,
where json keeps the int.  Only integer fields could see it, and _count
refuses any entry there that is not a JSON integer in 0..2**63 - 1, with
the same message from either reader.

Reports are written by dumps, whose text is exactly that of
json.dumps(obj, sort_keys=True, indent=2) with numpy and complex values
converted.  One fast path: a list that is a rectangular nest of Python
floats (every leaf of type float, no empty axis) is formatted with one
float.__repr__ per leaf and one join; everything else, numpy scalars, ints,
bools, ragged nests and [[]] included, takes the generic recursive path.
RawJSON is text dumps already produced; embedded at indent level L its
newlines gain 2 L spaces, which is exact because encoded JSON holds no raw
newline inside a string.  So a table written to a file and also embedded in
a report is formatted once.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .colligation import Colligation
from .errors import SchemaError
from .factor import FactorizationResult
from .functions import Poly2, PointGrid, PowerSeries2, RationalFunction2
from .kernels import SampledKernel, ThetaRealization, check_value_dim


def pairs_to_json(a) -> list:
    """Nested [re, im] lists of a complex array of any shape."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


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


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    return complex(pairs_from_json(obj, 0))


def matrix_from_json(obj, shape=None) -> np.ndarray:
    out = pairs_from_json(obj, 2)
    if shape is not None and out.size == 0:
        out = out.reshape(shape)
    return out


def _count(value, field: str) -> int:
    """A JSON integer (not a bool, not a float) in the range both CLI readers read exactly."""
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
        "unimodular": complex_to_json(f.unimodular),
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
        "a": complex_to_json(v.a),
        "B": pairs_to_json(v.B),
        "C": pairs_to_json(v.C),
        "D": pairs_to_json(v.D),
        "partition": list(v.partition),
    }


def colligation_from_json(obj) -> Colligation:
    part = [_count(h, "partition") for h in obj["partition"]]
    h = sum(part)
    return Colligation(
        complex_from_json(obj["a"]),
        matrix_from_json(obj["B"], shape=(1, h)),
        matrix_from_json(obj["C"], shape=(h, 1)),
        matrix_from_json(obj["D"], shape=(h, h)),
        part,
    )


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
    return {"kind": "blaschke", "constant": complex_to_json(constant),
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
        e_star,
    )


def factorization_to_json(r: FactorizationResult) -> dict:
    return {
        "kind": "factorization",
        "V1": colligation_to_json(r.v1),
        "V2": colligation_to_json(r.v2),
        "x": complex_to_json(r.x),
        "y": complex_to_json(r.y),
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


def _jsonable(obj):
    """What json cannot encode itself: complex numbers, numpy arrays and scalars."""
    if isinstance(obj, (complex, np.complexfloating)):
        return complex_to_json(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class RawJSON(str):
    """Text that dumps already produced.  Inside a larger value dumps
    re-indents it instead of encoding it again, so a table that is written
    both to a file and into a report is formatted once."""


_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


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


def _float_nest(o):
    """(shape, leaves) of a rectangular nest of lists and tuples whose leaves
    are all of type float and whose axes are all non-empty, else None."""
    shape, leaves, kinds = _nest(o)
    return (shape, leaves) if kinds == {float} else None


def _float_block(shape, leaves, level: int) -> str:
    """The nest of _float_nest at indent level `level`, in one join: each
    float formatted once, and between two leaves the separator that closes
    and reopens the axes ending there."""
    n, ndim = len(leaves), len(shape)
    ind = ["\n" + "  " * (level + a) for a in range(ndim + 1)]

    def close(a):
        return "".join(ind[b] + "]" for b in reversed(range(a, ndim)))

    def reopen(a):
        return "".join("[" + ind[b + 1] for b in range(a, ndim))

    parts = ["," + ind[ndim]] * (2 * n + 1)
    parts[1::2] = map(float.__repr__, leaves)
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
        nest = _float_nest(o)
        if nest is not None:
            out.append(_float_block(*nest, level))
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
    else:
        _encode(_jsonable(o), level, out)


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, shortest round-trip floats.
    numpy values and complex numbers ([re, im]) are converted while encoding.
    The text is exactly json.dumps(obj, sort_keys=True, indent=2,
    default=_jsonable), which with an indent runs the pure-Python encoder up
    to Python 3.12; this encoder formats each float once (see the module
    docstring) and embeds RawJSON without encoding it again."""
    out = []
    _encode(obj, 0, out)
    return "".join(out)
