"""Shared structured-text (JSON) encoding for points, vectors and reports.

Complex scalars are two-element arrays [re, im]; matrices are row-major
2x2 arrays of complex scalars; tuple points are arrays of matrices;
algebra vectors are flat arrays of six reals.  A number is a finite int
or float that is not a bool, an integer an int that is not a bool;
parsing rejects anything else, NaN and infinite entries included, with
ValueError.  Reports serialize by
recursing through dataclasses with the same scalar rules.  Canonical
bytes (sorted keys, no whitespace) back the determinism contract.
"""

import dataclasses
import json
import sys

import numpy as np

__all__ = [
    "encode_complex",
    "parse_complex",
    "parse_matrix",
    "parse_point",
    "parse_reals",
    "parse_algebra",
    "number",
    "integer",
    "jsonable",
    "canonical_dumps",
    "canonical_bytes",
]


def encode_complex(z):
    z = complex(z)
    return [z.real, z.imag]


def _finite_real(c):
    # a bool is an int to Python but not a number in a document; the
    # comparison is exact for an int, so one beyond the float range fails
    return isinstance(c, (int, float)) and not isinstance(c, bool) and abs(c) <= sys.float_info.max


def parse_complex(v):
    if _finite_real(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(
        _finite_real(c) for c in v
    ):
        return complex(v[0], v[1])
    raise ValueError(f"cannot parse finite complex scalar from {v!r}")


def parse_matrix(doc):
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise ValueError("matrix must be a 2x2 array")
    rows = []
    for r in doc:
        if not isinstance(r, (list, tuple)) or len(r) != 2:
            raise ValueError("matrix must be a 2x2 array")
        rows.append([parse_complex(c) for c in r])
    return np.array(rows, dtype=complex)


def _looks_like_matrix(doc):
    try:
        parse_matrix(doc)
        return True
    except ValueError:
        return False


def parse_point(doc):
    """Tuple point from JSON: an array of matrices, or one bare matrix."""
    if _looks_like_matrix(doc):
        return np.stack([parse_matrix(doc)])
    if isinstance(doc, (list, tuple)) and doc and all(_looks_like_matrix(m) for m in doc):
        return np.stack([parse_matrix(m) for m in doc])
    raise ValueError("point must be a 2x2 matrix of finite entries or a nonempty array of them")


def parse_reals(doc, what):
    """Floats of a nonempty array of finite reals; `what` names it in the error."""
    if isinstance(doc, (list, tuple)) and doc and all(_finite_real(c) for c in doc):
        return [float(c) for c in doc]
    raise ValueError(f"{what} must be a nonempty array of finite reals")


def parse_algebra(doc):
    if not isinstance(doc, (list, tuple)) or len(doc) != 6:
        raise ValueError("algebra vector must be an array of six finite reals")
    return np.array(parse_reals(doc, "algebra vector"))


def number(name, value):
    """float(value) for a number; a ValueError naming the field otherwise."""
    if not _finite_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def integer(name, value):
    """int(value) for an integer value; a ValueError naming the field otherwise.

    A bool, a fractional number or a float is refused rather than
    truncated: a seed keys every stream, and the other integers are counts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def jsonable(obj):
    """Recursively convert values to JSON-encodable structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return encode_complex(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return encode_complex(complex(obj))
    if isinstance(obj, np.ndarray):
        if np.issubdtype(obj.dtype, np.complexfloating):
            return [jsonable(x) for x in obj.tolist()]
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj):
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj):
    return canonical_dumps(obj).encode("utf-8")
