"""JSON wire format for problems, reports, and witness files.

Complex numbers travel as two-element [re, im] arrays and matrices as
row-major nested arrays of those pairs.  Floats are emitted with Python's
shortest-round-trip repr, so re-reading a document reproduces every value
bit for bit.

A document is written as the bytes ``json.dumps(doc, indent=2)`` would
give, plus a newline, where every 2-D ndarray in it stands for its nested
[re, im] rows.  Each matrix is formatted in one pass from a template
cached per shape and depth; the rest of the document goes through a small
recursive emitter.  NaN and infinities are refused, since JSON has no
token for them.  Reading converts a well-formed matrix with one numpy
call and sends anything else to an entry-by-entry loop that names the
first defect, so both accept and reject exactly the same inputs.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .errors import MalformedDocument, NonFiniteResult
from .quantities import DensityMatrix, Observable

_INDENT = "  "
_encode_str = json.encoder.encode_basestring_ascii
_NUMBER_TYPES = frozenset((int, float))


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _matrix_or_none(data: Any) -> np.ndarray | None:
    """An n x n wire matrix of exact lists and int/float leaves, or None.

    None means the loop in wire_to_matrix must look at the input: it is
    malformed, a leaf is too large for a double or not finite, or it uses
    list or number subclasses, which the loop accepts and this path does not.
    """
    if type(data) is not list or not data:
        return None
    n = len(data)
    if set(map(type, data)) != {list} or set(map(len, data)) != {n}:
        return None
    entries = list(chain.from_iterable(data))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    leaves = list(chain.from_iterable(entries))
    # bool is an int subclass, but JSON true/false is not a number
    if not set(map(type, leaves)) <= _NUMBER_TYPES:
        return None
    try:
        flat = np.array(leaves, dtype=np.float64)
    except OverflowError:  # a JSON integer beyond the range of a double
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(np.complex128).reshape(n, n)


def wire_to_matrix(data: Any, what: str) -> np.ndarray:
    """The complex matrix of a wire array; MalformedDocument names the first defect."""
    out = _matrix_or_none(data)
    if out is not None:
        return out
    return _wire_to_matrix_loop(data, what)


def _wire_to_matrix_loop(data: Any, what: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise MalformedDocument(f"{what}: expected a non-empty nested array")
    n = len(data)
    out = np.empty((n, n), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedDocument(f"{what}: row {i} is not a list of length {n}")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
                )
            ):
                raise MalformedDocument(f"{what}: entry ({i},{j}) is not an [re, im] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:
                raise MalformedDocument(
                    f"{what}: entry ({i},{j}) is too large for a double"
                ) from None
    if not np.isfinite(out).all():
        raise MalformedDocument(f"{what}: entries must be finite")
    return out


def problem_from_wire(doc: Any) -> tuple[DensityMatrix, Observable, Observable, str | None]:
    """Parse and validate one (rho, A, B) problem document."""
    if not isinstance(doc, dict):
        raise MalformedDocument("problem document must be a JSON object")
    for key in ("rho", "A", "B"):
        if key not in doc:
            raise MalformedDocument(f"problem document is missing the {key!r} matrix")
    rho = DensityMatrix(wire_to_matrix(doc["rho"], "rho"))
    a = Observable(wire_to_matrix(doc["A"], "A"))
    b = Observable(wire_to_matrix(doc["B"], "B"))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise MalformedDocument("label must be a string when present")
    if a.dim != rho.dim or b.dim != rho.dim:
        raise MalformedDocument(
            f"matrix dimensions disagree: rho {rho.dim}, A {a.dim}, B {b.dim}"
        )
    return rho, a, b, label


def problem_to_wire(rho, a, b, label: str | None = None) -> dict:
    """A problem document; its matrices stay complex ndarrays until written."""
    doc = {}
    if label is not None:
        doc["label"] = label
    doc["rho"] = np.asarray(rho, dtype=np.complex128)
    doc["A"] = np.asarray(a, dtype=np.complex128)
    doc["B"] = np.asarray(b, dtype=np.complex128)
    return doc


def load_document(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class _NonFinite(Exception):
    """A NaN or infinity met while writing; ``path`` collects its keys, innermost first."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value
        self.path: list[str] = []


@functools.lru_cache(maxsize=64)
def _matrix_template(rows: int, cols: int, level: int) -> str:
    """%-template of an indent-2 rows x cols matrix of [re, im] pairs opened at ``level``."""
    ind = ["\n" + _INDENT * (level + k) for k in range(4)]
    pair = f"[{ind[3]}%r,{ind[3]}%r{ind[2]}]"
    row = "[" + ind[2] + ("," + ind[2]).join([pair] * cols) + ind[1] + "]"
    return "[" + ind[1] + ("," + ind[1]).join([row] * rows) + ind[0] + "]"


def _matrix_text(m: np.ndarray, level: int) -> str:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.size == 0:
        raise TypeError(f"only non-empty 2-D arrays can be written, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        raise _NonFinite(a[~finite][0].item())
    # %r is float.__repr__, the text json gives a finite float
    return _matrix_template(*a.shape, level) % tuple(a.view(np.float64).ravel().tolist())


def _wrap(opening: str, parts: list[str], closing: str, level: int) -> str:
    inner = "\n" + _INDENT * (level + 1)
    return opening + inner + ("," + inner).join(parts) + "\n" + _INDENT * level + closing


def _text(o: Any, level: int) -> str:
    """The json.dumps(o, indent=2) text of o, nested ``level`` deep.

    Types are tested in json's order, except that float, the commonest
    leaf, goes first: no value is both a float and one of the types before it.
    """
    if isinstance(o, float):
        if not math.isfinite(o):
            raise _NonFinite(o)
        return float.__repr__(o)
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, np.ndarray):
        return _matrix_text(o, level)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        parts = []
        for i, item in enumerate(o):
            try:
                parts.append(_text(item, level + 1))
            except _NonFinite as exc:
                exc.path.append(f"[{i}]")
                raise
        return _wrap("[", parts, "]", level)
    if isinstance(o, dict):
        if not o:
            return "{}"
        parts = []
        for key, value in o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            try:
                parts.append(_encode_str(key) + ": " + _text(value, level + 1))
            except _NonFinite as exc:
                exc.path.append(f".{key}")
                raise
        return _wrap("{", parts, "}", level)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def document_text(doc: Any) -> str:
    """doc as json.dumps(doc, indent=2) text plus a newline, 2-D ndarrays as wire matrices.

    Raises NonFiniteResult, naming the field, when a number is NaN or
    infinite: JSON has no token for it.  Dict keys must be strings.
    """
    try:
        return _text(doc, 0) + "\n"
    except _NonFinite as exc:
        where = "".join(reversed(exc.path)).removeprefix(".") or "the document"
        raise NonFiniteResult(
            f"{where} is not finite ({exc.value!r}) and cannot be written as JSON"
        ) from None


def dump_document(doc: Any, fh) -> None:
    """Write document_text(doc) with one write; nothing is written if it raises."""
    fh.write(document_text(doc))
