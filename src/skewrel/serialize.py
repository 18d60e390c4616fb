"""JSON wire format for problems, reports, and witness files.

Complex numbers travel as two-element [re, im] arrays and matrices as
row-major nested arrays of those pairs.  Floats are emitted with Python's
shortest-round-trip repr, so re-reading a document reproduces every value
bit for bit.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import MalformedDocument
from .quantities import DensityMatrix, Observable


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_wire(m: np.ndarray) -> list[list[list[float]]]:
    a = np.asarray(m, dtype=np.complex128)
    return [[[v.real, v.imag] for v in row] for row in a.tolist()]


def wire_to_matrix(data: Any, what: str) -> np.ndarray:
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
                # bool is an int subclass, but JSON true/false is not a number
                or not all(
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
                )
            ):
                raise MalformedDocument(f"{what}: entry ({i},{j}) is not an [re, im] pair")
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # a JSON integer beyond the range of a double
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
    doc = {}
    if label is not None:
        doc["label"] = label
    doc["rho"] = matrix_to_wire(rho)
    doc["A"] = matrix_to_wire(a)
    doc["B"] = matrix_to_wire(b)
    return doc


def load_document(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_document(doc: Any, fh) -> None:
    json.dump(doc, fh, indent=2)
    fh.write("\n")
