"""JSON serialization for 4x4 complex matrices.

Format: {"matrix": [[[re, im] x4] x4], "scalar": optional real}.  The value
described is matrix + i*scalar*I, keeping the scalar trace part of a
generator human-readable in fixtures.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputError


def matrix_to_obj(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    return {"matrix": [[[float(z.real), float(z.imag)] for z in row] for row in A]}


def obj_to_matrix(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise InputError("expected an object with a 'matrix' field")
    rows = obj["matrix"]
    try:
        # An entry {} raises KeyError, and an integer past the float range
        # OverflowError.
        A = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, IndexError, KeyError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed matrix entries: {exc}") from exc
    # bool is an int in Python, but a JSON true or false is not a number.
    if any(isinstance(x, bool) for row in rows for e in row for x in (e[0], e[1])):
        raise InputError("malformed matrix entries: a boolean is not a number")
    if A.shape != (4, 4):
        raise InputError(f"expected a 4x4 matrix, got shape {A.shape}")
    scalar = obj.get("scalar", 0.0)
    if isinstance(scalar, bool) or not isinstance(scalar, (int, float)):
        raise InputError("'scalar' must be a real number")
    try:
        scalar = float(scalar)
    except OverflowError as exc:
        raise InputError(f"'scalar' is past the float range: {exc}") from exc
    return A + 1j * scalar * np.eye(4)


def load_matrix(path: str | Path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    return obj_to_matrix(obj)


def save_matrix(A: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(A), indent=2) + "\n")
