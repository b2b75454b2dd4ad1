"""The text formats oxyrl writes: checked lines and array blocks for the
files it reads back (the policy checkpoint, the Cox model file), and CSV
tables. Floats are written with repr(), so a round trip is bit exact;
readers raise ValueError on any deviation from the structure."""

from __future__ import annotations

import math

import numpy as np


def fields(fh, label=None, count=None):
    """The fields of the next line, after `label` when one is given. The line
    must be complete (newline-terminated), start with `label` and, when
    `count` is given, hold that many fields after it."""
    line = fh.readline()
    if not line.endswith("\n"):
        raise ValueError(f"truncated file: expected a {label or 'complete'} line")
    parts = line.split()
    if label is not None:
        if not parts or parts[0] != label:
            raise ValueError(f"malformed line {line[:60]!r}: expected {label!r}")
        parts = parts[1:]
    if count is not None and len(parts) != count:
        raise ValueError(f"malformed line {line[:60]!r}: expected {count} fields")
    return parts


def finite(*texts):
    """The texts as floats, every one of which must be finite."""
    values = [float(text) for text in texts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in {' '.join(texts)!r}")
    return values


def count(text):
    """The text as a non-negative integer."""
    n = int(text)
    if n < 0:
        raise ValueError(f"negative count {n}")
    return n


def write_array(fh, name, arr):
    """An array block: `array <name> <rank> <dims...>`, then one line of
    values in row-major order."""
    arr = np.asarray(arr, dtype=np.float64)
    shape = " ".join(str(d) for d in arr.shape)
    fh.write(f"array {name} {arr.ndim} {shape}\n")
    fh.write(" ".join(repr(float(v)) for v in arr.reshape(-1)) + "\n")


def read_array(fh):
    """Read one array block; returns (name, array)."""
    header = fields(fh, "array")
    if len(header) < 2 or len(header) != 2 + int(header[1]):
        raise ValueError(f"malformed array header {' '.join(header)!r}: expected "
                         "a name, a rank and that many dimensions")
    name, shape = header[0], tuple(count(d) for d in header[2:])
    values = np.array([float(v) for v in fields(fh)], dtype=np.float64)
    if values.size != math.prod(shape):
        raise ValueError(f"malformed array: array {name} holds {values.size} "
                         f"values, shape {shape} needs {math.prod(shape)}")
    if not np.isfinite(values).all():
        raise ValueError(f"malformed array: array {name} has non-finite values")
    return name, values.reshape(shape)


def cell(x) -> str:
    """One CSV cell: a flag as 0/1, an integer as itself, text with its
    commas turned into semicolons, anything else as the repr of a float."""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(x)
    if isinstance(x, str):
        return x.replace(",", ";")
    return repr(float(x))


def write_table(path, header, rows) -> None:
    """A CSV file: the `header` line, then one line of cells per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)
