"""Bit-stable file formats for fields, reports, and sweep tables.

FieldFile: one JSON header line followed by the node values as raw
little-endian float64 in row-major (theta outer, phi inner) order.  The
header carries the grid shape, creation parameters, the encoding (always
"binary") and a sha256 of the payload, so corruption is detected on read.
A read takes its grid from build_grid's per-shape cache.

Reports serialize dataclasses to JSON; floats go through Python's
shortest round-trip repr, which reloads bit-exactly.  Non-finite values
are mapped to null so serialized output never contains NaN.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io as _io
import json
from pathlib import Path

import numpy as np

from .errors import FormatError, GridSizeError, NonFiniteFieldError
from .grid import ScalarField, build_grid

FORMAT_VERSION = 1


def _header(field: ScalarField, params: dict | None, payload_hash: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "field",
        "encoding": "binary",
        "n_theta": field.grid.n_theta,
        "n_phi": field.grid.n_phi,
        "count": field.grid.n_nodes,
        "params": params or {},
        "sha256": payload_hash,
    }


def write_field(path, field: ScalarField, params: dict | None = None) -> None:
    """Persist a field; write->read reproduces values bit-exactly."""
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    header = _header(field, params, hashlib.sha256(payload).hexdigest())
    with open(Path(path), "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def read_field(path) -> ScalarField:
    """Load a FieldFile on the grid of its header shape.

    The grid comes from build_grid's cache, so a read shares the one
    read-only grid of that shape with every other caller and pays a
    Gauss-Legendre build only for a shape not built before.  The payload
    is read through a view, so ScalarField's copy is its only copy.
    """
    data = Path(path).read_bytes()
    newline = data.find(b"\n")
    if newline < 0:
        newline = len(data)
    try:
        header = json.loads(data[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unreadable field header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "field":
        raise FormatError("not a field file")
    if header.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {header.get('format_version')}")

    sizes = []
    for key in ("n_theta", "n_phi", "count"):
        value = header.get(key)
        # a JSON integer only; int() would truncate a float, parse a
        # string and take a bool (an int subclass) as 0 or 1
        if type(value) is not int:
            raise FormatError(
                f"malformed field header: {key} is not an integer: {value!r}")
        sizes.append(value)
    n_theta, n_phi, count = sizes
    encoding = header.get("encoding")
    if count != n_theta * n_phi:
        raise FormatError("header count does not match grid shape")
    if encoding != "binary":
        raise FormatError(f"unknown encoding {encoding!r}")

    payload = memoryview(data)[newline + 1:]
    if len(payload) != 8 * count:
        raise FormatError(
            f"payload length {len(payload)} != {8 * count} bytes")
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise FormatError("payload hash mismatch (corrupted file)")
    values = np.frombuffer(payload, dtype="<f8")

    try:
        grid = build_grid(n_theta, n_phi)
    except GridSizeError as exc:
        raise FormatError(f"header grid is not a valid grid: {exc}") from exc
    try:
        return ScalarField(grid, values.reshape(n_theta, n_phi))
    except NonFiniteFieldError as exc:
        raise FormatError(f"field payload is not finite: {exc}") from exc


def to_jsonable(obj):
    """Recursively convert reports to JSON-ready structures.

    numpy scalars/arrays become Python numbers/lists, dataclasses become
    dicts tagged with their type name, ScalarField collapses to a shape
    and range summary (full payloads belong in FieldFiles), and every
    non-finite float becomes null.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, ScalarField):
        return {
            "type": "ScalarField",
            "n_theta": obj.grid.n_theta,
            "n_phi": obj.grid.n_phi,
            "min": to_jsonable(obj.min()),
            "max": to_jsonable(obj.max()),
        }
    if isinstance(obj, np.ndarray):
        values = obj.tolist()
        # one tolist() is the whole conversion unless an entry needs null
        if obj.dtype.kind in "biuf" and np.isfinite(obj).all():
            return values
        return [to_jsonable(v) for v in values]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_json(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True)


def write_report(path, obj) -> None:
    Path(path).write_text(report_json(obj) + "\n", encoding="utf-8")


def format_cell(v) -> str:
    """CSV cell: floats via round-trip repr, everything else via str."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(target, header: list[str], rows) -> str:
    """Write a sweep table; returns the CSV text.

    target may be a path or None (text only).
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    text = buf.getvalue()
    if target is not None:
        Path(target).write_text(text, encoding="utf-8")
    return text
