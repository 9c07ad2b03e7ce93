"""Trace interchange format and report hashing helpers.

A trace file is JSON carrying a frame step, an item id, and masks as
compact "0"/"1" strings (plain 0/1 arrays are also accepted).  Class
indexed masks live under ``classes``; an optional ``union`` pair covers
single-label use.  When ``union`` is absent it is derived as the
per-frame OR of the class masks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np


class TraceFormatError(Exception):
    """A trace file that does not follow the interchange schema."""


def mask_to_string(mask) -> str:
    codes = np.asarray(mask).astype(bool).view(np.uint8) + ord("0")
    return codes.tobytes().decode("ascii")


def parse_mask(value, context: str) -> np.ndarray:
    if isinstance(value, str):
        # Non-ASCII text reads as the byte "x" and fails the check on the
        # bytes: ord("0") | 1 == ord("1"), and no other byte ORs to it.
        codes = np.frombuffer(value.encode("ascii") if value.isascii() else b"x", np.uint8)
        if ((codes | 1) != ord("1")).any():
            raise TraceFormatError(f"{context}: mask string must contain only 0/1")
        return codes == ord("1")
    if isinstance(value, (list, tuple)):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            raise TraceFormatError(f"{context}: mask array must be numeric") from None
        if arr.ndim != 1 or not np.isin(arr, (0.0, 1.0)).all():
            raise TraceFormatError(f"{context}: mask array must be one-dimensional 0/1")
        return arr.astype(bool)
    raise TraceFormatError(f"{context}: mask must be a 0/1 string or array")


@dataclass
class TraceFile:
    """A parsed trace; ``sha256`` is the digest of the file bytes it was
    parsed from (``None`` for a trace built in memory), no part of its value."""

    item_id: str
    frame_step: float
    classes: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    union: tuple[np.ndarray, np.ndarray] | None = None
    sha256: str | None = field(default=None, compare=False, repr=False)

    def union_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Explicit union pair, or the OR of the class masks."""
        if self.union is not None:
            return self.union
        if not self.classes:
            raise TraceFormatError(f"{self.item_id}: no union masks and no classes")
        refs, preds = zip(*self.classes.values())
        return np.logical_or.reduce(refs), np.logical_or.reduce(preds)

    @property
    def frame_count(self) -> int:
        return len(self.union_masks()[0])


def _parse_pair(node, context: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(node, dict) or "ref" not in node or "pred" not in node:
        raise TraceFormatError(f"{context}: expected an object with 'ref' and 'pred'")
    ref = parse_mask(node["ref"], f"{context}.ref")
    pred = parse_mask(node["pred"], f"{context}.pred")
    if ref.shape != pred.shape:
        raise TraceFormatError(f"{context}: ref and pred lengths differ")
    return ref, pred


def trace_from_dict(data: dict, context: str = "trace") -> TraceFile:
    if not isinstance(data, dict):
        raise TraceFormatError(f"{context}: expected a JSON object")
    try:
        frame_step = float(data["frame_step"])
    except (KeyError, TypeError, ValueError):
        raise TraceFormatError(f"{context}: missing or invalid 'frame_step'") from None
    if not (math.isfinite(frame_step) and frame_step > 0.0):
        raise TraceFormatError(f"{context}: frame_step must be finite and positive")
    item_id = str(data.get("item_id", context))
    classes = {}
    for name, node in dict(data.get("classes", {})).items():
        classes[str(name)] = _parse_pair(node, f"{context}.classes.{name}")
    union = _parse_pair(data["union"], f"{context}.union") if "union" in data else None
    trace = TraceFile(item_id, frame_step, classes, union)
    lengths = {len(ref) for ref, _ in classes.values()}
    if union is not None:
        lengths.add(len(union[0]))
    if len(lengths) > 1:
        raise TraceFormatError(f"{context}: masks have inconsistent lengths {sorted(lengths)}")
    if union is None and not classes:
        raise TraceFormatError(f"{context}: trace needs 'union' masks or 'classes'")
    return trace


def read_json(path) -> tuple[object, str]:
    """The JSON value of a UTF-8 file and the SHA-256 of the bytes parsed.

    The bytes are read once and decoded as strict UTF-8 (a byte order mark
    is not skipped); text that does not decode or parse raises
    :class:`TraceFormatError`.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: invalid JSON ({exc})") from None
    return data, hashlib.sha256(raw).hexdigest()


def load_trace(path) -> TraceFile:
    data, digest = read_json(path)
    trace = trace_from_dict(data, context=str(path))
    trace.sha256 = digest
    return trace


def trace_to_dict(trace: TraceFile) -> dict:
    data: dict = {"item_id": trace.item_id, "frame_step": trace.frame_step}
    if trace.union is not None:
        data["union"] = {
            "ref": mask_to_string(trace.union[0]),
            "pred": mask_to_string(trace.union[1]),
        }
    if trace.classes:
        data["classes"] = {
            name: {"ref": mask_to_string(ref), "pred": mask_to_string(pred)}
            for name, (ref, pred) in trace.classes.items()
        }
    return data


def save_trace(trace: TraceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace_to_dict(trace), handle, indent=2, sort_keys=True)
        handle.write("\n")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
