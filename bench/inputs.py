"""Seeded input generator for the benchmark workloads.

Every input is built from ``numpy.random.default_rng(seed)`` alone, so
one seed always gives the same masks and files.  The program under test
sees only what this module produces: Boolean masks in memory, or trace
files in the interchange JSON format.

Events are placed one per fixed-length slot (about one per 2 s on the
union), so the run counts of an input are fixed by its length; what the
seed varies is where each event sits, how long it lasts, how the
prediction's edges are jittered and which predictions are split.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

FRAME_STEP = 0.01
SLOT_FRAMES = 200  # one event per 2 s slot
MARGIN_FRAMES = 10  # quiet frames kept at each slot edge
MIN_EVENT_FRAMES = 16
MEAN_EXTRA_FRAMES = 40.0  # exponential part of an event's length
JITTER_FRAMES = 4  # +-40 ms edge jitter on the prediction
SPLIT_SHARE = 0.2
SPLIT_GAP_FRAMES = 3
CLASS_NAMES = ("speech", "music", "noise")


@dataclass(frozen=True)
class InputInfo:
    """Frames and run counts of one generated input, counted from its masks."""

    name: str
    frames: int
    ref_runs: int
    pred_runs: int


def run_count(mask: np.ndarray) -> int:
    """Number of maximal active runs, counted without the program's code."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool)))
    return int(np.count_nonzero(padded[1:] & ~padded[:-1]))


def _slot_events(rng: np.random.Generator, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """One reference event per slot: (start frame, end frame) arrays."""
    room = SLOT_FRAMES - 2 * MARGIN_FRAMES
    lengths = MIN_EVENT_FRAMES + np.rint(rng.exponential(MEAN_EXTRA_FRAMES, slots)).astype(int)
    lengths = np.minimum(lengths, room)
    offsets = MARGIN_FRAMES + np.floor(rng.random(slots) * (room - lengths + 1)).astype(int)
    starts = np.arange(slots) * SLOT_FRAMES + offsets
    return starts, starts + lengths


def _paint(n: int, starts, ends) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        mask[lo:hi] = True
    return mask


def _prediction(rng: np.random.Generator, starts: np.ndarray, ends: np.ndarray):
    """Jittered copies of the reference events, a fifth of them split by a gap.

    Returns the prediction's (start, end) arrays, sorted.
    """
    count = starts.size
    p_starts = starts + rng.integers(-JITTER_FRAMES, JITTER_FRAMES + 1, count)
    p_ends = ends + rng.integers(-JITTER_FRAMES, JITTER_FRAMES + 1, count)
    # Every event is at least MIN_EVENT_FRAMES long, so after jitter each
    # prediction has room for two active frames on both sides of a split gap.
    splits = rng.choice(count, size=int(round(SPLIT_SHARE * count)), replace=False)
    cut_starts = []
    cut_ends = []
    for i in splits.tolist():
        lo, hi = int(p_starts[i]), int(p_ends[i])
        cut = lo + 2 + int(rng.integers(0, hi - lo - SPLIT_GAP_FRAMES - 3))
        cut_starts.append(cut + SPLIT_GAP_FRAMES)
        cut_ends.append(hi)
        p_ends[i] = cut
    all_starts = np.concatenate((p_starts, np.array(cut_starts, dtype=int)))
    all_ends = np.concatenate((p_ends, np.array(cut_ends, dtype=int)))
    order = np.argsort(all_starts, kind="stable")
    return all_starts[order], all_ends[order]


def union_pair(seed: int, frames: int, name: str = "trace") -> tuple[np.ndarray, np.ndarray, InputInfo]:
    """One reference/prediction mask pair of ``frames`` frames."""
    rng = np.random.default_rng(seed)
    slots = frames // SLOT_FRAMES
    starts, ends = _slot_events(rng, slots)
    p_starts, p_ends = _prediction(rng, starts, ends)
    ref = _paint(frames, starts, ends)
    pred = _paint(frames, p_starts, p_ends)
    return ref, pred, InputInfo(name, frames, run_count(ref), run_count(pred))


def long_traces(seed: int, count: int, frames: int):
    """``count`` independent long mask pairs: list of (ref, pred, info)."""
    seeds = np.random.SeedSequence(seed).spawn(count)
    return [
        union_pair(int(s.generate_state(1)[0]), frames, f"long_{i:02d}")
        for i, s in enumerate(seeds)
    ]


def class_clip(seed: int, frames: int, name: str) -> tuple[dict, InputInfo]:
    """A 3-class trace as an interchange-format dict, plus its union counts.

    Each slot's event belongs to one class chosen at random, so the union
    has one reference run per slot, like :func:`union_pair`.
    """
    rng = np.random.default_rng(seed)
    slots = frames // SLOT_FRAMES
    starts, ends = _slot_events(rng, slots)
    p_starts, p_ends = _prediction(rng, starts, ends)
    owner = rng.integers(0, len(CLASS_NAMES), slots)
    # A split prediction's second piece belongs to the same slot's class.
    p_owner = owner[np.minimum(p_starts // SLOT_FRAMES, slots - 1)]
    classes = {}
    for k, cls in enumerate(CLASS_NAMES):
        ref = _paint(frames, starts[owner == k], ends[owner == k])
        pred = _paint(frames, p_starts[p_owner == k], p_ends[p_owner == k])
        classes[cls] = {"ref": _mask_text(ref), "pred": _mask_text(pred)}
    union_ref = _paint(frames, starts, ends)
    union_pred = _paint(frames, p_starts, p_ends)
    data = {"item_id": name, "frame_step": FRAME_STEP, "classes": classes}
    return data, InputInfo(name, frames, run_count(union_ref), run_count(union_pred))


def clip_lengths(count: int, shortest_s: float = 10.0, longest_s: float = 60.0) -> list[int]:
    """Clip lengths in frames, spread evenly over [shortest, longest] seconds.

    Whole slots only, so every clip has a fixed number of events.
    """
    seconds = np.linspace(shortest_s, longest_s, count)
    slot_s = SLOT_FRAMES * FRAME_STEP
    return [int(round(s / slot_s)) * SLOT_FRAMES for s in seconds]


def clip_corpus(seed: int, lengths: list[int]):
    """One 3-class clip per length: list of (trace dict, info)."""
    seeds = np.random.SeedSequence(seed).spawn(len(lengths))
    return [
        class_clip(int(s.generate_state(1)[0]), frames, f"clip_{i:03d}")
        for i, (s, frames) in enumerate(zip(seeds, lengths))
    ]


def _mask_text(mask: np.ndarray) -> str:
    return (mask.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


def write_trace(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True)
        handle.write("\n")


def write_corpus(corpus, directory: str) -> list[str]:
    """Write each clip as ``<item_id>.json``; return the paths in order."""
    paths = []
    for data, info in corpus:
        path = os.path.join(directory, f"{info.name}.json")
        write_trace(data, path)
        paths.append(path)
    return paths
