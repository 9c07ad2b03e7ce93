"""Deterministic mask-level trace generation for tests and audits.

Everything here is pure mask construction: reference events are
rasterized onto the frame grid and prediction masks are derived by
applying a named pathology (shifted edges, dropped or inserted runs,
silence bleed, duration distortion, fragmentation, and the matcher
stress shapes).  No audio, no features, no model outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import CalibrationCase
from .frames import _as_mask, _check_frame_step
from .intervals import _TIME_EPS, Interval, _run_edges

PATHOLOGY_KINDS = (
    "nominal",
    "late_onset",
    "early_onset",
    "late_release",
    "early_release",
    "missing",
    "extra",
    "silence_bleed",
    "length_distortion",
    "fragmentation",
    "bridge_left",
    "bridge_right",
    "split",
)


@dataclass(frozen=True)
class TracePathology:
    """Named corruption applied to a reference mask.

    ``magnitude`` is seconds for edge displacement kinds and a count for
    ``fragmentation`` and ``extra``; the stress shapes take a frame count
    swept by the stress track.
    """

    kind: str
    magnitude: float | int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PATHOLOGY_KINDS:
            raise ValueError(f"unknown pathology kind {self.kind!r}")


def _paint(runs, n: int) -> np.ndarray:
    """An ``n``-frame mask active on the ``(lo, hi)`` frame runs, each
    clipped to the trace."""
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        mask[max(0, lo) : max(0, min(n, hi))] = True
    return mask


def make_trace(events, n: int, h: float) -> np.ndarray:
    """Rasterize events onto the grid: frame i is active iff its span
    [i*h, (i+1)*h) intersects some event."""
    if n < 0 or not (h > 0.0):
        raise ValueError("need nonnegative frame count and positive frame step")
    horizon = n * h
    runs = []
    for event in events:
        interval = event if isinstance(event, Interval) else Interval(*event)
        if interval.start < -_TIME_EPS or interval.end > horizon + _TIME_EPS:
            raise ValueError(f"event {interval} outside [0, {horizon})")
        first = int(np.floor(interval.start / h + _TIME_EPS))
        runs.append((first, int(np.ceil(interval.end / h - _TIME_EPS))))
    return _paint(runs, n)


def _frames_of(magnitude, h: float) -> int:
    seconds = None if magnitude is None else float(magnitude)
    frames = round(seconds / h) if seconds is not None and math.isfinite(seconds / h) else 0
    if frames <= 0 or abs(frames * h - seconds) > 1e-6:
        raise ValueError(f"magnitude {seconds!r} is not a positive frame multiple of {h!r}")
    return frames


def _count_of(pathology: TracePathology, least: int, unit: str) -> int:
    """A counting kind's count: ``least`` when unset, else at least ``least``."""
    count = least if pathology.magnitude is None else pathology.magnitude
    if not (math.isfinite(count) and int(count) >= least):
        raise ValueError(f"{pathology.kind} needs a {unit} count of at least {least}")
    return int(count)


# How each edge-moving kind moves run ``k``, frames [lo, hi) of an
# ``n``-frame trace, by ``m`` frames.  Moved edges stop at the trace
# boundaries and a run keeps at least one active frame.
_MOVES = {
    "late_onset": lambda lo, hi, m, n, k: (min(lo + m, hi - 1), hi),
    "early_onset": lambda lo, hi, m, n, k: (max(0, lo - m), hi),
    "late_release": lambda lo, hi, m, n, k: (lo, min(n, hi + m)),
    "early_release": lambda lo, hi, m, n, k: (lo, max(lo + 1, hi - m)),
    "silence_bleed": lambda lo, hi, m, n, k: (max(0, lo - m), min(n, hi + m)),
    # Even runs stretch by a late release, odd runs shrink by an early one.
    "length_distortion": lambda lo, hi, m, n, k: (
        lo, min(n, hi + m) if k % 2 == 0 else max(lo + 1, hi - m)
    ),
}


def apply_pathology(ref_mask, pathology: TracePathology, h: float) -> np.ndarray:
    """Deterministic prediction mask for ``(ref_mask, pathology)``.

    Edge shifts clip at the trace boundaries and keep at least one active
    frame per run; overlapping shifted runs merge on re-rasterization.
    """
    _check_frame_step(h)
    ref = _as_mask(ref_mask, "ref_mask")
    n = ref.shape[0]
    kind = pathology.kind
    if kind == "nominal":
        return ref.copy()
    if kind == "missing":
        return np.zeros(n, dtype=bool)
    edges = _run_edges(ref).tolist()
    runs = list(zip(edges[0::2], edges[1::2]))
    if kind in _MOVES:
        move = _MOVES[kind]
        m = _frames_of(pathology.magnitude, h)
        return _paint((move(lo, hi, m, n, k) for k, (lo, hi) in enumerate(runs)), n)
    if kind == "fragmentation":
        count = _count_of(pathology, 2, "piece")
        return _paint((piece for lo, hi in runs for piece in _split_run(lo, hi, count)), n)
    if kind == "extra":
        return _with_extra_runs(ref, edges, _count_of(pathology, 1, "run"), n)
    if kind in ("bridge_left", "bridge_right", "split"):
        raise ValueError(
            f"{kind} is a matcher stress shape; build it with stress_track()"
        )
    raise ValueError(f"unknown pathology kind {kind!r}")


def _split_run(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """Split one run into ``count`` pieces separated by single-frame gaps."""
    length = hi - lo
    pieces = min(count, (length + 1) // 2)
    if pieces <= 1:
        return [(lo, hi)]
    active = length - (pieces - 1)
    base = active // pieces
    remainder = active % pieces
    out = []
    cursor = lo
    for k in range(pieces):
        size = base + (1 if k < remainder else 0)
        out.append((cursor, cursor + size))
        cursor += size + 1
    return out


def _with_extra_runs(ref: np.ndarray, edges: list[int], count: int, n: int) -> np.ndarray:
    """Insert spurious runs at the centers of the widest silent gaps of the
    runs with interleaved ``edges``."""
    extra_len = 30  # frames; 0.6 s at the 0.02 s grid
    guard = 4
    bounds = [0, *edges, n]
    gaps = [(lo, hi) for lo, hi in zip(bounds[0::2], bounds[1::2]) if lo < hi]
    gaps.sort(key=lambda g: (g[0] - g[1], g[0]))  # widest first, stable
    inserted = []
    for lo, hi in gaps[:count]:
        size = min(extra_len, max(1, hi - lo - 2 * guard))
        start = max(lo + guard, (lo + hi) // 2 - size // 2)
        inserted.append((start, min(hi - guard, start + size)))
    return ref | _paint(inserted, n)


# ---------------------------------------------------------------------------
# Worked example geometry


def worked_trace(n: int = 150, h: float = 0.02) -> tuple[np.ndarray, np.ndarray, float]:
    """Reference [1.00, 2.00) against a prediction [1.06, 2.40): aligned
    onset, late release, stretched duration."""
    ref = make_trace([Interval(1.00, 2.00)], n, h)
    pred = make_trace([Interval(1.06, 2.40)], n, h)
    return ref, pred, h


def fragmented_trace(n: int = 150, h: float = 0.02) -> tuple[np.ndarray, np.ndarray, float]:
    """One reference event predicted as three short pieces inside it."""
    ref = make_trace([Interval(1.00, 2.00)], n, h)
    pred = apply_pathology(ref, TracePathology("fragmentation", 3), h)
    return ref, pred, h


# ---------------------------------------------------------------------------
# Matcher stress track


@dataclass(frozen=True)
class StressCase:
    pattern: str
    case_id: str
    ref_mask: np.ndarray
    pred_mask: np.ndarray
    epsilon: float
    frame_step: float


_STRESS_H = 0.02
_STRESS_EPSILON = 0.1
_STRESS_N = 130


def _stress_refs(n: int = _STRESS_N, h: float = _STRESS_H) -> np.ndarray:
    # Two 0.5 s reference events separated by a 0.3 s gap.
    return make_trace([Interval(1.0, 1.5), Interval(1.8, 2.3)], n, h)


def bridge_fixture() -> StressCase:
    """The canonical diverging bridge: a stub at the first onset plus a long
    prediction that hugs the first event's tail and crosses into the second.

    Greedy spends the long prediction on the first reference and strands
    the second; the exact matcher pairs both references.
    """
    h = _STRESS_H
    ref = _stress_refs()
    pred = make_trace([Interval(0.98, 1.02), Interval(1.2, 2.06)], _STRESS_N, h)
    return StressCase("bridge", "bridge_canonical", ref, pred, 0.08, h)


def stress_track() -> list[StressCase]:
    """The 24-case matcher stress track.

    Twelve left-bridge cases sweep the stub width and the bridge
    penetration; four cases each of nominal, right bridge, and split are
    stable under both matching policies.
    """
    h, n, epsilon = _STRESS_H, _STRESS_N, _STRESS_EPSILON
    cases: list[StressCase] = []
    refs = _stress_refs()
    for stub in (1, 2, 3, 4):
        # A stub around the first onset plus a long prediction that crosses
        # from the first event's tail into the second event.
        stub_event = Interval(1.0 - stub * h, 1.0 + stub * h)
        for penetration in (0.22, 0.24, 0.26):
            pred = make_trace([stub_event, Interval(1.2, 1.8 + penetration)], n, h)
            case_id = f"left_bridge_s{stub}_p{int(penetration * 1000)}"
            cases.append(StressCase("left_bridge", case_id, refs, pred, epsilon, h))
    for index, lengths in enumerate(((0.5, 0.5), (0.4, 0.5), (0.5, 0.4), (0.3, 0.3))):
        ref = make_trace([Interval(1.0, 1.0 + lengths[0]), Interval(1.8, 1.8 + lengths[1])], n, h)
        cases.append(StressCase("nominal", f"nominal_{index}", ref, ref.copy(), epsilon, h))
    for stub in (1, 2, 3, 4):
        # Mirror shape: the long prediction hugs the second event while
        # crossing into the first one's tail, so greedy already picks the
        # optimal side.
        pred = make_trace([Interval(1.0 - stub * h, 1.0 + stub * h), Interval(1.3, 2.3)], n, h)
        cases.append(StressCase("right_bridge", f"right_bridge_s{stub}", refs, pred, epsilon, h))
    # One reference event, frames [50, 75) = [1.0, 1.5), split by the
    # prediction into two uneven runs.  Piece widths stay asymmetric so the
    # single best pair is unique and both policies pick it.
    single_ref = make_trace([Interval(1.0, 1.5)], n, h)
    for first_piece in (8, 10, 14, 16):
        cut = 50 + first_piece
        pred = make_trace([Interval(50 * h, cut * h), Interval((cut + 1) * h, 75 * h)], n, h)
        cases.append(StressCase("split", f"split_{first_piece}", single_ref, pred, epsilon, h))
    return cases


# ---------------------------------------------------------------------------
# Risk-ordered calibration fixture


_CALIBRATION_EVENTS = (Interval(1.0, 2.0), Interval(4.0, 5.5), Interval(8.0, 9.2))
_CALIBRATION_N = 600
_CALIBRATION_H = 0.02

# (case id, pathology, declared risk); higher risk is worse.
_CALIBRATION_SPECS: tuple[tuple[str, TracePathology, float], ...] = (
    ("early_onset", TracePathology("early_onset", 0.04), 3.0),
    ("late_onset", TracePathology("late_onset", 0.20), 4.0),
    ("late_release", TracePathology("late_release", 0.40), 4.0),
    ("early_release", TracePathology("early_release", 0.40), 4.0),
    ("length_distortion", TracePathology("length_distortion", 0.30), 4.0),
    ("fragmentation", TracePathology("fragmentation", 3), 4.0),
    ("missing", TracePathology("missing"), 5.0),
    ("extra", TracePathology("extra", 3), 5.0),
    ("silence_bleed", TracePathology("silence_bleed", 0.20), 5.0),
)


def calibration_cases(h: float = _CALIBRATION_H) -> list[CalibrationCase]:
    """Nine named trace pathologies with their declared risk order."""
    ref = make_trace(_CALIBRATION_EVENTS, _CALIBRATION_N, h)
    cases = []
    for case_id, pathology, risk in _CALIBRATION_SPECS:
        pred = apply_pathology(ref, pathology, h)
        cases.append(
            CalibrationCase(
                id=case_id,
                ref_mask=tuple(ref.view(np.uint8).tolist()),
                pred_mask=tuple(pred.view(np.uint8).tolist()),
                risk=risk,
                frame_step=h,
            )
        )
    return cases
