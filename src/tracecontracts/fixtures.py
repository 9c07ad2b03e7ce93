"""Deterministic mask-level trace generation for tests and audits.

Everything here is pure mask construction: reference events are
rasterized onto the frame grid and prediction masks are derived by
applying a named pathology (shifted edges, dropped or inserted runs,
silence bleed, duration distortion, fragmentation, and the matcher
stress shapes).  No audio, no features, no model outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import CalibrationCase
from .frames import _as_mask
from .intervals import Interval, extract_intervals

_TIME_EPS = 1e-9

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


def make_trace(events, n: int, h: float) -> np.ndarray:
    """Rasterize events onto the grid: frame i is active iff its span
    [i*h, (i+1)*h) intersects some event."""
    if n < 0 or not (h > 0.0):
        raise ValueError("need nonnegative frame count and positive frame step")
    mask = np.zeros(n, dtype=bool)
    horizon = n * h
    for event in events:
        interval = event if isinstance(event, Interval) else Interval(*event)
        if interval.start < -_TIME_EPS or interval.end > horizon + _TIME_EPS:
            raise ValueError(f"event {interval} outside [0, {horizon})")
        first = int(np.floor(interval.start / h + _TIME_EPS))
        last = int(np.ceil(interval.end / h - _TIME_EPS))
        mask[max(0, first) : min(n, last)] = True
    return mask


def _frames_of(magnitude: float, h: float) -> int:
    frames = int(round(magnitude / h))
    if abs(frames * h - magnitude) > 1e-6 or frames <= 0:
        raise ValueError(f"magnitude {magnitude!r} is not a positive frame multiple of {h!r}")
    return frames


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    intervals = extract_intervals(mask, 1.0, 0.0)
    return [(int(round(i.start)), int(round(i.end))) for i in intervals]


def _paint(runs, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in runs:
        lo = max(0, lo)
        hi = min(n, hi)
        if lo < hi:
            mask[lo:hi] = True
    return mask


def apply_pathology(ref_mask, pathology: TracePathology, h: float) -> np.ndarray:
    """Deterministic prediction mask for ``(ref_mask, pathology)``.

    Edge shifts clip at the trace boundaries and keep at least one active
    frame per run; overlapping shifted runs merge on re-rasterization.
    """
    ref = _as_mask(ref_mask, "ref_mask")
    n = ref.shape[0]
    kind = pathology.kind
    if kind == "nominal":
        return ref.copy()
    if kind == "missing":
        return np.zeros(n, dtype=bool)
    runs = _runs(ref)
    if kind == "late_onset":
        m = _frames_of(float(pathology.magnitude), h)
        return _paint([(min(lo + m, hi - 1), hi) for lo, hi in runs], n)
    if kind == "early_onset":
        m = _frames_of(float(pathology.magnitude), h)
        return _paint([(max(0, lo - m), hi) for lo, hi in runs], n)
    if kind == "late_release":
        m = _frames_of(float(pathology.magnitude), h)
        return _paint([(lo, min(n, hi + m)) for lo, hi in runs], n)
    if kind == "early_release":
        m = _frames_of(float(pathology.magnitude), h)
        return _paint([(lo, max(lo + 1, hi - m)) for lo, hi in runs], n)
    if kind == "silence_bleed":
        m = _frames_of(float(pathology.magnitude), h)
        return _paint([(max(0, lo - m), min(n, hi + m)) for lo, hi in runs], n)
    if kind == "length_distortion":
        m = _frames_of(float(pathology.magnitude), h)
        distorted = []
        for index, (lo, hi) in enumerate(runs):
            if index % 2 == 0:
                distorted.append((lo, min(n, hi + m)))
            else:
                distorted.append((lo, max(lo + 1, hi - m)))
        return _paint(distorted, n)
    if kind == "fragmentation":
        count = int(pathology.magnitude or 2)
        if count < 2:
            raise ValueError("fragmentation needs a piece count of at least 2")
        pieces = []
        for lo, hi in runs:
            pieces.extend(_split_run(lo, hi, count))
        return _paint(pieces, n)
    if kind == "extra":
        count = int(pathology.magnitude or 1)
        return _with_extra_runs(ref, runs, count, n)
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


def _with_extra_runs(ref: np.ndarray, runs, count: int, n: int) -> np.ndarray:
    """Insert spurious runs at the centers of the widest silent gaps."""
    extra_len = 30  # frames; 0.6 s at the 0.02 s grid
    guard = 4
    gaps = []
    previous = 0
    for lo, hi in runs + [(n, n)]:
        if lo - previous > 0:
            gaps.append((previous, lo))
        previous = hi
    gaps.sort(key=lambda g: (g[0] - g[1], g[0]))  # widest first, stable
    inserted = []
    for lo, hi in gaps[:count]:
        width = hi - lo
        usable = width - 2 * guard
        size = min(extra_len, max(1, usable))
        center = (lo + hi) // 2
        start = max(lo + guard, center - size // 2)
        end = min(hi - guard, start + size)
        if start < end:
            inserted.append((start, end))
    out = ref.copy()
    for lo, hi in inserted:
        out[lo:hi] = True
    return out


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


def _left_bridge_case(stub_frames: int, penetration: float) -> np.ndarray:
    h = _STRESS_H
    stub = Interval(1.0 - stub_frames * h, 1.0 + stub_frames * h)
    long_pred = Interval(1.2, 1.8 + penetration)
    return make_trace([stub, long_pred], _STRESS_N, h)


def _right_bridge_case(stub_frames: int) -> np.ndarray:
    # Mirror shape: the long prediction hugs the second event while crossing
    # into the first one's tail, so greedy already picks the optimal side.
    h = _STRESS_H
    stub = Interval(1.0 - stub_frames * h, 1.0 + stub_frames * h)
    long_pred = Interval(1.3, 2.3)
    return make_trace([stub, long_pred], _STRESS_N, h)


def _split_case(first_piece: int) -> np.ndarray:
    # One reference event only; the prediction splits it into two uneven runs.
    h = _STRESS_H
    lo, hi = 50, 75  # frames of [1.0, 1.5)
    cut = lo + first_piece
    return make_trace([Interval(lo * h, cut * h), Interval((cut + 1) * h, hi * h)], _STRESS_N, h)


def stress_track() -> list[StressCase]:
    """The 24-case matcher stress track.

    Twelve left-bridge cases sweep the stub width and the bridge
    penetration; four cases each of nominal, right bridge, and split are
    stable under both matching policies.
    """
    h = _STRESS_H
    cases: list[StressCase] = []
    refs = _stress_refs()
    for stub in (1, 2, 3, 4):
        for penetration in (0.22, 0.24, 0.26):
            pred = _left_bridge_case(stub, penetration)
            cases.append(
                StressCase(
                    "left_bridge",
                    f"left_bridge_s{stub}_p{int(penetration * 1000)}",
                    refs,
                    pred,
                    _STRESS_EPSILON,
                    h,
                )
            )
    for index, lengths in enumerate(((0.5, 0.5), (0.4, 0.5), (0.5, 0.4), (0.3, 0.3))):
        ref = make_trace(
            [Interval(1.0, 1.0 + lengths[0]), Interval(1.8, 1.8 + lengths[1])], _STRESS_N, h
        )
        cases.append(
            StressCase("nominal", f"nominal_{index}", ref, ref.copy(), _STRESS_EPSILON, h)
        )
    for stub in (1, 2, 3, 4):
        pred = _right_bridge_case(stub)
        cases.append(
            StressCase("right_bridge", f"right_bridge_s{stub}", refs, pred, _STRESS_EPSILON, h)
        )
    single_ref = make_trace([Interval(1.0, 1.5)], _STRESS_N, h)
    # Piece widths stay asymmetric so the single best pair is unique and
    # both policies pick it.
    for first_piece in (8, 10, 14, 16):
        pred = _split_case(first_piece)
        cases.append(
            StressCase("split", f"split_{first_piece}", single_ref, pred, _STRESS_EPSILON, h)
        )
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
