"""Output checks. Each returns None when the output is correct, else a
one-line reason; the workload loop counts an operation with a reason as failed."""

from __future__ import annotations

import json
import math
import re

import numpy as np

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def check_losses(losses: list[float], expected: list[float]) -> str | None:
    """Training losses are finite and bit-identical to an identical earlier
    run as far as both got (runs cut short by the deadline differ in length)."""
    if not losses:
        return "no loss was logged"
    if not all(math.isfinite(v) for v in losses):
        return f"non-finite loss in {losses}"
    n = min(len(losses), len(expected))
    if losses[:n] != expected[:n]:
        return f"losses {losses[:n]} differ from an identical earlier run {expected[:n]}"
    return None


def check_reference(
    name: str, got: list[float], want: list[float], rtol: float = 0.0, atol: float = 0.0
) -> str | None:
    """Values match a stored reference within |got - want| <= atol + rtol * |want|."""
    if len(got) != len(want):
        return f"{name}: {len(got)} values, reference has {len(want)}"
    for g, w in zip(got, want):
        if not (math.isfinite(g) and abs(g - w) <= atol + rtol * abs(w)):
            return f"{name}: {got} differs from reference {want} (rtol {rtol}, atol {atol})"
    return None


def map_summary(m: np.ndarray) -> list[float]:
    """Mean, standard deviation and an 8 x 8 grid of pixels of a map, in float64."""
    h, w = m.shape
    grid = m[h // 16 :: h // 8, w // 16 :: w // 8].astype(np.float64)
    return [float(m.mean(dtype=np.float64)), float(m.std(dtype=np.float64))] + grid.ravel().tolist()


def check_map(m: np.ndarray, shape: tuple[int, int]) -> str | None:
    """A saliency map has the input shape and finite values strictly inside (0, 1)."""
    if m.shape != shape:
        return f"map shape {m.shape}, expected {shape}"
    if not np.isfinite(m).all():
        return "map has non-finite values"
    if m.min() <= 0.0 or m.max() >= 1.0:
        return f"map range [{m.min()}, {m.max()}] is not inside (0, 1)"
    return None


def check_pgm(data: bytes, width: int, height: int) -> str | None:
    """An 8-bit binary PGM of the given size with exactly its payload."""
    head = _PGM_HEADER.match(data)
    if head is None:
        return f"not a binary PGM (starts {data[:16]!r})"
    w, h, maxval = (int(g) for g in head.groups())
    if (w, h, maxval) != (width, height, 255):
        return f"PGM is {w}x{h} maxval {maxval}, expected {width}x{height} maxval 255"
    if len(data) - head.end() != width * height:
        return f"PGM payload has {len(data) - head.end()} bytes, expected {width * height}"
    return None


def check_same_pgm(data: bytes, want: np.ndarray) -> str | None:
    """A PGM's pixels are within 1 grey level of `want` and differ from it on
    at most 1% of pixels (rounding ties may fall either way)."""
    diff = np.abs(pgm_pixels(data).astype(np.int16) - want)
    if diff.max() > 1 or np.count_nonzero(diff) > 0.01 * diff.size:
        return (
            f"PGM differs from an in-process prediction: up to {diff.max()} grey levels "
            f"on {np.count_nonzero(diff)} of {diff.size} pixels"
        )
    return None


def pgm_pixels(data: bytes) -> np.ndarray:
    head = _PGM_HEADER.match(data)
    w, h = int(head.group(1)), int(head.group(2))
    return np.frombuffer(data, dtype=np.uint8, offset=head.end()).reshape(h, w)


def check_report(text: str, expected_mae: dict[str, float], background: list[str]) -> str | None:
    """An eval report covers every image, skips exactly the all-background
    masks for F/PR, agrees with an independent per-image MAE, and has finite
    aggregates in [0, 1]."""
    try:
        doc = json.loads(text)
        agg, rows = doc["aggregate"], doc["per_image"]
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable report: {e}"
    if agg.get("count") != len(expected_mae) or len(rows) != len(expected_mae):
        return f"report counts {agg.get('count')} images, expected {len(expected_mae)}"
    if sorted(agg.get("skipped_for_f_pr", [])) != sorted(background):
        return f"report skips {agg.get('skipped_for_f_pr')} for F/PR, expected {background}"
    for key in ("mae", "f_beta_max", "e_m", "s_m"):
        v = agg.get(key)
        if not (isinstance(v, float) and 0.0 <= v <= 1.0):
            return f"aggregate {key}={v} is not a number in [0, 1]"
    for row in rows:
        want = expected_mae.get(row.get("id"))
        if want is None or not abs(row.get("mae", math.nan) - want) <= 1e-9:
            return f"image {row.get('id')}: MAE {row.get('mae')}, independent value {want}"
    return None
