"""Saliency evaluation: MAE, P-R curves, F-measure, S-measure, E-measure.

All metrics run in float64 on plain numpy arrays. Reductions over pixels are
computed in a canonical order (counts where possible, sorted sums otherwise),
so every metric is exactly invariant under applying the same flip/rotation to
both the prediction and the ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "THRESHOLDS",
    "mae",
    "pr_curve",
    "f_measure",
    "s_measure",
    "e_measure",
    "MetricReport",
    "evaluate_pairs",
    "report_to_json",
    "pr_curve_csv",
]

THRESHOLDS = np.arange(256, dtype=np.float64) / 255.0

_EPS = float(np.spacing(1.0))  # matches the eps the reference formulas use


def _csum(values: np.ndarray) -> float:
    """Sum in sorted order: independent of element layout."""
    return float(np.sort(values.ravel()).sum())


def _cmean(values: np.ndarray) -> float:
    return _csum(values) / values.size


def _check_pair(s: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(s, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if s.shape != gt.shape:
        raise ValueError(f"prediction {s.shape} and ground truth {gt.shape} differ in shape")
    lo, hi = s.min(), s.max()
    if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
        raise ValueError(f"saliency values must lie in [0, 1] and not be NaN, got range [{lo}, {hi}]")
    if ((gt != 0.0) & (gt != 1.0)).any():
        raise ValueError(f"ground truth must be binary 0/1, found values {np.unique(gt)[:8]}")
    return s, gt


def mae(s: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute per-pixel difference."""
    return _mae(*_check_pair(s, gt))


def _mae(s: np.ndarray, gt: np.ndarray) -> float:
    return _cmean(np.abs(s - gt))


def pr_curve(s: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """256 (precision, recall) pairs for thresholds 0, 1/255, ..., 1.

    A pixel counts as predicted positive at threshold t when s >= t. An empty
    prediction has no false positives, so its precision is defined as 1.
    """
    s, gt = _check_pair(s, gt)
    n_pos = int(np.count_nonzero(gt))
    if n_pos == 0:
        raise ValueError("ground truth has no positive pixels; P-R curve is undefined")
    return _pr_curve(s, gt, n_pos)


def _pr_curve(s: np.ndarray, gt: np.ndarray, n_pos: int) -> np.ndarray:
    # highest threshold index each pixel still clears, which is floor(255 s)
    # exactly: the rounded product is monotone in s, and at every threshold
    # THRESHOLDS[k] and the float just below it fall on either side of k
    # (checked for all 256 in the tests), so no s in [0, 1] lands in a wrong bin
    k = (s.ravel() * 255.0).astype(np.intp)
    # one histogram of (threshold index, is positive): negatives in 0..255, positives in 256..511
    hist = np.bincount(k + 256 * (gt.ravel() == 1.0), minlength=512)
    hist_pos = hist[256:]
    hist_all = hist[:256] + hist_pos
    pred_at = np.cumsum(hist_all[::-1])[::-1]  # pixels predicted positive per threshold
    tp_at = np.cumsum(hist_pos[::-1])[::-1]
    curve = np.empty((256, 2), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        curve[:, 0] = np.where(pred_at > 0, tp_at / np.maximum(pred_at, 1), 1.0)
    curve[:, 1] = tp_at / n_pos
    return curve


def f_measure(s: np.ndarray, gt: np.ndarray, beta_sq: float = 0.3) -> float:
    """Max over the 256 thresholds of (1 + b2) P R / (b2 P + R); 0 when P = R = 0."""
    return _f_max(pr_curve(s, gt), beta_sq)


def _f_max(curve: np.ndarray, beta_sq: float = 0.3) -> float:
    p, r = curve[:, 0], curve[:, 1]
    denom = beta_sq * p + r
    f = np.where(denom > 0, (1.0 + beta_sq) * p * r / np.where(denom > 0, denom, 1.0), 0.0)
    return float(f.max())


# -- S-measure ------------------------------------------------------------------


def _object_score(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    x = _cmean(values)
    if values.size > 1:
        var = _csum(np.square(values - x)) / (values.size - 1)
        sigma = float(np.sqrt(max(var, 0.0)))
    else:
        sigma = 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _ssim_block(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    if n == 0:
        return 1.0
    mx, my = _cmean(x), _cmean(y)
    if n > 1:
        sx = _csum(np.square(x - mx)) / (n - 1)
        sy = _csum(np.square(y - my)) / (n - 1)
        sxy = _csum((x - mx) * (y - my)) / (n - 1)
    else:
        sx = sy = sxy = 0.0
    alpha = 4.0 * mx * my * sxy
    beta = (mx * mx + my * my) * (sx + sy)
    if alpha != 0.0:
        return alpha / (beta + _EPS)
    if beta == 0.0:
        return 1.0
    return 0.0


def _centroid_splits(gt: np.ndarray) -> tuple[int, int]:
    """Row/column split indices from the exact foreground center of mass.

    A pixel row i belongs to the top block when its center lies strictly
    above the centroid (compared exactly on integers).
    """
    row_counts = np.count_nonzero(gt, axis=1)
    n = int(row_counts.sum())
    if n == 0:
        return gt.shape[0] // 2, gt.shape[1] // 2
    sum_r = int(np.arange(gt.shape[0]) @ row_counts)
    sum_c = int(np.arange(gt.shape[1]) @ np.count_nonzero(gt, axis=0))
    # count of rows i with (i + 0.5) < (sum_r / n + 0.5)  <=>  i * n < sum_r
    split_r = int(np.searchsorted(np.arange(gt.shape[0]) * n, sum_r, side="left"))
    split_c = int(np.searchsorted(np.arange(gt.shape[1]) * n, sum_c, side="left"))
    return max(split_r, 1), max(split_c, 1)


def _region_score(s: np.ndarray, gt: np.ndarray) -> float:
    h, w = gt.shape
    sr, sc = _centroid_splits(gt)
    total = h * w
    blocks = []
    for rs, re in ((0, sr), (sr, h)):
        for cs, ce in ((0, sc), (sc, w)):
            weight = (re - rs) * (ce - cs) / total
            q = _ssim_block(s[rs:re, cs:ce], gt[rs:re, cs:ce])
            blocks.append(weight * q)
    # quadrants get relabeled under flips; summing sorted keeps the result exact
    return float(np.sort(np.asarray(blocks)).sum())


def s_measure(s: np.ndarray, gt: np.ndarray, alpha: float = 0.5) -> float:
    """Structure measure: alpha * object similarity + (1 - alpha) * region similarity."""
    s, gt = _check_pair(s, gt)
    return _s_measure(s, gt, int(np.count_nonzero(gt)), alpha)


def _s_measure(s: np.ndarray, gt: np.ndarray, n_pos: int, alpha: float = 0.5) -> float:
    if n_pos == 0:
        return 1.0 - _cmean(s)
    if n_pos == gt.size:
        return _cmean(s)
    mu = n_pos / gt.size
    fg = gt == 1.0
    s_object = mu * _object_score(s[fg]) + (1.0 - mu) * _object_score(1.0 - s[~fg])
    s_region = _region_score(s, gt)
    return max(alpha * s_object + (1.0 - alpha) * s_region, 0.0)


# -- E-measure ------------------------------------------------------------------


def e_measure(s: np.ndarray, gt: np.ndarray, eps: float = 1e-8) -> float:
    """Enhanced-alignment measure on the adaptively binarized prediction."""
    s, gt = _check_pair(s, gt)
    return _e_measure(s, gt, int(np.count_nonzero(gt)), eps)


def _e_measure(s: np.ndarray, gt: np.ndarray, n_pos: int, eps: float = 1e-8) -> float:
    # phi depends only on a pixel's (mask, binarized map) cell, so the mean
    # over pixels is a count-weighted sum over the at most 4 cells
    tau = min(2.0 * _cmean(s), 1.0)
    sb = s >= tau
    n = gt.size
    n_sb = int(np.count_nonzero(sb))
    if n_pos == 0:
        return (n - n_sb) / n
    if n_pos == n:
        return n_sb / n
    n_both = int(np.count_nonzero(sb & (gt == 1.0)))
    # cells (gt, sb) = (0, 0), (0, 1), (1, 0), (1, 1)
    counts = np.array([n - n_pos - n_sb + n_both, n_sb - n_both, n_pos - n_both, n_both])
    d_gt = np.array([0.0, 0.0, 1.0, 1.0]) - n_pos / n
    d_sb = np.array([0.0, 1.0, 0.0, 1.0]) - n_sb / n
    xi = 2.0 * d_gt * d_sb / (np.square(d_gt) + np.square(d_sb) + eps)
    phi = np.square(xi + 1.0) / 4.0
    return float(np.sort(counts * phi).sum()) / n


# -- aggregation ----------------------------------------------------------------


@dataclass
class ImageMetrics:
    id: str
    mae: float
    s_m: float
    e_m: float
    f_beta_max: float | None = None  # None when GT has no foreground
    pr: np.ndarray | None = None


@dataclass
class MetricReport:
    per_image: list[ImageMetrics] = field(default_factory=list)
    skipped_fpr: list[str] = field(default_factory=list)

    @property
    def mae(self) -> float:
        return float(np.mean([m.mae for m in self.per_image]))

    @property
    def s_m(self) -> float:
        return float(np.mean([m.s_m for m in self.per_image]))

    @property
    def e_m(self) -> float:
        return float(np.mean([m.e_m for m in self.per_image]))

    @property
    def f_beta_max(self) -> float:
        vals = [m.f_beta_max for m in self.per_image if m.f_beta_max is not None]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def pr(self) -> np.ndarray:
        curves = [m.pr for m in self.per_image if m.pr is not None]
        if not curves:
            return np.full((256, 2), np.nan)
        return np.mean(np.stack(curves), axis=0)


def evaluate_pair(s: np.ndarray, gt: np.ndarray, sample_id: str = "") -> ImageMetrics:
    """Every metric of one pair, from a single check of its inputs."""
    s, gt = _check_pair(s, gt)
    n_pos = int(np.count_nonzero(gt))
    row = ImageMetrics(
        id=sample_id,
        mae=_mae(s, gt),
        s_m=_s_measure(s, gt, n_pos),
        e_m=_e_measure(s, gt, n_pos),
    )
    if n_pos > 0:
        row.pr = _pr_curve(s, gt, n_pos)
        row.f_beta_max = _f_max(row.pr)
    return row


def evaluate_pairs(pairs, threads: int = 1) -> MetricReport:
    """Evaluate (s, gt, id) triples; all-background GT is skipped for F/PR."""
    pairs = list(pairs)
    report = MetricReport()
    if threads > 1 and len(pairs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: evaluate_pair(*t), pairs))
    else:
        rows = [evaluate_pair(*t) for t in pairs]
    for row in rows:
        report.per_image.append(row)
        if row.f_beta_max is None:
            report.skipped_fpr.append(row.id)
    return report


def report_to_json(report: MetricReport) -> str:
    doc = {
        "aggregate": {
            "count": len(report.per_image),
            "mae": report.mae,
            "f_beta_max": report.f_beta_max,
            "e_m": report.e_m,
            "s_m": report.s_m,
            "skipped_for_f_pr": report.skipped_fpr,
        },
        "per_image": [
            {
                "id": m.id,
                "mae": m.mae,
                "f_beta_max": m.f_beta_max,
                "e_m": m.e_m,
                "s_m": m.s_m,
            }
            for m in report.per_image
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def pr_curve_csv(curve: np.ndarray) -> str:
    lines = ["threshold,precision,recall"]
    for k in range(256):
        lines.append(f"{THRESHOLDS[k]:.9f},{curve[k, 0]:.9f},{curve[k, 1]:.9f}")
    return "\n".join(lines) + "\n"
