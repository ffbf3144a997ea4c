"""Saliency evaluation: MAE, P-R curves, F-measure, S-measure, E-measure.

All metrics run in float64 on plain numpy arrays, and each is exactly
invariant under applying the same flip/rotation to both the prediction and
the ground truth. Mask-only quantities (pixel counts, the mask's mean and
variance in a block, the S-measure centroid) come from exact integer counts.
Every float reduction over pixels runs over sorted halves: a region's map
values on its foreground and on its background, each sorted once. The regions
are the whole map (MAE, the map mean behind the E-measure threshold, the
object score's means and variances) and each S-measure block (its mx, sigma_x
and sigma_xy). A flip or rotation maps each region to one holding the same
multiset of (value, label) pairs, so the sorted halves, and every sum over
them, are bit-identical.
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


def _check_pair(s: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map as float64 and the foreground of the mask, once both are checked."""
    s = np.asarray(s, dtype=np.float64)
    gt = np.asarray(gt)
    if s.shape != gt.shape:
        raise ValueError(f"prediction {s.shape} and ground truth {gt.shape} differ in shape")
    lo, hi = s.min(), s.max()
    if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
        raise ValueError(f"saliency values must lie in [0, 1] and not be NaN, got range [{lo}, {hi}]")
    fg = gt == 1.0
    if not (fg | (gt == 0.0)).all():
        raise ValueError(f"ground truth must be binary 0/1, found values {np.unique(gt)[:8]}")
    return s, fg


def _halves(s: np.ndarray, fg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A region's map values on its foreground and on its background, each sorted."""
    return np.sort(s[fg]), np.sort(s[~fg])


def _mean(fg_vals: np.ndarray, bg_vals: np.ndarray) -> float:
    return float(fg_vals.sum() + bg_vals.sum()) / (fg_vals.size + bg_vals.size)


def mae(s: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute per-pixel difference."""
    return _mae(*_halves(*_check_pair(s, gt)))


def _mae(fg_vals: np.ndarray, bg_vals: np.ndarray) -> float:
    return _mean(1.0 - fg_vals, bg_vals)


def pr_curve(s: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """256 (precision, recall) pairs for thresholds 0, 1/255, ..., 1.

    A pixel counts as predicted positive at threshold t when s >= t. An empty
    prediction has no false positives, so its precision is defined as 1.
    """
    s, fg = _check_pair(s, gt)
    n_pos = int(np.count_nonzero(fg))
    if n_pos == 0:
        raise ValueError("ground truth has no positive pixels; P-R curve is undefined")
    return _pr_curve(s, fg, n_pos)


def _pr_curve(s: np.ndarray, fg: np.ndarray, n_pos: int) -> np.ndarray:
    # highest threshold index each pixel still clears, which is floor(255 s)
    # exactly: the rounded product is monotone in s, and at every threshold
    # THRESHOLDS[k] and the float just below it fall on either side of k
    # (checked for all 256 in the tests), so no s in [0, 1] lands in a wrong bin
    k = (s.ravel() * 255.0).astype(np.intp)
    # one histogram of (threshold index, is positive): negatives in 0..255, positives in 256..511
    hist = np.bincount(k + 256 * fg.ravel(), minlength=512)
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
    x = float(values.sum()) / values.size
    if values.size > 1:
        sigma = float(np.sqrt(np.square(values - x).sum() / (values.size - 1)))
    else:
        sigma = 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _ssim_block(x_fg: np.ndarray, x_bg: np.ndarray) -> float:
    """SSIM of one block from its sorted map values on foreground and on
    background; the mask's mean and variance follow from the two counts."""
    k, n = x_fg.size, x_fg.size + x_bg.size
    if n == 0:
        return 1.0
    mx, my = _mean(x_fg, x_bg), k / n
    if n > 1:
        d_fg, d_bg = x_fg - mx, x_bg - mx
        sx = float(np.square(d_fg).sum() + np.square(d_bg).sum()) / (n - 1)
        sy = k * (n - k) / (n * (n - 1))
        sxy = float((1.0 - my) * d_fg.sum() - my * d_bg.sum()) / (n - 1)
    else:
        sx = sy = sxy = 0.0
    alpha = 4.0 * mx * my * sxy
    beta = (mx * mx + my * my) * (sx + sy)
    if alpha != 0.0:
        return alpha / (beta + _EPS)
    if beta == 0.0:
        return 1.0
    return 0.0


def _axis_splits(counts: np.ndarray, n_pos: int) -> tuple[int, ...]:
    """Where to split one axis at the foreground centroid, from the exact
    foreground count of each row (or column).

    Row i lies above the centroid when its center does: i + 0.5 < total / n_pos
    + 0.5, with total = sum of i * counts[i], that is i * n_pos < total on
    integers. A row whose center is exactly the centroid joins the side with
    fewer other rows, which a reflection maps to the mirrored side; when both
    sides are equal, both splits are returned.
    """
    total = int(np.arange(counts.size) @ counts)
    above = -(-total // n_pos)  # rows with i * n_pos < total
    if total % n_pos:
        return (above,)
    below = counts.size - above - 1  # row `above` is centered on the centroid
    if above < below:
        return (above + 1,)
    if above > below:
        return (above,)
    return (above, above + 1)


def _region_score(s: np.ndarray, fg: np.ndarray, n_pos: int) -> float:
    h, w = fg.shape
    scores = []
    for sr in _axis_splits(np.count_nonzero(fg, axis=1), n_pos):
        for sc in _axis_splits(np.count_nonzero(fg, axis=0), n_pos):
            blocks = []
            for rs, re in ((0, sr), (sr, h)):
                for cs, ce in ((0, sc), (sc, w)):
                    weight = (re - rs) * (ce - cs) / (h * w)
                    blocks.append(weight * _ssim_block(*_halves(s[rs:re, cs:ce], fg[rs:re, cs:ce])))
            # quadrants get relabeled under flips; summing sorted keeps the result exact
            scores.append(float(np.sort(blocks).sum()))
    # the same holds for the two splits of a centroid on a middle row or column
    return float(np.sort(scores).sum()) / len(scores)


def s_measure(s: np.ndarray, gt: np.ndarray, alpha: float = 0.5) -> float:
    """Structure measure: alpha * object similarity + (1 - alpha) * region similarity."""
    s, fg = _check_pair(s, gt)
    return _s_measure(s, fg, *_halves(s, fg), alpha)


def _s_measure(
    s: np.ndarray, fg: np.ndarray, fg_vals: np.ndarray, bg_vals: np.ndarray, alpha: float = 0.5
) -> float:
    n_pos = fg_vals.size
    if n_pos == 0:
        return 1.0 - _mean(fg_vals, bg_vals)
    if n_pos == fg.size:
        return _mean(fg_vals, bg_vals)
    mu = n_pos / fg.size
    s_object = mu * _object_score(fg_vals) + (1.0 - mu) * _object_score(1.0 - bg_vals)
    s_region = _region_score(s, fg, n_pos)
    return max(alpha * s_object + (1.0 - alpha) * s_region, 0.0)


# -- E-measure ------------------------------------------------------------------


def e_measure(s: np.ndarray, gt: np.ndarray, eps: float = 1e-8) -> float:
    """Enhanced-alignment measure on the adaptively binarized prediction."""
    return _e_measure(*_halves(*_check_pair(s, gt)), eps)


def _e_measure(fg_vals: np.ndarray, bg_vals: np.ndarray, eps: float = 1e-8) -> float:
    # phi depends only on a pixel's (mask, binarized map) cell, so the mean
    # over pixels is a count-weighted sum over the at most 4 cells; a binary
    # search of each sorted half counts the pixels at or above tau
    tau = min(2.0 * _mean(fg_vals, bg_vals), 1.0)
    n_pos, n = fg_vals.size, fg_vals.size + bg_vals.size
    n_both = n_pos - int(np.searchsorted(fg_vals, tau))
    n_sb = n_both + bg_vals.size - int(np.searchsorted(bg_vals, tau))
    if n_pos == 0:
        return (n - n_sb) / n
    if n_pos == n:
        return n_sb / n
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
    s, fg = _check_pair(s, gt)
    fg_vals, bg_vals = _halves(s, fg)
    row = ImageMetrics(
        id=sample_id,
        mae=_mae(fg_vals, bg_vals),
        s_m=_s_measure(s, fg, fg_vals, bg_vals),
        e_m=_e_measure(fg_vals, bg_vals),
    )
    if fg_vals.size > 0:
        row.pr = _pr_curve(s, fg, fg_vals.size)
        row.f_beta_max = _f_max(row.pr)
    return row


def evaluate_pairs(pairs) -> MetricReport:
    """Evaluate (s, gt, id) triples; all-background GT is skipped for F/PR.

    Each pair is scored as it is drawn from the iterable, so a generator of
    pairs holds one pair in memory at a time.
    """
    report = MetricReport()
    for t in pairs:
        row = evaluate_pair(*t)
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
