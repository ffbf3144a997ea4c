"""Saliency evaluation: MAE, P-R curves, F-measure, S-measure, E-measure.

Every metric of a pair comes from integer histograms: pixel counts per (map
level, mask bit), over the whole map and over each S-measure block. A map's
levels are its distinct values in ascending order. A uint8 map is PGM bytes,
as `rrnet eval` reads them with `read_pgm_bytes`: byte k is level
float32(k) / 255, so its bytes index the level table directly, with no sort,
and a bool mask is the foreground as it stands. This is the fast path. Every
other map, a float one from `read_pgm` included, goes through `np.unique`.
Both paths then keep only the levels some pixel has, so a float map of byte
values and its bytes build the same table and the same counts.

Every float sum runs over the level table in ascending order, weighted by
integer counts. A flip or rotation applied to both the prediction and the
ground truth leaves each region's counts as they were (the S-measure blocks
are only relabeled), so every metric is bit-identical under all eight.
A region's mean is taken relative to its lowest level that occurs, so a
region with a single level has a mean equal to that level and a variance of
exactly zero.
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
# the values read_pgm gives, byte k as float32(k) / 255, widened to float64
LEVELS8 = (np.arange(256, dtype=np.float32) / np.float32(255)).astype(np.float64)

_EPS = float(np.spacing(1.0))  # matches the eps the reference formulas use
BETA_SQ = 0.3  # F-measure's beta^2, weighing precision over recall
S_ALPHA = 0.5  # S-measure's weight of the object score against the region score
E_EPS = 1e-8  # E-measure's alignment-matrix epsilon


def _levels(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate levels of a map in ascending order, and each pixel's index
    into them: LEVELS8 and the bytes for a uint8 map (PGM bytes), else the
    distinct values. Raises ValueError outside [0, 1] or on NaN."""
    if s.dtype == np.uint8 and s.size:
        return LEVELS8, s
    return _distinct_levels(s)


def _distinct_levels(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of any map, ascending, and each pixel's index into them."""
    s = np.asarray(s, dtype=np.float64)
    lo, hi = s.min(), s.max()
    if not (lo >= 0.0 and hi <= 1.0):  # a NaN fails both comparisons
        raise ValueError(f"saliency values must lie in [0, 1] and not be NaN, got range [{lo}, {hi}]")
    levels, codes = np.unique(s, return_inverse=True)
    return levels, codes.reshape(s.shape)


def _check_pair(s: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A checked pair as its candidate levels, a key per pixel (level index,
    plus the number of levels on foreground) and the foreground. A bool mask
    is the foreground as it stands; any other must hold only 0 and 1."""
    s, gt = np.asarray(s), np.asarray(gt)
    if s.shape != gt.shape:
        raise ValueError(f"prediction {s.shape} and ground truth {gt.shape} differ in shape")
    levels, codes = _levels(s)
    if gt.dtype == np.bool_:
        fg = gt
    else:
        fg = gt == 1.0
        if not (fg | (gt == 0.0)).all():
            raise ValueError(f"ground truth must be binary 0/1, found values {np.unique(gt)[:8]}")
    # with the block bits _histograms adds, an 8-bit key is below 8 * 256: 2 bytes hold it
    key = fg.astype(np.uint16 if levels is LEVELS8 else np.intp)
    key *= levels.size
    key += codes
    return levels, key, fg


def _histograms(
    levels: np.ndarray, key: np.ndarray, splits: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """The levels that occur; the whole map's pixel counts per (mask bit,
    level), shape 2 x L; and for each (row, column) split, the counts of its
    four blocks (top left, top right, bottom left, bottom right), 4 x 2 x L.

    The block of a pixel goes into two more bits of its key, so one
    bincount gives a split's four blocks and, summed, the whole map. The
    last split's bits are added to `key` in place.
    """
    n = levels.size
    blocks = []
    for i, (sr, sc) in enumerate(splits):
        k = key if i == len(splits) - 1 else key.copy()
        k[sr:] += 4 * n
        k[:, sc:] += 2 * n
        blocks.append(np.bincount(k.ravel(), minlength=8 * n).reshape(4, 2, n))
    whole = blocks[0].sum(axis=0) if blocks else np.bincount(key.ravel(), minlength=2 * n).reshape(2, n)
    present = whole.any(axis=0)
    return levels[present], whole[:, present], [b[:, :, present] for b in blocks]


def _map_mean(v: np.ndarray, c: np.ndarray) -> float:
    return float(((c[0] + c[1]) * v).sum()) / int(c.sum())


# bench/tracer.py wraps mae, pr_curve, f_measure, s_measure and e_measure by name
def mae(s: np.ndarray, gt: np.ndarray) -> float:
    """Mean absolute per-pixel difference."""
    return evaluate_pair(s, gt).mae


def _mae(v: np.ndarray, c: np.ndarray) -> float:
    return float((c[1] * (1.0 - v)).sum() + (c[0] * v).sum()) / int(c.sum())


def pr_curve(s: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """256 (precision, recall) pairs for thresholds 0, 1/255, ..., 1.

    A pixel counts as predicted positive at threshold t when s >= t. An empty
    prediction has no false positives, so its precision is defined as 1.
    """
    curve = evaluate_pair(s, gt).pr
    if curve is None:
        raise ValueError("ground truth has no positive pixels; P-R curve is undefined")
    return curve


def _pr_curve(v: np.ndarray, c: np.ndarray, n_pos: int) -> np.ndarray:
    # highest threshold index each level still clears, which is floor(255 v)
    # exactly: the rounded product is monotone in v, and at every threshold
    # THRESHOLDS[k] and the float just below it fall on either side of k
    # (checked for all 256 in the tests), so no v in [0, 1] lands in a wrong bin
    k = (v * 255.0).astype(np.intp)
    hist_pos = np.bincount(k, weights=c[1], minlength=256).astype(np.int64)
    hist_all = np.bincount(k, weights=c[0], minlength=256).astype(np.int64) + hist_pos
    pred_at = np.cumsum(hist_all[::-1])[::-1]  # pixels predicted positive per threshold
    tp_at = np.cumsum(hist_pos[::-1])[::-1]
    curve = np.empty((256, 2), dtype=np.float64)
    with np.errstate(invalid="ignore"):
        curve[:, 0] = np.where(pred_at > 0, tp_at / np.maximum(pred_at, 1), 1.0)
    curve[:, 1] = tp_at / n_pos
    return curve


def f_measure(s: np.ndarray, gt: np.ndarray) -> float:
    """Max over the 256 thresholds of (1 + b2) P R / (b2 P + R), b2 = BETA_SQ; 0 when P = R = 0."""
    return _f_max(pr_curve(s, gt))


def _f_max(curve: np.ndarray) -> float:
    p, r = curve[:, 0], curve[:, 1]
    denom = BETA_SQ * p + r
    f = np.where(denom > 0, (1.0 + BETA_SQ) * p * r / np.where(denom > 0, denom, 1.0), 0.0)
    return float(f.max())


# -- S-measure ------------------------------------------------------------------


def _object_score(values: np.ndarray, counts: np.ndarray) -> float:
    """2x / (x^2 + 1 + sigma + eps) over a region's values, given as a level table and its counts."""
    n = int(counts.sum())
    if n == 0:
        return 0.0
    lo = values[counts > 0].min()
    x = float(lo + (counts * (values - lo)).sum() / n)
    sigma = float(np.sqrt((counts * np.square(values - x)).sum() / (n - 1))) if n > 1 else 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + _EPS)


def _weighted_ssim(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Each block's SSIM times its share of the pixels, from its counts per
    (mask bit, level), B x 2 x L; the mask's mean and variance follow from
    the two totals."""
    c_all = c[:, 0] + c[:, 1]
    n, k = c_all.sum(axis=1), c[:, 1].sum(axis=1)
    n1, dof = np.maximum(n, 1), np.maximum(n - 1, 1)  # an empty or one-pixel block has no spread
    lo = v[np.argmax(c_all > 0, axis=1)]  # each block's lowest level
    mx, my = lo + (c_all * (v - lo[:, None])).sum(axis=1) / n1, k / n1
    d = v - mx[:, None]
    sx = (c_all * np.square(d)).sum(axis=1) / dof
    sy = k * (n - k) / (n1 * dof)
    sxy = ((1.0 - my) * (c[:, 1] * d).sum(axis=1) - my * (c[:, 0] * d).sum(axis=1)) / dof
    alpha = 4.0 * mx * my * sxy
    beta = (mx * mx + my * my) * (sx + sy)
    return n / n.sum() * np.where(alpha != 0.0, alpha / (beta + _EPS), beta == 0.0)


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


def _splits(fg: np.ndarray) -> list[tuple[int, int]]:
    """The S-measure's (row, column) splits; none when the mask is all one class."""
    n_pos = int(np.count_nonzero(fg))
    if n_pos in (0, fg.size):
        return []
    rows = _axis_splits(fg.sum(axis=1, dtype=np.int32), n_pos)
    cols = _axis_splits(fg.sum(axis=0, dtype=np.int32), n_pos)
    return [(sr, sc) for sr in rows for sc in cols]


def _sorted_sum(values) -> float:
    """The sum of a few floats in ascending order, added one at a time (the
    order numpy sums fewer than 8 values in). A flip relabels the terms, and
    the sorted sum does not see labels."""
    total = 0.0
    for x in sorted(values):
        total += x
    return total


def _region_score(v: np.ndarray, blocks: list[np.ndarray]) -> float:
    # quadrants get relabeled under flips, and so do the two splits of a
    # centroid on a middle row or column
    scores = [_sorted_sum(_weighted_ssim(v, c).tolist()) for c in blocks]
    return _sorted_sum(scores) / len(scores)


def s_measure(s: np.ndarray, gt: np.ndarray) -> float:
    """Structure measure: a * object similarity + (1 - a) * region similarity, a = S_ALPHA."""
    return evaluate_pair(s, gt).s_m


def _s_measure(v: np.ndarray, c: np.ndarray, blocks: list[np.ndarray]) -> float:
    n_pos, n = int(c[1].sum()), int(c.sum())
    if n_pos == 0:
        return 1.0 - _map_mean(v, c)
    if n_pos == n:
        return _map_mean(v, c)
    mu = n_pos / n
    s_object = mu * _object_score(v, c[1]) + (1.0 - mu) * _object_score(1.0 - v, c[0])
    s_region = _region_score(v, blocks)
    return max(S_ALPHA * s_object + (1.0 - S_ALPHA) * s_region, 0.0)


# -- E-measure ------------------------------------------------------------------


def e_measure(s: np.ndarray, gt: np.ndarray) -> float:
    """Enhanced-alignment measure on the adaptively binarized prediction."""
    return evaluate_pair(s, gt).e_m


def _e_measure(v: np.ndarray, c: np.ndarray) -> float:
    # phi depends only on a pixel's (mask, binarized map) cell, so the mean
    # over pixels is a count-weighted sum over the at most 4 cells
    above = v >= min(2.0 * _map_mean(v, c), 1.0)
    n_pos, n = int(c[1].sum()), int(c.sum())
    n_both = int(c[1, above].sum())
    n_sb = n_both + int(c[0, above].sum())
    if n_pos == 0:
        return (n - n_sb) / n
    if n_pos == n:
        return n_sb / n
    # cells (gt, sb) = (0, 0), (0, 1), (1, 0), (1, 1), as (count, gt - its mean, sb - its mean)
    gt_mean, sb_mean = n_pos / n, n_sb / n
    cells = [
        (n - n_pos - n_sb + n_both, 0.0 - gt_mean, 0.0 - sb_mean),
        (n_sb - n_both, 0.0 - gt_mean, 1.0 - sb_mean),
        (n_pos - n_both, 1.0 - gt_mean, 0.0 - sb_mean),
        (n_both, 1.0 - gt_mean, 1.0 - sb_mean),
    ]
    terms = []
    for count, d_gt, d_sb in cells:
        xi = 2.0 * d_gt * d_sb / (d_gt * d_gt + d_sb * d_sb + E_EPS)
        terms.append(count * ((xi + 1.0) * (xi + 1.0) / 4.0))
    return _sorted_sum(terms) / n


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

    @property
    def skipped_fpr(self) -> list[str]:
        """The ids of the images left out of F and P-R: no foreground."""
        return [m.id for m in self.per_image if m.f_beta_max is None]

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
    def f_beta_max(self) -> float | None:
        """Mean F-max over the images with foreground; None when there are none."""
        vals = [m.f_beta_max for m in self.per_image if m.f_beta_max is not None]
        return float(np.mean(vals)) if vals else None

    @property
    def pr(self) -> np.ndarray:
        curves = [m.pr for m in self.per_image if m.pr is not None]
        if not curves:
            return np.full((256, 2), np.nan)
        return np.mean(np.stack(curves), axis=0)


def evaluate_pair(s: np.ndarray, gt: np.ndarray, sample_id: str = "") -> ImageMetrics:
    """Every metric of one pair, from a single check of its inputs and one
    histogram per S-measure split. A uint8 map is read as PGM bytes (level
    byte / 255) and a bool mask as the foreground, as `rrnet eval` passes
    them; a float map must lie in [0, 1] and any other mask hold only 0 and 1."""
    levels, key, fg = _check_pair(s, gt)
    v, c, blocks = _histograms(levels, key, _splits(fg))
    row = ImageMetrics(
        id=sample_id,
        mae=_mae(v, c),
        s_m=_s_measure(v, c, blocks),
        e_m=_e_measure(v, c),
    )
    n_pos = int(c[1].sum())
    if n_pos > 0:
        row.pr = _pr_curve(v, c, n_pos)
        row.f_beta_max = _f_max(row.pr)
    return row


def evaluate_pairs(pairs) -> MetricReport:
    """Evaluate (s, gt, id) triples; all-background GT is skipped for F/PR.

    Each pair is scored as it is drawn from the iterable, so a generator of
    pairs holds one pair in memory at a time.
    """
    return MetricReport(per_image=[evaluate_pair(*t) for t in pairs])


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
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_THRESHOLD_TEXT = [f"{t:.9f}" for t in THRESHOLDS]


def pr_curve_csv(curve: np.ndarray) -> str:
    lines = [f"{t},{p:.9f},{r:.9f}" for t, (p, r) in zip(_THRESHOLD_TEXT, curve.tolist())]
    return "threshold,precision,recall\n" + "\n".join(lines) + "\n"
