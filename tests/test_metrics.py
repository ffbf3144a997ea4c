"""Metric oracles: confusion-matrix brute force, scalar formula re-implementations,
boundedness and exact dihedral invariance."""

import math

import numpy as np
import pytest

from rrnet.metrics import (
    THRESHOLDS,
    e_measure,
    evaluate_pair,
    evaluate_pairs,
    f_measure,
    mae,
    pr_curve,
    s_measure,
)

EPS = float(np.spacing(1.0))


def random_pair(rng, h=8, w=8, p=0.35):
    s = rng.uniform(size=(h, w))
    gt = (rng.uniform(size=(h, w)) < p).astype(np.float64)
    if gt.sum() == 0:
        gt[rng.integers(h), rng.integers(w)] = 1.0
    if gt.sum() == gt.size:
        gt[rng.integers(h), rng.integers(w)] = 0.0
    return s, gt


# -- scalar-loop oracles (kept deliberately naive) --------------------------------


def oracle_pr_point(s, gt, t):
    tp = fp = fn = 0
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            pred = s[i, j] >= t
            pos = gt[i, j] == 1.0
            if pred and pos:
                tp += 1
            elif pred and not pos:
                fp += 1
            elif not pred and pos:
                fn += 1
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn)
    return precision, recall


def searchsorted_pr_curve(s, gt):
    """P-R curve from a binary search of every pixel in THRESHOLDS."""
    k_max = np.searchsorted(THRESHOLDS, s.ravel(), side="right") - 1
    pred_at = np.cumsum(np.bincount(k_max, minlength=256)[::-1])[::-1]
    tp_at = np.cumsum(np.bincount(k_max[gt.ravel() == 1.0], minlength=256)[::-1])[::-1]
    precision = np.where(pred_at > 0, tp_at / np.maximum(pred_at, 1), 1.0)
    return np.stack([precision, tp_at / gt.sum()], axis=1)


def oracle_splits(gt):
    """Row splits at the foreground centroid: rows whose center lies above it
    form the top block; a row centered exactly on it joins the side with fewer
    other rows, and both splits count when the sides are equal."""
    rows, _ = np.nonzero(gt)
    cnt, total = rows.size, int(rows.sum())
    above = sum(1 for i in range(gt.shape[0]) if i * cnt < total)
    if not any(i * cnt == total for i in range(gt.shape[0])):
        return [above]
    below = gt.shape[0] - above - 1
    if above < below:
        return [above + 1]
    if above > below:
        return [above]
    return [above, above + 1]


def oracle_s_measure(pred, gt, alpha=0.5):
    h, w = gt.shape
    n = h * w
    y = gt.sum() / n
    if y == 0:
        return 1.0 - pred.mean()
    if y == 1:
        return float(pred.mean())

    def obj(vals):
        x = float(np.mean(vals))
        sigma = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
        return 2.0 * x / (x * x + 1.0 + sigma + EPS)

    s_o = y * obj(pred[gt == 1]) + (1 - y) * obj(1.0 - pred[gt == 0])

    def ssim(x, y_):
        m = x.size
        if m == 0:  # a zero-weight block, from a split at the image edge
            return 1.0
        mx, my = float(np.mean(x)), float(np.mean(y_))
        if m > 1:
            sx = float(np.sum((x - mx) ** 2) / (m - 1))
            sy = float(np.sum((y_ - my) ** 2) / (m - 1))
            sxy = float(np.sum((x - mx) * (y_ - my)) / (m - 1))
        else:
            sx = sy = sxy = 0.0
        a = 4 * mx * my * sxy
        b = (mx**2 + my**2) * (sx + sy)
        if a != 0:
            return a / (b + EPS)
        return 1.0 if b == 0 else 0.0

    s_r = 0.0
    row_splits, col_splits = oracle_splits(gt), oracle_splits(gt.T)
    for sr in row_splits:
        for sc in col_splits:
            for rs, re in ((0, sr), (sr, h)):
                for cs, ce in ((0, sc), (sc, w)):
                    weight = (re - rs) * (ce - cs) / n
                    s_r += weight * ssim(pred[rs:re, cs:ce], gt[rs:re, cs:ce])
    s_r /= len(row_splits) * len(col_splits)
    return max(alpha * s_o + (1 - alpha) * s_r, 0.0)


def oracle_e_measure(pred, gt, eps=1e-8):
    tau = min(2.0 * pred.mean(), 1.0)
    sb = (pred >= tau).astype(np.float64)
    n = gt.size
    if gt.sum() == 0:
        return float((1.0 - sb).mean())
    if gt.sum() == n:
        return float(sb.mean())
    dg = gt - gt.mean()
    ds = sb - sb.mean()
    total = 0.0
    for i in range(gt.shape[0]):
        for j in range(gt.shape[1]):
            xi = 2 * dg[i, j] * ds[i, j] / (dg[i, j] ** 2 + ds[i, j] ** 2 + eps)
            total += (xi + 1.0) ** 2 / 4.0
    return total / n


# -- sorted-sum kernels, each reduction sorted on its own: the sorted-halves oracle --


def csum(values):
    return float(np.sort(values.ravel()).sum())


def cmean(values):
    return csum(values) / values.size


def sorted_sum_object_score(values):
    if values.size == 0:
        return 0.0
    x = cmean(values)
    sigma = float(np.sqrt(csum(np.square(values - x)) / (values.size - 1))) if values.size > 1 else 0.0
    return 2.0 * x / (x * x + 1.0 + sigma + EPS)


def sorted_sum_ssim(x, y):
    n = x.size
    if n == 0:
        return 1.0
    mx, my = cmean(x), cmean(y)
    if n > 1:
        sx = csum(np.square(x - mx)) / (n - 1)
        sy = csum(np.square(y - my)) / (n - 1)
        sxy = csum((x - mx) * (y - my)) / (n - 1)
    else:
        sx = sy = sxy = 0.0
    alpha = 4.0 * mx * my * sxy
    beta = (mx * mx + my * my) * (sx + sy)
    if alpha != 0.0:
        return alpha / (beta + EPS)
    return 1.0 if beta == 0.0 else 0.0


def sorted_sum_metrics(s, gt):
    """(mae, s_m, e_m, f_beta_max) with every pixel reduction a sum in sorted order."""
    s = np.asarray(s, dtype=np.float64)
    h, w = gt.shape
    n, n_pos = gt.size, int(gt.sum())
    mae_ = cmean(np.abs(s - gt))
    if n_pos == 0:
        s_m = 1.0 - cmean(s)
    elif n_pos == n:
        s_m = cmean(s)
    else:
        mu = n_pos / n
        s_o = mu * sorted_sum_object_score(s[gt == 1]) + (1 - mu) * sorted_sum_object_score(1.0 - s[gt == 0])
        scores = []
        for sr in oracle_splits(gt):
            for sc in oracle_splits(gt.T):
                blocks = []
                for rs, re in ((0, sr), (sr, h)):
                    for cs, ce in ((0, sc), (sc, w)):
                        weight = (re - rs) * (ce - cs) / n
                        blocks.append(weight * sorted_sum_ssim(s[rs:re, cs:ce], gt[rs:re, cs:ce]))
                scores.append(csum(np.array(blocks)))
        s_r = csum(np.array(scores)) / len(scores)
        s_m = max(0.5 * s_o + 0.5 * s_r, 0.0)
    tau = min(2.0 * cmean(s), 1.0)
    sb = (s >= tau).astype(np.float64)
    if n_pos == 0:
        e_m = cmean(1.0 - sb)
    elif n_pos == n:
        e_m = cmean(sb)
    else:
        dg, ds = gt - n_pos / n, sb - sb.sum() / n
        e_m = cmean(np.square(2.0 * dg * ds / (dg**2 + ds**2 + 1e-8) + 1.0) / 4.0)
    f = None
    if n_pos:
        p, r = searchsorted_pr_curve(s, gt).T
        f = float(np.max(np.where(0.3 * p + r > 0, 1.3 * p * r / np.maximum(0.3 * p + r, 1e-300), 0.0)))
    return mae_, s_m, e_m, f


def assorted_pairs(rng, count):
    """Soft, 8-bit, float32 and constant maps on random, all-background and
    all-foreground masks of 1 to 24 pixels a side."""
    for i in range(count):
        h, w = (int(v) for v in rng.integers(1, 25, size=2))
        gt = (rng.uniform(size=(h, w)) < rng.uniform(0.05, 0.95)).astype(np.float64)
        kind = i % 6
        if kind == 1:  # as read_pgm gives it
            s = (rng.integers(0, 256, size=(h, w)).astype(np.float32) / np.float32(255)).astype(np.float64)
        elif kind == 2:
            s = rng.uniform(size=(h, w)).astype(np.float32)
        elif kind == 3:
            s = np.full((h, w), float(rng.choice([0.0, 0.3, 0.5, 200 / 255, 1.0])))
        else:
            s = rng.uniform(size=(h, w))
        if i % 9 == 4:
            gt[:] = 0.0
        elif i % 9 == 7:
            gt[:] = 1.0
        yield s, gt


def integer_centroid_masks():
    """Masks whose foreground centroid lies exactly on a pixel row or column."""
    a = np.zeros((16, 16))
    a[2, 3] = a[4, 9] = a[2, 9] = a[4, 3] = 1.0  # centroid (3, 6): nearer the top and left
    b = np.zeros((15, 15))
    b[5, 7] = b[9, 7] = b[7, 5] = b[7, 9] = b[6, 6] = b[8, 8] = 1.0  # (7, 7): the middle of both axes
    c = np.zeros((15, 16))
    c[6, 2] = c[8, 2] = c[7, 11] = 1.0  # row 7, the middle of an odd axis
    d = np.zeros((16, 16))
    d[0, 3] = d[0, 8] = 1.0  # row 0, with no rows above
    e = np.zeros((1, 9))
    e[0, 2] = e[0, 6] = 1.0  # a single row, and column 4 in the middle
    return [a, b, c, d, e]


def dihedral_variants(arr):
    yield arr
    for k in (1, 2, 3):
        yield np.rot90(arr, k)
    f = np.fliplr(arr)
    yield f
    for k in (1, 2, 3):
        yield np.rot90(f, k)


class TestMae:
    def test_identity_and_inversion(self, rng):
        _, gt = random_pair(rng)
        assert mae(gt, gt) == 0.0
        assert mae(1.0 - gt, gt) == 1.0

    def test_matches_scalar_loop(self, rng):
        s, gt = random_pair(rng)
        acc = 0.0
        for i in range(8):
            for j in range(8):
                acc += abs(s[i, j] - gt[i, j])
        assert mae(s, gt) == pytest.approx(acc / 64, abs=1e-12)

    def test_triangle_inequality(self, rng):
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        c = (rng.uniform(size=(8, 8)) < 0.5).astype(np.float64)
        lhs = np.sort(np.abs(a - c).ravel()).sum()
        rhs = np.sort(np.abs(a - b).ravel()).sum() + np.sort(np.abs(b - c).ravel()).sum()
        assert lhs <= rhs + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mae(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPrCurve:
    def test_perfect_predictor(self, rng):
        _, gt = random_pair(rng)
        curve = pr_curve(gt, gt)
        inner = curve[1:]  # thresholds in (0, 1]
        assert np.array_equal(inner, np.ones_like(inner))

    def test_threshold_zero_degenerate(self, rng):
        s, gt = random_pair(rng)
        curve = pr_curve(s, gt)
        assert curve[0, 1] == 1.0
        assert curve[0, 0] == gt.sum() / gt.size

    def test_all_256_points_match_bruteforce(self, rng):
        for _ in range(3):
            s, gt = random_pair(rng)
            curve = pr_curve(s, gt)
            for k in range(256):
                p, r = oracle_pr_point(s, gt, THRESHOLDS[k])
                assert curve[k, 0] == pytest.approx(p, abs=1e-12)
                assert curve[k, 1] == pytest.approx(r, abs=1e-12)

    def test_quantized_inputs_match_bruteforce(self, rng):
        # PGM-quantized values sit exactly on thresholds; comparisons must agree
        s = np.round(rng.uniform(size=(8, 8)) * 255) / 255.0
        gt = (rng.uniform(size=(8, 8)) < 0.4).astype(np.float64)
        gt[0, 0] = 1.0
        curve = pr_curve(s, gt)
        for k in (0, 1, 127, 128, 254, 255):
            p, r = oracle_pr_point(s, gt, THRESHOLDS[k])
            assert curve[k, 0] == pytest.approx(p, abs=1e-12)
            assert curve[k, 1] == pytest.approx(r, abs=1e-12)

    def test_binning_matches_searchsorted_at_threshold_edges(self, rng):
        # binning is monotone in s, so agreeing at every threshold and at the
        # float just below it means agreeing on every s in [0, 1]
        on = np.arange(256) / 255.0
        float32_on = (np.arange(256) / np.float32(255)).astype(np.float32)
        edges = np.concatenate([on, np.nextafter(on, 2.0), np.nextafter(on, -1.0), float32_on, [0.0, 1.0]])
        s = edges[(edges >= 0.0) & (edges <= 1.0)].astype(np.float64)[:, None]
        # an all-foreground mask makes recall the exact cumulative histogram
        ones = np.ones_like(s)
        assert np.array_equal(pr_curve(s, ones), searchsorted_pr_curve(s, ones))
        gt = (rng.uniform(size=s.shape) < 0.5).astype(np.float64)
        gt[0] = 1.0
        assert np.array_equal(pr_curve(s, gt), searchsorted_pr_curve(s, gt))

    def test_recall_non_increasing(self, rng):
        s, gt = random_pair(rng, 16, 16)
        curve = pr_curve(s, gt)
        assert (np.diff(curve[:, 1]) <= 0).all()

    def test_all_background_rejected(self, rng):
        s = rng.uniform(size=(4, 4))
        with pytest.raises(ValueError, match="no positive"):
            pr_curve(s, np.zeros((4, 4)))


class TestFMeasure:
    def test_perfect_is_one(self, rng):
        _, gt = random_pair(rng)
        assert f_measure(gt, gt) == pytest.approx(1.0, abs=1e-12)

    def test_zero_true_positives_gives_zero(self):
        gt = np.zeros((4, 4))
        gt[0, 0] = 1.0
        s = np.zeros((4, 4))
        s[3, 3] = 1.0
        # at every threshold > 0 prediction misses the positive; at threshold 0
        # everything is predicted; max F comes from the t=0 point
        full = f_measure(s, gt)
        p0 = gt.sum() / gt.size
        expect0 = 1.3 * p0 * 1.0 / (0.3 * p0 + 1.0)
        assert full == pytest.approx(expect0, abs=1e-12)

    def test_max_dominates_every_threshold(self, rng):
        s, gt = random_pair(rng)
        best = f_measure(s, gt)
        curve = pr_curve(s, gt)
        for k in range(0, 256, 17):
            p, r = curve[k]
            f = 1.3 * p * r / (0.3 * p + r) if (0.3 * p + r) > 0 else 0.0
            assert best >= f - 1e-12


class TestSMeasure:
    def test_identity_close_to_one(self, rng):
        for _ in range(5):
            _, gt = random_pair(rng, 12, 12)
            assert s_measure(gt, gt) == pytest.approx(1.0, abs=1e-6)

    def test_uniform_half_matches_oracle(self, rng):
        _, gt = random_pair(rng, 10, 10)
        s = np.full((10, 10), 0.5)
        assert s_measure(s, gt) == pytest.approx(oracle_s_measure(s, gt), abs=1e-10)

    def test_inversion_scores_below_identity(self, rng):
        _, gt = random_pair(rng, 12, 12)
        assert s_measure(1.0 - gt, gt) < s_measure(gt, gt)

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(25):
            s, gt = random_pair(rng, 9, 13)
            assert s_measure(s, gt) == pytest.approx(oracle_s_measure(s, gt), abs=1e-10)

    def test_degenerate_ground_truths(self, rng):
        s = rng.uniform(size=(6, 6))
        assert s_measure(s, np.zeros((6, 6))) == pytest.approx(1.0 - s.mean(), abs=1e-12)
        assert s_measure(s, np.ones((6, 6))) == pytest.approx(s.mean(), abs=1e-12)

    def test_integer_centroid_row_joins_the_smaller_side(self, rng):
        a, b, c, d, e = integer_centroid_masks()
        assert (oracle_splits(a), oracle_splits(np.flipud(a)), oracle_splits(a.T)) == ([4], [12], [7])
        assert oracle_splits(b) == oracle_splits(b.T) == oracle_splits(c) == [7, 8]
        assert (oracle_splits(d), oracle_splits(e), oracle_splits(e.T)) == ([1], [0, 1], [4, 5])
        for gt in (a, b, c, d, e):
            s = rng.uniform(size=gt.shape)
            base = s_measure(s, gt)
            assert base == pytest.approx(oracle_s_measure(s, gt), abs=1e-10)
            for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
                assert s_measure(np.ascontiguousarray(sv), np.ascontiguousarray(gv)) == base


class TestEMeasure:
    def test_identity_close_to_one(self, rng):
        for _ in range(5):
            _, gt = random_pair(rng, 12, 12)
            assert e_measure(gt, gt) == pytest.approx(1.0, abs=1e-6)

    def test_inverted_matches_oracle(self, rng):
        _, gt = random_pair(rng, 8, 8)
        s = 1.0 - gt
        assert e_measure(s, gt) == pytest.approx(oracle_e_measure(s, gt), abs=1e-10)

    def test_matches_scalar_loop_on_random_pairs(self, rng):
        for _ in range(25):
            s, gt = random_pair(rng, 8, 8)
            assert e_measure(s, gt) == pytest.approx(oracle_e_measure(s, gt), abs=1e-10)

    def test_counts_match_per_pixel_formula(self, rng):
        cases = [random_pair(rng, 8, 8) for _ in range(10)]
        _, gt = random_pair(rng, 8, 8)
        s = rng.uniform(size=(8, 8))
        cases += [(s, np.zeros((8, 8))), (s, np.ones((8, 8)))]
        # a constant map of 0 or 1 binarizes to all positive, one of 0.3 to all negative
        masks = (gt, np.zeros((8, 8)), np.ones((8, 8)))
        cases += [(np.full((8, 8), c), g) for c in (0.0, 1.0, 0.3) for g in masks]
        for s, gt in cases:
            assert e_measure(s, gt) == pytest.approx(oracle_e_measure(s, gt), abs=1e-12)

    def test_degenerate_cases(self, rng):
        s = rng.uniform(size=(6, 6))
        sb = (s >= min(2 * s.mean(), 1.0)).astype(np.float64)
        assert e_measure(s, np.zeros((6, 6))) == pytest.approx((1 - sb).mean(), abs=1e-12)
        assert e_measure(s, np.ones((6, 6))) == pytest.approx(sb.mean(), abs=1e-12)


class TestBoundsAndInvariance:
    def test_all_metrics_bounded_unit_interval(self, rng):
        for _ in range(1000):
            h = int(rng.integers(4, 12))
            w = int(rng.integers(4, 12))
            s, gt = random_pair(rng, h, w, p=float(rng.uniform(0.05, 0.95)))
            for val in (mae(s, gt), f_measure(s, gt), s_measure(s, gt), e_measure(s, gt)):
                assert 0.0 <= val <= 1.0

    def test_exact_dihedral_invariance(self, rng):
        for _ in range(12):
            s, gt = random_pair(rng, 16, 16)
            base = (
                mae(s, gt),
                f_measure(s, gt),
                s_measure(s, gt),
                e_measure(s, gt),
            )
            for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
                sv = np.ascontiguousarray(sv)
                gv = np.ascontiguousarray(gv)
                got = (
                    mae(sv, gv),
                    f_measure(sv, gv),
                    s_measure(sv, gv),
                    e_measure(sv, gv),
                )
                assert got == base

    def test_evaluate_pair_exact_dihedral_invariance(self, rng):
        pairs = [random_pair(rng, 16, 16) for _ in range(12)]
        pairs.append((rng.uniform(size=(16, 16)), np.zeros((16, 16))))
        pairs += [(rng.uniform(size=gt.shape), gt) for gt in integer_centroid_masks()]
        for s, gt in pairs:
            base = evaluate_pair(s, gt)
            for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
                row = evaluate_pair(np.ascontiguousarray(sv), np.ascontiguousarray(gv))
                got = (row.mae, row.s_m, row.e_m, row.f_beta_max)
                assert got == (base.mae, base.s_m, base.e_m, base.f_beta_max)
                assert (row.pr is None and base.pr is None) or np.array_equal(row.pr, base.pr)

    def test_pr_curve_exact_dihedral_invariance(self, rng):
        s, gt = random_pair(rng, 16, 16)
        base = pr_curve(s, gt)
        for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
            assert np.array_equal(pr_curve(np.ascontiguousarray(sv), np.ascontiguousarray(gv)), base)


class TestSortedHalves:
    FIELDS = ("mae", "s_m", "e_m", "f_beta_max")

    def test_shuffling_within_block_and_mask_class_changes_nothing(self, rng):
        pairs = [random_pair(rng, int(rng.integers(2, 20)), int(rng.integers(2, 20))) for _ in range(30)]
        pairs += [(rng.uniform(size=gt.shape), gt) for gt in integer_centroid_masks()]
        pairs.append((rng.uniform(size=(7, 5)), np.zeros((7, 5))))
        for s, gt in pairs:
            # cell = (row above / on / below the centroid) x (the same for columns) x mask
            # class; every S-measure block is a union of such cells
            rows, cols = np.nonzero(gt)
            r = np.sign(np.arange(gt.shape[0]) * rows.size - rows.sum()) + 1
            c = np.sign(np.arange(gt.shape[1]) * rows.size - cols.sum()) + 1
            cells = ((3 * r[:, None] + c[None, :]) * 2 + gt.astype(int)).ravel()
            shuffled = s.ravel().copy()
            for cell in np.unique(cells):
                idx = np.flatnonzero(cells == cell)
                shuffled[idx] = shuffled[rng.permutation(idx)]
            assert not np.array_equal(shuffled, s.ravel())
            base, got = evaluate_pair(s, gt), evaluate_pair(shuffled.reshape(s.shape), gt)
            assert [getattr(got, k) for k in self.FIELDS] == [getattr(base, k) for k in self.FIELDS]
            assert (got.pr is None and base.pr is None) or np.array_equal(got.pr, base.pr)

    def test_public_metrics_equal_evaluate_pair(self, rng):
        for s, gt in assorted_pairs(rng, 60):
            row = evaluate_pair(s, gt)
            assert (mae(s, gt), s_measure(s, gt), e_measure(s, gt)) == (row.mae, row.s_m, row.e_m)
            if gt.any():
                assert f_measure(s, gt) == row.f_beta_max
                assert np.array_equal(pr_curve(s, gt), row.pr)

    def test_matches_sorted_sum_kernels(self, rng):
        for s, gt in assorted_pairs(rng, 400):
            row = evaluate_pair(s, gt)
            want = sorted_sum_metrics(s, gt)
            for name, got, ref in zip(self.FIELDS, (row.mae, row.s_m, row.e_m, row.f_beta_max), want):
                if ref is None:
                    assert got is None, name
                else:
                    assert got == pytest.approx(ref, rel=0, abs=1e-14), (name, s.shape)


class TestInputChecks:
    @pytest.mark.parametrize("metric", [mae, pr_curve, f_measure, s_measure, e_measure, evaluate_pair])
    def test_nan_map_rejected(self, metric):
        gt = np.zeros((4, 4))
        gt[1, 1] = 1.0
        one_nan = np.full((4, 4), 0.5)
        one_nan[2, 3] = np.nan
        for s in (one_nan, np.full((4, 4), np.nan)):
            with pytest.raises(ValueError, match="NaN") as info:
                metric(s, gt)
            assert "\n" not in str(info.value)

    @pytest.mark.parametrize("metric", [mae, pr_curve, f_measure, s_measure, e_measure, evaluate_pair])
    def test_bad_inputs_rejected(self, metric):
        gt = np.zeros((4, 4))
        gt[1, 1] = 1.0
        s = np.full((4, 4), 0.5)
        for bad_gt in (np.where(gt > 0, 0.5, 0.0), np.where(gt > 0, 2, 0), gt.astype(np.float32) * 3):
            with pytest.raises(ValueError, match="binary"):
                metric(s, bad_gt)
        for bad in (-0.1, 1.1, np.inf):
            s_bad = s.copy()
            s_bad[0, 2] = bad
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                metric(s_bad, gt)
        with pytest.raises(ValueError, match="shape"):
            metric(s, gt[:3])


class TestAggregation:
    def test_aggregate_equals_mean_of_rows(self, rng):
        pairs = []
        for i in range(5):
            s, gt = random_pair(rng, 8, 8)
            pairs.append((s, gt, f"img{i}"))
        report = evaluate_pairs(pairs)
        assert report.mae == pytest.approx(np.mean([m.mae for m in report.per_image]), abs=0)
        assert report.f_beta_max == pytest.approx(
            np.mean([m.f_beta_max for m in report.per_image]), abs=0
        )

    def test_all_background_samples_flagged(self, rng):
        s = rng.uniform(size=(6, 6))
        report = evaluate_pairs([(s, np.zeros((6, 6)), "empty"), (s, np.ones((6, 6)), "full")])
        assert report.skipped_fpr == ["empty"]
        assert math.isfinite(report.f_beta_max)
