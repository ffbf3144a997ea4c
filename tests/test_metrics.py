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
    rows, cols = np.nonzero(gt)
    cnt = rows.size
    sr = sum(1 for i in range(h) if i * cnt < rows.sum())
    sc = sum(1 for j in range(w) if j * cnt < cols.sum())
    sr, sc = max(sr, 1), max(sc, 1)

    def ssim(x, y_):
        m = x.size
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
    for rs, re in ((0, sr), (sr, h)):
        for cs, ce in ((0, sc), (sc, w)):
            weight = (re - rs) * (ce - cs) / n
            s_r += weight * ssim(pred[rs:re, cs:ce], gt[rs:re, cs:ce])
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
        trials = 0
        while trials < 12:
            s, gt = random_pair(rng, 16, 16)
            rows, cols = np.nonzero(gt)
            n = rows.size
            # integer centroid coordinates make the region split genuinely
            # ambiguous (the tie row flips sides under reflection); skip those
            if rows.sum() % n == 0 or cols.sum() % n == 0:
                continue
            trials += 1
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
        trials = 0
        for s, gt in pairs:
            rows, cols = np.nonzero(gt)
            # same skip as above: an integer centroid coordinate has a tie row
            if rows.size and (rows.sum() % rows.size == 0 or cols.sum() % rows.size == 0):
                continue
            trials += 1
            base = evaluate_pair(s, gt)
            for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
                row = evaluate_pair(np.ascontiguousarray(sv), np.ascontiguousarray(gv))
                got = (row.mae, row.s_m, row.e_m, row.f_beta_max)
                assert got == (base.mae, base.s_m, base.e_m, base.f_beta_max)
                assert (row.pr is None and base.pr is None) or np.array_equal(row.pr, base.pr)
        assert trials >= 8

    def test_pr_curve_exact_dihedral_invariance(self, rng):
        s, gt = random_pair(rng, 16, 16)
        base = pr_curve(s, gt)
        for sv, gv in zip(dihedral_variants(s), dihedral_variants(gt)):
            assert np.array_equal(pr_curve(np.ascontiguousarray(sv), np.ascontiguousarray(gv)), base)


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

    def test_evaluate_pair_rejects_bad_inputs(self):
        gt = np.zeros((4, 4))
        gt[1, 1] = 1.0
        s = np.full((4, 4), 0.5)
        with pytest.raises(ValueError, match="binary"):
            evaluate_pair(s, np.where(gt > 0, 0.5, 0.0))
        for bad in (-0.1, 1.1, np.inf):
            s_bad = s.copy()
            s_bad[0, 2] = bad
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                evaluate_pair(s_bad, gt)
        with pytest.raises(ValueError, match="shape"):
            evaluate_pair(s, gt[:3])


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

    def test_threaded_equals_serial(self, rng):
        pairs = [(*random_pair(rng, 8, 8), f"i{i}") for i in range(6)]
        serial = evaluate_pairs(pairs, threads=1)
        threaded = evaluate_pairs(pairs, threads=4)
        assert [m.mae for m in serial.per_image] == [m.mae for m in threaded.per_image]
        assert np.array_equal(serial.pr, threaded.pr)
