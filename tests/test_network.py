"""Network assembly: backbone strides, encoder toggles, decoder fusion, head fold, loss."""

import gc
import json
import math
import re
import tracemalloc
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rrnet import attention as A
from rrnet import graph as G
from rrnet import network as N
from rrnet.checks import gradcheck
from rrnet.init import init_params
from rrnet.network import (
    PMA_CHOICES,
    REASONING_CHOICES,
    NetworkConfig,
    balanced_bce_loss,
    bce_loss,
    decode_fuse,
    encode,
    init_network_params,
    param_shapes,
    predict,
)
from rrnet.tensor import Tensor, conv2d, relu, tensor_sum, upsample2x

# per entry of init_network_params(cfg, 0): [shape, crc32 of the float32 bytes],
# recorded from the per-module parameter classes the flat table replaced
INIT_DIGESTS = json.loads((Path(__file__).parent / "init_digests.json").read_text())

TINY = dict(stage_channels=(3, 4, 6, 6, 6), decoder_width=6, input_size=(64, 64))

# the graph.py functions each reasoning value runs after every stage 3-5, in order
REASONING_RUNS = {
    "srr+crr": ["srr", "crr"],
    "srr": ["srr"],
    "crr": ["crr"],
    "none": [],
    "nonlocal": ["non_local_block"],
}


def tiny_cfg(**kw):
    return NetworkConfig(**{**TINY, **kw})


def make_image(rng, size=64, dtype=np.float32):
    return Tensor(rng.uniform(size=(size, size, 3)).astype(dtype))


def backbone(image, params, cfg):
    """The plain feature pyramid: encode with relational reasoning off."""
    return encode(image, params, replace(cfg, reasoning="none"))


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = NetworkConfig()
        assert cfg.stage_channels == (16, 32, 64, 64, 64)
        assert cfg.input_size == (224, 224)
        assert cfg.pma == "both" and cfg.reasoning == "srr+crr"

    @pytest.mark.parametrize("width", [0, -3])
    def test_decoder_width_must_be_positive(self, width):
        with pytest.raises(ValueError, match="decoder_width must be positive"):
            NetworkConfig(decoder_width=width)

    def test_input_size_divisibility(self):
        with pytest.raises(ValueError, match="divisible by 32"):
            NetworkConfig(input_size=(100, 100))

    def test_text_round_trip(self):
        cfg = tiny_cfg(pma="left", reasoning="nonlocal")
        back = NetworkConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            NetworkConfig.from_text("bogus=1\n")


class TestParamTable:
    @staticmethod
    def digests(cfg):
        params = init_network_params(cfg, 0)
        assert all(t.dtype == np.float32 and t.requires_grad for t in params.values())
        return {name: [list(t.shape), zlib.crc32(t.data.tobytes())] for name, t in params.items()}

    @pytest.mark.parametrize("reasoning", REASONING_CHOICES)
    @pytest.mark.parametrize("pma", PMA_CHOICES)
    def test_every_setting_draws_the_recorded_values(self, pma, reasoning):
        # each variant keeps a subset of one shared draw, so its entries have
        # the values recorded under the same names
        cfg = NetworkConfig(input_size=(64, 64), pma=pma, reasoning=reasoning)
        recorded = INIT_DIGESTS["64x64 nonlocal" if reasoning == "nonlocal" else "64x64"]
        assert self.digests(cfg) == {name: recorded[name] for name in param_shapes(cfg)}

    def test_default_setting_holds_the_whole_recorded_table(self):
        assert self.digests(NetworkConfig(input_size=(64, 64))) == INIT_DIGESTS["64x64"]

    def test_non_square_input_draws_the_recorded_values(self):
        assert self.digests(NetworkConfig(input_size=(64, 96))) == INIT_DIGESTS["64x96"]

    def test_tensors_follow_the_table(self):
        cfg = tiny_cfg(input_size=(64, 96))
        nonlocal_cfg = replace(cfg, reasoning="nonlocal")
        for c in (cfg, nonlocal_cfg):
            shapes = param_shapes(c)
            params = init_network_params(c, 0)
            assert list(params) == list(shapes)
            assert all(params[name].shape == shape for name, shape in shapes.items())
        assert list(param_shapes(nonlocal_cfg))[-1] == "nonlocal.s5.out_b"
        assert param_shapes(cfg)["rr.s3.channel.theta"] == (8 * 12, 8 * 12)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937])
    def test_a_generator_ends_where_a_whole_draw_leaves_it(self, bit_generator):
        cfg = tiny_cfg(pma="none", reasoning="none")
        ours, whole = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
        for g in (ours, whole):
            g.integers(0, 2**32, dtype=np.uint32)  # PCG64 buffers the other 32-bit half
        params = init_network_params(cfg, ours)
        drawn = init_params(N._draw_table(cfg), whole)
        assert all(np.array_equal(t.data, drawn[name].data) for name, t in params.items())
        after = [(g.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), g.random(3).tolist()) for g in (ours, whole)]
        assert after[0] == after[1]

    @pytest.mark.parametrize(
        "pma, reasoning, entries, count",
        [("none", "none", 44, 420_073), ("both", "srr+crr", 114, 2_533_120)],
    )
    def test_224_table_sizes(self, pma, reasoning, entries, count):
        shapes = param_shapes(NetworkConfig(pma=pma, reasoning=reasoning))
        assert (len(shapes), sum(math.prod(s) for s in shapes.values())) == (entries, count)

    @pytest.mark.parametrize("reasoning", REASONING_CHOICES)
    @pytest.mark.parametrize("pma", PMA_CHOICES)
    def test_the_table_is_what_one_backward_reaches(self, rng, pma, reasoning):
        # predict reads no entry outside the table (it would raise KeyError),
        # and one forward and backward reaches every entry in it: the table's
        # prefix rule follows what encode, predict and attention read
        cfg = NetworkConfig(
            stage_channels=(2, 3, 4, 4, 4), decoder_width=3, input_size=(32, 32), pma=pma, reasoning=reasoning
        )
        params = init_network_params(cfg, seed=0)
        label = (rng.uniform(size=(32, 32)) < 0.4).astype(np.float32)
        balanced_bce_loss(predict(make_image(rng, size=32), params, cfg).map, label).backward()
        reached = {name for name, t in params.items() if t._grad is not None}  # .grad would make zeros
        assert reached == set(param_shapes(cfg))


class TestBackbone:
    def test_224_stage_sizes(self, rng):
        cfg = NetworkConfig(stage_channels=(2, 2, 2, 2, 2), input_size=(224, 224))
        params = init_network_params(cfg, seed=0)
        feats = backbone(make_image(rng, 224), params, cfg)
        assert [f.shape[0] for f in feats] == [112, 56, 28, 14, 7]

    def test_64_stage_sizes_and_channels(self, rng):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=0)
        feats = backbone(make_image(rng), params, cfg)
        assert [f.shape[:2] for f in feats] == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]
        assert [f.shape[2] for f in feats] == list(cfg.stage_channels)

    def test_zero_image_zero_bias_gives_zero_features(self):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=0)
        feats = backbone(Tensor(np.zeros((64, 64, 3), dtype=np.float32)), params, cfg)
        for f in feats:
            assert np.abs(f.data).max() == 0.0

    def test_indivisible_size_rejected(self, rng):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=0)
        with pytest.raises(ValueError, match="divisible by 32"):
            backbone(Tensor(rng.uniform(size=(60, 60, 3))), params, cfg)


class TestEncode:
    def test_toggles_off_equals_backbone(self, rng):
        cfg = tiny_cfg(reasoning="none")
        params = init_network_params(cfg, seed=3)
        img = make_image(rng)
        h = img
        for s, f in enumerate(encode(img, params, cfg), start=1):
            for i in range(3):
                w, b = params[f"backbone.s{s}.c{i}.w"], params[f"backbone.s{s}.c{i}.b"]
                h = relu(conv2d(h, w, b, stride=2 if i == 0 else 1))
            assert np.array_equal(f.data, h.data)

    def test_reasoned_stages_differ_and_feed_forward(self, rng):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=3)
        img = make_image(rng)
        enc = encode(img, params, cfg)
        raw = backbone(img, params, cfg)
        assert np.array_equal(enc[0].data, raw[0].data)
        assert np.array_equal(enc[1].data, raw[1].data)
        assert not np.array_equal(enc[2].data, raw[2].data)

    def test_nonlocal_variant_runs(self, rng):
        cfg = tiny_cfg(reasoning="nonlocal")
        params = init_network_params(cfg, seed=3)
        enc = encode(make_image(rng), params, cfg)
        assert [f.shape[:2] for f in enc] == [(32, 32), (16, 16), (8, 8), (4, 4), (2, 2)]

    def test_shape_walk(self, rng):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=1)
        enc = encode(make_image(rng), params, cfg)
        h, w = cfg.input_size
        for s, f in enumerate(enc, start=1):
            assert f.shape == (h // 2**s, w // 2**s, cfg.stage_channels[s - 1])


class TestDecodeFuse:
    def test_zero_attention_equals_ungated_path(self, rng):
        f_d = Tensor(rng.standard_normal((4, 4, 6)).astype(np.float32))
        f_e = Tensor(rng.standard_normal((8, 8, 4)).astype(np.float32))
        conv = {
            "w": Tensor(rng.standard_normal((3, 3, 10, 6)).astype(np.float32)),
            "b": Tensor(np.zeros(6, dtype=np.float32)),
        }
        a0 = Tensor(np.zeros((8, 8), dtype=np.float32))
        gated = decode_fuse(f_d, f_e, a0, conv)
        plain = decode_fuse(f_d, f_e, None, conv)
        assert np.array_equal(gated.data, plain.data)

    def test_unit_attention_doubles_upsampled_features(self, rng):
        from rrnet.tensor import upsample2x

        f_d = Tensor(rng.standard_normal((4, 4, 2)), dtype=np.float64)
        f_e = Tensor(np.zeros((8, 8, 3)), dtype=np.float64)
        # identity-ish conv impossible in one tap across 5 channels; check the
        # concat input instead by a linear probe: conv with known weights
        w = rng.standard_normal((3, 3, 5, 2))
        conv = {"w": Tensor(w, dtype=np.float64), "b": Tensor(np.zeros(2), dtype=np.float64)}
        ones = Tensor(np.ones((8, 8), dtype=np.float64))
        gated = decode_fuse(f_d, f_e, ones, conv).data
        from rrnet.tensor import concat, conv2d

        doubled = conv2d(
            concat([upsample2x(f_d) * 2.0, f_e], axis=2), conv["w"], conv["b"]
        ).data
        assert np.abs(gated - doubled).max() < 1e-12

    def test_matches_per_element_oracle(self, rng):
        f_d = Tensor(rng.standard_normal((2, 2, 2)), dtype=np.float64)
        f_e = Tensor(rng.standard_normal((4, 4, 3)), dtype=np.float64)
        a_f = Tensor(rng.uniform(size=(4, 4)), dtype=np.float64)
        w = rng.standard_normal((1, 1, 5, 2))
        conv = {"w": Tensor(w, dtype=np.float64), "b": Tensor(rng.standard_normal(2), dtype=np.float64)}
        got = decode_fuse(f_d, f_e, a_f, conv).data
        up = np.repeat(np.repeat(f_d.data, 2, 0), 2, 1)
        for i in range(4):
            for j in range(4):
                vec = np.concatenate([up[i, j] * (a_f.data[i, j] + 1.0), f_e.data[i, j]])
                expect = vec @ w[0, 0] + conv["b"].data
                assert np.abs(got[i, j] - expect).max() < 1e-12

    def test_size_contracts(self, rng):
        conv = {
            "w": Tensor(np.zeros((3, 3, 5, 2), dtype=np.float32)),
            "b": Tensor(np.zeros(2, dtype=np.float32)),
        }
        f_d = Tensor(np.zeros((4, 4, 2), dtype=np.float32))
        bad_e = Tensor(np.zeros((6, 6, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="exactly 2x"):
            decode_fuse(f_d, bad_e, None, conv)
        f_e = Tensor(np.zeros((8, 8, 3), dtype=np.float32))
        bad_a = Tensor(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="attention map"):
            decode_fuse(f_d, f_e, bad_a, conv)


class TestUpsampleConv:
    """The head's fold: a 3x3 conv on a nearest 2x upsample, run at the
    source resolution, against the unfolded upsample2x + conv2d."""

    @staticmethod
    def leaves(rng, h, w, cin, cout, dtype):
        def leaf(*shape):
            return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)

        return leaf(h, w, cin), {"c.w": leaf(3, 3, cin, cout), "c.b": leaf(cout)}

    @pytest.mark.parametrize("h, w", [(3, 5), (1, 1), (4, 2)])
    def test_float32_forward_matches_unfolded(self, rng, h, w):
        x, p = self.leaves(rng, h, w, 2, 3, np.float32)
        got = N._upsample_conv(x, p, "c.")
        want = conv2d(upsample2x(x), p["c.w"], p["c.b"])
        assert got.shape == want.shape == (2 * h, 2 * w, 3) and got.dtype == np.float32
        assert np.abs(got.data - want.data).max() < 1e-5

    @pytest.mark.parametrize("h, w", [(3, 5), (1, 1), (4, 2)])
    def test_float64_forward_and_gradients_match_unfolded(self, rng, h, w):
        x, p = self.leaves(rng, h, w, 2, 3, np.float64)
        probe = Tensor(rng.standard_normal((2 * h, 2 * w, 3)), dtype=np.float64)
        outs, grads = [], []
        for run in (lambda: N._upsample_conv(x, p, "c."), lambda: conv2d(upsample2x(x), p["c.w"], p["c.b"])):
            for t in (x, *p.values()):
                t.zero_grad()
            y = run()
            tensor_sum(y * probe).backward()
            outs.append(y.data)
            grads.append([t.grad.copy() for t in (x, *p.values())])
        assert np.abs(outs[0] - outs[1]).max() <= 1e-10
        for g_fold, g_plain in zip(*grads):
            assert np.abs(g_fold - g_plain).max() <= 1e-10

    def test_gradcheck(self, rng):
        x, p = self.leaves(rng, 3, 5, 2, 3, np.float64)
        res = gradcheck(
            lambda: tensor_sum(N._upsample_conv(x, p, "c.") ** 2.0),
            [("x", x), ("w", p["c.w"]), ("b", p["c.b"])],
        )
        assert res, res

    def test_predict_runs_no_wide_conv_at_input_resolution(self, rng, monkeypatch):
        # past the stride-2 stem, every conv with a kernel wider than 1 reads
        # at most half the input size in each direction: the head's upsample
        # conv stays folded
        calls = []
        real = conv2d

        def record(x, w, b=None, stride=1):
            if stride == 1:
                calls.append((w.shape[0], x.shape[:2]))
            return real(x, w, b, stride=stride)

        for module in (N, A):  # graph.py runs no conv
            monkeypatch.setattr(module, "conv2d", record)
        cfg = tiny_cfg()
        predict(make_image(rng), init_network_params(cfg, seed=0), cfg)
        h, w = cfg.input_size
        assert (1, (h, w)) in calls  # the recording reaches the head's last conv
        wide = [(k, size) for k, size in calls if k > 1]
        assert wide and all(size[0] <= h // 2 and size[1] <= w // 2 for _, size in wide), wide


class TestPredict:
    def test_shape_range_and_determinism(self, rng):
        cfg = tiny_cfg()
        params = init_network_params(cfg, seed=5)
        img = make_image(rng)
        a = predict(img, params, cfg).map
        assert a.shape == (64, 64)
        assert (a.data > 0).all() and (a.data < 1).all()
        b = predict(img, params, cfg).map
        assert np.array_equal(a.data, b.data)

    def test_seeded_init_reproducible(self, rng):
        cfg = tiny_cfg()
        img = make_image(rng)
        m1 = predict(img, init_network_params(cfg, seed=9), cfg).map.data
        m2 = predict(img, init_network_params(cfg, seed=9), cfg).map.data
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("reasoning", REASONING_CHOICES)
    @pytest.mark.parametrize("pma", PMA_CHOICES)
    def test_each_setting_runs_exactly_the_modules_it_names(self, rng, monkeypatch, pma, reasoning):
        calls = []

        def record(module, name):
            real = getattr(module, name)

            def wrapper(x, p, **kw):
                calls.append((name, x.shape[0], kw.get("branch")))
                return real(x, p, **kw)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("srr", "crr", "non_local_block"):
            record(G, name)
        record(A, "pma")
        cfg = tiny_cfg(pma=pma, reasoning=reasoning)
        predict(make_image(rng), init_network_params(cfg, seed=0), cfg)
        # stages 3-5 are 8, 4 and 2 pixels high; the decoder gates stage 2, then stage 1
        expected = [(name, size, None) for size in (8, 4, 2) for name in REASONING_RUNS[reasoning]]
        if pma != "none":
            expected += [("pma", 16, pma), ("pma", 32, pma)]
        assert calls == expected

    def test_pma_toggle_changes_only_attention_path(self, rng):
        img = make_image(rng)
        cfg_on = tiny_cfg()
        cfg_off = tiny_cfg(pma="none")
        params = init_network_params(cfg_on, seed=2)
        with_att = predict(img, params, cfg_on).map.data
        without = predict(img, params, cfg_off).map.data
        assert not np.array_equal(with_att, without)

    def test_graph_dropped_without_backward_is_freed_without_gc(self, rng):
        # no op's backward closure may reference its own output: a recorded
        # forward graph must go away by reference counting alone
        cfg = tiny_cfg(input_size=(32, 32))
        params = init_network_params(cfg, seed=0)
        img = make_image(rng, size=32)
        predict(img, params, cfg)  # warm-up: first-call allocations
        tracemalloc.start()
        gc.disable()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                predict(img, params, cfg)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            gc.enable()
            tracemalloc.stop()
        assert left - base < 0.1 * (peak - base), (left - base, peak - base)


class TestLoss:
    def test_weights_sum_to_one_and_oracle(self, rng):
        for _ in range(100):
            s = rng.uniform(0.02, 0.98, size=(8, 8))
            label = (rng.uniform(size=(8, 8)) < rng.uniform(0.1, 0.9)).astype(np.float64)
            got = balanced_bce_loss(Tensor(s, dtype=np.float64), label).item()
            b = label.size
            bm = label.sum()
            p, q = (b - bm) / b, bm / b
            assert p + q == 1.0
            acc = 0.0
            for i in range(8):
                for j in range(8):
                    sij = min(max(s[i, j], 1e-7), 1 - 1e-7)
                    if bm == 0:
                        acc += label[i, j] * math.log(sij) + (1 - label[i, j]) * math.log(1 - sij)
                    else:
                        acc += p * label[i, j] * math.log(sij) + q * (1 - label[i, j]) * math.log(
                            1 - sij
                        )
            assert got == pytest.approx(-acc / b, abs=1e-12)

    def test_balanced_label_is_exactly_half_bce(self, rng):
        s = Tensor(rng.uniform(0.05, 0.95, size=(6, 4)), dtype=np.float64)
        label = np.zeros((6, 4))
        label[:3] = 1.0
        assert balanced_bce_loss(s, label).item() == 0.5 * bce_loss(s, label).item()

    def test_all_background_falls_back_to_plain_bce(self, rng):
        s = Tensor(rng.uniform(0.05, 0.95, size=(5, 5)), dtype=np.float64)
        label = np.zeros((5, 5))
        got = balanced_bce_loss(s, label).item()
        assert got == bce_loss(s, label).item()
        assert np.isfinite(got) and got > 0

    def test_loss_nonnegative_and_bounded_at_perfect_prediction(self, rng):
        label = (rng.uniform(size=(6, 6)) < 0.5).astype(np.float64)
        if label.sum() in (0, label.size):
            label[0, 0] = 1.0 - label[0, 0]
        s = Tensor(label.copy(), dtype=np.float64)
        val = balanced_bce_loss(s, label).item()
        assert 0.0 <= val <= -math.log(1.0 - 1e-7) + 1e-12

    def test_non_binary_label_rejected(self, rng):
        s = Tensor(rng.uniform(size=(3, 3)), dtype=np.float64)
        with pytest.raises(ValueError, match="binary"):
            balanced_bce_loss(s, np.full((3, 3), 0.5))

    def test_non_binary_label_message_lists_its_values(self, rng):
        s = Tensor(rng.uniform(size=(2, 3)), dtype=np.float64)
        label = np.array([[1.0, 0.0, 0.5], [np.nan, 1.0, 0.0]])
        with pytest.raises(ValueError, match=re.escape(f"label must be binary 0/1, found values {np.unique(label)}")):
            balanced_bce_loss(s, label)

    def test_negative_zero_and_boolean_labels_accepted(self, rng):
        s = Tensor(rng.uniform(size=(2, 2)), dtype=np.float64)
        label = np.array([[1.0, -0.0], [0.0, 1.0]])
        assert balanced_bce_loss(s, label).item() == balanced_bce_loss(s, label.astype(bool)).item()

    def test_shape_mismatch_rejected(self, rng):
        s = Tensor(rng.uniform(size=(3, 3)), dtype=np.float64)
        with pytest.raises(ValueError, match="shape"):
            balanced_bce_loss(s, np.ones((4, 4)))

    def test_gradient_direction(self, rng):
        # loss decreases when prediction moves toward the label
        s = Tensor(np.full((4, 4), 0.5), requires_grad=True, dtype=np.float64)
        label = np.zeros((4, 4))
        label[:2] = 1.0
        balanced_bce_loss(s, label).backward()
        assert (s.grad[:2] < 0).all()  # push up where label is 1
        assert (s.grad[2:] > 0).all()
