"""Training-loop behavior: determinism, logging shape, NaN detection, memory."""

import tracemalloc
import weakref

import numpy as np
import pytest

from rrnet import training
from rrnet.dataio import Sample, augment7, resize_sample, synth_dataset
from rrnet.network import NetworkConfig, balanced_bce_loss, init_network_params, predict
from rrnet.tensor import Tensor, no_grad
from rrnet.training import TrainSettings, train_model

TINY = NetworkConfig(stage_channels=(2, 2, 3, 3, 3), decoder_width=4, input_size=(32, 32))


class TestTrainModel:
    def test_deterministic_across_runs(self):
        samples = synth_dataset(2, seed=1, size=32)
        settings = TrainSettings(iterations=3, batch_size=2, seed=5)
        r1 = train_model(samples, TINY, settings)
        r2 = train_model(samples, TINY, settings)
        for (n1, p1), (n2, p2) in zip(r1.params.items(), r2.params.items()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)
        assert r1.log == r2.log

    def test_different_seed_differs(self):
        samples = synth_dataset(2, seed=1, size=32)
        r1 = train_model(samples, TINY, TrainSettings(iterations=2, batch_size=2, seed=5))
        r2 = train_model(samples, TINY, TrainSettings(iterations=2, batch_size=2, seed=6))
        p1 = r1.params["head.c2.w"].data
        p2 = r2.params["head.c2.w"].data
        assert not np.array_equal(p1, p2)

    def test_zero_iterations_returns_initialization_with_empty_log(self):
        samples = synth_dataset(1, seed=1, size=32)
        res = train_model(samples, TINY, TrainSettings(iterations=0, seed=2))
        assert res.log == []

    def test_log_has_iteration_zero_and_final(self):
        samples = synth_dataset(2, seed=1, size=32)
        res = train_model(samples, TINY, TrainSettings(iterations=5, batch_size=2, seed=2))
        iters = [row[0] for row in res.log]
        assert iters[0] == 0
        assert iters[-1] == 5

    def test_pool_loss_decreases(self):
        samples = synth_dataset(4, seed=3, size=32)
        pool = [resize_sample(v, (32, 32)) for s in samples for v in augment7(s)]

        def pool_loss(params):
            with no_grad():
                return float(
                    np.mean(
                        [
                            balanced_bce_loss(predict(Tensor(s.image), params, TINY).map, s.mask).item()
                            for s in pool
                        ]
                    )
                )

        settings = TrainSettings(iterations=80, batch_size=4, seed=3, lr_initial=1e-3, lr_final=1e-4)
        ss = np.random.SeedSequence(settings.seed)
        seed_params, _ = ss.spawn(2)
        before = pool_loss(init_network_params(TINY, np.random.default_rng(seed_params)))
        res = train_model(samples, TINY, settings)
        after = pool_loss(res.params)
        assert after < before

    @pytest.mark.parametrize("augment", [True, False])
    def test_every_pool_index_draws_its_resized_variant(self, monkeypatch, augment):
        # 48 x 40 sources, so a quarter turn changes what the resize reads
        samples = [
            Sample(s.image[:, :40].copy(), s.mask[:, :40].copy(), s.id) for s in synth_dataset(2, seed=4, size=48)
        ]
        oracle = [resize_sample(v, TINY.input_size) for s in samples for v in (augment7(s) if augment else [s])]
        settings = TrainSettings(iterations=1, batch_size=200, seed=6, augment=augment)
        drawn = []

        class Drawn(Exception):
            pass

        def record(batch, params, cfg, with_grad):
            drawn.extend(batch)
            raise Drawn

        monkeypatch.setattr(training, "_batch_loss", record)
        with pytest.raises(Drawn):
            train_model(samples, TINY, settings)
        _, seed_batches = np.random.SeedSequence(settings.seed).spawn(2)
        row = np.random.default_rng(seed_batches).integers(0, len(oracle), size=(1, settings.batch_size))[0]
        assert set(row.tolist()) == set(range(len(oracle)))
        for j, got in zip(row, drawn, strict=True):
            want = oracle[j]
            assert got.id == want.id
            assert got.image.dtype == want.image.dtype and got.image.tobytes() == want.image.tobytes()
            assert got.mask.dtype == want.mask.dtype and got.mask.tobytes() == want.mask.tobytes()

    def test_augment_toggle_changes_pool(self):
        samples = synth_dataset(1, seed=1, size=32)
        a = train_model(samples, TINY, TrainSettings(iterations=2, batch_size=2, seed=9, augment=True))
        b = train_model(samples, TINY, TrainSettings(iterations=2, batch_size=2, seed=9, augment=False))
        pa = a.params["head.c2.w"].data
        pb = b.params["head.c2.w"].data
        assert not np.array_equal(pa, pb)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="no training samples"):
            train_model([], TINY, TrainSettings(iterations=1))


class TestMemory:
    def test_backward_frees_the_tape_as_it_walks(self):
        # one 64 px sample of the default network; tracemalloc counts only
        # what is allocated after it starts, so parameters are not included
        cfg = NetworkConfig(input_size=(64, 64))
        params = init_network_params(cfg, seed=0)
        sample = synth_dataset(1, seed=0, size=64)[0]
        image = Tensor(sample.image)
        tracemalloc.start()
        try:
            pred = predict(image, params, cfg)
            loss = balanced_bce_loss(pred.map, sample.mask)
            after_forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            after_backward, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.data.nbytes for p in params.values())
        grad_bytes = sum(p.grad.nbytes for p in params.values())
        # pred and loss are still referenced, yet only the leaf gradients,
        # the map and under 0.5 MiB of small objects may stay
        assert after_backward <= grad_bytes + pred.map.data.nbytes + 2**19
        assert backward_peak < after_forward + param_bytes

    def test_a_run_holds_each_sample_once(self):
        # the samples are made before tracing starts, so the traced peak of a
        # run grows with the sample count only by what the run keeps per sample
        settings = TrainSettings(iterations=1, batch_size=2, seed=3)
        peaks = {}
        for n in (4, 36):
            samples = synth_dataset(n, seed=1, size=32)
            tracemalloc.start()
            try:
                train_model(samples, TINY, settings)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        sample_bytes = samples[0].image.nbytes + samples[0].mask.nbytes
        assert (peaks[36] - peaks[4]) / (36 - 4) < sample_bytes

    def test_tape_nodes_per_sample(self):
        # graph reasoning records one op per call and PMA one attention pass;
        # composed op by op, the same sample recorded 517 nodes
        cfg = NetworkConfig(input_size=(64, 64))
        params = init_network_params(cfg, seed=0)
        sample = synth_dataset(1, seed=0, size=64)[0]
        loss = balanced_bce_loss(predict(Tensor(sample.image), params, cfg).map, sample.mask)
        seen = {id(loss)}
        stack = [loss]
        while stack:
            for parent in stack.pop()._prev:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert len(seen) <= 283

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_batch_loss_frees_each_sample_before_the_next_forward(self, monkeypatch, with_grad):
        maps = []

        def recording_predict(image, params, cfg):
            assert all(ref() is None for ref in maps), "the previous sample's map is still alive"
            pred = predict(image, params, cfg)
            maps.append(weakref.ref(pred.map.data))
            return pred

        monkeypatch.setattr(training, "predict", recording_predict)
        batch = synth_dataset(3, seed=1, size=32)
        params = init_network_params(TINY, seed=2)
        if with_grad:
            training._batch_loss(batch, params, TINY, with_grad=True)
        else:
            with no_grad():
                training._batch_loss(batch, params, TINY, with_grad=False)
        assert len(maps) == 3


class TestTrainSettings:
    @pytest.mark.parametrize(
        "bad",
        [
            {"iterations": -1},
            {"batch_size": 0},
            {"log_every": 0},
            {"lr_initial": float("nan")},
            {"lr_initial": -1.0},
            {"lr_final": float("inf")},
            {"lr_final": -1e-9},
        ],
    )
    def test_out_of_range_values_rejected(self, bad):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            TrainSettings(**bad)

    def test_zero_learning_rate_accepted(self):
        assert TrainSettings(lr_initial=0.0, lr_final=0.0).lr_initial == 0.0
