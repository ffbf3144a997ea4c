"""Training-loop behavior: determinism, logging shape, NaN detection."""

import numpy as np
import pytest

from rrnet.dataio import synth_dataset
from rrnet.network import NetworkConfig
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
        from rrnet.dataio import augment7, resize_sample
        from rrnet.network import balanced_bce_loss, init_network_params, predict
        from rrnet.tensor import Tensor, no_grad

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
