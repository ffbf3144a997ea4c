"""Xavier initialization and the ADAM optimizer with its linear schedule."""

import numpy as np
import pytest

from rrnet.init import xavier_uniform
from rrnet.optim import Adam, LinearSchedule
from rrnet.tensor import Tensor


class TestXavier:
    def test_deterministic_per_seed(self):
        a = xavier_uniform((8, 8), seed=42)
        b = xavier_uniform((8, 8), seed=42)
        assert np.array_equal(a.data, b.data)
        c = xavier_uniform((8, 8), seed=43)
        assert not np.array_equal(a.data, c.data)

    def test_values_within_bound(self):
        bound = np.sqrt(6.0 / 200.0)
        t = xavier_uniform((100, 100), seed=7)
        assert np.abs(t.data).max() <= bound

    def test_sample_mean_within_standard_error(self):
        # uniform on +-b has std b/sqrt(3); the mean of N draws has std
        # b/sqrt(3N), so |mean| < 3*b/sqrt(3N) with overwhelming probability
        bound = np.sqrt(6.0 / 2000.0)
        t = xavier_uniform((1000, 1000), seed=11)
        limit = 3.0 * bound / np.sqrt(3.0 * 1e6)
        assert abs(float(t.data.mean())) < limit

    def test_conv_fans(self):
        # k x k x Cin x Cout: fans include the receptive field
        t = xavier_uniform((3, 3, 4, 8), seed=1)
        bound = np.sqrt(6.0 / (9 * 4 + 9 * 8))
        assert np.abs(t.data).max() <= bound

    def test_rank2_rejected_only_below_rank2(self):
        with pytest.raises(ValueError, match="rank"):
            xavier_uniform((5,), seed=0)


class TestSchedule:
    def test_endpoints(self):
        sched = LinearSchedule(5e-5, 5e-7, 2000)
        assert sched.lr_at(1) == 5e-5
        assert sched.lr_at(2000) == pytest.approx(5e-7, rel=1e-12)
        assert sched.lr_at(5000) == pytest.approx(5e-7, rel=1e-12)

    def test_midpoint(self):
        sched = LinearSchedule(1.0, 0.0, 11)
        assert sched.lr_at(6) == pytest.approx(0.5)

    def test_single_step_schedule(self):
        assert LinearSchedule(1e-3, 1e-5, 1).lr_at(1) == 1e-3


class TestAdam:
    def test_first_step_moves_by_lr_sign(self):
        p = Tensor(np.zeros(4), requires_grad=True, dtype=np.float64)
        p._grad = np.array([1.0, -2.0, 0.5, -0.1])
        adam = Adam({"p": p}, LinearSchedule(1e-2, 1e-2, 10))
        adam.step()
        # bias-corrected ratio is ~1 on the first step
        assert np.allclose(p.data, -1e-2 * np.sign(p.grad), atol=1e-6)

    def test_zero_gradient_is_fixed_point(self):
        start = np.array([1.0, 2.0, 3.0])
        p = Tensor(start.copy(), requires_grad=True, dtype=np.float64)
        adam = Adam({"p": p}, LinearSchedule(1e-2, 1e-3, 5))
        for _ in range(5):
            adam.zero_grad()
            adam.step()
        assert np.array_equal(p.data, start)

    def test_final_step_uses_final_lr(self):
        p = Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)
        adam = Adam({"p": p}, LinearSchedule(5e-5, 5e-7, 3))
        lrs = []
        for _ in range(3):
            p._grad = np.ones(1)
            lrs.append(adam.step())
        assert lrs[0] == 5e-5
        assert lrs[-1] == pytest.approx(5e-7, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True, dtype=np.float64)
        adam = Adam({"p": p}, LinearSchedule(1e-3, 1e-3, 2))
        p._grad = np.ones(3)
        with pytest.raises(ValueError, match="shape"):
            adam.step()

    def test_grad_scale(self):
        p1 = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        p2 = Tensor(np.zeros(2), requires_grad=True, dtype=np.float64)
        a1 = Adam({"p": p1}, LinearSchedule(1e-2, 1e-2, 5))
        a2 = Adam({"p": p2}, LinearSchedule(1e-2, 1e-2, 5))
        p1._grad = np.array([4.0, -4.0])
        p2._grad = np.array([1.0, -1.0])
        a1.step(grad_scale=0.25)
        a2.step()
        assert np.allclose(p1.data, p2.data)
