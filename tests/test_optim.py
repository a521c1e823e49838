import numpy as np
import pytest

from miniseq.optim import ContractViolation, LRPolicy, Optimizer
from miniseq.tensor import DType, Tensor


def t32(arr):
    return Tensor.from_array(arr, DType.F32)


class TestLRPolicy:
    def test_exp_decay_reference_points(self):
        p = LRPolicy("exp_decay", learning_rate=0.0008, decay_rate=0.5, decay_steps=1000)
        assert p.lr_at(0) == 0.0008
        assert p.lr_at(1000) == pytest.approx(0.0004)

    def test_constant(self):
        p = LRPolicy("constant", learning_rate=0.01)
        for t in [0, 1, 10_000]:
            assert p.lr_at(t) == 0.01

    def test_staircase_floors_exponent(self):
        p = LRPolicy("exp_decay", learning_rate=1.0, decay_rate=0.5, decay_steps=10, staircase=True)
        assert p.lr_at(9) == 1.0
        assert p.lr_at(10) == 0.5
        smooth = LRPolicy("exp_decay", learning_rate=1.0, decay_rate=0.5, decay_steps=10)
        assert smooth.lr_at(5) == pytest.approx(0.5 ** 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LRPolicy("constant", learning_rate=0.0)
        with pytest.raises(ValueError):
            LRPolicy("exp_decay", decay_rate=1.5)
        with pytest.raises(ValueError):
            LRPolicy("warmup")
        with pytest.raises(ValueError, match="step must be non-negative"):
            LRPolicy().lr_at(-1)


class TestOptimizer:
    def test_sgd_hand_value(self):
        opt = Optimizer("sgd")
        master = {"w": t32([1.0])}
        opt.step(master, {"w": t32([0.5])}, lr=0.1)
        assert master["w"].f32()[0] == pytest.approx(0.95)

    def test_adam_first_step_magnitude(self):
        opt = Optimizer("adam", beta1=0.9, beta2=0.999, epsilon=1e-8)
        master = {"w": t32([0.0])}
        opt.step(master, {"w": t32([1.0])}, lr=0.1)
        # bias-corrected first step: lr * 1/(1 + eps) ~= lr (FP32 arithmetic)
        assert master["w"].f32()[0] == pytest.approx(-0.1, rel=1e-5)

    def test_zero_gradients_are_no_ops_for_sgd_and_momentum(self):
        for kind in ["sgd", "momentum"]:
            opt = Optimizer(kind)
            master = {"w": t32([2.0, -1.0])}
            opt.step(master, {"w": t32([0.0, 0.0])}, lr=0.5)
            assert np.array_equal(master["w"].f32(), [2.0, -1.0])

    def test_sgd_is_momentum_mu_zero(self):
        rng = np.random.default_rng(0)
        w0 = rng.normal(size=8).astype(np.float32)
        a = Optimizer("sgd")
        b = Optimizer("momentum", momentum=0.0)
        ma, mb = {"w": t32(w0)}, {"w": t32(w0)}
        for i in range(20):
            g = t32(rng.normal(size=8))
            a.step(ma, {"w": g}, lr=0.05)
            b.step(mb, {"w": g}, lr=0.05)
        assert np.array_equal(ma["w"].f32(), mb["w"].f32())

    def test_adam_matches_reference_formulas(self):
        rng = np.random.default_rng(1)
        opt = Optimizer("adam")
        master = {"w": t32(np.zeros(5))}
        m = np.zeros(5, dtype=np.float64)
        v = np.zeros(5, dtype=np.float64)
        ref = np.zeros(5, dtype=np.float64)
        for t in range(1, 11):
            g = rng.normal(size=5).astype(np.float32)
            opt.step(master, {"w": t32(g)}, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(master["w"].f32(), ref, atol=1e-6)

    def test_step_counter_counts_applied_only(self):
        opt = Optimizer("adam")
        master = {"w": t32([1.0])}
        opt.step(master, {"w": t32([0.1])}, lr=0.01)
        assert opt.t == 1
        # a skipped step never reaches the optimizer; caller simply does not call
        assert opt.t == 1
        opt.step(master, {"w": t32([0.1])}, lr=0.01)
        assert opt.t == 2

    def test_rejects_nonfinite_and_f16(self):
        opt = Optimizer("sgd")
        master = {"w": t32([1.0])}
        with pytest.raises(ContractViolation):
            opt.step(master, {"w": t32([np.inf])}, lr=0.1)
        with pytest.raises(ContractViolation):
            opt.step(master, {"w": Tensor.from_array([0.1], DType.F16)}, lr=0.1)

    def test_rejects_a_gradient_of_another_shape(self):
        opt = Optimizer("sgd")
        master = {"w": t32([1.0, 2.0])}
        with pytest.raises(ValueError, match=r"gradient shape \(1,\) != weight shape \(2,\)"):
            opt.step(master, {"w": t32([0.1])}, lr=0.1)
        assert np.array_equal(master["w"].f32(), [1.0, 2.0])

    def test_slots_stay_fp32(self):
        opt = Optimizer("adam")
        master = {"w": t32(np.ones(3))}
        opt.step(master, {"w": t32(np.ones(3))}, lr=0.1)
        for per_var in opt.slots.values():
            for arr in per_var.values():
                assert arr.dtype == np.float32

    def test_snapshot_is_deep(self):
        opt = Optimizer("momentum")
        master = {"w": t32([1.0])}
        opt.step(master, {"w": t32([1.0])}, lr=0.1)
        snap = opt.snapshot()
        opt.step(master, {"w": t32([1.0])}, lr=0.1)
        assert snap["t"] == 1
        assert snap["slots"]["w"]["m"][0] == pytest.approx(1.0)
