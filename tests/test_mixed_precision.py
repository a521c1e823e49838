import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniseq import halffloat as hf
from miniseq.autodiff import Tape, Variable, backward
from miniseq.mixed_precision import (
    BackoffScale,
    LogMaxScale,
    MixedPrecisionState,
    RegularizerRegistry,
    StaticScale,
    StepOutcome,
    apply_regularizer_grads,
    check_finite_all,
    global_grad_norm,
    init_master,
    make_scale_policy,
    memory_report,
    mp_step,
    unscale_to_f32,
)
from miniseq.optim import ContractViolation, Optimizer
from miniseq.tensor import DType, Tensor, cast


def f16var(name, arr):
    return Variable(name, Tensor.from_array(arr, DType.F16))


def bits(t):
    return hf.np16_to_bits(t.data) if t.dtype is DType.F16 else t.f32().view(np.uint32)


def tiny_grad_tape(values, mode="mixed"):
    """loss = mean(w * c): gradient of w is exactly c / len(c)."""
    tape = Tape(mode)
    dtype = tape.model_dtype
    w = tape.leaf(Variable("w", Tensor.from_array(np.ones_like(values), dtype)))
    c = tape.constant(Tensor.from_array(values, dtype))
    tape.reduce_mean(tape.mul(w, c))
    return tape


class TestInitMaster:
    def test_exact_widening(self):
        state = init_master({"w": f16var("w", [1.0])})
        assert state.master["w"].dtype is DType.F32
        assert state.master["w"].f32()[0] == 1.0

    def test_empty(self):
        assert init_master({}).master == {}

    def test_random_weights_round_trip_bits(self):
        rng = np.random.default_rng(0)
        vs = {f"w{i}": f16var(f"w{i}", rng.normal(size=17)) for i in range(5)}
        state = init_master(vs)
        for name, v in vs.items():
            back = cast(state.master[name], DType.F16)
            assert np.array_equal(bits(back), bits(v.value))


class TestScaledBackward:
    def test_scale_one_plain(self):
        tape = tiny_grad_tape(np.full(4, 0.25), mode="float32")
        g1 = backward(tape, loss_seed=1.0)
        assert np.all(g1["w"].f32() == np.float32(0.25 / 4))

    def test_underflow_rescued_by_scale(self):
        # true gradient 2^-26 = (2^-14)/4096: zero in F16 at scale 1,
        # 2^-16 (nonzero) at scale 2^10
        values = np.full(4096, 2.0 ** -14, dtype=np.float32)
        tape = tiny_grad_tape(values)
        g1 = backward(tape, loss_seed=1.0)
        assert np.all(g1["w"].f32() == 0.0)
        tape2 = tiny_grad_tape(values)
        gs = backward(tape2, loss_seed=2.0 ** 10)
        assert np.all(gs["w"].f32() == 2.0 ** -16)

    def test_overflow_at_large_scale(self):
        tape = tiny_grad_tape(np.full(1, 2.0))
        g = backward(tape, loss_seed=2.0 ** 16)
        assert np.isinf(g["w"].f32()).any()
        assert not check_finite_all(g)


class TestCheckFinite:
    def test_all_zero_true(self):
        g = {"w": Tensor.from_array(np.zeros(100), DType.F16)}
        assert check_finite_all(g)

    def test_single_inf_among_many(self):
        arr = np.zeros(10_000, dtype=np.float32)
        arr[7777] = np.inf
        assert not check_finite_all({"w": Tensor.from_array(arr, DType.F32)})

    def test_nan_detected(self):
        assert not check_finite_all({"w": Tensor.from_array([np.nan], DType.F32)})


class TestUnscale:
    def test_scale_one_is_exact_widening(self):
        g16 = {"w": Tensor.from_array([0.5, -2.0], DType.F16)}
        out = unscale_to_f32(g16, 1.0)
        assert out["w"].dtype is DType.F32
        assert np.array_equal(out["w"].f32(), [0.5, -2.0])

    def test_power_of_two_exact(self):
        g16 = {"w": Tensor.from_array([2.0 ** -16], DType.F16)}
        out = unscale_to_f32(g16, 2.0 ** 10)
        assert out["w"].f32()[0] == 2.0 ** -26

    def test_round_trip_within_f16_rounding_bound(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-1e-3, 1e-3, size=500).astype(np.float32)
        scale = 2.0 ** 12
        g16 = {"w": Tensor.from_array(g * scale, DType.F16)}
        rec = unscale_to_f32(g16, scale)["w"].f32()
        err = np.abs(rec - g) / np.maximum(np.abs(g), 1e-30)
        assert np.max(err) <= 2.0 ** -11

    def test_nonfinite_rejected(self):
        g16 = {"w": Tensor.from_array([np.inf], DType.F16)}
        with pytest.raises(ContractViolation):
            unscale_to_f32(g16, 2.0)


class TestRegularizer:
    def test_empty_registry_unchanged(self):
        state = init_master({"w": f16var("w", [1.0])})
        g = {"w": Tensor.from_array([0.5], DType.F32)}
        out = apply_regularizer_grads(state, g)
        assert np.array_equal(out["w"].f32(), [0.5])

    def test_zero_coefficient_rejected(self):
        reg = RegularizerRegistry()
        with pytest.raises(ValueError):
            reg.register("w", coeff=0.0)

    def test_duplicate_rejected(self):
        reg = RegularizerRegistry()
        reg.register("w", coeff=1e-4)
        with pytest.raises(ValueError):
            reg.register("w", coeff=1e-5)

    def test_added_term_values(self):
        reg = RegularizerRegistry()
        reg.register("w", coeff=1e-4)
        state = init_master({"w": f16var("w", [2.0, -4.0])}, registry=reg)
        g = {"w": Tensor.from_array([0.0, 0.0], DType.F32)}
        out = apply_regularizer_grads(state, g)
        assert np.allclose(out["w"].f32(), [2e-4, -4e-4], rtol=1e-6)

    def test_fp32_path_survives_where_f16_product_underflows(self):
        # lam=1e-5 on weight 1e-3: the F16 product flushes to zero while the
        # FP32 path keeps ~1e-8
        lam, w = 1e-5, 1e-3
        f16_prod = hf.f16_binop("mul", hf.f32_to_f16(lam), hf.f32_to_f16(w))
        assert hf.f16_to_f32(f16_prod) == 0.0

        reg = RegularizerRegistry()
        reg.register("w", coeff=lam)
        state = init_master({"w": f16var("w", [w])}, registry=reg)
        g = {"w": Tensor.from_array([0.0], DType.F32)}
        out = apply_regularizer_grads(state, g)
        assert out["w"].f32()[0] == pytest.approx(1e-8, rel=1e-2)
        assert out["w"].f32()[0] != 0.0

    def test_missing_gradient_rejected(self):
        reg = RegularizerRegistry()
        reg.register("w", coeff=1e-4)
        state = init_master({"w": f16var("w", [1.0])}, registry=reg)
        with pytest.raises(ContractViolation):
            apply_regularizer_grads(state, {})


class TestMpStep:
    def _build(self, scale_state, values=(0.25,)):
        var = f16var("w", np.full(4, 0.5))
        tape = Tape("mixed")
        w = tape.leaf(var)
        c = tape.constant(Tensor.from_array(np.full(4, values[0]), DType.F16))
        tape.reduce_sum(tape.mul(w, c))
        state = init_master(tape.variables, scale_state)
        return tape, state, var

    def test_applied_step_master_sync(self):
        tape, state, var = self._build(StaticScale(1.0))
        opt = Optimizer("sgd")
        out = mp_step(state, opt, lr=0.125, tape=tape)
        assert out.applied
        # value == cast(master, F16) bitwise
        assert np.array_equal(bits(var.value), bits(cast(state.master["w"], DType.F16)))
        assert var.value.f32()[0] == 0.5 - 0.125 * 0.25

    def test_injected_inf_skips_and_preserves_bytes(self):
        var = f16var("w", np.full(4, 0.5))
        tape = Tape("mixed")
        w = tape.leaf(var)
        c = tape.constant(Tensor.from_array([65504.0, 65504.0, 1.0, 1.0], DType.F16))
        tape.reduce_sum(tape.mul(tape.add(w, w), c))
        state = init_master(tape.variables, BackoffScale(scale=2.0 ** 15))
        opt = Optimizer("adam")
        before_w = bits(var.value).copy()
        before_master = state.master["w"].f32().copy()
        before_opt = opt.snapshot()
        out = mp_step(state, opt, lr=0.1, tape=tape)
        assert not out.applied
        assert np.array_equal(bits(var.value), before_w)
        assert np.array_equal(state.master["w"].f32(), before_master)
        assert opt.snapshot() == {"t": before_opt["t"], "slots": {}}
        assert state.scale_state.scale == 2.0 ** 14

    def test_fp32_and_mixed_agree_on_power_of_two_problem(self):
        # every intermediate is a power of two, so F16 rounding is exact
        def run(mode):
            dtype = DType.F16 if mode == "mixed" else DType.F32
            var = Variable("w", Tensor.from_array([0.5], dtype))
            tape = Tape(mode)
            w = tape.leaf(var)
            c = tape.constant(Tensor.from_array([0.25], dtype))
            tape.reduce_sum(tape.mul(w, c))
            if mode == "mixed":
                state = init_master(tape.variables, StaticScale(1.0))
                mp_step(state, Optimizer("sgd"), lr=0.125, tape=tape)
            else:
                grads = backward(tape, 1.0)
                master = {"w": var.value}
                Optimizer("sgd").step(master, grads, lr=0.125)
                var.value = master["w"]
            return float(var.value.f32()[0])

        assert run("float32") == run("mixed") == 0.5 - 0.125 * 0.25


class TestPolicies:
    def test_static_never_moves(self):
        p = StaticScale(10.0)
        p.on_overflow()
        p.on_good_step(1.0)
        assert p.scale == 10.0

    def test_backoff_halves_on_overflow(self):
        p = BackoffScale(scale=1024.0)
        assert p.on_overflow() == 512.0

    def test_backoff_grows_after_interval(self):
        p = BackoffScale(scale=1024.0, growth_interval=5)
        for _ in range(4):
            p.on_good_step()
        assert p.scale == 1024.0
        p.on_good_step()
        assert p.scale == 2048.0
        assert p.good_steps == 0

    def test_backoff_clamps(self):
        p = BackoffScale(scale=1.0, scale_min=1.0, scale_max=4.0, growth_interval=1)
        assert p.on_overflow() == 1.0
        p.on_good_step()
        p.on_good_step()
        p.on_good_step()
        assert p.scale == 4.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["overflow", "good"]), max_size=300))
    def test_backoff_matches_state_machine_model(self, events):
        interval = 7
        p = BackoffScale(scale=2.0 ** 10, growth_interval=interval,
                         scale_min=1.0, scale_max=2.0 ** 24)
        # shadow model: explicit counter arithmetic
        scale, good = 2.0 ** 10, 0
        for e in events:
            if e == "overflow":
                p.on_overflow()
                scale = max(scale / 2, 1.0)
                good = 0
            else:
                p.on_good_step()
                good += 1
                if good == interval:
                    scale = min(scale * 2, 2.0 ** 24)
                    good = 0
            assert p.scale == scale
            assert p.good_steps == good

    def test_logmax_steady_state_clamped(self):
        p = LogMaxScale(scale=2.0 ** 15, margin=2, scale_max=2.0 ** 24)
        for _ in range(500):
            p.on_good_step(2.0 ** -20)
        # formula asks for 2^33; clamp holds it at scale_max
        assert p.scale == 2.0 ** 24

    def test_logmax_unclamped_formula(self):
        p = LogMaxScale(scale=2.0 ** 15, margin=2, scale_max=2.0 ** 40)
        for _ in range(500):
            p.on_good_step(2.0 ** -20)
        assert p.scale == 2.0 ** 33

    def test_logmax_overflow_halves(self):
        p = LogMaxScale(scale=2.0 ** 15)
        assert p.on_overflow() == 2.0 ** 14

    def test_factory(self):
        assert isinstance(make_scale_policy("mixed", 10.0, None), StaticScale)
        assert make_scale_policy("mixed", None, None).scale == 1.0
        assert isinstance(make_scale_policy("mixed", None, "Backoff"), BackoffScale)
        assert isinstance(make_scale_policy("mixed", None, "LogMax"), LogMaxScale)
        with pytest.raises(ValueError):
            make_scale_policy("mixed", None, "Adaptive")


class TestScaleLinearityShadow:
    def test_fp32_unscale_recovers_exactly_for_power_of_two(self):
        rng = np.random.default_rng(2)
        for s in [1.0, 2.0, 2.0 ** 7, 2.0 ** 15]:
            tape = tiny_grad_tape(rng.normal(size=32).astype(np.float32), mode="float32")
            base = backward(tape, 1.0)
            scaled = backward(tape, s)
            rec = unscale_to_f32(scaled, s)
            for k in base:
                assert np.array_equal(rec[k].f32(), base[k].f32())


class TestMemoryReport:
    def test_categories_and_widths(self):
        def run(mode):
            dtype = DType.F16 if mode == "mixed" else DType.F32
            tape = Tape(mode)
            w = tape.leaf(Variable("w", Tensor.from_array(np.ones((8, 8)), dtype)))
            x = tape.constant(Tensor.from_array(np.ones((4, 8)), dtype))
            h = tape.tanh(tape.matmul(x, w))
            tape.reduce_mean(tape.mul(h, h))
            opt = Optimizer("adam")
            if mode == "mixed":
                state = init_master(tape.variables, StaticScale(1.0))
                mp_step(state, opt, lr=0.01, tape=tape)
            else:
                grads = backward(tape, 1.0)
                master = {"w": tape.variables["w"].value}
                opt.step(master, grads, lr=0.01)
            return memory_report(tape.variables, tape, opt, mode)

        mixed, full = run("mixed"), run("float32")
        assert mixed["weights"] * 2 == full["weights"]
        assert mixed["master"] == full["weights"]
        assert full["master"] == 0
        assert mixed["activations"] * 2 == full["activations"]
        assert mixed["gradients"] * 2 == full["gradients"]
        assert mixed["optimizer_state"] == full["optimizer_state"]


def test_grad_norm():
    g = {"a": Tensor.from_array([3.0], DType.F32), "b": Tensor.from_array([4.0], DType.F32)}
    assert global_grad_norm(g) == pytest.approx(5.0)
