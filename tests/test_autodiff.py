import warnings

import numpy as np
import pytest

from miniseq import halffloat as hf
from miniseq.autodiff import Tape, Variable, backward
from miniseq.tensor import DType, ShapeError, Tensor


def var(name, arr, dtype=DType.F32):
    return Variable(name, Tensor.from_array(arr, dtype))


def f16(arr):
    return Tensor.from_array(arr, DType.F16)


def f32(arr):
    return Tensor.from_array(arr, DType.F32)


def fd_grad(f, x, step=1e-3):
    """Central finite differences of scalar f at x, evaluated in float64."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2 * step)
        it.iternext()
    return g


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-4)
    return np.max(np.abs(a - b) / denom)


def analytic_grad(build, params):
    """Run a taped forward built by `build` and return grads + loss."""
    tape = Tape("float32")
    leaves = {k: tape.leaf(var(k, v)) for k, v in params.items()}
    loss = build(tape, leaves)
    grads = backward(tape, 1.0, loss=loss)
    return {k: g.f32() for k, g in grads.items()}, loss.item()


def check_primitive(build, shadow, shapes, n_points=20, seed=0, tol=1e-3):
    """Compare taped gradients against float64 finite differences.

    `shadow` re-implements the same scalar function in plain float64 numpy,
    independently of the tape, and takes a dict of arrays.
    """
    rng = np.random.default_rng(seed)
    for trial in range(n_points):
        params = {k: rng.uniform(-1.5, 1.5, size=s) for k, s in shapes.items()}
        grads, _ = analytic_grad(build, params)
        for k in shapes:
            def f(x, k=k):
                full = {n: np.asarray(v, dtype=np.float64) for n, v in params.items()}
                full[k] = x
                return shadow(full)
            assert rel_err(grads[k], fd_grad(f, params[k])) <= tol, f"{k} trial {trial}"


class TestFiniteDifferences:
    def test_matmul(self):
        check_primitive(
            lambda t, v: t.reduce_sum(t.matmul(v["a"], v["b"])),
            lambda p: float((p["a"] @ p["b"]).sum()),
            {"a": (3, 4), "b": (4, 2)},
        )

    def test_add_and_mul(self):
        check_primitive(
            lambda t, v: t.reduce_sum(t.mul(t.add(v["a"], v["b"]), v["c"])),
            lambda p: float(((p["a"] + p["b"]) * p["c"]).sum()),
            {"a": (4, 3), "b": (4, 3), "c": (4, 3)},
        )

    def test_bias_add(self):
        check_primitive(
            lambda t, v: t.reduce_sum(t.tanh(t.bias_add(v["x"], v["b"]))),
            lambda p: float(np.tanh(p["x"] + p["b"]).sum()),
            {"x": (5, 3), "b": (3,)},
        )

    def test_tanh_sigmoid_relu_scale(self):
        def build(t, v):
            h = t.scale(t.tanh(v["x"]), 0.7)
            return t.reduce_sum(t.mul(t.sigmoid(h), t.relu(v["y"])))

        def shadow(p):
            h = 0.7 * np.tanh(p["x"])
            return float((1 / (1 + np.exp(-h)) * np.maximum(p["y"], 0)).sum())

        # keep relu inputs away from the kink
        rng = np.random.default_rng(42)
        for trial in range(20):
            params = {
                "x": rng.uniform(-1.5, 1.5, size=(3, 3)),
                "y": rng.choice([-1.0, 1.0], size=(3, 3)) * rng.uniform(0.5, 1.5, size=(3, 3)),
            }
            grads, _ = analytic_grad(build, params)
            for k in params:
                def f(x, k=k):
                    full = {n: np.asarray(v, dtype=np.float64) for n, v in params.items()}
                    full[k] = x
                    return shadow(full)
                assert rel_err(grads[k], fd_grad(f, params[k])) <= 1e-3

    def test_embedding_gather(self):
        ids = np.array([[1, 3], [3, 0]])
        check_primitive(
            lambda t, v: t.reduce_sum(t.tanh(t.embedding_gather(v["table"], ids))),
            lambda p: float(np.tanh(p["table"][ids]).sum()),
            {"table": (4, 3)},
        )

    def test_concat_last_axis(self):
        check_primitive(
            lambda t, v: t.reduce_sum(t.tanh(t.concat_last_axis(v["a"], v["b"]))),
            lambda p: float(np.tanh(np.concatenate([p["a"], p["b"]], axis=-1)).sum()),
            {"a": (3, 2), "b": (3, 4)},
        )

    def test_stack_steps(self):
        def build(t, v):
            stacked = t.stack_steps([t.tanh(v["s0"]), t.tanh(v["s1"])])
            return t.reduce_sum(t.mul(stacked, stacked))

        def shadow(p):
            st = np.stack([np.tanh(p["s0"]), np.tanh(p["s1"])], axis=1)
            return float((st * st).sum())

        check_primitive(build, shadow, {"s0": (2, 3), "s1": (2, 3)})

    def test_attention_ops(self):
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])

        def build(t, v):
            scores = t.attn_scores(v["q"], v["s"])
            w = t.attn_weights(scores, mask)
            ctx = t.attn_context(w, v["s"])
            return t.reduce_sum(t.tanh(ctx))

        def shadow(p):
            scores = np.einsum("bh,bth->bt", p["q"], p["s"])
            e = np.exp(scores - np.max(np.where(mask > 0, scores, -np.inf), axis=-1, keepdims=True)) * mask
            w = e / e.sum(axis=-1, keepdims=True)
            ctx = np.einsum("bt,bth->bh", w, p["s"])
            return float(np.tanh(ctx).sum())

        check_primitive(build, shadow, {"q": (2, 4), "s": (2, 3, 4)})

    def test_softmax_cross_entropy(self):
        targets = np.array([[1, 0], [2, 2]])
        mask = np.array([[1.0, 1.0], [1.0, 0.0]])

        def build(t, v):
            return t.softmax_cross_entropy_with_mask(v["logits"], targets, mask)

        def shadow(p):
            x = p["logits"]
            z = x - x.max(axis=-1, keepdims=True)
            logz = np.log(np.exp(z).sum(axis=-1))
            b, t = np.indices(targets.shape)
            ce = logz - z[b, t, targets]
            return float((ce * mask).sum() / mask.sum())

        check_primitive(build, shadow, {"logits": (2, 2, 5)})

    def test_reduce_mean(self):
        check_primitive(
            lambda t, v: t.reduce_mean(t.mul(v["x"], v["x"])),
            lambda p: float((p["x"] * p["x"]).mean()),
            {"x": (4, 5)},
        )


class TestMixedForwardBits:
    """The Tape's F16 forward values against the bit-exact binary16 kernel."""

    def test_mul_matches_scalar_binop_model(self):
        # operands from 2^-13 to 2^13: some products flush, go subnormal or overflow
        rng = np.random.default_rng(2)
        xs, ys = rng.uniform(-1, 1, size=(2, 200)) * 2.0 ** rng.integers(-12, 13, size=(2, 200))
        tape = Tape("mixed")
        a = tape.constant(Tensor.from_array(xs, DType.F16))
        b = tape.constant(Tensor.from_array(ys, DType.F16))
        out = tape.mul(a, b)
        assert out.dtype is DType.F16
        expect = [hf.f16_binop("mul", int(x), int(y))
                  for x, y in zip(hf.np16_to_bits(a.data), hf.np16_to_bits(b.data))]
        assert hf.np16_to_bits(out.data).tolist() == expect

    def test_sigmoid_and_tanh_round_once(self):
        tape = Tape("mixed")
        x = tape.constant(Tensor.from_array(np.linspace(-4, 4, 97), DType.F16))
        x32 = x.f32()
        for out, y32 in ((tape.sigmoid(x), 1.0 / (1.0 + np.exp(-x32))),
                         (tape.tanh(x), np.tanh(x32))):
            assert out.dtype is DType.F16
            assert np.array_equal(hf.np16_to_bits(out.data), hf.narrow(y32))


class TestBackwardSemantics:
    def test_simple_chain_value(self):
        tape = Tape("float32")
        w = tape.leaf(var("w", [1.0, 2.0]))
        x = tape.constant(Tensor.from_array([3.0, 4.0]))
        loss = tape.reduce_sum(tape.mul(w, x))
        assert loss.item() == 11.0
        grads = backward(tape, 1.0)
        assert np.array_equal(grads["w"].f32(), [3.0, 4.0])

    def test_square_gradient(self):
        tape = Tape("float32")
        x = tape.leaf(var("x", [3.0]))
        loss = tape.reduce_sum(tape.mul(x, x))
        grads = backward(tape, 1.0, loss=loss)
        assert grads["x"].f32()[0] == 6.0

    def test_seed_linearity_fp32(self):
        rng = np.random.default_rng(0)

        def run(seed):
            tape = Tape("float32")
            a = tape.leaf(var("a", rng_state["a"]))
            b = tape.leaf(var("b", rng_state["b"]))
            loss = tape.reduce_mean(tape.tanh(tape.matmul(a, b)))
            return backward(tape, seed)

        rng_state = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        g1 = run(1.0)
        g1024 = run(1024.0)
        for k in g1:
            assert np.array_equal(g1024[k].f32(), 1024.0 * g1[k].f32())

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            tape = Tape("float32")
            a = tape.leaf(var("a", rng.normal(size=(4, 4))))
            b = tape.leaf(var("b", rng.normal(size=(4, 4))))
            loss = tape.reduce_mean(tape.tanh(tape.matmul(a, b)))
            return backward(tape, 3.0)

        g1, g2 = run(), run()
        for k in g1:
            assert np.array_equal(g1[k].f32().view(np.uint32), g2[k].f32().view(np.uint32))

    def test_untrainable_excluded(self):
        tape = Tape("float32")
        w = tape.leaf(var("w", [1.0]))
        c = tape.leaf(Variable("c", Tensor.from_array([2.0]), trainable=False))
        loss = tape.reduce_sum(tape.mul(w, c))
        grads = backward(tape)
        assert "w" in grads and "c" not in grads

    def test_mixed_mode_gradient_dtype(self):
        tape = Tape("mixed")
        w = tape.leaf(var("w", np.ones((2, 2)), DType.F16))
        x = tape.constant(Tensor.from_array(np.ones((2, 2)), DType.F16))
        loss = tape.reduce_mean(tape.matmul(w, x))
        grads = backward(tape, 1.0)
        assert grads["w"].dtype is DType.F16

    def test_nonfinite_gradients_propagate(self):
        tape = Tape("mixed")
        w = tape.leaf(var("w", [[2.0]], DType.F16))
        x = tape.constant(Tensor.from_array([[1.0]], DType.F16))
        loss = tape.reduce_sum(tape.matmul(w, x))
        grads = backward(tape, 2.0 ** 16)
        assert np.isinf(grads["w"].f32()).any()

    def test_cross_entropy_uniform_logits(self):
        tape = Tape("float32")
        logits = tape.leaf(var("l", np.zeros((1, 1, 2))))
        loss = tape.softmax_cross_entropy_with_mask(logits, np.array([[0]]), np.ones((1, 1)))
        grads = backward(tape, 1.0)
        assert np.allclose(grads["l"].f32(), [[[-0.5, 0.5]]])

    def test_masked_positions_no_loss_no_grad(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(2, 3, 4)).astype(np.float32)
        targets = np.array([[1, 2, 0], [0, 1, 3]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

        def run(logit_arr):
            tape = Tape("float32")
            l = tape.leaf(var("l", logit_arr))
            loss = tape.softmax_cross_entropy_with_mask(l, targets, mask)
            return loss.item(), backward(tape, 1.0)["l"].f32()

        loss_a, grad_a = run(base)
        perturbed = base.copy()
        perturbed[0, 2] += 100.0
        loss_b, grad_b = run(perturbed)
        assert loss_a == loss_b
        assert np.array_equal(grad_a[:, :2], grad_b[:, :2])
        assert np.all(grad_a[0, 2] == 0)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError):
            backward(Tape("float32"))


def tape_matmul(a: Tensor, b: Tensor, mode: str) -> Tensor:
    tape = Tape(mode)
    return tape.matmul(tape.constant(a), tape.constant(b))


class TestTapeMatmul:
    def test_identity(self):
        out = tape_matmul(f16(np.eye(2)), f16([[1, 2], [3, 4]]), "float32")
        assert out.dtype is DType.F32
        assert np.array_equal(out.f32(), [[1, 2], [3, 4]])

    def test_fp32_accumulation_beats_sequential_f16(self):
        # 4096 ones: FP32 accumulation is exact, while a sequential pure-F16
        # accumulator stalls once the ulp at the running sum exceeds 1.
        n = 4096
        for mode in ("float32", "mixed"):
            out = tape_matmul(f16(np.ones((1, n))), f16(np.ones((n, 1))), mode)
            assert out.f32()[0, 0] == 4096.0

        acc = hf.f32_to_f16(0.0)
        one = hf.f32_to_f16(1.0)
        for _ in range(n):
            acc = hf.f16_binop("add", acc, one)
        assert hf.f16_to_f32(acc) == 2048.0

    def test_zero_matrix(self):
        out = tape_matmul(f16(np.zeros((3, 2))), f16(np.ones((2, 4))), "mixed")
        assert out.dtype is DType.F16
        assert np.array_equal(out.f32(), np.zeros((3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tape_matmul(f32(np.ones((2, 3))), f32(np.ones((2, 3))), "float32")
        with pytest.raises(ShapeError):
            tape_matmul(f32(np.ones(3)), f32(np.ones((3, 2))), "float32")

    def test_f32_inputs_bit_equal_plain_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        out = tape_matmul(f32(a), f32(b), "float32")
        assert np.array_equal(out.f32(), np.matmul(a, b))

    def test_f16_error_bound(self):
        rng = np.random.default_rng(1)
        k = 64
        a16 = f16(rng.normal(size=(4, k)))
        b16 = f16(rng.normal(size=(k, 4)))
        got = tape_matmul(a16, b16, "float32").f32()
        exact = np.matmul(a16.f32().astype(np.float64), b16.f32().astype(np.float64))
        bound = k * 2.0 ** -11 * np.max(np.abs(a16.f32())) * np.max(np.abs(b16.f32()))
        assert np.max(np.abs(got - exact)) <= bound


ONES = np.ones((2, 3))


@pytest.mark.parametrize("op,operands,match", [
    ("add", (f32(ONES), f32(np.ones((3, 2)))), "add: shapes"),
    ("bias_add", (f32(ONES), f32(np.ones(2))), "bias_add: shapes"),
    ("bias_add", (f32(ONES), f32(np.ones((1, 3)))), "bias_add: shapes"),
    ("mul", (f32(ONES), f32(np.ones(3))), "mul: shapes"),
    ("embedding_gather", (f32(ONES), np.array([0, 2])), "embedding ids out of range"),
    ("embedding_gather", (f32(ONES), np.array([-1])), "embedding ids out of range"),
    ("concat_last_axis", (f32(ONES), f32(np.ones((3, 3)))), "concat: shapes"),
    ("attn_scores", (f32(ONES), f32(np.ones((2, 4, 2)))), "attn_scores: hidden"),
    ("softmax_cross_entropy_with_mask",
     (f32(np.ones((2, 3, 5))), np.zeros((2, 3), dtype=np.int64), np.ones((2, 2))),
     "cross entropy: logits/targets/mask shapes disagree"),
    ("softmax_cross_entropy_with_mask",
     (f32(np.ones((2, 3, 5))), np.zeros((3, 2), dtype=np.int64), np.ones((3, 2))),
     "cross entropy: logits/targets/mask shapes disagree"),
])
def test_ops_refuse_operands_of_mismatched_shapes(op, operands, match):
    with pytest.raises(ShapeError, match=match):
        getattr(Tape("float32"), op)(*operands)


def fan_in(mode, dtype, x_arr, consts, seed, through_op=False):
    """Gradient of x when ``sum_i scale(y, c_i)`` feeds reduce_sum.

    y is x itself, or scale(x, 1) when ``through_op``, so that the fan-in
    lands on an op's output instead of a leaf. backward() meets the scale ops
    in reverse, so y receives the contributions for consts[-1] first.
    """
    tape = Tape(mode)
    x = tape.leaf(var("x", x_arr, dtype))
    y = tape.scale(x, 1.0) if through_op else x
    terms = [tape.scale(y, c) for c in consts]
    total = terms[0]
    for t in terms[1:]:
        total = tape.add(total, t)
    tape.reduce_sum(total)
    return backward(tape, seed)["x"]


class TestFanIn:
    @pytest.mark.parametrize("through_op", [False, True])
    @pytest.mark.parametrize("case", ["tie", "random"])
    def test_mixed_sum_rounds_once(self, case, through_op):
        rng = np.random.default_rng(3)
        if case == "tie":
            # met in the order 1, 2^-11, 2^-11: 1 + 2^-11 is an F16 tie that
            # rounds to 1, so an F16 running sum loses both small terms
            x, consts, seed = np.ones(4), [2.0 ** -11, 2.0 ** -11, 1.0], 1.0
        else:
            x, consts, seed = rng.uniform(-1, 1, size=6), list(rng.uniform(-3, 3, size=3)), 1000.0
        g = fan_in("mixed", DType.F16, x, consts, seed, through_op)
        assert g.dtype is DType.F16
        # y's gradient, the seed, is rounded to F16 when the sum consumes it;
        # the scale products stay FP32 and only their sum is rounded
        g_out = hf.widen(hf.narrow(np.full(len(x), seed, dtype=np.float32)))
        parts = [g_out * np.float32(c) for c in reversed(consts)]
        acc = parts[0] + parts[1]
        acc += parts[2]
        assert np.array_equal(hf.np16_to_bits(g.data), hf.narrow(acc))

    @pytest.mark.parametrize("through_op", [False, True])
    def test_mixed_sum_survives_an_f16_overflowing_partial_sum(self, through_op):
        # met in the order 40000, 40000, -40000: an F16 running sum is inf
        # after the second term, the FP32 sum comes back to 40000
        g = fan_in("mixed", DType.F16, [2.0 ** -14], [-40000.0, 40000.0, 40000.0], 1.0,
                   through_op)
        assert g.f32()[0] == 40000.0

    @pytest.mark.parametrize("through_op", [False, True])
    def test_mixed_sum_of_f16_overflowing_contributions_is_finite(self, through_op):
        # met in the order -70000, 100000: each contribution alone would round
        # to an F16 inf, their FP32 sum 30000 is exact in F16
        g = fan_in("mixed", DType.F16, [0.5], [100.0, -70.0], 1000.0, through_op)
        assert g.f32()[0] == 30000.0

    def test_fp32_sum_is_left_to_right(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50)
        consts = [1.0, 3.0e7, -3.0e7, 0.1]
        seed = np.float32(1.7)
        g = fan_in("float32", DType.F32, x, consts, float(seed))
        parts = [np.full(50, seed * np.float32(c), dtype=np.float32) for c in reversed(consts)]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        assert np.array_equal(g.f32().view(np.uint32), acc.view(np.uint32))

    def test_shared_pass_through_gradients_are_not_mutated(self):
        # v's, w's and s's gradients are the loss seed tensor itself (add and
        # bias_add pass it through); x receives it first, then 3x it from scale
        tape = Tape("float32")
        x = tape.leaf(var("x", np.ones((2, 3))))
        w = tape.leaf(var("w", np.ones((2, 3))))
        b = tape.leaf(var("b", np.ones(3)))
        v = tape.scale(x, 3.0)
        s = tape.bias_add(x, b)
        u = tape.add(s, w)
        tape.reduce_sum(tape.add(u, v))
        grads = backward(tape, 1.0)
        assert np.array_equal(grads["w"].f32(), np.ones((2, 3)))
        assert np.array_equal(grads["x"].f32(), np.full((2, 3), 4.0))
        assert np.array_equal(grads["b"].f32(), np.full(3, 2.0))

    def test_inf_minus_inf_fan_in_is_silent(self):
        # a 2^16 seed rounds to F16 inf, so the contributions are +inf and -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for through_op in (False, True):
                g = fan_in("mixed", DType.F16, [0.5], [1.0, -1.0], 2.0 ** 16, through_op)
                assert np.isnan(g.f32()).all()


class TestRoundingPoints:
    def test_single_consumer_chain_rounds_once_per_op(self):
        rng = np.random.default_rng(5)
        x_arr, c, seed = rng.uniform(-2, 2, size=7), 0.7, 300.0
        tape = Tape("mixed")
        x = tape.leaf(var("x", x_arr, DType.F16))
        tape.reduce_sum(tape.tanh(tape.scale(x, c)))
        g = backward(tape, seed)["x"]
        # forward: each op rounds its FP32 result to F16
        c32 = np.float32(c)
        y = hf.widen(hf.narrow(hf.widen(hf.narrow(x_arr.astype(np.float32))) * c32))
        t = np.tanh(y)
        # backward: each op's input gradient rounded to F16 once
        g_t = hf.widen(hf.narrow(np.full(7, seed, dtype=np.float32)))
        g_y = hf.widen(hf.narrow(g_t * (1.0 - t * t)))
        g_x = hf.narrow(g_y * c32)
        assert g.dtype is DType.F16
        assert np.array_equal(hf.np16_to_bits(g.data), g_x)

    def test_mixed_model_backward_narrows_each_node_at_most_once(self, monkeypatch):
        from miniseq.blocks import CopyTask, ModelSpec, Seq2SeqModel

        spec = ModelSpec(encoder_params={"layers": 1, "hidden": 8, "emb_size": 6},
                         decoder_params={"hidden": 8, "emb_size": 6}, dtype="mixed")
        model = Seq2SeqModel(spec, vocab_size=16, seed=0)
        loss, tape = model.forward(CopyTask(vocab_size=16, seq_len=5, seed=0).batch(0, 3))
        # the nodes that get a gradient: the loss's ancestors, F16 ones rounded
        reached = {id(loss)}
        for op in reversed(tape.ops):
            if id(op.output) in reached:
                reached.update(id(n) for n in op.inputs)
        f16_nodes = {id(n) for op in tape.ops for n in [op.output, *op.inputs]
                     if id(n) in reached and n.dtype is DType.F16}
        calls = []
        narrow_host = hf.narrow_host
        monkeypatch.setattr(hf, "narrow_host", lambda a: calls.append(a) or narrow_host(a))
        grads = backward(tape, 1024.0, loss=loss)
        assert set(grads) == set(model.variables)
        assert 0 < len(calls) <= len(f16_nodes)


class TestTensorF32:
    def test_f16_widened_once_and_shared_read_only(self):
        tape = Tape("mixed")
        x = tape.constant(f16([0.5, -2.0, 3.0]))
        y = tape.tanh(x)
        for t in (x, y):
            first = t.f32()
            assert first.dtype == np.float32
            assert np.array_equal(first, t.data.astype(np.float32))
            assert t.f32() is first
            with pytest.raises(ValueError):
                first[0] = 1.0

    def test_fp32_tensor_returns_its_data(self):
        t = f32([1.0, 2.0])
        assert t.f32() is t.data
        assert t.data.flags.writeable

    def test_leaf_is_the_variable_value(self):
        tape = Tape("mixed")
        v = var("w", [1.0, 2.0], DType.F16)
        assert tape.leaf(v) is v.value
        assert tape.leaf(v) is v.value


class TestConstantOperand:
    def test_matmul_gives_no_gradient_to_a_constant(self):
        rng = np.random.default_rng(4)
        h, u = f16(np.zeros((3, 4))), f16(rng.uniform(-1, 1, size=(4, 4)))
        g = f16(rng.uniform(-1, 1, size=(3, 4)))
        tape = Tape("mixed")
        tape.matmul(tape.constant(h), tape.leaf(Variable("u", u)))
        # the same operand as a variable: the gradients a constant used to get
        ref = Tape("mixed")
        ref.matmul(ref.leaf(Variable("h", h)), ref.leaf(Variable("u", u)))
        g_h, g_u = tape.ops[0].backward(g)
        ref_h, ref_u = ref.ops[0].backward(g)
        assert g_h is None and ref_h is not None
        assert np.array_equal(g_u.f32().view(np.uint32), ref_u.f32().view(np.uint32))
        assert set(backward(tape, 1.0)) == {"u"}


class TestNoRecordTape:
    @staticmethod
    def every_op(tape, rng):
        """One call of every Tape op, on fixed random inputs; their outputs."""
        def leaf(name, *shape):
            return tape.leaf(Variable(name, Tensor.from_array(
                rng.uniform(-2, 2, size=shape), tape.model_dtype)))

        a, b, x = leaf("a", 3, 4), leaf("b", 4, 4), leaf("x", 3, 4)
        q, s, logits = leaf("q", 3, 4), leaf("s", 3, 5, 4), leaf("logits", 3, 2, 6)
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=np.float32)
        weights = tape.attn_weights(tape.attn_scores(q, s), mask)
        return [
            tape.matmul(a, b), tape.matmul(tape.constant(x), b), tape.add(a, x),
            tape.bias_add(x, leaf("bias", 4)), tape.mul(a, x), tape.scale(x, 0.37),
            tape.tanh(x), tape.sigmoid(x), tape.relu(x),
            tape.embedding_gather(b, np.array([[0, 3], [2, 2]])),
            tape.concat_last_axis(a, x), tape.stack_steps([a, x]),
            tape.attn_scores(q, s), weights, tape.attn_context(weights, s),
            tape.softmax_cross_entropy_with_mask(
                logits, np.array([[1, 5], [0, 2], [3, 3]]),
                np.array([[1, 1], [1, 0], [1, 1]], dtype=np.float32)),
            tape.reduce_mean(x), tape.reduce_sum(x),
        ]

    @pytest.mark.parametrize("mode", ["float32", "mixed"])
    def test_same_bits_and_nothing_recorded(self, mode):
        recording, idle = Tape(mode), Tape(mode, record=False)
        want = self.every_op(recording, np.random.default_rng(8))
        got = self.every_op(idle, np.random.default_rng(8))
        assert len(recording.ops) == len(want) + 1  # attn_weights' scores
        assert idle.ops == []
        for w, g in zip(want, got):
            assert g.dtype is w.dtype and g.shape == w.shape
            assert g.data.tobytes() == w.data.tobytes()
        with pytest.raises(ValueError, match="empty tape"):
            backward(idle, 1.0)

    def test_every_op_covers_every_public_op(self):
        tape = Tape("mixed")
        ops = {name for name, f in vars(Tape).items() if callable(f) and not name.startswith("_")}
        ops -= {"leaf", "constant", "activation_bytes"}
        called = set()
        for name in ops:
            method = getattr(tape, name)
            setattr(tape, name, lambda *a, _name=name, _method=method:
                    called.add(_name) or _method(*a))
        self.every_op(tape, np.random.default_rng(8))
        assert called == ops

    @pytest.mark.parametrize("record", [True, False])
    def test_an_op_that_only_emits_is_recorded_as_the_tape_says(self, record):
        def double(tape, x):
            return tape._emit("double", [x], f32(x.f32() * 2), lambda g: [f32(g.f32() * 2)])

        tape = Tape("float32", record=record)
        x = tape.leaf(var("x", np.arange(3.0)))
        out = double(tape, x)
        assert out.data.tolist() == [0.0, 2.0, 4.0]
        if record:
            assert [op.kind for op in tape.ops] == ["double"]
            assert backward(tape, 1.0)["x"].data.tolist() == [2.0, 2.0, 2.0]
        else:
            assert tape.ops == []


def _mask(rng, shape):
    """A 0/1 mask with the first position of every row valid."""
    m = (rng.uniform(size=shape) < 0.7).astype(np.float32)
    m[..., 0] = 1.0
    return m


def _softmax_ce(logits, targets, mask):
    z = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(z).sum(axis=-1))
    ce = logz - np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    return (ce * mask).sum() / mask.sum()


def _masked_softmax(x, mask):
    e = np.exp(x - np.max(np.where(mask > 0, x, -np.inf), axis=-1, keepdims=True)) * mask
    return e / e.sum(axis=-1, keepdims=True)


# op -> (tape op on leaves v and constants c, its float64 reference on one
# slice, one slice's leaf shapes, one slice's constants)
LEADING_AXIS_OPS = {
    "matmul": (lambda t, v, c: t.matmul(v["a"], v["b"]), lambda p, c: p["a"] @ p["b"],
               {"a": (3, 4), "b": (4, 2)}, lambda rng: {}),
    "bias_add": (lambda t, v, c: t.bias_add(v["x"], v["b"]), lambda p, c: p["x"] + p["b"],
                 {"x": (5, 3), "b": (3,)}, lambda rng: {}),
    "embedding_gather": (lambda t, v, c: t.embedding_gather(v["table"], c["ids"]),
                         lambda p, c: p["table"][c["ids"]], {"table": (4, 3)},
                         lambda rng: {"ids": rng.integers(0, 4, size=(2, 3))}),
    "stack_steps": (lambda t, v, c: t.stack_steps([v["s0"], v["s1"], v["s0"]]),
                    lambda p, c: np.stack([p["s0"], p["s1"], p["s0"]], axis=1),
                    {"s0": (2, 3), "s1": (2, 3)}, lambda rng: {}),
    "attn_scores": (lambda t, v, c: t.attn_scores(v["q"], v["s"]),
                    lambda p, c: np.einsum("bh,bth->bt", p["q"], p["s"]),
                    {"q": (2, 4), "s": (2, 3, 4)}, lambda rng: {}),
    "attn_weights": (lambda t, v, c: t.attn_weights(v["x"], c["mask"]),
                     lambda p, c: _masked_softmax(p["x"], c["mask"]),
                     {"x": (2, 3)}, lambda rng: {"mask": _mask(rng, (2, 3))}),
    "attn_context": (lambda t, v, c: t.attn_context(v["w"], v["s"]),
                     lambda p, c: np.einsum("bt,bth->bh", p["w"], p["s"]),
                     {"w": (2, 3), "s": (2, 3, 4)}, lambda rng: {}),
    "softmax_cross_entropy": (
        lambda t, v, c: t.softmax_cross_entropy_with_mask(v["logits"], c["targets"], c["mask"]),
        lambda p, c: _softmax_ce(p["logits"], c["targets"], c["mask"]),
        {"logits": (2, 3, 5)},
        lambda rng: {"targets": rng.integers(0, 5, size=(2, 3)), "mask": _mask(rng, (2, 3))}),
}
IS_LOSS = {"softmax_cross_entropy"}


class TestLeadingAxes:
    """K slices stacked on a leading axis: each op gives slice k what it gives slice k alone."""

    K = 3

    @staticmethod
    def slices(shapes, make_consts, k, seed):
        rng = np.random.default_rng(seed)
        params = [{n: rng.uniform(-1.5, 1.5, size=s) for n, s in shapes.items()}
                  for _ in range(k)]
        return params, [make_consts(rng) for _ in range(k)]

    @staticmethod
    def stacked(slices):
        return {n: np.stack([s[n] for s in slices]) for n in slices[0]}

    @pytest.mark.parametrize("name", sorted(LEADING_AXIS_OPS))
    def test_finite_differences_with_a_leading_axis(self, name):
        op, ref, shapes, make_consts = LEADING_AXIS_OPS[name]
        _, consts = self.slices(shapes, make_consts, self.K, 0)
        stacked_consts = self.stacked(consts)
        out = (lambda t, y: y) if name in IS_LOSS else (lambda t, y: t.tanh(y))
        fn = (lambda x: x) if name in IS_LOSS else np.tanh

        def shadow(p):
            return float(sum(fn(ref({n: a[k] for n, a in p.items()}, consts[k])).sum()
                             for k in range(self.K)))

        check_primitive(lambda t, v: t.reduce_sum(out(t, op(t, v, stacked_consts))), shadow,
                        {n: (self.K, *s) for n, s in shapes.items()}, n_points=4)

    @pytest.mark.parametrize("mode", ["float32", "mixed"])
    @pytest.mark.parametrize("name", sorted(LEADING_AXIS_OPS))
    def test_slice_k_is_bit_equal_to_the_op_on_slice_k(self, name, mode):
        op, _, shapes, make_consts = LEADING_AXIS_OPS[name]
        params, consts = self.slices(shapes, make_consts, self.K, 1)
        seeds = [2.0 ** e for e in np.random.default_rng(2).integers(-2, 6, size=self.K)]

        def g_out(k, shape):  # slice k's output gradient
            return np.random.default_rng((3, k)).uniform(-1, 1, size=shape)

        def run(p, c, k=None):
            tape = Tape(mode)
            dtype = tape.model_dtype
            leaves = {n: tape.leaf(Variable(n, Tensor.from_array(a, dtype))) for n, a in p.items()}
            y = op(tape, leaves, c)
            if name in IS_LOSS:
                return y, backward(tape, seeds if k is None else seeds[k], loss=y)
            g = (np.stack([g_out(j, y.shape[1:]) for j in range(self.K)]) if k is None
                 else g_out(k, y.shape))
            tape.reduce_sum(tape.mul(y, tape.constant(Tensor.from_array(g, dtype))))
            return y, backward(tape, 1.0)

        y_all, g_all = run(self.stacked(params), self.stacked(consts))
        for k in range(self.K):
            y_k, g_k = run(params[k], consts[k], k)
            want = y_k.data.reshape(-1) if name in IS_LOSS else y_k.data
            assert y_all.data[k].tobytes() == want.tobytes(), f"{name} output, slice {k}"
            for n in params[k]:
                assert g_all[n].data[k].tobytes() == g_k[n].data.tobytes(), f"d{n}, slice {k}"
