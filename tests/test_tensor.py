import io
import math

import numpy as np
import pytest

from miniseq import halffloat as hf
from miniseq.tensor import (
    DType,
    ShapeError,
    Tensor,
    cast,
    elementwise,
    matmul_mixed,
    read_named_tensor,
    reduce,
    softmax,
    write_named_tensor,
)


def f16(arr):
    return Tensor.from_array(arr, DType.F16)


def f32(arr):
    return Tensor.from_array(arr, DType.F32)


class TestMatmulMixed:
    def test_identity(self):
        a = f16(np.eye(2))
        b = f16([[1, 2], [3, 4]])
        out = matmul_mixed(a, b, DType.F32)
        assert out.dtype is DType.F32
        assert np.array_equal(out.f32(), [[1, 2], [3, 4]])

    def test_fp32_accumulation_beats_sequential_f16(self):
        # 4096 ones: FP32 accumulation is exact, while a sequential pure-F16
        # accumulator stalls once the ulp at the running sum exceeds 1.
        n = 4096
        a = f16(np.ones((1, n)))
        b = f16(np.ones((n, 1)))
        out = matmul_mixed(a, b, DType.F32)
        assert out.f32()[0, 0] == 4096.0

        acc = hf.f32_to_f16(0.0)
        one = hf.f32_to_f16(1.0)
        for _ in range(n):
            acc = hf.f16_binop("add", acc, one)
        assert hf.f16_to_f32(acc) == 2048.0

    def test_zero_matrix(self):
        a = f16(np.zeros((3, 2)))
        b = f16(np.ones((2, 4)))
        assert np.array_equal(matmul_mixed(a, b, DType.F16).f32(), np.zeros((3, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul_mixed(f32(np.ones((2, 3))), f32(np.ones((2, 3))), DType.F32)

    def test_f32_inputs_bit_equal_plain_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7)).astype(np.float32)
        b = rng.normal(size=(7, 3)).astype(np.float32)
        out = matmul_mixed(f32(a), f32(b), DType.F32)
        assert np.array_equal(out.f32(), np.matmul(a, b))

    def test_f16_error_bound(self):
        rng = np.random.default_rng(1)
        k = 64
        a16 = f16(rng.normal(size=(4, k)))
        b16 = f16(rng.normal(size=(k, 4)))
        got = matmul_mixed(a16, b16, DType.F32).f32()
        exact = np.matmul(a16.f32().astype(np.float64), b16.f32().astype(np.float64))
        bound = k * 2.0 ** -11 * np.max(np.abs(a16.f32())) * np.max(np.abs(b16.f32()))
        assert np.max(np.abs(got - exact)) <= bound


class TestElementwise:
    def test_relu_and_tanh(self):
        assert elementwise("relu", f32([-1.5])).f32()[0] == 0.0
        assert elementwise("tanh", f32([0.0])).f32()[0] == 0.0

    def test_f16_add_one_rounding_per_element(self):
        ones = f16(np.ones(2048))
        out = elementwise("add", ones, ones)
        assert out.dtype is DType.F16
        assert np.all(out.f32() == 2.0)

    def test_f16_matches_scalar_binop_model(self):
        rng = np.random.default_rng(2)
        a = f16(rng.uniform(-100, 100, size=63))
        b = f16(rng.uniform(-100, 100, size=63))
        out = elementwise("mul", a, b)
        for i in range(63):
            expect = hf.f16_binop(
                "mul", int(hf.np16_to_bits(a.data)[i]), int(hf.np16_to_bits(b.data)[i])
            )
            assert int(hf.np16_to_bits(out.data)[i]) == expect

    def test_scale_and_neg(self):
        t = f32([1.0, -2.0])
        assert np.array_equal(elementwise("scale", t, scalar=3.0).f32(), [3.0, -6.0])
        assert np.array_equal(elementwise("neg", t).f32(), [-1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            elementwise("add", f32(np.ones(3)), f32(np.ones(4)))

    def test_transcendental_f16_single_final_rounding(self):
        x = f16(np.linspace(-4, 4, 97))
        out = elementwise("sigmoid", x)
        expect = hf.narrow(1.0 / (1.0 + np.exp(-x.f32())))
        assert np.array_equal(hf.np16_to_bits(out.data), expect)


class TestCast:
    def test_same_dtype_returns_the_tensor_itself(self):
        for t in (f32([1.5, -2.0]), f16([1.5, -2.0])):
            assert cast(t, t.dtype) is t

    def test_overflow_to_inf(self):
        t = cast(f32([65520.0]), DType.F16)
        assert math.isinf(float(t.f32()[0]))

    def test_flush_to_zero(self):
        assert cast(f32([2.0 ** -26]), DType.F16).f32()[0] == 0.0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        t = f16(rng.normal(size=50))
        back = cast(cast(t, DType.F32), DType.F16)
        assert np.array_equal(hf.np16_to_bits(back.data), hf.np16_to_bits(t.data))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        t = f32(rng.normal(size=20))
        once = cast(t, DType.F16)
        twice = cast(once, DType.F16)
        assert np.array_equal(hf.np16_to_bits(once.data), hf.np16_to_bits(twice.data))


class TestReduce:
    def test_sum_and_max_abs(self):
        assert reduce("sum", f32([1, 2, 3])).item() == 6.0
        assert reduce("max_abs", f32([-3, 2])).item() == 3.0

    def test_mean_of_f16_ones_exact(self):
        t = f16(np.ones(4096))
        assert reduce("mean", t).item() == 1.0

    def test_result_dtype_is_f32(self):
        assert reduce("sum", f16(np.ones(5))).dtype is DType.F32

    def test_axis(self):
        t = f32([[1, 2], [3, 4]])
        assert np.array_equal(reduce("sum", t, axis=0).f32(), [4, 6])
        with pytest.raises(ShapeError):
            reduce("sum", t, axis=2)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(f32([0.0, 0.0]))
        assert np.allclose(out.f32(), [0.5, 0.5])

    def test_stabilized_no_overflow(self):
        out = softmax(f32([1000.0, 0.0]))
        assert np.array_equal(out.f32(), [1.0, 0.0])

    def test_matches_high_precision(self):
        x = np.array([1.0, 2.0, 3.0])
        out = softmax(f32(x)).f32()
        expect = np.exp(x - x.max())
        expect /= expect.sum()
        assert np.max(np.abs(out - expect)) < 1e-6
        assert abs(out.sum() - 1.0) < 1e-6

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax(f32([np.nan, 1.0]))


class TestSerialization:
    def test_round_trip_both_dtypes(self):
        rng = np.random.default_rng(5)
        tensors = {
            "enc/w": f32(rng.normal(size=(3, 4))),
            "dec/emb": f16(rng.normal(size=(7,))),
            "scalar": f32(2.5),
        }
        buf = io.BytesIO()
        for name, t in tensors.items():
            write_named_tensor(buf, name, t)
        buf.seek(0)
        seen = {}
        while (rec := read_named_tensor(buf)) is not None:
            seen[rec[0]] = rec[1]
        assert set(seen) == set(tensors)
        for name, t in tensors.items():
            got = seen[name]
            assert got.dtype is t.dtype
            assert got.shape == t.shape
            assert np.array_equal(got.data.view(np.uint16 if t.dtype is DType.F16 else np.uint32),
                                  t.data.view(np.uint16 if t.dtype is DType.F16 else np.uint32))

    def test_wire_bytes_layout(self):
        buf = io.BytesIO()
        write_named_tensor(buf, "w", f32([1.0]))
        raw = buf.getvalue()
        # u32 name len, name, dtype byte 1, rank u32 = 1, extent u32 = 1, 4 bytes
        assert raw[:4] == b"\x01\x00\x00\x00"
        assert raw[4:5] == b"w"
        assert raw[5] == 1
        assert raw[6:10] == b"\x01\x00\x00\x00"
        assert raw[10:14] == b"\x01\x00\x00\x00"
        assert raw[14:] == np.float32(1.0).tobytes()
