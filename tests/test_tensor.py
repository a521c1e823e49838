import io
import math

import numpy as np
import pytest

from miniseq import halffloat as hf
from miniseq.tensor import (
    DType,
    Tensor,
    cast,
    read_named_tensor,
    write_named_tensor,
)


def f16(arr):
    return Tensor.from_array(arr, DType.F16)


def f32(arr):
    return Tensor.from_array(arr, DType.F32)


class TestCast:
    def test_buffer_of_another_dtype_refused(self):
        with pytest.raises(TypeError, match="buffer dtype float64 does not match"):
            Tensor(np.zeros(2), DType.F32)
        with pytest.raises(TypeError, match="buffer dtype float32 does not match"):
            Tensor(np.zeros(2, dtype=np.float32), DType.F16)

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
