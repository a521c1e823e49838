"""Dense tensors with FP16/FP32 element types and mixed-precision kernels.

FP16 tensors store np.float16 buffers whose bit patterns always come from the
halffloat conversion routines, never from host float16 arithmetic. Every
half-precision operation follows the widen/compute-in-FP32/round-once model;
matrix products and reductions accumulate in FP32 regardless of input dtype.

Tensors are immutable by convention: operations return new tensors and no
public API mutates a buffer in place.
"""

from __future__ import annotations

import struct
from enum import Enum

import numpy as np

from . import halffloat as hf


class ShapeError(ValueError):
    pass


class DType(Enum):
    F16 = "float16"
    F32 = "float32"

    @property
    def nbytes(self) -> int:
        return 2 if self is DType.F16 else 4

    @property
    def np_dtype(self):
        return np.float16 if self is DType.F16 else np.float32


class Tensor:
    """n-d array (row-major) tagged with an element dtype."""

    __slots__ = ("data", "dtype")

    def __init__(self, data: np.ndarray, dtype: DType):
        if data.dtype != dtype.np_dtype:
            raise TypeError(f"buffer dtype {data.dtype} does not match {dtype}")
        self.data = np.ascontiguousarray(data)
        self.dtype = dtype

    @staticmethod
    def from_array(arr, dtype: DType = DType.F32) -> "Tensor":
        """Build a tensor from any array-like, rounding through FP32.

        F16 construction narrows with round-to-nearest-even; values beyond
        the half range become signed inf, tiny values flush to signed zero.
        """
        f32 = np.asarray(arr, dtype=np.float32)
        if dtype is DType.F32:
            return Tensor(f32.copy(), DType.F32)
        return Tensor(hf.narrow_host(f32), DType.F16)

    @staticmethod
    def zeros(shape, dtype: DType = DType.F32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype.np_dtype), dtype)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.nbytes

    def f32(self) -> np.ndarray:
        """Widen to a float32 ndarray (exact for F16 inputs)."""
        if self.dtype is DType.F32:
            return self.data
        return self.data.astype(np.float32)

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.f32().reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def _store(f32_result: np.ndarray, dtype: DType) -> Tensor:
    if dtype is DType.F32:
        return Tensor(np.asarray(f32_result, dtype=np.float32), DType.F32)
    return Tensor(hf.narrow_host(f32_result), DType.F16)


def cast(t: Tensor, to: DType) -> Tensor:
    """``t`` in dtype ``to``; ``t`` itself when it already has that dtype."""
    if t.dtype is to:
        return t
    return _store(t.f32(), to)


def matmul_mixed(a: Tensor, b: Tensor, out_dtype: DType) -> Tensor:
    """Matrix product with FP32 accumulation; inputs may be F16 or F32.

    Each product term widens its operands to FP32; the inner-dimension sum
    accumulates in FP32 and is rounded once when stored to F16 output.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    acc = np.matmul(a.f32(), b.f32())
    return _store(acc, out_dtype)


_UNARY = {
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "relu": lambda x: np.maximum(x, np.float32(0.0)),
    "neg": np.negative,
}
_BINARY = {"add": np.add, "mul": np.multiply}


def elementwise(op: str, *inputs, scalar: float | None = None) -> Tensor:
    """Pointwise ops in the one-rounding F16 model.

    Supported: add, mul (two tensors of identical shape, or one tensor and a
    scalar), tanh, sigmoid, relu, neg, and scale (tensor times a constant).
    Broadcasting beyond scalars is intentionally unsupported.
    """
    if op == "scale":
        (t,) = inputs
        return _store(t.f32() * np.float32(scalar), t.dtype)
    if op in _UNARY:
        (t,) = inputs
        with np.errstate(over="ignore"):
            return _store(_UNARY[op](t.f32()).astype(np.float32), t.dtype)
    if op in _BINARY:
        a, b = inputs
        if a.shape != b.shape and a.size != 1 and b.size != 1:
            raise ShapeError(f"elementwise {op}: shapes {a.shape} vs {b.shape}")
        if a.dtype is not b.dtype:
            raise TypeError(f"elementwise {op}: mixed dtypes {a.dtype} vs {b.dtype}")
        with np.errstate(over="ignore", invalid="ignore"):
            return _store(_BINARY[op](a.f32(), b.f32()), a.dtype)
    raise ValueError(f"unknown elementwise op {op!r}")


def reduce(op: str, t: Tensor, axis: int | None = None) -> Tensor:
    """sum / mean / max_abs with FP32 accumulation; result dtype is F32."""
    if axis is not None and not -t.data.ndim <= axis < t.data.ndim:
        raise ShapeError(f"axis {axis} invalid for shape {t.shape}")
    x = t.f32()
    if op == "sum":
        r = np.sum(x, axis=axis, dtype=np.float32)
    elif op == "mean":
        r = np.mean(x, axis=axis, dtype=np.float32)
    elif op == "max_abs":
        r = np.max(np.abs(x), axis=axis)
    else:
        raise ValueError(f"unknown reduce op {op!r}")
    return Tensor(np.asarray(r, dtype=np.float32), DType.F32)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax evaluated in FP32; output dtype F32."""
    x = t.f32()
    if np.isnan(x).any():
        raise ValueError("softmax input contains NaN")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted, dtype=np.float32)
    return Tensor((e / np.sum(e, axis=axis, keepdims=True, dtype=np.float32)).astype(np.float32), DType.F32)


# -- named-tensor serialization ----------------------------------------------
#
# Record layout (all integers little-endian):
#   name length u32 | name utf-8 | dtype byte (0=F16, 1=F32) | rank u32 |
#   extents u32 each | raw element bytes (little-endian)

_DTYPE_BYTE = {DType.F16: 0, DType.F32: 1}
_BYTE_DTYPE = {0: DType.F16, 1: DType.F32}


def write_named_tensor(buf, name: str, t: Tensor) -> None:
    encoded = name.encode("utf-8")
    buf.write(struct.pack("<I", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<BI", _DTYPE_BYTE[t.dtype], t.data.ndim))
    for extent in t.shape:
        buf.write(struct.pack("<I", extent))
    wire = "<f2" if t.dtype is DType.F16 else "<f4"
    buf.write(t.data.astype(wire, copy=False).tobytes(order="C"))


def read_named_tensor(buf) -> tuple[str, Tensor] | None:
    head = buf.read(4)
    if not head:
        return None
    (name_len,) = struct.unpack("<I", head)
    name = buf.read(name_len).decode("utf-8")
    dtype_byte, rank = struct.unpack("<BI", buf.read(5))
    dtype = _BYTE_DTYPE[dtype_byte]
    shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    raw = buf.read(count * dtype.nbytes)
    wire = "<f2" if dtype is DType.F16 else "<f4"
    arr = np.frombuffer(raw, dtype=wire).astype(dtype.np_dtype)
    return name, Tensor(arr.reshape(shape), dtype)
