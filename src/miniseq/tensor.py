"""Dense tensors with FP16/FP32 element types, rounding and serialization.

FP16 tensors store np.float16 buffers whose bit patterns always come from the
halffloat conversion routines, never from host float16 arithmetic. Every
half-precision operation follows the widen/compute-in-FP32/round-once model;
matrix products and reductions (the Tape ops in autodiff) accumulate in FP32
regardless of input dtype.

Tensors are immutable by convention: operations return new tensors and no
public API mutates a buffer in place. An F16 tensor widens to FP32 once: f32()
keeps the widened array and marks it read-only, so a caller that writes into
it fails instead of corrupting the tensor.
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

    @property
    def code(self) -> int:
        """The byte that names this dtype in named-tensor records."""
        return 0 if self is DType.F16 else 1

    @staticmethod
    def from_code(code: int) -> "DType":
        if code not in (0, 1):
            raise ValueError(f"unknown dtype code {code}")
        return DType.F16 if code == 0 else DType.F32

    @property
    def wire(self) -> str:
        """The little-endian element type of named-tensor records."""
        return "<f2" if self is DType.F16 else "<f4"


class Tensor:
    """n-d array (row-major) tagged with an element dtype."""

    __slots__ = ("data", "dtype", "_f32")

    def __init__(self, data: np.ndarray, dtype: DType):
        if data.dtype != dtype.np_dtype:
            raise TypeError(f"buffer dtype {data.dtype} does not match {dtype}")
        self.data = np.ascontiguousarray(data)
        self.dtype = dtype
        self._f32 = None

    @staticmethod
    def from_array(arr, dtype: DType = DType.F32) -> "Tensor":
        """Build a tensor from any array-like, rounding through FP32.

        F16 construction narrows with round-to-nearest-even; values beyond
        the half range become signed inf, tiny values flush to signed zero.
        """
        return store(np.array(arr, dtype=np.float32), dtype)

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
        """The values as float32: an FP32 tensor's data, or an F16 tensor's
        exact widening, made on the first call and then shared read-only."""
        if self.dtype is DType.F32:
            return self.data
        if self._f32 is None:
            self._f32 = self.data.astype(np.float32)
            self._f32.flags.writeable = False
        return self._f32

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.f32().reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name})"


def store(f32_result, dtype: DType) -> Tensor:
    """Round an FP32 result into ``dtype`` once; FP32 results are not copied."""
    if dtype is DType.F32:
        return Tensor(np.asarray(f32_result, dtype=np.float32), DType.F32)
    return Tensor(hf.narrow_host(f32_result), DType.F16)


def cast(t: Tensor, to: DType) -> Tensor:
    """``t`` in dtype ``to``; ``t`` itself when it already has that dtype."""
    if t.dtype is to:
        return t
    return store(t.f32(), to)


# -- named-tensor serialization ----------------------------------------------
#
# Record layout (all integers little-endian):
#   name length u32 | name utf-8 | dtype byte (DType.code) | rank u32 |
#   extents u32 each | raw element bytes (little-endian)

def write_named_tensor(buf, name: str, t: Tensor) -> None:
    encoded = name.encode("utf-8")
    buf.write(struct.pack("<I", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<BI", t.dtype.code, t.data.ndim))
    for extent in t.shape:
        buf.write(struct.pack("<I", extent))
    buf.write(t.data.astype(t.dtype.wire, copy=False).tobytes(order="C"))


def read_named_tensor(buf) -> tuple[str, Tensor] | None:
    head = buf.read(4)
    if not head:
        return None
    (name_len,) = struct.unpack("<I", head)
    name = buf.read(name_len).decode("utf-8")
    dtype_byte, rank = struct.unpack("<BI", buf.read(5))
    dtype = DType.from_code(dtype_byte)
    shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(rank))
    count = int(np.prod(shape)) if shape else 1
    raw = buf.read(count * dtype.nbytes)
    arr = np.frombuffer(raw, dtype=dtype.wire).astype(dtype.np_dtype)
    return name, Tensor(arr.reshape(shape), dtype)
