"""Software emulation of IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).

Half values are carried as raw uint16 bit patterns so every reduced-precision
effect (rounding, underflow to subnormals/zero, overflow to inf) is exactly
reproducible on any host, independent of hardware float16 support.

Conversions use round-to-nearest-even. NaNs are canonicalized to a single
quiet NaN pattern; payloads carry no training semantics.
"""

from __future__ import annotations

import numpy as np

# Canonical quiet NaN emitted for every NaN input.
QNAN_BITS = 0x7E00
INF_BITS = 0x7C00
NEG_INF_BITS = 0xFC00
MAX_FINITE = 65504.0
MIN_NORMAL = 2.0 ** -14
MIN_SUBNORMAL = 2.0 ** -24

FINITE = "finite"
INFINITE = "infinite"
NAN = "nan"


def narrow(x) -> np.ndarray:
    """Round float32 value(s) to binary16 bit patterns (round-to-nearest-even).

    Accepts scalars or arrays; anything not already float32 is first coerced
    to float32 (the emulation's working precision), so a float64 input is
    rounded twice - once to float32, once to half - matching the contract
    that all host-side math is FP32.
    """
    f = np.asarray(x, dtype=np.float32)
    shape = f.shape
    bits = np.ascontiguousarray(f).reshape(-1).view(np.uint32)

    sign = ((bits >> 16) & np.uint32(0x8000)).astype(np.uint32)
    f_exp = bits & np.uint32(0x7F800000)
    f_man = bits & np.uint32(0x007FFFFF)

    out = np.zeros(bits.shape, dtype=np.uint32)

    # |x| >= 2^16: inf, nan, or overflow to signed inf.
    big = f_exp >= np.uint32(0x47800000)
    is_nan = (f_exp == np.uint32(0x7F800000)) & (f_man != 0)
    out[big] = sign[big] | np.uint32(INF_BITS)

    # |x| < 2^-14: subnormal half or signed zero.
    small = (f_exp <= np.uint32(0x38000000)) & ~big
    tiny = f_exp < np.uint32(0x33000000)  # |x| < 2^-25 -> signed zero
    sub = small & ~tiny
    if np.any(sub):
        e = (f_exp[sub] >> np.uint32(23)).astype(np.int64)
        sig = (np.uint32(0x00800000) | f_man[sub]).astype(np.int64)
        shift = 113 - e  # in [1, 11]
        # Bits dropped by the pre-shift must act as a sticky bit for the
        # round-to-even tie test below.
        sticky = (sig & ((np.int64(1) << shift) - 1)) != 0
        sig >>= shift
        rem = sig & 0x3FFF
        round_up = (rem != 0x1000) | sticky
        sig = np.where(round_up, sig + 0x1000, sig)
        out[sub] = sign[sub] | (sig >> 13).astype(np.uint32)
    out[tiny] = sign[tiny]

    # Normal range: rebias exponent, round mantissa at 13 bits; a rounding
    # carry spills into the exponent and, at the top, overflows to inf.
    norm = ~big & ~small
    if np.any(norm):
        h_exp = ((f_exp[norm] - np.uint32(0x38000000)) >> np.uint32(13)).astype(np.int64)
        sig = f_man[norm].astype(np.int64)
        rem = sig & 0x3FFF
        sig = np.where(rem != 0x1000, sig + 0x1000, sig)
        out[norm] = sign[norm] | (h_exp + (sig >> 13)).astype(np.uint32)

    out[is_nan] = np.uint32(QNAN_BITS)
    result = out.astype(np.uint16).reshape(shape)
    return result[()] if shape == () else result


def widen(h) -> np.ndarray:
    """Exact conversion of binary16 bit pattern(s) to float32 (no rounding)."""
    bits = np.asarray(h, dtype=np.uint16).astype(np.uint32)
    exp = (bits >> np.uint32(10)) & np.uint32(0x1F)
    man = (bits & np.uint32(0x3FF)).astype(np.float32)
    sign = np.where(bits & np.uint32(0x8000), np.float32(-1.0), np.float32(1.0))

    # Subnormals are man * 2^-24; normals are (1024+man) * 2^(exp-25).
    # Both products are exact in float32 (<= 11 significant bits).
    sub_val = man * np.float32(2.0 ** -24)
    norm_val = np.ldexp((man + np.float32(1024.0)).astype(np.float32), exp.astype(np.int32) - 25)
    val = np.where(exp == 0, sub_val, norm_val).astype(np.float32)

    special = exp == 31
    if np.any(special):
        val = np.where(special & (man == 0), np.float32(np.inf), val)
        val = np.where(special & (man != 0), np.float32(np.nan), val)
    out = (sign * val).astype(np.float32)
    return out[()] if out.shape == () else out


def f32_to_f16(x: float) -> int:
    """Scalar FP32 -> half bits under round-to-nearest-even."""
    return int(narrow(np.float32(x)))


def f16_to_f32(h: int) -> float:
    """Scalar half bits -> exact FP32 value."""
    return float(widen(np.uint16(h)))


def f16_binop(op: str, a: int, b: int) -> int:
    """Half arithmetic: widen both operands, apply the FP32 op, round once back.

    This widen/compute/narrow pipeline is the emulation's definition of
    "FP16 math"; overflow yields inf, invalid operations yield NaN.
    """
    fa = np.float32(widen(np.uint16(a)))
    fb = np.float32(widen(np.uint16(b)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if op == "add":
            r = fa + fb
        elif op == "sub":
            r = fa - fb
        elif op == "mul":
            r = fa * fb
        elif op == "div":
            r = fa / fb
        else:
            raise ValueError(f"unknown binop {op!r}")
    return int(narrow(r))


def f16_classify(h: int) -> str:
    """IEEE class of a half bit pattern: finite, infinite, or nan."""
    exp = (h >> 10) & 0x1F
    man = h & 0x3FF
    if exp != 0x1F:
        return FINITE
    return INFINITE if man == 0 else NAN


def narrow_host(x) -> np.ndarray:
    """Host-converter narrowing for hot array paths.

    Bit-identical to narrow() on every finite input and NaN-class-identical
    on NaNs; the equivalence is pinned exhaustively by the test suite, so the
    cheap C conversion can carry the per-op rounding during training.
    """
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float32).astype(np.float16)


def np16_to_bits(arr: np.ndarray) -> np.ndarray:
    """np.float16 value(s) -> uint16 bit patterns, in the input's exact shape.

    A pure reinterpretation of the binary16 bits (no rounding); 0-d input
    stays 0-d, like narrow() and widen().
    """
    return np.asarray(arr, dtype=np.float16).view(np.uint16)
