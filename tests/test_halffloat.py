import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miniseq import halffloat as hf


def oracle_widen_all():
    """Host float16 -> float32 widening for all 65536 patterns (reference)."""
    bits = np.arange(65536, dtype=np.uint16)
    return bits.view(np.float16).astype(np.float32)


def oracle_narrow(f32_arr):
    """Host float32 -> float16 conversion (reference rounding path)."""
    with np.errstate(over="ignore"):
        return np.asarray(f32_arr, dtype=np.float32).astype(np.float16).view(np.uint16)


class TestWiden:
    def test_known_values(self):
        assert hf.f16_to_f32(0x3C00) == 1.0
        assert hf.f16_to_f32(0x0000) == 0.0
        assert hf.f16_to_f32(0x7BFF) == 65504.0
        assert hf.f16_to_f32(0x0001) == 2.0 ** -24
        assert hf.f16_to_f32(0x0400) == 2.0 ** -14
        assert hf.f16_to_f32(0x7C00) == math.inf
        assert hf.f16_to_f32(0xFC00) == -math.inf
        assert math.isnan(hf.f16_to_f32(0x7C01))
        assert math.copysign(1.0, hf.f16_to_f32(0x8000)) == -1.0

    def test_exhaustive_against_host_float16(self):
        bits = np.arange(65536, dtype=np.uint16)
        ours = hf.widen(bits)
        ref = oracle_widen_all()
        nan_ref = np.isnan(ref)
        assert np.array_equal(np.isnan(ours), nan_ref)
        assert np.array_equal(ours[~nan_ref], ref[~nan_ref])
        # signed zero preserved
        assert np.signbit(ours[0x8000])


class TestNarrow:
    def test_known_values(self):
        assert hf.f32_to_f16(1.0) == 0x3C00
        assert hf.f32_to_f16(0.0) == 0x0000
        assert hf.f32_to_f16(-0.0) == 0x8000
        # tie at the max-finite/overflow boundary goes to inf
        assert hf.f32_to_f16(65520.0) == 0x7C00
        assert hf.f32_to_f16(65519.99) == 0x7BFF
        assert hf.f32_to_f16(-65520.0) == 0xFC00
        assert hf.f32_to_f16(2.0 ** -24) == 0x0001
        # half of the smallest subnormal ties to zero
        assert hf.f32_to_f16(2.0 ** -25) == 0x0000
        assert hf.f32_to_f16(float(np.nextafter(np.float32(2.0 ** -25), np.float32(1)))) == 0x0001
        assert hf.f32_to_f16(math.inf) == 0x7C00
        assert hf.f32_to_f16(65504.0) == 0x7BFF
        assert hf.f16_classify(hf.f32_to_f16(math.nan)) == hf.NAN

    def test_roundtrip_identity_exhaustive(self):
        bits = np.arange(65536, dtype=np.uint16)
        back = hf.narrow(hf.widen(bits))
        nan_mask = np.array([hf.f16_classify(int(b)) == hf.NAN for b in bits])
        assert np.array_equal(back[~nan_mask], bits[~nan_mask])
        assert all(hf.f16_classify(int(b)) == hf.NAN for b in back[nan_mask])

    def test_against_host_conversion_on_half_grid_neighborhood(self):
        # Every rounding decision is pinned by testing, for each finite half
        # value, the surrounding float32 points: the value itself, the
        # midpoints to its neighbors, and one float32 ulp either side.
        bits = np.arange(65536, dtype=np.uint16)
        vals = oracle_widen_all()
        finite = ~(np.isnan(vals) | np.isinf(vals))
        v = vals[finite]
        mids = (v[:-1].astype(np.float64) + v[1:].astype(np.float64)) / 2.0
        mids32 = mids.astype(np.float32)
        probes = np.concatenate([
            v,
            mids32,
            np.nextafter(mids32, np.float32(np.inf)),
            np.nextafter(mids32, np.float32(-np.inf)),
        ])
        ours = hf.narrow(probes)
        ref = oracle_narrow(probes)
        assert np.array_equal(ours, ref)

    @settings(max_examples=300)
    @given(st.floats(width=32, allow_nan=False))
    def test_against_host_conversion_random(self, x):
        ours = hf.f32_to_f16(x)
        ref = int(oracle_narrow(np.float32(x))[()])
        assert ours == ref

    @settings(max_examples=200)
    @given(st.floats(min_value=-70000, max_value=70000, width=32))
    def test_monotone(self, x):
        y = float(np.nextafter(np.float32(x), np.float32(np.inf)))
        rx = hf.f16_to_f32(hf.f32_to_f16(x))
        ry = hf.f16_to_f32(hf.f32_to_f16(y))
        assert rx <= ry

    @settings(max_examples=200)
    @given(st.floats(min_value=2.0 ** -14, max_value=65504.0, width=32))
    def test_relative_rounding_bound_in_normal_range(self, x):
        r = hf.f16_to_f32(hf.f32_to_f16(x))
        assert abs(r - x) <= 2.0 ** -11 * abs(x)


class TestBinop:
    def test_add_rounds_to_even_at_2048(self):
        a = hf.f32_to_f16(2048.0)
        b = hf.f32_to_f16(1.0)
        assert hf.f16_to_f32(hf.f16_binop("add", a, b)) == 2048.0

    def test_mul_identity(self):
        one = hf.f32_to_f16(1.0)
        for x in [0.5, -3.25, 65504.0, 2.0 ** -24, 0.0]:
            h = hf.f32_to_f16(x)
            assert hf.f16_binop("mul", one, h) == h

    def test_add_overflow_to_inf(self):
        m = hf.f32_to_f16(65504.0)
        assert hf.f16_binop("add", m, m) == hf.INF_BITS

    def test_div_by_zero_and_invalid(self):
        one = hf.f32_to_f16(1.0)
        zero = hf.f32_to_f16(0.0)
        assert hf.f16_binop("div", one, zero) == hf.INF_BITS
        assert hf.f16_classify(hf.f16_binop("div", zero, zero)) == hf.NAN

    def test_matches_widen_op_narrow_contract(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(-1000, 1000, size=64).astype(np.float32)
        halves = [hf.f32_to_f16(float(x)) for x in vals]
        for op, fn in [("add", np.add), ("sub", np.subtract), ("mul", np.multiply), ("div", np.divide)]:
            for a, b in zip(halves[::2], halves[1::2]):
                wa, wb = np.float32(hf.f16_to_f32(a)), np.float32(hf.f16_to_f32(b))
                with np.errstate(all="ignore"):
                    expect = hf.f32_to_f16(float(fn(wa, wb)))
                got = hf.f16_binop(op, a, b)
                if hf.f16_classify(expect) == hf.NAN:
                    assert hf.f16_classify(got) == hf.NAN
                else:
                    assert got == expect

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            hf.f16_binop("pow", 0, 0)


class TestClassify:
    def test_classes(self):
        assert hf.f16_classify(0x7C00) == hf.INFINITE
        assert hf.f16_classify(0xFC00) == hf.INFINITE
        assert hf.f16_classify(0x7C01) == hf.NAN
        assert hf.f16_classify(0x0001) == hf.FINITE
        assert hf.f16_classify(0x0000) == hf.FINITE
        assert hf.f16_classify(0x7BFF) == hf.FINITE


def test_array_and_scalar_paths_agree():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-7e4, 7e4, size=257).astype(np.float32)
    arr_bits = hf.narrow(xs)
    for i, x in enumerate(xs):
        assert int(arr_bits[i]) == hf.f32_to_f16(float(x))


def test_np16_view_round_trip():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=100).astype(np.float32)
    h = hf.narrow(xs).view(np.float16)
    assert h.dtype == np.float16
    assert np.array_equal(hf.np16_to_bits(h), hf.narrow(xs))


def test_narrow_host_bit_identical_to_kernel():
    # The training hot path rides narrow_host; this pins it, bit for bit, to
    # the definitional kernel over every half value, every rounding boundary
    # between adjacent halves, and a wide random sweep.
    vals = oracle_widen_all()
    finite = ~(np.isnan(vals) | np.isinf(vals))
    v = vals[finite]
    mids = ((v[:-1].astype(np.float64) + v[1:].astype(np.float64)) / 2.0).astype(np.float32)
    rng = np.random.default_rng(9)
    rand = rng.uniform(-1e6, 1e6, size=100_000).astype(np.float32)
    small = (rng.uniform(-1, 1, size=100_000) * 2.0 ** -20).astype(np.float32)
    probes = np.concatenate([
        v, mids,
        np.nextafter(mids, np.float32(np.inf)),
        np.nextafter(mids, np.float32(-np.inf)),
        rand, small,
        np.array([np.inf, -np.inf, 0.0, -0.0, 65519.99, 65520.0, 2.0 ** -25], dtype=np.float32),
    ])
    host = hf.np16_to_bits(hf.narrow_host(probes))
    kernel = hf.narrow(probes)
    assert np.array_equal(host, kernel)
    # NaN agreement is by class (payloads are canonicalized by the kernel)
    assert hf.f16_classify(int(hf.np16_to_bits(hf.narrow_host(np.float32(np.nan)))[()])) == hf.NAN


@pytest.mark.parametrize("h", [
    np.array(1.5, dtype=np.float16),
    np.float16(-2.0),
    np.arange(5, dtype=np.float16),
    np.arange(12, dtype=np.float16).reshape(3, 4),
    np.arange(12, dtype=np.float16).reshape(3, 4)[:, ::2],
    np.arange(12, dtype=np.float16).reshape(3, 4).T,
], ids=["0d", "scalar", "1d", "2d", "strided", "transposed"])
def test_np16_to_bits_keeps_shape(h):
    bits = hf.np16_to_bits(h)
    assert bits.dtype == np.uint16
    assert bits.shape == np.shape(h)
    assert np.array_equal(bits, hf.narrow(np.asarray(h, dtype=np.float32)))


@pytest.mark.parametrize("x", [0.0, -0.0, 1.0, 65519.99, 65520.0, math.inf, -math.inf, 2.0 ** -25])
def test_np16_to_bits_scalar_matches_kernel(x):
    assert int(hf.np16_to_bits(hf.narrow_host(np.float32(x)))[()]) == hf.f32_to_f16(x)
