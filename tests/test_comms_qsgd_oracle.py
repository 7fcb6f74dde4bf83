"""Bit parity of the QSGD codec with the encoder that clipped its levels.

``QSGDCodec.encode_delta`` used to clip the rounded levels to
``[0, 2^bits - 1]`` before packing them, and ``decode_delta`` cast the
unpacked levels to float64 before scaling them.  Under correct rounding
``|delta / scale| <= 1``, so every floor lies in range and a level at the
top has no fraction left to round up: the clip never binds.  The codec
now adds the round-up bit to the integer levels and multiplies them
straight into float64.  The codec as it was is frozen below, and the
library must produce the same wire bytes and the same decoded vectors
for every bit width, deltas spread over ten decades, and the degenerate
zero / NaN / inf scales.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.comms import QSGDCodec, codec_rng

pytestmark = pytest.mark.oracle  # runs on the oldest supported NumPy too (ci.yml)

_FROZEN_REVERSE = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[:, ::-1],
    axis=1,
).ravel()


def _frozen_grouped(values, per, dtype):
    groups = -(-values.shape[0] // per)
    out = np.zeros((groups, per), dtype=dtype)
    out.reshape(-1)[: values.shape[0]] = values
    return out


def _frozen_pack(q, bits):
    if bits == 8 or bits == 16:
        return _FROZEN_REVERSE[q.astype(f"<u{bits // 8}").view(np.uint8)].tobytes()
    if 8 % bits == 0:
        levels = _frozen_grouped(q, 8 // bits, np.uint8)
        out = levels[:, 0].copy()
        for i in range(1, levels.shape[1]):
            out |= levels[:, i] << (i * bits)
        return _FROZEN_REVERSE[out].tobytes()
    levels = _frozen_grouped(q, 8, np.uint32)
    out = np.zeros((levels.shape[0], bits), dtype=np.uint8)
    for i in range(8):
        byte, shift = divmod(i * bits, 8)
        window = levels[:, i] << shift
        for spill in range((shift + bits + 7) // 8):
            out[:, byte + spill] |= (window >> (8 * spill)).astype(np.uint8)
    return _FROZEN_REVERSE[out].tobytes()[: (q.shape[0] * bits + 7) // 8]


def _frozen_unpack(packed, count, bits):
    raw = _FROZEN_REVERSE[
        np.frombuffer(packed, dtype=np.uint8, count=(count * bits + 7) // 8)
    ]
    if bits == 8 or bits == 16:
        return raw.view(f"<u{bits // 8}")
    mask = (1 << bits) - 1
    if 8 % bits == 0:
        levels = np.empty((raw.shape[0], 8 // bits), dtype=np.uint8)
        for i in range(levels.shape[1]):
            levels[:, i] = (raw >> (i * bits)) & mask
        return levels.reshape(-1)[:count]
    stream = _frozen_grouped(raw, bits, np.uint32)
    levels = np.empty((stream.shape[0], 8), dtype=np.uint32)
    for i in range(8):
        byte, shift = divmod(i * bits, 8)
        window = stream[:, byte].copy()
        for spill in range(1, (shift + bits + 7) // 8):
            window |= stream[:, byte + spill] << (8 * spill)
        levels[:, i] = (window >> shift) & mask
    return levels.reshape(-1)[:count]


def frozen_encode(delta, entropy, bits):
    """The wire bytes of the clipping encoder."""
    delta = np.asarray(delta, dtype=np.float64)
    d = delta.shape[0]
    levels = (1 << bits) - 1
    wire = np.uint8 if bits <= 8 else np.uint16
    scale = float(np.max(np.abs(delta))) if d else 0.0
    if not np.isfinite(scale) or scale == 0.0:
        q = np.zeros(d, dtype=wire)
    else:
        u = delta / scale
        u += 1.0
        u *= 0.5 * levels
        base = np.floor(u)
        u -= base
        base += codec_rng(entropy).random(d) < u
        q = np.clip(base, 0, levels, out=base).astype(wire)
    return struct.pack("<d", scale) + _frozen_pack(q, bits)


def frozen_decode(buffer, n_params, bits):
    (scale,) = struct.unpack_from("<d", buffer, 0)
    if not np.isfinite(scale):
        return np.full(n_params, np.nan)
    if scale == 0.0:
        return np.zeros(n_params)
    packed = np.frombuffer(buffer, dtype=np.uint8, offset=8)
    out = _frozen_unpack(packed, n_params, bits).astype(np.float64)
    out *= 2.0 / ((1 << bits) - 1)
    out -= 1.0
    out *= scale
    return out


def _deltas(seed):
    """Deltas over ten decades of magnitude, some exactly at ``±scale``."""
    gen = np.random.default_rng(seed)
    d = int(gen.integers(1, 300))
    delta = gen.normal(size=d) * 10.0 ** gen.uniform(-5, 5, size=d)
    delta *= 10.0 ** gen.uniform(-100, 100)
    if d > 2:
        top = np.max(np.abs(delta))
        delta[gen.integers(d)] = -top  # a tie at the bottom level
    return delta


def _assert_codec_matches(delta, bits, entropy):
    codec = QSGDCodec(bits=bits)
    payload = codec.encode_delta(delta, entropy)
    want = frozen_encode(delta, entropy, bits)
    assert payload.buffer == want
    got = codec.decode_delta(payload, delta.shape[0])
    assert got.dtype == np.float64
    assert np.array_equal(got, frozen_decode(want, delta.shape[0], bits), equal_nan=True)


@pytest.mark.parametrize("bits", range(1, 17))
def test_random_deltas_over_ten_decades(bits):
    for seed in range(20):
        _assert_codec_matches(_deltas(seed), bits, (seed, bits, 3, 0))


@pytest.mark.parametrize("bits", range(1, 17))
def test_a_coordinate_at_the_top_level_never_rounds_past_it(bits):
    """``delta = ±scale`` lands on the top and bottom levels exactly."""
    delta = np.array([1.0, -1.0, 0.5, 1.0, -0.25, 1.0 - 2.0**-52]) * 3.7
    for seed in range(10):
        _assert_codec_matches(delta, bits, (seed, 0, 0, 0))


@pytest.mark.parametrize("bits", [1, 3, 8, 11, 16])
@pytest.mark.parametrize(
    "poison", [None, np.nan, np.inf, -np.inf], ids=["zero", "nan", "inf", "-inf"]
)
def test_degenerate_scales(bits, poison):
    delta = np.zeros(37)
    if poison is not None:
        delta[5] = 1.0
        delta[11] = poison
    _assert_codec_matches(delta, bits, (1, 2, 3, 4))
    _assert_codec_matches(np.zeros(0), bits, (1, 2, 3, 4))
