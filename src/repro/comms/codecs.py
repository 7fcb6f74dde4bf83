"""Update codecs: compact wire encodings of client model updates.

A federated round moves two kinds of traffic: the dense global model
``w_t`` broadcast to every selected device (downlink), and each device's
local result ``w_k^{t+1}`` shipped back (uplink).  The uplink is where
compression pays — there is one upload per participating device per round
— and it is what these codecs compress: a codec turns an update into a
:class:`WirePayload` (a contiguous ``bytes`` buffer plus byte count and
scalar metadata) and back.

Determinism contract
--------------------
Encoding is a pure function of ``(update, round-start model, entropy)``.
Stochastic codecs (QSGD) derive their randomness from the task's entropy
tuple plus a dedicated salt — disjoint from the mini-batch and corruption
streams — so every executor produces bit-identical payloads for the same
task, retries draw fresh rounding noise (their entropy carries the retry
salt and attempt index), and ledger replay re-derives identical wire
traffic.

Delta vs. raw encodings
-----------------------
Lossy codecs operate on the *delta* ``w - w_global`` (small, centered
near zero — the natural input for quantization and sparsification, and
the space in which error feedback accumulates).  The identity codec
instead ships the raw ``w`` bytes: ``w_global + (w - w_global)`` is not
bitwise ``w`` in floating point, and identity's contract is exact
passthrough — histories with the identity codec are bit-identical to
uncompressed runs.

Wire formats are explicit little-endian so payloads (and their byte
counts) are platform-independent.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

import numpy as np

# Entropy salt deriving a codec's randomness stream from a task's entropy
# tuple — disjoint from the mini-batch (no salt) and corruption
# (_CORRUPTION_SALT) streams, so enabling a stochastic codec never
# perturbs the solve it compresses.
COMMS_SALT = 0xC0DE

#: Bytes per dense float64 coordinate — the uncompressed baseline against
#: which compression ratios are measured.
DENSE_ITEMSIZE = 8


def codec_rng(entropy: Sequence[int]) -> np.random.Generator:
    """The codec randomness for one task, identical in any process."""
    return np.random.default_rng(
        np.random.SeedSequence([int(x) for x in entropy] + [COMMS_SALT])
    )


@dataclass(frozen=True)
class WirePayload:
    """One encoded update as it would cross the network.

    Attributes
    ----------
    codec:
        Spec of the codec that produced the payload (``"qsgd8"`` etc.).
    buffer:
        The packed wire bytes — a single contiguous ``bytes`` object, so
        shipping it across a process boundary pickles the raw buffer
        exactly once (no ndarray reduce round-trip).
    nbytes:
        ``len(buffer)`` — the accounted uplink size.
    meta:
        Codec-specific scalars (quantization bit width, kept-coordinate
        count, ...) for diagnostics; never needed to decode.
    """

    codec: str
    buffer: bytes
    nbytes: int
    meta: Dict[str, Any] = field(default_factory=dict)


class Codec(abc.ABC):
    """Encode/decode one client update to and from wire bytes.

    Subclasses implement the delta-space pair
    :meth:`encode_delta`/:meth:`decode_delta`; the update-space pair
    :meth:`encode_update`/:meth:`decode_update` wraps them with the
    ``w - w_global`` arithmetic (the identity codec overrides the update
    pair to pass raw bytes through bit-exactly).  :meth:`wire_nbytes`
    predicts the exact payload size for a given dimension *without*
    encoding — the async engine uses it to scale simulated upload times
    at admission, before any solve has run.
    """

    #: Canonical codec name (registry key prefix).
    name: str = ""
    #: Lossless codecs round-trip every update bit-exactly; error feedback
    #: is skipped for them (the residual is identically zero).
    lossless: bool = False

    @abc.abstractmethod
    def spec(self) -> str:
        """Short display spec (``"identity"``, ``"qsgd8"``, ``"topk64"``)."""

    @abc.abstractmethod
    def wire_nbytes(self, n_params: int) -> int:
        """Exact encoded payload size in bytes for a ``n_params`` vector."""

    @abc.abstractmethod
    def encode_delta(
        self, delta: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        """Encode a delta vector (update minus round-start model)."""

    @abc.abstractmethod
    def decode_delta(self, payload: WirePayload, n_params: int) -> np.ndarray:
        """Decode a payload back to a float64 delta vector."""

    def encode_update(
        self, w: np.ndarray, w_global: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        """Encode a local result against the round-start model."""
        return self.encode_delta(w - w_global, entropy)

    def decode_update(
        self, payload: WirePayload, w_global: np.ndarray
    ) -> np.ndarray:
        """Decode a payload back to the local result's iterate."""
        return w_global + self.decode_delta(payload, w_global.shape[0])


@dataclass(frozen=True)
class IdentityCodec(Codec):
    """Bit-identical passthrough: the dense update as raw float64 bytes.

    The parity anchor of the subsystem: byte accounting and the payload
    round-trip machinery run exactly as for lossy codecs, but the decoded
    update is bitwise the original (NaNs from corruption faults included),
    so identity-codec histories equal uncompressed histories on every
    executor.
    """

    name = "identity"
    lossless = True

    def spec(self) -> str:
        return "identity"

    def wire_nbytes(self, n_params: int) -> int:
        return DENSE_ITEMSIZE * n_params

    def encode_update(
        self, w: np.ndarray, w_global: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        buffer = np.ascontiguousarray(w, dtype="<f8").tobytes()
        return WirePayload(self.spec(), buffer, len(buffer))

    def decode_update(
        self, payload: WirePayload, w_global: np.ndarray
    ) -> np.ndarray:
        return np.frombuffer(payload.buffer, dtype="<f8").copy()

    def encode_delta(
        self, delta: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        buffer = np.ascontiguousarray(delta, dtype="<f8").tobytes()
        return WirePayload(self.spec(), buffer, len(buffer))

    def decode_delta(self, payload: WirePayload, n_params: int) -> np.ndarray:
        return np.frombuffer(payload.buffer, dtype="<f8").copy()


@dataclass(frozen=True)
class CastCodec(Codec):
    """Low-precision float cast of the delta (``fp16`` or ``fp32``).

    The simplest lossy codec: 2x (fp32) or 4x (fp16) smaller than dense
    float64, deterministic (no randomness), with IEEE round-to-nearest
    as the only loss.  fp16 overflows to ±inf for deltas beyond ~65504 —
    loud, finite-check-detectable damage, same as any diverging solve.
    """

    name = "cast"
    dtype: str = "fp16"

    _WIRE = {"fp16": "<f2", "fp32": "<f4"}

    def __post_init__(self) -> None:
        if self.dtype not in self._WIRE:
            raise ValueError(
                f"cast codec dtype must be one of {tuple(self._WIRE)}, "
                f"got {self.dtype!r}"
            )

    def spec(self) -> str:
        return self.dtype

    def wire_nbytes(self, n_params: int) -> int:
        return np.dtype(self._WIRE[self.dtype]).itemsize * n_params

    def encode_delta(
        self, delta: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        buffer = np.asarray(delta).astype(self._WIRE[self.dtype]).tobytes()
        return WirePayload(self.spec(), buffer, len(buffer))

    def decode_delta(self, payload: WirePayload, n_params: int) -> np.ndarray:
        wire = np.frombuffer(payload.buffer, dtype=self._WIRE[self.dtype])
        return wire.astype(np.float64)


@dataclass(frozen=True)
class QSGDCodec(Codec):
    """Seeded QSGD-style stochastic uniform quantization.

    Coordinates are mapped onto ``2^bits`` uniform levels spanning
    ``[-scale, scale]`` with ``scale = max|delta|``, rounded
    *stochastically* (up with probability equal to the fractional
    position) so quantization is unbiased:  ``E[decode(encode(v))] = v``.
    Levels bit-pack to exactly ``bits`` bits per coordinate; the wire
    format is an 8-byte float64 scale header followed by the packed
    level stream, so an 8-bit payload is ~8x smaller than dense float64.

    The per-coordinate error is bounded by one level width,
    ``2 * scale / (2^bits - 1)``.  A non-finite scale (a NaN- or
    inf-poisoned delta) encodes a zeroed level stream under the bad scale
    header and decodes to all-NaN — corruption faults stay loud through
    compression, deterministically.
    """

    name = "qsgd"
    bits: int = 8

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError(
                f"qsgd bit width must be in [1, 16], got {self.bits}"
            )

    @property
    def levels(self) -> int:
        """Highest quantization level (``2^bits - 1``)."""
        return (1 << self.bits) - 1

    def spec(self) -> str:
        return f"qsgd{self.bits}"

    def wire_nbytes(self, n_params: int) -> int:
        return 8 + (n_params * self.bits + 7) // 8

    def encode_delta(
        self, delta: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        delta = np.asarray(delta, dtype=np.float64)
        d = delta.shape[0]
        levels = self.levels
        wire = np.uint8 if self.bits <= 8 else np.uint16
        scale = float(np.max(np.abs(delta))) if d else 0.0
        if not np.isfinite(scale) or scale == 0.0:
            # Degenerate vectors carry no level information: an all-zero
            # stream under the (possibly non-finite) scale header decodes
            # to zeros or all-NaN respectively.
            q = np.zeros(d, dtype=wire)
        else:
            u = delta / scale
            u += 1.0
            u *= 0.5 * levels
            base = np.floor(u)
            u -= base  # fractional position: the round-up probability
            base += codec_rng(entropy).random(d) < u
            q = np.clip(base, 0, levels, out=base).astype(wire)
        buffer = struct.pack("<d", scale) + _pack_levels(q, self.bits)
        return WirePayload(
            self.spec(), buffer, len(buffer),
            meta={"bits": self.bits, "scale": scale},
        )

    def decode_delta(self, payload: WirePayload, n_params: int) -> np.ndarray:
        (scale,) = struct.unpack_from("<d", payload.buffer, 0)
        if not np.isfinite(scale):
            return np.full(n_params, np.nan)
        if scale == 0.0:
            return np.zeros(n_params)
        packed = np.frombuffer(payload.buffer, dtype=np.uint8, offset=8)
        out = _unpack_levels(packed, n_params, self.bits).astype(np.float64)
        out *= 2.0 / self.levels
        out -= 1.0
        out *= scale
        return out


@dataclass(frozen=True)
class TopKCodec(Codec):
    """Top-k magnitude sparsification with packed index+value encoding.

    Keeps the ``k`` largest-magnitude delta coordinates (coordinates
    tied at the smallest kept magnitude are taken in index order, so the
    kept set is identical everywhere), shipping them as sorted uint32
    indices plus float32 values — 8 wire bytes per kept coordinate after
    a 4-byte count header.  Dropped coordinates decode to zero; with
    error feedback enabled they accumulate in the sender's residual and
    ship in a later round.

    NaN coordinates sort as infinite magnitude, so a corruption fault's
    poisoned coordinates are always among the kept set — compression
    never silently launders a poisoned update past the finiteness guard.
    """

    name = "topk"
    k: int = 64

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"topk k must be >= 1, got {self.k}")

    def spec(self) -> str:
        return f"topk{self.k}"

    def wire_nbytes(self, n_params: int) -> int:
        return 4 + 8 * min(self.k, n_params)

    def encode_delta(
        self, delta: np.ndarray, entropy: Sequence[int]
    ) -> WirePayload:
        delta = np.asarray(delta, dtype=np.float64)
        d = delta.shape[0]
        k = min(self.k, d)
        if k == d:
            kept = np.arange(d)
        else:
            magnitude = np.abs(delta)
            magnitude[np.isnan(magnitude)] = np.inf
            # The k largest in O(d); which of several coordinates tied at
            # the boundary magnitude the partition picked is arbitrary, so
            # keep only the strictly larger ones and fill up with ties in
            # index order — the set a stable descending sort would keep.
            top = np.argpartition(magnitude, d - k)[d - k:]
            top_magnitude = magnitude[top]
            boundary = top_magnitude.min()
            above = top[top_magnitude > boundary]
            ties = np.flatnonzero(magnitude == boundary)[: k - above.shape[0]]
            kept = np.concatenate((above, ties))
            kept.sort()
        idx = kept.astype("<u4")
        vals = delta[kept].astype("<f4")
        buffer = struct.pack("<I", k) + idx.tobytes() + vals.tobytes()
        return WirePayload(
            self.spec(), buffer, len(buffer), meta={"k": int(k)}
        )

    def decode_delta(self, payload: WirePayload, n_params: int) -> np.ndarray:
        (k,) = struct.unpack_from("<I", payload.buffer, 0)
        idx = np.frombuffer(payload.buffer, dtype="<u4", count=k, offset=4)
        vals = np.frombuffer(
            payload.buffer, dtype="<f4", count=k, offset=4 + 4 * k
        )
        out = np.zeros(n_params)
        out[idx] = vals
        return out


# Level stream layout: level i occupies stream bits [i*bits, (i+1)*bits),
# least-significant bit first, and stream bit n is bit (7 - n % 8) of byte
# n // 8 — i.e. the LSB-first packing of the levels with every byte
# bit-reversed.  _BIT_REVERSE maps a byte to its reversal.
_BIT_REVERSE = np.packbits(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)[:, ::-1],
    axis=1,
).ravel()


def _grouped(values: np.ndarray, per: int, dtype) -> np.ndarray:
    """``values`` zero-padded to whole groups, as a ``(groups, per)`` array."""
    groups = -(-values.shape[0] // per)
    out = np.zeros((groups, per), dtype=dtype)
    out.reshape(-1)[: values.shape[0]] = values
    return out


def _pack_levels(q: np.ndarray, bits: int) -> bytes:
    """Bit-pack unsigned levels (< 2^bits) into a contiguous byte stream."""
    if bits == 8 or bits == 16:
        # Whole bytes, low byte first: only the in-byte bit order differs
        # from the levels' little-endian memory image.
        return _BIT_REVERSE[q.astype(f"<u{bits // 8}").view(np.uint8)].tobytes()
    if 8 % bits == 0:
        # 1/2/4 bits: 8 // bits levels share one byte.
        levels = _grouped(q, 8 // bits, np.uint8)
        out = levels[:, 0].copy()
        for i in range(1, levels.shape[1]):
            out |= levels[:, i] << (i * bits)
        return _BIT_REVERSE[out].tobytes()
    # Any other width: 8 levels fill ``bits`` whole bytes; a level that
    # straddles a byte boundary spills into the next one or two.
    levels = _grouped(q, 8, np.uint32)
    out = np.zeros((levels.shape[0], bits), dtype=np.uint8)
    for i in range(8):
        byte, shift = divmod(i * bits, 8)
        window = levels[:, i] << shift
        for spill in range((shift + bits + 7) // 8):
            out[:, byte + spill] |= (window >> (8 * spill)).astype(np.uint8)
    return _BIT_REVERSE[out].tobytes()[: (q.shape[0] * bits + 7) // 8]


def _unpack_levels(packed, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_levels` for ``count`` levels.

    ``packed`` is any buffer holding the stream's
    ``ceil(count * bits / 8)`` bytes (``bytes``, or a uint8 view into a
    payload); the table lookup is its only copy.
    """
    raw = _BIT_REVERSE[
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
    stream = _grouped(raw, bits, np.uint32)
    levels = np.empty((stream.shape[0], 8), dtype=np.uint32)
    for i in range(8):
        byte, shift = divmod(i * bits, 8)
        window = stream[:, byte].copy()
        for spill in range(1, (shift + bits + 7) // 8):
            window |= stream[:, byte + spill] << (8 * spill)
        levels[:, i] = (window >> shift) & mask
    return levels.reshape(-1)[:count]
