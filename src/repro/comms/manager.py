"""Server-side comms orchestration: payload round-trips, error feedback,
and wire-byte accounting.

One :class:`CommsManager` lives on the trainer and is handed to its round
executor at :meth:`~repro.runtime.executor.RoundExecutor.bind`.  The
executor's scheduler books each admission's downlink through
:meth:`CommsManager.record_dispatch` and passes each delivered batch
through :meth:`CommsManager.finalize_round` *before* returning it, so the
fault manager's finiteness quarantine, the aggregation step, and every
downstream consumer only ever see decoded updates.

Two encode placements
---------------------
*Device-side* (``ef=false``): the codec travels on the
:class:`~repro.runtime.executor.LocalTask` and
:func:`~repro.runtime.executor.solve_with_timings` encodes where the
solve ran.  On :class:`~repro.runtime.parallel.ParallelExecutor` this is
the lean IPC fast path — the update crosses the process boundary as the
encoded payload's single contiguous ``bytes`` buffer instead of a dense
float64 array — and the server merely decodes.

*Server-side* (``ef=true``, and any executor whose updates come back
dense, e.g. the cohort kernels): finalize encodes and immediately
decodes.  Error feedback forces this placement: the residual is shared
mutable per-client state that cannot live in worker processes without
shipping it back and forth — which would cost more bytes than it saves.

Both placements produce identical decoded updates for the same tasks
(encoding is a pure function of ``(update, w_global, entropy)``), so
histories agree across all four engines for any codec.

Error-feedback semantics
------------------------
With ``ef=true`` the transmitted delta is ``delta + residual`` and the
new residual is what the codec dropped:
``residual' = (delta + residual) - decode(encode(delta + residual))``.
Residuals update at transmission time — a later policy drop or
quarantine does not roll them back (the device did transmit) — and a
non-finite residual (a corruption fault poisoning the delta) resets to
empty rather than poisoning every subsequent round of that client.
Storage is one fixed-size slot per client that has transmitted, in an
unlinked temporary file (it honours ``TMPDIR``) opened at the first
error-feedback write.  What stays resident is one reused read buffer and
a ``client_id -> offset`` map, so the server's memory stays O(active
cohort) with error feedback on; the O(devices that transmitted) bytes
live in a file the kernel can write back.  A reset returns its slot to
a free list that the next new client reuses.  The file is closed when
the manager is collected, not by ``trainer.close()``: a closed trainer
may still run rounds.

Byte-accounting model
---------------------
``bytes_up`` counts each delivered payload's exact wire size;
``bytes_down`` counts one dense model broadcast (``8 * n_params``) per
*admitted* task, booked at admission — the downlink ships the uncompressed
global model regardless of codec, and a check-in later discarded as too
stale downloaded it too.  ``comms.compression_ratio`` is the round's dense
uplink cost over its actual uplink bytes.
"""

from __future__ import annotations

import tempfile
import time
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .codecs import DENSE_ITEMSIZE, Codec
from .config import CommsConfig, wire_stats

if TYPE_CHECKING:  # avoid circular imports with repro.core / repro.runtime
    from ..core.client import ClientUpdate


class _ResidualSpill:
    """Error-feedback residuals, one fixed-size slot per client in a file.

    The file is unlinked at creation, so nothing outlives the process; a
    mapped file would not do, because its resident pages count toward the
    process's RSS.  Every slot is as wide as the first residual written.
    """

    def __init__(self) -> None:
        self._offsets: Dict[int, int] = {}
        self._free: List[int] = []
        self._file = None
        self._buffer: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._offsets)

    def read(self, client_id: int) -> Optional[np.ndarray]:
        """The client's residual, in a buffer the next read overwrites."""
        offset = self._offsets.get(client_id)
        if offset is None:
            return None
        buffer = self._buffer
        self._file.seek(offset)
        if self._file.readinto(buffer) != buffer.nbytes:
            raise OSError(f"short read of client {client_id}'s residual")
        return buffer

    def write(self, client_id: int, residual: np.ndarray) -> None:
        """Store ``residual`` as the client's, in its slot or a new one."""
        if self._file is None:
            self._file = tempfile.TemporaryFile(buffering=0)
            weakref.finalize(self, self._file.close)
            self._buffer = np.empty_like(residual)
        elif residual.nbytes != self._buffer.nbytes:
            raise ValueError(
                f"residual of {residual.nbytes} bytes does not fit a "
                f"{self._buffer.nbytes}-byte slot"
            )
        offset = self._offsets.get(client_id)
        if offset is None:
            # With no free slot, every slot written so far is live.
            offset = (
                self._free.pop()
                if self._free
                else len(self._offsets) * residual.nbytes
            )
            self._offsets[client_id] = offset
        self._file.seek(offset)
        if self._file.write(residual) != residual.nbytes:
            raise OSError(f"short write of client {client_id}'s residual")

    def free(self, client_id: int) -> None:
        """Drop the client's residual; its slot goes to the next new client."""
        offset = self._offsets.pop(client_id, None)
        if offset is not None:
            self._free.append(offset)


class CommsManager:
    """Round-trips update payloads and accounts their wire bytes."""

    def __init__(self, config: CommsConfig) -> None:
        self.config = config
        self.codec: Optional[Codec] = config.build_codec()
        #: Error feedback is only meaningful for lossy codecs: a lossless
        #: round-trip leaves a zero residual, so identity runs keep the
        #: device-side fast path (and bit-exactness) even with ef=true.
        self.ef: bool = (
            bool(config.ef)
            and self.codec is not None
            and not self.codec.lossless
        )
        self._residuals = _ResidualSpill()
        self.bytes_up_total = 0
        self.bytes_down_total = 0
        self.dense_up_total = 0

    # Placement ----------------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        return self.codec is not None

    @property
    def device_side(self) -> bool:
        """Whether encoding runs where the solve runs (the IPC fast path)."""
        return self.enabled and not self.ef

    @property
    def task_codec(self) -> Optional[Codec]:
        """The codec to attach to dispatched tasks (``None`` ⇒ ship dense)."""
        return self.codec if self.device_side else None

    # Predicted sizes ------------------------------------------------------ #
    def upload_ratio(self, n_params: int) -> float:
        """Predicted uplink bytes over dense bytes (1.0 when disabled)."""
        if self.codec is None or n_params <= 0:
            return 1.0
        return self.codec.wire_nbytes(n_params) / (DENSE_ITEMSIZE * n_params)

    # Accounting ----------------------------------------------------------- #
    def record_dispatch(
        self,
        n_tasks: int,
        n_params: int,
        telemetry=None,
        round_idx: Optional[int] = None,
    ) -> None:
        """Account the downlink model broadcasts for admitted tasks."""
        down = n_tasks * DENSE_ITEMSIZE * n_params
        self.bytes_down_total += down
        if down and telemetry is not None and getattr(telemetry, "enabled", False):
            telemetry.metric(
                "comms.bytes_down", down, round_idx=round_idx, kind="counter"
            )

    @property
    def residual_clients(self) -> int:
        """Clients currently holding an error-feedback residual."""
        return len(self._residuals)

    def residual(self, client_id: int) -> Optional[np.ndarray]:
        """A copy of the client's pending error-feedback residual, if any."""
        residual = self._residuals.read(client_id)
        return None if residual is None else residual.copy()

    def stats(self) -> Dict[str, float]:
        """Cumulative wire accounting for this run (:func:`wire_stats`)."""
        return wire_stats(
            self.bytes_up_total,
            self.bytes_down_total,
            self.dense_up_total,
            len(self._residuals),
        )

    # Round-trip ----------------------------------------------------------- #
    def _roundtrip_server_side(self, update: "ClientUpdate") -> Tuple[int, float]:
        """Encode+decode a dense update in place.

        Returns the payload bytes and the clock reading between the two
        halves, so the caller can book encode and decode time separately.
        """
        codec = self.codec
        task = update.task
        if self.ef:
            # One scratch vector carries delta → transmitted → residual;
            # the stored residual is read into the spill's buffer.
            sent = update.w - task.w_global
            residual = self._residuals.read(update.client_id)
            if residual is not None:
                sent += residual
            payload = codec.encode_delta(sent, task.rng_entropy)
            t_encoded = time.perf_counter()
            decoded = codec.decode_delta(payload, sent.shape[0])
            residual = np.subtract(sent, decoded, out=sent)
            if np.all(np.isfinite(residual)):
                self._residuals.write(update.client_id, residual)
            else:
                # A poisoned delta (corruption fault) must not leave a
                # permanently-NaN accumulator behind; the device resets
                # its memory and the quarantine guard handles the update.
                self._residuals.free(update.client_id)
            decoded += task.w_global
            update.w = decoded
        else:
            payload = codec.encode_update(
                update.w, task.w_global, task.rng_entropy
            )
            t_encoded = time.perf_counter()
            update.w = codec.decode_update(payload, task.w_global)
        return payload.nbytes, t_encoded

    def finalize_round(
        self,
        updates: Sequence["ClientUpdate"],
        telemetry=None,
        round_idx: Optional[int] = None,
    ) -> None:
        """Decode every update in the batch and account its wire bytes.

        Each update is decoded against the task it carries — its own
        submit-round model and entropy, whichever round delivers it.
        Device-side-encoded updates (``update.payload`` set) are decoded;
        dense updates are round-tripped server-side (applying error
        feedback when enabled).  The downlink is not booked here: the
        scheduler books it at admission (:meth:`record_dispatch`).
        Spans and byte counters are booked to ``round_idx``, the round the
        engine is delivering in; a standalone caller that names none gets
        the round of the first update's task.
        """
        if self.codec is None or not updates:
            return
        from ..runtime.executor import task_round

        emit = telemetry is not None and getattr(telemetry, "enabled", False)
        if round_idx is None:
            round_idx = task_round(updates[0].task)
        n_params = updates[0].task.w_global.shape[0]

        encode_seconds = 0.0
        decode_seconds = 0.0
        batch_up = 0
        for update in updates:
            payload = getattr(update, "payload", None)
            if payload is not None:
                # Device-side encoded: the wire buffer is the update.
                t0 = time.perf_counter() if emit else 0.0
                update.w = self.codec.decode_update(payload, update.task.w_global)
                if emit:
                    decode_seconds += time.perf_counter() - t0
                update.payload = None
                nbytes = payload.nbytes
                if update.timings is not None:
                    encode_seconds += update.timings.get("comm_encode", 0.0)
            else:
                t0 = time.perf_counter() if emit else 0.0
                nbytes, t_encoded = self._roundtrip_server_side(update)
                if emit:
                    encode_seconds += t_encoded - t0
                    decode_seconds += time.perf_counter() - t_encoded
                if update.timings is not None:
                    update.timings["payload_bytes"] = float(nbytes)
            batch_up += nbytes
        dense_up = len(updates) * DENSE_ITEMSIZE * n_params
        self.bytes_up_total += batch_up
        self.dense_up_total += dense_up

        if emit:
            telemetry.record_span(
                "comm:encode", encode_seconds, round_idx=round_idx,
                clients=len(updates), bytes=batch_up, codec=self.codec.spec(),
            )
            telemetry.record_span(
                "comm:decode", decode_seconds, round_idx=round_idx,
                clients=len(updates),
            )
            telemetry.metric(
                "comms.bytes_up", batch_up, round_idx=round_idx,
                kind="counter",
            )
            if batch_up:
                telemetry.metric(
                    "comms.compression_ratio", dense_up / batch_up,
                    round_idx=round_idx, kind="gauge",
                )
