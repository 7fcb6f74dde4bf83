"""Communication-efficient update codecs: round-trips, parity, accounting.

The comms subsystem's contract has three load-bearing guarantees:

* **Identity parity** — the identity codec exercises the full payload
  machinery (encode, wire buffer, decode, byte accounting) yet yields
  histories bit-identical to uncompressed runs on every engine.
* **Executor independence** — lossy codecs derive their randomness from
  the task entropy tuple plus :data:`~repro.comms.COMMS_SALT`, so serial,
  parallel, and async engines produce identical payloads and identical
  compressed histories.
* **Replayability** — a compressed run's ledger manifest carries its
  ``CommsConfig``, so ``repro.trace replay`` re-derives identical wire
  traffic and a matching digest.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms import (
    COMMS_SALT,
    CastCodec,
    CommsConfig,
    CommsManager,
    IdentityCodec,
    QSGDCodec,
    TopKCodec,
    WirePayload,
    codec_rng,
    parse_comms_spec,
)
from repro.comms.codecs import _pack_levels, _unpack_levels
from repro.core import FederatedTrainer
from repro.core.config import TrainerConfig
from repro.models import MultinomialLogisticRegression
from repro.optim import SGDSolver

ENTROPY = (7, 3, 11, 0)


def _delta(d=257, seed=5, scale=0.05):
    return np.random.default_rng(seed).normal(scale=scale, size=d)


# --------------------------------------------------------------------- #
# Codec round-trip properties
# --------------------------------------------------------------------- #
class TestCodecRoundTrips:
    def test_identity_is_bitwise_exact(self):
        codec = IdentityCodec()
        w = _delta()
        w_global = _delta(seed=9)
        payload = codec.encode_update(w, w_global, ENTROPY)
        decoded = codec.decode_update(payload, w_global)
        assert decoded.dtype == np.float64
        assert np.array_equal(
            decoded.view(np.uint64), w.view(np.uint64)
        ), "identity must round-trip the exact bit pattern"

    def test_identity_preserves_nan_payloads(self):
        codec = IdentityCodec()
        w = _delta()
        w[13] = np.nan
        payload = codec.encode_update(w, _delta(seed=9), ENTROPY)
        decoded = codec.decode_update(payload, _delta(seed=9))
        assert np.isnan(decoded[13])

    @pytest.mark.parametrize("bits", [1, 2, 4, 8, 12, 16])
    def test_qsgd_error_within_level_width(self, bits):
        codec = QSGDCodec(bits=bits)
        delta = _delta()
        payload = codec.encode_delta(delta, ENTROPY)
        decoded = codec.decode_delta(payload, delta.shape[0])
        scale = np.max(np.abs(delta))
        bound = 2.0 * scale / codec.levels + 1e-12
        assert np.max(np.abs(decoded - delta)) <= bound

    def test_qsgd_is_deterministic_per_entropy(self):
        codec = QSGDCodec(bits=4)
        delta = _delta()
        p1 = codec.encode_delta(delta, ENTROPY)
        p2 = codec.encode_delta(delta, ENTROPY)
        assert p1.buffer == p2.buffer
        p3 = codec.encode_delta(delta, (7, 4, 11, 0))  # different round
        assert p3.buffer != p1.buffer

    def test_qsgd_rng_is_disjoint_from_batch_stream(self):
        # The codec stream must not collide with the unsalted batch rng.
        base = np.random.default_rng(
            np.random.SeedSequence([int(x) for x in ENTROPY])
        )
        assert codec_rng(ENTROPY).random() != base.random()
        assert COMMS_SALT == 0xC0DE

    def test_qsgd_zero_delta_round_trips_to_zero(self):
        codec = QSGDCodec(bits=8)
        payload = codec.encode_delta(np.zeros(31), ENTROPY)
        assert np.array_equal(codec.decode_delta(payload, 31), np.zeros(31))

    def test_qsgd_nan_delta_decodes_all_nan(self):
        codec = QSGDCodec(bits=8)
        delta = _delta(31)
        delta[3] = np.nan
        payload = codec.encode_delta(delta, ENTROPY)
        assert np.isnan(codec.decode_delta(payload, 31)).all()

    def test_topk_keeps_largest_and_zeroes_rest(self):
        codec = TopKCodec(k=4)
        delta = np.array([0.1, -5.0, 0.2, 4.0, -0.3, 3.0, 0.05, -2.0])
        decoded = codec.decode_delta(
            codec.encode_delta(delta, ENTROPY), delta.shape[0]
        )
        kept = np.nonzero(decoded)[0]
        assert set(kept) == {1, 3, 5, 7}
        assert decoded[1] == pytest.approx(-5.0, rel=1e-6)
        assert np.array_equal(decoded[[0, 2, 4, 6]], np.zeros(4))

    def test_topk_tie_break_is_stable_by_index(self):
        codec = TopKCodec(k=2)
        delta = np.array([1.0, -1.0, 1.0, 1.0])
        decoded = codec.decode_delta(codec.encode_delta(delta, ENTROPY), 4)
        assert set(np.nonzero(decoded)[0]) == {0, 1}

    def test_topk_keeps_nan_coordinates(self):
        codec = TopKCodec(k=1)
        delta = np.array([0.5, np.nan, 0.25])
        decoded = codec.decode_delta(codec.encode_delta(delta, ENTROPY), 3)
        assert np.isnan(decoded[1])

    def test_cast_fp16_and_fp32(self):
        delta = _delta()
        for dtype, tol in (("fp16", 1e-3), ("fp32", 1e-7)):
            codec = CastCodec(dtype=dtype)
            decoded = codec.decode_delta(
                codec.encode_delta(delta, ENTROPY), delta.shape[0]
            )
            assert np.max(np.abs(decoded - delta)) < tol

    @pytest.mark.parametrize(
        "codec",
        [
            IdentityCodec(),
            CastCodec("fp16"),
            CastCodec("fp32"),
            QSGDCodec(bits=1),
            QSGDCodec(bits=5),
            QSGDCodec(bits=8),
            TopKCodec(k=3),
            TopKCodec(k=1000),
        ],
    )
    def test_wire_nbytes_predicts_buffer_exactly(self, codec):
        delta = _delta(127)
        payload = codec.encode_delta(delta, ENTROPY)
        assert payload.nbytes == len(payload.buffer)
        assert payload.nbytes == codec.wire_nbytes(127)
        assert isinstance(payload.buffer, bytes)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            QSGDCodec(bits=0)
        with pytest.raises(ValueError):
            QSGDCodec(bits=17)
        with pytest.raises(ValueError):
            TopKCodec(k=0)
        with pytest.raises(ValueError):
            CastCodec(dtype="fp64")


# --------------------------------------------------------------------- #
# Wire-format pins: the kernels against the definitions they replaced
# --------------------------------------------------------------------- #
def _pack_levels_oracle(q, bits):
    """The level stream by definition: a (d, bits) bit matrix, LSB first
    inside a level, handed to ``packbits`` (MSB first inside a byte)."""
    if q.size == 0:
        return b""
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = ((q[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel()).tobytes()


def _unpack_levels_oracle(packed, count, bits):
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    raw = np.frombuffer(packed, dtype=np.uint8)
    stream = np.unpackbits(raw, count=count * bits)
    weights = (1 << np.arange(bits, dtype=np.uint32)).astype(np.uint32)
    return stream.reshape(count, bits).astype(np.uint32) @ weights


def _topk_encode_oracle(delta, k):
    """Top-k by definition: a full stable sort on descending magnitude."""
    delta = np.asarray(delta, dtype=np.float64)
    k = min(k, delta.shape[0])
    magnitude = np.abs(delta)
    magnitude = np.where(np.isnan(magnitude), np.inf, magnitude)
    order = np.argsort(-magnitude, kind="stable")[:k]
    idx = np.sort(order).astype("<u4")
    vals = delta[idx].astype("<f4")
    return struct.pack("<I", k) + idx.tobytes() + vals.tobytes()


#: Few distinct magnitudes, so ties at the kept/dropped boundary are the
#: common case; NaN and both infinities ride along.
_TIE_PRONE = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.nan, np.inf, -np.inf]
)


class TestWireFormatPins:
    def test_bit_order_is_lsb_in_level_msb_in_byte(self):
        """Hand-computed streams: a plain ``astype`` is not the format."""

        def u32(*levels):
            return np.array(levels, dtype=np.uint32)

        assert _pack_levels(u32(0x01, 0x02, 0x03, 0x81), 8).hex() == "8040c081"
        assert _pack_levels(u32(0x8001), 16).hex() == "8001"
        assert _pack_levels(u32(1, 2, 3, 0), 2).hex() == "9c"
        assert _pack_levels(u32(0x1, 0x8, 0xF), 4).hex() == "81f0"
        assert _pack_levels(u32(1, 0, 0, 0, 0, 0, 0, 1, 1), 1).hex() == "8180"
        assert _pack_levels(u32(0b001, 0b110, 0b100), 3).hex() == "8c80"

    @pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 1000, 7850])
    @pytest.mark.parametrize("bits", range(1, 17))
    def test_level_stream_matches_bit_matrix_definition(self, bits, d):
        rng = np.random.default_rng([bits, d])
        q = rng.integers(0, 1 << bits, size=d).astype(np.uint32)
        q[: min(d, 2)] = [0, (1 << bits) - 1][: min(d, 2)]
        packed = _pack_levels(q, bits)
        assert packed == _pack_levels_oracle(q, bits)
        assert len(packed) == (d * bits + 7) // 8
        assert np.array_equal(_unpack_levels(packed, d, bits), q)
        assert np.array_equal(_unpack_levels_oracle(packed, d, bits), q)

    @pytest.mark.parametrize("bits", [1, 3, 8, 11, 16])
    def test_qsgd_payload_is_header_plus_defined_stream(self, bits):
        """The whole payload, not just the helper: scale header + levels."""
        codec = QSGDCodec(bits=bits)
        delta = _delta(1000)
        payload = codec.encode_delta(delta, ENTROPY)
        (scale,) = struct.unpack_from("<d", payload.buffer, 0)
        assert scale == np.max(np.abs(delta))
        q = _unpack_levels_oracle(payload.buffer[8:], 1000, bits)
        assert payload.buffer[8:] == _pack_levels_oracle(q, bits)
        decoded = codec.decode_delta(payload, 1000)
        expected = scale * (q.astype(np.float64) * (2.0 / codec.levels) - 1.0)
        assert np.array_equal(decoded, expected)

    @pytest.mark.parametrize(
        "delta, k",
        [
            ([1.0, -1.0, 1.0, 1.0], 2),  # ties straddle the boundary
            ([3.0, 1.0, -1.0, 1.0, -3.0], 3),  # one tie slot, three ties
            ([0.0, 0.0, 0.0, 0.0], 2),  # all-zero
            ([0.0, -0.0, 0.0], 1),
            ([0.5, np.nan, 0.25, np.nan], 1),  # NaN ties with NaN
            ([np.inf, np.nan, -np.inf, 7.0], 2),  # NaN ranks as +inf
            ([np.inf, -np.inf, 1.0], 2),
            ([1.0, 2.0, 3.0], 3),  # k == d
            ([1.0, np.nan, 3.0], 64),  # k > d
            ([], 4),
        ],
    )
    def test_topk_matches_stable_sort_on_edge_cases(self, delta, k):
        delta = np.array(delta, dtype=np.float64)
        payload = TopKCodec(k=k).encode_delta(delta, ENTROPY)
        assert payload.buffer == _topk_encode_oracle(delta, k)
        assert payload.nbytes == TopKCodec(k=k).wire_nbytes(delta.shape[0])

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(_TIE_PRONE, min_size=1, max_size=40),
        k=st.integers(min_value=1, max_value=45),
    )
    def test_topk_matches_stable_sort_under_ties(self, values, k):
        delta = np.array(values, dtype=np.float64)
        payload = TopKCodec(k=k).encode_delta(delta, ENTROPY)
        assert payload.buffer == _topk_encode_oracle(delta, k)

    def test_topk_matches_stable_sort_at_model_size(self):
        delta = _delta(7850)
        delta[::97] = delta[3]  # a run of exact ties somewhere in the order
        for k in (1, 785, 7849):
            payload = TopKCodec(k=k).encode_delta(delta, ENTROPY)
            assert payload.buffer == _topk_encode_oracle(delta, k)

    @pytest.mark.parametrize("bits", [2, 8])
    def test_qsgd_is_unbiased(self, bits):
        """``E[decode(encode(x))] = x``: the mean over seeds closes in on x.

        Each coordinate's error lies within one level width ``h``, so by
        Hoeffding the mean of ``n`` independent draws strays from ``x`` by
        more than ``3h / sqrt(n)`` with probability below ``2e-8`` per
        coordinate; deterministic rounding would sit up to ``h / 2`` off.
        """
        codec = QSGDCodec(bits=bits)
        x = _delta(64)
        n = 400
        mean = np.zeros_like(x)
        for seed in range(n):
            payload = codec.encode_delta(x, (seed, 0, 0, 0))
            mean += codec.decode_delta(payload, x.shape[0])
        mean /= n
        h = 2.0 * np.max(np.abs(x)) / codec.levels
        assert np.max(np.abs(mean - x)) <= 3.0 * h / np.sqrt(n)


# --------------------------------------------------------------------- #
# Spec grammar + config round-trips
# --------------------------------------------------------------------- #
class TestCommsConfig:
    def test_parse_full_grammar(self):
        assert parse_comms_spec("comms:codec=qsgd,bits=6,ef=true") == {
            "codec": "qsgd", "bits": 6, "ef": True,
        }

    def test_parse_bare_codec_shorthand(self):
        assert parse_comms_spec("identity") == {"codec": "identity"}
        assert parse_comms_spec("comms:topk,k=32") == {
            "codec": "topk", "k": 32,
        }

    @pytest.mark.parametrize(
        "bad",
        ["comms:codec=huffman", "comms:bits=nope", "comms:what=1",
         "comms:codec=qsgd,codec=topk"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_comms_spec(bad)

    @pytest.mark.parametrize(
        "spec",
        ["comms", "identity", "fp16",
         "comms:codec=qsgd,bits=4,ef=true", "comms:codec=topk,k=16"],
    )
    def test_spec_round_trip(self, spec):
        config = CommsConfig.from_spec(spec)
        assert CommsConfig.from_spec(config.spec()) == config

    def test_dict_round_trip(self):
        config = CommsConfig(codec="qsgd", bits=6, ef=True)
        assert CommsConfig.from_dict(config.to_dict()) == config

    def test_resolve_accepts_none_config_and_spec(self):
        assert CommsConfig.resolve(None) == CommsConfig()
        cfg = CommsConfig(codec="topk", k=8)
        assert CommsConfig.resolve(cfg) is cfg
        assert CommsConfig.resolve("comms:codec=topk,k=8") == cfg

    def test_dense_is_disabled(self):
        assert not CommsConfig().enabled
        assert CommsConfig().build_codec() is None
        assert CommsConfig(codec="qsgd").enabled

    def test_trainer_config_carries_comms(self):
        tc = TrainerConfig.from_kwargs(comms="comms:codec=qsgd,bits=6")
        assert tc.comms.codec == "qsgd" and tc.comms.bits == 6
        rebuilt = TrainerConfig.from_dict(tc.to_dict())
        assert rebuilt.comms == tc.comms

    def test_trainer_config_from_dict_defaults_dense(self):
        # Pre-comms manifests (earlier schema-v2 ledgers) have no comms
        # section and must rebuild as dense transport.
        spec = TrainerConfig.from_kwargs().to_dict()
        spec.pop("comms")
        assert TrainerConfig.from_dict(spec).comms == CommsConfig()


# --------------------------------------------------------------------- #
# Error-feedback manager semantics
# --------------------------------------------------------------------- #
class TestErrorFeedback:
    @staticmethod
    def _task(client_id, w_global):
        from repro.runtime.executor import LocalTask

        return LocalTask(
            client_id=client_id, w_global=w_global, mu=0.0, epochs=1.0,
            rng_entropy=ENTROPY,
        )

    @staticmethod
    def _update(task, w):
        from repro.core.client import ClientUpdate

        return ClientUpdate(
            client_id=task.client_id, w=w, num_train=10, epochs=1.0,
            gradient_evaluations=5, task=task,
        )

    def test_residual_is_dropped_error(self):
        manager = CommsManager(CommsConfig(codec="topk", k=2, ef=True))
        codec = manager.codec

        w_global = np.zeros(6)
        task = self._task(4, w_global)
        delta = np.array([1.0, 0.9, 0.1, 0.2, 0.0, 0.0])
        update = self._update(task, w_global + delta)
        manager.finalize_round([update])
        residual = manager.residual(4)
        decoded = codec.decode_delta(
            codec.encode_delta(delta, ENTROPY), 6
        )
        assert np.allclose(residual, delta - decoded, atol=1e-6)
        # The dropped small coordinates are exactly what accumulated.
        assert residual[2] != 0.0 and residual[3] != 0.0

    def test_residual_ships_in_later_round(self):
        manager = CommsManager(CommsConfig(codec="topk", k=1, ef=True))
        w_global = np.zeros(3)
        task = self._task(0, w_global)
        u1 = self._update(task, np.array([1.0, 0.4, 0.0]))
        manager.finalize_round([u1])
        # Round 1 ships only coord 0; coord 1 waits in the residual.
        assert np.allclose(u1.w, [1.0, 0.0, 0.0], atol=1e-6)
        u2 = self._update(task, np.array([0.0, 0.1, 0.0]))
        manager.finalize_round([u2])
        # delta+residual = [0, 0.5, 0] -> coord 1 finally transmits.
        assert np.allclose(u2.w, [0.0, 0.5, 0.0], atol=1e-6)

    def test_nonfinite_residual_resets(self):
        manager = CommsManager(CommsConfig(codec="qsgd", bits=4, ef=True))
        w_global = np.zeros(4)
        task = self._task(1, w_global)
        good = self._update(task, np.array([0.5, -0.5, 0.25, 0.0]))
        manager.finalize_round([good])
        assert manager.residual(1) is not None
        bad = self._update(task, np.array([np.nan, 0.0, 0.0, 0.0]))
        manager.finalize_round([bad])
        assert manager.residual(1) is None
        assert np.isnan(bad.w).any()  # still loud for the quarantine

    def test_events_go_to_the_round_named_else_the_tasks_own(self):
        from repro.telemetry import InMemorySink, Telemetry

        manager = CommsManager(CommsConfig(codec="topk", k=2))
        sink = InMemorySink()
        telemetry = Telemetry([sink], run_id="comms")
        task = self._task(0, np.zeros(4))
        for round_idx in (9, None):  # an engine names its round; a bare call cannot
            manager.finalize_round(
                [self._update(task, np.ones(4))],
                telemetry=telemetry, round_idx=round_idx,
            )
        booked = [(e["name"], e["round"]) for e in sink.events if "round" in e]
        assert {r for _, r in booked[: len(booked) // 2]} == {9}
        assert {r for _, r in booked[len(booked) // 2 :]} == {ENTROPY[1]}

    def test_lossless_codec_skips_error_feedback(self):
        manager = CommsManager(
            CommsConfig(codec="identity", ef=True)
        )
        assert not manager.ef
        assert manager.device_side  # keeps the IPC fast path

    def test_upload_ratio_matches_wire_bytes(self):
        manager = CommsManager(CommsConfig(codec="qsgd", bits=8))
        assert manager.upload_ratio(1000) == pytest.approx(
            QSGDCodec(bits=8).wire_nbytes(1000) / 8000.0
        )
        assert CommsManager(CommsConfig()).upload_ratio(1000) == 1.0


# --------------------------------------------------------------------- #
# Engine parity + convergence (integration)
# --------------------------------------------------------------------- #
def _run(dataset, engine=None, comms=None, rounds=4, seed=1):
    model = MultinomialLogisticRegression(dim=60, num_classes=10)
    trainer = FederatedTrainer(
        dataset=dataset,
        model=model,
        solver=SGDSolver(0.01, batch_size=10),
        mu=1.0,
        clients_per_round=4,
        epochs=2,
        seed=seed,
        engine=engine,
        comms=comms,
    )
    try:
        history = trainer.run(rounds)
        return history, trainer.comms_stats
    finally:
        trainer.close()


def _histories_equal(a, b):
    assert len(a) == len(b)
    for r1, r2 in zip(a.records, b.records):
        assert r1.train_loss == r2.train_loss
        assert r1.test_accuracy == r2.test_accuracy
        assert r1.selected == r2.selected


class TestEngineParity:
    @pytest.mark.parametrize("engine", [None, "cohort", "async"])
    def test_identity_codec_bit_identical_per_engine(
        self, synthetic_small, engine
    ):
        dense, _ = _run(synthetic_small, engine=engine)
        ident, stats = _run(synthetic_small, engine=engine, comms="identity")
        _histories_equal(dense, ident)
        assert stats["compression_ratio"] == 1.0
        assert stats["bytes_up"] > 0 and stats["bytes_down"] > 0

    @pytest.mark.slow
    def test_identity_codec_bit_identical_parallel(self, synthetic_small):
        dense, _ = _run(synthetic_small, engine="parallel:2")
        ident, stats = _run(
            synthetic_small, engine="parallel:2", comms="identity"
        )
        _histories_equal(dense, ident)
        assert stats["compression_ratio"] == 1.0

    def test_qsgd_histories_agree_serial_vs_async(self, synthetic_small):
        spec = "comms:codec=qsgd,bits=8"
        serial, s_stats = _run(synthetic_small, comms=spec)
        hasync, a_stats = _run(synthetic_small, engine="async", comms=spec)
        _histories_equal(serial, hasync)
        assert s_stats["bytes_up"] == a_stats["bytes_up"]

    @pytest.mark.slow
    def test_qsgd_histories_agree_serial_vs_parallel(self, synthetic_small):
        spec = "comms:codec=qsgd,bits=8"
        serial, _ = _run(synthetic_small, comms=spec)
        par, _ = _run(synthetic_small, engine="parallel:2", comms=spec)
        _histories_equal(serial, par)

    def test_compression_shrinks_bytes(self, synthetic_small):
        _, stats = _run(
            synthetic_small, comms="comms:codec=qsgd,bits=8,ef=true"
        )
        assert stats["compression_ratio"] >= 4.0

    def test_ef_tracks_uncompressed_loss(self, synthetic_small):
        dense, _ = _run(synthetic_small, rounds=8)
        ef, stats = _run(
            synthetic_small, rounds=8,
            comms="comms:codec=qsgd,bits=8,ef=true",
        )
        dense_final = dense.records[-1].train_loss
        ef_final = ef.records[-1].train_loss
        assert abs(ef_final - dense_final) < 0.05 * max(1.0, dense_final)
        assert stats["residual_clients"] > 0

    def test_ef_beats_no_ef_for_aggressive_sparsification(
        self, synthetic_small
    ):
        # k=8 of 610 coordinates is aggressive enough that dropped mass
        # matters; error feedback must recover most of it.
        dense, _ = _run(synthetic_small, rounds=8)
        no_ef, _ = _run(
            synthetic_small, rounds=8, comms="comms:codec=topk,k=8"
        )
        with_ef, _ = _run(
            synthetic_small, rounds=8, comms="comms:codec=topk,k=8,ef=true"
        )
        target = dense.records[-1].train_loss
        assert abs(with_ef.records[-1].train_loss - target) <= abs(
            no_ef.records[-1].train_loss - target
        )


class TestPayloadTransport:
    def test_device_side_payload_crosses_ipc_once(self, synthetic_small):
        """The parallel worker ships the encoded buffer, not a dense array."""
        from repro.runtime.executor import LocalTask, solve_with_timings
        from repro.core.client import Client

        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        client = Client(
            synthetic_small[0], model, SGDSolver(0.01, batch_size=10)
        )
        w0 = np.zeros(model.n_params)
        task = LocalTask(
            client_id=0, w_global=w0, mu=1.0, epochs=1.0,
            rng_entropy=(1, 0, 0, 0), collect_timings=True,
            codec=QSGDCodec(bits=8),
        )
        update = solve_with_timings(client, task)
        assert update.w is None, "dense iterate must not ship"
        assert isinstance(update.payload, WirePayload)
        assert isinstance(update.payload.buffer, bytes)
        assert update.payload.nbytes == QSGDCodec(bits=8).wire_nbytes(
            w0.shape[0]
        )
        assert update.timings["payload_bytes"] == update.payload.nbytes
        assert "comm_encode" in update.timings

    def test_device_and_server_side_payloads_are_equal(self, synthetic_small):
        """Both encode placements produce byte-identical wire payloads."""
        from repro.runtime.executor import LocalTask, solve_with_timings
        from repro.core.client import Client

        codec = QSGDCodec(bits=8)
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        client = Client(
            synthetic_small[0], model, SGDSolver(0.01, batch_size=10)
        )
        w0 = np.zeros(model.n_params)

        def task(with_codec):
            return LocalTask(
                client_id=0, w_global=w0, mu=1.0, epochs=1.0,
                rng_entropy=(1, 0, 0, 0),
                codec=codec if with_codec else None,
            )

        device = solve_with_timings(client, task(True))
        dense = solve_with_timings(client, task(False))
        server = codec.encode_update(dense.w, w0, (1, 0, 0, 0))
        assert device.payload.buffer == server.buffer

    def test_async_upload_time_scales_with_wire_bytes(self, synthetic_small):
        """Smaller payloads arrive sooner: compression raises delivery."""
        from repro.telemetry import InMemorySink, Telemetry

        def delivered(comms):
            sink = InMemorySink()
            model = MultinomialLogisticRegression(dim=60, num_classes=10)
            trainer = FederatedTrainer(
                dataset=synthetic_small,
                model=model,
                solver=SGDSolver(0.01, batch_size=10),
                mu=1.0, clients_per_round=4, epochs=2, seed=1,
                engine="async:window=0,arrivals=seeded,latency=1.4,jitter=0.3",
                comms=comms,
                telemetry=Telemetry([sink]),
            )
            try:
                trainer.run(6)
            finally:
                trainer.close()
            return len(sink.spans("async:checkin"))

        assert delivered("comms:codec=qsgd,bits=2") >= delivered(None)


class TestLedgerReplay:
    def test_compressed_chaos_run_replays_bit_identically(self, tmp_path):
        from repro.datasets import make_synthetic
        from repro.faults.models import ChaosFaults
        from repro.telemetry import JSONLSink, Telemetry
        from repro.telemetry.replay import replay_run

        path = str(tmp_path / "run.jsonl")
        dataset = make_synthetic(0.5, 0.5, num_devices=10, seed=2, size_cap=100)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
        )
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(learning_rate=0.05, batch_size=8),
            clients_per_round=4, mu=0.1, epochs=1, seed=9,
            faults=ChaosFaults(rate=0.25, seed=3),
            comms="comms:codec=qsgd,bits=8,ef=true",
            telemetry=Telemetry([JSONLSink(path)], run_id="comms-chaos"),
        )
        try:
            trainer.run(4)
        finally:
            trainer.close()
        report = replay_run(path)
        assert report.matches, report
        assert report.recorded_digest == report.replayed_digest

    def test_async_compressed_run_replays(self, tmp_path):
        from repro.datasets import make_synthetic
        from repro.telemetry import JSONLSink, Telemetry
        from repro.telemetry.replay import replay_run

        path = str(tmp_path / "run.jsonl")
        dataset = make_synthetic(0.5, 0.5, num_devices=10, seed=2, size_cap=100)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
        )
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(learning_rate=0.05, batch_size=8),
            clients_per_round=4, mu=0.1, epochs=1, seed=9,
            engine="async:window=2",
            comms="comms:codec=topk,k=64",
            telemetry=Telemetry([JSONLSink(path)], run_id="comms-async"),
        )
        try:
            trainer.run(4)
        finally:
            trainer.close()
        report = replay_run(path)
        assert report.matches, report

    def test_manifest_carries_comms_section(self, tmp_path):
        from repro.datasets import make_synthetic
        from repro.telemetry import JSONLSink, Telemetry, load_run

        path = str(tmp_path / "run.jsonl")
        dataset = make_synthetic(0.5, 0.5, num_devices=8, seed=2, size_cap=80)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes, seed=1
        )
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.05, batch_size=8),
            clients_per_round=4, mu=0.1, epochs=1, seed=9,
            comms="comms:codec=topk,k=16",
            telemetry=Telemetry([JSONLSink(path)]),
        )
        try:
            trainer.run(2)
        finally:
            trainer.close()
        run = load_run(path)
        section = run.manifest["config"]["comms"]
        assert section["codec"] == "topk" and section["k"] == 16


class TestByteTelemetry:
    @staticmethod
    def _traced_run(dataset, comms):
        from repro.telemetry import InMemorySink, Telemetry

        sink = InMemorySink()
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        trainer = FederatedTrainer(
            dataset=dataset, model=model,
            solver=SGDSolver(0.01, batch_size=10),
            mu=1.0, clients_per_round=4, epochs=2, seed=1,
            comms=comms,
            telemetry=Telemetry([sink]),
        )
        try:
            trainer.run(2)
        finally:
            trainer.close()
        return sink

    def test_counters_and_spans_emitted(self, synthetic_small):
        sink = self._traced_run(synthetic_small, "comms:codec=qsgd,bits=8")
        up = sink.metrics("comms.bytes_up")
        down = sink.metrics("comms.bytes_down")
        ratios = sink.metrics("comms.compression_ratio")
        assert up and down and ratios
        assert all(e["value"] > 0 for e in up + down)
        assert all(e["value"] >= 4.0 for e in ratios)
        assert sink.spans("comm:encode") and sink.spans("comm:decode")

    @pytest.mark.parametrize("ef", ["false", "true"])
    def test_encode_and_decode_are_timed_on_either_placement(
        self, synthetic_small, ef
    ):
        """The server-side (error feedback) round-trip is not all encode."""
        sink = self._traced_run(
            synthetic_small, f"comms:codec=qsgd,bits=8,ef={ef}"
        )
        for name in ("comm:encode", "comm:decode"):
            spans = sink.spans(name)
            assert spans and all(e["duration"] > 0 for e in spans)

    def test_summarize_surfaces_comms_totals(self, tmp_path):
        from repro.telemetry import JSONLSink, Telemetry, load_run
        from repro.telemetry.analysis import format_summary, summarize_run

        path = str(tmp_path / "run.jsonl")
        model = MultinomialLogisticRegression(dim=60, num_classes=10)
        from repro.datasets import make_synthetic

        dataset = make_synthetic(0.5, 0.5, num_devices=8, seed=2, size_cap=80)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes
        )
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.05, batch_size=8),
            clients_per_round=4, mu=0.1, epochs=1, seed=9,
            comms="comms:codec=qsgd,bits=8",
            telemetry=Telemetry([JSONLSink(path)]),
        )
        try:
            trainer.run(2)
        finally:
            trainer.close()
        summary = summarize_run(load_run(path))
        assert summary["comms"] is not None
        assert summary["comms"]["bytes_up"] > 0
        assert summary["comms"]["compression_ratio"] >= 4.0
        assert "comms:" in format_summary(summary)

    def test_dense_runs_have_no_comms_summary(self, tmp_path):
        from repro.telemetry import JSONLSink, Telemetry, load_run
        from repro.telemetry.analysis import summarize_run
        from repro.datasets import make_synthetic

        path = str(tmp_path / "run.jsonl")
        dataset = make_synthetic(0.5, 0.5, num_devices=8, seed=2, size_cap=80)
        model = MultinomialLogisticRegression(
            dim=dataset.input_dim, num_classes=dataset.num_classes
        )
        trainer = FederatedTrainer(
            dataset, model, SGDSolver(0.05, batch_size=8),
            clients_per_round=4, mu=0.1, epochs=1, seed=9,
            telemetry=Telemetry([JSONLSink(path)]),
        )
        try:
            trainer.run(2)
        finally:
            trainer.close()
        assert summarize_run(load_run(path))["comms"] is None
