"""Communication-efficient update codecs and wire-byte accounting.

The comms subsystem compresses client model updates on the uplink — the
one-per-device-per-round transfer the paper treats as the scarce resource
— and threads exact byte accounting through every executor, the async
engine's simulated clock, and the telemetry ledger.

* :mod:`repro.comms.codecs` — the codecs themselves: ``identity``
  (bit-exact passthrough), ``fp16``/``fp32`` casts, seeded QSGD-style
  stochastic quantization, and top-k sparsification, each encoding to a
  :class:`~repro.comms.codecs.WirePayload`.
* :mod:`repro.comms.config` — :class:`~repro.comms.config.CommsConfig`
  and the ``comms:codec=qsgd,bits=8,ef=true`` spec grammar.
* :mod:`repro.comms.manager` — :class:`~repro.comms.manager.CommsManager`:
  payload round-trips inside every executor, per-client error-feedback
  residuals, and ``comms.bytes_up`` / ``comms.bytes_down`` /
  ``comms.compression_ratio`` telemetry.

Enable compression by passing ``comms=`` to the trainer::

    FederatedTrainer(dataset, model, solver,
                     comms="comms:codec=qsgd,bits=8,ef=true")
"""

from .. import _lazy

_lazy.attach(globals(), {
    ".codecs": (
        "COMMS_SALT",
        "DENSE_ITEMSIZE",
        "CastCodec",
        "Codec",
        "IdentityCodec",
        "QSGDCodec",
        "TopKCodec",
        "WirePayload",
        "codec_rng",
    ),
    ".config": ("CODEC_NAMES", "CommsConfig", "parse_comms_spec"),
    ".manager": ("CommsManager",),
})
