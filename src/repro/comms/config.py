"""Comms configuration: the ``comms:`` spec grammar and sub-config.

:class:`CommsConfig` is the trainer's sixth concern group: which update
codec (if any) compresses client uploads, its parameters, and whether
error feedback is enabled.  Like the engine section, the config and its
spec string are lossless inverses — ``"comms:codec=qsgd,bits=8,ef=true"``
parses to a config whose :meth:`~CommsConfig.spec` emits the same string
— which is what lets the run ledger serialize a compressed run and
``repro.trace replay`` rebuild it bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional

from ..spec import SpecGrammar, boolean
from .codecs import CastCodec, Codec, IdentityCodec, QSGDCodec, TopKCodec

#: Accepted codec names.  ``"dense"`` means compression is disabled — the
#: historical uncompressed path, with no comms accounting at all.
CODEC_NAMES = ("dense", "identity", "fp16", "fp32", "qsgd", "topk")


#: The ``comms:key=value,...`` grammar: spec key -> (:class:`CommsConfig`
#: field, value parser, default), in canonical emission order; a bare
#: leading token names the codec.
COMMS_GRAMMAR = SpecGrammar(
    prefix="comms",
    keys=(
        ("codec", "codec", str, "dense"),
        ("bits", "bits", int, 8),
        ("k", "k", int, 64),
        ("ef", "ef", boolean, False),
    ),
    where="spec",
    example="comms:codec=qsgd,bits=8,ef=true",
    bare="codec",
)


def parse_comms_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``comms:`` spec string into :class:`CommsConfig` kwargs.

    Grammar: an optional ``comms:`` prefix followed by comma-separated
    ``key=value`` pairs (keys: ``codec``, ``bits``, ``k``, ``ef``); a
    bare leading token names the codec, so ``"qsgd"`` and
    ``"comms:codec=qsgd"`` are equivalent.  Every rejection is a labeled
    ``ValueError`` naming the valid keys and codecs.
    """
    if not isinstance(spec, str):
        raise TypeError(
            f"comms spec must be a string, got {type(spec).__name__}"
        )
    body = spec
    if body == "comms":
        body = ""
    elif body.startswith("comms:"):
        body = body[len("comms:"):]
    kwargs = COMMS_GRAMMAR.parse(spec, body)
    codec = kwargs.get("codec")
    if codec is not None and codec not in CODEC_NAMES:
        raise ValueError(
            f"unknown codec {codec!r} in spec {spec!r}; valid codecs: "
            f"{CODEC_NAMES}"
        )
    return kwargs


@dataclass(frozen=True)
class CommsConfig:
    """Update-compression configuration for one training run.

    Attributes
    ----------
    codec:
        Codec name (see :data:`CODEC_NAMES`); ``"dense"`` (default)
        disables compression entirely, reproducing the historical
        uncompressed path byte-for-byte with zero overhead.
    bits:
        Quantization bit width for the ``qsgd`` codec (1-16).
    k:
        Kept-coordinate count for the ``topk`` codec.
    ef:
        Enable per-client error-feedback residuals: compression error is
        remembered and added back into the client's next transmitted
        delta.  Ignored for lossless codecs (the residual is identically
        zero).  Error feedback requires the server-side encode path, so
        it trades the lean IPC fast path for accuracy — see
        :class:`~repro.comms.manager.CommsManager`.
    """

    codec: str = "dense"
    bits: int = 8
    k: int = 64
    ef: bool = False

    def __post_init__(self) -> None:
        if self.codec not in CODEC_NAMES:
            raise ValueError(
                f"unknown codec {self.codec!r}; valid codecs: {CODEC_NAMES} "
                '— e.g. "comms:codec=qsgd,bits=8,ef=true"'
            )
        if not 1 <= int(self.bits) <= 16:
            raise ValueError(
                f"qsgd bit width must be in [1, 16], got {self.bits}"
            )
        if int(self.k) < 1:
            raise ValueError(f"topk k must be >= 1, got {self.k}")

    @property
    def enabled(self) -> bool:
        """Whether any codec (even identity) is active."""
        return self.codec != "dense"

    def spec(self) -> str:
        """The canonical ``comms:`` spec string describing this config."""
        return COMMS_GRAMMAR.render(self)

    @classmethod
    def from_spec(cls, spec: str) -> "CommsConfig":
        """Parse a comms spec string into a :class:`CommsConfig`."""
        return cls(**parse_comms_spec(spec))

    @classmethod
    def resolve(cls, value: Any) -> "CommsConfig":
        """Coerce any accepted ``comms=`` value to a config.

        ``None`` → compression disabled; a spec string is parsed; a
        :class:`CommsConfig` passes through.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.from_spec(value)
        raise TypeError(
            "comms must be a CommsConfig, a comms spec string (e.g. "
            '"comms:codec=qsgd,bits=8,ef=true"), or None; got '
            f"{type(value).__name__}"
        )

    def build_codec(self) -> Optional[Codec]:
        """The codec instance this config describes; ``None`` when dense."""
        if self.codec == "dense":
            return None
        if self.codec == "identity":
            return IdentityCodec()
        if self.codec in ("fp16", "fp32"):
            return CastCodec(dtype=self.codec)
        if self.codec == "qsgd":
            return QSGDCodec(bits=int(self.bits))
        return TopKCodec(k=int(self.k))

    def to_dict(self) -> Dict[str, Any]:
        """Scalar description of this comms configuration."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "CommsConfig":
        return cls(**dict(spec))
