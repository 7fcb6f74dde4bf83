"""Synthetic text federations (Shakespeare / Sent140 stand-ins).

Offline we cannot ship *The Complete Works of William Shakespeare* or the
Sentiment140 tweets, so these generators synthesize the two text workloads
while preserving what drives the paper's results: per-device distribution
shift over sequences (see DESIGN.md §4).

* :func:`make_shakespeare_like` — next-character prediction.  Each device
  ("speaking role") emits text from an order-1 Markov chain whose transition
  matrix mixes a shared "language" component with a device-specific
  "dialect" component; the mixing weight is the heterogeneity knob.
* :func:`make_sent140_like` — binary sentiment classification.  Each device
  ("twitter account") has its own label prior and its own preference over a
  neutral vocabulary; positive/negative lexicon words correlate with the
  label.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..spec import register
from .federated import FederatedDataset, PackedClientStore


def _random_stochastic_matrix(
    rng: np.random.Generator, size: int, concentration: float = 0.3
) -> np.ndarray:
    """Row-stochastic matrix with Dirichlet rows (sparse-ish transitions)."""
    mat = rng.dirichlet(np.full(size, concentration), size=size)
    return mat


def _sample_markov_stream(
    rng: np.random.Generator, transitions: np.ndarray, length: int
) -> np.ndarray:
    """Sample a character stream from an order-1 Markov chain.

    Uses inverse-CDF sampling against precomputed cumulative rows so the
    per-step cost is one ``searchsorted``.
    """
    vocab = transitions.shape[0]
    cumulative = np.cumsum(transitions, axis=1)
    stream = np.empty(length, dtype=np.int64)
    state = int(rng.integers(vocab))
    uniforms = rng.random(length)
    for t in range(length):
        state = int(np.searchsorted(cumulative[state], uniforms[t]))
        state = min(state, vocab - 1)  # guard against cumsum rounding
        stream[t] = state
    return stream


@register(tag="builder", live=("rng",))
def make_shakespeare_like(
    num_devices: int = 24,
    vocab_size: int = 80,
    seq_len: int = 20,
    samples_per_device_mean: float = 60.0,
    dialect_weight: float = 0.5,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    test_fraction: float = 0.2,
    name: str = "Shakespeare-like",
) -> FederatedDataset:
    """Next-character-prediction federation from per-device Markov sources.

    Each sample is a window of ``seq_len`` character ids labelled with the
    character that follows it (windows stride 1 over the device's stream,
    matching the LEAF preprocessing).

    Parameters
    ----------
    num_devices:
        Number of speaking roles (143 at paper scale; default reduced for
        CPU-only LSTM training).
    vocab_size:
        Character vocabulary (80 in the paper).
    seq_len:
        Context window (80 in the paper; default reduced).
    samples_per_device_mean:
        Mean of the heavy-tailed per-device sample counts (paper mean is
        3,616 with stdev 6,808; default reduced).
    dialect_weight:
        Mixing weight of the device-specific transition matrix in
        ``T_k = (1 - w) T_shared + w T_k^dev``.  0 gives IID devices.
    """
    if not 0.0 <= dialect_weight <= 1.0:
        raise ValueError("dialect_weight must be in [0, 1]")
    rng = rng if rng is not None else np.random.default_rng(seed)
    shared = _random_stochastic_matrix(rng, vocab_size)

    # Heavy-tailed sizes scaled to the requested mean, floored for the split.
    raw = rng.lognormal(0.0, 0.8, size=num_devices)
    sizes = np.maximum((raw / raw.mean() * samples_per_device_mean).astype(int), 10)

    store = PackedClientStore.allocate(
        sizes, test_fraction, (seq_len,), np.int64, np.int64
    )
    for k in range(num_devices):
        dialect = _random_stochastic_matrix(rng, vocab_size)
        transitions = (1.0 - dialect_weight) * shared + dialect_weight * dialect
        stream = _sample_markov_stream(rng, transitions, sizes[k] + seq_len)
        windows = np.lib.stride_tricks.sliding_window_view(stream, seq_len)
        store.place(
            k, windows[: sizes[k]], stream[seq_len : seq_len + sizes[k]], rng
        )

    return FederatedDataset(
        name=name, store=store, num_classes=vocab_size, input_dim=seq_len,
    )


@register(tag="builder", live=("rng",))
def make_sent140_like(
    num_devices: int = 30,
    vocab_size: int = 400,
    seq_len: int = 25,
    samples_per_device_mean: float = 53.0,
    samples_per_device_stdev: float = 32.0,
    sentiment_strength: float = 0.5,
    label_prior_concentration: float = 0.7,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    test_fraction: float = 0.2,
    name: str = "Sent140-like",
) -> FederatedDataset:
    """Binary sentiment federation with per-account vocabulary & label skew.

    The first eighth of the vocabulary is the positive lexicon, the second
    eighth the negative lexicon, and the rest is neutral.  Each token of a
    sample is, with probability ``sentiment_strength``, drawn from the
    lexicon matching the label; otherwise it is drawn from the device's own
    Dirichlet preference over neutral words.

    Parameters
    ----------
    num_devices:
        Number of accounts (772 at paper scale; default reduced).
    vocab_size, seq_len:
        Token vocabulary and fixed sequence length (25 in the paper).
    samples_per_device_mean, samples_per_device_stdev:
        Gaussian (clipped) per-device sizes; paper reports mean 53, stdev 32.
    sentiment_strength:
        How strongly tokens correlate with the label; lower is harder.
    label_prior_concentration:
        Beta(c, c) prior on each device's positive-label rate; small values
        give strongly skewed devices (statistical heterogeneity).
    """
    if vocab_size < 16:
        raise ValueError("vocab_size too small to carve out sentiment lexicons")
    rng = rng if rng is not None else np.random.default_rng(seed)

    eighth = vocab_size // 8
    pos_lexicon = np.arange(0, eighth)
    neg_lexicon = np.arange(eighth, 2 * eighth)
    neutral = np.arange(2 * eighth, vocab_size)

    sizes = np.maximum(
        rng.normal(samples_per_device_mean, samples_per_device_stdev, num_devices)
        .round()
        .astype(int),
        10,
    )

    store = PackedClientStore.allocate(
        sizes, test_fraction, (seq_len,), neutral.dtype, np.int64
    )
    for k in range(num_devices):
        positive_rate = rng.beta(label_prior_concentration, label_prior_concentration)
        neutral_pref = rng.dirichlet(np.full(len(neutral), 0.3))
        y = (rng.random(sizes[k]) < positive_rate).astype(np.int64)

        use_lexicon = rng.random((sizes[k], seq_len)) < sentiment_strength
        lexicon_pos = rng.choice(pos_lexicon, size=(sizes[k], seq_len))
        lexicon_neg = rng.choice(neg_lexicon, size=(sizes[k], seq_len))
        lexicon_tokens = np.where(y[:, None] == 1, lexicon_pos, lexicon_neg)
        neutral_tokens = rng.choice(neutral, size=(sizes[k], seq_len), p=neutral_pref)
        X = np.where(use_lexicon, lexicon_tokens, neutral_tokens)

        store.place(k, X, y, rng)

    return FederatedDataset(
        name=name, store=store, num_classes=2, input_dim=seq_len,
    )
