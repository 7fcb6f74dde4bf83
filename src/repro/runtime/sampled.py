"""Stratified subsampled federation evaluation with confidence intervals.

Exhaustive evaluation is the scaling wall of the server loop: the local
solve phase touches only the K selected devices, but
:class:`~repro.runtime.evaluation.FederationEvaluator` walks *every*
device each round, so at 10^4+ devices the round is evaluation-dominated
(the ``runtime.eval_full_1k_ms`` vs ``runtime.eval_sampled_ms`` probes in
``bench/results/`` put numbers on it).  :class:`SampledEvaluator` replaces
the exhaustive oracle with a survey estimate:

* Devices are stratified **by local training size** into equal-count
  strata (size is the aggregation weight ``p_k = n_k / n``, so it is the
  dominant driver of a device's influence on the global objective — and
  under the paper's heavy-tailed size laws an unstratified uniform sample
  routinely misses the big devices that carry most of the mass).
* Each evaluation draws a proportionally-allocated, per-stratum uniform
  sample **without replacement** from entropy
  ``SeedSequence([seed, round, salt])`` — a pure function of
  ``(seed, round)``, so any two runs (on any executor) evaluate identical
  samples and histories stay reproducible.
* The point estimate is the stratified ratio estimator: within stratum
  ``h``, the weighted mean of the sampled per-device statistics (weights
  ``p_k`` for the training objective, held-out sample counts for test
  accuracy) estimates the stratum mean, and strata recombine with their
  true total weights ``P_h`` — so the estimator is exact (zero error, not
  just unbiased) whenever every stratum is fully sampled.
* The reported ``ci_halfwidth`` is a normal-approximation 95% interval
  from the within-stratum sample variances with finite-population
  correction; it shrinks ~``1/sqrt(sample_size)`` under proportional
  allocation, and collapses to 0 on full-census rounds.
* Every ``full_every`` rounds (when enabled) the evaluator takes a
  **full-evaluation checkpoint** through the executor's exhaustive oracle
  — ground truth anchoring the sampled series, bit-identical to what an
  unsampled run would have recorded on those rounds.

Both estimates read the sampled devices of the run's
:class:`~repro.core.client.ClientPool` through
:func:`~repro.runtime.evaluation.device_values`, so on a
lazily-materializing store each evaluation materializes each sampled
device once, not the federation: train loss is one forward per device
(a stack would change the association of its per-device float means),
test accuracy the held-out correct counts, stacked in blocks where the
model allows, over the device's test size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from ..systems.stragglers import entropy_rng
from ..telemetry import resolve_telemetry
from .evaluation import device_values

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import ClientPool

#: Entropy salt separating evaluation sampling from device selection,
#: straggler draws, and mini-batch entropy (all derived from the same
#: trainer seed).
_EVAL_SAMPLE_SALT = 0xE7A1

#: Two-sided 95% normal quantile used for the confidence intervals.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class EvalEstimate:
    """One evaluation result: point estimate plus sampling metadata.

    Attributes
    ----------
    value:
        The point estimate (global train loss or test accuracy).
    ci_halfwidth:
        95% normal-approximation half-width of the estimate; ``0.0`` on
        full-census rounds.
    sample_size:
        Devices actually evaluated.
    full:
        ``True`` when this was an exhaustive full-evaluation checkpoint.
    """

    value: float
    ci_halfwidth: float
    sample_size: int
    full: bool = False


class StratifiedClientSampler:
    """Deterministic size-stratified client sampling.

    Clients are sorted by training size (stable, so equal sizes keep id
    order) and split into ``num_strata`` equal-count contiguous strata;
    :meth:`sample` allocates a requested sample size proportionally across
    strata (largest-remainder rounding, at least one device per stratum)
    and draws uniformly without replacement inside each stratum from
    ``SeedSequence([seed, round_idx, salt])``.

    Pure function of ``(train_sizes, num_strata, seed, round_idx,
    sample_size)`` — no internal state — which is what makes sampled
    histories identical across executors and across reruns.
    """

    def __init__(
        self,
        train_sizes: Sequence[int],
        num_strata: int = 10,
        seed: int = 0,
    ) -> None:
        sizes = np.asarray(train_sizes, dtype=np.int64)
        if sizes.ndim != 1 or len(sizes) == 0:
            raise ValueError("train_sizes must be a non-empty 1-D sequence")
        if num_strata < 1:
            raise ValueError("num_strata must be at least 1")
        self.num_clients = int(len(sizes))
        self.seed = int(seed)
        order = np.argsort(sizes, kind="stable")
        self.strata: List[np.ndarray] = [
            np.sort(part)
            for part in np.array_split(order, min(num_strata, len(sizes)))
            if len(part)
        ]
        self.num_strata = len(self.strata)
        self._stratum_sizes = np.array(
            [len(s) for s in self.strata], dtype=np.int64
        )

    def allocate(self, sample_size: int) -> np.ndarray:
        """Per-stratum sample counts for a total of ``sample_size`` devices.

        Proportional allocation with largest-remainder rounding; every
        stratum gets at least one device (so no stratum's weight is ever
        silently dropped), and no stratum is asked for more devices than
        it holds.  The returned counts sum to
        ``min(sample_size, num_clients)`` whenever
        ``sample_size >= num_strata``.
        """
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        n_h = self._stratum_sizes
        total = int(min(sample_size, self.num_clients))
        raw = total * n_h / n_h.sum()
        counts = np.maximum(np.floor(raw).astype(np.int64), 1)
        counts = np.minimum(counts, n_h)
        # Largest-remainder top-up / overflow trim, deterministic order.
        while counts.sum() < total:
            room = counts < n_h
            if not room.any():
                break
            frac = np.where(room, raw - counts, -np.inf)
            counts[int(np.argmax(frac))] += 1
        while counts.sum() > total:
            shrinkable = counts > 1
            if not shrinkable.any():
                break
            excess = np.where(shrinkable, counts - raw, -np.inf)
            counts[int(np.argmax(excess))] -= 1
        return counts

    def sample(self, round_idx: int, sample_size: int) -> List[np.ndarray]:
        """Draw the round's per-stratum client-id samples (sorted ids)."""
        counts = self.allocate(sample_size)
        rng = entropy_rng(self.seed, round_idx, _EVAL_SAMPLE_SALT)
        picks: List[np.ndarray] = []
        for stratum, m in zip(self.strata, counts):
            if m >= len(stratum):
                picks.append(stratum.copy())
            else:
                picks.append(
                    np.sort(rng.choice(stratum, size=int(m), replace=False))
                )
        return picks


def _stratified_estimate(
    strata: Sequence[np.ndarray],
    picks: Sequence[np.ndarray],
    values: dict,
    weights: np.ndarray,
) -> tuple:
    """Combine per-stratum samples into ``(estimate, ci_halfwidth)``.

    ``values`` maps sampled client id -> statistic; ``weights`` holds every
    client's nonnegative combination weight (``p_k`` masses or held-out
    counts).  Strata whose *sampled* devices carry zero weight fall back
    to zero contribution and the estimate renormalizes over the stratum
    weight actually represented — relevant only for test accuracy on
    federations where some devices hold no held-out data.
    """
    total_weight = float(weights.sum())
    if total_weight <= 0:
        raise ValueError("no positive weights to combine")
    estimate = 0.0
    variance = 0.0
    covered = 0.0
    for stratum, pick in zip(strata, picks):
        p_h = float(weights[stratum].sum()) / total_weight
        if p_h == 0.0 or len(pick) == 0:
            continue
        w_s = weights[pick].astype(np.float64)
        w_sum = float(w_s.sum())
        if w_sum <= 0:
            continue
        vals = np.array([values[int(k)] for k in pick], dtype=np.float64)
        w_norm = w_s / w_sum
        mean_h = float(w_norm @ vals)
        estimate += p_h * mean_h
        covered += p_h
        m, n_h = len(pick), len(stratum)
        if 1 < m < n_h:
            # Weighted sample variance (effective-sample-size corrected)
            # with finite-population correction.
            centered = vals - mean_h
            var_h = float(w_norm @ (centered * centered)) * m / (m - 1)
            variance += p_h * p_h * var_h / m * (1.0 - m / n_h)
    if covered == 0.0:
        raise ValueError("sampled devices carry no evaluation weight")
    estimate /= covered
    return estimate, Z_95 * float(np.sqrt(max(variance, 0.0))) / covered


class SampledEvaluator:
    """Size-stratified sampled train-loss / test-accuracy estimates.

    Parameters
    ----------
    clients:
        The federation's :class:`~repro.core.client.ClientPool` (the
        trainer's); only sampled devices are touched per evaluation.
    train_sizes, test_sizes:
        Per-client sample counts (store metadata) defining strata and
        combination weights.
    sample_size:
        Devices evaluated per (non-checkpoint) evaluation.
    num_strata:
        Size strata count (equal-count split).
    seed:
        Round-sample entropy root — use the trainer's seed so the sampled
        schedule is part of the run's reproducible description.
    full_every:
        Every this many rounds, delegate to ``full_oracle`` for an
        exhaustive ground-truth checkpoint (0 disables periodic
        checkpoints).
    full_oracle:
        Object with ``train_loss(w)`` / ``test_accuracy(w)`` — the bound
        executor (or a :class:`FederationEvaluator`) — used for
        checkpoints; required when ``full_every > 0``.
    telemetry:
        Emits ``eval:sampled_train_loss`` / ``eval:sampled_test_accuracy``
        spans carrying the sample size; defaults to the shared no-op.
    """

    def __init__(
        self,
        clients: "ClientPool",
        train_sizes: Sequence[int],
        test_sizes: Sequence[int],
        sample_size: int = 100,
        num_strata: int = 10,
        seed: int = 0,
        full_every: int = 0,
        full_oracle=None,
        telemetry=None,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if full_every < 0:
            raise ValueError("full_every must be non-negative")
        if full_every > 0 and full_oracle is None:
            raise ValueError(
                "full_every > 0 needs a full_oracle to take checkpoints"
            )
        self.clients = clients
        self.sampler = StratifiedClientSampler(
            train_sizes, num_strata=num_strata, seed=seed
        )
        self.sample_size = int(sample_size)
        self.full_every = int(full_every)
        self.full_oracle = full_oracle
        self.telemetry = resolve_telemetry(telemetry)
        masses = np.asarray(train_sizes, dtype=np.float64)
        self._train_weights = masses / masses.sum()
        self._test_weights = np.asarray(test_sizes, dtype=np.float64)
        self._num_clients = len(masses)

    def is_full_round(self, round_idx: int) -> bool:
        """Whether ``round_idx`` is a periodic full-evaluation checkpoint."""
        return self.full_every > 0 and (round_idx % self.full_every) == 0

    # ------------------------------------------------------------------ #
    def _estimate(
        self,
        w: np.ndarray,
        round_idx: int,
        weights: np.ndarray,
        measure,
        span: str,
    ) -> EvalEstimate:
        t0 = time.perf_counter() if self.telemetry.enabled else 0.0
        picks = self.sampler.sample(round_idx, self.sample_size)
        sampled = [int(cid) for pick in picks for cid in pick]
        # Zero weight: never evaluated (nor fetched), contributes nothing.
        values = dict.fromkeys(sampled, 0.0)
        values.update(measure(w, [cid for cid in sampled if weights[cid] > 0]))
        value, halfwidth = _stratified_estimate(
            self.sampler.strata, picks, values, weights
        )
        n_sampled = int(sum(len(p) for p in picks))
        if self.telemetry.enabled:
            self.telemetry.record_span(
                span,
                time.perf_counter() - t0,
                mode="sampled",
                round_idx=round_idx,
                sample_size=n_sampled,
                ci_halfwidth=halfwidth,
            )
        return EvalEstimate(
            value=value,
            ci_halfwidth=halfwidth,
            sample_size=n_sampled,
            full=n_sampled >= self._num_clients,
        )

    def train_loss(self, w: np.ndarray, round_idx: int) -> EvalEstimate:
        """Estimate the global objective ``f(w)`` from this round's sample."""
        if self.is_full_round(round_idx):
            return EvalEstimate(
                value=float(self.full_oracle.train_loss(w)),
                ci_halfwidth=0.0,
                sample_size=self._num_clients,
                full=True,
            )
        return self._estimate(
            w,
            round_idx,
            self._train_weights,
            lambda w_, cids: dict(
                zip(cids, device_values(self.clients, w_, "loss", cids))
            ),
            "eval:sampled_train_loss",
        )

    def test_accuracy(self, w: np.ndarray, round_idx: int) -> EvalEstimate:
        """Estimate global test accuracy from this round's sample."""
        if self.is_full_round(round_idx):
            return EvalEstimate(
                value=float(self.full_oracle.test_accuracy(w)),
                ci_halfwidth=0.0,
                sample_size=self._num_clients,
                full=True,
            )
        sizes = self._test_weights
        return self._estimate(
            w,
            round_idx,
            sizes,
            lambda w_, cids: {
                cid: hits / sizes[cid]
                for cid, hits in zip(
                    cids, device_values(self.clients, w_, "correct", cids)
                )
            },
            "eval:sampled_test_accuracy",
        )
