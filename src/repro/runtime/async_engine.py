"""Event-driven, stale-tolerant round execution: :class:`AsyncExecutor`.

The synchronous executors are barriers: every selected device's update must
land before the round aggregates.  FedProx's convergence analysis tolerates
much looser coordination — local work is already γ-inexact, and the
dissimilarity-bounded guarantees survive bounded model-version lag — so
this engine lets clients *check in continuously* on a simulated clock and
aggregates whatever has arrived, discounting updates by their staleness.

Time model
----------
Simulated time is measured in aggregation rounds.  A task submitted at
round ``r`` checks in at ``r + duration / period``, where ``duration`` is
the device's simulated round-trip from the shared
:class:`~repro.systems.clock.Clock` protocol (synchronized / seeded
log-normal / systems-model device profiles) and ``period`` is the clock's
aggregation cadence.  At round ``r`` the engine delivers every queued
check-in with arrival time ≤ ``r + 1``, in arrival order; an update
submitted at round ``s`` and delivered at round ``r`` has staleness
``r − s`` model versions.  Entries that would exceed the bounded-staleness
``window`` at the next round are discarded (counted, never aggregated), and
when a bounded in-flight ``capacity`` is set, check-ins beyond it are
rejected at admission — backpressure under churn.

Staleness discounting
---------------------
Delivered updates carry a multiplicative weight discount:
``poly``: ``(1 + s)^(-power)``; ``const``: ``factor`` for any ``s > 0``.
Fresh updates (``s = 0``) are never discounted.  The sampling scheme folds
the discounts into its aggregation weights (see
:meth:`repro.core.sampling.SamplingScheme.aggregate`), renormalizing so the
aggregate stays a convex combination.

Parity oracle
-------------
With ``window=0`` and synchronized arrivals every check-in lands instantly
(arrival = submission round, staleness 0, discount 1), delivery order
equals submission order, and the engine reproduces
:class:`~repro.runtime.executor.SerialExecutor` histories bit-identically —
including fault retry waves, since each retry dispatch drains its own
wave's check-ins in task order.  This degenerate mode is the test suite's
equivalence anchor for the whole engine.

Determinism
-----------
Every solve is a pure function of its :class:`~repro.runtime.executor.LocalTask`
(the executor contract) and every arrival time is a pure function of
``(clock seed, round, device)``, so the full async schedule — admissions,
deliveries, discards, and aggregation order — replays bit-identically from
a run-ledger manifest.  Telemetry (``async:*`` spans, queue-depth /
staleness / discard gauges) never influences the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..spec import SpecGrammar
from ..systems.clock import Clock, SynchronizedClock, resolve_clock
from ..telemetry import CLOCK_SIMULATED, UNIT_ROUNDS
from .executor import LocalTask, RoundExecutor, task_round

#: Accepted staleness-discount families.
DISCOUNTS = ("poly", "const")

#: The ``async:key=value,...`` grammar: spec key -> (:class:`AsyncExecutor`
#: argument and manifest ``engine`` field, value parser, default), in
#: canonical emission order.  The one table behind both directions:
#: :func:`repro.runtime.parse_executor_spec` reads specs with it;
#: :meth:`AsyncExecutor.spec` and :func:`repro.runtime.engine_spec` render
#: them.
ASYNC_GRAMMAR = SpecGrammar(
    prefix="async",
    keys=(
        ("window", "window", int, 0),
        ("discount", "discount", str, "poly"),
        ("power", "discount_power", float, 1.0),
        ("factor", "discount_factor", float, 0.5),
        ("capacity", "capacity", int, 0),
        ("arrivals", "arrivals", str, "synchronized"),
        ("latency", "latency", float, 1.0),
        ("jitter", "jitter", float, 0.5),
        ("seed", "clock_seed", int, None),
    ),
    where="executor spec",
    example="async:window=2,discount=poly",
)


@dataclass(frozen=True)
class _QueuedCheckin:
    """One in-flight local solve awaiting delivery."""

    arrival: float  #: simulated check-in time, in round units
    seq: int  #: admission order, tie-breaks equal arrivals
    task: LocalTask  #: names the round whose model version it solves against

    @property
    def submit_round(self) -> int:
        return task_round(self.task)


class AsyncExecutor(RoundExecutor):
    """Bounded-staleness asynchronous round engine.

    Parameters
    ----------
    window:
        Maximum tolerated model-version lag.  An update submitted at round
        ``s`` may be aggregated at any round ``r`` with ``r − s ≤ window``;
        older entries are discarded.  ``0`` (default) accepts only fresh
        updates — with synchronized arrivals that is exactly the serial
        engine.
    discount:
        Staleness-discount family: ``"poly"`` (``(1+s)^(-power)``) or
        ``"const"`` (``factor`` for any stale update).
    discount_power, discount_factor:
        Parameters of the two families.
    capacity:
        Bounded in-flight queue size; admission rejects check-ins beyond
        it (``0`` = unbounded, the default).
    arrivals:
        Arrival clock: ``"synchronized"`` (instant — the parity oracle),
        ``"seeded"`` (log-normal latency from the run seed), or
        ``"systems"`` (device cost profiles from the trainer's
        ``ClockDrivenSystems`` model).  See
        :func:`repro.systems.clock.resolve_clock`.
    latency, jitter:
        Parameters of the ``"seeded"`` clock.
    clock_seed:
        Seed for simulated latency draws; ``None`` (default) inherits the
        trainer seed via :meth:`configure_environment`, which is what
        makes ledger replay re-derive identical traffic.
    """

    continuous = True

    def __init__(
        self,
        window: int = 0,
        discount: str = "poly",
        discount_power: float = 1.0,
        discount_factor: float = 0.5,
        capacity: int = 0,
        arrivals: str = "synchronized",
        latency: float = 1.0,
        jitter: float = 0.5,
        clock_seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        if window < 0:
            raise ValueError(f"staleness window must be >= 0, got {window}")
        if discount not in DISCOUNTS:
            raise ValueError(
                f"unknown staleness discount {discount!r}; expected one of "
                f"{DISCOUNTS} — e.g. \"async:window=2,discount=poly\" or "
                '"async:window=2,discount=const,factor=0.5"'
            )
        if capacity < 0:
            raise ValueError(
                f"queue capacity must be >= 0 (0 = unbounded), got {capacity}"
            )
        self.window = int(window)
        self.discount = discount
        self.discount_power = float(discount_power)
        self.discount_factor = float(discount_factor)
        self.capacity = int(capacity)
        self.arrivals = arrivals
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.clock_seed = clock_seed
        # Resolved against the trainer's environment in
        # configure_environment(); the "systems" clock needs the trainer's
        # systems model, so it starts as a placeholder, while the other
        # arrival names resolve eagerly (validating them at construction).
        if arrivals == "systems":
            self.clock: Clock = SynchronizedClock()
        else:
            self.clock = resolve_clock(
                arrivals, None, seed=clock_seed or 0, latency=latency,
                jitter=jitter,
            )
        self._environment_set = False
        self._queue: List[_QueuedCheckin] = []
        self._seq = 0

    # Engine identity ---------------------------------------------------- #
    def spec(self) -> str:
        return ASYNC_GRAMMAR.render(self)

    # Environment --------------------------------------------------------- #
    def configure_environment(self, systems=None, seed: int = 0) -> None:
        """Resolve the arrival clock against the run's environment.

        ``arrivals="systems"`` binds to the trainer's
        :class:`~repro.systems.clock.ClockDrivenSystems` device profiles
        (a labeled error without one); the seeded clock inherits the
        trainer seed unless an explicit ``clock_seed`` pins it.
        """
        seed_value = self.clock_seed if self.clock_seed is not None else int(seed)
        self.clock = resolve_clock(
            self.arrivals,
            systems,
            seed=seed_value,
            latency=self.latency,
            jitter=self.jitter,
        )
        self._environment_set = True

    @property
    def queue_depth(self) -> int:
        """Check-ins currently in flight (admitted, not yet delivered)."""
        return len(self._queue)

    # Staleness ----------------------------------------------------------- #
    def discount_weight(self, staleness: int) -> float:
        """Multiplicative aggregation discount for a given staleness."""
        if staleness <= 0:
            return 1.0
        if self.discount == "poly":
            return float((1.0 + staleness) ** (-self.discount_power))
        return self.discount_factor

    # Round work ---------------------------------------------------------- #
    def _current_round(self, tasks: Sequence[LocalTask]) -> int:
        # The round being delivered in is the one the trainer announced
        # (begin_round) — a retry of a late check-in keeps its submit-round
        # entropy, so a dispatch's tasks need not name it.  Only a
        # standalone caller that never announces one is read off its tasks.
        if self._round is not None:
            return self._round
        return task_round(tasks[0]) if tasks else 0

    def _solve(self, tasks):
        round_idx = self._current_round(tasks)
        telemetry = self.telemetry

        # Admission: each selected device checks in; a bounded queue
        # rejects the overflow (backpressure — the device's work is lost,
        # exactly as if it had been dropped by the sampler).  Compression
        # shortens the simulated *upload* leg by the codec's exact
        # predicted wire ratio (the downlink stays dense — the server
        # broadcasts the uncompressed model), so smaller payloads arrive
        # earlier and shift the staleness distribution.  A ratio of
        # exactly 1.0 (identity codec, or comms disabled) gives
        # ``DeviceTiming.total`` bit-for-bit: ``u * 1.0 == u`` and the sum
        # runs in the same order.
        upload_ratio = 1.0
        if self._comms is not None and tasks:
            upload_ratio = self._comms.upload_ratio(tasks[0].w_global.shape[0])
        rejected = 0
        admitted = 0
        for task in tasks:
            if self.capacity > 0 and len(self._queue) >= self.capacity:
                rejected += 1
                continue
            timing = self.clock.timing(round_idx, task.client_id, task.epochs)
            duration = (
                timing.download + timing.compute + timing.upload * upload_ratio
            )
            period = self.clock.period or 1.0
            self._queue.append(
                _QueuedCheckin(
                    arrival=round_idx + duration / period,
                    seq=self._seq,
                    task=task,
                )
            )
            self._seq += 1
            admitted += 1
        if self._comms is not None and admitted and tasks:
            # Downlink accounting happens at admission (every admitted
            # device received the model broadcast), not at delivery —
            # discarded entries still downloaded it.
            self._comms.record_dispatch(
                admitted, tasks[0].w_global.shape[0],
                telemetry=telemetry, round_idx=round_idx,
            )
        if rejected:
            telemetry.metric(
                "async.admission_reject", rejected, round_idx=round_idx,
                kind="counter",
            )

        # Delivery: drain every check-in arriving within this round, in
        # arrival order (admission order breaks ties, so synchronized
        # arrivals reduce to submission order).  Solves run lazily at
        # delivery; each update is a pure function of its task, so the
        # deferred execution cannot perturb results.
        due = sorted(
            (e for e in self._queue if e.arrival <= round_idx + 1),
            key=lambda e: (e.arrival, e.seq),
        )
        due_set = {e.seq for e in due}
        self._queue = [e for e in self._queue if e.seq not in due_set]
        with telemetry.span(
            "async:deliver", round_idx=round_idx,
            submitted=len(tasks), due=len(due), rejected=rejected,
        ):
            updates = self._solve_in_process([entry.task for entry in due])
            for entry, update in zip(due, updates):
                update.staleness = round_idx - entry.submit_round
                update.discount = self.discount_weight(update.staleness)
                telemetry.record_span(
                    "async:checkin",
                    entry.arrival - entry.submit_round,
                    round_idx=round_idx,
                    clock=CLOCK_SIMULATED,
                    unit=UNIT_ROUNDS,
                    client_id=entry.task.client_id,
                    staleness=update.staleness,
                )
        # The comms stage decodes (or, under error feedback, round-trips)
        # each delivered update against its *own* submit-round model, which
        # the task it carries holds.
        return updates

    def _after_delivery(self, tasks, updates) -> None:
        """Expire what the next round could no longer accept; report the queue."""
        round_idx = self._current_round(tasks)
        telemetry = self.telemetry
        # Backpressure bookkeeping: discard entries that would exceed the
        # staleness window by the time the next round could deliver them.
        keep: List[_QueuedCheckin] = []
        discarded = 0
        for entry in self._queue:
            if (round_idx + 1) - entry.submit_round > self.window:
                discarded += 1
            else:
                keep.append(entry)
        self._queue = keep
        if discarded:
            telemetry.metric(
                "async.discard", discarded, round_idx=round_idx, kind="counter"
            )
        telemetry.metric(
            "async.queue_depth", len(self._queue), round_idx=round_idx
        )
        if updates:
            telemetry.histogram(
                "async.staleness",
                [float(update.staleness) for update in updates],
                round_idx=round_idx,
            )
