"""Event-driven, stale-tolerant round execution: :class:`AsyncExecutor`.

The barrier engines wait for every selected device before a round
aggregates.  FedProx's convergence analysis tolerates much looser
coordination — local work is already γ-inexact, and the
dissimilarity-bounded guarantees survive bounded model-version lag — so
this engine lets clients *check in continuously* on a simulated clock and
aggregates whatever has arrived, discounting updates by their staleness.

It is the round scheduler of :mod:`repro.runtime.executor` (time model,
staleness discounting, expiry) over the in-process backend, with the
scheduler's fields set from an ``async:key=value,...`` spec instead of
held at the barrier values.

Parity oracle
-------------
With ``window=0`` and synchronized arrivals every check-in lands instantly
(arrival = submission round, staleness 0, discount 1), delivery order
equals submission order, and the engine *is* the serial engine: it
reproduces :class:`~repro.runtime.executor.SerialExecutor` histories
bit-identically — including fault retry waves, since each retry dispatch
drains its own wave's check-ins in task order.
"""

from __future__ import annotations

from typing import Optional

from ..systems.clock import resolve_clock
from . import ASYNC_GRAMMAR, DISCOUNTS
from .executor import SerialExecutor


class AsyncExecutor(SerialExecutor):
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
        Parameters of the two families: ``power >= 0`` with
        ``(1 + window)^-power > 0``, and ``0 < factor <= 1``.
    capacity:
        Bounded in-flight queue size; admission rejects check-ins beyond
        it (``0`` = unbounded, the default).
    arrivals:
        Arrival clock: ``"synchronized"`` (instant — the parity oracle),
        ``"seeded"`` (log-normal latency from the run seed), or
        ``"systems"`` (device cost profiles from the trainer's
        ``ClockDrivenSystems`` model).  See
        :func:`repro.systems.clock.resolve_clock`; the clock is resolved
        at :meth:`~repro.runtime.executor.RoundExecutor.bind`.
    latency, jitter:
        Parameters of the ``"seeded"`` clock.
    clock_seed:
        Seed for simulated latency draws; ``None`` (default) inherits the
        trainer seed at bind, which is what makes ledger replay re-derive
        identical traffic.
    """

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
        if not discount_power >= 0 or (1.0 + window) ** -discount_power == 0:
            raise ValueError(
                f"staleness discount power must be >= 0 and keep the weight "
                f"(1 + window)^-power above 0, got {discount_power} (async key "
                "'power'): a negative power weighs stale updates above fresh "
                "ones, and a zero weight aggregates an all-stale round at 0/0"
            )
        if not 0 < discount_factor <= 1:
            raise ValueError(
                f"staleness discount factor must be in (0, 1], got "
                f"{discount_factor} (async key 'factor'): a round whose "
                "deliveries are all stale would aggregate zero total weight"
            )
        if capacity < 0:
            raise ValueError(
                f"queue capacity must be >= 0 (0 = unbounded), got {capacity}"
            )
        if arrivals != "systems":
            # Rejects an unknown arrival name (or a negative latency/jitter)
            # now; only "systems" needs the trainer's systems model.
            resolve_clock(arrivals, latency=latency, jitter=jitter)
        self.window = int(window)
        self.discount = discount
        self.discount_power = float(discount_power)
        self.discount_factor = float(discount_factor)
        self.capacity = int(capacity)
        self.arrivals = arrivals
        self.latency = float(latency)
        self.jitter = float(jitter)
        self.clock_seed = clock_seed

    def spec(self) -> str:
        return ASYNC_GRAMMAR.render(self)
