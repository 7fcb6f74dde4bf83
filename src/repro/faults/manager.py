"""Round-level fault orchestration: draws, retries, quarantine, quorum.

:class:`FaultManager` is the stateful counterpart of the pure
:class:`~repro.faults.models.FaultSchedule` /
:class:`~repro.faults.policy.FaultPolicy` pair.  The trainer owns one
manager per run; each round the manager

1. draws every task's fault from the schedule (skipping quarantined
   clients outright) and stamps it onto a copy of the task,
2. dispatches the surviving tasks through the trainer's executor (the
   manager never cares *which* executor — tasks are pure descriptions,
   every delivered update names the task it answers, so
   serial/parallel/cohort all yield identical outcomes),
3. resolves crashes per policy — retry waves with fresh sub-seeds and
   simulated backoff, accept-partial, or drop,
4. quarantines non-finite updates and books suspicion counters,
5. buffers/delivers stale updates, and
6. enforces the minimum aggregation quorum.

Every decision is emitted as it happens, as the one ``counter`` event that
states it (:data:`~repro.telemetry.events.FAULT_EVENTS`), and counted in
the cumulative :class:`~repro.faults.policy.FaultStats` — so the counters
are sums of the events, and a ledger reproduces them
(:func:`repro.telemetry.analysis.fault_totals`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..telemetry import resolve_telemetry
from ..telemetry.events import FAULT_EVENTS
from .models import FaultSchedule
from .policy import FaultPolicy, FaultStats

#: Entropy-tuple salt separating retry dispatches from first attempts.
RETRY_SALT = 0x4E7F


@dataclass
class RoundFaultReport:
    """What the round record needs from the fault layer.

    ``dropped`` collects every client whose update was discarded for a
    fault-related reason (offline, quarantine skip, crash-drop,
    quarantine) — the trainer merges it into the record's ``dropped``
    list; ``degraded`` is set when the quorum guard skipped aggregation.
    Everything else the layer decided is in its events.
    """

    dropped: List[int] = field(default_factory=list)
    degraded: bool = False


def _fault_kind(update) -> Optional[str]:
    """Kind of the injected fault the update's task carried, if any."""
    fault = update.task.fault
    return None if fault is None else fault.kind


class FaultManager:
    """Applies a fault schedule + robustness policy to the trainer's rounds.

    Parameters
    ----------
    schedule:
        The fault model (deterministic per-(round, client, attempt) draws).
    policy:
        The robustness policy (crash handling, quarantine, quorum).
    telemetry:
        Event sink façade; each decision is one ``counter`` metric of value
        1 (:data:`~repro.telemetry.events.FAULT_EVENTS`), in the same
        artifact as spans and diagnostics.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        policy: FaultPolicy,
        telemetry=None,
    ) -> None:
        self.schedule = schedule
        self.policy = policy
        self.telemetry = resolve_telemetry(telemetry)
        self.stats = FaultStats()
        self.suspicion: Dict[int, int] = {}
        self.quarantined_clients: Set[int] = set()
        # Stale deliveries in insertion order: (arrival_round, update).
        self._stale_buffer: List[Tuple[int, object]] = []

    # Event helpers -------------------------------------------------------- #
    def _count(self, key: str, round_idx: int, **attrs) -> None:
        """Count one decision in ``stats.<key>`` and emit the event stating it."""
        setattr(self.stats, key, getattr(self.stats, key) + 1)
        self.telemetry.metric(
            FAULT_EVENTS[key], 1, round_idx=round_idx, kind="counter", **attrs
        )

    def _draw(self, round_idx: int, client_id: int, attempt: int):
        """One schedule draw, booked; ``None`` for a healthy attempt."""
        decision = self.schedule.draw(round_idx, client_id, attempt=attempt)
        if decision is not None:
            self._count(
                "injected", round_idx,
                client_id=client_id, fault=decision.kind, attempt=attempt,
            )
            if decision.kind == "dropout":
                self.stats.offline += 1
        return decision

    # Round orchestration -------------------------------------------------- #
    def execute_round(
        self,
        round_idx: int,
        tasks: Sequence[object],
        dispatch: Callable[[Sequence[object]], List[object]],
        num_selected: int,
    ) -> Tuple[List[object], RoundFaultReport]:
        """Run one round's solves under the fault schedule and policy.

        Parameters
        ----------
        round_idx:
            Current communication round.
        tasks:
            The round's :class:`~repro.runtime.executor.LocalTask` list as
            the trainer built it (``fault=None``); a drawn decision is
            stamped onto a copy.
        dispatch:
            The bound executor's ``run_local_solves``.
        num_selected:
            Size of the round's selection (the quorum denominator).

        Returns
        -------
        (updates, report):
            Updates surviving the policy, in dispatch order (stale
            deliveries appended last), and the round's fault report.
            ``updates`` is empty when the quorum guard degraded the round.

        Every delivered update names the task it answers (``update.task``),
        so the decision that struck it, the client to report and the task a
        retry re-runs are read off the update — also when an async engine
        delivers fewer updates than tasks (check-ins in flight) or
        an earlier round's check-in now.
        """
        policy = self.policy
        report = RoundFaultReport()

        # 1. Draw faults and plan the first dispatch wave.
        wave: List[object] = []
        for task in tasks:
            cid = task.client_id
            if cid in self.quarantined_clients:
                self._count("quarantine_skips", round_idx, client_id=cid)
                report.dropped.append(cid)
                continue
            decision = self._draw(round_idx, cid, attempt=0)
            if decision is None:
                wave.append(task)
            elif decision.kind == "dropout":
                report.dropped.append(cid)
            else:
                wave.append(replace(task, fault=decision))
        # Dispatched even when empty: queued check-ins may still be due.
        updates = list(dispatch(wave))
        booked = self._booking(wave, updates)

        # 2. Resolve crashes per policy.
        crashed = [u for u in updates if _fault_kind(u) == "crash"]
        for update in crashed:
            self._count("crashes", round_idx, client_id=booked(update))
        if crashed and policy.on_crash == "drop":
            for update in crashed:
                cid = booked(update)
                self._count("crash_dropped", round_idx, client_id=cid)
                report.dropped.append(cid)
            updates = [u for u in updates if _fault_kind(u) != "crash"]
        elif crashed and policy.on_crash == "retry":
            updates = self._retry_crashed(round_idx, updates, dispatch, report)
        # "accept_partial": crashed updates stay as they are — their
        # truncated-budget iterates are FedProx partial solutions.

        # 3. Quarantine non-finite updates, book suspicion.
        survivors: List[object] = []
        for update in updates:
            if not np.all(np.isfinite(update.w)):
                cid = booked(update)
                report.dropped.append(cid)
                count = self.suspicion.get(cid, 0) + 1
                self.suspicion[cid] = count
                quarantined = (
                    count >= policy.quarantine_threshold
                    and cid not in self.quarantined_clients
                )
                self._count(
                    "quarantined_updates", round_idx,
                    client_id=cid, suspicion=count, quarantined=quarantined,
                )
                if quarantined:
                    self.quarantined_clients.add(cid)
                    self.stats.quarantined_clients += 1
                continue
            survivors.append(update)

        # 4. Hold back stale deliveries; release matured ones.
        timely: List[object] = []
        for update in survivors:
            if _fault_kind(update) == "stale":
                self._count(
                    "stale_held", round_idx,
                    client_id=booked(update), delay=update.task.fault.delay,
                )
                self._stale_buffer.append(
                    (round_idx + update.task.fault.delay, update)
                )
                continue
            timely.append(update)
        matured = [
            item for item in self._stale_buffer if item[0] <= round_idx
        ]
        if matured:
            self._stale_buffer = [
                item for item in self._stale_buffer if item[0] > round_idx
            ]
            # A stable sort: equal arrival rounds keep insertion order.
            for _, update in sorted(matured, key=lambda item: item[0]):
                self._count(
                    "stale_delivered", round_idx, client_id=update.client_id
                )
                timely.append(update)
        updates = timely

        # 5. Minimum-quorum guard.
        quorum = policy.quorum_for(num_selected)
        if quorum and len(updates) < quorum:
            report.degraded = True
            self._count(
                "quorum_misses", round_idx,
                survivors=len(updates), quorum=quorum,
            )
            updates = []
        return updates, report

    @staticmethod
    def _booking(wave: Sequence[object], updates: Sequence[object]):
        """``update -> client id`` the report, events and suspicion counters use.

        The update's own — except that a first dispatch returning exactly
        as many updates as it sent is still booked by position.  On a
        barrier engine the two agree.  On an async one they need not (a
        late check-in standing where one still in flight was sent), and
        that is a defect carried over on purpose: ``bench/golden.json``
        pins a seed-0 ``async_qsgd_ledger`` trajectory whose quarantine was
        reached through such a booking.  Goes with the next golden refresh;
        nothing else reads a position.
        """
        by_position = (
            {id(u): t.client_id for u, t in zip(updates, wave)}
            if len(updates) == len(wave)
            else {}
        )
        return lambda update: by_position.get(id(update), update.client_id)

    # Crash retries -------------------------------------------------------- #
    def _retry_crashed(
        self,
        round_idx: int,
        updates: List[object],
        dispatch,
        report: RoundFaultReport,
    ) -> List[object]:
        """Retry crashed solves in waves; resolve stragglers per fallback.

        A retry re-runs the task that crashed — its own model, µ,
        correction, budget and occurrence, whichever round submitted it —
        with a fresh schedule draw (a retry may crash or drop out again)
        and the mini-batch sub-seed ``(RETRY_SALT, attempt)``, so retry
        outcomes are as deterministic and executor-independent as first
        attempts.  All solves failing at the same attempt level are
        dispatched as one wave, preserving batch-level parallelism.  A
        retry an async engine has not delivered by the end of the wave
        is retried again; when it does land, in a later round, it is that
        round's delivery.
        """
        policy = self.policy
        # slot in ``updates`` -> the freshest partial iterate recovered for it.
        failed: Dict[int, object] = {
            i: u for i, u in enumerate(updates) if _fault_kind(u) == "crash"
        }
        for attempt in range(1, policy.max_retries + 1):
            if not failed:
                break
            slot_of: Dict[int, int] = {}  # id(retry task) -> slot
            wave: List[object] = []
            for i in sorted(failed):
                task = failed[i].task
                cid = task.client_id
                self._count(
                    "retries", round_idx,
                    client_id=cid, attempt=attempt,
                    backoff=policy.backoff(attempt),
                )
                decision = self._draw(round_idx, cid, attempt=attempt)
                if decision is not None and decision.kind == "dropout":
                    continue  # unreachable this attempt; nothing to dispatch
                retry = replace(
                    task,
                    rng_entropy=task.rng_entropy[:4] + (RETRY_SALT, attempt),
                    fault=decision,
                )
                slot_of[id(retry)] = i
                wave.append(retry)
            delivered = dispatch(wave) if wave else []
            for update in delivered:
                i = slot_of[id(update.task)]
                if _fault_kind(update) == "crash":
                    self._count("crashes", round_idx, client_id=update.client_id)
                    failed[i] = update  # fresher partial iterate
                else:
                    updates[i] = update
                    del failed[i]
        if failed and policy.after_retries == "drop":
            for i in sorted(failed):
                cid = failed[i].client_id
                self._count("crash_dropped", round_idx, client_id=cid)
                report.dropped.append(cid)
            return [u for i, u in enumerate(updates) if i not in failed]
        for i, update in failed.items():  # accept the last partial iterate
            updates[i] = update
        return updates
