"""Vectorized cohort local solver: one stacked kernel for a whole round.

The scalar path streams each selected device's local epochs one
mini-batch at a time through ``model.minibatch_gradients`` — a 10-client
round with ``E = 20`` epochs issues thousands of tiny GEMMs, each paying
full Python/NumPy dispatch overhead.  The paper's headline
experiments (1000-device synthetic and FEMNIST logistic models) are
exactly the workload where stacking pays off:
:class:`CohortExecutor` packs the selected clients' weight vectors into a
stacked matrix and advances *all* clients' FedProx local solves
simultaneously with batched kernels.

Mechanics
---------
* **Scheduling.**  Each task's mini-batch schedule is drawn from the same
  ``(seed, round, client, occurrence)`` entropy tuple as the scalar path
  (:func:`~repro.runtime.executor.task_rng` + the solver's
  ``stacked_plan``, a flat index array plus per-step batch lengths), so
  batch orders are identical by construction.  The
  skew-aware packing planner (:mod:`repro.runtime.packing`) then bin-packs
  the K client chains into ``L <= K`` *lanes* of capacity
  ``t_max = max_k T_k`` (first-fit decreasing), running short chains
  back-to-back in one lane.  Under the paper's power-law budget skew this
  shrinks the stacked buffers from K-wide to near the information-theoretic
  minimum ``ceil(sum T_k / t_max)``; balanced cohorts degenerate to the
  legacy one-client-per-row prefix schedule exactly.  The achieved/ideal
  width ratio is emitted as the ``cohort.pack_efficiency`` gauge.
* **Ragged data.**  The model lays the cohort's training shards out once
  per round (``stacked_rows``: concatenated, plus one zero pad row —
  ``[x, 1]`` float64 rows for the logistic model, tokens kept for the
  LSTMs); a run of steps is ``take``-n as an ``(S, A, B, ...)`` chunk into
  one reused buffer through a precomputed ``(t_max, L, b_max)`` index
  tensor whose padding entries point at the pad row.  A float mask zeroes
  padding contributions before the backward GEMMs, so padded rows add
  exact ``±0.0`` terms.
* **Stragglers.**  Lanes are ordered by descending total load, making the
  busy set at any step a *prefix* of the stack: when a lane's last chain
  ends it simply drops out of the stacked loop.  Time decomposes into
  *segments* between chain boundaries; at each boundary finishing chains
  copy their lane row out and starting chains load their task's ``w_t``,
  µ and ``gradient_scale * b`` (and reset per-row solver state via
  ``stacked_reset``).  Results are restored to task order at the end.
* **Determinism.**  Model kernels (``stacked_gradient``, stepped through
  ``stacked_minibatch_gradients``) and solver steps (``stacked_step``,
  fed per-row local step indices when packed lanes sit at different chain
  offsets) replicate the scalar path's floating-point operation order:
  each row's µ and ``gradient_scale * (µ w_t − c)`` are built by the
  scalar solve's :func:`~repro.optim.proximal.proximal_offset` and folded
  into the solver's rule through ``stacked_anchor`` once per segment, as
  a scalar solve folds them once (numerics epoch 3).  Each client's chain
  still runs its own steps in order against only its own row.  The
  batched GEMM does not promise the scalar GEMM's accumulation order, so
  parity with :class:`~repro.runtime.executor.SerialExecutor`
  is a tolerance, not bitwise: histories of the logistic model match
  within 1e-12 (observed 2.2e-16 on a loss; enforced by
  ``tests/test_runtime_cohort.py``), the LSTMs within 1e-9.  What *is*
  bitwise is the cohort path against itself: the stream equals the
  per-step kernel loop it replaced (``tests/test_models_stacked_oracle.py``).
  γ-inexactness is measured with the *same* :class:`LocalObjective` code
  the scalar path uses, so γ statistics agree to the same precision.

Capability gating mirrors the evaluation fast path: the model must
advertise ``supports_stacked_local_solve`` and the solver
``supports_stacked_solve``; binding anything else raises ``TypeError`` —
cohort execution never silently degrades to serial.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from ..optim.proximal import proximal_offset
from ..telemetry import resolve_telemetry
from .executor import (
    LocalTask,
    RoundExecutor,
    apply_update_fault,
    task_effective_epochs,
    task_rng,
    task_round,
)
from .packing import plan_cohort

if TYPE_CHECKING:  # avoid a circular import with repro.core
    from ..core.client import Client, ClientUpdate
    from ..models.base import FederatedModel
    from ..optim.base import LocalSolver

# Upper bound on the per-chunk batch staging buffer (gathered X blocks).
# Big enough to amortize the fancy-index gather over hundreds of steps,
# small enough to stay cache/memory friendly at any federation scale.
_GATHER_CHUNK_BYTES = 8 << 20


def solve_cohort(
    tasks: Sequence[LocalTask],
    clients: Sequence["Client"],
    model: "FederatedModel",
    solver: "LocalSolver",
    telemetry=None,
) -> List["ClientUpdate"]:
    """Run every task's local solve in one stacked loop; task-order results.

    When ``telemetry`` is enabled, the solve's internal phase splits are
    emitted as ``cohort:plan`` (batch schedules + lane packing),
    ``cohort:pack`` (shard concatenation + gather-plan build),
    ``cohort:kernel`` (the stacked step loop), and ``cohort:finalize``
    (task-order restore + γ measurement) spans — plus the
    ``cohort.pack_efficiency`` gauge (achieved width / ideal width of the
    packed lane schedule).
    """
    import time

    from ..core.client import ClientUpdate  # deferred: core imports runtime
    from ..optim.inexactness import gamma_inexactness

    telemetry = resolve_telemetry(telemetry)
    round_idx = task_round(tasks[0]) if tasks else None
    t_phase = time.perf_counter() if telemetry.enabled else 0.0

    K = len(tasks)
    d = model.n_params

    # Per-task batch schedules, drawn exactly as the scalar solver draws
    # them (one permutation per started epoch from the task's entropy).
    # Crash faults truncate the executed budget here, exactly as the
    # scalar path truncates it — a crashed client is scheduled like a
    # straggler whose budget ends at the crash point.
    plans = [
        solver.stacked_plan(
            clients[task.client_id].data.num_train,
            task_effective_epochs(task),
            task_rng(task),
        )
        for task in tasks
    ]

    budgets = [len(lens) for _, lens in plans]  # steps per task
    plan = plan_cohort(budgets)
    L = plan.n_lanes
    t_max = plan.t_max
    b_max = max(int(lens.max()) for _, lens in plans)

    if telemetry.enabled:
        now = time.perf_counter()
        telemetry.record_span(
            "cohort:plan", now - t_phase, round_idx=round_idx,
            clients=K, steps=t_max, lanes=L,
        )
        telemetry.metric(
            "cohort.pack_efficiency", plan.pack_efficiency,
            round_idx=round_idx, kind="gauge",
            lanes=L, clients=K, steps=t_max,
            ideal_width=plan.ideal_width,
        )
        t_phase = now

    # Lay the cohort's shards out once (task order) in the model's stacked
    # layout; the final row is a zero pad target for out-of-batch gather
    # indices (for token sequences token 0, whose gradient contribution
    # the mask zeroes exactly).
    shards = [clients[task.client_id].data for task in tasks]
    offsets = np.cumsum([0] + [data.num_train for data in shards])
    base = int(offsets[-1])  # the pad row's index
    x_cat = model.stacked_rows([data.train_x for data in shards])
    y_cat = np.zeros(base + 1, dtype=np.int64)
    np.concatenate([data.train_y for data in shards], out=y_cat[:base])
    del shards

    # Precomputed gather plan over (step, lane, batch-slot): indices,
    # masks and batch sizes, scattered once per chain placement — a Python
    # loop over every (step, sample) would cost more than the solve.
    idx = np.full((t_max, L, b_max), base, dtype=np.int64)
    mask = np.zeros((t_max, L, b_max), dtype=np.float64)
    counts = np.ones((t_max, L), dtype=np.float64)
    for p in plan.placements:
        flat, lens = plans[p.task]
        flat = flat + offsets[p.task]
        step_of = np.repeat(np.arange(p.start, p.stop), lens)
        col_of = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
        idx[step_of, p.lane, col_of] = flat
        mask[step_of, p.lane, col_of] = 1.0
        counts[p.start : p.stop, p.lane] = lens
    counts3 = counts[:, :, None, None]  # kernel-shaped (t, L, 1, 1) view

    # Stacked per-lane weights and subproblem terms, loaded at each chain's
    # start segment (float64 copies exactly as the scalar solvers take
    # them) and copied out at its end segment: each lane's µ and its
    # ``gradient_scale * b`` row (zero when the chain has none).
    W = np.empty((L, d), dtype=np.float64)
    offsets_b = np.zeros((L, d), dtype=np.float64)
    mus = np.zeros(L, dtype=np.float64)
    has_b = np.zeros(L, dtype=bool)
    results: List[np.ndarray] = [None] * K  # type: ignore[list-item]
    state = solver.stacked_state((L, d))
    scale = solver.gradient_scale

    # Every chunk of steps is gathered into one reused buffer, sized for
    # the largest chunk of any segment.
    row_shape, row_bytes = x_cat.shape[1:], x_cat[0].nbytes
    chunks = [
        max(1, _GATHER_CHUNK_BYTES // (seg.width * b_max * row_bytes))
        for seg in plan.segments
    ]
    most = b_max * max(
        min(c, seg.hi - seg.lo) * seg.width for c, seg in zip(chunks, plan.segments)
    )
    x_buf = np.empty((most,) + row_shape, dtype=x_cat.dtype)
    y_buf = np.empty(most, dtype=np.int64)

    if telemetry.enabled:
        now = time.perf_counter()
        telemetry.record_span(
            "cohort:pack", now - t_phase, round_idx=round_idx,
            rows=int(base), clients=K, lanes=L,
        )
        t_phase = now

    # The step loop decomposes into the planner's segments of constant
    # busy width ``a``; within a segment each active lane advances one
    # fixed chain, so batches for many steps are gathered in one ``take``
    # (chunked to bound the staging buffer) and handed to the model's
    # gradient stream, which reads ``W[:a]`` in place and yields one reused
    # buffer of ``gradient_scale * ∇F_k`` per step.
    stacked_step = solver.stacked_step
    for seg, chunk in zip(plan.segments, chunks):
        for p in seg.starts:
            lane = p.lane
            task = tasks[p.task]
            W[lane] = np.asarray(task.w_global, dtype=np.float64)
            mus[lane] = task.mu
            b = proximal_offset(task.mu, W[lane], task.correction, scale)
            has_b[lane] = b is not None
            offsets_b[lane] = 0.0 if b is None else b
            solver.stacked_reset(state, lane)
        a = seg.width
        Wa = W[:a]
        solver.stacked_anchor(
            state, mus[:a], offsets_b[:a] if has_b[:a].any() else None
        )
        # The 1-based local step of the segment's first kernel call: an int
        # when every active lane sits at the same chain offset.
        first_step = int(seg.base_steps[0]) if seg.uniform else seg.base_steps
        for lo in range(seg.lo, seg.hi, chunk):
            hi = min(lo + chunk, seg.hi)
            rows = idx[lo:hi, :a]
            Xc = x_buf[: rows.size].reshape(rows.shape + row_shape)
            yc = y_buf[: rows.size].reshape(rows.shape)
            np.take(x_cat, rows, axis=0, out=Xc, mode="clip")
            np.take(y_cat, rows, out=yc, mode="clip")
            stream = model.stacked_minibatch_gradients(
                Wa, Xc, yc, mask[lo:hi, :a], counts3[lo:hi, :a], scale
            )
            for step, G in enumerate(stream, lo - seg.lo):
                stacked_step(Wa, G, state, first_step + step)
        for p in seg.ends:
            results[p.task] = W[p.lane].copy()

    if telemetry.enabled:
        now = time.perf_counter()
        telemetry.record_span(
            "cohort:kernel", now - t_phase, round_idx=round_idx,
            steps=t_max, clients=K, lanes=L,
        )
        t_phase = now

    # Emit updates in task order with the scalar path's metadata.
    updates: List["ClientUpdate"] = [None] * K  # type: ignore[list-item]
    for i, task in enumerate(tasks):
        client = clients[task.client_id]
        w_local = results[i]
        gamma = None
        if task.measure_gamma:
            objective = client.make_objective(
                task.w_global, task.mu, correction=task.correction
            )
            gamma = gamma_inexactness(objective, w_local, task.w_global)
        updates[i] = ClientUpdate(
            client_id=task.client_id,
            w=w_local,
            num_train=client.data.num_train,
            epochs=task_effective_epochs(task),
            gradient_evaluations=budgets[i],
            gamma=gamma,
            task=task,
        )
        apply_update_fault(updates[i])

    if telemetry.enabled:
        telemetry.record_span(
            "cohort:finalize", time.perf_counter() - t_phase,
            round_idx=round_idx, clients=K,
        )
    return updates


class CohortExecutor(RoundExecutor):
    """In-process round execution through the stacked cohort fast path.

    Requires a model advertising ``supports_stacked_local_solve`` and a
    solver advertising ``supports_stacked_solve``; anything else fails at
    bind time with ``TypeError`` (mirroring
    :class:`~repro.runtime.parallel.ParallelExecutor`'s replica gating).
    Evaluation shares the bound :class:`FederationEvaluator`, so it is
    identical to the serial path.
    """

    def _on_bind(self) -> None:
        if not getattr(self.model, "supports_stacked_local_solve", False):
            reason = getattr(self.model, "stacked_local_solve_reason", None)
            detail = f" ({reason})" if reason else ""
            raise TypeError(
                f"CohortExecutor requires a model implementing the stacked "
                f"local-solve protocol; {type(self.model).__name__} does not "
                f"advertise supports_stacked_local_solve{detail}. Implement "
                "stacked_gradient() or use SerialExecutor — cohort execution "
                "will not silently fall back to serial."
            )
        if not getattr(self.solver, "supports_stacked_solve", False):
            raise TypeError(
                f"CohortExecutor requires a solver implementing the stacked "
                f"solve protocol; {type(self.solver).__name__} does not "
                "advertise supports_stacked_solve. Implement stacked_plan/"
                "stacked_state/stacked_step or use SerialExecutor."
            )

    def _solve(self, tasks):
        if not tasks:
            return []
        # The stacked kernels emit dense iterates (they ignore any
        # device-side codec on the tasks); the comms stage round-trips
        # them server-side, so lossy-codec histories agree with the
        # serial/parallel engines — encoding is a pure function of
        # (update, w_global, task entropy) either way.
        return solve_cohort(
            tasks, self.clients, self.model, self.solver,
            telemetry=self.telemetry,
        )
