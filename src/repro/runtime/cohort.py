"""Vectorized cohort local solver: one stacked kernel for a whole round.

A serial solve streams each selected device's local epochs one
mini-batch at a time through its model's training kernel on one row — a
10-client round with ``E = 20`` epochs issues thousands of tiny GEMMs,
each paying full Python/NumPy dispatch overhead.  The paper's headline
experiments (1000-device synthetic and FEMNIST logistic models) are
exactly the workload where stacking pays off: :class:`CohortExecutor`
packs the selected clients' weight vectors into a stacked matrix and
advances *all* clients' FedProx local solves simultaneously through the
same kernel, one row per lane.

Mechanics
---------
* **Scheduling.**  Each task's mini-batch schedule is drawn from the same
  ``(seed, round, client, occurrence)`` entropy tuple as a serial solve
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
* **Ragged data.**  Nothing is copied per round: each ``(S, A, B, ...)``
  chunk of steps is gathered straight from the active lanes' own device
  arrays into one reused buffer in the model's layout
  (``stacked_buffer``: ``[x, 1]`` float64 rows for the logistic model,
  tokens kept for the LSTMs), its index, mask and batch sizes sliced from
  the chains' flat plans (:class:`_ChunkGather`).  A short batch's extra
  slots hold the pad row (zero features, label 0), and a float mask
  zeroes their contributions before the backward GEMMs, so padded rows
  add exact ``±0.0`` terms.
* **Stragglers.**  Lanes are ordered by descending total load, making the
  busy set at any step a *prefix* of the stack: when a lane's last chain
  ends it simply drops out of the stacked loop.  Time decomposes into
  *segments* between chain boundaries; at each boundary finishing chains
  copy their lane row out and starting chains load their task's ``w_t``,
  µ and ``gradient_scale * b`` (and reset per-row solver state via
  ``stacked_reset``).  Results are restored to task order at the end.
* **Determinism.**  The model's kernel (``stacked_gradient``, stepped
  through ``stacked_minibatch_gradients``) is the one a serial solve runs
  on one row, and the solver's rule (``stacked_step``, fed per-row local
  step indices when packed lanes sit at different chain offsets) is the
  one a serial solve applies to its ``(1, d)`` view: each row's µ and
  ``gradient_scale * (µ w_t − c)`` are built by the serial solve's
  :func:`~repro.optim.proximal.proximal_offset` and folded into the rule
  through ``stacked_anchor`` once per segment.  Each client's chain runs
  its own steps in order against only its own row, so a lane's step is
  bitwise the serial step whenever both run at the same batch height —
  every dense step.  A short batch runs here at the cohort's padded
  height; DESIGN.md §14 lists the models and heights where that rounds
  differently, each named with its tolerance in
  ``tests/test_runtime_cohort.py`` and ``tests/test_runtime_cohort_lstm.py``.
  γ-inexactness is measured with the same :class:`LocalObjective` code
  on both paths.

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
    from ..core.client import ClientPool, ClientUpdate
    from ..models.base import FederatedModel
    from ..optim.base import LocalSolver

# Upper bound on one gathered chunk of steps in the model's layout.  Big
# enough to amortize each lane's gather over tens of steps, small enough
# that a round's transient memory is this chunk and the weight stacks,
# whatever the size of the largest selected device.
_GATHER_CHUNK_BYTES = 1 << 20


class _ChunkGather:
    """Gathers each chunk of steps from the active lanes' own device arrays.

    Inside a segment a lane advances one chain, and a chain's consecutive
    steps read consecutive runs of its flat plan, so a lane's share of a
    chunk is one slice of it.  Its rows are ``take``-n into a contiguous
    staging buffer of the device's dtype (``take(out=)`` into the lane's
    strided slots would stage through a temporary of its own), then
    ``copyto``-d into the chunk, laid out by the model's
    ``stacked_buffer``, as the serial stream gathers.  A short step's
    slots past its batch take rows of the device that follow it in the
    plan; once every lane is in, the chunk's mask is built from the batch
    sizes and those slots are zeroed, labels included: the model's pad
    row.
    """

    def __init__(self, model, sample: np.ndarray, b_max: int, steps: int, rows: int):
        """Buffers for ``rows`` slots of chunk, and for ``steps`` steps of
        one lane's share of it."""
        self.x, self.features = model.stacked_buffer(rows, sample)
        self.y = np.empty(rows, dtype=np.int64)
        self.mask = np.empty(rows, dtype=np.float64)
        self.valid = np.empty(rows, dtype=bool)
        self.counts = np.empty(rows // b_max, dtype=np.float64)
        self.b_max = b_max
        self.cols = np.arange(b_max)
        self.steps = steps
        self.pos = np.empty((steps, b_max), dtype=np.int64)
        self.idx = np.empty((steps, b_max), dtype=np.int64)
        self.stages = {}  # (role, dtype) -> contiguous staging buffer

    def __call__(self, lanes, S: int):
        """The chunk of steps ``[l0, l0 + S)`` of each ``(chain, l0)`` in
        ``lanes``: views ``X (S, A, B, ...)``, ``y`` and ``mask``
        ``(S, A, B)`` and ``counts (S, A, 1, 1)`` of the reused buffers."""
        shape = (S, len(lanes), self.b_max)
        n = S * len(lanes) * self.b_max
        X = self.x[:n].reshape(shape + self.x.shape[1:])
        F = self.features[:n].reshape(shape + self.features.shape[1:])
        y = self.y[:n].reshape(shape)
        counts = self.counts[: n // self.b_max].reshape(shape[:2] + (1, 1))
        for lane, (chain, l0) in enumerate(lanes):
            self._lane(chain, l0, l0 + S, F[:, lane], y[:, lane], counts[:, lane, 0, 0])
        valid = np.less(self.cols, counts[..., 0], out=self.valid[:n].reshape(shape))
        mask = self.mask[:n].reshape(shape)
        np.copyto(mask, valid)
        if not valid.all():
            pad = np.logical_not(valid, out=valid)
            F[pad] = 0
            y[pad] = 0
        return X, y, mask, counts

    def _lane(self, chain, l0, l1, F, y, counts) -> None:
        """Steps ``[l0, l1)`` of ``chain`` into one lane's views of a chunk."""
        x_dev, y_dev, flat, lens, bounds = chain
        S, B = l1 - l0, self.b_max
        lo, hi = bounds[l0], bounds[l1]
        np.copyto(counts, lens[l0:l1])
        if hi - lo == S * B:  # every step a full batch
            idx = flat[lo:hi].reshape(S, B)
        else:
            pos = np.add(bounds[l0:l1, None], self.cols, out=self.pos[:S])
            idx = flat.take(pos, out=self.idx[:S], mode="clip")
        xs = self._stage("x", x_dev.dtype, (S, B) + x_dev.shape[1:])
        ys = self._stage("y", y_dev.dtype, (S, B))
        x_dev.take(idx, axis=0, out=xs, mode="clip")
        y_dev.take(idx, out=ys, mode="clip")
        np.copyto(F, xs, casting="unsafe")
        np.copyto(y, ys, casting="unsafe")

    def _stage(self, role, dtype, shape):
        buf = self.stages.get((role, dtype))
        if buf is None:
            rows = self.steps * self.b_max
            buf = self.stages[role, dtype] = np.empty((rows,) + shape[2:], dtype)
        return buf[: shape[0] * shape[1]].reshape(shape)


def solve_cohort(
    tasks: Sequence[LocalTask],
    clients: "ClientPool",
    model: "FederatedModel",
    solver: "LocalSolver",
    telemetry=None,
) -> List["ClientUpdate"]:
    """Run every task's local solve in one stacked loop; task-order results.

    When ``telemetry`` is enabled, the solve's internal phase splits are
    emitted as ``cohort:plan`` (batch schedules + lane packing),
    ``cohort:pack`` (chain bounds + gather buffers),
    ``cohort:kernel`` (the stacked step loop), and ``cohort:finalize``
    (task-order restore + γ measurement) spans — plus the
    ``cohort.pack_efficiency`` gauge (achieved width / ideal width of the
    packed lane schedule).  A task asking for timings
    (``collect_timings``) gets ``update.timings["solve"]``: the
    ``cohort:kernel`` seconds apportioned by its share of the steps.
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
    # straggler whose budget ends at the crash point.  Each device's
    # arrays are read in place for the whole solve: nothing is copied
    # beyond the chunk being stepped.
    shards = [clients[task.client_id] for task in tasks]
    plans = [
        solver.stacked_plan(
            data.num_train, task_effective_epochs(task), task_rng(task)
        )
        for task, data in zip(tasks, shards)
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

    # Each chain's step boundaries in its flat plan: step t reads
    # ``flat[bounds[t]:bounds[t + 1]]``.
    chains = []
    for data, (flat, lens) in zip(shards, plans):
        bounds = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=bounds[1:])
        chains.append(
            (np.asarray(data.train_x), np.asarray(data.train_y), flat, lens, bounds)
        )
    del plans

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

    # Every chunk of steps is gathered into one set of reused buffers,
    # sized for the largest chunk of any segment.
    sample = chains[0][0]
    row_bytes = model.stacked_buffer(1, sample)[0].nbytes
    chunks = [
        max(1, _GATHER_CHUNK_BYTES // (seg.width * b_max * row_bytes))
        for seg in plan.segments
    ]
    spans = [min(c, seg.hi - seg.lo) for c, seg in zip(chunks, plan.segments)]
    most = b_max * max(n * seg.width for n, seg in zip(spans, plan.segments))
    gather = _ChunkGather(model, sample, b_max, max(spans), most)

    if telemetry.enabled:
        now = time.perf_counter()
        telemetry.record_span(
            "cohort:pack", now - t_phase, round_idx=round_idx,
            rows=sum(data.num_train for data in shards), clients=K, lanes=L,
        )
        t_phase = now

    # The step loop decomposes into the planner's segments of constant
    # busy width ``a``; within a segment each active lane advances one
    # fixed chain, so each lane's batches for many steps are one slice of
    # its chain's plan, gathered in one ``take`` (chunked to bound the
    # buffers) and handed to the model's gradient stream, which reads
    # ``W[:a]`` in place and yields one reused buffer of
    # ``gradient_scale * ∇F_k`` per step.
    stacked_step = solver.stacked_step
    running = [None] * L  # the placement each lane is advancing
    t_kernel = time.perf_counter()
    for seg, chunk in zip(plan.segments, chunks):
        for p in seg.starts:
            lane = p.lane
            running[lane] = p
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
            lanes = [(chains[p.task], lo - p.start) for p in running[:a]]
            X, y, mask, counts = gather(lanes, hi - lo)
            stream = model.stacked_minibatch_gradients(Wa, X, y, mask, counts, scale)
            for step, G in enumerate(stream, lo - seg.lo):
                stacked_step(Wa, G, state, first_step + step)
        for p in seg.ends:
            results[p.task] = W[p.lane].copy()

    t_phase = time.perf_counter()
    kernel_seconds = t_phase - t_kernel
    if telemetry.enabled:
        telemetry.record_span(
            "cohort:kernel", kernel_seconds, round_idx=round_idx,
            steps=t_max, clients=K, lanes=L,
        )
    # A task asking for timings gets the kernel's seconds apportioned by
    # its share of the steps: the stacked loop times no solve on its own.
    seconds_per_step = kernel_seconds / max(1, sum(budgets))

    # Emit updates in task order with the scalar path's metadata.
    updates: List["ClientUpdate"] = [None] * K  # type: ignore[list-item]
    for i, (task, data) in enumerate(zip(tasks, shards)):
        w_local = results[i]
        gamma = None
        if task.measure_gamma:
            objective = clients.make_objective(
                data, task.w_global, task.mu, correction=task.correction
            )
            gamma = gamma_inexactness(objective, w_local, task.w_global)
        updates[i] = ClientUpdate(
            client_id=task.client_id,
            w=w_local,
            num_train=data.num_train,
            epochs=task_effective_epochs(task),
            gradient_evaluations=budgets[i],
            gamma=gamma,
            task=task,
        )
        if task.collect_timings:
            updates[i].timings = {"solve": seconds_per_step * budgets[i]}
        apply_update_fault(updates[i])

    if telemetry.enabled:
        telemetry.record_span(
            "cohort:finalize", time.perf_counter() - t_phase,
            round_idx=round_idx, clients=K,
        )
    return updates


class CohortExecutor(RoundExecutor):
    """The stacked backend: due tasks solved together by :func:`solve_cohort`.

    Requires a model advertising ``supports_stacked_local_solve`` and a
    solver advertising ``supports_stacked_solve``; anything else fails at
    bind time with ``TypeError`` (mirroring
    :class:`~repro.runtime.parallel.ParallelExecutor`'s replica gating).
    Scheduling and evaluation are the base class's, so both are the
    serial engine's.
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
        # The stacked kernels emit dense iterates (they ignore any
        # device-side codec on the tasks); the comms stage round-trips
        # them server-side, so lossy-codec histories agree with the
        # serial/parallel engines — encoding is a pure function of
        # (update, w_global, task entropy) either way.
        return solve_cohort(
            tasks, self.clients, self.model, self.solver,
            telemetry=self.telemetry,
        )
