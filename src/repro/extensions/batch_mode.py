"""Batch-mode mapping (paper Section II contrast; [MaA99], [SmA10]).

The paper deliberately limits its resource manager to *immediate mode*:
each task is mapped at arrival, irrevocably.  The classic alternative is
*batch mode* — hold unmapped tasks in a central pool and defer
commitment until a core can actually take work.  This extension
implements a batch engine over the same substrates so the two modes can
be compared on identical trials:

* arriving tasks join a central pending pool (after the same filter
  chain vets that *some* assignment is acceptable — otherwise the task
  is discarded exactly as in immediate mode);
* whenever a core goes idle (and on every arrival), a batch heuristic
  picks (task, core, P-state) triples over the pending pool and the
  *idle* cores only — cores never queue, so every commitment happens at
  the last responsible moment;
* two classic batch heuristics are provided: **Min-Min** (repeatedly
  commit the pending task with the globally smallest expected completion
  time) and **Max-Min** (commit the task whose *best* completion time is
  largest — serving hard tasks first).

Because pending tasks wait in the pool rather than in core FIFOs, batch
mode can re-decide placement as late information arrives — the
structural advantage the paper's immediate-mode constraint gives up.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Literal

from repro.cluster.energy import IDLE_PSTATE, EnergyLedger
from repro.filters.chain import FilterChain
from repro.heuristics.base import MappingContext
from repro.robustness.completion import prob_on_time
from repro.sim.results import TaskOutcome, TrialResult, score_trial
from repro.sim.state import CoreState, RunningTask
from repro.sim.system import TrialSystem
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = ["BatchEngine", "run_batch_trial"]

_COMPLETION = 0
_ARRIVAL = 1


@dataclass
class _Pending:
    task: Task


class BatchEngine:
    """Batch-mode counterpart of :class:`repro.sim.engine.Engine`.

    Parameters
    ----------
    system:
        The same trial environment the immediate-mode engine uses,
        enabling paired comparisons.
    policy:
        ``"min-min"`` or ``"max-min"``.
    filter_chain:
        The paper's filters, applied per dispatch decision over the
        candidate (idle core, P-state) pairs of each pending task.
    """

    def __init__(
        self,
        system: TrialSystem,
        policy: Literal["min-min", "max-min"] = "min-min",
        filter_chain: FilterChain | None = None,
    ) -> None:
        if policy not in ("min-min", "max-min"):
            raise ValueError(f"unknown batch policy {policy!r}")
        self.system = system
        self.policy = policy
        self.filter_chain = filter_chain if filter_chain is not None else FilterChain()
        cluster = system.cluster
        dt = system.config.grid.dt
        self.cores = [
            CoreState(cid, int(cluster.core_node_index[cid]), dt)
            for cid in range(cluster.num_cores)
        ]
        self.ledger = EnergyLedger(cluster, system.config.energy.idle_power_mode)
        self.energy_estimate = system.budget
        self._pending: list[_Pending] = []
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._outcomes: dict[int, TaskOutcome] = {}
        self._in_system = 0
        self._arrived = 0
        self._ran = False

    # ------------------------------------------------------------------

    def _push(self, time: float, kind: int, payload: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, kind, self._seq, payload))

    def _context(self, task: Task, t_now: float) -> MappingContext:
        return MappingContext(
            t_now=t_now,
            task=task,
            energy_estimate=self.energy_estimate,
            tasks_left=self.system.num_tasks - self._arrived,
            avg_queue_depth=(self._in_system + len(self._pending)) / len(self.cores),
        )

    def _feasible_idle_assignments(
        self, task: Task, t_now: float
    ) -> list[tuple[int, int, float, float, float]]:
        """(core_id, pstate, ect, eec, rho) for idle cores passing filters."""
        table = self.system.table
        ctx = self._context(task, t_now)
        ready = PMF.delta(t_now, self.system.config.grid.dt)
        out: list[tuple[int, int, float, float, float]] = []
        for core in self.cores:
            if core.running is not None:
                continue
            node = core.node_index
            for pi in range(self.system.cluster.num_pstates):
                eet = float(table.eet[task.type_id, node, pi])
                eec = float(table.eec[task.type_id, node, pi])
                rho = prob_on_time(
                    ready, table.pmf(task.type_id, node, pi), task.deadline
                )
                if not self._passes_filters(ctx, eec, rho):
                    continue
                out.append((core.core_id, pi, t_now + eet, eec, rho))
        return out

    def _passes_filters(self, ctx: MappingContext, eec: float, rho: float) -> bool:
        """Scalar re-statement of the two paper filters."""
        for f in self.filter_chain.filters:
            label = getattr(f, "label", "")
            if label == "en":
                if eec > f.fair_share(ctx):  # type: ignore[attr-defined]
                    return False
            elif label == "rob":
                if rho < f.threshold:  # type: ignore[attr-defined]
                    return False
            else:  # pragma: no cover - no other built-in filters exist
                raise TypeError(f"batch mode cannot interpret filter {f!r}")
        return True

    def _any_assignment_acceptable(self, task: Task, t_now: float) -> bool:
        """Admission check mirroring immediate mode's discard rule.

        A task none of whose (core, P-state) pairs — busy cores included,
        evaluated optimistically as if the core were free — could pass
        the filters will never be dispatchable; discard it now.
        """
        table = self.system.table
        ctx = self._context(task, t_now)
        ready = PMF.delta(t_now, self.system.config.grid.dt)
        for node in range(self.system.cluster.num_nodes):
            for pi in range(self.system.cluster.num_pstates):
                eec = float(table.eec[task.type_id, node, pi])
                rho = prob_on_time(
                    ready, table.pmf(task.type_id, node, pi), task.deadline
                )
                if self._passes_filters(ctx, eec, rho):
                    return True
        return False

    # ------------------------------------------------------------------

    def _dispatch(self, t_now: float) -> None:
        """Commit pending tasks to idle cores per the batch policy."""
        while self._pending:
            best_key: float | None = None
            best: tuple[int, tuple[int, int, float, float, float]] | None = None
            for idx, pending in enumerate(self._pending):
                options = self._feasible_idle_assignments(pending.task, t_now)
                if not options:
                    continue
                # The task's own best option is its minimum-ECT pair.
                option = min(options, key=lambda o: (o[2], o[0], o[1]))
                key = option[2]
                if best is None:
                    better = True
                elif self.policy == "min-min":
                    better = key < best_key  # earliest best completion first
                else:  # max-min
                    better = key > best_key  # hardest task first
                if better:
                    best_key = key
                    best = (idx, option)
            if best is None:
                return  # no idle core can take any pending task
            idx, (core_id, pstate, _ect, eec, _rho) = best
            pending = self._pending.pop(idx)
            self._start(pending.task, core_id, pstate, eec, t_now)

    def _start(self, task: Task, core_id: int, pstate: int, eec: float, t_now: float) -> None:
        core = self.cores[core_id]
        exec_pmf = self.system.table.pmf(task.type_id, core.node_index, pstate)
        luck = float(self.system.exec_luck[task.task_id])
        actual = exec_pmf.quantile(luck)
        completion = t_now + actual
        core.set_running(
            RunningTask(
                task=task,
                pstate=pstate,
                exec_pmf=exec_pmf,
                start_time=t_now,
                completion_time=completion,
            )
        )
        self.ledger.record(core_id, t_now, pstate)
        self.energy_estimate -= eec
        self._in_system += 1
        self._outcomes[task.task_id] = TaskOutcome(
            task_id=task.task_id,
            type_id=task.type_id,
            arrival=task.arrival,
            deadline=task.deadline,
            core_id=core_id,
            pstate=pstate,
            start=t_now,
            completion=completion,
            discarded=False,
        )
        self._push(completion, _COMPLETION, core_id)

    # ------------------------------------------------------------------

    def run(self) -> TrialResult:
        """Execute the batch-mode trial and score it like the baseline."""
        if self._ran:
            raise RuntimeError("a BatchEngine instance runs exactly once")
        self._ran = True
        tasks = self.system.workload.tasks
        for task in tasks:
            self._push(task.arrival, _ARRIVAL, task.task_id)

        end_time = 0.0
        while self._heap:
            time, kind, _seq, payload = heapq.heappop(self._heap)
            end_time = max(end_time, time)
            if kind == _COMPLETION:
                core = self.cores[payload]
                assert core.running is not None
                core.clear_running()
                self._in_system -= 1
                self.ledger.record(payload, time, IDLE_PSTATE)
            else:
                task = tasks[payload]
                self._arrived += 1
                if self._any_assignment_acceptable(task, time):
                    self._pending.append(_Pending(task))
                # else: discarded (no outcome entry)
            self._dispatch(time)

        # Tasks still pending at drain time can never run (no more events).
        self._pending.clear()
        self.ledger.close(end_time)
        return score_trial(
            self.system,
            self._outcomes,
            self.ledger,
            end_time,
            heuristic=f"Batch-{self.policy}",
            variant=self.filter_chain.label,
        )


def run_batch_trial(
    system: TrialSystem,
    policy: Literal["min-min", "max-min"] = "min-min",
    filter_chain: FilterChain | None = None,
) -> TrialResult:
    """Convenience wrapper: construct a :class:`BatchEngine` and run it."""
    return BatchEngine(system, policy, filter_chain).run()
