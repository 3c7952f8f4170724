"""Supervised ensemble execution: timeouts, retries, quarantine, checkpoints.

The naive fan-out (``ProcessPoolExecutor.map``) fails closed: one worker
crash, hang, or corrupted result aborts the whole ensemble and discards
every completed trial.  This module fails *open* instead, applying the
robustness discipline of the paper's scheduler to the harness itself:

* :func:`run_supervised` owns a pool of worker processes connected by
  pipes and hands each idle worker one trial at a time.  A dying worker
  forfeits only the trial it was running, a hung worker is killed at
  the per-trial wall-clock timeout, and result payloads are checksummed
  so transport corruption is detected rather than silently recorded.
  Results travel as single-copy binary frames: the worker pickles the
  value once, directly into the frame buffer behind a fixed header
  carrying the trial index and the payload's SHA-256, instead of
  pickling the value and then pickling the (blob, digest) tuple again
  for the pipe.
* Failed trials retry with exponential backoff and **deterministic**
  jitter derived from ``(base_seed, "retry", trial, attempt)`` via
  :mod:`repro.rng` — chaos runs replay exactly.  A trial that exhausts
  its retry budget is quarantined as poison; the ensemble completes
  without it and reports it missing.
* :class:`CheckpointWriter` / :func:`load_checkpoint` stream completed
  trials to a JSONL shard keyed by the run's config digest and base
  seed.  Resume skips every checkpointed trial whose stored per-spec
  digests re-verify (via :func:`repro.obs.manifest.trial_digest`);
  undecodable records — e.g. a final line truncated by a kill mid-write
  — are dropped with a warning and the trial re-runs.

Every recovery action is observable: ``TrialRetried`` /
``TrialQuarantined`` / ``CheckpointWritten`` events flow to the caller's
sinks and the ``executor.*`` counters land in the caller's
:class:`~repro.obs.sinks.MetricsRegistry`.

Determinism: supervision never touches trial seeds.  Workers run the
same job function the serial path runs, results are keyed by trial
index, and fan-in order is sorted — so a recovered run is bitwise
identical to a fault-free serial run (the chaos tests pin this down via
manifest digests).
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import pathlib
import pickle
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro import rng as rng_mod
from repro.experiments.chaos import FAULT_CORRUPT, FAULT_CRASH, FAULT_ERROR, FAULT_HANG, FaultPlan
from repro.obs.events import CheckpointWritten, Event, TrialQuarantined, TrialRetried
from repro.obs.sinks import MetricsRegistry
from repro.obs.spans import SpanRecorder

__all__ = [
    "RetryPolicy",
    "TrialFailure",
    "run_supervised",
    "CheckpointWriter",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

#: On-disk format tag of checkpoint shard records.
CHECKPOINT_FORMAT = "repro.checkpoint/1"

#: Fault kinds the supervisor itself diagnoses (chaos reuses the names).
FAULT_TIMEOUT = "timeout"

_CRASH_EXIT = 86
_HANG_SECONDS = 3600.0
#: Floor for supervisor poll timeouts, so deadline rounding can't spin.
_MIN_WAIT = 0.01

#: Result-frame layout: status byte, trial index, payload SHA-256, payload.
_STATUS_OK = 0x52  # "R"
_STATUS_ERR = 0x45  # "E"
_HEADER_SIZE = 1 + 8 + 32


def _result_frame(trial: int, value: Any) -> memoryview:
    """Pickle ``value`` once, in place, behind the framed header.

    The pickler writes directly after a placeholder header in one
    buffer; the header (status, trial, SHA-256 of the payload bytes) is
    then patched in via ``getbuffer`` — no second serialization or copy
    of the payload ever happens on the worker side.
    """
    buf = io.BytesIO()
    buf.write(b"\x00" * _HEADER_SIZE)
    pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    frame = buf.getbuffer()
    frame[0] = _STATUS_OK
    frame[1:9] = trial.to_bytes(8, "little")
    frame[9:_HEADER_SIZE] = hashlib.sha256(frame[_HEADER_SIZE:]).digest()
    return frame


def _error_frame(trial: int, detail: str) -> bytes:
    """Frame an error reply: status, trial, UTF-8 detail text."""
    return (
        bytes((_STATUS_ERR,))
        + trial.to_bytes(8, "little")
        + detail.encode("utf-8", "replace")
    )


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The delay before retrying attempt ``n`` (1-based) is
    ``min(cap, base * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.0)`` drawn from the :mod:`repro.rng` stream
    ``(base_seed, "retry", trial, attempt)`` — reproducible across
    processes and runs, unlike wall-clock-seeded jitter.
    """

    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")

    def delay(self, base_seed: int, trial: int, attempt: int) -> float:
        """Backoff (seconds) before re-running ``trial`` after ``attempt`` failed."""
        if self.backoff_base <= 0.0:
            return 0.0
        raw = min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 1))
        jitter = float(rng_mod.stream(base_seed, "retry", trial, attempt).random())
        return raw * (0.5 + 0.5 * jitter)


@dataclass(frozen=True)
class TrialFailure:
    """The post-mortem of one quarantined (poison) trial."""

    trial: int
    attempts: int
    fault: str
    detail: str


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _ChaosError(RuntimeError):
    """Raised inside a worker by an injected ``error`` fault."""


def _worker_main(conn: multiprocessing.connection.Connection) -> None:
    """Worker loop: receive ``(fn, job)`` messages; ``None`` means exit.

    Each job is ``(trial, attempt, payload, fault)`` and is answered by
    one binary frame (see :func:`_result_frame` / :func:`_error_frame`).
    Injected crash/hang faults bypass the reply (that is the point).
    """
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            fn, (trial, attempt, payload, fault) = msg
            if fault == FAULT_CRASH:
                os._exit(_CRASH_EXIT)
            if fault == FAULT_HANG:
                time.sleep(_HANG_SECONDS)
                conn.send_bytes(
                    _error_frame(trial, "injected hang outlived the supervisor")
                )
                continue
            try:
                if fault == FAULT_ERROR:
                    raise _ChaosError(
                        f"injected error fault (trial {trial}, attempt {attempt})"
                    )
                frame = _result_frame(trial, fn(payload))
                if fault == FAULT_CORRUPT:
                    frame[_HEADER_SIZE] ^= 0xFF
                conn.send_bytes(frame)
            except Exception as exc:
                conn.send_bytes(_error_frame(trial, f"{type(exc).__name__}: {exc}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap, inherits imports); default otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One supervised worker process plus its pipe and in-flight trial."""

    __slots__ = ("conn", "process", "job", "deadline", "started_at")

    def __init__(self, ctx: multiprocessing.context.BaseContext) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        #: The (trial, attempt) the worker is running, ``None`` when idle.
        self.job: tuple[int, int] | None = None
        self.deadline: float | None = None
        self.started_at: float = 0.0

    def kill(self) -> None:
        """Terminate the process and close the pipe (idempotent)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------


def run_supervised(
    fn: Callable[[Any], Any],
    payloads: Mapping[int, Any],
    *,
    base_seed: int,
    n_jobs: int,
    trial_timeout: float | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    on_event: Callable[[Event], None] | None = None,
    metrics: MetricsRegistry | None = None,
    profile: SpanRecorder | None = None,
) -> tuple[dict[int, Any], list[TrialFailure]]:
    """Run ``fn(payloads[trial])`` for every trial under supervision.

    Returns ``(done, failures)``: results keyed by trial index, plus one
    :class:`TrialFailure` per quarantined trial.  ``on_result`` fires as
    each trial completes (checkpointing hook); ``on_event`` receives
    :class:`~repro.obs.events.TrialRetried` /
    :class:`~repro.obs.events.TrialQuarantined`.

    The pool is ``min(n_jobs, len(payloads))`` workers and each idle
    worker is handed one trial per IPC round, so the per-trial
    ``trial_timeout`` deadline starts when the trial is sent, and a
    trial is sent again only after a fault was charged to it: a dying
    or hung worker forfeits exactly the trial it was running.

    With ``profile``, every attempt's send-to-resolution wall time is
    recorded as an ``executor.trial`` span (``tid`` = pool slot, so
    trace viewers show one lane per worker; faulted and timed-out
    attempts are included — their cost is real even when their result
    is discarded).

    ``fn`` and the payloads must be picklable; ``fn`` must be a
    module-level callable so the worker can resolve it.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    retry = retry or RetryPolicy()
    done: dict[int, Any] = {}
    failures: list[TrialFailure] = []
    if not payloads:
        return done, failures

    def emit(event: Event) -> None:
        if on_event is not None:
            on_event(event)

    def count(name: str) -> None:
        if metrics is not None:
            metrics.inc(name)

    def span_trial(started_at: float, slot: int) -> None:
        if profile is not None:
            profile.add(
                "executor.trial", started_at, time.perf_counter() - started_at, tid=slot
            )

    # (eligible_time, trial, attempt); attempts are 1-based.
    now = time.monotonic()
    pending: list[tuple[float, int, int]] = [(now, t, 1) for t in sorted(payloads)]
    heapq.heapify(pending)

    def handle_fault(trial: int, attempt: int, fault: str, detail: str) -> None:
        count(f"executor.faults.{fault}")
        if attempt > retry.max_retries:
            failures.append(
                TrialFailure(trial=trial, attempts=attempt, fault=fault, detail=detail)
            )
            count("executor.trials_quarantined")
            emit(TrialQuarantined(trial=trial, attempts=attempt, fault=fault))
        else:
            delay = retry.delay(base_seed, trial, attempt)
            heapq.heappush(pending, (time.monotonic() + delay, trial, attempt + 1))
            count("executor.trials_retried")
            emit(TrialRetried(trial=trial, attempt=attempt, fault=fault, delay=delay))

    ctx = _mp_context()
    workers = [_Worker(ctx) for _ in range(min(n_jobs, len(payloads)))]
    try:
        while len(done) + len(failures) < len(payloads):
            now = time.monotonic()
            # Hand the soonest eligible pending trial to each idle worker.
            for slot, worker in enumerate(workers):
                if worker.job is not None or not pending or pending[0][0] > now:
                    continue
                _, trial, attempt = heapq.heappop(pending)
                fault = fault_plan.fault_for(trial, attempt) if fault_plan else None
                try:
                    worker.conn.send((fn, (trial, attempt, payloads[trial], fault)))
                except (BrokenPipeError, OSError):
                    # The worker died while idle; the trial never ran, so
                    # it goes back uncharged and the worker is replaced.
                    heapq.heappush(pending, (now, trial, attempt))
                    worker.kill()
                    workers[slot] = _Worker(ctx)
                    continue
                worker.job = (trial, attempt)
                worker.deadline = now + trial_timeout if trial_timeout is not None else None
                worker.started_at = time.perf_counter()
                count("executor.trials_dispatched")

            busy = [w for w in workers if w.job is not None]
            # How long may we block?  Until the soonest worker deadline
            # or the soonest retry becomes eligible.
            horizons = [w.deadline - now for w in busy if w.deadline is not None]
            if pending:
                horizons.append(pending[0][0] - now)
            wait_for = max(_MIN_WAIT, min(horizons)) if horizons else None
            if not busy:
                if wait_for is None:
                    break  # nothing running, nothing pending: done
                time.sleep(wait_for)
                continue

            ready = multiprocessing.connection.wait(
                [w.conn for w in busy], timeout=wait_for
            )
            for conn in ready:
                slot, worker = next(
                    (i, w) for i, w in enumerate(workers) if w.conn is conn
                )
                trial, attempt = worker.job
                worker.job = worker.deadline = None
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    # Pipe closed without a reply: the worker crashed on
                    # its trial.
                    worker.kill()
                    workers[slot] = _Worker(ctx)
                    span_trial(worker.started_at, slot)
                    handle_fault(trial, attempt, FAULT_CRASH, "worker process died")
                    continue
                span_trial(worker.started_at, slot)
                view = memoryview(frame)
                ok_len = len(view) >= 9
                status = view[0] if ok_len else -1
                frame_trial = int.from_bytes(view[1:9], "little") if ok_len else -1
                if frame_trial != trial:  # pragma: no cover - defensive
                    handle_fault(
                        trial, attempt, FAULT_CORRUPT,
                        "reply frame named the wrong trial",
                    )
                elif status == _STATUS_OK:
                    payload = view[_HEADER_SIZE:]
                    if hashlib.sha256(payload).digest() != bytes(view[9:_HEADER_SIZE]):
                        handle_fault(
                            trial, attempt, FAULT_CORRUPT,
                            "result payload failed its checksum",
                        )
                    else:
                        value = pickle.loads(payload)
                        done[trial] = value
                        if on_result is not None:
                            on_result(trial, value)
                elif status == _STATUS_ERR:
                    handle_fault(
                        trial, attempt, FAULT_ERROR,
                        bytes(view[9:]).decode("utf-8", "replace"),
                    )
                else:  # pragma: no cover - defensive
                    handle_fault(
                        trial, attempt, FAULT_CORRUPT, "malformed result frame"
                    )

            # Enforce per-trial wall-clock deadlines on whoever is left.
            now = time.monotonic()
            for slot, worker in enumerate(workers):
                if worker.deadline is None or now < worker.deadline:
                    continue
                trial, attempt = worker.job
                worker.kill()
                workers[slot] = _Worker(ctx)
                span_trial(worker.started_at, slot)
                handle_fault(
                    trial, attempt, FAULT_TIMEOUT,
                    f"trial exceeded {trial_timeout}s wall clock",
                )
    finally:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.kill()
            else:
                worker.conn.close()
    return done, failures


# ----------------------------------------------------------------------
# Trial checkpointing
# ----------------------------------------------------------------------


class CheckpointWriter:
    """Append completed trials to a JSONL checkpoint shard.

    One record per trial: the run key (``config_digest`` + ``base_seed``
    + spec labels), the per-spec results, their digests (recomputed on
    load, so a tampered or bit-rotted record re-runs instead of
    poisoning the resumed ensemble), and the worker's serialized metrics
    registry.  Records are flushed line-atomically; a process killed
    mid-write leaves at most one truncated final line, which
    :func:`load_checkpoint` drops with a warning.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        *,
        config_digest: str,
        base_seed: int,
        spec_labels: Sequence[str],
        keep_outcomes: bool = False,
        append: bool = False,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.config_digest = config_digest
        self.base_seed = base_seed
        self.spec_labels = tuple(spec_labels)
        self.keep_outcomes = keep_outcomes
        self._file = self.path.open("a" if append else "w", encoding="utf-8")
        self.records = 0

    def write(self, trial: int, results: Sequence[Any], metrics_dict: dict | None) -> None:
        """Append one completed trial (all specs) to the shard."""
        from repro.io.results_io import trial_result_to_dict
        from repro.obs.manifest import trial_digest

        record = {
            "format": CHECKPOINT_FORMAT,
            "config_digest": self.config_digest,
            "base_seed": self.base_seed,
            "trial": trial,
            "specs": list(self.spec_labels),
            "digests": [trial_digest(r) for r in results],
            "results": [
                trial_result_to_dict(r, keep_outcomes=self.keep_outcomes)
                for r in results
            ],
            "metrics": metrics_dict,
        }
        self._file.write(json.dumps(record, sort_keys=True))
        self._file.write("\n")
        self._file.flush()
        self.records += 1

    def close(self) -> None:
        """Flush and close the shard."""
        self._file.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def load_checkpoint(
    path: str | pathlib.Path,
    *,
    config_digest: str,
    base_seed: int,
    spec_labels: Sequence[str],
    num_trials: int,
) -> tuple[dict[int, tuple[list[Any], dict | None]], list[str]]:
    """Read a checkpoint shard back, keeping only verified records.

    Returns ``(restored, notes)``: per-trial ``(results, metrics_dict)``
    keyed by trial index, plus a human-readable note for every record
    that was skipped — undecodable (truncated final line), keyed to a
    different run (config digest / base seed / specs), out of range, or
    failing digest re-verification.  Each note is also raised as a
    ``RuntimeWarning``; skipped trials simply re-run.

    Later records win when a trial appears twice (resume appends).
    """
    from repro.io.results_io import trial_result_from_dict
    from repro.obs.manifest import trial_digest

    path = pathlib.Path(path)
    restored: dict[int, tuple[list[Any], dict | None]] = {}
    notes: list[str] = []
    spec_labels = list(spec_labels)
    if not path.exists():
        return restored, notes
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            notes.append(
                f"{path.name}:{lineno}: dropped undecodable record "
                "(truncated by an interrupted write?); its trial will re-run"
            )
            continue
        if data.get("format") != CHECKPOINT_FORMAT:
            notes.append(f"{path.name}:{lineno}: not a {CHECKPOINT_FORMAT} record")
            continue
        if (
            data.get("config_digest") != config_digest
            or data.get("base_seed") != base_seed
            or list(data.get("specs", ())) != spec_labels
        ):
            notes.append(
                f"{path.name}:{lineno}: record belongs to a different run "
                "(config digest, base seed, or spec grid differ); ignored"
            )
            continue
        trial = int(data["trial"])
        if not 0 <= trial < num_trials:
            notes.append(f"{path.name}:{lineno}: trial {trial} out of range; ignored")
            continue
        try:
            results = [trial_result_from_dict(entry) for entry in data["results"]]
        except (KeyError, TypeError, ValueError) as exc:
            notes.append(
                f"{path.name}:{lineno}: malformed results ({exc}); trial {trial} will re-run"
            )
            continue
        if [trial_digest(r) for r in results] != list(data.get("digests", ())):
            notes.append(
                f"{path.name}:{lineno}: digest mismatch; trial {trial} will re-run"
            )
            continue
        restored[trial] = (results, data.get("metrics"))
    for note in notes:
        warnings.warn(f"checkpoint: {note}", RuntimeWarning, stacklevel=2)
    return restored, notes
