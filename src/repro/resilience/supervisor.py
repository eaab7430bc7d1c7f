"""The one execution route: task list → run cache → supervised executor.

Every campaign, experiment, service chunk and search generation runs its
``(SimulationConfig, strategy)`` task list through :func:`execute_tasks`.
The route restores what a :class:`~repro.resilience.checkpoint.CampaignCheckpoint`
already holds, looks the rest up in a :class:`~repro.service.cache.RunCache`
(when given), and runs the misses through :class:`SupervisedExecutor`.
The executor cuts the pending tasks into chunks and runs every chunk,
inline or in a pool worker, through the one chunk body :func:`run_chunk`,
which picks :func:`~repro.kernel.batch.run_batched` or one
:func:`~repro.injection.engine.run_simulation` per task.  Results are
bit-identical to a sequential run however the work was chunked.

Without a :class:`SupervisionPolicy` the executor fails fast: the first
failed chunk raises a :class:`TaskExecutionError` naming the task.  With
a policy it survives the failure modes a plain process pool does not:

* **worker exceptions** — the failing chunk is retried with seeded
  exponential backoff + jitter (deterministic per ``(task, attempt)``);
* **dead workers** — a broken pool is detected, killed and respawned;
  in-flight chunks are requeued;
* **hangs** — chunks exceeding the per-chunk wall-clock timeout cause a
  pool kill + respawn (a hung worker cannot be cancelled politely);
* **corrupted results** — a worker payload that is short, reordered or
  not made of :class:`~repro.analysis.metrics.RunResult` records counts
  as a chunk failure and is retried;
* **poison tasks** — a chunk that keeps failing is bisected down to the
  offending task, which lands in the :class:`QuarantineReport` instead
  of aborting the campaign (partial results are never discarded);
* **graceful degradation** — after ``max_pool_respawns`` pool failures
  the remaining work runs sequentially in-process, and a failed batched
  chunk retries scalar; both fallbacks preserve bit-identical results.

Fault attribution across a broken pool is coarse: every chunk whose
future reports the break is charged one attempt (the pool cannot say
which worker died for which chunk), so quarantine decisions should be
read together with ``pool_respawns``.

Chunk sizing: with ``workers <= 1`` and ``batch_size > 1`` the whole
pending list is one chunk (one lockstep batch); otherwise, and always
when a checkpoint is written, the work is cut into about four chunks per
worker.  ``chunk_size`` pins the size.  Completed runs reach the cache as
their chunk finishes and the checkpoint flushes once per chunk's worth.
"""

import multiprocessing
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.metrics import RunResult
from repro.resilience.chaos import ChaosPolicy
from repro.resilience.checkpoint import CampaignCheckpoint, fingerprint_strings
from repro.resilience.errors import TaskExecutionError, task_fingerprint
from repro.telemetry import MetricsRegistry, Telemetry, TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.journal import EventJournal
    from repro.obs.recorder import FlightRecorderConfig
    from repro.service.cache import RunCache

ProgressCallback = Callable[[int, int], None]
ResultCallback = Callable[[int, RunResult], None]

#: Seconds between supervision sweeps (future wait timeout).
_POLL_SECONDS = 0.05

#: This worker's task list and chunk settings, installed by the pool
#: initializer in the worker process (never set in the parent).
_WORKER_STATE: Optional[tuple] = None


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervision layer.

    Attributes:
        chunk_timeout: Wall-clock seconds one chunk attempt may take
            before the pool is declared wedged (``None`` disables).
        max_chunk_attempts: Attempts per chunk before it is bisected
            (multi-task chunks) or quarantined (single-task chunks).
        backoff_base / backoff_factor: Exponential backoff between
            attempts: ``base * factor**(attempt-1)`` seconds.
        backoff_jitter: Jitter fraction added on top, drawn
            deterministically from ``(backoff_seed, task, attempt)``.
        backoff_seed: Seed of the jitter stream.
        max_pool_respawns: Pool kills/respawns tolerated before the
            remaining work degrades to sequential in-process execution.
        degrade_to_sequential: Whether that degradation is allowed
            (when ``False`` the supervisor keeps respawning pools).
    """

    chunk_timeout: Optional[float] = None
    max_chunk_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    backoff_seed: int = 2022
    max_pool_respawns: int = 2
    degrade_to_sequential: bool = True

    def __post_init__(self):
        if self.max_chunk_attempts < 1:
            raise ValueError("max_chunk_attempts must be >= 1")
        if self.max_pool_respawns < 0:
            raise ValueError("max_pool_respawns must be >= 0")

    def backoff_delay(self, anchor: int, attempt: int) -> float:
        """Deterministic backoff before retry ``attempt`` of a chunk.

        ``anchor`` is the chunk's first task index, so two chunks never
        share a jitter stream and a replayed run backs off identically.
        """
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        if self.backoff_jitter <= 0.0 or base <= 0.0:
            return max(0.0, base)
        unit = (
            np.random.SeedSequence([self.backoff_seed, anchor, attempt]).generate_state(1)[0]
            / 2**32
        )
        return base * (1.0 + self.backoff_jitter * float(unit))


@dataclass
class QuarantinedTask:
    """One task withheld from the campaign after exhausting its retries."""

    index: int           # absolute task index in the campaign
    fingerprint: str     # (scenario, attack, seed) identity
    error: str           # last failure, stringified
    attempts: int        # failed attempts the task accumulated


@dataclass
class QuarantineReport:
    """The poison tasks a supervised run recorded instead of aborting."""

    tasks: List[QuarantinedTask] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.tasks)

    @property
    def indices(self) -> List[int]:
        return [task.index for task in self.tasks]

    def summary(self) -> str:
        if not self.tasks:
            return "no tasks quarantined"
        lines = [f"{len(self.tasks)} task(s) quarantined:"]
        for task in self.tasks:
            lines.append(
                f"  #{task.index} [{task.fingerprint}] after {task.attempts} "
                f"attempt(s): {task.error}"
            )
        return "\n".join(lines)


@dataclass
class ExecutionReport:
    """What the supervisor did to get the campaign through."""

    total: int = 0                     # tasks in the campaign
    completed: int = 0                 # fresh results produced this process
    loaded_from_checkpoint: int = 0    # results restored instead of re-run
    loaded_from_cache: int = 0         # results served by the shared run cache
    retries: int = 0                   # chunk attempts after the first
    bisections: int = 0                # failing chunks split to isolate a task
    timeouts: int = 0                  # chunk attempts killed by the timeout
    pool_respawns: int = 0             # pools killed and restarted
    scalar_fallbacks: int = 0          # batched chunks retried scalar
    backoff_seconds: float = 0.0       # retry backoff time the schedule paid
    degraded_to_sequential: bool = False
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)

    @property
    def sims_paid(self) -> int:
        """Simulations actually paid for by this process (fresh results)."""
        return self.completed

    def summary(self) -> str:
        """Human-readable recovery trail (what the supervisor absorbed)."""
        lines = [
            f"supervised execution: {self.completed}/{self.total} fresh"
            + (
                f", {self.loaded_from_checkpoint} from checkpoint"
                if self.loaded_from_checkpoint
                else ""
            )
            + (f", {self.loaded_from_cache} from cache" if self.loaded_from_cache else ""),
            f"  retries={self.retries} bisections={self.bisections} "
            f"timeouts={self.timeouts} pool_respawns={self.pool_respawns} "
            f"scalar_fallbacks={self.scalar_fallbacks} "
            f"backoff={self.backoff_seconds:.2f}s"
            + (" degraded-to-sequential" if self.degraded_to_sequential else ""),
            f"  {self.quarantine.summary()}",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.summary()

    def metrics_snapshot(self) -> dict:
        """The report as a mergeable metrics snapshot (``supervisor.*``).

        Merge it into a campaign-level registry with
        :meth:`~repro.telemetry.MetricsRegistry.merge` — the supervised
        entry points do this automatically when given a telemetry handle.
        """
        registry = MetricsRegistry()
        registry.counter("supervisor.tasks").inc(self.total)
        registry.counter("supervisor.completed").inc(self.completed)
        registry.counter("supervisor.loaded_from_checkpoint").inc(
            self.loaded_from_checkpoint
        )
        registry.counter("supervisor.loaded_from_cache").inc(self.loaded_from_cache)
        registry.counter("supervisor.retries").inc(self.retries)
        registry.counter("supervisor.bisections").inc(self.bisections)
        registry.counter("supervisor.timeouts").inc(self.timeouts)
        registry.counter("supervisor.pool_respawns").inc(self.pool_respawns)
        registry.counter("supervisor.scalar_fallbacks").inc(self.scalar_fallbacks)
        registry.counter("supervisor.quarantined").inc(len(self.quarantine.tasks))
        if self.degraded_to_sequential:
            registry.counter("supervisor.degraded_to_sequential").inc()
        registry.gauge("perf.supervisor.backoff_s").set(self.backoff_seconds)
        return registry.snapshot()


@dataclass
class SupervisedOutcome:
    """Results (aligned to the input task list) plus the supervision trail."""

    results: List[Optional[RunResult]]
    report: ExecutionReport

    @property
    def completed_results(self) -> List[RunResult]:
        """The completed runs, in task order (quarantined slots dropped)."""
        return [result for result in self.results if result is not None]

    def require_complete(self) -> List[RunResult]:
        """All results, raising when any task was quarantined."""
        if self.report.quarantine:
            raise TaskExecutionError(self.report.quarantine.summary())
        return self.completed_results


class _ChunkWork:
    """One chunk of task indices plus its retry bookkeeping."""

    __slots__ = ("indices", "attempts")

    def __init__(self, indices: List[int]):
        self.indices = indices
        self.attempts = 0

    @property
    def anchor(self) -> int:
        return self.indices[0]


# -- the chunk body -----------------------------------------------------------


def run_chunk(
    tasks: Sequence[Tuple],
    indices: Sequence[int],
    batch_size: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    chaos: Optional[ChaosPolicy] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Tuple[int, RunResult]]:
    """Run ``tasks[i]`` for every ``i`` in ``indices``; the body of every chunk.

    ``batch_size > 1`` steps a multi-task chunk through one lockstep
    batch; otherwise each task is one scalar run.  Returns ``[(index,
    RunResult)]`` in chunk order.  A failure raises
    :class:`TaskExecutionError` naming the failing task (every candidate
    task of a failed batch).  ``chaos`` injects worker faults and is only
    given in pool workers; ``progress`` fires ``(done, len(indices))``
    once per finished run.
    """
    from repro.injection import engine  # local: repro.injection imports this module
    from repro.kernel.batch import run_batched

    chunk = [tasks[index] for index in indices]
    if batch_size is not None and batch_size > 1 and len(chunk) > 1:
        if chaos is not None:
            for index, (config, strategy) in zip(indices, chunk):
                chaos.before_task(index, task_fingerprint(config, strategy))
        try:
            outputs = run_batched(
                chunk,
                batch_size=batch_size,
                progress=progress,
                telemetry=telemetry,
                recorder=recorder,
            )
        except Exception as error:
            raise TaskExecutionError.wrap_batch(
                [task_fingerprint(config, strategy) for config, strategy in chunk], error
            ) from error
        pairs = list(zip(indices, outputs))
    else:
        pairs = []
        for done, (index, (config, strategy)) in enumerate(zip(indices, chunk), start=1):
            try:
                if chaos is not None:
                    chaos.before_task(index, task_fingerprint(config, strategy))
                result = engine.run_simulation(
                    config, strategy, telemetry=telemetry, recorder=recorder
                )
            except Exception as error:
                raise TaskExecutionError.wrap(
                    task_fingerprint(config, strategy), error
                ) from error
            pairs.append((index, result))
            if progress is not None:
                progress(done, len(chunk))
    if chaos is not None:
        pairs = chaos.after_chunk(pairs)
    return pairs


def _init_worker(
    tasks: List[Tuple],
    batch_size: Optional[int],
    telemetry_config: Optional[TelemetryConfig],
    recorder: Optional["FlightRecorderConfig"],
    chaos: Optional[ChaosPolicy],
) -> None:
    """Pool initializer: install the task list and chunk settings.

    Under ``fork`` the arguments are inherited rather than pickled, so
    tasks holding unpicklable strategies work there.
    """
    global _WORKER_STATE
    _WORKER_STATE = (tasks, batch_size, telemetry_config, recorder, chaos)


def _run_worker_chunk(payload: Tuple[List[int], bool]):
    """Pool side of :func:`run_chunk`: ``payload`` is ``(indices, batched)``.

    Returns ``(pairs, metrics registry or None)``; the metrics come from
    a fresh chunk-local registry (pickled with exact histogram sums).
    """
    indices, batched = payload
    assert _WORKER_STATE is not None, "worker has no task list installed"
    tasks, batch_size, telemetry_config, recorder, chaos = _WORKER_STATE
    telemetry = Telemetry(telemetry_config) if telemetry_config is not None else None
    pairs = run_chunk(
        tasks, indices, batch_size if batched else None, telemetry, recorder, chaos
    )
    return pairs, telemetry.metrics if telemetry is not None else None


def _default_chunk_size(total: int, workers: int) -> int:
    """About four chunks per worker."""
    return max(1, -(-total // (max(1, workers) * 4)))


def _chunked(items: Sequence, chunk_size: int) -> List[Sequence]:
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def _pool_context():
    """Prefer ``fork``: workers inherit the task list instead of unpickling it."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- the supervisor -----------------------------------------------------------


class SupervisedExecutor:
    """Runs a task list in chunks, inline or on a process pool.

    ``policy=None`` fails fast on the first failed chunk; a
    :class:`SupervisionPolicy` turns on retry, bisection, quarantine,
    timeouts, pool respawn and degradation.  Each chunk records into a
    fresh metrics registry (inline chunks share the ``telemetry``
    handle's tracer); the registries of successful chunks merge into
    ``telemetry`` in task order when the run ends.  One executor
    instance runs one dispatch at a time (it keeps per-run state on
    ``self``).
    """

    def __init__(
        self,
        policy: Optional[SupervisionPolicy] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        chaos: Optional[ChaosPolicy] = None,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional["FlightRecorderConfig"] = None,
        journal: Optional["EventJournal"] = None,
    ):
        self.policy = policy
        self.workers = max(1, workers if workers is not None else 1)
        self.chunk_size = chunk_size
        self.batch_size = batch_size
        self.chaos = chaos
        self.telemetry = telemetry
        # The flight-recorder config ships to the workers (picklable);
        # the journal stays parent-side: causal events (retry, respawn,
        # bisection, quarantine) are emitted from the supervision loop,
        # which is exactly where the facts are decided.
        self.recorder = recorder
        self.journal = journal
        self._tasks: List[Tuple] = []
        self._progress: Optional[ProgressCallback] = None
        self._reported = 0
        self._total = 0

    def _journal_emit(self, kind: str, level: str = "info", **fields) -> None:
        if self.journal is not None:
            self.journal.emit(kind, level=level, **fields)

    def resolve_chunk_size(self, total: int) -> int:
        """Tasks per chunk: pinned, else one in-process lockstep batch, else ~4 per worker."""
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        if self.workers <= 1 and self.batch_size is not None and self.batch_size > 1:
            return max(1, total)
        return _default_chunk_size(total, self.workers)

    # -- public entry point --------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[Tuple],
        indices: Optional[Sequence[int]] = None,
        progress: Optional[ProgressCallback] = None,
        on_result: Optional[ResultCallback] = None,
    ) -> SupervisedOutcome:
        """Run ``tasks[i]`` for every ``i`` in ``indices`` (default: all).

        The outcome's results are aligned to ``tasks``: ``None`` where a
        task was not in ``indices`` or was quarantined.  ``progress``
        fires ``(completed, len(indices))`` once per finished run inline
        and once per finished chunk on the pool; ``on_result`` fires
        once per result as its chunk finishes.
        """
        self._tasks = list(tasks)
        count = len(self._tasks)
        indices = list(range(count)) if indices is None else list(indices)
        self._progress = progress
        self._reported = 0
        self._total = len(indices)
        report = ExecutionReport(total=len(indices))
        results: Dict[int, RunResult] = {}
        snapshots: Dict[int, Any] = {}
        try:
            if indices:
                self._drive(indices, results, snapshots, report, on_result)
        finally:
            self._tasks = []
            self._progress = None
        if self.telemetry is not None:
            for anchor in sorted(snapshots):
                self.telemetry.merge(snapshots[anchor])
        ordered = [results.get(index) for index in range(count)]
        return SupervisedOutcome(results=ordered, report=report)

    # -- internals -----------------------------------------------------------

    def _report_progress(self, completed: int) -> None:
        # Monotonic: a retried inline chunk restarts its per-run count.
        if self._progress is not None and completed > self._reported:
            self._reported = completed
            self._progress(completed, self._total)

    def _drive(
        self,
        indices: List[int],
        results: Dict[int, RunResult],
        snapshots: Dict[int, Any],
        report: ExecutionReport,
        on_result: Optional[ResultCallback],
    ) -> None:
        pending: Deque[_ChunkWork] = deque(
            _ChunkWork(chunk)
            for chunk in _chunked(indices, self.resolve_chunk_size(len(indices)))
        )
        pool_width = min(self.workers, len(pending))
        timeout = self.policy.chunk_timeout if self.policy is not None else None
        delayed: List[Tuple[float, _ChunkWork]] = []
        inflight: Dict[Any, _ChunkWork] = {}
        deadlines: Dict[Any, Optional[float]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        use_pool = self.workers > 1 and len(indices) > 1
        respawns = 0

        try:
            while pending or delayed or inflight:
                now = time.monotonic()
                still_delayed = []
                for ready_at, work in delayed:
                    if ready_at <= now:
                        pending.append(work)
                    else:
                        still_delayed.append((ready_at, work))
                delayed = still_delayed

                if not use_pool:
                    if pending:
                        self._run_inline(
                            pending.popleft(), pending, delayed, results, snapshots,
                            report, on_result,
                        )
                    elif delayed:
                        time.sleep(max(0.0, min(at for at, _ in delayed) - now))
                    continue

                if pool is None and pending:
                    pool = self._spawn_pool(pool_width)
                pool_broken = False
                while pending and pool is not None:
                    work = pending.popleft()
                    try:
                        future = pool.submit(
                            _run_worker_chunk, (work.indices, work.attempts == 0)
                        )
                    except BrokenProcessPool:
                        # A worker died since the last sweep: requeue this
                        # chunk free of charge and respawn below.
                        if self.policy is None:
                            raise
                        pending.appendleft(work)
                        pool_broken = True
                        break
                    inflight[future] = work
                    deadlines[future] = (
                        None if timeout is None else time.monotonic() + timeout
                    )
                if not inflight and not pool_broken:
                    if delayed:
                        time.sleep(
                            max(0.0, min(at for at, _ in delayed) - time.monotonic())
                        )
                    continue

                done, _ = wait(
                    set(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
                )
                for future in done:
                    work = inflight.pop(future)
                    deadlines.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as error:
                        pool_broken = True
                        self._fail_attempt(work, error, pending, delayed, report)
                    except Exception as error:
                        self._fail_attempt(work, error, pending, delayed, report)
                    else:
                        problem = self._validate(work, payload)
                        if problem is None:
                            pairs, snapshot = payload
                            self._record(
                                work, pairs, snapshot, results, snapshots, report,
                                on_result,
                            )
                            self._report_progress(report.completed)
                        else:
                            self._fail_attempt(
                                work, TaskExecutionError(problem), pending, delayed, report
                            )

                now = time.monotonic()
                timed_out = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline is not None and now > deadline and future in inflight
                ]
                if timed_out:
                    report.timeouts += len(timed_out)
                    for future in timed_out:
                        work = inflight.pop(future)
                        deadlines.pop(future)
                        self._journal_emit(
                            "supervisor.timeout",
                            level="warning",
                            anchor=work.anchor,
                            tasks=len(work.indices),
                            timeout_s=timeout,
                        )
                        self._fail_attempt(
                            work,
                            TimeoutError(
                                f"chunk exceeded the {timeout}s wall-clock timeout"
                            ),
                            pending,
                            delayed,
                            report,
                        )
                    pool_broken = True  # a hung worker can only be killed

                if pool_broken:
                    # Requeue the innocent in-flight chunks free of charge.
                    for work in inflight.values():
                        pending.append(work)
                    inflight.clear()
                    deadlines.clear()
                    if pool is not None:
                        _kill_pool(pool)
                        pool = None
                    respawns += 1
                    report.pool_respawns = respawns
                    self._journal_emit(
                        "supervisor.respawn", level="warning", respawns=respawns
                    )
                    assert self.policy is not None  # fail-fast raised above
                    if (
                        respawns > self.policy.max_pool_respawns
                        and self.policy.degrade_to_sequential
                    ):
                        use_pool = False
                        report.degraded_to_sequential = True
                        self._journal_emit(
                            "supervisor.degraded", level="warning", respawns=respawns
                        )
        finally:
            if pool is not None:
                _kill_pool(pool)

    def _spawn_pool(self, width: int) -> ProcessPoolExecutor:
        telemetry_config = (
            self.telemetry.worker_config() if self.telemetry is not None else None
        )
        return ProcessPoolExecutor(
            max_workers=width,
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(
                self._tasks, self.batch_size, telemetry_config, self.recorder, self.chaos
            ),
        )

    def _run_inline(
        self,
        work: _ChunkWork,
        pending: Deque[_ChunkWork],
        delayed: List[Tuple[float, _ChunkWork]],
        results: Dict[int, RunResult],
        snapshots: Dict[int, Any],
        report: ExecutionReport,
        on_result: Optional[ResultCallback],
    ) -> None:
        """Run one chunk in-process (``workers <= 1``, or after degradation).

        The chaos policy deliberately does not apply here: it models
        *worker* faults, and the in-process path is the clean fallback.
        """
        telemetry = None
        if self.telemetry is not None:
            telemetry = Telemetry(
                self.telemetry.worker_config(), tracer=self.telemetry.tracer
            )
        base = report.completed
        try:
            pairs = run_chunk(
                self._tasks,
                work.indices,
                self.batch_size if work.attempts == 0 else None,
                telemetry,
                self.recorder,
                progress=lambda done, _: self._report_progress(base + done),
            )
        except TaskExecutionError as error:
            self._fail_attempt(work, error, pending, delayed, report)
            return
        self._record(
            work, pairs, telemetry.metrics if telemetry is not None else None,
            results, snapshots, report, on_result,
        )

    def _validate(self, work: _ChunkWork, payload) -> Optional[str]:
        """Reject short, reordered or type-corrupted worker payloads."""
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return f"worker returned {type(payload).__name__}, expected (results, metrics)"
        pairs = payload[0]
        if not isinstance(pairs, list):
            return f"worker returned {type(pairs).__name__}, expected a result list"
        got = [
            entry[0] if isinstance(entry, tuple) and len(entry) == 2 else None
            for entry in pairs
        ]
        if got != work.indices:
            return (
                f"worker returned results for indices {got}, expected {work.indices} "
                "(short or corrupted payload)"
            )
        for index, result in pairs:
            if not isinstance(result, RunResult):
                return (
                    f"task {index} returned {type(result).__name__}, "
                    "not a RunResult (corrupted payload)"
                )
        return None

    def _record(
        self,
        work: _ChunkWork,
        pairs: List[Tuple[int, RunResult]],
        snapshot: Any,
        results: Dict[int, RunResult],
        snapshots: Dict[int, Any],
        report: ExecutionReport,
        on_result: Optional[ResultCallback],
    ) -> None:
        if snapshot is not None:
            snapshots[work.anchor] = snapshot
        for index, result in pairs:
            results[index] = result
            report.completed += 1
            if on_result is not None:
                on_result(index, result)

    def _fail_attempt(
        self,
        work: _ChunkWork,
        error: BaseException,
        pending: Deque[_ChunkWork],
        delayed: List[Tuple[float, _ChunkWork]],
        report: ExecutionReport,
    ) -> None:
        policy = self.policy
        if policy is None:
            raise error
        work.attempts += 1
        tracer = self.telemetry.tracer if self.telemetry is not None else None
        if work.attempts >= policy.max_chunk_attempts:
            if len(work.indices) > 1:
                # Bisect: isolate the poison task instead of retrying the
                # whole chunk forever. Each half starts with a clean slate.
                report.bisections += 1
                mid = len(work.indices) // 2
                pending.append(_ChunkWork(work.indices[:mid]))
                pending.append(_ChunkWork(work.indices[mid:]))
                if tracer is not None:
                    tracer.instant(
                        "supervisor.bisect", anchor=work.anchor, tasks=len(work.indices)
                    )
                self._journal_emit(
                    "supervisor.bisect",
                    anchor=work.anchor,
                    tasks=len(work.indices),
                    error=str(error),
                )
            else:
                index = work.indices[0]
                fingerprint = getattr(error, "fingerprint", "") or task_fingerprint(
                    *self._tasks[index]
                )
                report.quarantine.tasks.append(
                    QuarantinedTask(
                        index=index,
                        fingerprint=fingerprint,
                        error=str(error),
                        attempts=work.attempts,
                    )
                )
                if tracer is not None:
                    tracer.instant("supervisor.quarantine", task=index)
                self._journal_emit(
                    "supervisor.quarantine",
                    level="warning",
                    task=index,
                    fingerprint=fingerprint,
                    attempt=work.attempts,
                    error=str(error),
                )
            return
        report.retries += 1
        if (
            self.batch_size is not None
            and self.batch_size > 1
            and len(work.indices) > 1
            and work.attempts == 1
        ):
            report.scalar_fallbacks += 1  # the retry below runs scalar
        delay = policy.backoff_delay(work.anchor, work.attempts)
        report.backoff_seconds += delay
        if tracer is not None:
            tracer.instant(
                "supervisor.retry",
                anchor=work.anchor,
                attempt=work.attempts,
                backoff_s=round(delay, 4),
            )
        self._journal_emit(
            "supervisor.retry",
            anchor=work.anchor,
            attempt=work.attempts,
            backoff_s=round(delay, 4),
            error=str(error),
        )
        delayed.append((time.monotonic() + delay, work))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when its workers are hung or dead."""
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped process
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass


# -- the route ----------------------------------------------------------------


def execute_tasks(
    tasks: Sequence[Tuple],
    policy: Optional[SupervisionPolicy] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    chaos: Optional[ChaosPolicy] = None,
    checkpoint_path: Optional[str] = None,
    on_result: Optional[ResultCallback] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> SupervisedOutcome:
    """Run a task list: checkpoint, then cache, then the executor.

    Results are aligned to ``tasks`` (``None`` where a task was
    quarantined) and bit-identical to a sequential run.  ``chaos`` or
    ``checkpoint_path`` without a ``policy`` supervise with the default
    :class:`SupervisionPolicy`; with none of the three the executor
    fails fast.  The checkpoint is fingerprinted over every task's
    :func:`task_fingerprint`; results restored from it or served by the
    ``cache`` count toward ``progress`` up front.  ``journal`` receives
    the supervision and checkpoint events (parent-side only), and with
    ``telemetry`` the :class:`ExecutionReport` lands as ``supervisor.*``
    metrics after the runs' own.
    """
    tasks = list(tasks)
    total = len(tasks)
    if policy is None and (chaos is not None or checkpoint_path is not None):
        policy = SupervisionPolicy()
    checkpoint: Optional[CampaignCheckpoint] = None
    done: Dict[int, RunResult] = {}
    if checkpoint_path is not None:
        checkpoint = CampaignCheckpoint(
            checkpoint_path,
            fingerprint_strings(task_fingerprint(config, strategy) for config, strategy in tasks),
            total,
        )
        done = checkpoint.load()
        if journal is not None:
            journal.emit(
                "checkpoint.loaded", path=checkpoint_path, restored=len(done), total=total
            )
    loaded_from_checkpoint = len(done)

    # The cache answers for every task the checkpoint did not restore;
    # fresh results are stored back from the result hook.
    keys: Dict[int, Optional[str]] = {}
    if cache is not None:
        from repro.service.cache import partition_tasks

        unrestored = [index for index in range(total) if index not in done]
        hits, _, unrestored_keys = partition_tasks([tasks[i] for i in unrestored], cache)
        for position, index in enumerate(unrestored):
            keys[index] = unrestored_keys[position]
            if position in hits:
                done[index] = hits[position]
    loaded = len(done)
    pending = [index for index in range(total) if index not in done]
    if checkpoint is not None and chunk_size is None:
        # The checkpoint flushes once per chunk: keep several chunks even
        # where the executor would otherwise batch everything in one.
        chunk_size = _default_chunk_size(len(pending), workers or 1)

    executor = SupervisedExecutor(
        policy=policy,
        workers=workers,
        chunk_size=chunk_size,
        batch_size=batch_size,
        chaos=chaos,
        telemetry=telemetry,
        recorder=recorder,
        journal=journal,
    )
    flush_every = executor.resolve_chunk_size(max(1, len(pending)))
    fresh_since_flush = 0

    def hook(index: int, result: RunResult) -> None:
        nonlocal fresh_since_flush
        if checkpoint is not None:
            checkpoint.record(index, result)
            fresh_since_flush += 1
            if fresh_since_flush >= flush_every:
                checkpoint.flush()
                fresh_since_flush = 0
                if journal is not None:
                    journal.emit("checkpoint.flush", path=checkpoint_path)
        key = keys.get(index)
        if key is not None:
            cache.put(key, result)
        if on_result is not None:
            on_result(index, result)

    wrapped_progress: Optional[ProgressCallback] = None
    if progress is not None:
        if loaded:
            progress(loaded, total)
        wrapped_progress = lambda done, _: progress(loaded + done, total)  # noqa: E731

    outcome = executor.run_tasks(
        tasks, indices=pending, progress=wrapped_progress, on_result=hook
    )
    if checkpoint is not None:
        checkpoint.flush()
        if journal is not None:
            journal.emit("checkpoint.flush", path=checkpoint_path, final=True)

    for index, result in done.items():
        outcome.results[index] = result
    report = outcome.report
    report.total = total
    report.loaded_from_checkpoint = loaded_from_checkpoint
    report.loaded_from_cache = loaded - loaded_from_checkpoint
    if telemetry is not None:
        telemetry.merge(report.metrics_snapshot())
    return outcome


def run_supervised_simulations(
    tasks: Sequence[Tuple],
    policy: Optional[SupervisionPolicy] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    chaos: Optional[ChaosPolicy] = None,
    checkpoint_path: Optional[str] = None,
    on_result: Optional[ResultCallback] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> SupervisedOutcome:
    """Supervised (and optionally checkpointed) :func:`run_simulations`.

    :func:`execute_tasks` under ``policy`` (default
    :class:`SupervisionPolicy`), returning the full outcome.
    """
    return execute_tasks(
        tasks, policy or SupervisionPolicy(), workers, chunk_size, batch_size,
        progress, chaos, checkpoint_path, on_result, telemetry, cache, recorder,
        journal,
    )
