"""Execution of simulation task lists.

The paper's headline results each sweep a grid of 1,440 simulations per
strategy (14,400 for the Random-ST+DUR baseline).  Every grid cell is an
independent simulation whose seed is derived deterministically from
``(master_seed, cell index)``, so the grid is embarrassingly parallel
and the results of a pooled or batched run are **bit-identical** to a
sequential run of the same task list — the determinism tests in
``tests/integration/test_parallel_campaign.py`` and
``tests/integration/test_execution_route.py`` pin this property.

:func:`run_simulations` is the list-returning entry point of the one
execution route (:func:`repro.resilience.supervisor.execute_tasks`):
the task list is looked up in the run cache, and the misses run through
the :class:`~repro.resilience.supervisor.SupervisedExecutor`, whose
single chunk body picks the lockstep batch or scalar runs.  Campaigns,
the table/figure experiments, the campaign service and the search
driver all reach the kernel through it.

Workers are plain OS processes (``concurrent.futures``).  On start
methods with ``fork`` they inherit the task list, so strategies that
cannot be pickled (a closure, a lambda field) work there; elsewhere the
task list is pickled to each worker once.
"""

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import RunResult
from repro.core.strategies import AttackStrategy
from repro.injection.engine import SimulationConfig
from repro.resilience.supervisor import SupervisionPolicy, execute_tasks
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.journal import EventJournal
    from repro.obs.recorder import FlightRecorderConfig
    from repro.resilience.chaos import ChaosPolicy
    from repro.service.cache import RunCache

ProgressCallback = Callable[[int, int], None]
SimulationTask = Tuple[SimulationConfig, Optional[AttackStrategy]]


def run_simulations(
    tasks: Sequence[SimulationTask],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
    batch_size: Optional[int] = None,
    supervision: Optional[SupervisionPolicy] = None,
    chaos: Optional["ChaosPolicy"] = None,
    checkpoint_path: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
    cache: Optional["RunCache"] = None,
    recorder: Optional["FlightRecorderConfig"] = None,
    journal: Optional["EventJournal"] = None,
) -> List[RunResult]:
    """Run independent ``(SimulationConfig, strategy)`` pairs, preserving
    input order; results are bit-identical to sequential execution.

    ``workers > 1`` fans chunks out over a process pool (about four
    chunks per worker unless ``chunk_size`` pins it); otherwise the list
    runs in-process, as one chunk when ``batch_size > 1`` and no
    checkpoint is written.  ``batch_size > 1`` steps each chunk's runs
    through the kernel together, so every task needs its own strategy
    instance — the batch runner rejects shared strategy objects loudly.

    ``supervision``, ``chaos`` or ``checkpoint_path`` turn on the
    supervisor (timeouts, retry, quarantine, crash-safe resume);
    quarantined tasks are withheld from the returned list.  Without them
    the first failed chunk raises a
    :class:`~repro.resilience.TaskExecutionError` naming the task.

    ``cache`` (:class:`repro.service.RunCache`) serves every task it
    already holds and pays (then stores) only the misses; cache hits
    count toward ``progress`` up front.  ``recorder``
    (:class:`repro.obs.FlightRecorderConfig`) arms the per-run flight
    recorder; ``journal`` (:class:`repro.obs.EventJournal` or a bound
    view) receives the supervisor's and the checkpoint's events — it
    stays in this process and is never pickled to workers.
    """
    return execute_tasks(
        tasks,
        policy=supervision,
        workers=workers,
        chunk_size=chunk_size,
        batch_size=batch_size,
        progress=progress,
        chaos=chaos,
        checkpoint_path=checkpoint_path,
        telemetry=telemetry,
        cache=cache,
        recorder=recorder,
        journal=journal,
    ).completed_results
