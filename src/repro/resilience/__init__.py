"""Fault tolerance for campaign-shaped work.

A system whose subject is fault injection should itself tolerate faults.
This package supervises the execution layer so that a hung, crashed or
lying worker process no longer kills a campaign:

* :mod:`repro.resilience.supervisor` — the one execution route
  (:func:`execute_tasks`: checkpoint, run cache, then the
  :class:`SupervisedExecutor`) and its supervision: per-chunk wall-clock
  timeouts, bounded seeded retry/backoff, dead-worker detection with
  pool respawn, poison-task quarantine (bisection down to the offending
  task), and graceful degradation (parallel → sequential, batched →
  scalar) with bit-identical results;
* :mod:`repro.resilience.checkpoint` — crash-safe campaign
  checkpointing (atomic write-rename, fingerprint-validated), so an
  interrupted campaign resumes paying only for unfinished runs;
* :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (seeded :class:`ChaosPolicy`) that makes workers crash, hang
  or corrupt their results at chosen task indices, used by the chaos
  suite to prove every recovery path;
* :mod:`repro.resilience.errors` — task fingerprints and the
  :class:`TaskExecutionError` that carries them across the pool
  boundary.
"""

from repro.resilience.chaos import ChaosError, ChaosPolicy, FaultSpec, chaos_policy
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckpointMismatch,
    atomic_write_bytes,
    atomic_write_json,
    checkpoint_slug,
    fsync_directory,
)
from repro.resilience.errors import TaskExecutionError, task_fingerprint
from repro.resilience.supervisor import (
    ExecutionReport,
    QuarantinedTask,
    QuarantineReport,
    SupervisedExecutor,
    SupervisedOutcome,
    SupervisionPolicy,
    execute_tasks,
    run_supervised_simulations,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "fsync_directory",
    "CampaignCheckpoint",
    "chaos_policy",
    "ChaosError",
    "ChaosPolicy",
    "checkpoint_slug",
    "CheckpointMismatch",
    "ExecutionReport",
    "execute_tasks",
    "FaultSpec",
    "QuarantinedTask",
    "QuarantineReport",
    "run_supervised_simulations",
    "SupervisedExecutor",
    "SupervisedOutcome",
    "SupervisionPolicy",
    "task_fingerprint",
    "TaskExecutionError",
]
