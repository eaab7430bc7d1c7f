"""Experiment campaigns: sweeps over the paper's experiment grid.

The paper's grid is: 4 driving scenarios × 3 initial distances × 6 attack
types × 20 repetitions = 1,440 simulations per strategy (14,400 for the
Random-ST+DUR baseline, which uses more repetitions to cover the random
parameter space).  :class:`Campaign` runs an arbitrary subset of that grid
with deterministic per-run seeding and returns the :class:`RunResult`
records for aggregation.
"""

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.metrics import RunResult
from repro.core.attack_types import AttackType
from repro.core.strategies import AttackStrategy, strategy_by_name
from repro.injection.engine import SimulationConfig, run_simulation
from repro.injection.executor import run_simulations
from repro.sim.scenarios import INITIAL_DISTANCES, Scenario
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.obs.recorder import FlightRecorderConfig
    from repro.resilience.chaos import ChaosPolicy
    from repro.resilience.supervisor import SupervisedOutcome, SupervisionPolicy
    from repro.service.cache import RunCache

StrategyFactory = Callable[[], AttackStrategy]

#: A grid scenario: a name resolved through the catalog, or a fully built
#: spec (e.g. drawn from :class:`repro.scenarios.ScenarioSampler`).
ScenarioLike = Union[str, Scenario]

ALL_ATTACK_TYPES: Tuple[AttackType, ...] = tuple(AttackType)


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of one campaign (one strategy over a grid).

    Attributes:
        strategy_name: Table III strategy name (used for seeding and in
            the results); the actual strategy object comes from
            ``strategy_factory`` or :func:`strategy_by_name`.
        scenarios: Scenarios to include: catalog names and/or fully built
            :class:`~repro.sim.scenarios.Scenario` objects (e.g. sampled
            parametric variants).
        initial_distances: Initial gaps (m) to include; a ``None`` entry
            keeps each scenario's own gap.
        attack_types: Attack types to include (``()`` for attack-free runs).
        repetitions: Repetitions per grid cell.
        driver_enabled: Whether the simulated driver is in the loop.
        master_seed: Seed from which all per-run seeds are derived.
        max_steps: Steps per simulation.
    """

    strategy_name: str = "Context-Aware"
    scenarios: Sequence[ScenarioLike] = ("S1", "S2", "S3", "S4")
    initial_distances: Sequence[Optional[float]] = INITIAL_DISTANCES
    attack_types: Sequence[AttackType] = ALL_ATTACK_TYPES
    repetitions: int = 20
    driver_enabled: bool = True
    master_seed: int = 2022
    max_steps: int = 5000

    @property
    def total_runs(self) -> int:
        cells = len(self.scenarios) * len(self.initial_distances) * max(1, len(self.attack_types))
        return cells * self.repetitions


@dataclass(frozen=True)
class CampaignCell:
    """One cell of the campaign grid."""

    scenario: ScenarioLike
    initial_distance: Optional[float]
    attack_type: Optional[AttackType]
    repetition: int
    seed: int


class Campaign:
    """Enumerates and runs a campaign grid."""

    def __init__(
        self,
        config: CampaignConfig,
        strategy_factory: Optional[StrategyFactory] = None,
    ):
        self.config = config
        self.strategy_factory = strategy_factory or (
            lambda: strategy_by_name(config.strategy_name)
        )

    def cells(self) -> Iterator[CampaignCell]:
        """Yield every grid cell with its deterministic seed."""
        config = self.config
        attack_types: Sequence[Optional[AttackType]] = (
            list(config.attack_types) if config.attack_types else [None]
        )
        # Seeds derived deterministically from the master seed and the cell
        # index, so any cell can be re-run in isolation.
        index = 0
        for scenario in config.scenarios:
            for distance in config.initial_distances:
                for attack_type in attack_types:
                    for repetition in range(config.repetitions):
                        seed_sequence = np.random.SeedSequence([config.master_seed, index])
                        seed = int(seed_sequence.generate_state(1)[0] % (2**31))
                        index += 1
                        yield CampaignCell(
                            scenario=scenario,
                            initial_distance=distance,
                            attack_type=attack_type,
                            repetition=repetition,
                            seed=seed,
                        )

    def cell_task(self, cell: CampaignCell) -> "Tuple[SimulationConfig, Optional[AttackStrategy]]":
        """The ``(SimulationConfig, strategy)`` pair for one grid cell.

        Single place the cell → simulation mapping lives; :meth:`run_cell`
        executes it directly and the lockstep batch executor collects many
        of them (each call builds a fresh strategy instance, which batched
        execution requires).
        """
        config = SimulationConfig(
            scenario=cell.scenario,
            initial_distance=cell.initial_distance,
            seed=cell.seed,
            attack_type=cell.attack_type,
            driver_enabled=self.config.driver_enabled,
            max_steps=self.config.max_steps,
        )
        strategy = self.strategy_factory() if cell.attack_type is not None else None
        return config, strategy

    def tasks(self) -> List[Tuple[SimulationConfig, Optional[AttackStrategy]]]:
        """Every grid cell's task, in cell order (fresh strategy instances)."""
        return [self.cell_task(cell) for cell in self.cells()]

    def run_cell(
        self,
        cell: CampaignCell,
        telemetry: Optional[Telemetry] = None,
        recorder: Optional["FlightRecorderConfig"] = None,
    ) -> RunResult:
        """Run one cell of the grid."""
        config, strategy = self.cell_task(cell)
        return run_simulation(config, strategy, telemetry=telemetry, recorder=recorder)

    def run_resilient(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        supervision: Optional["SupervisionPolicy"] = None,
        chaos: Optional["ChaosPolicy"] = None,
        checkpoint_path: Optional[str] = None,
        on_result: Optional[Callable[[int, RunResult], None]] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional["RunCache"] = None,
    ) -> "SupervisedOutcome":
        """Run under supervision, returning results *and* the recovery trail.

        The :class:`~repro.resilience.SupervisedOutcome` carries the
        cell-aligned results (``None`` where a poison cell was
        quarantined) and the :class:`~repro.resilience.ExecutionReport`
        (retries, pool respawns, degradations, quarantine, sims paid vs
        loaded from the checkpoint and/or the shared run ``cache``).
        The checkpoint fingerprint covers every cell's task fingerprint
        (scenario, attack, seed, distance, strategy, driver flag and step
        budget), so a stale checkpoint from an edited campaign refuses
        to load.
        """
        from repro.resilience.supervisor import run_supervised_simulations

        return run_supervised_simulations(
            self.tasks(),
            policy=supervision,
            workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
            progress=progress,
            chaos=chaos,
            checkpoint_path=checkpoint_path,
            on_result=on_result,
            telemetry=telemetry,
            cache=cache,
        )

    def run(
        self,
        progress: Optional[Callable[[int, int], None]] = None,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        supervision: Optional["SupervisionPolicy"] = None,
        chaos: Optional["ChaosPolicy"] = None,
        checkpoint_path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional["RunCache"] = None,
    ) -> List[RunResult]:
        """Run the whole campaign through :func:`~repro.injection.executor.run_simulations`.

        Results are bit-identical however the grid is executed, because
        every cell's seed is derived from ``(master_seed, cell index)``
        alone.

        Args:
            progress: Optional callback ``(completed, total)`` invoked after
                every run in-process, or every chunk of runs on the pool.
            workers: Worker process count (> 1 runs the grid on a process
                pool; default: in-process).
            chunk_size: Cells per dispatched chunk (default: the whole grid
                for an in-process lockstep batch without a checkpoint,
                otherwise about four chunks per worker).
            batch_size: Lockstep batch width (> 1 steps that many runs
                through the kernel together, amortising the per-step
                Python dispatch; see :class:`repro.kernel.BatchRunner`).
                Composes with ``workers``: each chunk is one batch.
            supervision: Fault-tolerance policy
                (:class:`repro.resilience.SupervisionPolicy`): per-chunk
                timeouts, seeded retry/backoff, dead-worker respawn,
                quarantine, graceful degradation.  Quarantined cells are
                withheld from the returned list (see :meth:`run_resilient`
                for the report).
            chaos: Worker fault-injection policy (testing only); implies
                supervision.
            checkpoint_path: Crash-safe checkpoint file; a rerun resumes
                paying only for unfinished cells.  Implies supervision.
            telemetry: Optional :class:`~repro.telemetry.Telemetry` handle;
                records run/CAN/hazard counters, sampled per-stage timings
                and the execution report, with the same deterministic
                snapshot however the grid was executed.
            cache: Optional shared run cache
                (:class:`repro.service.RunCache`): every cell the cache
                already holds is served without simulating, and fresh
                results are stored back under their content fingerprints.
        """
        tasks = self.tasks()
        span = nullcontext() if telemetry is None else telemetry.span("campaign", runs=len(tasks))
        with span:
            return run_simulations(
                tasks,
                workers=workers,
                chunk_size=chunk_size,
                progress=progress,
                batch_size=batch_size,
                supervision=supervision,
                chaos=chaos,
                checkpoint_path=checkpoint_path,
                telemetry=telemetry,
                cache=cache,
            )
