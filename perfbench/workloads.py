"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every workload goes through a public entry point of ``repro`` and is a
single closed-loop client: one process submits the whole task list and
waits for every result.

* ``table4-ca``     -- ``Campaign(config).run(batch_size=24)`` over the
  paper's Table IV grid (Context-Aware, S1-S4 x {50, 70, 100} m x 6 attack
  types x 1 rep, driver on, 5000-step cap).  Reference: the sequential
  ``Campaign.run()``.
* ``free-dense``    -- ``repro.kernel.run_batched(tasks, batch_size=64)`` over
  64 attack-free rows (S1-S4 cycled) of 1000 steps.  Reference: one
  ``run_simulation`` per task.
* ``service-mixed`` -- one ``CampaignJobSpec`` (supervised, flight recorder
  armed) submitted to a ``CampaignService`` with a fresh copy of a
  ``RunCache`` fixture that holds, of each attack type, every other task
  in order of run length, plus an ``EventJournal``.  Reference: a direct
  uncached ``run_batched`` run.

The workload seed drives the campaign master seed (``table4-ca``,
``service-mixed``) and the row seeds (``free-dense``); the program only
ever receives the generated tasks.
"""

import asyncio
import hashlib
import json
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import RunResult
from repro.analysis.results import summarize_strategy
from repro.injection import Campaign, CampaignConfig
from repro.sim.units import DT

#: The paper's hazard rate per condition (Table IV): 83.4% of the
#: Context-Aware attacks cause a hazard; attack-free driving causes none.
PAPER_HAZARD_RATE = {"Context-Aware": 0.834, "attack-free": 0.0}

#: The canonical Table IV campaign behind ``hazard_gap_pp``.
FIDELITY_SEED = 2022

FREE_DENSE_ROWS = 64
FREE_DENSE_STEPS = 1000
SCENARIOS = ("S1", "S2", "S3", "S4")


def table4_config(seed: int) -> CampaignConfig:
    """Context-Aware over the full Table IV grid, one repetition."""
    return CampaignConfig(repetitions=1, master_seed=seed)


def free_dense_tasks(seed: int) -> List[Tuple[Any, None]]:
    from repro.injection.engine import SimulationConfig

    row_seeds = np.random.SeedSequence(seed).generate_state(FREE_DENSE_ROWS) % (2**31)
    return [
        (
            SimulationConfig(
                scenario=SCENARIOS[row % len(SCENARIOS)],
                seed=int(row_seeds[row]),
                max_steps=FREE_DENSE_STEPS,
            ),
            None,
        )
        for row in range(FREE_DENSE_ROWS)
    ]


def campaign_tasks(config: CampaignConfig) -> list:
    campaign = Campaign(config)
    return [campaign.cell_task(cell) for cell in campaign.cells()]


# -- result accounting --------------------------------------------------------


def result_steps(results: Sequence[RunResult]) -> int:
    """Control steps the results cover (sum of durations / 10 ms)."""
    return sum(round(result.duration / DT) for result in results)


def run_digests(results: Sequence[RunResult]) -> List[str]:
    """One SHA-256 per run over its canonical ``RunResult.to_dict()``."""
    return [
        hashlib.sha256(
            json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        for result in results
    ]


def table_iv(strategy: str, results: Sequence[RunResult]) -> Dict[str, int]:
    """The Table IV counts the pinned expectation records."""
    summary = summarize_strategy(strategy, results)
    return {
        "runs": summary.runs,
        "steps": result_steps(results),
        "alerts": summary.alerts,
        "hazards": summary.hazards,
        "accidents": summary.accidents,
        "hazards_without_alerts": summary.hazards_without_alerts,
    }


def hazard_gap_pp(strategy: str, condition: str, results: Sequence[RunResult]) -> float:
    """|hazard rate - the paper's rate for the condition|, in percentage points."""
    rate = summarize_strategy(strategy, results).hazard_rate
    return abs(rate - PAPER_HAZARD_RATE[condition]) * 100.0


# -- workloads ----------------------------------------------------------------


class Workload:
    """One named workload.

    ``prepare`` runs once per invocation, outside the timing, and returns
    the state ``run_once`` needs; ``run_once`` is one timed repeat and
    returns ``(results, (start, end))``, the ``time.perf_counter()``
    readings around the timed call; ``reference``
    is the mode-equivalence run the results must equal.
    """

    name = ""
    default_seed = 0
    strategy = "Context-Aware"
    condition = "Context-Aware"

    def prepare(self, seed: int, scratch: str, reference: Callable[[], List[RunResult]]) -> Any:
        return None

    def run_once(
        self, state: Any, seed: int, telemetry=None
    ) -> Tuple[List[RunResult], Tuple[float, float]]:
        raise NotImplementedError

    def reference(self, seed: int, part: int = 0, parts: int = 1) -> List[RunResult]:
        """Results of the tasks ``part::parts`` in the reference mode."""
        raise NotImplementedError

    def setup(self, seed: int, scratch: str, ready: Callable[[], None]) -> None:
        """Everything up to the first task submitted, then ``ready()``.

        This is what the ``setup_s`` probe times from a fresh interpreter.
        """
        raise NotImplementedError


class Table4Campaign(Workload):
    name = "table4-ca"
    default_seed = FIDELITY_SEED

    def run_once(self, state, seed, telemetry=None):
        config = table4_config(seed)
        start = time.perf_counter()
        results = Campaign(config).run(batch_size=24, telemetry=telemetry)
        return results, (start, time.perf_counter())

    def reference(self, seed, part=0, parts=1):
        # The sequential path of Campaign.run(): one scalar run_cell per cell.
        campaign = Campaign(table4_config(seed))
        return [campaign.run_cell(cell) for cell in list(campaign.cells())[part::parts]]

    def setup(self, seed, scratch, ready):
        campaign_tasks(table4_config(seed))
        ready()


class FreeDense(Workload):
    name = "free-dense"
    default_seed = FIDELITY_SEED
    strategy = "attack-free"
    condition = "attack-free"

    def prepare(self, seed, scratch, reference):
        return free_dense_tasks(seed)

    def run_once(self, state, seed, telemetry=None):
        from repro.kernel import run_batched

        start = time.perf_counter()
        results = run_batched(state, batch_size=FREE_DENSE_ROWS, telemetry=telemetry)
        return results, (start, time.perf_counter())

    def reference(self, seed, part=0, parts=1):
        from repro.injection.engine import run_simulation

        tasks = free_dense_tasks(seed)[part::parts]
        return [run_simulation(config, strategy) for config, strategy in tasks]

    def setup(self, seed, scratch, ready):
        import repro.kernel  # noqa: F401  (the entry point's module)

        free_dense_tasks(seed)
        ready()


class ServiceMixed(Workload):
    """The service stack on the scalar stages, half of the grid warm."""

    name = "service-mixed"
    default_seed = 7

    def prepare(self, seed, scratch, reference):
        """Seed the cache fixture: of each attack type, every other task by run length.

        Half the runs hit, every attack type pays for six runs, and the
        misses hold about half of the steps whatever the seed.  Every other
        task in grid order left that share anywhere between a third and a
        half, which moved the rate from seed to seed by up to 15%.
        """
        from repro.service import RunCache

        fixture = os.path.join(scratch, "fixture")
        cache = RunCache(fixture)
        tasks = campaign_tasks(table4_config(seed))
        results = reference()
        by_type: Dict[Any, List[int]] = {}
        for index, (config, _) in enumerate(tasks):
            by_type.setdefault(config.attack_type, []).append(index)
        for of_type in by_type.values():
            by_length = sorted(of_type, key=lambda index: (results[index].duration, index))
            for index in by_length[::2]:
                config, strategy = tasks[index]
                cache.put(cache.fingerprint(config, strategy), results[index])
        return {"fixture": fixture, "scratch": scratch, "repeat": 0}

    def run_once(self, state, seed, telemetry=None):
        from repro.telemetry import Telemetry

        state["repeat"] += 1
        root = os.path.join(state["scratch"], f"repeat-{state['repeat']}")
        shutil.copytree(state["fixture"], os.path.join(root, "cache"))
        try:
            return asyncio.run(
                self._serve(seed, root, telemetry if telemetry is not None else Telemetry())
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    async def _serve(self, seed, root, telemetry):
        service, journal, spec = self._open(seed, root, telemetry)
        await service.start()
        try:
            start = time.perf_counter()
            job = await service.submit(spec)
            results = await service.result(job)
            window = (start, time.perf_counter())
        finally:
            await service.stop()
            journal.close()
        return results, window

    @staticmethod
    def _open(seed, root, telemetry):
        from repro.obs import EventJournal, FlightRecorderConfig
        from repro.resilience import SupervisionPolicy
        from repro.service import CampaignJobSpec, CampaignService, RunCache

        cache = RunCache(os.path.join(root, "cache"))
        journal = EventJournal(os.path.join(root, "journal.jsonl"))
        service = CampaignService(cache, concurrency=1, telemetry=telemetry, journal=journal)
        spec = CampaignJobSpec(
            table4_config(seed),
            supervision=SupervisionPolicy(),
            recorder=FlightRecorderConfig(os.path.join(root, "flight")),
        )
        return service, journal, spec

    def reference(self, seed, part=0, parts=1):
        from repro.kernel import run_batched

        return run_batched(campaign_tasks(table4_config(seed))[part::parts], batch_size=24)

    def setup(self, seed, scratch, ready):
        from repro.telemetry import Telemetry

        async def submit_first():
            service, journal, spec = self._open(seed, scratch, Telemetry())
            await service.start()
            await service.submit(spec)
            ready()

        asyncio.run(submit_first())


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Table4Campaign(), FreeDense(), ServiceMixed())
}


def fidelity_results(part: int = 0, parts: int = 1) -> List[RunResult]:
    """The canonical Table IV campaign (Context-Aware, master seed 2022)."""
    from repro.kernel import run_batched

    return run_batched(campaign_tasks(table4_config(FIDELITY_SEED))[part::parts], batch_size=24)


def reference_results(name: str, seed: int, part: int, parts: int) -> List[RunResult]:
    """Module-level so a forked child can run it by name."""
    return WORKLOADS[name].reference(seed, part, parts)


def workload(name: Optional[str]) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name]
