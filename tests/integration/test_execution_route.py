"""The one execution route: every way of running a task list agrees.

Campaigns, ``run_simulations``, the supervised entry points, the
experiments, the service and the search driver all run their task list
through :func:`repro.resilience.supervisor.execute_tasks`, whose
executor runs every chunk through one chunk body.  These tests pin what
that buys: identical results *and* identical deterministic telemetry
across workers, lockstep batching and supervision; one lockstep batch
over the whole grid in-process; per-run progress inline; a pool that
breaks between sweeps; two threads dispatching pooled campaigns at once;
checkpoints that refuse an edited campaign and that an in-process run
still flushes mid-grid; and unpicklable strategies on the pool under
``fork``.
"""

import dataclasses
import multiprocessing
import pickle
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.attack_types import AttackType
from repro.core.strategies import ContextAwareStrategy
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.engine import SimulationConfig
from repro.injection.executor import run_simulations
from repro.kernel.batch import BatchRunner
from repro.resilience import CheckpointMismatch, SupervisedExecutor, SupervisionPolicy
from repro.telemetry import Telemetry, TelemetryConfig

#: The chaos suite's attacked grid: 2 distances x 2 attacks x 2 reps = 8 runs.
CAMPAIGN_CONFIG = CampaignConfig(
    strategy_name="Context-Aware",
    scenarios=("S1",),
    initial_distances=(50.0, 70.0),
    attack_types=(AttackType.ACCELERATION, AttackType.DECELERATION),
    repetitions=2,
    max_steps=600,
)


def _run(workers, batch_size, supervision):
    telemetry = Telemetry(TelemetryConfig())
    results = Campaign(CAMPAIGN_CONFIG).run(
        workers=workers,
        batch_size=batch_size,
        supervision=supervision,
        telemetry=telemetry,
    )
    return results, telemetry.deterministic_snapshot()


@pytest.fixture(scope="module")
def reference():
    return _run(workers=1, batch_size=None, supervision=None)


class TestEveryRouteAgrees:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize(
        "supervision", [None, SupervisionPolicy(backoff_base=0.01)], ids=["plain", "supervised"]
    )
    def test_results_and_deterministic_telemetry_match(
        self, reference, workers, batch_size, supervision
    ):
        expected_results, expected_snapshot = reference
        results, snapshot = _run(workers, batch_size, supervision)
        assert results == expected_results
        assert snapshot == expected_snapshot
        counters = snapshot["counters"]
        assert counters["runs.completed"] == CAMPAIGN_CONFIG.total_runs
        assert counters["can.frames_sent"] > 0
        assert counters["supervisor.completed"] == CAMPAIGN_CONFIG.total_runs


class TestInProcessChunking:
    @pytest.fixture
    def batch_calls(self, monkeypatch):
        calls = []
        run_tasks = BatchRunner.run_tasks

        def counting_run_tasks(runner, tasks, progress=None):
            calls.append(len(tasks))
            return run_tasks(runner, tasks, progress=progress)

        monkeypatch.setattr(BatchRunner, "run_tasks", counting_run_tasks)
        return calls

    def test_campaign_run_is_one_batch(self, batch_calls):
        Campaign(CAMPAIGN_CONFIG).run(batch_size=4)
        assert batch_calls == [CAMPAIGN_CONFIG.total_runs]

    def test_run_resilient_is_one_batch(self, batch_calls):
        outcome = Campaign(CAMPAIGN_CONFIG).run_resilient(workers=1, batch_size=4)
        assert len(outcome.completed_results) == CAMPAIGN_CONFIG.total_runs
        assert batch_calls == [CAMPAIGN_CONFIG.total_runs]

    @pytest.mark.parametrize("batch_size", [None, 4])
    @pytest.mark.parametrize(
        "supervision", [None, SupervisionPolicy(backoff_base=0.01)], ids=["plain", "supervised"]
    )
    def test_progress_fires_once_per_run(self, batch_size, supervision):
        calls = []
        Campaign(CAMPAIGN_CONFIG).run(
            batch_size=batch_size,
            supervision=supervision,
            progress=lambda done, total: calls.append((done, total)),
        )
        total = CAMPAIGN_CONFIG.total_runs
        assert calls == [(done, total) for done in range(1, total + 1)]


class _BrokenPool:
    """A pool whose worker died before the next chunk was submitted."""

    def submit(self, *args, **kwargs):
        raise BrokenProcessPool("a worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestPoolBrokenAtSubmission:
    @pytest.fixture
    def first_pool_broken(self, monkeypatch):
        spawned = []
        spawn = SupervisedExecutor._spawn_pool

        def spawn_broken_first(executor, width):
            spawned.append(width)
            return _BrokenPool() if len(spawned) == 1 else spawn(executor, width)

        monkeypatch.setattr(SupervisedExecutor, "_spawn_pool", spawn_broken_first)
        return spawned

    def test_supervisor_respawns_and_charges_no_attempt(self, reference, first_pool_broken):
        outcome = Campaign(CAMPAIGN_CONFIG).run_resilient(
            workers=2, supervision=SupervisionPolicy(backoff_base=0.01)
        )
        assert outcome.completed_results == reference[0]
        assert outcome.report.pool_respawns == 1
        assert outcome.report.retries == 0
        assert len(first_pool_broken) == 2

    def test_without_supervision_the_break_is_raised(self, first_pool_broken):
        with pytest.raises(BrokenProcessPool):
            Campaign(CAMPAIGN_CONFIG).run(workers=2)


def test_concurrent_pooled_dispatches_keep_their_own_tasks():
    """Two threads dispatching pooled campaigns at once (as two service
    consumers do) each get their own grid's results: the task list
    reaches the workers through the pool, not through shared state."""
    configs = [
        CAMPAIGN_CONFIG,
        dataclasses.replace(CAMPAIGN_CONFIG, master_seed=7, initial_distances=(60.0,)),
    ]
    expected = [Campaign(config).run() for config in configs]
    got = [None, None]

    def dispatch(slot):
        got[slot] = Campaign(configs[slot]).run(workers=2, chunk_size=1)

    threads = [threading.Thread(target=dispatch, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == expected


class TestCheckpointIdentity:
    SMALL = CampaignConfig(
        strategy_name="Context-Aware",
        scenarios=("S1",),
        initial_distances=(70.0,),
        attack_types=(AttackType.DECELERATION,),
        repetitions=2,
        max_steps=300,
    )

    @pytest.mark.parametrize(
        "change", [{"max_steps": 250}, {"driver_enabled": False}], ids=["max_steps", "driver"]
    )
    def test_edited_campaign_refuses_the_checkpoint(self, tmp_path, change):
        path = str(tmp_path / "campaign.json")
        Campaign(self.SMALL).run_resilient(checkpoint_path=path)
        assert Campaign(self.SMALL).run_resilient(
            checkpoint_path=path
        ).report.loaded_from_checkpoint == self.SMALL.total_runs
        edited = dataclasses.replace(self.SMALL, **change)
        with pytest.raises(CheckpointMismatch):
            Campaign(edited).run_resilient(checkpoint_path=path)


class _Interrupted(Exception):
    """Stand-in for the process dying mid-campaign."""


class TestCheckpointCadence:
    @pytest.mark.parametrize("batch_size", [None, 4])
    def test_in_process_run_flushes_before_the_grid_ends(self, reference, tmp_path, batch_size):
        """Without ``chunk_size`` a checkpointed in-process run still cuts
        the grid into about four chunks and flushes after each, so dying
        one run short of the end keeps every completed chunk."""
        path = str(tmp_path / "campaign.json")
        total = CAMPAIGN_CONFIG.total_runs
        seen = []

        def die_before_the_last(index, result):
            seen.append(index)
            if len(seen) == total - 1:
                raise _Interrupted()

        with pytest.raises(_Interrupted):
            Campaign(CAMPAIGN_CONFIG).run_resilient(
                workers=1, batch_size=batch_size, checkpoint_path=path,
                on_result=die_before_the_last,
            )
        outcome = Campaign(CAMPAIGN_CONFIG).run_resilient(
            workers=1, batch_size=batch_size, checkpoint_path=path
        )
        assert outcome.report.loaded_from_checkpoint == total - 2  # chunks of 2
        assert outcome.report.sims_paid == 2
        assert outcome.completed_results == reference[0]


class _UnpicklableStrategy(ContextAwareStrategy):
    """A Context-Aware strategy holding a lambda, so it cannot be pickled."""

    def __init__(self):
        super().__init__()
        self.hook = lambda: None


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the task list only under fork",
)
def test_unpicklable_strategies_run_on_the_pool_under_fork():
    tasks = [
        (
            SimulationConfig(
                scenario="S1",
                initial_distance=70.0,
                seed=seed,
                attack_type=AttackType.ACCELERATION,
                max_steps=500,
            ),
            _UnpicklableStrategy(),
        )
        for seed in (5, 6, 7, 8)
    ]
    with pytest.raises(Exception):
        pickle.dumps(tasks[0][1])
    assert run_simulations(tasks, workers=2) == run_simulations(tasks)
