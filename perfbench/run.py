#!/usr/bin/env python3
"""The repo benchmark: one workload per invocation, checked, timed, traced.

    python3 perfbench/run.py --workload table4-ca --seed 2022 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics (``steps_per_s``, ``setup_s``, ``peak_rss_mb``, ``hazard_gap_pp``);
``--trace 1`` prints the per-layer metrics of :mod:`layers` instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable log and the host tag.

Timing.  Repeats of the workload's timed call run back to back until
``--seconds`` have passed (at least two untraced repeats).  Host speed on
small shared virtual machines drifts: on the 2-CPU KVM host the bounds
were set on, a fixed loop swings by up to 2x within seconds and whole
20-second runs by up to 2x within minutes.  So times are measured in
reference seconds (:mod:`hostclock`): the wall time of the call with each
slice scaled by the host's speed around it, as a fixed probe interleaved
with the work reads it.  A repeat's rate is its result control steps (sum
of ``RunResult.duration`` / 10 ms) per reference second of the call, and
``steps_per_s`` is the median rate over the repeats.  ``setup_s`` is the
median of several fresh-interpreter probes (:mod:`setup_probe`), in
reference seconds too; ``peak_rss_mb`` is the process high-water RSS over
the timed repeats.  The log shows the wall-clock figures beside them.

Checks.  Every repeat's results are compared run by run with the
expected output: the digests pinned in ``expected.json`` at the
workload's default seed, and otherwise a reference run in another mode
(the sequential campaign path, per-task scalar runs, a direct uncached
batch) made once per invocation in two forked children, outside the
timing.  A run that raised, went missing or differs counts as failed.

``hazard_gap_pp`` is |Context-Aware hazard rate - 83.4%| on the paper's
Table IV campaign at master seed 2022.  It does not depend on ``--seed``
(a per-seed rate swings by several points, far beyond any bound), so it
is computed once per source tree, Python and numpy version and kept
under ``.perfbench/``.  The per-seed gap of the workload itself is the
per-layer metric ``analysis.seed_hazard_gap_pp``.

All scratch files (cache fixtures, journals, flight records, traces) live
under ``.perfbench/`` in the checkout; temporary ones are removed.
"""

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
MIN_UNTRACED = 2
#: Forked processes sharing a reference run (the host has two cores).
REFERENCE_PROCESSES = 2


def log(message: str) -> None:
    print(message, flush=True)


# -- host and environment ------------------------------------------------------


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_tag() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """This process's high-water RSS.

    Before the timed repeats the process has only imported and prepared;
    reference runs happen in forked children, so the mark is the workload's.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def in_children(fn: Callable, *args) -> list:
    """``fn(*args, part, parts)`` for every part in forked worker processes.

    Each part returns a list for the items ``part::parts``; the lists are
    interleaved back into item order.  Reference runs thereby use both
    cores and stay out of this process's memory high-water mark.  Every
    worker has ended when this returns.
    """
    parts = REFERENCE_PROCESSES
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=parts, mp_context=context) as pool:
        futures = [pool.submit(fn, *args, part, parts) for part in range(parts)]
        outcomes = [future.result() for future in futures]
    merged: list = [None] * sum(len(value) for value in outcomes)
    for part, value in enumerate(outcomes):
        merged[part::parts] = value
    return merged


def source_digest() -> str:
    """SHA-256 over the program sources and this benchmark's files."""
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(base):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(files):
                if not name.endswith((".py", ".json")):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


# -- measurements --------------------------------------------------------------


def measure_setup(name: str, seed: int, scratch: str) -> Tuple[List[float], List[float]]:
    """Fresh interpreter -> first task submitted, :data:`SETUP_SAMPLES` times.

    Returns the reference seconds and the wall seconds of every probe.  The
    probe reports the seconds its host clock took and its reference seconds
    per net second, which convert this process's wall reading.
    """
    env = dict(os.environ)
    samples = []
    walls = []
    for index in range(SETUP_SAMPLES):
        directory = os.path.join(scratch, f"setup-{index}")
        command = [
            sys.executable,
            os.path.join(HERE, "setup_probe.py"),
            "--workload",
            name,
            "--seed",
            str(seed),
            "--scratch",
            directory,
        ]
        start = time.perf_counter()
        process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
        line = process.stdout.readline()
        elapsed = time.perf_counter() - start
        process.stdout.close()
        code = process.wait()
        shutil.rmtree(directory, ignore_errors=True)
        fields = line.split()
        if len(fields) != 3 or fields[0] != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}, output {line!r})")
        clock_s, speed = float(fields[1]), float(fields[2])
        samples.append((elapsed - clock_s) * speed)
        walls.append(elapsed - clock_s)
    return samples, walls


def load_expected() -> dict:
    path = os.path.join(HERE, "expected.json")
    with open(path) as handle:
        return json.load(handle)


def fidelity(expected: dict) -> dict:
    """``hazard_gap_pp`` of the canonical Table IV campaign.

    The record is cached per source tree, Python version and numpy version,
    since each of them can change simulation results.
    """
    import workloads

    os.makedirs(WORK, exist_ok=True)
    tag = host_tag()
    key = hashlib.sha256(f"{source_digest()} {tag['python']} {tag['numpy']}".encode())
    path = os.path.join(WORK, f"fidelity-{key.hexdigest()[:16]}.json")
    if os.path.isfile(path):
        with open(path) as handle:
            return json.load(handle)
    results = in_children(workloads.fidelity_results)
    pinned = expected["table4-ca"]
    record = {
        "hazard_gap_pp": workloads.hazard_gap_pp("Context-Aware", "Context-Aware", results),
        "table_iv": workloads.table_iv("Context-Aware", results),
        "matches_pinned": workloads.run_digests(results) == pinned["run_digests"],
    }
    handle, temporary = tempfile.mkstemp(dir=WORK, suffix=".json")
    with os.fdopen(handle, "w") as out:
        json.dump(record, out, sort_keys=True)
    os.replace(temporary, path)
    return record


class Repeat:
    """What one timed repeat leaves behind (its results are reduced at once).

    ``wall`` is the call's wall time less any host-speed probes in it;
    ``reference`` its reference seconds (untraced repeats only).
    """

    def __init__(
        self,
        traced: bool,
        results=(),
        wall: float = 0.0,
        reference: Optional[float] = None,
        error: Optional[str] = None,
    ):
        import workloads

        self.traced = traced
        self.steps = workloads.result_steps(results)
        self.wall = wall
        self.reference = reference
        self.digests = workloads.run_digests(results)
        self.error = error
        self.layers: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.cache_share = 0.0

    @property
    def rate(self) -> float:
        """Steps per wall second."""
        return self.steps / self.wall

    @property
    def reference_rate(self) -> float:
        """Steps per reference second."""
        return self.steps / self.reference


def run_traced(workload, state, seed: int, workload_id: str, trace_dir: str):
    """One traced repeat: wrappers installed, telemetry handed to the entry point."""
    import layers
    from repro.telemetry import Telemetry, TelemetryConfig

    telemetry = Telemetry(TelemetryConfig(sample_every=1))
    with layers.LayerTrace(workload_id) as tracer:
        with tracer.workload(telemetry):
            results, (start, end) = workload.run_once(state, seed, telemetry=telemetry)
    repeat = Repeat(True, results, end - start)
    repeat.layers = layers.layer_metrics(tracer, telemetry)
    repeat.counts = tracer.counts()
    repeat.cache_share = layers.cache_share(tracer)
    write_spans(trace_dir, workload_id, tracer.span_records())
    return repeat, results


def run_repeats(workload, state, seed: int, seconds: float, trace: bool, trace_dir: str):
    """The timed loop; returns the repeats and the first repeat's results.

    Untraced runs repeat until ``seconds`` have passed (at least
    :data:`MIN_UNTRACED` times).  Traced runs start untraced, traced,
    traced (the exact counts are compared across the two traced repeats)
    and then alternate.  Only untraced repeats run under the host clock,
    so its probes stay out of the per-layer times.
    """
    import hostclock

    clock = hostclock.HostClock()
    schedule = [False, True, True] if trace else [False] * MIN_UNTRACED
    repeats: List[Repeat] = []
    first_results = None
    started = time.perf_counter()
    while schedule or time.perf_counter() - started < seconds:
        traced = schedule.pop(0) if schedule else trace and not repeats[-1].traced
        gc.collect()
        try:
            if traced:
                workload_id = f"{workload.name}-seed{seed}-r{len(repeats)}"
                repeat, results = run_traced(workload, state, seed, workload_id, trace_dir)
            else:
                with clock:
                    results, (start, end) = workload.run_once(state, seed)
                repeat = Repeat(False, results, *clock.measure(start, end))
        except Exception as error:  # every run of a raising repeat counts as failed
            repeats.append(Repeat(traced, error=f"{type(error).__name__}: {error}"))
            log(f"repeat {len(repeats)} raised {repeats[-1].error}")
            continue
        if first_results is None:
            first_results = results
        repeats.append(repeat)
        log(
            f"repeat {len(repeats)} ({'traced' if traced else 'untraced'}): {len(results)} runs, "
            f"{repeat.steps} steps in {repeat.wall:.3f} s = {repeat.rate:.1f} steps/s"
            + (
                ""
                if traced
                else f", {repeat.reference:.3f} reference s = {repeat.reference_rate:.1f} steps/s"
            )
        )
        del results
    return repeats, first_results


def write_spans(directory: str, workload_id: str, records: List[dict]) -> None:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload_id}.jsonl")
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def quartile_spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median, or None below two values."""
    if len(values) < 2:
        return None
    low, mid, high = statistics.quantiles(values, n=4)
    return (high - low) / mid


def declared() -> dict:
    """``BENCHMARK.json`` at the checkout root, or nothing if it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as handle:
        return json.load(handle)


def log_resolution(name: str, values: List[float], what: str) -> None:
    """Say whether this run's own spread of ``name`` is within its bound.

    A spread wider than the bound means host drift during the run is as
    large as the change the bound is meant to catch, so a difference of
    that size in this run's figure is unresolved.
    """
    bounds = {entry["name"]: entry["bound"] for entry in declared().get("end_to_end", [])}
    spread = quartile_spread(values)
    if name not in bounds or spread is None:
        return
    verdict = "resolved"
    if spread > bounds[name]:
        verdict = "UNRESOLVED (host drift hides a change of this size)"
    log(
        f"resolution {name}: quartile spread {spread:.3f} over {len(values)} {what} "
        f"vs bound {bounds[name]}: {verdict}"
    )


# -- the invocation ------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2
    # Keep the workload to the two cores the bounds were set on.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads

    workload = workloads.workload(args.workload)
    seed = workload.default_seed if args.seed is None else args.seed
    trace = bool(args.trace)
    log(f"perfbench workload={workload.name} seed={seed} seconds={args.seconds} trace={args.trace}")
    log("host " + json.dumps(host_tag(), sort_keys=True))

    expected = load_expected()
    pinned = expected[workload.name] if seed == workload.default_seed else None
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    problems: List[str] = []
    try:
        metrics: Dict[str, float] = {}
        if not trace:
            samples, walls = measure_setup(workload.name, seed, scratch)
            metrics["setup_s"] = statistics.median(samples)
            log("setup_s samples: " + ", ".join(f"{sample:.4f}" for sample in samples))
            log("setup wall seconds: " + ", ".join(f"{wall:.4f}" for wall in walls))
            log_resolution("setup_s", samples, "probes")

        reference_cache: dict = {}

        def reference():
            if "results" not in reference_cache:
                reference_cache["results"] = in_children(
                    workloads.reference_results, workload.name, seed
                )
            return reference_cache["results"]

        state = workload.prepare(seed, scratch, reference)
        # The timed repeats keep to one CPU, so the host clock's probes, which
        # run in the main thread, time the core that also runs the service's
        # executor thread; each virtual CPU's speed drifts on its own.
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            repeats, first_results = run_repeats(
                workload, state, seed, args.seconds, trace, os.path.join(WORK, "traces")
            )
        finally:
            os.sched_setaffinity(0, allowed)
        rss = peak_rss_mb()
        if first_results is None:
            raise RuntimeError("every repeat raised: " + repeats[0].error)

        # -- checks (outside the timing) --
        if pinned is not None:
            expected_digests = pinned["run_digests"]
            if workloads.table_iv(workload.strategy, first_results) != pinned["table_iv"]:
                problems.append(f"Table IV counts differ from the pinned {pinned['table_iv']}")
            source = "pinned digests"
        else:
            expected_digests = workloads.run_digests(reference())
            source = "reference run"
        attempted = failed = 0
        for repeat in repeats:
            attempted += len(expected_digests)
            failed += len(expected_digests) - sum(
                1 for got, want in zip(repeat.digests, expected_digests) if got == want
            )
        log(f"check: {attempted - failed}/{attempted} runs equal the {source}")
        if failed:
            problems.append(f"{failed} of {attempted} runs differ from the {source}")
        problems.extend(f"a repeat raised {repeat.error}" for repeat in repeats if repeat.error)
        repeats = [repeat for repeat in repeats if repeat.error is None]
        steps = {repeat.steps for repeat in repeats}
        if len(steps) > 1:
            problems.append(f"repeats covered different step counts {sorted(steps)}")

        untraced = [repeat.reference_rate for repeat in repeats if not repeat.traced]
        if not untraced or (trace and not any(repeat.traced for repeat in repeats)):
            raise RuntimeError("no repeat completed")
        wall_rates = [repeat.rate for repeat in repeats if not repeat.traced]
        log(
            f"steps/s over {len(untraced)} untraced repeats: median "
            f"{statistics.median(untraced):.1f} per reference second, "
            f"{statistics.median(wall_rates):.1f} per wall second"
        )
        log_resolution("steps_per_s", untraced, "untraced repeats")
        if not trace:
            record = fidelity(expected)
            if not record["matches_pinned"]:
                problems.append("the canonical Table IV campaign differs from its pinned digests")
            log(f"fidelity: canonical Table IV {record['table_iv']}")
            metrics["steps_per_s"] = statistics.median(untraced)
            metrics["peak_rss_mb"] = rss
            metrics["hazard_gap_pp"] = record["hazard_gap_pp"]
            output = {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in (
                    ("steps_per_s", "steps/s"),
                    ("setup_s", "s"),
                    ("peak_rss_mb", "MiB"),
                    ("hazard_gap_pp", "pp"),
                )
            }
        else:
            output = traced_metrics(workload, repeats, first_results, attempted, failed, problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        log(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": output,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0


def traced_metrics(workload, repeats, first_results, attempted, failed, problems) -> dict:
    """Per-layer metrics of a ``--trace 1`` run, with the trace self-test."""
    import layers
    import workloads

    traced = [repeat for repeat in repeats if repeat.traced]
    untraced = [repeat.rate for repeat in repeats if not repeat.traced]
    for repeat in traced[1:]:
        for name in layers.EXACT_COUNTS:
            if repeat.counts[name] != traced[0].counts[name]:
                problems.append(
                    f"exact count {name} differs across traced repeats: "
                    f"{traced[0].counts[name]} vs {repeat.counts[name]}"
                )
    log("exact counts: " + json.dumps(traced[0].counts, sort_keys=True))
    for repeat in traced:
        counts = repeat.counts
        if counts["dense_rows"] + counts["plan_calls"] != counts["row_steps"]:
            problems.append(
                "dense_share does not reconcile: dense planner rows "
                f"{counts['dense_rows']} + PlanStage.run calls {counts['plan_calls']} "
                f"!= row-steps {counts['row_steps']}"
            )
    values = {
        name: statistics.median(repeat.layers[name] for repeat in traced)
        for name in traced[0].layers
    }
    values["analysis.seed_hazard_gap_pp"] = workloads.hazard_gap_pp(
        workload.strategy, workload.condition, first_results
    )
    values["failed_share"] = failed / attempted if attempted else 1.0
    traced_rate = statistics.median(repeat.rate for repeat in traced)
    values["trace.overhead_share"] = 1.0 - traced_rate / statistics.median(untraced)
    log(
        f"tracing overhead: {values['trace.overhead_share']:.3f} (traced {traced_rate:.1f} "
        f"vs untraced {statistics.median(untraced):.1f} steps/s, medians)"
    )
    if workload.name == "service-mixed":
        log(
            f"note: RunCache calls take {statistics.median(r.cache_share for r in traced):.1%} "
            "of the service wall time, "
            "so a cache-only optimisation falls below this benchmark's resolution"
        )
    names = set(layers.PER_LAYER) | {entry["name"] for entry in declared().get("per_layer", [])}
    missing = sorted(names - set(values))
    if missing:
        problems.append(f"per-layer metrics missing: {', '.join(missing)}")
    return {
        name: {"value": values[name], "unit": layers.PER_LAYER[name][0]}
        for name in layers.PER_LAYER
        if name in values
    }


if __name__ == "__main__":
    sys.exit(main())
