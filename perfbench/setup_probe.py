"""Time-to-first-submission probe for ``setup_s``.

Started as a fresh interpreter by ``run.py``: imports the workload (and so
``repro``), builds its tasks and, for ``service-mixed``, opens the run
cache and the event journal, starts the service and submits the job.  It
prints ``ready`` once the first task is submitted and exits at once, so
the parent's clock from process start to that line is the set-up time.

A :class:`hostclock.HostClock` probes the host speed from the first lines
of this script to ``ready``.  The line carries the seconds the clock took
(building its probe, then probing) and the covered interval's reference
seconds per net second, with which the parent converts its reading to
reference seconds.

    python3 perfbench/setup_probe.py --workload table4-ca --seed 2022 --scratch DIR
"""

import argparse
import os
import sys
import time

import hostclock

#: Seconds between host-speed probes (set-up lasts a few tenths of a second).
PROBE_INTERVAL_S = 0.02


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    built = time.perf_counter()
    clock = hostclock.HostClock(PROBE_INTERVAL_S)
    clock.start()
    start = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    def ready() -> None:
        end = time.perf_counter()
        clock.stop()
        net, reference = clock.measure(start, end)
        clock_s = (start - built) + (end - start - net)
        sys.stdout.write(f"ready {clock_s!r} {reference / net!r}\n")
        sys.stdout.flush()
        os._exit(0)

    workloads.workload(args.workload).setup(args.seed, args.scratch, ready)
    sys.exit("setup finished without submitting a task")


if __name__ == "__main__":
    main()
