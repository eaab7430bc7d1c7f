"""Pin the expected output of every workload at its default seed.

    python3 perfbench/pin.py

Runs each workload's reference mode and its timed mode once at the
default seed, refuses to pin unless the two agree run for run, and writes
the per-run digests of the canonical ``RunResult.to_dict()`` list and the
Table IV counts to ``perfbench/expected.json``.  Re-pin only when a change
is meant to alter simulation results.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> None:
    expected = {}
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        seed = workload.default_seed
        reference = workload.reference(seed)
        scratch = tempfile.mkdtemp(prefix=f"pin-{name}-", dir=work)
        try:
            state = workload.prepare(seed, scratch, lambda: reference)
            timed, _ = workload.run_once(state, seed)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        digests = workloads.run_digests(reference)
        if workloads.run_digests(timed) != digests:
            sys.exit(f"{name}: the timed mode disagrees with the reference mode; not pinning")
        expected[name] = {
            "seed": seed,
            "table_iv": workloads.table_iv(workload.strategy, reference),
            "run_digests": digests,
        }
        print(name, expected[name]["table_iv"], flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
