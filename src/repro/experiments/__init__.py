"""Experiment modules: one per table/figure of the paper's evaluation.

Each module exposes a ``run_*`` function that executes the (possibly
scaled-down) experiment grid and a ``format_*``/result dataclass that
renders the same rows or series the paper reports.  The benchmark harness
in ``benchmarks/`` (``test_bench_table4.py`` and siblings) calls these
functions and prints the paper-vs-measured comparison; ``README.md``
records it.

Grid sizes default to a scaled-down version of the paper's grid so that a
full regeneration finishes in minutes on a laptop; pass
``ExperimentScale.full()`` (or set the ``REPRO_FULL_SCALE`` environment
variable) to run the paper-sized grid.
"""

from repro.experiments.scale import ExperimentScale
from repro.experiments.table4 import Table4Result, run_table4
from repro.experiments.table5 import Table5Result, run_table5
from repro.experiments.figure7 import Figure7Result, run_figure7
from repro.experiments.figure8 import Figure8Result, run_figure8
from repro.experiments.search_attack import SearchAttackResult, run_search_attack

__all__ = [
    "ExperimentScale",
    "Table4Result",
    "run_table4",
    "Table5Result",
    "run_table5",
    "Figure7Result",
    "run_figure7",
    "Figure8Result",
    "run_figure8",
    "SearchAttackResult",
    "run_search_attack",
]
