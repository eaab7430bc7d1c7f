"""Programmatic checks of the paper's six observations.

Each observation is expressed as a predicate over aggregated experiment
results; the integration tests (``tests/integration/test_observations.py``)
use these to check that the *shape* of the paper's findings holds in the
reproduction, without requiring the absolute numbers to match; the
paper-vs-measured numbers are in ``README.md`` and ``benchmarks/``.
"""

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.analysis.metrics import RunResult
from repro.analysis.results import AttackTypeSummary, StrategySummary


@dataclass(frozen=True)
class ObservationCheck:
    """Outcome of checking one observation."""

    observation: int
    description: str
    holds: bool
    detail: str = ""


def check_observation_1(attack_free_runs: Sequence[RunResult]) -> ObservationCheck:
    """Lane invasions can happen even without any attacks."""
    invasions = sum(run.lane_invasions for run in attack_free_runs)
    hazards = sum(bool(run.hazards) for run in attack_free_runs)
    holds = invasions > 0 and hazards == 0
    return ObservationCheck(
        1,
        "Lane invasions occur without attacks (and without hazards)",
        holds,
        f"{invasions} invasions, {hazards} hazards over {len(attack_free_runs)} attack-free runs",
    )


def check_observation_2(
    context_aware: StrategySummary, random_summaries: Sequence[StrategySummary]
) -> ObservationCheck:
    """Context-Aware attacks beat random strategies and evade the FCW."""
    best_random = max(summary.hazard_rate for summary in random_summaries)
    holds = (
        context_aware.hazard_rate > best_random
        and context_aware.hazards_without_alerts_rate >= 0.8 * context_aware.hazard_rate
    )
    return ObservationCheck(
        2,
        "Context-Aware attacks achieve the highest hazard rate, almost always without alerts",
        holds,
        f"Context-Aware {context_aware.hazard_rate:.0%} vs best random {best_random:.0%}; "
        f"{context_aware.hazards_without_alerts_rate:.0%} hazards without alerts",
    )


def check_observation_3(
    critical_window, random_hazard_rate: float, context_aware_hazard_rate: float
) -> ObservationCheck:
    """Context-Aware start/duration selection does not waste injections."""
    holds = critical_window is not None and context_aware_hazard_rate >= random_hazard_rate
    detail = (
        f"critical window {critical_window}, random hazard rate {random_hazard_rate:.0%}, "
        f"Context-Aware hazard rate {context_aware_hazard_rate:.0%}"
    )
    return ObservationCheck(
        3, "A critical start-time window exists and Context-Aware lands inside it", holds, detail
    )


def check_observation_4(
    without_corruption: Dict[str, AttackTypeSummary]
) -> ObservationCheck:
    """Human alertness prevents hazards for longitudinal attacks."""
    prevented = sum(
        summary.prevented_hazards
        for name, summary in without_corruption.items()
        if name in ("Acceleration", "Deceleration", "Deceleration-Steering")
    )
    holds = prevented > 0
    return ObservationCheck(
        4,
        "The driver prevents a substantial number of fixed-value longitudinal attack hazards",
        holds,
        f"{prevented} hazards prevented by the driver across longitudinal attack types",
    )


def check_observation_5(summaries: Dict[str, AttackTypeSummary]) -> ObservationCheck:
    """Steering attacks cannot be halted by the driver."""
    steering = [
        summary
        for name, summary in summaries.items()
        if "Steering" in name and name not in ("Deceleration-Steering",)
    ]
    prevented = sum(summary.prevented_hazards for summary in steering)
    hazard_rate = (
        sum(summary.hazards for summary in steering) / sum(summary.runs for summary in steering)
        if steering
        else 0.0
    )
    holds = bool(steering) and prevented <= 0.1 * sum(summary.hazards for summary in steering) \
        and hazard_rate >= 0.5
    return ObservationCheck(
        5,
        "Steering attacks achieve high hazard rates and are (almost) never prevented by the driver",
        holds,
        f"steering hazard rate {hazard_rate:.0%}, prevented {prevented}",
    )


def check_observation_6(
    with_corruption: Dict[str, AttackTypeSummary],
    without_corruption: Dict[str, AttackTypeSummary],
) -> ObservationCheck:
    """Strategic value corruption evades the driver and the ADAS checks."""
    alerts_with = sum(summary.alerts for summary in with_corruption.values())
    alerts_without = sum(summary.alerts for summary in without_corruption.values())
    prevented_with = sum(summary.prevented_hazards for summary in with_corruption.values())
    prevented_without = sum(summary.prevented_hazards for summary in without_corruption.values())
    holds = alerts_with <= alerts_without and prevented_with <= prevented_without
    return ObservationCheck(
        6,
        "Strategic value corruption reduces alerts and driver preventions",
        holds,
        f"alerts {alerts_with} vs {alerts_without}; prevented {prevented_with} vs {prevented_without}",
    )


def format_observations(checks: Sequence[ObservationCheck]) -> str:
    """Render observation checks as a text report."""
    lines = []
    for check in checks:
        status = "HOLDS" if check.holds else "DEVIATES"
        lines.append(f"Observation {check.observation}: {status} — {check.description}")
        if check.detail:
            lines.append(f"    {check.detail}")
    return "\n".join(lines)
