"""Runners reproducing the paper's evaluation from platform specs."""

from repro.experiments.differential import (
    ALL_ORACLES,
    DifferentialResult,
    OracleVerdict,
    decision_contexts,
    decision_log_contexts,
    replay_decisions,
    run_differential,
)
from repro.experiments.runner import (
    BaselineFigures,
    RunArtifacts,
    run_baseline,
    run_comparison,
    run_scenario,
)
from repro.experiments.sweep import condition_sweep, policy_ablation, predictor_ablation
from repro.experiments.table2 import (
    reproduce_table2,
    simulation_speed,
    simulation_speed_report,
)

__all__ = [
    "ALL_ORACLES",
    "BaselineFigures",
    "DifferentialResult",
    "OracleVerdict",
    "RunArtifacts",
    "condition_sweep",
    "decision_contexts",
    "decision_log_contexts",
    "policy_ablation",
    "predictor_ablation",
    "replay_decisions",
    "reproduce_table2",
    "run_baseline",
    "run_comparison",
    "run_differential",
    "run_scenario",
    "simulation_speed",
    "simulation_speed_report",
]
