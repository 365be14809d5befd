from .folds import FoldPlan, plan_loso
from .metrics import ConfusionMatrix, FoldResult, aggregate_folds, macro_f1, render_table
from .forest import ForestConfig, ForestModel, forest_predict_batch, forest_train
from .primafacie import (
    PRIMA_FACIE_COLUMNS,
    PrimaFacieReport,
    PrimaFacieScenario,
    QuotaError,
    ScenarioKind,
    ScenarioResult,
    binarize_emotions,
    plan_scenarios,
    run_prima_facie,
    run_scenario,
    sample_prima_facie,
)
from .benchmark import BENCHMARK_COLUMNS, VariantRow, run_loso_variant

__all__ = [
    "FoldPlan",
    "plan_loso",
    "ConfusionMatrix",
    "FoldResult",
    "aggregate_folds",
    "macro_f1",
    "render_table",
    "ForestConfig",
    "ForestModel",
    "forest_predict_batch",
    "forest_train",
    "PRIMA_FACIE_COLUMNS",
    "PrimaFacieReport",
    "PrimaFacieScenario",
    "QuotaError",
    "ScenarioKind",
    "ScenarioResult",
    "binarize_emotions",
    "plan_scenarios",
    "run_prima_facie",
    "run_scenario",
    "sample_prima_facie",
    "BENCHMARK_COLUMNS",
    "VariantRow",
    "run_loso_variant",
]
