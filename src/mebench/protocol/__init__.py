from .folds import FoldPlan, plan_loso
from .metrics import ConfusionMatrix, FoldResult, aggregate_folds, macro_f1
from .forest import ForestConfig, ForestModel, forest_predict, forest_predict_batch, forest_train
from .primafacie import (
    PrimaFacieReport,
    PrimaFacieScenario,
    QuotaError,
    ScenarioKind,
    ScenarioResult,
    binarize_emotions,
    run_prima_facie,
    run_scenario,
    sample_prima_facie,
)
from .benchmark import BenchmarkReport, VariantRow, run_benchmark, run_loso_variant

__all__ = [
    "FoldPlan",
    "plan_loso",
    "ConfusionMatrix",
    "FoldResult",
    "aggregate_folds",
    "macro_f1",
    "ForestConfig",
    "ForestModel",
    "forest_predict",
    "forest_predict_batch",
    "forest_train",
    "PrimaFacieReport",
    "PrimaFacieScenario",
    "QuotaError",
    "ScenarioKind",
    "ScenarioResult",
    "binarize_emotions",
    "run_prima_facie",
    "run_scenario",
    "sample_prima_facie",
    "BenchmarkReport",
    "VariantRow",
    "run_benchmark",
    "run_loso_variant",
]
