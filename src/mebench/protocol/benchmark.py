"""The four-variant benchmark: full LOSO training and evaluation per variant.

Each variant row reports per-class F1 for Negative/Positive/Surprise
and their mean, plus whether ethnic context is present and which input
representation feeds it. A variant's jobs are its LOSO folds plus,
when asked for, the full-data model saved for activation-map analysis:
one job list, one sample load and one run_jobs call. Each job's result
is checkpointed as a runutil cache entry, keyed from loso_key_base, so
interrupted many-fold runs resume instead of restarting.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from ..corpus import Manifest
from ..errors import DataError
from ..model import ModelConfig, TrainConfig, Variant, evaluate_predictions, save_checkpoint, train_fold
from ..pipeline import (
    EMOTION_CLASSES,
    emotion_index,
    ethnicity_index,
    existing_flow_image_path,
    load_train_samples,
    sample_key,
)
from ..runutil import cache_key, derive_seed, hash_file, read_cache_entry, run_jobs, write_cache_entry
from .folds import FoldPlan, plan_loso
from .metrics import ConfusionMatrix, FoldResult, aggregate_folds


# (row key, markdown title, tsv title) of each benchmark table column; see metrics.render_table
BENCHMARK_COLUMNS = (
    ("variant", "Variant", "variant"),
    ("motion_context", "Motion Context", None),
    ("ethnic_context", "Ethnic Context", "ethnic_context"),
    ("ethnicity_representation", "Ethnicity Representation", "representation"),
    *((name, name, name) for name in EMOTION_CLASSES),
    ("average_mf1", "Average MF1", "average_mf1"),
)


@dataclass
class VariantRow:
    variant: str
    ethnic_context: bool
    representation: str
    per_class_f1: dict
    average_mf1: float
    epochs: int

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "motion_context": True,
            "ethnic_context": self.ethnic_context,
            "ethnicity_representation": self.representation,
            **{k: v for k, v in self.per_class_f1.items()},
            "average_mf1": self.average_mf1,
            "epochs": self.epochs,
        }


def _is_counts(value) -> bool:
    """A k x k list of non-negative ints over the k emotion classes, as a fold checkpoint stores it."""
    k = len(EMOTION_CLASSES)
    return isinstance(value, list) and len(value) == k and all(
        isinstance(row, list) and len(row) == k and all(type(c) is int and c >= 0 for c in row) for row in value
    )


def _run_one_fold(job: tuple):
    """Worker: train one LOSO job. A fold job scores its held-out subject and
    returns the confusion counts; the full-data job (held_out None) returns
    the trained ParamSet."""
    train_samples, test_samples, held_out, variant, model_config, train_config, seed = job
    params, _history = train_fold(train_samples, model_config, variant, train_config, seed)
    if held_out is None:
        return params
    predictions = evaluate_predictions(params, test_samples, model_config, variant)
    return ConfusionMatrix.of(EMOTION_CLASSES, [s.emotion for s in test_samples], predictions).counts.tolist()


def loso_key_base(
    records: list, variant: Variant, model_config: ModelConfig, train_config: TrainConfig, flow_dir, seed: int
) -> str:
    """The cache key every model trained on these records shares: the variant,
    configs and seed, each record's sample key and labels, and the bytes of
    its OFI file (and apex frame, for RGB variants). A model's own key is
    _model_key(base, subject), with subject None for the full-data model."""
    files = [existing_flow_image_path(flow_dir, r) for r in records]
    if variant.needs_rgb:
        files += [r.apex_path for r in records]
    inputs = {
        "variant": variant.value,
        "model": asdict(model_config),
        "train": asdict(train_config),
        "seed": seed,
        "samples": [[sample_key(r), emotion_index(r), ethnicity_index(r)] for r in records],
    }
    return cache_key(inputs, files)


def _model_key(base: str, held_out: str | None) -> str:
    return cache_key({"loso": base, "held_out": held_out})


def run_loso_variant(
    manifest: Manifest,
    variant: Variant,
    model_config: ModelConfig,
    train_config: TrainConfig,
    flow_dir,
    seed: int,
    checkpoint_dir=None,
    workers: int = 1,
    model_path=None,
) -> tuple[VariantRow, list[FoldResult]]:
    """Train/evaluate one variant across all LOSO folds and, with model_path
    set, train its full-data model on every eligible record and save it there.

    Each model is one job: a fold per held-out subject, then the full-data
    model (held_out None). With checkpoint_dir set, each job has a runutil
    cache entry keyed by all its inputs (see loso_key_base): a fold's, in
    checkpoint_dir, holds its confusion counts; the full-data model's,
    `.meck.json` beside model_path, the hash of that .meck. A valid hit is
    reused. Only if some job is pending are the samples loaded from
    flow_dir, once. The jobs are independent (each has its own derived
    seed), so all pending ones run through one runutil.run_jobs call (a
    process pool when workers > 1). Each entry is written, and the model
    saved, as its result arrives; results merge in plan order either way.
    """
    records = manifest.eligible()
    if not records:
        raise DataError("manifest has no eligible records")
    if checkpoint_dir is not None:
        key_base = loso_key_base(records, variant, model_config, train_config, flow_dir, seed)

    folds = plan_loso(records)
    plans = list(folds)
    if model_path is not None:
        model_path = Path(model_path)
        plans.append(FoldPlan(None, tuple(range(len(records))), ()))
    results_by_subject: dict[str, list] = {}  # held-out subject -> confusion counts
    pending = []
    for plan in plans:
        subject, key, entry_path = plan.held_out_subject, None, None
        if checkpoint_dir is not None:
            key = _model_key(key_base, subject)
            if subject is None:
                entry_path = model_path.with_suffix(".meck.json")
                valid = lambda digest: model_path.is_file() and digest == hash_file(model_path)
            else:
                entry_path, valid = Path(checkpoint_dir) / f"fold_{variant.value}_{subject}.json", _is_counts
            value = read_cache_entry(entry_path, key, valid)
            if value is not None:
                if subject is not None:
                    results_by_subject[subject] = value
                continue
        pending.append((plan, key, entry_path))

    jobs = []
    if pending:
        samples = load_train_samples(records, flow_dir, need_rgb=variant.needs_rgb)
        jobs = [
            (
                [samples[i] for i in plan.train],
                [samples[i] for i in plan.test],
                plan.held_out_subject,
                variant,
                model_config,
                train_config,
                derive_seed(seed, "full", variant.value)
                if plan.held_out_subject is None
                else derive_seed(seed, "fold", variant.value, plan.held_out_subject),
            )
            for plan, _, _ in pending
        ]
    # the generator comes first, so it runs to its end and closes its pool
    for value, (plan, key, entry_path) in zip(run_jobs(_run_one_fold, jobs, workers), pending):
        if plan.held_out_subject is None:
            save_checkpoint(model_path, value, model_config, variant)
            value = hash_file(model_path)
        else:
            results_by_subject[plan.held_out_subject] = value
        if key is not None:
            write_cache_entry(entry_path, key, value)

    fold_results = [
        FoldResult(
            held_out_subject=fold.held_out_subject,
            confusion=ConfusionMatrix(EMOTION_CLASSES, results_by_subject[fold.held_out_subject]),
        )
        for fold in folds
    ]
    per_class_f1, average_mf1 = aggregate_folds(fold_results)
    row = VariantRow(
        variant=variant.value,
        ethnic_context=variant.has_ethnic_branch,
        representation=variant.ethnicity_representation,
        per_class_f1=per_class_f1,
        average_mf1=average_mf1,
        epochs=train_config.epochs,
    )
    return row, fold_results
