"""The four-variant benchmark: full LOSO training and evaluation per variant.

Each variant row reports per-class F1 for Negative/Positive/Surprise
and their mean, plus whether ethnic context is present and which input
representation feeds it. Fold results are checkpointed as JSON files so
interrupted many-fold runs resume instead of restarting.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..corpus import Manifest
from ..errors import DataError
from ..model import ModelConfig, TrainConfig, Variant, evaluate_predictions, train_fold
from ..pipeline import EMOTION_CLASSES, load_train_samples
from ..runutil import atomic_write_text, derive_seed, read_json_object, stable_hash
from .folds import plan_loso
from .metrics import ConfusionMatrix, FoldResult, aggregate_folds


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


@dataclass
class BenchmarkReport:
    rows: list = field(default_factory=list)  # VariantRow, in requested order
    metadata: dict = field(default_factory=dict)
    provenance_hash: str = ""

    def to_markdown(self) -> str:
        lines = [
            "| Variant | Motion Context | Ethnic Context | Ethnicity Representation "
            "| Negative | Positive | Surprise | Average MF1 |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for row in self.rows:
            lines.append(
                f"| {row.variant} | yes | {'yes' if row.ethnic_context else 'no'} "
                f"| {row.representation} | {row.per_class_f1['Negative']:.4f} "
                f"| {row.per_class_f1['Positive']:.4f} | {row.per_class_f1['Surprise']:.4f} "
                f"| {row.average_mf1:.4f} |"
            )
        return "\n".join(lines)

    def to_tsv(self) -> str:
        lines = ["variant\tethnic_context\trepresentation\tNegative\tPositive\tSurprise\taverage_mf1"]
        for row in self.rows:
            lines.append(
                f"{row.variant}\t{int(row.ethnic_context)}\t{row.representation}"
                f"\t{row.per_class_f1['Negative']:.6f}\t{row.per_class_f1['Positive']:.6f}"
                f"\t{row.per_class_f1['Surprise']:.6f}\t{row.average_mf1:.6f}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "metadata": self.metadata,
            "provenance_hash": self.provenance_hash,
        }


def _is_counts(value) -> bool:
    """A k x k list of non-negative ints over the k emotion classes, as a fold checkpoint stores it."""
    k = len(EMOTION_CLASSES)
    return isinstance(value, list) and len(value) == k and all(
        isinstance(row, list) and len(row) == k and all(type(c) is int and c >= 0 for c in row) for row in value
    )


def _run_one_fold(job: tuple) -> tuple:
    """Worker: train on one fold's split and score the held-out subject."""
    train_samples, test_samples, subject, variant, model_config, train_config, fold_seed = job
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # LOSO folds may lack a class
        params, _history = train_fold(train_samples, model_config, variant, train_config, fold_seed)
    predictions = evaluate_predictions(params, test_samples, model_config, variant)
    counts = np.zeros((len(EMOTION_CLASSES), len(EMOTION_CLASSES)), dtype=np.int64)
    for sample, pred in zip(test_samples, predictions):
        counts[sample.emotion, int(pred)] += 1
    return subject, counts.tolist()


def run_loso_variant(
    manifest: Manifest,
    variant: Variant,
    model_config: ModelConfig,
    train_config: TrainConfig,
    flow_dir,
    seed: int,
    checkpoint_dir=None,
    workers: int = 1,
) -> tuple[VariantRow, list[FoldResult]]:
    """Train/evaluate one variant across all LOSO folds.

    With checkpoint_dir set, completed folds are stored as JSON keyed by
    the fold provenance hash, and matching files with valid counts are
    reused on resume; each fold's file is written as soon as its result
    arrives. Only if some fold is still pending are the variant's samples
    loaded from flow_dir, once, and split into each fold's train and test
    lists.
    Folds are independent jobs (seeded per subject), so workers > 1 runs
    them in processes; results merge in plan order either way.
    """
    records = manifest.eligible()
    if not records:
        raise DataError("manifest has no eligible records")
    fold_hash_base = {
        "variant": variant.value,
        "model": asdict(model_config),
        "train": asdict(train_config),
        "seed": seed,
    }

    results_by_subject: dict[str, np.ndarray] = {}
    pending = []
    plans = plan_loso(records)
    for fold in plans:
        fold_seed = derive_seed(seed, "fold", variant.value, fold.held_out_subject)
        fold_hash = stable_hash({**fold_hash_base, "subject": fold.held_out_subject})
        ckpt_path = (
            Path(checkpoint_dir) / f"fold_{variant.value}_{fold.held_out_subject}.json"
            if checkpoint_dir is not None
            else None
        )
        stored = read_json_object(ckpt_path) if ckpt_path is not None else None
        if stored is not None and stored.get("fold_hash") == fold_hash and _is_counts(stored.get("counts")):
            results_by_subject[fold.held_out_subject] = np.array(stored["counts"])
            continue
        pending.append((fold, fold_seed, fold_hash, ckpt_path))

    jobs = []
    if pending:
        by_key = {s.key: s for s in load_train_samples(records, flow_dir, need_rgb=variant.needs_rgb)}
        jobs = [
            (
                [by_key[k] for k in fold.train_keys],
                [by_key[k] for k in fold.test_keys],
                fold.held_out_subject,
                variant,
                model_config,
                train_config,
                fold_seed,
            )
            for fold, fold_seed, _, _ in pending
        ]

    def record_results(outcomes):
        for (_, _, fold_hash, ckpt_path), (subject, counts_list) in zip(pending, outcomes):
            results_by_subject[subject] = np.array(counts_list)
            if ckpt_path is not None:
                atomic_write_text(
                    ckpt_path,
                    json.dumps({"fold_hash": fold_hash, "counts": counts_list}, sort_keys=True) + "\n",
                )

    # both maps are lazy, so each checkpoint is written as soon as its fold finishes
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            record_results(pool.map(_run_one_fold, jobs))
    else:
        record_results(map(_run_one_fold, jobs))

    fold_results = [
        FoldResult(
            held_out_subject=fold.held_out_subject,
            confusion=ConfusionMatrix(EMOTION_CLASSES, results_by_subject[fold.held_out_subject]),
        )
        for fold in plans
    ]
    report = aggregate_folds(fold_results)
    row = VariantRow(
        variant=variant.value,
        ethnic_context=variant.has_ethnic_branch,
        representation=variant.ethnicity_representation,
        per_class_f1=report.per_class_f1,
        average_mf1=report.macro,
        epochs=train_config.epochs,
    )
    return row, fold_results


def run_benchmark(
    manifest: Manifest,
    variants: list[Variant],
    model_config: ModelConfig,
    train_config: TrainConfig,
    flow_dir,
    seed: int,
    checkpoint_dir=None,
    workers: int = 1,
) -> BenchmarkReport:
    """All requested variants, rows in the requested order."""
    metadata = {
        "variants": [v.value for v in variants],
        "model": asdict(model_config),
        "train": asdict(train_config),
        "seed": seed,
    }
    report = BenchmarkReport(
        metadata=metadata, provenance_hash=stable_hash({**metadata, "manifest": manifest.provenance})
    )
    for variant in variants:
        row, _ = run_loso_variant(
            manifest, variant, model_config, train_config, flow_dir, seed, checkpoint_dir, workers
        )
        report.rows.append(row)
    return report
