"""The four-variant benchmark: full LOSO training and evaluation per variant.

Each variant row reports per-class F1 for Negative/Positive/Surprise
and their mean, plus whether ethnic context is present and which input
representation feeds it. Fold results are checkpointed as runutil cache
entries so interrupted many-fold runs resume instead of restarting; the
full-data model saved for activation-map analysis has one entry too. Each
model's key derives from loso_key_base.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

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
from .folds import plan_loso
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


def _run_one_fold(job: tuple) -> tuple:
    """Worker: train on one fold's split and score the held-out subject."""
    train_samples, test_samples, subject, variant, model_config, train_config, fold_seed = job
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # LOSO folds may lack a class
        params, _history = train_fold(train_samples, model_config, variant, train_config, fold_seed)
    predictions = evaluate_predictions(params, test_samples, model_config, variant)
    counts = np.zeros((len(EMOTION_CLASSES), len(EMOTION_CLASSES)), dtype=np.int64)
    np.add.at(counts, ([s.emotion for s in test_samples], predictions), 1)
    return subject, counts.tolist()


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
) -> tuple[VariantRow, list[FoldResult]]:
    """Train/evaluate one variant across all LOSO folds.

    With checkpoint_dir set, each fold has a runutil cache entry there
    keyed by all its inputs (see loso_key_base) and holding its confusion
    counts; a hit with valid counts is reused on resume. Only if some fold
    is still pending are the variant's samples loaded from flow_dir, once,
    and split into each fold's train and test lists. Folds are independent
    jobs (seeded per subject), so they run through runutil.run_jobs (a
    process pool when workers > 1); each fold's entry is written as soon
    as its result arrives, and results merge in plan order either way.
    """
    records = manifest.eligible()
    if not records:
        raise DataError("manifest has no eligible records")
    if checkpoint_dir is not None:
        key_base = loso_key_base(records, variant, model_config, train_config, flow_dir, seed)

    results_by_subject: dict[str, np.ndarray] = {}
    pending = []
    plans = plan_loso(records)
    for fold in plans:
        key = ckpt_path = None
        if checkpoint_dir is not None:
            key = _model_key(key_base, fold.held_out_subject)
            ckpt_path = Path(checkpoint_dir) / f"fold_{variant.value}_{fold.held_out_subject}.json"
            counts = read_cache_entry(ckpt_path, key, _is_counts)
            if counts is not None:
                results_by_subject[fold.held_out_subject] = np.array(counts)
                continue
        pending.append((fold, key, ckpt_path))

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
                derive_seed(seed, "fold", variant.value, fold.held_out_subject),
            )
            for fold, _, _ in pending
        ]
    # the generator comes first, so it runs to its end and closes its pool
    for (subject, counts), (_, key, ckpt_path) in zip(run_jobs(_run_one_fold, jobs, workers), pending):
        results_by_subject[subject] = np.array(counts)
        if ckpt_path is not None:
            write_cache_entry(ckpt_path, key, counts)

    fold_results = [
        FoldResult(
            held_out_subject=fold.held_out_subject,
            confusion=ConfusionMatrix(EMOTION_CLASSES, results_by_subject[fold.held_out_subject]),
        )
        for fold in plans
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


def fit_full_model(
    manifest: Manifest, variant: Variant, model_config: ModelConfig, train_config: TrainConfig, flow_dir, seed: int,
    model_path: Path, resume: bool,
) -> None:
    """Train one variant on every eligible record and save it to model_path.

    Its runutil cache entry (`.meck.json` beside it) is keyed as the LOSO
    folds are, with no subject held out, and holds the hash of the .meck it
    describes. With resume, a hit whose .meck still has that hash loads no
    samples and trains nothing; without it, as for the folds, no entry is
    read or written.
    """
    records = manifest.eligible()
    entry_path, key = model_path.with_suffix(".meck.json"), None
    if resume:
        key = _model_key(loso_key_base(records, variant, model_config, train_config, flow_dir, seed), None)
    if key is not None and read_cache_entry(
        entry_path, key, lambda digest: model_path.is_file() and digest == hash_file(model_path)
    ) is not None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        samples = load_train_samples(records, flow_dir, need_rgb=variant.needs_rgb)
        params, _ = train_fold(samples, model_config, variant, train_config, derive_seed(seed, "full", variant.value))
    save_checkpoint(model_path, params, model_config, variant)
    if key is not None:
        write_cache_entry(entry_path, key, hash_file(model_path))
