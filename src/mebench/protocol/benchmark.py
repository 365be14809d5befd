"""The four-variant benchmark: full LOSO training and evaluation per variant.

Each variant row reports per-class F1 for Negative/Positive/Surprise
and their mean, plus whether ethnic context is present and which input
representation feeds it. A variant's jobs are its LOSO folds plus,
when asked for, the full-data model saved for activation-map analysis:
one job list, one sample load and one run_jobs call. Each job writes its
own runutil cache entry, keyed from loso_key_base: a fold's holds its
held-out clips' predicted class indices, the full-data model's the hash
of its .meck. So interrupted many-fold runs resume instead of restarting.
"""

from __future__ import annotations

import functools
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
from .metrics import FoldResult, aggregate_folds


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


def _run_one_fold(variant: Variant, model_config: ModelConfig, train_config: TrainConfig, seed: int, model_path, job):
    """Worker: train one LOSO job, store what it yields and return (held_out, value). A fold job's value
    lists its held-out clips' predicted class indices; the full-data job (held_out None) saves its model
    to model_path, and its value is the .meck's hash. With a key, the job writes its cache entry."""
    train, test, held_out, entry_path, key = job
    labels = ("full", variant.value) if held_out is None else ("fold", variant.value, held_out)
    params, _history = train_fold(train, model_config, variant, train_config, derive_seed(seed, *labels))
    if held_out is None:
        save_checkpoint(model_path, params, model_config, variant)
        value = hash_file(model_path)
    else:
        value = evaluate_predictions(params, test, model_config, variant).tolist()
    if key is not None:
        write_cache_entry(entry_path, key, value)
    return held_out, value


def _read_fold(n_clips: int, value) -> list | None:
    """A fold entry's n_clips predicted class indices (ints, not bools); its key pins the subject and labels."""
    valid = isinstance(value, list) and len(value) == n_clips
    return value if valid and all(type(i) is int and 0 <= i < len(EMOTION_CLASSES) for i in value) else None


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


def _check_one_size(samples: list) -> None:
    """Refuse samples whose flow or RGB shape differs from the first sample's: a batch stacks them."""
    for sample in samples:
        for name in ("flow", "rgb"):
            first, own = getattr(samples[0], name), getattr(sample, name)
            if own is not None and own.shape != first.shape:
                raise DataError(
                    f"clip {sample.key} has {name} shape {own.shape}, but clip {samples[0].key} has {first.shape}:"
                    " a LOSO run needs every clip at one size"
                )


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
    force: bool = False,
) -> tuple[VariantRow, list[FoldResult]]:
    """Train/evaluate one variant across all LOSO folds and, with model_path
    set, train its full-data model on every eligible record and save it there.

    Each model is one job: a fold per held-out subject, then the full-data
    model (held_out None). With checkpoint_dir set, each job has a runutil
    cache entry keyed by all its inputs (see loso_key_base): a fold's, in
    checkpoint_dir, holds its held-out clips' predictions; the full-data
    model's, `.meck.json` beside model_path, the hash of that .meck. Unless
    force is set, a valid hit is reused; checkpoint_dir None reads and
    writes no entry. Only if some job is pending are the samples loaded from
    flow_dir, once; unless every clip's flow and RGB have the first
    clip's shape, they are refused (DataError) before any job runs. The
    jobs are independent (each has its own derived seed), so all pending
    ones run through one runutil.run_jobs call (a process pool when
    workers > 1), each job writing its own model and entry; results are
    identical regardless of worker count.
    """
    records = manifest.eligible()
    folds = plan_loso(records)
    full = [] if model_path is None else [FoldPlan(None, tuple(range(len(records))), ())]
    if checkpoint_dir is not None:
        key_base = loso_key_base(records, variant, model_config, train_config, flow_dir, seed)
    done = {}  # held-out subject -> predicted class indices (None -> the full-data model's hash)
    pending = []
    for plan in folds + full:
        subject, key, entry_path = plan.held_out_subject, None, None
        if checkpoint_dir is not None:
            key = _model_key(key_base, subject)
            if subject is None:
                entry_path = Path(model_path).with_suffix(".meck.json")
                read = lambda digest: digest if Path(model_path).is_file() and digest == hash_file(model_path) else None
            else:
                entry_path = Path(checkpoint_dir) / f"fold_{variant.value}_{subject}.json"
                read = functools.partial(_read_fold, len(plan.test))
            value = None if force else read_cache_entry(entry_path, key, read)
            if value is not None:
                done[subject] = value
                continue
        pending.append((plan, entry_path, key))

    jobs = []
    if pending:
        samples = load_train_samples(records, flow_dir, need_rgb=variant.needs_rgb)
        _check_one_size(samples)
        jobs = [([samples[i] for i in plan.train], [samples[i] for i in plan.test], plan.held_out_subject, path, key)
                for plan, path, key in pending]
    run = functools.partial(_run_one_fold, variant, model_config, train_config, seed, model_path)
    done.update(run_jobs(run, jobs, workers))  # (held-out subject, value) pairs

    fold_results = [FoldResult(p.held_out_subject, EMOTION_CLASSES, tuple(emotion_index(records[i]) for i in p.test),
                               tuple(done[p.held_out_subject])) for p in folds]
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
