"""Leave-one-subject-out fold planning over the merged corpus.

The composite evaluation merges all datasets before planning, so one
fold exists per distinct subject across the whole joint manifest; fold
k holds out every eligible sample of subject k.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..corpus import SampleRecord
from ..errors import DataError
from ..pipeline import sample_key


@dataclass(frozen=True)
class FoldPlan:
    held_out_subject: str | None  # None: the full-data model, trained on every sample
    train_keys: tuple[str, ...]
    test_keys: tuple[str, ...]


def plan_loso(records: list[SampleRecord]) -> list[FoldPlan]:
    """One fold per subject, ordered by subject_id; folds partition the samples."""
    if not records:
        raise DataError("no eligible records to plan folds over")
    subjects = sorted({r.subject_id for r in records})
    if len(subjects) < 2:
        raise DataError(f"LOSO needs at least 2 subjects, found {len(subjects)}")
    plans = []
    for subject in subjects:
        test = tuple(sample_key(r) for r in records if r.subject_id == subject)
        train = tuple(sample_key(r) for r in records if r.subject_id != subject)
        plans.append(FoldPlan(held_out_subject=subject, train_keys=train, test_keys=test))
    return plans
