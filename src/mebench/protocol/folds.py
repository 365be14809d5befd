"""Leave-one-subject-out fold planning over the merged corpus.

The composite evaluation merges all datasets before planning, so one
fold exists per distinct subject across the whole joint manifest; fold
k holds out every eligible sample of subject k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..corpus import SampleRecord
from ..errors import DataError


@dataclass(frozen=True)
class FoldPlan:
    held_out_subject: str | None  # None: the full-data model, trained on every sample
    train: tuple[int, ...]  # indices into the planned records, in record order
    test: tuple[int, ...]


def plan_loso(records: list[SampleRecord]) -> list[FoldPlan]:
    """One fold per subject, ordered by subject_id; folds partition the records."""
    if not records:
        raise DataError("no eligible records to plan folds over")
    test_of: dict[str, list[int]] = {}
    for i, record in enumerate(records):
        test_of.setdefault(record.subject_id, []).append(i)
    if len(test_of) < 2:
        raise DataError(f"LOSO needs at least 2 subjects, found {len(test_of)}")
    everything = np.arange(len(records))
    return [
        FoldPlan(subject, tuple(np.delete(everything, test_of[subject]).tolist()), tuple(test_of[subject]))
        for subject in sorted(test_of)
    ]
