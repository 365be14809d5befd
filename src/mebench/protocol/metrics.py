"""Confusion matrices, per-class F1, macro-F1, and fold aggregation.

Per class: precision = TP/(TP+FP), recall = TP/(TP+FN), F1 their
harmonic mean, with 0/0 defined as 0. Macro-F1 is the unweighted mean
over the declared class list (classes with no support still count,
per the 0/0 convention).

Fold aggregation pools the confusion matrices and computes macro-F1
once on the pooled matrix: per-fold averaging is undefined whenever a
fold lacks a class, which LOSO routinely produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray = None  # [actual][predicted]

    def __post_init__(self):
        if not self.classes:
            raise DataError("empty class list")
        k = len(self.classes)
        if self.counts is None:
            self.counts = np.zeros((k, k), dtype=np.int64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.int64)
            if self.counts.shape != (k, k):
                raise DataError(f"counts shape {self.counts.shape} != ({k}, {k})")
            if (self.counts < 0).any():
                raise DataError("negative confusion counts")

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.classes != other.classes:
            raise DataError(f"class sets differ: {self.classes} vs {other.classes}")
        return ConfusionMatrix(self.classes, self.counts + other.counts)


def macro_f1(confusion: ConfusionMatrix) -> tuple[dict, float]:
    """(per-class F1, unweighted macro mean over the declared classes)."""
    counts = confusion.counts
    if counts.sum() == 0:
        raise DataError("empty confusion matrix")
    per_class = {}
    for i, name in enumerate(confusion.classes):
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i, :].sum() - tp
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        per_class[name] = float(f1)
    macro = float(np.mean([per_class[c] for c in confusion.classes]))
    return per_class, macro


@dataclass(frozen=True)
class FoldResult:
    held_out_subject: str
    confusion: ConfusionMatrix


def aggregate_folds(fold_results: list[FoldResult]) -> tuple[dict, float]:
    """Pool confusions across folds, then score once: macro_f1 of the pooled matrix."""
    if not fold_results:
        raise DataError("no fold results to aggregate")
    pooled = ConfusionMatrix(fold_results[0].confusion.classes)
    for result in fold_results:
        pooled = pooled + result.confusion
    return macro_f1(pooled)


def render_table(rows: list[dict], columns: tuple) -> tuple[str, str]:
    """(markdown, tsv) tables of rows. Each column is (row key, markdown
    title, tsv title); a tsv title of None leaves the column out of the
    TSV. Floats show 4 decimals in markdown and 6 in TSV, booleans
    yes/no and 0/1, anything else its str()."""

    def cell(value, markdown: bool) -> str:
        if isinstance(value, bool):
            return ("yes" if value else "no") if markdown else str(int(value))
        if isinstance(value, float):
            return f"{value:.4f}" if markdown else f"{value:.6f}"
        return str(value)

    markdown = ["| " + " | ".join(title for _, title, _ in columns) + " |", "|" + "---|" * len(columns)]
    markdown += ["| " + " | ".join(cell(row[key], True) for key, _, _ in columns) + " |" for row in rows]
    tsv_columns = [(key, title) for key, _, title in columns if title is not None]
    tsv = ["\t".join(title for _, title in tsv_columns)]
    tsv += ["\t".join(cell(row[key], False) for key, _ in tsv_columns) for row in rows]
    return "\n".join(markdown), "\n".join(tsv)
