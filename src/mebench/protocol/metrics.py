"""Confusion matrices, per-class F1, macro-F1, and fold aggregation.

Per class: precision = TP/(TP+FP), recall = TP/(TP+FN), F1 their
harmonic mean, with 0/0 defined as 0. Macro-F1 is the unweighted mean
over the declared class list (classes with no support still count,
per the 0/0 convention).

Fold aggregation pools every fold's held-out clips, counts them once
(ConfusionMatrix.of) and computes macro-F1 on that matrix: per-fold
averaging is undefined whenever a fold lacks a class, which LOSO
routinely produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError


@dataclass
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray  # [actual][predicted]

    @classmethod
    def of(cls, classes: tuple[str, ...], actual, predicted) -> "ConfusionMatrix":
        """Counts of each (actual, predicted) pair of class indices."""
        counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
        np.add.at(counts, (np.asarray(actual, dtype=np.intp), np.asarray(predicted, dtype=np.intp)), 1)
        return cls(classes, counts)


def macro_f1(confusion: ConfusionMatrix) -> tuple[dict, float]:
    """(per-class F1, unweighted macro mean over the declared classes)."""
    counts = confusion.counts
    if counts.sum() == 0:
        raise DataError("empty confusion matrix")
    tp = np.diagonal(counts)
    predicted, actual = counts.sum(axis=0), counts.sum(axis=1)  # TP + FP, TP + FN
    precision = np.divide(tp, predicted, out=np.zeros(tp.size), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros(tp.size), where=actual > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(tp.size), where=both > 0)
    return dict(zip(confusion.classes, f1.tolist())), float(np.mean(f1))


@dataclass(frozen=True)
class FoldResult:
    held_out_subject: str
    classes: tuple[str, ...]
    actual: tuple[int, ...]  # the class index of each held-out clip, in plan order
    predicted: tuple[int, ...]  # the one predicted for it

    @property
    def confusion(self) -> ConfusionMatrix:
        return ConfusionMatrix.of(self.classes, self.actual, self.predicted)


def aggregate_folds(fold_results: list[FoldResult]) -> tuple[dict, float]:
    """Pool every fold's clips, then score once: macro_f1 of their confusion matrix."""
    if not fold_results:
        raise DataError("no fold results to aggregate")
    classes = fold_results[0].classes
    for result in fold_results:
        if result.classes != classes:
            raise DataError(f"class sets differ: {classes} vs {result.classes}")
    actual = [i for result in fold_results for i in result.actual]
    predicted = [i for result in fold_results for i in result.predicted]
    return macro_f1(ConfusionMatrix.of(classes, actual, predicted))


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
