"""The three-term categorical cross-entropy objective.

total = l_emo + l_ethnic + l_fusion, summed in that order. The fusion
term scores the fused logits against the EMOTION label (the merged
head predicts emotion with ethnic context attached). For the
motion-only variant the ethnic and fusion terms are zero by definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from . import autodiff as ad


def cce(logits: np.ndarray, target: int) -> float:
    """-log softmax(logits)[target], with max-subtraction stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ConfigError(f"cce expects a logit vector, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise DataError("non-finite logits")
    if not (0 <= target < logits.shape[0]):
        raise ConfigError(f"target {target} out of range for {logits.shape[0]} classes")
    return float(ad.cross_entropy_mean(logits[None], [target]).data)


@dataclass(frozen=True)
class LossBreakdown:
    l_emo: float
    l_ethnic: float
    l_fusion: float
    total: float

    def __post_init__(self):
        for name in ("l_emo", "l_ethnic", "l_fusion"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be nonnegative")

    @classmethod
    def of(cls, l_emo: float, l_ethnic: float = 0.0, l_fusion: float = 0.0) -> "LossBreakdown":
        # total evaluated in the declared order so the identity is exact
        return cls(l_emo=l_emo, l_ethnic=l_ethnic, l_fusion=l_fusion, total=l_emo + l_ethnic + l_fusion)
