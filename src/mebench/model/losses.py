"""The three-term categorical cross-entropy objective.

total = l_emo + l_ethnic + l_fusion, summed in that order. The fusion
term scores the fused logits against the EMOTION label (the merged
head predicts emotion with ethnic context attached). For the
motion-only variant the ethnic and fusion terms are zero by definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DataError


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
