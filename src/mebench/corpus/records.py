"""Sample records and the ethnicity/emotion label remaps.

Raw ethnicity comes in five categories and is consolidated into two
groups for distribution balancing: Asian and Indian (plus the manually
screened Others) map to Asian; Caucasian and African map to NonAsian.
Raw emotions are consolidated into Positive / Negative / Surprise, with
the ambiguous "others" class excluded from training and evaluation.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, replace
from typing import Optional

from ..errors import DataError


class UnknownLabelError(DataError):
    """Raw label outside the declared input set."""


class Dataset(enum.Enum):
    CASME2 = "CASME2"
    SAMM = "SAMM"
    SYNTH = "SYNTH"


class Gender(enum.Enum):
    MALE = "male"
    FEMALE = "female"
    UNKNOWN = "unknown"


class RawEthnicity(enum.Enum):
    CAUCASIAN = "Caucasian"
    AFRICAN = "African"
    ASIAN = "Asian"
    INDIAN = "Indian"
    OTHERS = "Others"


class MappedEthnicity(enum.Enum):
    ASIAN = "Asian"
    NON_ASIAN = "NonAsian"


class MappedEmotion(enum.Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    SURPRISE = "Surprise"
    EXCLUDED = "Excluded"


_ETHNICITY_MAP = {
    RawEthnicity.CAUCASIAN: MappedEthnicity.NON_ASIAN,
    RawEthnicity.AFRICAN: MappedEthnicity.NON_ASIAN,
    RawEthnicity.ASIAN: MappedEthnicity.ASIAN,
    RawEthnicity.INDIAN: MappedEthnicity.ASIAN,
    RawEthnicity.OTHERS: MappedEthnicity.ASIAN,
}

_EMOTION_MAP = {
    "happiness": MappedEmotion.POSITIVE,
    "anger": MappedEmotion.NEGATIVE,
    "contempt": MappedEmotion.NEGATIVE,
    "disgust": MappedEmotion.NEGATIVE,
    "fear": MappedEmotion.NEGATIVE,
    "repression": MappedEmotion.NEGATIVE,
    "sadness": MappedEmotion.NEGATIVE,
    "surprise": MappedEmotion.SURPRISE,
    "others": MappedEmotion.EXCLUDED,
}


def map_ethnicity(raw: RawEthnicity | str) -> MappedEthnicity:
    """Five raw categories -> {Asian, NonAsian}; pure and total."""
    if isinstance(raw, str):
        try:
            raw = RawEthnicity(raw)
        except ValueError as exc:
            raise UnknownLabelError(f"unknown ethnicity category: {raw!r}") from exc
    return _ETHNICITY_MAP[raw]


def map_emotion(raw: str) -> MappedEmotion:
    """Raw emotion string (case-insensitive) -> mapped emotion or Excluded."""
    key = raw.strip().casefold()
    try:
        return _EMOTION_MAP[key]
    except KeyError as exc:
        raise UnknownLabelError(f"unrecognized emotion string: {raw!r}") from exc


def parse_age(value) -> int:
    """An age in whole years from an int (not a bool) or a digit string; else, or if negative, a ValueError."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"age must be a whole number of years, got {value!r}")
    if value < 0:
        raise ValueError(f"age must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class RawAttributeRecord:
    """Predictor output for one subject's apex frame."""

    subject_id: str
    gender: Gender
    age: int
    raw_ethnicity: RawEthnicity


@dataclass(frozen=True)
class SampleRecord:
    """One micro-expression clip of the joint corpus."""

    dataset: Dataset
    subject_id: str
    clip_id: str
    onset_path: str
    apex_path: str
    raw_emotion: str
    mapped_emotion: Optional[MappedEmotion] = None
    raw_ethnicity: Optional[RawEthnicity] = None
    mapped_ethnicity: Optional[MappedEthnicity] = None
    gender: Gender = Gender.UNKNOWN
    age: Optional[int] = None
    corrected: bool = False

    def __post_init__(self):
        if self.age is not None and self.age < 0:
            raise DataError(f"record {self.key}: age must be >= 0, got {self.age}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.subject_id, self.clip_id)

    @property
    def stem(self) -> str:  # of the clip's flow image and Grad-CAM maps
        return f"{self.dataset.value}_{self.subject_id}_{self.clip_id}"

    @property
    def eligible(self) -> bool:
        return self.mapped_emotion is not None and self.mapped_emotion != MappedEmotion.EXCLUDED


def finalize_mappings(records: list[SampleRecord]) -> list[SampleRecord]:
    """Fill mapped_emotion / mapped_ethnicity from the raw labels."""
    out = []
    for rec in records:
        if rec.raw_ethnicity is None:
            raise DataError(f"record {rec.key}: raw_ethnicity not annotated yet")
        out.append(
            replace(
                rec,
                mapped_emotion=map_emotion(rec.raw_emotion),
                mapped_ethnicity=map_ethnicity(rec.raw_ethnicity),
            )
        )
    return out
