"""Replayable heuristic correction ledger for predictor annotations.

Manual screening of automated attribute annotation is captured as data,
not code: a ledger file with one rule per line. Rules are applied in
file order (last writer wins) and every applied rule produces an audit
entry with before/after values, so the screening step stays auditable.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from ..errors import ConfigError
from .records import Dataset, Gender, RawEthnicity, SampleRecord, parse_age

_ATTRIBUTES = ("raw_ethnicity", "gender", "age")


class StaleRuleWarning(UserWarning):
    """A ledger rule matched zero records; it is probably outdated."""


@dataclass(frozen=True)
class CorrectionRule:
    """Set `attribute` to `replacement` on records matching the filters.

    dataset / subject_id / expect are optional filters; a None filter
    matches everything. `expect` compares against the attribute's current
    value (as its string form).
    """

    attribute: str
    replacement: str
    note: str = ""
    dataset: Optional[str] = None
    subject_id: Optional[str] = None
    expect: Optional[str] = None

    def __post_init__(self):
        if self.attribute not in _ATTRIBUTES:
            raise ConfigError(f"correctable attributes are {_ATTRIBUTES}, got {self.attribute!r}")
        _coerce(self.attribute, self.replacement)  # a ValueError here, not once frames are read
        if self.dataset is not None:
            Dataset(self.dataset)
        if not isinstance(self.subject_id, (str, type(None))):  # it would match no record
            raise TypeError(f"subject_id must be a string, got {self.subject_id!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "CorrectionRule":
        """Read a ledger rule; fields other than attribute and replacement are optional.
        replacement and expect are read in their string form, which is what a rule compares."""
        optional = {k: d[k] for k in ("note", "dataset", "subject_id", "expect") if k in d}
        if optional.get("expect") is not None:
            optional["expect"] = str(optional["expect"])
        return cls(attribute=d["attribute"], replacement=str(d["replacement"]), **optional)


@dataclass(frozen=True)
class AuditEntry:
    rule_index: int
    dataset: str
    subject_id: str
    clip_id: str
    attribute: str
    before: str
    after: str
    note: str


def _attr_str(record: SampleRecord, attribute: str) -> str:
    value = getattr(record, attribute)
    if value is None:
        return ""
    return value.value if hasattr(value, "value") else str(value)


def _coerce(attribute: str, replacement: str):
    if attribute == "raw_ethnicity":
        return RawEthnicity(replacement)
    if attribute == "gender":
        return Gender(replacement)
    return parse_age(replacement)


def _matches(rule: CorrectionRule, record: SampleRecord) -> bool:
    if rule.dataset is not None and Dataset(rule.dataset) != record.dataset:
        return False
    if rule.subject_id is not None and rule.subject_id != record.subject_id:
        return False
    if rule.expect is not None and rule.expect != _attr_str(record, rule.attribute):
        return False
    return True


def apply_heuristic_corrections(
    records: list[SampleRecord], ledger: list[CorrectionRule]
) -> tuple[list[SampleRecord], list[AuditEntry]]:
    """Apply rules in order; returns corrected records plus the audit log."""
    out = list(records)
    audit: list[AuditEntry] = []
    for rule_index, rule in enumerate(ledger):
        matched = 0
        for i, rec in enumerate(out):
            if not _matches(rule, rec):
                continue
            matched += 1
            before = _attr_str(rec, rule.attribute)
            new_value = _coerce(rule.attribute, rule.replacement)
            if getattr(rec, rule.attribute) == new_value:
                continue
            out[i] = replace(rec, **{rule.attribute: new_value, "corrected": True})
            audit.append(
                AuditEntry(
                    rule_index=rule_index,
                    dataset=rec.dataset.value,
                    subject_id=rec.subject_id,
                    clip_id=rec.clip_id,
                    attribute=rule.attribute,
                    before=before,
                    after=_attr_str(out[i], rule.attribute),
                    note=rule.note,
                )
            )
        if matched == 0:
            warnings.warn(
                f"correction rule #{rule_index} ({rule.attribute} -> {rule.replacement}) matched no records",
                StaleRuleWarning,
                stacklevel=2,
            )
    return out, audit


def load_ledger(path) -> list[CorrectionRule]:
    """One JSON rule per line; blank lines and # comments are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: ledger is not UTF-8 text") from exc
    rules = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rules.append(CorrectionRule.from_json_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise ConfigError(f"{path}:{line_no}: malformed correction rule: {exc}") from exc
    return rules
