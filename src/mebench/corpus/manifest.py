"""Joint manifest construction, persistence, and distribution summaries.

The manifest file is line-delimited UTF-8 JSON: the first line is a
tagged provenance object, each following line is one sample record.
A record line holds the raw labels only; the ethnic group and emotion
class are derived from them when the line is read, and the
mapped_emotion / mapped_ethnicity keys that older manifests carry are
ignored. Records with an Excluded emotion stay in the file (totals
remain reconcilable) but never appear in the eligible() view.
"""

from __future__ import annotations

import csv
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..errors import DataError
from ..runutil import atomic_write_text, from_json_dict, to_json_dict
from .records import Dataset, RawEthnicity, SampleRecord, UnknownLabelError, map_ethnicity

_INDEX_COLUMNS = ("subject", "clip", "onset", "apex", "emotion")


class MissingColumnError(DataError):
    pass


class DuplicateKeyError(DataError):
    pass


class DanglingPathError(DataError):
    pass


def ingest_dataset_index(index_path, dataset_kind: Dataset) -> list[SampleRecord]:
    """Read a delimited index table into raw records (ethnicity unannotated).

    Expected columns: subject, clip, onset, apex, emotion, none of them
    empty in any row. No column may be named twice and no row may hold
    more cells than the header. A UTF-8 byte order mark is skipped.
    Comma and tab delimiters are both accepted; frame paths are resolved
    relative to the index file's directory and must name files. Raw
    emotion strings are stored verbatim but case-folded; one outside the
    emotion map is an UnknownLabelError naming the file and line.
    """
    index_path = Path(index_path)
    if not index_path.exists():
        raise FileNotFoundError(f"index not found: {index_path}")
    try:
        lines = index_path.read_text(encoding="utf-8-sig").splitlines()  # -sig: as Excel saves "CSV UTF-8"
    except UnicodeDecodeError as exc:
        raise DataError(f"{index_path}: index is not UTF-8 text: {exc}") from exc
    if not any(line.strip() for line in lines):
        raise DataError(f"{index_path}: empty index")
    delimiter = "\t" if "\t" in lines[0] else ","
    reader = csv.DictReader(lines, delimiter=delimiter)
    try:
        header = [h.strip().casefold() for h in (reader.fieldnames or [])]
        header_line = reader.line_num
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # e.g. a cell over the csv field size limit
        raise DataError(f"{index_path}: malformed index: {exc}") from exc
    missing = [c for c in _INDEX_COLUMNS if c not in header]
    if missing:
        raise MissingColumnError(f"{index_path}: missing columns {missing}; found {header}")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise DataError(f"{index_path}: line {header_line}: repeated columns {repeated}")

    records: list[SampleRecord] = []
    seen: set[tuple[str, str]] = set()
    base = index_path.parent
    for line, row in rows:
        if None in row:  # DictReader's key for the cells past the header's
            raise DataError(f"{index_path}: line {line}: {len(row[None])} more cells than the header's {len(header)}")
        row = {k.strip().casefold(): (v or "").strip() for k, v in row.items() if k is not None}
        empty = [c for c in _INDEX_COLUMNS if not row[c]]
        if empty:
            raise DataError(f"{index_path}: line {line}: empty {', '.join(empty)} cell(s)")
        key = (row["subject"], row["clip"])
        if key in seen:
            raise DuplicateKeyError(f"{index_path}: duplicate (subject, clip) = {key}")
        seen.add(key)
        onset = base / row["onset"]
        apex = base / row["apex"]
        for p in (onset, apex):
            try:
                is_file = p.is_file()
            except OSError:  # e.g. a name over the file system's length limit
                is_file = False
            if not is_file:
                raise DanglingPathError(f"{index_path}: line {line}: frame path is not a file: {p}")
        try:
            records.append(
                SampleRecord(
                    dataset=dataset_kind,
                    subject_id=row["subject"],
                    clip_id=row["clip"],
                    onset_path=str(onset),
                    apex_path=str(apex),
                    raw_emotion=row["emotion"].casefold(),
                )
            )
        except UnknownLabelError as exc:
            raise UnknownLabelError(f"{index_path}: line {line}: {exc}") from None
    return records


@dataclass(frozen=True)
class Manifest:
    """Validated record collection plus the provenance needed to replay it."""

    records: tuple[SampleRecord, ...]
    provenance: dict = field(default_factory=dict)

    def eligible(self) -> list[SampleRecord]:
        """Records that enter training/evaluation splits."""
        return [r for r in self.records if r.eligible]


def build_manifest(records: Iterable[SampleRecord], provenance: dict) -> Manifest:
    """Check that each id is one path-safe file name (no '/' or '\\', not
    empty, '.' or '..'), that no two records share a key or a flow file
    stem, and that each subject has one dataset and one ethnicity."""
    records = list(records)
    stems: dict[str, SampleRecord] = {}
    subject_datasets: dict[str, str] = {}
    subject_ethnicities: dict[str, RawEthnicity | None] = {}
    for rec in records:
        if any(name in ("", ".", "..") or "/" in name or "\\" in name for name in rec.key):
            raise DataError(f"record {rec.key}: a subject or clip id must be one path-safe file name")
        other = stems.setdefault(rec.stem, rec)
        if other is not rec:
            raise DuplicateKeyError(f"records {other.key} and {rec.key} share the flow file stem {rec.stem!r}")
        prev = subject_datasets.setdefault(rec.subject_id, rec.dataset.value)
        if prev != rec.dataset.value:
            raise DataError(
                f"subject_id {rec.subject_id!r} appears in both {prev} and {rec.dataset.value}; "
                "disambiguate subject ids in the dataset indices"
            )
        if subject_ethnicities.setdefault(rec.subject_id, rec.raw_ethnicity) != rec.raw_ethnicity:
            raise DataError(f"subject {rec.subject_id!r} has inconsistent ethnicity annotations")
    return Manifest(records=tuple(records), provenance=dict(provenance))


def save_manifest(manifest: Manifest, path) -> None:
    """Frame paths, absolute or relative to the working directory, are stored
    relative to the manifest file, which is what load_manifest resolves them
    against; generated corpora are byte-identical regardless of the output
    directory."""
    path = Path(path)
    base = path.resolve().parent
    lines = [json.dumps({"type": "provenance", **manifest.provenance}, sort_keys=True)]
    for rec in manifest.records:
        d = to_json_dict(rec)
        for field_name in ("onset_path", "apex_path"):
            d[field_name] = os.path.relpath(Path(d[field_name]).resolve(), base)
        lines.append(json.dumps(d, sort_keys=True))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifest(path) -> Manifest:
    path = Path(path)
    base = path.resolve().parent
    line_no = None  # the line being parsed, counted from 1 with blank lines; None until the text is read
    try:
        lines = [(n, ln) for n, ln in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if ln.strip()]
        if not lines:
            raise ValueError("empty manifest")
        (line_no, first), *rest = lines
        head = json.loads(first)
        if not isinstance(head, dict) or head.get("type") != "provenance":
            raise ValueError("the first line must be the provenance object")
        head.pop("type")
        records = []
        for line_no, ln in rest:
            d = json.loads(ln)
            for field_name in ("onset_path", "apex_path"):
                p = Path(d[field_name])
                if not p.is_absolute():
                    d[field_name] = str(base / p)
            records.append(from_json_dict(SampleRecord, d))
    except (KeyError, TypeError, ValueError, DataError) as exc:  # ValueError: bad UTF-8, JSON, enum values
        where = "" if line_no is None else f"line {line_no}: "
        raise DataError(f"{path}: malformed manifest: {where}{type(exc).__name__}: {exc}") from exc
    return build_manifest(records, head)


@dataclass(frozen=True)
class DistributionReport:
    """Counts mirroring the published subject/video/emotion breakdowns."""

    subjects_by_raw_ethnicity: dict
    subjects_by_mapped_ethnicity: dict
    videos_by_raw_ethnicity: dict
    videos_by_mapped_ethnicity: dict
    videos_by_raw_emotion: dict
    videos_by_mapped_emotion: dict
    total_subjects: int
    total_videos: int
    eligible_videos: int

    @property
    def excluded_videos(self) -> int:
        return self.total_videos - self.eligible_videos

    def to_lines(self) -> list[str]:
        out = ["# Subjects per ethnicity"]
        for raw, n in sorted(self.subjects_by_raw_ethnicity.items()):
            out.append(f"  {raw:<10} -> {map_ethnicity(raw).value:<9} {n}")
        out.append(f"  total subjects: {self.total_subjects} "
                   f"(Asian {self.subjects_by_mapped_ethnicity.get('Asian', 0)}, "
                   f"NonAsian {self.subjects_by_mapped_ethnicity.get('NonAsian', 0)})")
        out.append("# Videos per ethnicity")
        for raw, n in sorted(self.videos_by_raw_ethnicity.items()):
            out.append(f"  {raw:<10} -> {map_ethnicity(raw).value:<9} {n}")
        out.append(f"  total videos: {self.total_videos} "
                   f"(Asian {self.videos_by_mapped_ethnicity.get('Asian', 0)}, "
                   f"NonAsian {self.videos_by_mapped_ethnicity.get('NonAsian', 0)})")
        out.append("# Videos per emotion")
        for raw, n in sorted(self.videos_by_raw_emotion.items()):
            out.append(f"  {raw:<10} {n}")
        for mapped, n in sorted(self.videos_by_mapped_emotion.items()):
            out.append(f"  mapped {mapped:<9} {n}")
        out.append(f"  eligible videos: {self.eligible_videos} "
                   f"(total {self.total_videos}, excluded {self.excluded_videos})")
        return out


def summarize_distribution(source: Manifest | Iterable[SampleRecord]) -> DistributionReport:
    """Per-label counts by subject and by video, raw and mapped."""
    records = (source if isinstance(source, Manifest) else build_manifest(source, {})).records
    if not records:
        raise DataError("no records to summarize")
    for rec in records:
        if rec.raw_ethnicity is None:
            raise DataError(f"record {rec.key} not annotated")
    subjects = {rec.subject_id: rec for rec in records}.values()  # build_manifest: one ethnicity per subject
    eligible = [rec for rec in records if rec.eligible]
    return DistributionReport(
        subjects_by_raw_ethnicity=dict(Counter(rec.raw_ethnicity.value for rec in subjects)),
        subjects_by_mapped_ethnicity=dict(Counter(rec.mapped_ethnicity.value for rec in subjects)),
        videos_by_raw_ethnicity=dict(Counter(rec.raw_ethnicity.value for rec in records)),
        videos_by_mapped_ethnicity=dict(Counter(rec.mapped_ethnicity.value for rec in records)),
        videos_by_raw_emotion=dict(Counter(rec.raw_emotion for rec in records)),
        videos_by_mapped_emotion=dict(Counter(rec.mapped_emotion.value for rec in eligible)),
        total_subjects=len(subjects),
        total_videos=len(records),
        eligible_videos=len(eligible),
    )
