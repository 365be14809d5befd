"""Pluggable facial-attribute predictor interface.

A predictor takes an apex frame (plus the subject id for table-backed
stubs) and returns (gender, age, ethnicity); annotate_attributes turns
that answer into the sample record fields it sets. The heavyweight
model the annotations originally come from is out of scope; licensed
users can wire an external model through CommandPredictor, which
exchanges a PGM file and a JSON response with a subprocess.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import tempfile
from pathlib import Path
from typing import Protocol

from ..errors import DataError
from ..flowcore import GrayFrame, write_pgm
from .records import Gender, RawEthnicity, parse_age

UNANNOTATED = (Gender.UNKNOWN, 0, RawEthnicity.OTHERS)  # (gender, age, ethnicity) of a subject left unannotated
COMMAND_TIMEOUT_S = 60.0  # a CommandPredictor run that takes longer fails its subject


class AnnotationError(DataError):
    """Predictor failure, tagged with the offending sample."""


class AttributePredictor(Protocol):
    name: str

    def predict(self, frame: GrayFrame, subject_id: str) -> tuple[Gender, int, RawEthnicity]: ...


class TablePredictor:
    """Deterministic stub: a fixed subject -> attributes table."""

    def __init__(self, table: dict, default: tuple[Gender, int, RawEthnicity] | None = None):
        self.table = dict(table)
        self.default = default
        self.name = "table-stub"

    def predict(self, frame: GrayFrame, subject_id: str) -> tuple[Gender, int, RawEthnicity]:
        entry = self.table.get(subject_id, self.default)
        if entry is None:
            raise KeyError(f"no table entry for subject {subject_id!r}")
        if isinstance(entry, RawEthnicity):
            return (Gender.UNKNOWN, 0, entry)
        gender, age, ethnicity = entry
        return (Gender(gender), age, RawEthnicity(ethnicity))


class CommandPredictor:
    """File-exchange adapter: writes the frame as PGM, runs a command with
    the file path appended, and parses a JSON object
    {"gender": ..., "age": ..., "ethnicity": ...} from stdout."""

    def __init__(self, command: list[str]):
        self.command = list(command)
        self.name = f"command:{shlex.join(command)}"

    def predict(self, frame: GrayFrame, subject_id: str) -> tuple[Gender, int, RawEthnicity]:
        with tempfile.TemporaryDirectory() as tmp:
            frame_path = Path(tmp) / "frame.pgm"
            write_pgm(frame_path, frame.values)
            proc = subprocess.run(
                self.command + [str(frame_path)],
                capture_output=True,
                timeout=COMMAND_TIMEOUT_S,
                text=True,
            )
        if proc.returncode != 0:
            raise RuntimeError(f"predictor command failed (exit {proc.returncode}): {proc.stderr.strip()}")
        reply = json.loads(proc.stdout)
        return (Gender(reply["gender"]), reply["age"], RawEthnicity(reply["ethnicity"]))


def attribute_fields(gender: Gender, age: int, ethnicity: RawEthnicity) -> dict:
    """A predictor's answer as the SampleRecord fields it sets."""
    return {"raw_ethnicity": ethnicity, "gender": gender, "age": age}


def annotate_attributes(frame: GrayFrame, predictor: AttributePredictor, subject_id: str) -> dict:
    """Run the predictor on one apex frame and return the record fields
    raw_ethnicity, gender and age; failures carry the sample id."""
    try:
        gender, age, ethnicity = predictor.predict(frame, subject_id)
        age = parse_age(age)
    except Exception as exc:
        raise AnnotationError(f"attribute prediction failed for subject {subject_id!r}: {exc}") from exc
    return attribute_fields(gender, age, ethnicity)
