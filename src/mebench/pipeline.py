"""Bridges between the corpus, flowcore, and model layers.

Materializes OFI files for manifest records (with parameter-hash
caching), loads them back as model inputs, and fixes the canonical
class orders used in every confusion matrix and report:

    emotions:    Negative, Positive, Surprise
    ethnicities: Asian, NonAsian
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import Manifest, MappedEmotion, MappedEthnicity, SampleRecord
from .errors import DataError
from .flowcore import (
    FlowParams,
    assemble_flow_image,
    compute_strain,
    estimate_flow,
    load_frame,
    load_rgb_frame,
    read_flow_image,
    write_flow_image,
)
from .model import TrainSample
from .runutil import atomic_write_text, read_json_object, stable_hash

EMOTION_CLASSES = ("Negative", "Positive", "Surprise")
ETHNICITY_CLASSES = ("Asian", "NonAsian")

_EMOTION_INDEX = {
    MappedEmotion.NEGATIVE: 0,
    MappedEmotion.POSITIVE: 1,
    MappedEmotion.SURPRISE: 2,
}
_ETHNICITY_INDEX = {MappedEthnicity.ASIAN: 0, MappedEthnicity.NON_ASIAN: 1}

BINARY_CLASSES = ("Negative", "NonNegative")


def emotion_index(record: SampleRecord) -> int:
    if record.mapped_emotion not in _EMOTION_INDEX:
        raise DataError(f"record {record.key} has no eligible emotion label")
    return _EMOTION_INDEX[record.mapped_emotion]


def ethnicity_index(record: SampleRecord) -> int:
    if record.mapped_ethnicity not in _ETHNICITY_INDEX:
        raise DataError(f"record {record.key} has no ethnicity label")
    return _ETHNICITY_INDEX[record.mapped_ethnicity]


def sample_key(record: SampleRecord) -> str:
    return f"{record.dataset.value}:{record.subject_id}:{record.clip_id}"


def flow_image_path(flow_dir, record: SampleRecord) -> Path:
    return Path(flow_dir) / f"{record.dataset.value}_{record.subject_id}_{record.clip_id}.ofi"


@dataclass
class FlowStats:
    computed: int
    cached: int
    clip_fractions: dict  # sample key -> (fx, fy, strain) boundary fractions


def _is_fraction_triple(value) -> bool:
    """Three floats in [0, 1] (NaN fails the range test), as a sidecar stores them."""
    return isinstance(value, list) and len(value) == 3 and all(
        isinstance(x, float) and 0.0 <= x <= 1.0 for x in value
    )


def _compute_one_flow(job: tuple) -> tuple:
    """Worker for one record: compute, write, and describe its OFI file."""
    key, onset_path, apex_path, out_path, sidecar_path, flow_params, params_hash = job
    onset = load_frame(onset_path)
    apex = load_frame(apex_path)
    flow = estimate_flow(onset, apex, flow_params)
    image = assemble_flow_image(flow, compute_strain(flow))
    write_flow_image(image, out_path)
    atomic_write_text(
        sidecar_path,
        json.dumps(
            {
                "flow_params_hash": params_hash,
                "clip_fraction": list(image.normalization.clip_fraction),
            },
            sort_keys=True,
        )
        + "\n",
    )
    return key, image.normalization.clip_fraction


def materialize_flow_images(
    manifest: Manifest,
    flow_params: FlowParams,
    flow_dir,
    force: bool = False,
    workers: int = 1,
) -> FlowStats:
    """Compute and cache the OFI file for every record in the manifest.

    A sidecar JSON per OFI records the flow-parameter hash and the clip
    fractions; files whose hash matches and whose fractions are valid are
    skipped unless force is set. Samples are independent, so workers > 1
    fans them out over processes; results are identical regardless of
    worker count.
    """
    flow_dir = Path(flow_dir)
    flow_dir.mkdir(parents=True, exist_ok=True)
    params_hash = stable_hash(asdict(flow_params))
    cached = 0
    fractions = {}
    jobs = []
    for record in manifest.records:
        out_path = flow_image_path(flow_dir, record)
        sidecar = out_path.with_suffix(".ofi.json")
        if not force and out_path.exists():
            meta = read_json_object(sidecar) or {}
            fraction = meta.get("clip_fraction")
            if meta.get("flow_params_hash") == params_hash and _is_fraction_triple(fraction):
                cached += 1
                fractions[sample_key(record)] = tuple(fraction)
                continue
        jobs.append(
            (
                sample_key(record),
                record.onset_path,
                record.apex_path,
                str(out_path),
                str(sidecar),
                flow_params,
                params_hash,
            )
        )
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, fraction in pool.map(_compute_one_flow, jobs):
                fractions[key] = tuple(fraction)
    else:
        for job in jobs:
            key, fraction = _compute_one_flow(job)
            fractions[key] = tuple(fraction)
    return FlowStats(computed=len(jobs), cached=cached, clip_fractions=fractions)


def load_train_samples(
    records: list[SampleRecord], flow_dir, need_rgb: bool = False
) -> list[TrainSample]:
    """Materialized model inputs for eligible records, in the given order."""
    samples = []
    for record in records:
        path = flow_image_path(flow_dir, record)
        if not path.exists():
            raise DataError(f"flow image missing for {record.key}: {path} (run the flow step first)")
        image = read_flow_image(path)
        samples.append(
            TrainSample(
                flow=image.as_array(),
                emotion=emotion_index(record),
                ethnicity=ethnicity_index(record),
                rgb=load_rgb_frame(record.apex_path) if need_rgb else None,
                key=sample_key(record),
            )
        )
    return samples
