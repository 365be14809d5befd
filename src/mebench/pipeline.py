"""Bridges between the corpus, flowcore, and model layers.

Materializes OFI files for manifest records (cached through runutil's
cache entries, keyed by the flow parameters and both frames' bytes) and
loads them back as model inputs at file precision (float32 flow planes,
integer apex RGB samples with their maxval; the model widens both to
float64 per batch, bit for bit), with class indices in the canonical
orders of model.config:

    emotions:    Negative, Positive, Surprise
    ethnicities: Asian, NonAsian
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .corpus import Manifest, SampleRecord
from .errors import DataError
from .flowcore import (
    FlowField,
    FlowParams,
    GrayFrame,
    assemble_flow_image,
    check_frame_shapes,
    compute_strain,
    estimate_flow,
    frame_shape,
    load_frame,
    load_rgb_frame,
    read_flow_image,
    stack_size,
    write_flow_image,
)
from .model import TrainSample
from .model.config import EMOTION_CLASSES, ETHNICITY_CLASSES
from .runutil import cache_key, hash_file, read_cache_entry, run_jobs, write_cache_entry

BINARY_CLASSES = ("Negative", "NonNegative")


def emotion_index(record: SampleRecord) -> int:
    try:
        return EMOTION_CLASSES.index(record.mapped_emotion.value)
    except (AttributeError, ValueError):  # unlabelled (None) or Excluded
        raise DataError(f"record {record.key} has no eligible emotion label") from None


def ethnicity_index(record: SampleRecord) -> int:
    try:
        return ETHNICITY_CLASSES.index(record.mapped_ethnicity.value)
    except (AttributeError, ValueError):  # unlabelled (None) or not a class
        raise DataError(f"record {record.key} has no ethnicity label") from None


def sample_key(record: SampleRecord) -> str:
    return f"{record.dataset.value}:{record.subject_id}:{record.clip_id}"


def flow_image_path(flow_dir, record: SampleRecord) -> Path:
    return Path(flow_dir) / f"{record.stem}.ofi"


def existing_flow_image_path(flow_dir, record: SampleRecord) -> Path:
    """flow_image_path, checked to exist: a DataError names a file the flow step has not written."""
    path = flow_image_path(flow_dir, record)
    if not path.exists():
        raise DataError(f"flow image missing for {record.key}: {path} (run the flow step first)")
    return path


@dataclass
class FlowStats:
    computed: int
    cached: int
    clip_fractions: dict  # sample key -> (fx, fy, strain) boundary fractions


def _read_sidecar(out_path: Path, value) -> tuple | None:
    """A sidecar's clip fractions, three floats in [0, 1] (NaN fails the range test), if out_path has its sha256."""
    triple = value["clip_fraction"]
    valid = isinstance(triple, list) and len(triple) == 3 and all(isinstance(x, float) and 0 <= x <= 1 for x in triple)
    return tuple(triple) if valid and value["sha256"] == hash_file(out_path) else None


def _load_stack(paths) -> GrayFrame:
    """One GrayFrame stack of the frames at paths; the loaded frames are dropped once stacked."""
    return GrayFrame(np.stack([load_frame(path).values for path in paths]))


def _flow_runs(pending: list, flow_params: FlowParams) -> list:
    """Cut the pending records, in order, into runs of consecutive pairs that share their frame
    shape (read from the frame headers), each at most stack_size pairs long. A pair that
    estimate_flow would refuse is refused here, before any flow is solved, naming its clip."""
    runs, last = [], None
    for item in pending:
        record = item[0]
        shape = frame_shape(record.onset_path)
        try:
            check_frame_shapes(shape, frame_shape(record.apex_path))
        except DataError as exc:
            raise DataError(f"record {sample_key(record)} ({record.onset_path}, {record.apex_path}): {exc}") from None
        if shape != last or len(runs[-1]) == stack_size(*shape, flow_params):
            runs.append([])
            last = shape
        runs[-1].append(item)
    return runs


def _compute_flows(job: tuple) -> list:
    """Worker for one run: solve its pairs as one estimate_flow stack, then write each clip's OFI
    file and sidecar; return (sample key, fraction triple) pairs."""
    run, flow_params = job
    # passed unbound, so that estimate_flow frees the frame stacks once it has their pyramids
    flow = estimate_flow(
        _load_stack(item[0].onset_path for item in run), _load_stack(item[0].apex_path for item in run), flow_params
    )
    done = []
    for (record, out_path, sidecar, key), u, v in zip(run, flow.u, flow.v):
        clip = FlowField(u=u, v=v)
        image = assemble_flow_image(clip, compute_strain(clip))
        write_flow_image(image, out_path)
        fraction = image.normalization.clip_fraction
        write_cache_entry(sidecar, key, {"clip_fraction": list(fraction), "sha256": hash_file(out_path)})
        done.append((sample_key(record), fraction))
    return done


def materialize_flow_images(
    manifest: Manifest,
    flow_params: FlowParams,
    flow_dir,
    force: bool = False,
    workers: int = 1,
) -> FlowStats:
    """Compute and cache the OFI file for every record in the manifest.

    Beside each OFI file, a runutil cache entry (`.ofi.json`) keyed by the
    flow parameters and the bytes of the record's onset and apex frames
    holds the clip fractions and the OFI file's sha256. Unless force is set,
    a record whose entry is a hit and whose OFI file has that hash is
    skipped. The rest are cut into runs
    of consecutive same-shape pairs, each at most hornschunck.stack_size
    long (7 clips at 64 px, 2 at 128 px), and each run is one
    runutil.run_jobs job: one estimate_flow stack, then each clip's OFI
    file and entry. A clip's flow does not depend on its run, so results
    are identical regardless of worker count.
    """
    flow_dir = Path(flow_dir)
    fractions = {}
    pending = []
    for record in manifest.records:
        out_path = flow_image_path(flow_dir, record)
        sidecar = out_path.with_suffix(".ofi.json")
        key = cache_key(asdict(flow_params), (record.onset_path, record.apex_path))
        if not force and out_path.exists():
            fraction = read_cache_entry(sidecar, key, lambda value: _read_sidecar(out_path, value))
            if fraction is not None:
                fractions[sample_key(record)] = fraction
                continue
        pending.append((record, out_path, sidecar, key))
    jobs = [(run, flow_params) for run in _flow_runs(pending, flow_params)]
    for done in run_jobs(_compute_flows, jobs, workers):
        fractions.update(done)  # (sample key, fraction triple) pairs
    return FlowStats(computed=len(pending), cached=len(manifest.records) - len(pending), clip_fractions=fractions)


def load_train_samples(
    records: list[SampleRecord], flow_dir, need_rgb: bool = False
) -> list[TrainSample]:
    """Model inputs for eligible records, in the given order, at file precision: each clip's OFI
    float32 planes and, with need_rgb, its apex frame's integer samples and maxval (see TrainSample)."""
    samples = []
    for record in records:
        image = read_flow_image(existing_flow_image_path(flow_dir, record))
        rgb, maxval = load_rgb_frame(record.apex_path) if need_rgb else (None, 1)
        samples.append(
            TrainSample(
                flow=image.data,
                emotion=emotion_index(record),
                ethnicity=ethnicity_index(record),
                rgb=rgb,
                key=sample_key(record),
                rgb_maxval=maxval,
            )
        )
    return samples
