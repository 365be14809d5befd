"""The benchmark's three workloads, built only from mebench's public functions.

Each workload has a set-up (corpus synthesis and, where the timed part
needs them, the set-up flows), a timed pass that calls the program in
the order its CLI does, and a check of the pass's outputs. A workload
names the speed probe that matches its hot loop (see speed.py). Functions are
looked up on their modules at call time (``pipeline.materialize_flow_images``,
not a name bound at import), so the tracer's wrappers see every call.

Import this module only after the BLAS thread count has been pinned.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from mebench import corpus, flowcore, model, pipeline, protocol
from mebench.corpus import SynthSpec
from mebench.flowcore import FlowParams
from mebench.model import EncoderConfig, ModelConfig, ModelInputs, TrainConfig, Variant
from mebench.protocol import ForestConfig
from mebench.runutil import derive_seed

EPE_BOUND_PX = 0.3     # flow-128: mean endpoint error allowed over significant pixels
ENVELOPE_FLOOR = 0.5   # pixels where the bump reaches half its peak count as significant
LOSO_VARIANTS = (Variant.DUAL_MOTION, Variant.MOTION_RGB_PATCH)
# c08 asserts 0.95 on its one corpus. Across 52 corpus seeds dual_motion scored
# 0.913 to 1.0 (up to 2 of 24 clips wrong), so 0.95 would fail some seeds; 0.9
# sits just below the lowest of them.
MIN_DUAL_MF1 = 0.9
FROZEN_ENCODER = EncoderConfig(feature_dim=32)
# One encoder for every workload seed: the encoder is part of the system under
# test, not its input, and a random encoder's features set how deep the forests
# grow (forest work spread ±9% over encoder seeds, ±2% over corpus seeds).
FROZEN_ENCODER_SEED = 0


@dataclass
class Outcome:
    """What the check of one pass found."""

    planned: int                                # operations the pass planned
    failed: int = 0                             # operations that failed, never ran, or failed a check
    checks: dict = field(default_factory=dict)  # check name -> passed
    digest: str = ""                            # hash of the outputs, for bit-identity across commits
    quality: dict = field(default_factory=dict)  # flow_epe_px / macro_f1, with their units


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _record_check(outcome: Outcome, name: str, passed: bool, ops: int) -> None:
    outcome.checks[name] = bool(passed)
    if not passed:
        outcome.failed = min(outcome.planned, outcome.failed + ops)


# ------------------------------------------------------------------ flow-128


def truth_displacement(truth: dict, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dy, envelope) of one clip's Gaussian bump, rebuilt from its truth record."""
    ys, xs = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float), indexing="ij")
    sigma = truth["sigma"]
    envelope = np.exp(-((xs - truth["center_x"]) ** 2 + (ys - truth["center_y"]) ** 2) / (2.0 * sigma * sigma))
    theta = math.radians(truth["angle_deg"])
    amplitude = truth["amplitude"]
    return amplitude * math.cos(theta) * envelope, amplitude * math.sin(theta) * envelope, envelope


def _decode(plane: np.ndarray, clip: tuple[float, float]) -> np.ndarray:
    lo, hi = clip
    return lo + plane.astype(np.float64) * (hi - lo)


@dataclass
class FlowWorkload:
    """flow-128: cold flows at 128 px with default FlowParams, then a warm cache pass."""

    probe: ClassVar[str] = "jacobi"

    spec: SynthSpec = SynthSpec(subjects_per_group=4, clips_per_subject=3, image_size=128, shift_strength=0.0)
    flow_params: FlowParams = FlowParams()

    def setup(self, work: Path, seed: int) -> dict:
        manifest, _ = corpus.synthesize_desk_corpus(self.spec, seed, work / "corpus")
        return {"manifest": manifest, "corpus_dir": work / "corpus", "flow_dir": work / "flows"}

    def run(self, state: dict) -> dict:
        cold = pipeline.materialize_flow_images(state["manifest"], self.flow_params, state["flow_dir"], force=True)
        warm = pipeline.materialize_flow_images(state["manifest"], self.flow_params, state["flow_dir"])
        return {"cold": cold, "warm": warm}

    def planned(self, state: dict) -> int:
        return 2 * len(state["manifest"].records)  # every pair once cold, once from the cache

    def check(self, state: dict, out: dict) -> Outcome:
        records = state["manifest"].records
        n = len(records)
        outcome = Outcome(planned=self.planned(state))
        _record_check(outcome, "cold_computed_all", out["cold"].computed == n and out["cold"].cached == 0, n)
        _record_check(outcome, "warm_cached_all", out["warm"].cached == n and out["warm"].computed == 0, n)

        truths = {}
        for line in (state["corpus_dir"] / "truth.jsonl").read_text().splitlines():
            t = json.loads(line)
            truths[(t["subject_id"], t["clip_id"])] = t
        hasher = hashlib.sha256()
        errors, finite = [], True
        for record in records:
            path = pipeline.flow_image_path(state["flow_dir"], record)
            hasher.update(path.read_bytes())
            image = flowcore.read_flow_image(path)
            finite &= all(bool(np.isfinite(p).all()) for p in image.planes())
            dx, dy, envelope = truth_displacement(truths[(record.subject_id, record.clip_id)], self.spec.image_size)
            u = _decode(image.channel_fx, image.normalization.fx_clip)
            v = _decode(image.channel_fy, image.normalization.fy_clip)
            mask = envelope >= ENVELOPE_FLOOR
            errors.append(np.hypot(u - dx, v - dy)[mask])
        epe = float(np.concatenate(errors).mean())
        _record_check(outcome, "planes_finite", finite, n)
        _record_check(outcome, "flow_epe_within_bound", epe <= EPE_BOUND_PX, n)
        outcome.digest = hasher.hexdigest()[:16]
        outcome.quality = {"flow_epe_px": {"value": epe, "unit": "px"}}
        return outcome


# ------------------------------------------------------------------ loso-desk


def _setup_with_flows(spec: SynthSpec, flow_params: FlowParams, work: Path, seed: int) -> dict:
    manifest, _ = corpus.synthesize_desk_corpus(spec, seed, work / "corpus")
    pipeline.materialize_flow_images(manifest, flow_params, work / "flows")
    return {"manifest": manifest, "flow_dir": work / "flows", "seed": seed}


@dataclass
class LosoWorkload:
    """loso-desk: LOSO for two variants, one full-data model, Grad-CAM on every clip."""

    probe: ClassVar[str] = "conv"

    spec: SynthSpec = SynthSpec(subjects_per_group=4, clips_per_subject=3, image_size=64, shift_strength=0.0)
    flow_params: FlowParams = FlowParams()
    train: TrainConfig = TrainConfig(epochs=15, batch_size=2)

    @property
    def model_config(self) -> ModelConfig:
        return ModelConfig.small(self.spec.image_size)

    def setup(self, work: Path, seed: int) -> dict:
        return _setup_with_flows(self.spec, self.flow_params, work, seed)

    def run(self, state: dict) -> dict:
        manifest, flow_dir, seed = state["manifest"], state["flow_dir"], state["seed"]
        config = self.model_config
        rows = {}
        for variant in LOSO_VARIANTS:
            rows[variant.value] = protocol.run_loso_variant(manifest, variant, config, self.train, flow_dir, seed)

        full = Variant.DUAL_MOTION
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            samples = pipeline.load_train_samples(manifest.eligible(), flow_dir, need_rgb=full.needs_rgb)
            params, _ = model.train_fold(samples, config, full, self.train, derive_seed(seed, "full", full.value))

        maps = []
        for record in manifest.eligible():
            image = flowcore.read_flow_image(pipeline.flow_image_path(flow_dir, record))
            target = pipeline.emotion_index(record)
            maps.append(model.gradcam(params, config, full, ModelInputs(flow=image.as_array()[None]), target,
                                      branch="fusion"))
        return {"rows": rows, "maps": maps}

    def planned(self, state: dict) -> int:
        eligible = state["manifest"].eligible()
        return len(LOSO_VARIANTS) * len({r.subject_id for r in eligible}) + len(eligible)  # folds + maps

    def check(self, state: dict, out: dict) -> Outcome:
        n_clips = len(state["manifest"].eligible())
        n_subjects = len({r.subject_id for r in state["manifest"].eligible()})
        outcome = Outcome(planned=self.planned(state))
        folds = {
            variant: [(f.held_out_subject, f.confusion.counts.tolist()) for f in fold_results]
            for variant, (_, fold_results) in out["rows"].items()
        }
        for variant, fold_list in folds.items():
            _record_check(outcome, f"{variant}_all_folds", len(fold_list) == n_subjects, n_subjects)
        dual_mf1 = out["rows"][Variant.DUAL_MOTION.value][0].average_mf1
        _record_check(outcome, "dual_motion_mf1_min", dual_mf1 >= MIN_DUAL_MF1, n_subjects)
        maps = out["maps"]
        valid = len(maps) == n_clips and all(
            np.isfinite(m.overlay).all() and m.overlay.min() >= 0.0 and m.overlay.max() <= 1.0 for m in maps
        )
        _record_check(outcome, "gradcam_maps_normalized", valid, n_clips)
        outcome.digest = _digest({"folds": folds, "gradcam_argmax": [list(m.argmax_xy) for m in maps]})
        mf1 = [row.average_mf1 for row, _ in out["rows"].values()]
        outcome.quality = {
            "macro_f1": {"value": float(np.mean(mf1)), "unit": "F1"},
            "dual_motion_mf1": {"value": dual_mf1, "unit": "F1"},
        }
        return outcome


# ------------------------------------------------------------------ primafacie-16


@dataclass
class PrimaFacieWorkload:
    """primafacie-16: frozen features for every clip, then the three-scenario forest study."""

    probe: ClassVar[str] = "cart"

    spec: SynthSpec = SynthSpec(subjects_per_group=16, clips_per_subject=3, image_size=64, shift_strength=1.0)
    flow_params: FlowParams = FlowParams()
    # 20 trees (c09 uses 60) keeps a pass near 5 s, so a run's median spans several passes.
    forest: ForestConfig = ForestConfig(n_trees=20, max_depth=8)
    budget: int = 16

    def setup(self, work: Path, seed: int) -> dict:
        return _setup_with_flows(self.spec, self.flow_params, work, seed)

    def run(self, state: dict) -> dict:
        manifest, flow_dir, seed = state["manifest"], state["flow_dir"], state["seed"]
        encoder = model.FrozenEncoder.random_fallback(FROZEN_ENCODER, seed=FROZEN_ENCODER_SEED)
        features = {}
        for record in manifest.eligible():
            image = flowcore.read_flow_image(pipeline.flow_image_path(flow_dir, record))
            features[pipeline.sample_key(record)] = model.extract_frozen_features(image.as_array(), encoder)
        report = protocol.run_prima_facie(
            manifest,
            features,
            seeds=[derive_seed(seed, "prima-facie", 0)],
            forest_config=self.forest,
            subject_budget=self.budget,
            encoder_origin=encoder.origin,
        )
        return {"report": report}

    def planned(self, state: dict) -> int:
        return len(protocol.ScenarioKind) * self.budget  # one forest fit per scenario and held-out subject

    def check(self, state: dict, out: dict) -> Outcome:
        report = out["report"]
        kinds = [k.value for k in protocol.ScenarioKind]
        outcome = Outcome(planned=self.planned(state))
        table = [r.to_dict() for r in report.per_seed]
        complete = sorted(r["kind"] for r in table) == sorted(kinds)
        finite = all(math.isfinite(r[c]) for r in table for c in ("Negative", "NonNegative", "Average"))
        _record_check(outcome, "table_complete", complete, outcome.planned)
        _record_check(outcome, "table_finite", finite, outcome.planned)
        outcome.digest = _digest(table)
        averages = [row["Average"] for row in report.mean_rows()]
        outcome.quality = {"macro_f1": {"value": float(np.mean(averages)) if averages else float("nan"), "unit": "F1"}}
        return outcome


WORKLOADS = {"flow-128": FlowWorkload(), "loso-desk": LosoWorkload(), "primafacie-16": PrimaFacieWorkload()}
