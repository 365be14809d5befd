"""Synthetic desk-scale corpus with controllable ground truth.

Each clip is an (onset, apex) frame pair: the apex warps a per-subject
base texture by a localized Gaussian displacement bump. The emotion
class determines the bump's canonical face region and pull direction:

    happiness -> lower face, lateral pull (+x)
    disgust   -> mid face, inward pull (-x)
    surprise  -> brow, upward pull (-y)

The ethnicity proxy is the base texture's spatial-frequency band
(group A textures are smoother than group B). shift_strength in [0, 1]
controls how strongly group B's emotion-conditional displacement
profile is rotated toward the next emotion's profile: at 0 the groups
share identical displacement statistics, at 1 group B's profiles are a
full derangement of group A's, so mixed-group training sees conflicting
location/direction-to-label mappings while mono-group training stays
internally consistent.

Everything is deterministic per seed: frames and manifest are
byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from ..flowcore import write_pgm
from ..flowcore.hornschunck import gaussian_smooth, sample_bilinear
from ..runutil import atomic_write_text, derived_rng, to_json_dict
from .manifest import Manifest, build_manifest, save_manifest
from .records import Dataset, Gender, RawEthnicity, SampleRecord, finalize_mappings

_EMOTION_CYCLE = ("happiness", "disgust", "surprise")

# canonical profiles: (center_x, center_y) in unit coords, pull angle in degrees
# (screen convention: +y is down, so -90 points up)
_PROFILES = {
    "happiness": ((0.50, 0.76), 0.0),
    "disgust": ((0.50, 0.50), 180.0),
    "surprise": ((0.50, 0.24), -90.0),
}
_NEXT_EMOTION = {"happiness": "disgust", "disgust": "surprise", "surprise": "happiness"}

_GROUPS = (
    ("a", RawEthnicity.ASIAN, 5.0),       # smoother base texture
    ("n", RawEthnicity.CAUCASIAN, 1.5),   # finer base texture
)


@dataclass(frozen=True)
class SynthSpec:
    subjects_per_group: int = 4
    clips_per_subject: int = 3
    image_size: int = 64
    shift_strength: float = 0.0

    def __post_init__(self):
        if self.image_size < 32:
            raise ConfigError("image_size must be >= 32")
        if self.subjects_per_group < 1:
            raise ConfigError("subjects_per_group must be >= 1")
        if self.clips_per_subject < 1:
            raise ConfigError("clips_per_subject must be >= 1")
        if not (0.0 <= self.shift_strength <= 1.0):
            raise ConfigError("shift_strength must lie in [0, 1]")


@dataclass(frozen=True)
class ClipTruth:
    """Generator-side ground truth for one clip."""

    subject_id: str
    clip_id: str
    group: str
    raw_emotion: str
    center_x: float
    center_y: float
    angle_deg: float
    amplitude: float
    sigma: float


def _lerp_angle(a: float, b: float, t: float) -> float:
    delta = ((b - a + 180.0) % 360.0) - 180.0
    return a + t * delta


def _shifted_profile(emotion: str, shift: float) -> tuple[tuple[float, float], float]:
    (cx, cy), angle = _PROFILES[emotion]
    if shift == 0.0:
        return (cx, cy), angle
    (nx, ny), next_angle = _PROFILES[_NEXT_EMOTION[emotion]]
    return (
        (cx + shift * (nx - cx), cy + shift * (ny - cy)),
        _lerp_angle(angle, next_angle, shift),
    )


def make_base_texture(size: int, rng: np.random.Generator, smooth_sigma: float) -> np.ndarray:
    """Band-limited noise texture in [0.2, 0.8]; sigma sets the frequency band."""
    t = gaussian_smooth(rng.random((size, size)), smooth_sigma)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-12)
    return 0.2 + 0.6 * t


def render_clip(
    base: np.ndarray,
    center_xy: tuple[float, float],
    angle_deg: float,
    amplitude: float,
    sigma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Render an (onset, apex) pair for one Gaussian displacement bump.

    center_xy and sigma are in pixels; the apex samples the onset at
    x - d(x) so scene content moves by +d (bump pulls along angle_deg).
    """
    size_y, size_x = base.shape
    ys, xs = np.meshgrid(np.arange(size_y, dtype=float), np.arange(size_x, dtype=float), indexing="ij")
    cx, cy = center_xy
    envelope = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
    theta = math.radians(angle_deg)
    dx = amplitude * math.cos(theta) * envelope
    dy = amplitude * math.sin(theta) * envelope
    apex = sample_bilinear(base, ys - dy, xs - dx)
    return base, np.clip(apex, 0.0, 1.0)


def synthesize_desk_corpus(spec: SynthSpec, seed: int, out_dir) -> tuple[Manifest, list[ClipTruth]]:
    """Generate frames + manifest + truth sidecar under out_dir."""
    out_dir = Path(out_dir)
    frames_dir = out_dir / "frames"
    size = spec.image_size
    bump_sigma = 0.12 * size

    records: list[SampleRecord] = []
    truths: list[ClipTruth] = []
    for group_tag, raw_eth, tex_sigma in _GROUPS:
        group_shift = spec.shift_strength if group_tag == "n" else 0.0
        for si in range(spec.subjects_per_group):
            subject_id = f"s{group_tag}{si + 1:02d}"
            tex_rng = derived_rng(seed, "texture", group_tag, si)
            base = make_base_texture(size, tex_rng, tex_sigma)
            for ci in range(spec.clips_per_subject):
                clip_id = f"c{ci + 1:02d}"
                emotion = _EMOTION_CYCLE[ci % len(_EMOTION_CYCLE)]
                (ux, uy), angle = _shifted_profile(emotion, group_shift)
                jit = derived_rng(seed, "clip", group_tag, si, ci)
                cx = (ux + jit.uniform(-0.06, 0.06)) * size
                cy = (uy + jit.uniform(-0.06, 0.06)) * size
                angle_j = angle + jit.uniform(-10.0, 10.0)
                amplitude = jit.uniform(2.0, 2.8)  # stays inside the +/-3 px clip range
                onset, apex = render_clip(base, (cx, cy), angle_j, amplitude, bump_sigma)

                subject_dir = frames_dir / subject_id
                onset_path = subject_dir / f"{clip_id}_onset.pgm"
                apex_path = subject_dir / f"{clip_id}_apex.pgm"
                write_pgm(onset_path, onset)
                write_pgm(apex_path, apex)

                records.append(
                    SampleRecord(
                        dataset=Dataset.SYNTH,
                        subject_id=subject_id,
                        clip_id=clip_id,
                        onset_path=str(onset_path),
                        apex_path=str(apex_path),
                        raw_emotion=emotion,
                        raw_ethnicity=raw_eth,
                        gender=Gender.FEMALE if si % 2 == 0 else Gender.MALE,
                        age=22 + si,
                    )
                )
                truths.append(
                    ClipTruth(
                        subject_id=subject_id,
                        clip_id=clip_id,
                        group=raw_eth.value,
                        raw_emotion=emotion,
                        center_x=cx,
                        center_y=cy,
                        angle_deg=angle_j,
                        amplitude=amplitude,
                        sigma=bump_sigma,
                    )
                )

    records = finalize_mappings(records)
    manifest = build_manifest(
        records,
        provenance={"generator": "synthetic-desk-corpus", "spec": asdict(spec), "seed": int(seed)},
    )
    save_manifest(manifest, out_dir / "manifest.jsonl")
    truth_lines = [json.dumps(to_json_dict(t), sort_keys=True) for t in truths]
    atomic_write_text(out_dir / "truth.jsonl", "\n".join(truth_lines) + "\n")
    return manifest, truths
