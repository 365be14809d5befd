"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary
prints one PASS/FAIL line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from conftest import FD_REL_TOL, FD_SEEDS, fd_check_variant, relu_kink_margin
from mebench.corpus import (
    Dataset,
    RawEthnicity,
    SampleRecord,
    SynthSpec,
    build_manifest,
    summarize_distribution,
    synthesize_desk_corpus,
)
from mebench.corpus.synth import make_base_texture, render_clip
from mebench.flowcore import (
    FlowField,
    FlowParams,
    GrayFrame,
    assemble_flow_image,
    compute_strain,
    estimate_flow,
    warp_bilinear,
)
from mebench.model import (
    ModelConfig,
    ModelInputs,
    TrainConfig,
    Variant,
    gradcam,
    train_fold,
)
from mebench.model import autodiff as ad
from mebench.model.losses import LossBreakdown
from mebench.pipeline import (
    BINARY_CLASSES,
    EMOTION_CLASSES,
    flow_image_path,
    load_train_samples,
    materialize_flow_images,
    sample_key,
)
from mebench.protocol import (
    ConfusionMatrix,
    ForestConfig,
    PrimaFacieScenario,
    ScenarioKind,
    binarize_emotions,
    macro_f1,
    plan_loso,
    run_loso_variant,
    run_prima_facie,
    sample_prima_facie,
)

@pytest.fixture(scope="session")
def separable_corpus(tmp_path_factory):
    """shift 0: emotion-conditional displacement statistics identical across groups."""
    out = tmp_path_factory.mktemp("accept_sep")
    spec = SynthSpec(subjects_per_group=4, clips_per_subject=3, image_size=64, shift_strength=0.0)
    manifest, truths = synthesize_desk_corpus(spec, seed=11, out_dir=out)
    flow_dir = out / "flows"
    materialize_flow_images(manifest, FlowParams(), flow_dir)
    return manifest, truths, flow_dir


@pytest.fixture(scope="session")
def shifted_corpus(tmp_path_factory):
    """shift 1.0 and enough subjects for the 16-subject scenario quotas."""
    out = tmp_path_factory.mktemp("accept_shift")
    spec = SynthSpec(subjects_per_group=16, clips_per_subject=3, image_size=64, shift_strength=1.0)
    manifest, truths = synthesize_desk_corpus(spec, seed=5, out_dir=out)
    flow_dir = out / "flows"
    materialize_flow_images(manifest, FlowParams(), flow_dir)
    return manifest, truths, flow_dir


def smooth_texture(h, w, seed, sigma=3.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = gaussian_filter(rng.random((h, w)), sigma=sigma, mode="nearest")
    t = (t - t.min()) / (t.max() - t.min())
    return 0.1 + 0.8 * t


def test_c01_flow_solver_endpoint_error_and_runtime():
    """Mean EPE < 0.2 px on global translations <= 2 px; zero field on identical
    frames; < 5 s per 128x128 pair."""
    shifts = [(1.0, 0.0), (0.0, 0.5), (2.0, 0.0), (1.5, -1.0), (-2.0, 2.0)]
    interior = (slice(5, -5), slice(5, -5))
    for i, (dx, dy) in enumerate(shifts):
        tex = smooth_texture(128, 128, seed=100 + i)
        apex = np.clip(warp_bilinear(tex, np.full_like(tex, -dx), np.full_like(tex, -dy)), 0, 1)
        start = time.perf_counter()
        flow = estimate_flow(GrayFrame(tex), GrayFrame(apex), FlowParams())
        elapsed = time.perf_counter() - start
        epe = np.sqrt((flow.u[interior] - dx) ** 2 + (flow.v[interior] - dy) ** 2).mean()
        assert epe < 0.2, f"texture {i}, shift ({dx},{dy}): mean EPE {epe:.4f}"
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s per 128x128 pair"

    frame = GrayFrame(smooth_texture(128, 128, seed=200))
    flow = estimate_flow(frame, frame, FlowParams())
    assert np.all(flow.u == 0.0) and np.all(flow.v == 0.0)


def test_c02_strain_analytic_fields():
    """Exact match (1e-9, interior) for constant, linear-shear, cross-shear flow."""
    h = w = 24
    inner = (slice(1, -1), slice(1, -1))
    y, x = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")

    s = compute_strain(FlowField(u=np.full((h, w), 2.5), v=np.full((h, w), -1.0)))
    for comp in (s.exx, s.eyy, s.exy, s.magnitude):
        np.testing.assert_allclose(comp, 0.0, atol=1e-9)

    s = compute_strain(FlowField(u=0.01 * x, v=np.zeros((h, w))))
    np.testing.assert_allclose(s.exx[inner], 0.01, atol=1e-9)
    np.testing.assert_allclose(s.eyy[inner], 0.0, atol=1e-9)
    np.testing.assert_allclose(s.exy[inner], 0.0, atol=1e-9)
    np.testing.assert_allclose(s.magnitude[inner], 0.01, atol=1e-9)

    s = compute_strain(FlowField(u=np.zeros((h, w)), v=0.02 * x))
    np.testing.assert_allclose(s.exy[inner], 0.01, atol=1e-9)
    np.testing.assert_allclose(s.magnitude[inner], math.sqrt(2) * 0.01, atol=1e-9)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_c03_gradient_suite(variant):
    """Every parameter of every variant matches central finite differences
    (step 1e-5, 64-bit) within 1e-4 relative error on the 16x16 toy config."""
    seed = FD_SEEDS[variant]
    margin = relu_kink_margin(variant, seed)
    assert margin > 1e-3, f"ReLU pre-activation margin {margin:.2e} too small for the FD oracle"
    worst, n_scalars = fd_check_variant(variant, seed)
    assert n_scalars > 100
    assert worst < FD_REL_TOL, f"{variant.value}: worst relative error {worst:.3e} over {n_scalars} scalars"


def test_c04_loss_identities():
    """total = l_emo + l_ethnic + l_fusion; uniform CCE = ln K (1e-9);
    softmax shift invariance (1e-9)."""
    bd = LossBreakdown.of(0.5, 0.2, 0.3)
    assert bd.total == 0.5 + 0.2 + 0.3

    rng = np.random.default_rng(0)
    for _ in range(50):
        parts = rng.uniform(0, 3, size=3)
        bd = LossBreakdown.of(*parts)
        assert bd.total == parts[0] + parts[1] + parts[2]

    def ce(logits, target) -> float:
        return float(ad.cross_entropy_mean(logits[None], [target]).data)

    for k in (2, 3, 5, 10):
        assert abs(ce(np.full(k, rng.normal()), 0) - math.log(k)) < 1e-9

    for _ in range(100):
        logits = rng.normal(scale=5, size=4)
        shift = rng.uniform(-100, 100)
        target = int(rng.integers(0, 4))
        assert abs(ce(logits, target) - ce(logits + shift, target)) < 1e-9


def test_c05_metric_oracle_and_printed_rows():
    """Hand-derived binary macro-F1 to 1e-9; printed-table row consistency."""
    confusion = ConfusionMatrix(BINARY_CLASSES, np.array([[3, 1], [2, 2]]))
    per_class, macro = macro_f1(confusion)
    assert abs(per_class["Negative"] - 2 / 3) < 1e-9
    assert abs(per_class["NonNegative"] - 4 / 7) < 1e-9
    assert abs(macro - (2 / 3 + 4 / 7) / 2) < 1e-9
    assert abs(macro - 0.619048) < 1e-6

    # mono-ethnic row: Average column is the arithmetic mean of the class columns
    row_mean = (0.4330 + 0.4762) / 2
    assert abs(row_mean - 0.4546) < 5e-5
    assert round(row_mean, 4) == 0.4546

    # benchmark row 1: average MF1 is the mean of three per-class F1 values
    mf1 = float(np.mean([0.8142, 0.5225, 0.5263]))
    assert abs(mf1 - 0.6210) < 5e-5
    assert round(mf1, 4) == 0.6210


def test_c06_protocol_invariants():
    """54 folds partition a 54-subject manifest without leakage; Mixed samples
    exactly 8+8 subjects; binarization conserves counts."""
    records = []
    for i in range(54):
        eth = RawEthnicity.ASIAN if i % 2 == 0 else RawEthnicity.CAUCASIAN
        for c in range(3):
            records.append(
                SampleRecord(
                    dataset=Dataset.SYNTH,
                    subject_id=f"S{i:02d}",
                    clip_id=f"c{c}",
                    onset_path="_",
                    apex_path="_",
                    raw_emotion=["happiness", "disgust", "surprise"][c],
                    raw_ethnicity=eth,
                )
            )
    manifest = build_manifest(records, {"seed": 0})

    eligible = manifest.eligible()
    plans = plan_loso(eligible)
    assert len(plans) == 54
    assert [p.held_out_subject for p in plans] == sorted({r.subject_id for r in eligible})
    all_indices = set(range(len(eligible)))
    seen_test = []
    for plan in plans:
        train_set, test_set = set(plan.train), set(plan.test)
        assert train_set & test_set == set(), "subject leakage between train and test"
        assert train_set | test_set == all_indices
        test_subjects = {eligible[i].subject_id for i in test_set}
        assert test_subjects == {plan.held_out_subject}
        assert plan.held_out_subject not in {eligible[i].subject_id for i in train_set}
        assert list(plan.train) == sorted(train_set) and list(plan.test) == sorted(test_set), "record order"
        seen_test.extend(plan.test)
    assert sorted(seen_test) == sorted(all_indices), "folds must partition the samples"

    sampled = sample_prima_facie(manifest, PrimaFacieScenario(ScenarioKind.MIXED, seed=1))
    subjects = {r.subject_id for r in sampled}
    by_group = {"Asian": 0, "NonAsian": 0}
    for r in sampled:
        by_group[r.mapped_ethnicity.value] += 0  # counted per subject below
    for s in subjects:
        rec = next(r for r in sampled if r.subject_id == s)
        by_group[rec.mapped_ethnicity.value] += 1
    assert by_group == {"Asian": 8, "NonAsian": 8}

    labels = binarize_emotions(manifest.eligible())
    assert len(labels) == len(manifest.eligible())
    assert labels.count(0) + labels.count(1) == len(manifest.eligible())


def test_c07_label_maps_reproduce_published_aggregates():
    """Raw counts -> subjects (Asian 37, NonAsian 17), videos (199, 92),
    emotions (Positive 58, Negative 192, Surprise 40)."""
    subj_spec = [
        (RawEthnicity.CAUCASIAN, 15, 88),
        (RawEthnicity.AFRICAN, 2, 4),
        (RawEthnicity.ASIAN, 31, 183),
        (RawEthnicity.INDIAN, 2, 5),
        (RawEthnicity.OTHERS, 4, 11),
    ]
    emotions = (
        ["happiness"] * 58
        + ["anger"] * 30 + ["contempt"] * 30 + ["disgust"] * 66
        + ["fear"] * 30 + ["repression"] * 18 + ["sadness"] * 18
        + ["surprise"] * 40
        + ["others"] * 1
    )
    assert len(emotions) == 291
    records = []
    cursor = 0
    for gi, (eth, n_subj, n_vid) in enumerate(subj_spec):
        base, extra = divmod(n_vid, n_subj)
        for si in range(n_subj):
            for ci in range(base + (1 if si < extra else 0)):
                records.append(
                    SampleRecord(
                        dataset=Dataset.SYNTH,
                        subject_id=f"g{gi}s{si}",
                        clip_id=f"c{ci}",
                        onset_path="_",
                        apex_path="_",
                        raw_emotion=emotions[cursor],
                        raw_ethnicity=eth,
                    )
                )
                cursor += 1
    assert cursor == 291
    report = summarize_distribution(records)
    assert report.subjects_by_mapped_ethnicity == {"Asian": 37, "NonAsian": 17}
    assert report.total_subjects == 54
    assert report.videos_by_mapped_ethnicity == {"Asian": 199, "NonAsian": 92}
    assert report.videos_by_mapped_emotion == {"Positive": 58, "Negative": 192, "Surprise": 40}
    assert report.eligible_videos == 290
    assert report.total_videos == 291


def test_c08_end_to_end_learning(separable_corpus):
    """dual_motion LOSO on the separable corpus: emotion MF1 >= 0.95 within
    15 epochs, < 10 minutes, and bit-identical reports for identical seeds."""
    manifest, _truths, flow_dir = separable_corpus
    config = ModelConfig.small(64)

    start = time.perf_counter()
    row_a, folds_a = run_loso_variant(
        manifest, Variant.DUAL_MOTION, config, TrainConfig(), flow_dir, seed=0
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"LOSO run took {elapsed:.0f}s"
    assert row_a.average_mf1 >= 0.95, f"held-out macro-F1 {row_a.average_mf1:.4f}"
    assert row_a.epochs == 15

    row_b, folds_b = run_loso_variant(
        manifest, Variant.DUAL_MOTION, config, TrainConfig(), flow_dir, seed=0
    )
    report_a = json.dumps(
        {"row": row_a.to_dict(), "folds": [(f.held_out_subject, f.confusion.counts.tolist()) for f in folds_a]},
        sort_keys=True,
    )
    report_b = json.dumps(
        {"row": row_b.to_dict(), "folds": [(f.held_out_subject, f.confusion.counts.tolist()) for f in folds_b]},
        sort_keys=True,
    )
    assert report_a == report_b, "identical seeds must give bit-identical reports"


def test_c09_directional_ethnic_shift(shifted_corpus):
    """With shift_strength > 0, Mixed minority-class F1 <= each mono-ethnic
    counterpart in at least 4 of 5 seeds."""
    manifest, _truths, flow_dir = shifted_corpus
    from mebench.model import EncoderConfig, FrozenEncoder, extract_frozen_features
    from mebench.flowcore import read_flow_image

    encoder = FrozenEncoder.random_fallback(EncoderConfig(feature_dim=32), seed=77)
    features = {}
    for record in manifest.eligible():
        image = read_flow_image(flow_image_path(flow_dir, record))
        features[sample_key(record)] = extract_frozen_features(image.as_array(), encoder)

    seeds = [0, 1, 2, 3, 4]
    report = run_prima_facie(
        manifest,
        features,
        seeds=seeds,
        forest_config=ForestConfig(n_trees=60, max_depth=8),
        encoder_origin=encoder.origin,
    )

    # minority class in the binarized view: Negative (1 of 3 clips per subject)
    labels = binarize_emotions(manifest.eligible())
    assert labels.count(0) < labels.count(1)

    wins = 0
    for seed in seeds:
        by_kind = {r.kind: r for r in report.per_seed if r.seed == seed}
        mixed = by_kind["Mixed"].f1_negative
        if mixed <= by_kind["AsianOnly"].f1_negative and mixed <= by_kind["NonAsianOnly"].f1_negative:
            wins += 1
    assert wins >= 4, f"directional check held in only {wins}/5 seeds"


def test_c10_gradcam_locality(separable_corpus):
    """Attribution argmax falls in the bump's quadrant for >= 90% of samples;
    every map satisfies the [0, 1] normalization invariant."""
    manifest, _truths, flow_dir = separable_corpus
    config = ModelConfig.small(64)
    samples = load_train_samples(manifest.eligible(), flow_dir)
    params, _ = train_fold(samples, config, Variant.DUAL_MOTION, TrainConfig(), seed=0)

    class_angle = {"happiness": 0.0, "disgust": 180.0, "surprise": -90.0}
    class_index = {"happiness": 1, "disgust": 0, "surprise": 2}
    rng = np.random.Generator(np.random.PCG64(123))
    size = 64
    hits = total = 0
    for trial in range(40):
        qx, qy = trial % 2, (trial // 2) % 2
        emotion = ["happiness", "disgust", "surprise"][trial % 3]
        cx = size * (0.25 + 0.5 * qx) + rng.uniform(-4, 4)
        cy = size * (0.25 + 0.5 * qy) + rng.uniform(-4, 4)
        base = make_base_texture(size, rng, smooth_sigma=3.0)
        onset, apex = render_clip(
            base, (cx, cy), class_angle[emotion] + rng.uniform(-10, 10), amplitude=2.5, sigma=0.10 * size
        )
        flow = estimate_flow(GrayFrame(onset), GrayFrame(apex), FlowParams())
        image = assemble_flow_image(flow, compute_strain(flow))
        amap = gradcam(
            params,
            config,
            Variant.DUAL_MOTION,
            ModelInputs(flow=image.as_array()[None]),
            class_index[emotion],
            branch="fusion",
        )
        assert amap.overlay.min() >= 0.0 and amap.overlay.max() <= 1.0
        assert amap.grid.max() == 1.0 or np.all(amap.grid == 0.0)
        x, y = amap.argmax_xy
        hits += ((x < 32) == (qx == 0)) and ((y < 32) == (qy == 0))
        total += 1
    assert hits / total >= 0.9, f"argmax in the bump quadrant for only {hits}/{total} samples"
