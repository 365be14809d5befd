import hashlib
import json
import multiprocessing
import struct
import tracemalloc
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mebench import pipeline
from mebench.flowcore import hornschunck
from mebench.corpus import (
    Dataset,
    MappedEmotion,
    MappedEthnicity,
    RawEthnicity,
    SampleRecord,
    SynthSpec,
    build_manifest,
    finalize_mappings,
    synthesize_desk_corpus,
)
from mebench.errors import ConfigError, DataError
from mebench.flowcore import (
    FlowParams,
    assemble_flow_image,
    compute_strain,
    estimate_flow,
    load_frame,
    load_rgb_frame,
    read_flow_image,
    write_flow_image,
)
from mebench.model import ModelConfig, ModelInputs, TrainConfig, TrainSample, Variant, forward, init_params
from mebench.model.training import _batch_inputs
from mebench.pipeline import (
    BINARY_CLASSES,
    EMOTION_CLASSES,
    ETHNICITY_CLASSES,
    emotion_index,
    ethnicity_index,
    materialize_flow_images,
    sample_key,
)
from mebench.protocol import (
    BENCHMARK_COLUMNS,
    PRIMA_FACIE_COLUMNS,
    ConfusionMatrix,
    FoldResult,
    ForestConfig,
    PrimaFacieReport,
    PrimaFacieScenario,
    QuotaError,
    ScenarioKind,
    ScenarioResult,
    VariantRow,
    aggregate_folds,
    binarize_emotions,
    forest_predict_batch,
    forest_train,
    macro_f1,
    plan_loso,
    plan_scenarios,
    render_table,
    run_loso_variant,
    run_prima_facie,
    sample_prima_facie,
)
from mebench.protocol import benchmark, forest, primafacie
from mebench.protocol.forest import _best_splits, _gini
from mebench.runutil import cache_key, derive_seed, derived_rng, hash_file, write_cache_entry


def records_for(subjects, clips_per=2, emotions=("happiness", "disgust"), ethnicity=RawEthnicity.ASIAN):
    records = []
    for s in subjects:
        for c in range(clips_per):
            records.append(
                SampleRecord(
                    dataset=Dataset.SYNTH,
                    subject_id=s,
                    clip_id=f"c{c}",
                    onset_path="x",
                    apex_path="y",
                    raw_emotion=emotions[c % len(emotions)],
                    raw_ethnicity=ethnicity,
                )
            )
    return finalize_mappings(records)


# ---------------------------------------------------------------- class orders


def test_every_mapped_label_indexes_its_class_or_is_refused():
    def record(emotion=None, ethnicity=None):
        return SampleRecord(Dataset.SYNTH, "S1", "c0", "x", "y", "", mapped_emotion=emotion, mapped_ethnicity=ethnicity)

    for emotion in MappedEmotion:
        if emotion is MappedEmotion.EXCLUDED:
            with pytest.raises(DataError, match="no eligible emotion label"):
                emotion_index(record(emotion=emotion))
        else:
            assert EMOTION_CLASSES[emotion_index(record(emotion=emotion))] == emotion.value
    for ethnicity in MappedEthnicity:
        assert ETHNICITY_CLASSES[ethnicity_index(record(ethnicity=ethnicity))] == ethnicity.value
    assert [emotion_index(record(emotion=MappedEmotion(c))) for c in EMOTION_CLASSES] == [0, 1, 2]
    assert [ethnicity_index(record(ethnicity=MappedEthnicity(c))) for c in ETHNICITY_CLASSES] == [0, 1]
    with pytest.raises(DataError, match="no eligible emotion label"):
        emotion_index(record())
    with pytest.raises(DataError, match="no ethnicity label"):
        ethnicity_index(record())


# ---------------------------------------------------------------- folds


class TestPlanLoso:
    def test_three_subjects(self):
        records = records_for(["S1", "S2", "S3"])
        plans = plan_loso(records)
        assert len(plans) == 3
        for plan in plans:
            assert all(records[i].subject_id == plan.held_out_subject for i in plan.test)
            assert all(records[i].subject_id != plan.held_out_subject for i in plan.train)

    def test_partition_property(self):
        records = records_for([f"S{i}" for i in range(6)], clips_per=3)
        plans = plan_loso(records)
        all_indices = set(range(len(records)))
        seen = []
        for plan in plans:
            seen.extend(plan.test)
            assert set(plan.train) | set(plan.test) == all_indices
            assert set(plan.train) & set(plan.test) == set()
        assert sorted(seen) == sorted(all_indices)

    def test_indices_follow_record_order(self):
        records = records_for(["S2", "S1"], clips_per=2)
        records = [records[0], records[2], records[1], records[3]]  # S2, S1, S2, S1
        plans = plan_loso(records)
        assert [(p.held_out_subject, p.train, p.test) for p in plans] == [
            ("S1", (0, 2), (1, 3)),
            ("S2", (1, 3), (0, 2)),
        ]

    def test_54_subjects(self):
        records = records_for([f"S{i:02d}" for i in range(54)])
        assert len(plan_loso(records)) == 54

    def test_single_subject_rejected(self):
        with pytest.raises(DataError):
            plan_loso(records_for(["S1"]))

    def test_ordered_by_subject(self):
        plans = plan_loso(records_for(["S3", "S1", "S2"]))
        assert [p.held_out_subject for p in plans] == ["S1", "S2", "S3"]


# ---------------------------------------------------------------- metrics


def hand_binary_confusion():
    """actual neg = 4 (3 pred neg, 1 pred nonneg); actual nonneg = 4 (2 pred neg, 2 pred nonneg)."""
    return ConfusionMatrix(BINARY_CLASSES, np.array([[3, 1], [2, 2]]))


class TestMacroF1:
    def test_hand_derived_binary_example(self):
        per_class, macro = macro_f1(hand_binary_confusion())
        assert abs(per_class["Negative"] - 2 / 3) < 1e-9
        assert abs(per_class["NonNegative"] - 4 / 7) < 1e-9
        assert abs(macro - (2 / 3 + 4 / 7) / 2) < 1e-9
        assert abs(macro - 0.619048) < 1e-6

    def test_perfect_predictions(self):
        cm = ConfusionMatrix(("a", "b", "c"), np.diag([5, 3, 2]))
        per_class, macro = macro_f1(cm)
        assert all(v == 1.0 for v in per_class.values())
        assert macro == 1.0

    def test_absent_class_zero_convention(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[4, 0], [0, 0]]))
        per_class, macro = macro_f1(cm)
        assert per_class["b"] == 0.0
        assert abs(macro - 0.5) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 10, size=(3, 3))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(("a", "b", "c"), counts)
        per_class, macro = macro_f1(cm)
        perm = rng.permutation(3)
        cm_p = ConfusionMatrix(
            tuple(np.array(cm.classes)[perm]), counts[np.ix_(perm, perm)]
        )
        per_class_p, macro_p = macro_f1(cm_p)
        assert abs(macro - macro_p) < 1e-12
        for i, name in enumerate(cm.classes):
            assert abs(per_class[name] - per_class_p[name]) < 1e-12

    def test_paper_row_consistency(self):
        # printed-table identities: Average = mean of class columns
        assert abs((0.4330 + 0.4762) / 2 - 0.4546) < 1e-12
        assert abs(np.mean([0.8142, 0.5225, 0.5263]) - 0.6210) < 1e-4
        assert round(float(np.mean([0.8142, 0.5225, 0.5263])), 4) == 0.6210

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(st.integers(0, 4), min_size=k * k, max_size=k * k)))
    def test_whole_array_f1_matches_the_per_class_formula_bit_for_bit(self, cells):
        """Empty rows and columns included: small counts with many zeros reach the 0/0 convention."""
        k = int(round(len(cells) ** 0.5))
        counts = np.array(cells, dtype=np.int64).reshape(k, k)
        if counts.sum() == 0:
            counts[-1, 0] = 1
        classes = tuple(f"c{i}" for i in range(k))
        reference = {}
        for i, name in enumerate(classes):  # the per-class formula, one class at a time
            tp = counts[i, i]
            fp = counts[:, i].sum() - tp
            fn = counts[i, :].sum() - tp
            precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
            recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
            f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
            reference[name] = float(f1)
        per_class, macro = macro_f1(ConfusionMatrix(classes, counts))
        assert [np.float64(v).tobytes() for v in per_class.values()] == [
            np.float64(reference[c]).tobytes() for c in classes
        ]
        assert list(per_class) == list(classes)
        assert np.float64(macro).tobytes() == np.float64(np.mean([reference[c] for c in classes])).tobytes()


class TestConfusionOf:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=30).map(lambda p: (k, p))
    ))
    def test_matches_an_add_at_reference(self, k_pairs):
        k, pairs = k_pairs
        actual, predicted = [a for a, _ in pairs], [p for _, p in pairs]
        reference = np.zeros((k, k), dtype=np.int64)
        np.add.at(reference, (np.array(actual, dtype=np.intp), np.array(predicted, dtype=np.intp)), 1)
        classes = tuple(f"c{i}" for i in range(k))
        confusion = ConfusionMatrix.of(classes, actual, predicted)
        assert confusion.classes == classes
        assert confusion.counts.dtype == np.int64
        assert np.array_equal(confusion.counts, reference)

    def test_counts_rows_as_actual_and_columns_as_predicted(self):
        confusion = ConfusionMatrix.of(BINARY_CLASSES, np.array([0, 0, 1]), np.array([1, 1, 0]))
        assert confusion.counts.tolist() == [[0, 2], [1, 0]]


def fold_of(subject, counts, classes=BINARY_CLASSES) -> FoldResult:
    """A FoldResult of counts[a][p] clips of actual class a predicted as p, for each (a, p)."""
    pairs = [(a, p) for a, row in enumerate(counts) for p, n in enumerate(row) for _ in range(n)]
    return FoldResult(subject, classes, tuple(a for a, _ in pairs), tuple(p for _, p in pairs))


class TestAggregateFolds:
    def test_single_fold_identity(self):
        result = fold_of("S1", [[3, 1], [2, 2]])
        per_class_f1, macro_pooled = aggregate_folds([result])
        per_class, macro = macro_f1(hand_binary_confusion())
        assert per_class_f1 == per_class
        assert macro_pooled == macro

    def test_two_folds_pool_to_hand_example(self):
        _, macro = aggregate_folds([fold_of("S1", [[2, 0], [1, 1]]), fold_of("S2", [[1, 1], [1, 1]])])
        assert abs(macro - (2 / 3 + 4 / 7) / 2) < 1e-9

    def test_fold_order_irrelevant(self):
        a = fold_of("S1", [[2, 0], [1, 1]])
        b = fold_of("S2", [[1, 1], [1, 1]])
        assert aggregate_folds([a, b])[1] == aggregate_folds([b, a])[1]

    def test_class_mismatch(self):
        a = fold_of("S1", [[1, 0], [0, 0]], classes=("x", "y"))
        b = fold_of("S2", [[1, 0], [0, 0]], classes=("x", "z"))
        with pytest.raises(DataError):
            aggregate_folds([a, b])

    def test_a_fold_confusion_counts_its_clips(self):
        fold = FoldResult("S1", EMOTION_CLASSES, (0, 1, 2, 1), (0, 2, 2, 1))
        expected = ConfusionMatrix.of(EMOTION_CLASSES, (0, 1, 2, 1), (0, 2, 2, 1))
        assert fold.confusion.classes == expected.classes
        assert fold.confusion.counts.tolist() == expected.counts.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
        st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=6),
        min_size=1, max_size=8,
    ))))
    def test_pooling_clips_equals_summing_fold_matrices(self, k_folds):
        k, folds = k_folds
        classes = tuple(f"c{i}" for i in range(k))
        results = [FoldResult(f"S{n}", classes, tuple(a for a, _ in clips), tuple(p for _, p in clips))
                   for n, clips in enumerate(folds)]
        summed = ConfusionMatrix(classes, np.sum([r.confusion.counts for r in results], axis=0))
        per_class, macro = aggregate_folds(results)
        reference_per_class, reference_macro = macro_f1(summed)
        assert [np.float64(v).tobytes() for v in per_class.values()] == [
            np.float64(v).tobytes() for v in reference_per_class.values()
        ]
        assert np.float64(macro).tobytes() == np.float64(reference_macro).tobytes()


# ---------------------------------------------------------------- prima facie sampling


def mixed_manifest(n_asian=20, n_nonasian=16):
    records = records_for([f"A{i:02d}" for i in range(n_asian)], ethnicity=RawEthnicity.ASIAN)
    records += records_for(
        [f"N{i:02d}" for i in range(n_nonasian)], ethnicity=RawEthnicity.CAUCASIAN
    )
    return build_manifest(records, {"seed": 0})


class TestSamplePrimaFacie:
    def test_mixed_quotas(self):
        manifest = mixed_manifest()
        records = sample_prima_facie(manifest, PrimaFacieScenario(ScenarioKind.MIXED, seed=3))
        subjects = {r.subject_id for r in records}
        assert len(subjects) == 16
        assert sum(1 for s in subjects if s.startswith("A")) == 8
        assert sum(1 for s in subjects if s.startswith("N")) == 8

    def test_deterministic_per_seed(self):
        manifest = mixed_manifest()
        scenario = PrimaFacieScenario(ScenarioKind.ASIAN_ONLY, seed=9)
        a = {r.subject_id for r in sample_prima_facie(manifest, scenario)}
        b = {r.subject_id for r in sample_prima_facie(manifest, scenario)}
        assert a == b

    def test_infeasible_quota(self):
        manifest = mixed_manifest(n_asian=20, n_nonasian=10)
        with pytest.raises(QuotaError):
            sample_prima_facie(manifest, PrimaFacieScenario(ScenarioKind.NON_ASIAN_ONLY, seed=0))

    @pytest.mark.parametrize(
        "seeds, kinds, message",
        [([1, 2, 1], [ScenarioKind.MIXED], r"given twice: seeds \[1, 2, 1\]"),
         ([1], [ScenarioKind.MIXED, ScenarioKind.ASIAN_ONLY, ScenarioKind.MIXED],
          r"scenarios \['Mixed', 'AsianOnly', 'Mixed'\]")],
        ids=["seed", "kind"],
    )
    def test_a_seed_or_kind_given_twice_is_refused(self, seeds, kinds, message):
        # a repeated seed would count as a second seed in the mean and its spread
        with pytest.raises(ConfigError, match=message):
            plan_scenarios(seeds, kinds, 4)

    def test_odd_budget_with_mixed_is_refused_before_any_forest(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("no forest may be fit before every scenario is checked")

        monkeypatch.setattr(primafacie, "forest_train", forbidden)
        with pytest.raises(ConfigError, match="Mixed needs an even subject budget, got 3"):
            run_prima_facie(mixed_manifest(), {}, seeds=[0], subject_budget=3)
        for kind in (ScenarioKind.ASIAN_ONLY, ScenarioKind.NON_ASIAN_ONLY):  # one group: any budget >= 2 splits
            assert PrimaFacieScenario(kind, subject_budget=3).subject_budget == 3

    def test_only_allowed_ethnicities(self):
        manifest = mixed_manifest()
        records = sample_prima_facie(manifest, PrimaFacieScenario(ScenarioKind.ASIAN_ONLY, seed=1))
        assert all(r.mapped_ethnicity.value == "Asian" for r in records)


class TestBinarize:
    def test_mapping(self):
        records = records_for(["S1"], clips_per=3, emotions=("happiness", "disgust", "surprise"))
        labels = binarize_emotions(records)
        # happiness -> NonNegative, disgust -> Negative, surprise -> NonNegative
        assert labels == [1, 0, 1]

    def test_counts_conserved(self):
        records = records_for([f"S{i}" for i in range(5)], clips_per=3, emotions=("fear", "happiness", "surprise"))
        labels = binarize_emotions(records)
        assert len(labels) == len(records)
        assert labels.count(0) + labels.count(1) == len(records)


# ---------------------------------------------------------------- forest


class TestForest:
    def test_single_label_purity(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        y = np.full(10, 2)
        model = forest_train(x, y, ForestConfig(n_trees=5), seed=0)
        assert forest_predict_batch(model, x[:1])[0] == 2

    @pytest.mark.parametrize("predictions", [(1, 0), (0, 1), (2, 1), (1, 2)])
    def test_a_tied_vote_goes_to_the_lower_class(self, predictions):
        trees = [forest._Node(prediction=p) for p in predictions]
        model = forest.ForestModel(trees=trees, n_classes=3, n_features=2, config=ForestConfig(n_trees=2))
        assert forest_predict_batch(model, np.zeros((4, 2))).tolist() == [min(predictions)] * 4

    def test_depth1_split_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.uniform(0, 0.4, 12), rng.uniform(0.6, 1.0, 12)])[:, None]
        y = np.array([0] * 12 + [1] * 12)
        # one tree on every row; one feature, so every node scans it
        (root,) = forest._grow_trees(x, y, [np.arange(24)], forest._Draws([0], x.shape), 2, 1)
        assert not root.is_leaf

        # exhaustive oracle: weighted Gini over every midpoint threshold
        sorted_vals = np.sort(x[:, 0])
        best = (np.inf, None)
        for i in range(len(sorted_vals) - 1):
            if sorted_vals[i] == sorted_vals[i + 1]:
                continue
            thr = (sorted_vals[i] + sorted_vals[i + 1]) / 2
            left = y[x[:, 0] < thr]
            right = y[x[:, 0] >= thr]
            gini = (
                len(left) * _gini(np.bincount(left, minlength=2))
                + len(right) * _gini(np.bincount(right, minlength=2))
            ) / len(y)
            if gini < best[0] - 1e-15:
                best = (gini, thr)
        assert best[0] == 0.0
        assert abs(root.threshold - best[1]) < 1e-12
        model = forest.ForestModel(
            trees=[root], n_classes=2, n_features=1, config=ForestConfig(n_trees=1, max_depth=1)
        )
        assert np.array_equal(forest_predict_batch(model, x), y)

    def test_xor_quadrants(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        model = forest_train(x, y, ForestConfig(n_trees=50, max_depth=4), seed=1)
        accuracy = (forest_predict_batch(model, x) == y).mean()
        assert accuracy >= 0.9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        m1 = forest_train(x, y, ForestConfig(n_trees=10), seed=5)
        m2 = forest_train(x, y, ForestConfig(n_trees=10), seed=5)
        probe = rng.normal(size=(20, 4))
        assert np.array_equal(forest_predict_batch(m1, probe), forest_predict_batch(m2, probe))

    def test_duplicate_invariance_single_tree(self, monkeypatch):
        # each split is invariant at any MIN_LEAF, but at 2 a one-row side that the original tree
        # refuses has two rows once duplicated; only MIN_LEAF 1 makes the whole tree invariant
        monkeypatch.setattr(forest, "MIN_LEAF", 1)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 3))
        y = rng.integers(0, 2, 25)
        (t1,) = forest._grow_trees(x, y, [np.arange(25)], forest._Draws([0], x.shape), 2, 4)
        (t2,) = forest._grow_trees(
            np.repeat(x, 2, axis=0), np.repeat(y, 2), [np.arange(50)],
            forest._Draws([0], (50, 3)), 2, 4,
        )

        def describe(node):
            if node.is_leaf:
                return ("leaf", node.prediction)
            return ("split", node.feature, round(node.threshold, 12), describe(node.left), describe(node.right))

        assert describe(t1) == describe(t2)

    def test_empty_training_set(self):
        with pytest.raises(DataError):
            forest_train(np.zeros((0, 3)), np.zeros(0), ForestConfig(), seed=0)

    def test_no_feature_columns_is_data_error(self):
        with pytest.raises(DataError, match="non-empty"):
            forest_train(np.zeros((6, 0)), [0, 1, 0, 1, 0, 1], ForestConfig(n_trees=2), seed=0)

    @pytest.mark.parametrize(
        "labels",
        [["a", "b", "a", "b"], [None, None, None, None], np.array([0, 1, 0, 1], dtype=object), [b"0", b"1", b"0", b"1"]],
        ids=["str", "none", "object", "bytes"],
    )
    def test_non_numeric_labels_are_data_errors(self, labels):
        with pytest.raises(DataError, match="integer class indices"):
            forest_train(np.arange(8.0).reshape(4, 2), labels, ForestConfig(n_trees=1), 0)

    def test_integral_float_and_bool_labels_still_fit(self):
        x = np.arange(8.0).reshape(4, 2)
        ints = forest_train(x, [0, 1, 0, 1], ForestConfig(n_trees=2), 0)
        for labels in ([0.0, 1.0, 0.0, 1.0], [False, True, False, True]):
            model = forest_train(x, labels, ForestConfig(n_trees=2), 0)
            assert forest_predict_batch(model, x).tolist() == forest_predict_batch(ints, x).tolist()

    @pytest.mark.parametrize("probe", [np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((1, 1, 3))])
    def test_predict_refuses_a_matrix_of_another_shape(self, probe):
        x = np.random.default_rng(0).normal(size=(8, 3))
        model = forest_train(x, np.arange(8) % 2, ForestConfig(n_trees=3), seed=0)
        assert model.n_features == 3
        with pytest.raises(DataError, match=r"\(n, 3\)"):
            forest_predict_batch(model, probe)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_predict_refuses_non_finite_features(self, bad):
        x = np.random.default_rng(0).normal(size=(8, 3))
        model = forest_train(x, np.arange(8) % 2, ForestConfig(n_trees=3), seed=0)
        probe = x[:2].copy()
        probe[1, 2] = bad
        with pytest.raises(DataError, match="finite"):
            forest_predict_batch(model, probe)
        assert forest_predict_batch(model, np.zeros((0, 3))).shape == (0,)

    def test_inconsistent_feature_lengths(self):
        with pytest.raises(DataError):
            forest_train(np.zeros((4, 3)), np.zeros(5), ForestConfig(), seed=0)

    def test_non_finite_feature_is_data_error(self):
        x = np.random.default_rng(0).normal(size=(8, 3))
        x[2, 1] = np.nan
        with pytest.raises(DataError, match="finite"):
            forest_train(x, np.arange(8) % 2, ForestConfig(n_trees=3), seed=0)

    def test_negative_label_is_data_error(self):
        x = np.random.default_rng(0).normal(size=(8, 3))
        with pytest.raises(DataError, match=">= 0"):
            forest_train(x, np.array([0, 1, -1, 0, 1, 0, 1, 0]), ForestConfig(n_trees=3), seed=0)

    def test_fractional_label_is_data_error(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(DataError, match="integer"):
            forest_train(x, np.array([0.2, 1.9, 0.7, 1.2, 0.1, 1.5]), ForestConfig(n_trees=3), seed=0)
        forest_train(x, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0]), ForestConfig(n_trees=3), seed=0)  # whole floats pass


def _reference_gini(class_counts: np.ndarray) -> float:
    """Frozen copy of the one-vector Gini impurity the recursive grower used."""
    total = class_counts.sum()
    if total == 0:
        return 0.0
    p = class_counts / total
    return 1.0 - float((p * p).sum())


def _scalar_best_split(x, y, feature_ids, n_classes):
    """Reference split scan: one `_reference_gini` pair per feature and distinct threshold."""
    n = y.size
    best = None
    for feature in feature_ids:
        values = x[:, feature]
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        sorted_y = y[order]
        onehot = np.zeros((n, n_classes), dtype=np.int64)
        onehot[np.arange(n), sorted_y] = 1
        prefix = np.cumsum(onehot, axis=0)
        distinct = np.nonzero(sorted_vals[:-1] < sorted_vals[1:])[0]
        for i in distinct:
            left = prefix[i]
            right = prefix[-1] - left
            n_left = i + 1
            n_right = n - n_left
            impurity = (n_left * _reference_gini(left) + n_right * _reference_gini(right)) / n
            threshold = 0.5 * (sorted_vals[i] + sorted_vals[i + 1])
            if best is None or impurity < best[0] - 1e-15:
                best = (impurity, int(feature), float(threshold))
    return best


def _reference_grow(x, y, n_classes, max_depth, rng, depth):
    """Frozen copy of the recursive, depth-first grower, scanning with `_scalar_best_split`."""
    counts = np.bincount(y, minlength=n_classes)
    node = forest._Node(prediction=int(np.argmax(counts)))
    if depth >= max_depth or y.size < 2 * forest.MIN_LEAF or _reference_gini(counts) == 0.0:
        return node
    n_features = x.shape[1]
    k = max(1, int(np.sqrt(n_features)))
    best = _scalar_best_split(x, y, np.sort(rng.choice(n_features, size=k, replace=False)), n_classes)
    if best is None:
        return node
    _, feature, threshold = best
    mask = x[:, feature] < threshold
    if mask.sum() < forest.MIN_LEAF or (~mask).sum() < forest.MIN_LEAF:
        return node
    node.feature = feature
    node.threshold = threshold
    node.left = _reference_grow(x[mask], y[mask], n_classes, max_depth, rng, depth + 1)
    node.right = _reference_grow(x[~mask], y[~mask], n_classes, max_depth, rng, depth + 1)
    return node


def _reference_trees(x, y, config, seed):
    """Frozen copy of the tree-by-tree bootstrap loop, growing each tree with `_reference_grow`."""
    trees = []
    n, n_classes = x.shape[0], int(y.max()) + 1
    for tree_index in range(config.n_trees):
        rng = derived_rng(seed, "tree", tree_index)
        idx = rng.integers(0, n, size=n)
        trees.append(_reference_grow(x[idx], y[idx], n_classes, config.max_depth, rng, 0))
    return trees


def _describe_tree(node):
    if node.is_leaf:
        return ("leaf", node.prediction)
    return ("split", node.feature, node.threshold, _describe_tree(node.left), _describe_tree(node.right))


def _batch_splits(nodes, n_classes):
    """`_best_splits` of nodes given as (x, y, feature_ids), stacked into one padded batch."""
    sizes = np.array([y.size for _, y, _ in nodes])
    x = np.concatenate([x for x, _, _ in nodes])
    y = np.concatenate([y for _, y, _ in nodes])
    rows = np.full((len(nodes), sizes.max()), y.size - 1)  # padding points at a real row, which must not count
    for b, (start, size) in enumerate(zip(np.cumsum(sizes) - sizes, sizes)):
        rows[b, :size] = np.arange(start, start + size)
    return _best_splits(x, y, rows, sizes, np.array([ids for _, _, ids in nodes]), n_classes)


class TestBestSplitKernel:
    def check(self, x, y, n_classes, feature_ids=None):
        """The node's split, alone and between a smaller and a larger node, matches the scalar scan."""
        feature_ids = np.arange(x.shape[1]) if feature_ids is None else feature_ids
        expected = _scalar_best_split(x, y, feature_ids, n_classes)
        assert _batch_splits([(x, y, feature_ids)], n_classes) == [expected]
        rng = np.random.default_rng(y.size)
        nodes = [
            (rng.integers(0, 3, size=(n, x.shape[1])).astype(float), rng.integers(0, n_classes, n),
             np.sort(rng.choice(x.shape[1], size=feature_ids.size, replace=False)))
            for n in (2, y.size + 7)
        ]
        nodes.insert(1, (x, y, feature_ids))
        assert _batch_splits(nodes, n_classes) == [_scalar_best_split(*node, n_classes) for node in nodes]
        return expected

    def test_two_samples(self):
        assert self.check(np.array([[0.0], [1.0]]), np.array([0, 1]), 2) == (0.0, 0, 0.5)

    def test_constant_column_has_no_split(self):
        assert self.check(np.full((6, 1), 3.0), np.array([0, 1, 0, 1, 1, 0]), 2) is None

    def test_integer_columns_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.integers(0, 3, size=(40, 5)).astype(float)
            self.check(x, rng.integers(0, 3, 40), 3)

    def test_duplicated_columns_first_wins(self):
        rng = np.random.default_rng(12)
        column = rng.normal(size=(30, 1))
        x = np.hstack([rng.normal(size=(30, 1)), column, column])
        y = (column[:, 0] > 0).astype(int)
        assert self.check(x, y, 2)[1] == 1

    def test_earlier_cut_beats_one_ulp_lower_later_cut(self):
        # the cut at 2.5 scores 0.3999999999999999, one ULP below the cut at
        # 0.5; strict improvement by 1e-15 keeps the earlier cut, argmin would not
        x = np.array([[4.0, 1.0, 0.0, 1.0, 4.0, 3.0, 1.0, 4.0, 3.0, 2.0]]).T
        y = np.array([1, 0, 1, 0, 0, 1, 0, 1, 0, 0])
        assert self.check(x, y, 2) == (0.4, 0, 0.5)
        # the same node in one batch with nodes whose records are far apart: the cuts of the first score
        # 1/3, 0, 1/3, and the first three of the last 0.4, 0.25, 0
        nodes = [
            (np.arange(4.0)[:, None], np.array([0, 0, 1, 1]), np.array([0])),
            (x, y, np.array([0])),
            (np.arange(6.0)[:, None], np.array([0, 0, 0, 1, 1, 1]), np.array([0])),
        ]
        assert _batch_splits(nodes, 2) == [(0.0, 0, 1.5), (0.4, 0, 0.5), (0.0, 0, 2.5)]
        assert _batch_splits(nodes, 2) == [_scalar_best_split(*node, 2) for node in nodes]

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7])
    def test_class_counts(self, n_classes):
        # `_gini` adds p*p planes in sequence, up to the 7 classes `forest_train` takes
        rng = np.random.default_rng(n_classes)
        for _ in range(30):
            x = rng.normal(size=(int(rng.integers(2, 60)), 6))
            y = rng.integers(0, n_classes, x.shape[0])
            self.check(x, y, n_classes, np.sort(rng.choice(6, size=int(rng.integers(1, 7)), replace=False)))

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7])
    def test_gini_rows_match_the_one_vector_form(self, n_classes):
        # node purity reads `_gini` of whole count matrices; each row must be the one-vector float
        counts = np.random.default_rng(n_classes).integers(0, 5, size=(200, n_classes))
        counts[counts.sum(axis=1) == 0, 0] = 1
        assert _gini(counts.T).tolist() == [_reference_gini(row) for row in counts]

    @pytest.mark.parametrize("n_classes", range(1, forest.MAX_CLASSES + 1))
    def test_gini_is_the_sum_expression_bit_for_bit(self, n_classes):
        # `_gini` takes class-first planes, as the split scan builds them; each count vector keeps the bits of
        # the class-last sum expression, at every class count `forest_train` takes
        counts = np.random.default_rng(40 + n_classes).integers(0, 7, size=(n_classes, 3, 50))
        counts[..., :5] = 0  # all-zero vectors give NaN
        class_last = np.ascontiguousarray(np.moveaxis(counts, 0, -1))
        with np.errstate(invalid="ignore"):
            p = class_last / class_last.sum(axis=-1, keepdims=True)
            expected = 1.0 - (p * p).sum(axis=-1)
            got = _gini(counts)
        assert got.shape == expected.shape and np.isnan(got[:, :5]).all()
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 25),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_random_matrices(self, n, d, n_classes, seed, integer_valued):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 4, size=(n, d)).astype(float) if integer_valued else rng.normal(size=(n, d))
        self.check(x, rng.integers(0, n_classes, n), n_classes)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(2, 25), st.booleans()), min_size=1, max_size=8),
        st.integers(1, 9),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_random_batches(self, shapes, d, n_classes, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, d + 1))
        nodes = [
            (
                rng.integers(0, 4, size=(n, d)).astype(float) if integer_valued else rng.normal(size=(n, d)),
                rng.integers(0, n_classes, n),
                np.sort(rng.choice(d, size=k, replace=False)),
            )
            for n, integer_valued in shapes
        ]
        assert _batch_splits(nodes, n_classes) == [_scalar_best_split(*node, n_classes) for node in nodes]

    @pytest.mark.parametrize("min_leaf", [1, 2])
    @pytest.mark.parametrize("n_features", [1, 9])  # every node scans the one column, or 3 of 9
    @pytest.mark.parametrize("max_depth", [1, 8])
    def test_forest_matches_scalar_scan(self, monkeypatch, max_depth, n_features, min_leaf):
        monkeypatch.setattr(forest, "MIN_LEAF", min_leaf)
        rng = np.random.default_rng(21)
        x = np.round(rng.normal(size=(60, 9)), 1)  # rounding leaves ties
        y = (x[:, 0] + x[:, 3] + rng.normal(scale=0.5, size=60) > 0).astype(int) + (x[:, 5] > 1)
        x = x[:, [0, 3, 5, 1, 2, 4, 6, 7, 8][:n_features]]
        config = ForestConfig(n_trees=4, max_depth=max_depth)
        lockstep = forest_train(x, y, config, seed=3)
        reference = _reference_trees(x, y, config, 3)
        assert [_describe_tree(t) for t in lockstep.trees] == [_describe_tree(t) for t in reference]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 59),
        st.integers(1, 39),
        st.integers(1, 3),
        st.integers(1, 11),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_random_forests_match_the_recursive_reference(self, n, d, n_classes, n_trees, max_depth, seed):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(size=(n, d)), 1)  # rounding leaves ties
        y = rng.integers(0, n_classes, n)
        config = ForestConfig(n_trees=n_trees, max_depth=max_depth)
        lockstep = forest_train(x, y, config, seed=seed)
        reference = _reference_trees(x, y, config, seed)
        assert [_describe_tree(t) for t in lockstep.trees] == [_describe_tree(t) for t in reference]

    @staticmethod
    def _sparse_label_fit():
        rng = np.random.default_rng(16)
        x = rng.normal(size=(45, 32))
        positive = x[:, 0] + x[:, 5] - x[:, 9] + rng.normal(scale=1.0, size=45) > 0
        return x, positive, ForestConfig(n_trees=20, max_depth=8)

    @pytest.mark.parametrize("labels", ["0-2000", "0-20000", "0-to-7"])
    def test_sparse_labels_are_refused_in_bounded_memory(self, labels):
        # a label of 7 or more is refused before a tree grows; labels {0, 20000} on this shape once sized a
        # 20001-class split scan, which peaked at 145 MB and took 10 s
        x, positive, config = self._sparse_label_fit()
        features, y = {
            "0-2000": (x, 2000 * positive), "0-20000": (x, 20000 * positive), "0-to-7": (x[:8], np.arange(8)),
        }[labels]
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="below 7"):
                forest_train(features, y, config, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"

    def test_the_largest_label_trains_as_the_reference(self):
        x, positive, config = self._sparse_label_fit()
        y = 6 * positive  # labels {0, 6}: the largest label `forest_train` takes
        model = forest_train(x, y, config, seed=7)
        reference = _reference_trees(x, y, config, 7)
        assert [_describe_tree(t) for t in model.trees] == [_describe_tree(t) for t in reference]

    def test_primafacie_sized_trees_are_pinned(self):
        # the shape of one primafacie-16 fit: 45 rows, 32 features, 20 trees of depth 8. The digest hashes
        # every node of every tree in preorder (feature, threshold float64 bits, prediction); it was taken
        # with the recursive tree-by-tree grower, so lockstep growth keeps each tree bit for bit
        rng = np.random.default_rng(16)
        x = rng.normal(size=(45, 32))
        x[:, ::4] = np.round(x[:, ::4], 1)  # rounded columns leave ties
        y = (x[:, 0] + x[:, 5] - x[:, 9] + rng.normal(scale=1.0, size=45) > 0).astype(int)
        model = forest_train(x, y, ForestConfig(n_trees=20, max_depth=8), seed=7)
        digest, n_nodes = hashlib.sha256(), 0
        for root in model.trees:
            stack = [root]
            while stack:
                node = stack.pop()
                n_nodes += 1
                digest.update(struct.pack("<qdq", node.feature, node.threshold, node.prediction))
                if not node.is_leaf:
                    stack += [node.right, node.left]
        assert (digest.hexdigest()[:16], n_nodes) == ("8fb96a0bbd717d71", 232)


def _numpy_node_sets(rng, d, n_nodes):
    """A tree's next sorted node feature sets, drawn by numpy's own `choice`."""
    k = max(1, int(np.sqrt(d)))
    return [np.sort(rng.choice(d, size=k, replace=False)).tolist() for _ in range(n_nodes)]


class TestDraws:
    def test_raw_outputs_split_low_half_first(self):
        words = forest._Draws._halves(np.random.default_rng(5).bit_generator.random_raw(50))
        assert words.tolist() == np.random.default_rng(5).integers(0, 2**32, size=100, dtype=np.uint32).tolist()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 9, 32, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 45, 200])
    def test_bootstraps_and_node_sets_match_numpy(self, n, d):
        # 60 trees draw in rounds of a random subset, as a forest's trees do, so each reads several node blocks
        schedule = np.random.default_rng(n * 1000 + d)
        draws = forest._Draws(range(60), (n, d))
        bootstraps, node_sets = draws.bootstraps(), [[] for _ in range(60)]
        for _ in range(70):
            trees = np.flatnonzero(schedule.random(60) < 0.7).tolist()
            for tree, ids in zip(trees, draws.node_features(trees).tolist()):
                node_sets[tree].append(ids)
        assert min(map(len, node_sets)) >= 30
        for seed, (bootstrap, sets) in enumerate(zip(bootstraps.tolist(), node_sets)):
            rng = np.random.default_rng(seed)
            assert bootstrap == rng.integers(0, n, size=n).tolist()
            assert sets == _numpy_node_sets(rng, d, len(sets))

    # Lemire's multiply-shift rejects a word whose low half falls below 2**32 % bound: about half of them
    # below 2**31 + 1 and a quarter below 3 * 2**30, but only 5 in 2**32 below 2**32 - 5, the widest bound
    @pytest.mark.parametrize("bound, least", [(2**31 + 1, 1000), (3 * 2**30, 1000), (2**32 - 5, 0)])
    def test_rejected_words_are_redrawn_as_numpy_does(self, bound, least):
        # the helper redraws a rejected word one by one; the draw after shows each stream stands where numpy's does
        draws = forest._Draws(range(200), (50, 1))  # rows of 52 words
        trees, bounds = np.arange(200), np.full(50, bound, dtype=np.uint64)
        got = np.hstack([draws._bounded(trees, bounds), draws._bounded(trees, bounds[:1])])
        assert got.tolist() == [np.random.default_rng(seed).integers(0, bound, size=51).tolist() for seed in range(200)]
        rejections = 0
        for seed in range(200):
            words = iter(forest._Draws._halves(np.random.default_rng(seed).bit_generator.random_raw(500)).tolist())
            for _ in range(51):
                while (next(words) * bound) & 0xFFFFFFFF < 2**32 % bound:
                    rejections += 1
        assert rejections >= least

    def test_decoded_draws_are_pinned(self):
        # numpy may change what Generator methods draw between releases (NEP 19), but not PCG64's raw
        # stream; this hash of a primafacie-sized fit's draws keeps the forest's bits if the methods change
        draws = forest._Draws([derive_seed(7, "tree", t) for t in range(20)], (45, 32))
        decoded = [draws.bootstraps()] + [draws.node_features(list(range(20))) for _ in range(40)]
        assert hashlib.sha256(np.hstack(decoded).astype("<i8").tobytes()).hexdigest()[:16] == "0bd11b61ecc71afb"

    def test_a_deep_forest_reads_several_node_blocks_per_tree(self):
        rng = np.random.default_rng(29)
        x = np.round(rng.normal(size=(200, 9)), 1)
        y = (x[:, 0] + x[:, 4] + rng.normal(scale=1.0, size=200) > 0).astype(int)
        config = ForestConfig(n_trees=60, max_depth=8)
        model = forest_train(x, y, config, seed=29)
        # every split node drew its features, so most trees read a second block of node draws
        splits = [str(_describe_tree(tree)).count("'split'") for tree in model.trees]
        assert sum(count > forest._NODE_BLOCK for count in splits) > 40
        reference = _reference_trees(x, y, config, 29)
        assert [_describe_tree(t) for t in model.trees] == [_describe_tree(t) for t in reference]


# ---------------------------------------------------------------- prima facie report


class TestPrimaFacieReport:
    def test_seed_spread(self):
        per_seed = [
            ScenarioResult("Mixed", seed, neg, nonneg)
            for seed, neg, nonneg in ((0, 0.5, 0.7), (1, 0.6, 0.9), (2, 0.4, 0.6))
        ]
        report = PrimaFacieReport(per_seed=per_seed)
        (row,) = report.mean_rows()
        averages = [0.6, 0.75, 0.5]
        assert row["n_seeds"] == 3
        assert row["Average_min"] == pytest.approx(0.5)
        assert row["Average_max"] == pytest.approx(0.75)
        assert row["Average_std"] == pytest.approx(np.std(averages))
        markdown, tsv = render_table(report.mean_rows(), PRIMA_FACIE_COLUMNS)
        header, line = tsv.splitlines()
        assert header.split("\t")[4:7] == ["Average_min", "Average_max", "Average_std"]
        assert line.split("\t")[4:] == ["0.500000", "0.750000", f"{np.std(averages):.6f}", "3"]
        assert markdown.splitlines()[-1] == (
            f"| Mixed | 0.5000 | 0.7333 | 0.6167 | 0.5000 | 0.7500 | {np.std(averages):.4f} | 3 |"
        )
        assert report.per_seed[1].to_dict() == {
            "kind": "Mixed", "seed": 1, "Negative": 0.6, "NonNegative": 0.9, "Average": 0.75,
        }


# ---------------------------------------------------------------- LOSO benchmark


def test_benchmark_table_columns():
    row = VariantRow("motion_only", False, "N/A", {"Negative": 0.5, "Positive": 0.25, "Surprise": 1.0}, 7 / 12, 3)
    markdown, tsv = render_table([row.to_dict()], BENCHMARK_COLUMNS)
    assert markdown.splitlines() == [
        "| Variant | Motion Context | Ethnic Context | Ethnicity Representation "
        "| Negative | Positive | Surprise | Average MF1 |",
        "|---|---|---|---|---|---|---|---|",
        "| motion_only | yes | no | N/A | 0.5000 | 0.2500 | 1.0000 | 0.5833 |",
    ]
    assert tsv.splitlines() == [
        "variant\tethnic_context\trepresentation\tNegative\tPositive\tSurprise\taverage_mf1",
        "motion_only\t0\tN/A\t0.500000\t0.250000\t1.000000\t0.583333",
    ]


@pytest.fixture(scope="module")
def tiny_loso(tmp_path_factory):
    """Two subjects, two clips each, 32 px, with cheap flows."""
    root = tmp_path_factory.mktemp("tiny_loso")
    manifest, _ = synthesize_desk_corpus(SynthSpec(1, 2, 32), seed=3, out_dir=root / "corpus")
    materialize_flow_images(manifest, FlowParams(iterations=5), root / "flows")
    return manifest, root / "flows"


def tiny_loso_folds(manifest, flow_dir, **kwargs):
    _, folds = run_loso_variant(
        manifest, Variant.DUAL_MOTION, ModelConfig.toy(32), TrainConfig(epochs=2, batch_size=2), flow_dir, 0,
        **kwargs,
    )
    return folds


def run_tiny_loso(manifest, flow_dir, **kwargs):
    return [(f.held_out_subject, f.confusion.counts.tolist()) for f in tiny_loso_folds(manifest, flow_dir, **kwargs)]


def test_flows_identical_across_worker_counts(tiny_loso, tmp_path):
    manifest, _ = tiny_loso
    stats = {
        workers: materialize_flow_images(manifest, FlowParams(iterations=5), tmp_path / f"w{workers}", workers=workers)
        for workers in (1, 2)
    }
    assert stats[1].computed == stats[2].computed == len(manifest.records)
    assert stats[1].clip_fractions == stats[2].clip_fractions
    names = sorted(p.name for p in (tmp_path / "w1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "w2").iterdir())
    assert len(names) == 2 * len(manifest.records)  # one OFI file and one sidecar per clip
    for name in names:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes(), name
    for record in manifest.records:
        key = cache_key(asdict(FlowParams(iterations=5)), (record.onset_path, record.apex_path))
        path = pipeline.flow_image_path(tmp_path / "w1", record)
        value = {"clip_fraction": list(stats[1].clip_fractions[sample_key(record)]), "sha256": hash_file(path)}
        entry = {"key": key, "value": value}
        assert path.with_suffix(".ofi.json").read_text() == json.dumps(entry, sort_keys=True) + "\n"


_MIXED_PARAMS = FlowParams(iterations=5)


@pytest.fixture(scope="module")
def mixed_sizes(tmp_path_factory):
    """A manifest that alternates between a 32 px and a 48 px synthetic corpus in runs of 2, 1, 1, 2, 3
    and 3 same-size clips, and each clip's OFI file and sidecar from a one-pair solve."""
    root = tmp_path_factory.mktemp("mixed_sizes")
    small, _ = synthesize_desk_corpus(SynthSpec(1, 3, 32), seed=3, out_dir=root / "c32")
    large, _ = synthesize_desk_corpus(SynthSpec(1, 3, 48), seed=4, out_dir=root / "c48")
    s, l = small.records, [replace(r, clip_id=f"{r.clip_id}w") for r in large.records]
    manifest = build_manifest([s[0], s[1], l[0], s[2], l[1], l[2], s[3], s[4], s[5], l[3], l[4], l[5]], provenance={})
    expected = {}
    for record in manifest.records:
        flow = estimate_flow(load_frame(record.onset_path), load_frame(record.apex_path), _MIXED_PARAMS)
        path = pipeline.flow_image_path(root / "expected", record)
        path.parent.mkdir(exist_ok=True)
        image = assemble_flow_image(flow, compute_strain(flow))
        write_flow_image(image, path)
        key = cache_key(asdict(_MIXED_PARAMS), (record.onset_path, record.apex_path))
        value = {"clip_fraction": list(image.normalization.clip_fraction), "sha256": hash_file(path)}
        write_cache_entry(path.with_suffix(".ofi.json"), key, value)
        expected[path.name] = path.read_bytes()
        expected[path.name + ".json"] = path.with_suffix(".ofi.json").read_bytes()
    return manifest, expected


def solved_runs(monkeypatch):
    """Record the (N, H, W) shape of each stack that materialize_flow_images solves in this process."""
    shapes = []

    def traced(onset, apex, params):
        shapes.append(onset.values.shape)
        return estimate_flow(onset, apex, params)

    monkeypatch.setattr(pipeline, "estimate_flow", traced)
    return shapes


def flow_files(flow_dir):
    return {p.name: p.read_bytes() for p in Path(flow_dir).iterdir()}


@pytest.mark.parametrize(
    "stack_pixels, runs",
    [
        (hornschunck._STACK_PIXELS, [(2, 32), (1, 48), (1, 32), (2, 48), (3, 32), (3, 48)]),
        # at most two 32 px clips, and one 48 px clip, per stack
        (2 * 32 * 32, [(2, 32), (1, 48), (1, 32), (1, 48), (1, 48), (2, 32), (1, 32), (1, 48), (1, 48), (1, 48)]),
    ],
)
def test_mixed_size_runs_match_one_pair_solves(mixed_sizes, tmp_path, monkeypatch, stack_pixels, runs):
    manifest, expected = mixed_sizes
    monkeypatch.setattr(hornschunck, "_STACK_PIXELS", stack_pixels)
    shapes = solved_runs(monkeypatch)
    stats = materialize_flow_images(manifest, _MIXED_PARAMS, tmp_path / "w1")
    assert shapes == [(n, side, side) for n, side in runs]
    assert (stats.computed, stats.cached) == (12, 0)
    assert flow_files(tmp_path / "w1") == expected
    monkeypatch.undo()
    two = materialize_flow_images(manifest, _MIXED_PARAMS, tmp_path / "w2", workers=2)
    assert (two.computed, two.cached) == (12, 0)
    assert two.clip_fractions == stats.clip_fractions
    assert flow_files(tmp_path / "w2") == expected


def test_a_cache_hit_inside_a_run_is_skipped(mixed_sizes, tmp_path, monkeypatch):
    manifest, expected = mixed_sizes
    flow_dir = tmp_path / "flows"
    materialize_flow_images(manifest, _MIXED_PARAMS, flow_dir)
    s3, s4, s5 = manifest.records[6:9]  # one run of three 32 px clips
    for record in (s3, s5):
        pipeline.flow_image_path(flow_dir, record).unlink()
    kept = pipeline.flow_image_path(flow_dir, s4)
    kept_stamp = kept.stat().st_mtime_ns
    shapes = solved_runs(monkeypatch)
    stats = materialize_flow_images(manifest, _MIXED_PARAMS, flow_dir)
    assert shapes == [(2, 32, 32)]  # s3 and s5, the pending records either side of the hit
    assert (stats.computed, stats.cached) == (2, 10)
    assert kept.stat().st_mtime_ns == kept_stamp  # the hit is not rewritten
    assert flow_files(flow_dir) == expected


@pytest.mark.parametrize("workers, written", [(1, [0, 1, 2, 3]), (2, [0, 1, 2, 3, 6, 7, 8, 9, 10, 11])])
def test_a_bad_frame_costs_only_its_run(mixed_sizes, tmp_path, workers, written):
    manifest, expected = mixed_sizes
    records = list(manifest.records)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(Path(records[5].apex_path).read_bytes()[:-1])  # header intact, one pixel short
    records[5] = replace(records[5], apex_path=str(bad))  # the second of a run of two 48 px clips
    with pytest.raises(DataError, match="truncated pixel data"):
        materialize_flow_images(build_manifest(records, provenance={}), _MIXED_PARAMS, tmp_path / "flows", workers=workers)
    # one worker stops at the bad run; a pool still solves every other run
    names = [pipeline.flow_image_path(tmp_path / "flows", records[i]).name for i in written]
    assert flow_files(tmp_path / "flows") == {n: expected[n] for name in names for n in (name, name + ".json")}


def test_changed_frame_recomputes_only_its_flow(tmp_path):
    manifest, _ = synthesize_desk_corpus(SynthSpec(1, 2, 32), seed=3, out_dir=tmp_path / "corpus")
    flow_dir = tmp_path / "flows"
    materialize_flow_images(manifest, FlowParams(iterations=5), flow_dir)
    sidecars = {r.apex_path: pipeline.flow_image_path(flow_dir, r).with_suffix(".ofi.json") for r in manifest.records}
    before = {apex: sidecar.read_bytes() for apex, sidecar in sidecars.items()}
    changed = manifest.records[1].apex_path
    frame = Path(changed).read_bytes()
    Path(changed).write_bytes(frame[:-1] + bytes([frame[-1] ^ 1]))  # one pixel, one grey level
    stats = materialize_flow_images(manifest, FlowParams(iterations=5), flow_dir)
    assert (stats.computed, stats.cached) == (1, len(manifest.records) - 1)
    assert [apex for apex, sidecar in sidecars.items() if sidecar.read_bytes() != before[apex]] == [changed]


# Cache keys of fixed inputs, written by earlier versions; a change here silently invalidates every
# stored cache entry.
_DEFAULT_FLOW_KEY = "f0a587ee5a66032831420b30425315db98aa33d841a946ff7d11c91919017519"  # default FlowParams, fixed frames
_TINY_LOSO_FOLD_KEYS = {  # run_tiny_loso's fold keys on fixed_loso_inputs
    "sa01": "5a4788b1fd3d967c6c4200c11a15c93a5b72304f17d10ff674d88e81d1251e6b",
    "sn01": "346952dba1d4e91c2d126d849fb45743e60ee74ccd642e7a13beab4c59d6c4ff",
}
# The same keys while the model config held a motion and an ethnic_conv encoder config
_TWO_CONV_CONFIG_FOLD_KEYS = {
    "sa01": "9f2174ca189c5ee648bac6644328ad977db4d634b306b6e9d8a9a8ba89bb9c99",
    "sn01": "24bae96a78e5ee9c3d0a923dced67e89c0fd0bd59892f3f89d17ac2e3d2d3a4b",
}


def fixed_loso_inputs(flow_dir: Path):
    """A two-subject manifest whose OFI files hold fixed bytes; a cache hit never parses them."""
    records = records_for(["sa01"]) + records_for(["sn01"], ethnicity=RawEthnicity.CAUCASIAN)
    flow_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        pipeline.flow_image_path(flow_dir, record).write_bytes(f"flow of {sample_key(record)}".encode())
    return build_manifest(records, provenance={})


def test_stored_flow_sidecar_is_a_cache_hit(tmp_path):
    (tmp_path / "onset.pgm").write_bytes(b"onset frame")
    (tmp_path / "apex.pgm").write_bytes(b"apex frame")
    records = [
        replace(r, onset_path=str(tmp_path / "onset.pgm"), apex_path=str(tmp_path / "apex.pgm"))
        for r in records_for(["s1", "s2"])
    ]
    manifest = build_manifest(records, provenance={})
    for record in manifest.records:
        path = pipeline.flow_image_path(tmp_path, record)
        path.write_bytes(b"")  # a hit only hashes the OFI file: these bytes are never parsed
        value = {"clip_fraction": [0.25, 0.5, 0.0], "sha256": hashlib.sha256(b"").hexdigest()}
        path.with_suffix(".ofi.json").write_text(json.dumps({"key": _DEFAULT_FLOW_KEY, "value": value}))
    stats = materialize_flow_images(manifest, FlowParams(), tmp_path)
    assert (stats.computed, stats.cached) == (0, len(manifest.records))
    assert set(stats.clip_fractions.values()) == {(0.25, 0.5, 0.0)}


def _store_tiny_folds(tmp_path, keys) -> None:
    """Each subject's two clips are Positive then Negative; sa01's are predicted right, sn01's as Negative
    and Surprise."""
    predictions = {"sa01": [1, 0], "sn01": [0, 2]}
    for subject, key in keys.items():
        entry = {"key": key, "value": predictions[subject]}
        (tmp_path / f"fold_dual_motion_{subject}.json").write_text(json.dumps(entry))


def test_stored_fold_checkpoint_is_a_cache_hit(tmp_path):
    manifest = fixed_loso_inputs(tmp_path / "flows")
    _store_tiny_folds(tmp_path, _TINY_LOSO_FOLD_KEYS)
    # a pending fold would fail to parse its fixed-bytes OFI files
    assert run_tiny_loso(manifest, tmp_path / "flows", checkpoint_dir=tmp_path) == [
        ("sa01", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
        ("sn01", [[0, 0, 1], [1, 0, 0], [0, 0, 0]]),
    ]


def test_a_fold_stored_under_the_two_conv_config_key_is_a_miss(tmp_path):
    manifest = fixed_loso_inputs(tmp_path / "flows")
    _store_tiny_folds(tmp_path, _TWO_CONV_CONFIG_FOLD_KEYS)
    # the fold is pending, so it reads its fixed-bytes OFI files, which are no flow images
    with pytest.raises(DataError, match="bad magic"):
        run_tiny_loso(manifest, tmp_path / "flows", checkpoint_dir=tmp_path)


class TestRunLosoVariant:
    def test_reads_each_ofi_once(self, tiny_loso, monkeypatch):
        manifest, flow_dir = tiny_loso
        reads = Counter()
        original = pipeline.read_flow_image

        def counting_read(path):
            reads[Path(path).name] += 1
            return original(path)

        monkeypatch.setattr(pipeline, "read_flow_image", counting_read)
        run_tiny_loso(manifest, flow_dir)
        assert len(reads) == len(manifest.eligible())
        assert set(reads.values()) == {1}

    def test_worker_count_does_not_change_results(self, tiny_loso, tmp_path):
        manifest, flow_dir = tiny_loso
        models = {workers: tmp_path / f"model_w{workers}.meck" for workers in (1, 2)}
        folds = {workers: run_tiny_loso(manifest, flow_dir, workers=workers, model_path=models[workers])
                 for workers in (1, 2)}
        assert folds[1] == folds[2]
        assert models[1].read_bytes() == models[2].read_bytes()

    @pytest.mark.parametrize(
        "workers",
        [
            1,
            pytest.param(2, marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork", reason="only forked workers see the patched train_fold"
            )),
        ],
    )
    def test_finished_folds_stay_checkpointed_when_a_later_fold_fails(self, tiny_loso, tmp_path, monkeypatch, workers):
        manifest, flow_dir = tiny_loso
        plans = plan_loso(manifest.eligible())
        first, last = plans[0].held_out_subject, plans[-1].held_out_subject
        original = benchmark.train_fold

        def failing_train_fold(samples, *args):
            if all(s.key.split(":")[1] != last for s in samples):  # the fold holding out `last`
                raise RuntimeError("interrupted")
            return original(samples, *args)

        monkeypatch.setattr(benchmark, "train_fold", failing_train_fold)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_tiny_loso(manifest, flow_dir, checkpoint_dir=tmp_path, workers=workers)
        assert (tmp_path / f"fold_dual_motion_{first}.json").exists()
        assert not (tmp_path / f"fold_dual_motion_{last}.json").exists()

    def test_cached_resume_loads_and_trains_nothing(self, tiny_loso, tmp_path, monkeypatch):
        manifest, flow_dir = tiny_loso
        first = tiny_loso_folds(manifest, flow_dir, checkpoint_dir=tmp_path)
        base = benchmark.loso_key_base(
            manifest.eligible(), Variant.DUAL_MOTION, ModelConfig.toy(32), TrainConfig(epochs=2, batch_size=2),
            flow_dir, 0,
        )
        for fold in first:
            subject = fold.held_out_subject
            assert fold.actual == tuple(emotion_index(r) for r in manifest.eligible() if r.subject_id == subject)
            entry = {"key": cache_key({"loso": base, "held_out": subject}), "value": list(fold.predicted)}
            text = (tmp_path / f"fold_dual_motion_{subject}.json").read_text()
            assert text == json.dumps(entry, sort_keys=True) + "\n"

        def forbidden(*args, **kwargs):
            raise AssertionError("a fully cached resume must not load samples or train")

        monkeypatch.setattr(benchmark, "load_train_samples", forbidden)
        monkeypatch.setattr(benchmark, "train_fold", forbidden)
        assert tiny_loso_folds(manifest, flow_dir, checkpoint_dir=tmp_path) == first

    @pytest.mark.parametrize("name", ["flow", "rgb"])
    def test_clips_of_two_sizes_are_refused_before_any_job_runs(self, tiny_loso, monkeypatch, name):
        manifest, flow_dir = tiny_loso
        samples = pipeline.load_train_samples(manifest.eligible(), flow_dir, need_rgb=True)
        last = samples[-1]
        setattr(last, name, np.zeros((3, 16, 16), getattr(last, name).dtype))
        monkeypatch.setattr(benchmark, "load_train_samples", lambda *args, **kwargs: samples)

        def forbidden(*args, **kwargs):
            raise AssertionError("a job ran on clips of two sizes")

        monkeypatch.setattr(benchmark, "train_fold", forbidden)
        message = rf"clip {last.key} has {name} shape \(3, 16, 16\), but clip {samples[0].key} has \(3, 32, 32\)"
        with pytest.raises(DataError, match=message):
            run_loso_variant(manifest, Variant.MOTION_RGB_CONV, ModelConfig.toy(32), TrainConfig(epochs=1), flow_dir, 0)


# ---------------------------------------------------------------- samples at file precision


def _pnm_bytes(magic: bytes, raw: np.ndarray, maxval: int) -> bytes:
    """A P2/P3/P5/P6 file holding the integer samples raw, (H, W) gray or (H, W, 3) RGB."""
    header = b"%s\n%d %d\n%d\n" % (magic, raw.shape[1], raw.shape[0], maxval)
    if magic in (b"P2", b"P3"):
        return header + " ".join(str(v) for v in raw.ravel().tolist()).encode() + b"\n"
    return header + raw.astype(">u2" if maxval > 255 else "u1").tobytes()


@pytest.fixture(scope="module")
def corpus_64px(tmp_path_factory):
    """Two subjects, two clips each, 64 px, with cheap flows."""
    root = tmp_path_factory.mktemp("corpus_64px")
    manifest, _ = synthesize_desk_corpus(SynthSpec(1, 2, 64), seed=3, out_dir=root / "corpus")
    materialize_flow_images(manifest, FlowParams(iterations=5), root / "flows")
    return manifest, root / "flows"


class TestSamplesAtFilePrecision:
    def test_batch_rgb_is_the_float64_division_of_the_samples_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        cases = [(b"P5", 255), (b"P5", 65535), (b"P6", 255), (b"P6", 65535), (b"P2", 255), (b"P3", 1000)]
        batch, expected = [], []
        for i, (magic, maxval) in enumerate(cases):
            raw = rng.integers(0, maxval + 1, (4, 5, 3) if magic in (b"P3", b"P6") else (4, 5))
            raw.flat[:2] = (0, maxval)
            path = tmp_path / f"frame{i}.pnm"
            path.write_bytes(_pnm_bytes(magic, raw, maxval))
            pixels, file_maxval = load_rgb_frame(path)
            assert file_maxval == maxval and pixels.dtype == (np.uint8 if maxval <= 255 else np.uint16)
            planes = raw.transpose(2, 0, 1) if raw.ndim == 3 else np.repeat(raw[None], 3, axis=0)  # gray: replicated
            expected.append(planes.astype(np.float64) / float(maxval))
            if raw.ndim == 2:  # a gray frame's planes are what load_frame loads
                assert np.array_equal(expected[-1][0].view(np.uint64), load_frame(path).values.view(np.uint64))
            flow = np.zeros((3, 4, 5), np.float32)
            batch.append(TrainSample(flow=flow, emotion=0, ethnicity=0, rgb=pixels, rgb_maxval=maxval))
        rgb = _batch_inputs(batch, Variant.MOTION_RGB_PATCH).rgb
        assert rgb.dtype == np.float64
        np.testing.assert_array_equal(rgb.view(np.uint64), np.stack(expected).view(np.uint64))

    def test_model_inputs_are_the_float64_widening_bit_for_bit(self, corpus_64px):
        manifest, flow_dir = corpus_64px
        records = manifest.eligible()
        samples = pipeline.load_train_samples(records, flow_dir, need_rgb=True)
        wide = np.stack([read_flow_image(pipeline.flow_image_path(flow_dir, r)).as_array() for r in records])
        assert all(s.flow.dtype == np.float32 and s.rgb.dtype == np.uint8 and s.rgb_maxval == 255 for s in samples)
        np.testing.assert_array_equal(np.stack([s.flow for s in samples]).astype(np.float64).view(np.uint64),
                                      wide.view(np.uint64))
        config = ModelConfig.toy(64)
        for variant in (Variant.DUAL_MOTION, Variant.MOTION_RGB_CONV):
            params = init_params(config, variant, 0)
            inputs = _batch_inputs(samples, variant)
            compact = forward(inputs, params, config, variant, requires_grad=False)
            widened = forward(ModelInputs(flow=wide, rgb=inputs.rgb), params, config, variant, requires_grad=False)
            for head in ("emotion_logits", "ethnicity_logits", "fused_logits"):
                got, ref = getattr(compact, head).data, getattr(widened, head).data
                np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_samples_hold_at_most_64_kb_per_64_px_clip(self, corpus_64px):
        manifest, flow_dir = corpus_64px
        records = manifest.eligible()
        tracemalloc.start()
        try:
            samples = pipeline.load_train_samples(records, flow_dir, need_rgb=True)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / len(samples) <= 64 * 1024
