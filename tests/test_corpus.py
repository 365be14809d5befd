import json

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter, map_coordinates

from mebench.corpus import (
    AnnotationError,
    CorrectionRule,
    Dataset,
    Gender,
    Manifest,
    MappedEmotion,
    MappedEthnicity,
    RawEthnicity,
    SampleRecord,
    SynthSpec,
    TablePredictor,
    UnknownLabelError,
    annotate_attributes,
    apply_heuristic_corrections,
    build_manifest,
    finalize_mappings,
    ingest_dataset_index,
    load_ledger,
    load_manifest,
    map_emotion,
    map_ethnicity,
    save_manifest,
    summarize_distribution,
    synthesize_desk_corpus,
)
from mebench.corpus.corrections import StaleRuleWarning
from mebench.corpus.manifest import DanglingPathError, DuplicateKeyError, MissingColumnError
from mebench.corpus.synth import make_base_texture, render_clip
from mebench.errors import ConfigError, DataError
from mebench.flowcore import GrayFrame, write_pgm
from mebench.runutil import from_json_dict, to_json_dict


def make_record(subject="s01", clip="c01", emotion="happiness", ethnicity=RawEthnicity.ASIAN, dataset=Dataset.SYNTH):
    return SampleRecord(
        dataset=dataset,
        subject_id=subject,
        clip_id=clip,
        onset_path=f"/tmp/{subject}_{clip}_on.pgm",
        apex_path=f"/tmp/{subject}_{clip}_ap.pgm",
        raw_emotion=emotion,
        raw_ethnicity=ethnicity,
    )


def write_index(tmp_path, rows, name="index.csv"):
    frames = tmp_path / "fr"
    frames.mkdir(exist_ok=True)
    lines = ["subject,clip,onset,apex,emotion"]
    for subject, clip, emotion in rows:
        onset = frames / f"{subject}_{clip}_on.pgm"
        apex = frames / f"{subject}_{clip}_ap.pgm"
        for p in (onset, apex):
            if not p.exists():
                write_pgm(p, np.zeros((8, 8)))
        lines.append(f"{subject},{clip},fr/{onset.name},fr/{apex.name},{emotion}")
    index = tmp_path / name
    index.write_text("\n".join(lines) + "\n")
    return index


# ---------------------------------------------------------------- label maps


class TestLabelMaps:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (RawEthnicity.CAUCASIAN, MappedEthnicity.NON_ASIAN),
            (RawEthnicity.AFRICAN, MappedEthnicity.NON_ASIAN),
            (RawEthnicity.ASIAN, MappedEthnicity.ASIAN),
            (RawEthnicity.INDIAN, MappedEthnicity.ASIAN),
            (RawEthnicity.OTHERS, MappedEthnicity.ASIAN),
        ],
    )
    def test_ethnicity_map(self, raw, expected):
        assert map_ethnicity(raw) == expected

    def test_unknown_ethnicity(self):
        with pytest.raises(UnknownLabelError):
            map_ethnicity("Martian")

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("happiness", MappedEmotion.POSITIVE),
            ("anger", MappedEmotion.NEGATIVE),
            ("contempt", MappedEmotion.NEGATIVE),
            ("disgust", MappedEmotion.NEGATIVE),
            ("fear", MappedEmotion.NEGATIVE),
            ("repression", MappedEmotion.NEGATIVE),
            ("sadness", MappedEmotion.NEGATIVE),
            ("surprise", MappedEmotion.SURPRISE),
            ("others", MappedEmotion.EXCLUDED),
            ("HAPPINESS", MappedEmotion.POSITIVE),
        ],
    )
    def test_emotion_map(self, raw, expected):
        assert map_emotion(raw) == expected

    def test_unknown_emotion(self):
        with pytest.raises(UnknownLabelError):
            map_emotion("melancholy")

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(list(RawEthnicity)))
    def test_ethnicity_total_and_pure(self, raw):
        assert map_ethnicity(raw) == map_ethnicity(raw)

    def test_conservation_under_mapping(self):
        records = (
            [make_record(f"s{i}", "c1", "happiness") for i in range(3)]
            + [make_record(f"t{i}", "c1", "disgust", RawEthnicity.CAUCASIAN) for i in range(2)]
            + [make_record("u0", "c1", "others")]
        )
        mapped = finalize_mappings(records)
        counts = {}
        for rec in mapped:
            counts[rec.mapped_emotion] = counts.get(rec.mapped_emotion, 0) + 1
        assert sum(counts.values()) == len(records)
        assert counts[MappedEmotion.EXCLUDED] == 1


# ---------------------------------------------------------------- ingest


class TestIngest:
    def test_three_rows(self, tmp_path):
        index = write_index(tmp_path, [("s01", "c01", "happiness"), ("s01", "c02", "disgust"), ("s02", "c01", "surprise")])
        records = ingest_dataset_index(index, Dataset.CASME2)
        assert len(records) == 3
        assert records[0].subject_id == "s01"
        assert records[0].raw_emotion == "happiness"
        assert records[0].mapped_emotion is None

    def test_duplicate_clip(self, tmp_path):
        index = write_index(tmp_path, [("s01", "c01", "happiness"), ("s01", "c01", "disgust")])
        with pytest.raises(DuplicateKeyError, match="s01"):
            ingest_dataset_index(index, Dataset.CASME2)

    def test_case_folding(self, tmp_path):
        index = write_index(tmp_path, [("s01", "c01", "Happiness")])
        records = ingest_dataset_index(index, Dataset.CASME2)
        assert records[0].raw_emotion == "happiness"

    def test_missing_column(self, tmp_path):
        index = tmp_path / "bad.csv"
        index.write_text("subject,clip,emotion\ns01,c01,happiness\n")
        with pytest.raises(MissingColumnError):
            ingest_dataset_index(index, Dataset.SAMM)

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n"], ids=["empty", "newline", "blank"])
    def test_empty_index_is_data_error(self, tmp_path, text):
        index = tmp_path / "empty.csv"
        index.write_text(text)
        with pytest.raises(DataError, match="empty index"):
            ingest_dataset_index(index, Dataset.SAMM)

    def test_dangling_path(self, tmp_path):
        index = tmp_path / "dangling.csv"
        index.write_text("subject,clip,onset,apex,emotion\ns01,c01,no.pgm,no2.pgm,happiness\n")
        with pytest.raises(DanglingPathError):
            ingest_dataset_index(index, Dataset.SAMM)

    def test_tab_delimited(self, tmp_path):
        frames = tmp_path / "fr"
        frames.mkdir()
        write_pgm(frames / "a.pgm", np.zeros((8, 8)))
        index = tmp_path / "index.tsv"
        index.write_text("subject\tclip\tonset\tapex\temotion\ns01\tc01\tfr/a.pgm\tfr/a.pgm\tfear\n")
        records = ingest_dataset_index(index, Dataset.SAMM)
        assert records[0].raw_emotion == "fear"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with EF BB BF
        index = write_index(tmp_path, [("s01", "c01", "happiness"), ("s02", "c01", "fear")])
        plain = ingest_dataset_index(index, Dataset.CASME2)
        index.write_bytes(b"\xef\xbb\xbf" + index.read_bytes())
        assert ingest_dataset_index(index, Dataset.CASME2) == plain

    @pytest.mark.parametrize(
        "header, row, message",
        [
            ("subject,clip,onset,apex,emotion,Emotion ", "happiness,fear", r"line 1: repeated columns \['emotion'\]"),
            ("subject,clip,onset,apex,emotion", "happiness,x,y", "line 2: 2 more cells than the header.s 5"),
        ],
        ids=["repeated-column", "long-row"],
    )
    def test_a_row_that_does_not_fit_its_header_is_refused(self, tmp_path, header, row, message):
        frames = tmp_path / "fr"
        frames.mkdir()
        write_pgm(frames / "a.pgm", np.zeros((8, 8)))
        index = tmp_path / "index.csv"
        index.write_text(f"{header}\ns01,c01,fr/a.pgm,fr/a.pgm,{row}\n")
        with pytest.raises(DataError, match=message):
            ingest_dataset_index(index, Dataset.CASME2)


# ---------------------------------------------------------------- predictor


class TestPredictor:
    def test_table_stub_passthrough(self):
        frame = GrayFrame(np.zeros((8, 8)))
        predictor = TablePredictor({"S01": RawEthnicity.ASIAN})
        record = annotate_attributes(frame, predictor, "S01")
        assert record.raw_ethnicity == RawEthnicity.ASIAN

    def test_predictor_failure_names_sample(self):
        frame = GrayFrame(np.zeros((8, 8)))
        predictor = TablePredictor({})
        with pytest.raises(AnnotationError, match="S99"):
            annotate_attributes(frame, predictor, "S99")

    def test_deterministic(self):
        frame = GrayFrame(np.zeros((8, 8)))
        predictor = TablePredictor({"S01": (Gender.FEMALE, 31, RawEthnicity.INDIAN)})
        a = annotate_attributes(frame, predictor, "S01")
        b = annotate_attributes(frame, predictor, "S01")
        assert a == b
        assert a.age == 31

    def test_a_negative_age_is_an_annotation_error(self):
        predictor = TablePredictor({"S01": (Gender.FEMALE, -1, RawEthnicity.INDIAN)})
        with pytest.raises(AnnotationError, match="S01.*age must be >= 0, got -1"):
            annotate_attributes(GrayFrame(np.zeros((8, 8))), predictor, "S01")

    @pytest.mark.parametrize(
        "age", [20.7, 20.0, True, "20.7", " 20", "", None],
        ids=["fraction", "whole-float", "bool", "fraction-string", "padded-string", "empty-string", "none"],
    )
    def test_an_age_that_is_not_a_whole_number_is_an_annotation_error(self, age):
        predictor = TablePredictor({"S01": (Gender.FEMALE, age, RawEthnicity.INDIAN)})
        with pytest.raises(AnnotationError, match="S01.*age must be a whole number of years"):
            annotate_attributes(GrayFrame(np.zeros((8, 8))), predictor, "S01")

    @pytest.mark.parametrize("age", [20, "20", 0, "0"])
    def test_an_int_or_a_digit_string_is_an_age(self, age):
        predictor = TablePredictor({"S01": (Gender.FEMALE, age, RawEthnicity.INDIAN)})
        assert annotate_attributes(GrayFrame(np.zeros((8, 8))), predictor, "S01").age == int(age)


# ---------------------------------------------------------------- corrections


class TestCorrections:
    def test_others_to_asian_rule(self):
        records = [make_record("S05", "c01", ethnicity=RawEthnicity.OTHERS)]
        rule = CorrectionRule(attribute="raw_ethnicity", subject_id="S05", expect="Others", replacement="Asian")
        corrected, audit = apply_heuristic_corrections(records, [rule])
        assert corrected[0].raw_ethnicity == RawEthnicity.ASIAN
        assert corrected[0].corrected
        assert len(audit) == 1
        assert audit[0].before == "Others" and audit[0].after == "Asian"

    def test_empty_ledger(self):
        records = [make_record()]
        corrected, audit = apply_heuristic_corrections(records, [])
        assert corrected == records and audit == []

    def test_last_writer_wins(self):
        records = [make_record("S01")]
        rules = [
            CorrectionRule(attribute="raw_ethnicity", subject_id="S01", replacement="Indian"),
            CorrectionRule(attribute="raw_ethnicity", subject_id="S01", replacement="Others"),
        ]
        corrected, audit = apply_heuristic_corrections(records, rules)
        assert corrected[0].raw_ethnicity == RawEthnicity.OTHERS
        assert len(audit) == 2

    def test_stale_rule_warning(self):
        records = [make_record("S01")]
        rule = CorrectionRule(attribute="raw_ethnicity", subject_id="S77", replacement="Asian")
        with pytest.warns(StaleRuleWarning):
            apply_heuristic_corrections(records, [rule])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(list(RawEthnicity)), st.sampled_from(list(RawEthnicity)))
    def test_idempotent(self, start, target):
        records = [make_record("S01", ethnicity=start)]
        rules = [CorrectionRule(attribute="raw_ethnicity", subject_id="S01", replacement=target.value)]
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            once, _ = apply_heuristic_corrections(records, rules)
            twice, _ = apply_heuristic_corrections(once, rules)
        assert once == twice

    def test_ledger_round_trip(self, tmp_path):
        rules = [
            CorrectionRule(attribute="raw_ethnicity", subject_id="S05", expect="Others", replacement="Asian", note="manual check"),
            CorrectionRule(attribute="age", replacement="30", dataset="SAMM"),
        ]
        path = tmp_path / "rules.jsonl"
        path.write_text("".join(json.dumps(to_json_dict(r)) + "\n" for r in rules), encoding="utf-8")
        assert load_ledger(path) == rules

    def test_a_negative_age_replacement_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="age must be >= 0, got -40"):
            CorrectionRule(attribute="age", replacement="-40")
        path = tmp_path / "rules.jsonl"
        path.write_text('{"attribute": "age", "replacement": "-40"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match="rules.jsonl:1"):
            load_ledger(path)


# ---------------------------------------------------------------- manifest


class TestManifest:
    def test_build_counts(self):
        records = finalize_mappings(
            [make_record("s1", "c1"), make_record("s1", "c2"), make_record("s2", "c1")]
        )
        manifest = build_manifest(records, {"seed": 1})
        assert len(manifest.records) == 3

    def test_excluded_flagged_not_dropped(self):
        records = finalize_mappings([make_record("s1", "c1", "others"), make_record("s1", "c2", "fear")])
        manifest = build_manifest(records, {})
        assert len(manifest.records) == 2
        assert len(manifest.eligible()) == 1

    def test_duplicate_key(self):
        records = [make_record("s1", "c1"), make_record("s1", "c1")]
        with pytest.raises(DuplicateKeyError):
            build_manifest(records, {})

    @pytest.mark.parametrize("subject, clip", [("/../../escaped", "c"), ("s1", "a\\b"), ("", "c"), ("s1", "."),
                                               ("..", "c")])
    def test_id_that_is_not_one_path_safe_name_is_refused(self, subject, clip):
        records = [make_record("s0", "c0"), make_record(subject, clip)]
        with pytest.raises(DataError, match="path-safe") as info:
            build_manifest(records, {})
        assert repr((subject, clip)) in str(info.value)

    def test_records_sharing_a_flow_file_stem_are_refused(self):
        records = [make_record("a_b", "c"), make_record("a", "b_c")]
        with pytest.raises(DataError, match="share the flow file stem 'SYNTH_a_b_c'") as info:
            build_manifest(records, {})
        assert "('a_b', 'c')" in str(info.value) and "('a', 'b_c')" in str(info.value)

    def test_subject_across_datasets_rejected(self):
        records = [make_record("s1", "c1", dataset=Dataset.CASME2), make_record("s1", "c2", dataset=Dataset.SAMM)]
        with pytest.raises(DataError, match="disambiguate"):
            build_manifest(records, {})

    def test_subject_across_ethnic_groups_rejected(self):
        records = finalize_mappings(
            [make_record("s1", "c1"), make_record("s1", "c2", ethnicity=RawEthnicity.CAUCASIAN)]
        )
        with pytest.raises(DataError, match="inconsistent ethnicity"):
            build_manifest(records, {})
        with pytest.raises(DataError, match="inconsistent ethnicity"):
            summarize_distribution(records)

    def test_loading_a_subject_split_across_ethnic_groups_is_data_error(self, tmp_path):
        records = finalize_mappings([make_record("s1", "c1"), make_record("s1", "c2"), make_record("s2", "c1")])
        path = tmp_path / "m.jsonl"
        save_manifest(build_manifest(records, {}), path)
        head, *lines = path.read_text(encoding="utf-8").splitlines()
        relabelled = json.loads(lines[1])
        assert (relabelled["subject_id"], relabelled["clip_id"]) == ("s1", "c2")
        relabelled.update(raw_ethnicity="Caucasian", mapped_ethnicity="NonAsian")
        lines[1] = json.dumps(relabelled)
        path.write_text("\n".join([head, *lines]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="'s1' has inconsistent ethnicity"):
            load_manifest(path)

    def test_loading_a_negative_age_is_data_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        save_manifest(build_manifest(finalize_mappings([replace(make_record("s1", "c1"), age=30)]), {}), path)
        text = path.read_text(encoding="utf-8")
        assert text.count('"age": 30') == 1
        path.write_text(text.replace('"age": 30', '"age": -7'), encoding="utf-8")
        with pytest.raises(DataError, match=r"\('s1', 'c1'\): age must be >= 0, got -7"):
            load_manifest(path)
        with pytest.raises(DataError, match="age must be >= 0"):
            replace(make_record(), age=-1)

    def test_provenance_round_trip(self, tmp_path):
        records = finalize_mappings([make_record()])
        provenance = {"seed": 7, "flow_params": {"smoothness_alpha": 15.0}, "ledger_hash": "abc"}
        manifest = build_manifest(records, provenance)
        path = tmp_path / "m.jsonl"
        save_manifest(manifest, path)
        back = load_manifest(path)
        assert back.provenance == provenance

    def test_record_round_trip(self, tmp_path, synth_corpus_small):
        manifest, _ = synth_corpus_small
        out = tmp_path / "copy.jsonl"
        save_manifest(manifest, out)
        back = load_manifest(out)
        assert [r.key for r in back.records] == [r.key for r in manifest.records]
        assert [r.mapped_emotion for r in back.records] == [r.mapped_emotion for r in manifest.records]

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            SampleRecord,
            dataset=st.sampled_from(list(Dataset)),
            subject_id=st.text(),
            clip_id=st.text(),
            onset_path=st.text(),
            apex_path=st.text(),
            raw_emotion=st.text(),
            mapped_emotion=st.none() | st.sampled_from(list(MappedEmotion)),
            raw_ethnicity=st.none() | st.sampled_from(list(RawEthnicity)),
            mapped_ethnicity=st.none() | st.sampled_from(list(MappedEthnicity)),
            gender=st.sampled_from(list(Gender)),
            age=st.none() | st.integers(0, 120),
            corrected=st.booleans(),
        )
    )
    def test_record_json_round_trip(self, record):
        assert from_json_dict(SampleRecord, json.loads(json.dumps(to_json_dict(record)))) == record

    def test_record_json_form_is_strict(self):
        d = to_json_dict(finalize_mappings([make_record()])[0])
        assert d["mapped_emotion"] == "Positive" and d["gender"] == "unknown" and d["age"] is None
        with pytest.raises(KeyError):
            from_json_dict(SampleRecord, {k: v for k, v in d.items() if k != "gender"})
        for bad in (list(d), {**d, "age": "x"}, {**d, "age": True}, {**d, "corrected": "yes"}, {**d, "clip_id": 1}):
            with pytest.raises(TypeError):
                from_json_dict(SampleRecord, bad)
        with pytest.raises(ValueError):
            from_json_dict(SampleRecord, {**d, "raw_ethnicity": "Martian"})


# ---------------------------------------------------------------- distribution


class TestDistribution:
    def make_paper_shaped_records(self):
        """Raw counts mirroring the published subject/video tables."""
        subj_spec = [
            (RawEthnicity.CAUCASIAN, 15, 88),
            (RawEthnicity.AFRICAN, 2, 4),
            (RawEthnicity.ASIAN, 31, 183),
            (RawEthnicity.INDIAN, 2, 5),
            (RawEthnicity.OTHERS, 4, 11),
        ]
        emotions = ["happiness"] * 58 + ["anger"] * 30 + ["contempt"] * 30 + ["disgust"] * 66 + [
            "fear"
        ] * 30 + ["repression"] * 18 + ["sadness"] * 18 + ["surprise"] * 40 + ["others"] * 1
        assert len(emotions) == 291
        records = []
        e = 0
        for gi, (eth, n_subj, n_vid) in enumerate(subj_spec):
            per = n_vid // n_subj
            extra = n_vid - per * n_subj
            for si in range(n_subj):
                count = per + (1 if si < extra else 0)
                for ci in range(count):
                    records.append(make_record(f"g{gi}s{si}", f"c{ci}", emotions[e], eth))
                    e += 1
        assert e == 291
        return finalize_mappings(records)

    def test_paper_table_aggregates(self):
        records = self.make_paper_shaped_records()
        report = summarize_distribution(records)
        assert report.subjects_by_mapped_ethnicity == {"Asian": 37, "NonAsian": 17}
        assert report.total_subjects == 54
        assert report.videos_by_mapped_ethnicity == {"Asian": 199, "NonAsian": 92}
        assert report.videos_by_mapped_emotion == {"Positive": 58, "Negative": 192, "Surprise": 40}
        assert report.eligible_videos == 290
        assert report.total_videos == 291
        assert report.excluded_videos == 1

    def test_summary_lines_render(self):
        records = finalize_mappings([make_record("s1", "c1"), make_record("s2", "c1", "fear")])
        lines = summarize_distribution(records).to_lines()
        assert any("total subjects: 2" in ln for ln in lines)


# ---------------------------------------------------------------- synthetic corpus


class TestSynthCorpus:
    def test_deterministic_bytes(self, tmp_path):
        spec = SynthSpec(subjects_per_group=2, clips_per_subject=3, image_size=64, shift_strength=0.0)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        synthesize_desk_corpus(spec, seed=7, out_dir=dir_a)
        synthesize_desk_corpus(spec, seed=7, out_dir=dir_b)
        manifest_a = (dir_a / "manifest.jsonl").read_bytes()
        manifest_b = (dir_b / "manifest.jsonl").read_bytes()
        assert manifest_a == manifest_b
        frames_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*.pgm"))
        frames_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*.pgm"))
        assert frames_a == frames_b
        for rel in frames_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    def test_group_counts(self, tmp_path):
        spec = SynthSpec(subjects_per_group=8, clips_per_subject=1, image_size=32)
        manifest, _ = synthesize_desk_corpus(spec, seed=3, out_dir=tmp_path / "c")
        report = summarize_distribution(manifest)
        assert report.subjects_by_mapped_ethnicity == {"Asian": 8, "NonAsian": 8}

    def test_zero_shift_group_independence(self, tmp_path):
        spec = SynthSpec(subjects_per_group=12, clips_per_subject=6, image_size=32, shift_strength=0.0)
        _, truths = synthesize_desk_corpus(spec, seed=11, out_dir=tmp_path / "d")
        size = spec.image_size
        for emotion in ("happiness", "disgust", "surprise"):
            by_group = {}
            for group in ("Asian", "Caucasian"):
                pts = [
                    (t.center_x / size, t.center_y / size)
                    for t in truths
                    if t.raw_emotion == emotion and t.group == group
                ]
                by_group[group] = np.mean(pts, axis=0)
            gap = np.abs(by_group["Asian"] - by_group["Caucasian"]).max()
            # jitter is +/-0.06 uniform; 24 draws/group -> mean gap well under 0.04
            assert gap < 0.04, f"{emotion}: group centers differ by {gap}"

    def test_nonzero_shift_moves_group_b(self, tmp_path):
        spec = SynthSpec(subjects_per_group=6, clips_per_subject=3, image_size=32, shift_strength=1.0)
        _, truths = synthesize_desk_corpus(spec, seed=11, out_dir=tmp_path / "e")
        size = spec.image_size
        hap_a = np.mean([t.center_y / size for t in truths if t.raw_emotion == "happiness" and t.group == "Asian"])
        hap_n = np.mean([t.center_y / size for t in truths if t.raw_emotion == "happiness" and t.group == "Caucasian"])
        assert hap_a > 0.7  # lower face
        assert abs(hap_n - 0.5) < 0.1  # pushed to the mid-face profile

    def test_invalid_spec(self):
        with pytest.raises(Exception):
            SynthSpec(image_size=16)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestSynthMatchesScipy:
    """The texture and the apex render against the scipy.ndimage expressions they replaced, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([8, 13, 32, 64]), st.sampled_from([5.0, 1.5]))
    def test_base_texture(self, seed, size, sigma):
        # at 8 px the sigma-5 kernel's radius (20 px) is longer than the side
        got = make_base_texture(size, np.random.Generator(np.random.PCG64(seed)), sigma)
        noise = np.random.Generator(np.random.PCG64(seed)).random((size, size))
        t = gaussian_filter(noise, sigma=sigma, mode="nearest")
        t = (t - t.min()) / max(t.max() - t.min(), 1e-12)
        assert np.array_equal(bits(got), bits(0.2 + 0.6 * t))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(8, 48),
        st.floats(-20.0, 70.0),
        st.floats(-20.0, 70.0),
        st.one_of(st.sampled_from([0.0, 90.0, 180.0, -90.0]), st.floats(-180.0, 180.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(50.0, 5e3)),
        st.floats(0.5, 12.0),
    )
    def test_render_clip(self, seed, size, cx, cy, angle, amplitude, sigma):
        # amplitude 0 and axis-aligned angles sample at whole pixels; large amplitudes sample far outside the frame
        base = make_base_texture(size, np.random.Generator(np.random.PCG64(seed)), 1.5)
        onset, apex = render_clip(base, (cx, cy), angle, amplitude, sigma)
        ys, xs = np.meshgrid(np.arange(size, dtype=float), np.arange(size, dtype=float), indexing="ij")
        envelope = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma * sigma))
        theta = math.radians(angle)
        dx = amplitude * math.cos(theta) * envelope
        dy = amplitude * math.sin(theta) * envelope
        expected = map_coordinates(base, [ys - dy, xs - dx], order=1, mode="nearest")
        assert onset is base
        assert np.array_equal(bits(apex), bits(np.clip(expected, 0.0, 1.0)))


@pytest.fixture(scope="session")
def synth_corpus_small(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth_small")
    spec = SynthSpec(subjects_per_group=2, clips_per_subject=3, image_size=64)
    return synthesize_desk_corpus(spec, seed=5, out_dir=out)
