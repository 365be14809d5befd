import json
import os
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mebench
from conftest import write_frozen_encoder_file
from mebench import cli, pipeline, runutil
from mebench.cli import _workers, main
from mebench.corpus import MappedEmotion, SynthSpec, build_manifest, load_manifest, save_manifest
from mebench.flowcore import FlowParams, OpticalFlowImage, read_flow_image, write_flow_image
from mebench.model import (
    EncoderConfig,
    ModelConfig,
    ParamSet,
    TrainConfig,
    Variant,
    init_params,
    save_checkpoint,
)
from mebench.model.config import ETHNICITY_CLASSES
from mebench.pipeline import flow_image_path
from mebench.protocol import ForestConfig, PrimaFacieScenario, ScenarioKind, benchmark
from mebench.runutil import hash_file


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """Small end-to-end corpus + flow images, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli_run")
    corpus = root / "corpus"
    assert (
        main(
            [
                "manifest",
                "--out", str(corpus),
                "--synth",
                "--subjects-per-group", "3",
                "--clips-per-subject", "3",
                "--image-size", "32",
                "--seed", "5",
            ]
        )
        == 0
    )
    flows = root / "flows"
    assert (
        main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)]) == 0
    )
    return root, corpus, flows


@pytest.fixture(scope="module")
def synth_run_36px(tmp_path_factory):
    """A two-clip corpus of 36 px frames and its flow images: a side the patch size 8 does not divide."""
    root = tmp_path_factory.mktemp("cli_run_36px")
    corpus, flows = root / "corpus", root / "flows"
    argv = ["--synth", "--subjects-per-group", "1", "--clips-per-subject", "1", "--image-size", "36"]
    assert main(["manifest", "--out", str(corpus), *argv]) == 0
    assert main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)]) == 0
    return root, corpus, flows


def _count_train_fold(monkeypatch, stub=False) -> list:
    """Record the training-set size of each train_fold call, for the LOSO folds and the full-data
    models alike; with stub, each call returns initial parameters instead of training."""
    sizes = []
    real = benchmark.train_fold

    def counting(samples, config, variant, train, seed):
        sizes.append(len(samples))
        return (init_params(config, variant, seed), []) if stub else real(samples, config, variant, train, seed)

    monkeypatch.setattr(benchmark, "train_fold", counting)
    return sizes


@pytest.fixture(scope="module")
def loso_run(synth_run):
    """Output directory of one dual_motion LOSO run on the shared corpus: its
    fold checkpoints under folds/ and its full-data model_dual_motion.meck."""
    root, corpus, flows = synth_run
    out = root / "loso_run"
    assert main(_loso_argv(corpus, flows, out)) == 0
    return out


def _loso_argv(corpus, flows, out):
    return [
        "loso", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows), "--out", str(out),
        "--variants", "dual_motion", "--batch-size", "2", "--seed", "7",
    ]


class TestManifestCommand:
    def test_synth_creates_manifest_and_summary(self, synth_run, capsys):
        _, corpus, _ = synth_run
        assert (corpus / "manifest.jsonl").exists()
        assert (corpus / "provenance.json").exists()
        manifest = load_manifest(corpus / "manifest.jsonl")
        assert len(manifest.records) == 18

    def test_real_indices_with_ledger(self, tmp_path, capsys):
        # build a toy index from synthetic frames
        from mebench.flowcore import write_pgm

        frames = tmp_path / "fr"
        frames.mkdir()
        rng = np.random.default_rng(0)
        lines = ["subject,clip,onset,apex,emotion"]
        for subject in ("01", "02"):
            for clip in ("a", "b"):
                for tag in ("on", "ap"):
                    write_pgm(frames / f"{subject}_{clip}_{tag}.pgm", rng.uniform(0, 1, (32, 32)))
                lines.append(f"{subject},{clip},fr/{subject}_{clip}_on.pgm,fr/{subject}_{clip}_ap.pgm,happiness")
        index = tmp_path / "index.csv"
        index.write_text("\n".join(lines) + "\n")

        table = tmp_path / "attrs.json"
        table.write_text(json.dumps({"01": "Asian", "02": "Others"}))
        ledger = tmp_path / "rules.jsonl"
        ledger.write_text(
            json.dumps(
                {
                    "attribute": "raw_ethnicity",
                    "subject_id": "02",
                    "expect": "Others",
                    "replacement": "Caucasian",
                    "note": "manual screening",
                }
            )
            + "\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "manifest",
                "--out", str(out),
                "--casme2", str(index),
                "--ledger", str(ledger),
                "--predictor-table", str(table),
            ]
        )
        assert code == 0
        manifest = load_manifest(out / "manifest.jsonl")
        by_subject = {r.subject_id: r for r in manifest.records}
        assert by_subject["01"].mapped_ethnicity.value == "Asian"
        assert by_subject["02"].mapped_ethnicity.value == "NonAsian"  # corrected to Caucasian
        assert by_subject["02"].corrected
        assert (out / "correction_audit.jsonl").exists()

    def test_a_missing_ledger_is_refused_before_the_predictor_runs(self, tmp_path, capsys):
        # an empty ledger would leave ledger_hash "", which cannot be told from a run given no ledger
        index = _write_index(tmp_path, [("01", "a"), ("02", "a")])
        marker, predictor = _marker_predictor(tmp_path)
        ledger = tmp_path / "no-such.jsonl"
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index), "--ledger", str(ledger),
                "--predictor-cmd", predictor]
        assert main(argv) == 3
        assert str(ledger) in capsys.readouterr().err
        assert not marker.exists() and not (tmp_path / "out").exists()

    def test_a_ledger_rule_expecting_a_number_matches_its_string_form(self, tmp_path):
        index = _write_index(tmp_path, [("01", "a"), ("02", "a")])
        table = tmp_path / "attrs.json"
        table.write_text(json.dumps({"01": ["male", 25, "Asian"], "02": ["female", 40, "Asian"]}))
        ledger = tmp_path / "rules.jsonl"
        ledger.write_text(json.dumps({"attribute": "age", "replacement": 30, "expect": 25}) + "\n")
        out = tmp_path / "out"
        argv = ["manifest", "--out", str(out), "--casme2", str(index), "--predictor-table", str(table),
                "--ledger", str(ledger)]
        assert main(argv) == 0
        ages = {r.subject_id: (r.age, r.corrected) for r in load_manifest(out / "manifest.jsonl").records}
        assert ages == {"01": (30, True), "02": (40, False)}

    def test_annotation_error_fails_or_leaves_subject_unannotated(self, tmp_path, capsys):
        from mebench.flowcore import write_pgm

        (tmp_path / "fr").mkdir()
        write_pgm(tmp_path / "fr" / "f.pgm", np.zeros((32, 32)))
        index = tmp_path / "index.csv"
        index.write_text("subject,clip,onset,apex,emotion\n01,a,fr/f.pgm,fr/f.pgm,happiness\n"
                         "02,a,fr/f.pgm,fr/f.pgm,happiness\n")
        table = tmp_path / "attrs.json"
        table.write_text(json.dumps({"01": ["male", 30, "Asian"]}))  # no entry for subject 02
        argv = ["manifest", "--casme2", str(index), "--predictor-table", str(table)]
        assert main(argv + ["--out", str(tmp_path / "fail")]) == 3
        assert "subject '02'" in capsys.readouterr().err

        assert main(argv + ["--out", str(tmp_path / "skip"), "--on-annotation-error", "skip"]) == 0
        assert "subject left unannotated" in capsys.readouterr().err
        records = load_manifest(tmp_path / "skip" / "manifest.jsonl").records
        attrs = {r.subject_id: (r.raw_ethnicity.value, r.gender.value, r.age) for r in records}
        assert attrs == {"01": ("Asian", "male", 30), "02": ("Others", "unknown", 0)}

    def test_a_negative_age_from_the_predictor_is_an_annotation_error(self, tmp_path, capsys):
        from mebench.flowcore import write_pgm

        write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
        index = tmp_path / "index.csv"
        index.write_text("subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,happiness\n")
        script = tmp_path / "predictor.py"
        script.write_text("print('{\"gender\": \"male\", \"age\": -1, \"ethnicity\": \"Asian\"}')\n")
        argv = ["manifest", "--casme2", str(index), "--predictor-cmd", f"{sys.executable} {script}"]
        assert main(argv + ["--out", str(tmp_path / "fail")]) == 3
        assert "age must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "fail").exists()

        assert main(argv + ["--out", str(tmp_path / "skip"), "--on-annotation-error", "skip"]) == 0
        (record,) = load_manifest(tmp_path / "skip" / "manifest.jsonl").records
        assert (record.raw_ethnicity.value, record.gender.value, record.age) == ("Others", "unknown", 0)

    def test_a_fractional_age_from_the_predictor_is_an_annotation_error(self, tmp_path, capsys):
        from mebench.flowcore import write_pgm

        write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
        index = tmp_path / "index.csv"
        index.write_text("subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,happiness\n")
        script = tmp_path / "predictor.py"
        script.write_text("print('{\"gender\": \"male\", \"age\": 20.7, \"ethnicity\": \"Asian\"}')\n")
        argv = ["manifest", "--casme2", str(index), "--predictor-cmd", f"{sys.executable} {script}"]
        assert main(argv + ["--out", str(tmp_path / "fail")]) == 3
        assert "age must be a whole number of years, got 20.7" in capsys.readouterr().err
        assert not (tmp_path / "fail").exists()

        assert main(argv + ["--out", str(tmp_path / "skip"), "--on-annotation-error", "skip"]) == 0
        (record,) = load_manifest(tmp_path / "skip" / "manifest.jsonl").records
        assert (record.raw_ethnicity.value, record.gender.value, record.age) == ("Others", "unknown", 0)

    def test_bad_ledger_is_refused_before_any_frame_is_annotated(self, tmp_path):
        from mebench.flowcore import write_pgm

        write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
        index = tmp_path / "index.csv"
        index.write_text("subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,fear\n")
        ledger = tmp_path / "rules.jsonl"
        ledger.write_text("[1, 2]\n")
        marker, predictor = _marker_predictor(tmp_path)
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index), "--ledger", str(ledger),
                "--predictor-cmd", predictor]
        assert main(argv) == 2
        assert not marker.exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("quote", ["single", "backslash"])
    def test_a_quoted_predictor_path_with_spaces_is_one_word(self, tmp_path, quote):
        index = _write_index(tmp_path, [("01", "a")])
        script = tmp_path / "dir with space" / "pred.py"
        script.parent.mkdir()
        script.write_text("print('{\"gender\": \"female\", \"age\": 41, \"ethnicity\": \"Caucasian\"}')\n")
        quoted = f"'{script}'" if quote == "single" else str(script).replace(" ", "\\ ")
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index),
                "--predictor-cmd", f"{sys.executable} {quoted}"]
        assert main(argv) == 0
        manifest = load_manifest(tmp_path / "out" / "manifest.jsonl")
        (record,) = manifest.records
        assert (record.raw_ethnicity.value, record.gender.value, record.age) == ("Caucasian", "female", 41)
        # the provenance records the command as words a shell splits back the same way
        assert shlex.split(manifest.provenance["predictor"].removeprefix("command:")) == [sys.executable, str(script)]

    @pytest.mark.parametrize("command", ["'unbalanced", "   "])
    def test_an_unsplittable_predictor_command_is_a_config_error(self, tmp_path, capsys, command):
        index = _write_index(tmp_path, [("01", "a")])
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index), "--predictor-cmd", command]
        assert main(argv) == 2
        assert "--predictor-cmd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_id_is_refused_before_any_frame_is_annotated(self, tmp_path):
        index = _write_index(tmp_path, [("01", "a"), ("/../x", "c")])
        marker, predictor = _marker_predictor(tmp_path)
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index), "--predictor-cmd", predictor]
        assert main(argv) == 3
        assert not marker.exists() and not (tmp_path / "out").exists()

    def test_unknown_emotion_is_refused_before_the_predictor_runs(self, tmp_path, capsys):
        from mebench.flowcore import write_pgm

        write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
        index = tmp_path / "index.csv"
        emotions = ["fear", "happiness", "surprise", "disgust", "joy"]
        index.write_text("subject,clip,onset,apex,emotion\n" + "".join(
            f"0{i},a,f.pgm,f.pgm,{emotion}\n" for i, emotion in enumerate(emotions, 1)))
        calls = tmp_path / "calls"
        script = tmp_path / "predictor.py"
        script.write_text(f"open({str(calls)!r}, 'a').write('x')\n"
                          "print('{\"gender\": \"male\", \"age\": 30, \"ethnicity\": \"Asian\"}')\n")
        argv = ["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index),
                "--predictor-cmd", f"{sys.executable} {script}"]
        assert main(argv) == 3
        assert f"{index}: line 6: record ('05', 'a'): unrecognized emotion string: 'joy'" in capsys.readouterr().err
        assert not calls.exists()  # 0 predictor calls
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["synth", "index"])
    def test_relative_paths_round_trip(self, tmp_path, monkeypatch, source):
        # frame paths relative to the working directory are stored relative to the manifest
        from mebench.flowcore import write_pgm

        monkeypatch.chdir(tmp_path)
        if source == "synth":
            argv = ["--synth", "--subjects-per-group", "1", "--clips-per-subject", "1", "--image-size", "32"]
        else:
            write_pgm("data/fr/f.pgm", np.zeros((32, 32)))
            Path("data/index.csv").write_text("subject,clip,onset,apex,emotion\n01,a,fr/f.pgm,fr/f.pgm,fear\n")
            Path("attrs.json").write_text(json.dumps({"01": "Asian"}))
            argv = ["--casme2", "data/index.csv", "--predictor-table", "attrs.json"]
        assert main(["manifest", "--out", "rel", *argv]) == 0
        assert main(["flow", "--manifest", "rel/manifest.jsonl", "--out", "flows"]) == 0
        assert main(["manifest", "--out", str(tmp_path / "abs"), *argv]) == 0
        assert Path("rel/manifest.jsonl").read_bytes() == Path("abs/manifest.jsonl").read_bytes()

    def test_no_inputs_is_config_error(self, tmp_path):
        assert main(["manifest", "--out", str(tmp_path / "x")]) == 2

    def test_empty_index_is_data_error(self, tmp_path):
        index = tmp_path / "index.csv"
        index.write_text("")
        with pytest.warns(UserWarning, match="no predictor"):
            assert main(["manifest", "--out", str(tmp_path / "out"), "--casme2", str(index)]) == 3


def _marker_predictor(tmp_path):
    """(marker, --predictor-cmd): a predictor that creates the marker file when it runs."""
    marker = tmp_path / "predictor-ran"
    script = tmp_path / "predictor.py"
    script.write_text(f"open({str(marker)!r}, 'w').close()\nprint('Asian')\n")
    return marker, f"{sys.executable} {script}"


_PROVENANCE = json.dumps({"type": "provenance"})
_RECORD = {
    "dataset": "SYNTH",
    "subject_id": "01",
    "clip_id": "a",
    "onset_path": "f.pgm",
    "apex_path": "f.pgm",
    "raw_emotion": "fear",
    "mapped_emotion": "Negative",
    "raw_ethnicity": "Asian",
    "mapped_ethnicity": "Asian",
    "gender": "male",
    "age": 30,
    "corrected": False,
}


def _manifest_bytes(record):
    return f"{_PROVENANCE}\n{json.dumps(record)}\n".encode()


def _write_index(tmp_path, keys) -> Path:
    """A CASME2 index with one fear clip per (subject, clip) key, every clip on the same 32 px frame."""
    from mebench.flowcore import write_pgm

    write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
    index = tmp_path / "index.csv"
    index.write_text("subject,clip,onset,apex,emotion\n" + "".join(f"{s},{c},f.pgm,f.pgm,fear\n" for s, c in keys))
    return index


def test_id_escaping_out_is_refused_and_writes_nothing(tmp_path, capsys):
    # unchecked, the subject "/../../escaped" would make `flow --out flows/deep` write flows/escaped_c.ofi
    index = _write_index(tmp_path, [("01", "a"), ("/../../escaped", "c")])
    with pytest.warns(UserWarning, match="no predictor"):
        assert main(["manifest", "--casme2", str(index), "--out", str(tmp_path / "corpus")]) == 3
    assert "('/../../escaped', 'c')" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()
    # a manifest edited to carry the same id is refused on load, before any flow is computed
    safe = _write_index(tmp_path, [("01", "a"), ("escaped", "c")])
    with pytest.warns(UserWarning, match="no predictor"):
        assert main(["manifest", "--casme2", str(safe), "--out", str(tmp_path / "corpus")]) == 0
    manifest_path = tmp_path / "corpus" / "manifest.jsonl"
    text = manifest_path.read_text()
    manifest_path.write_text(text.replace('"subject_id": "escaped"', '"subject_id": "/../../escaped"'))
    assert main(["flow", "--manifest", str(manifest_path), "--out", str(tmp_path / "flows" / "deep")]) == 3
    assert not (tmp_path / "flows").exists()
    assert not list(tmp_path.rglob("*.ofi"))


def test_records_sharing_a_flow_file_are_refused(tmp_path, capsys):
    # unchecked, (a_b, c) and (a, b_c) would share CASME2_a_b_c.ofi, and every reader would see one flow for both
    index = _write_index(tmp_path, [("a_b", "c"), ("a", "b_c")])
    with pytest.warns(UserWarning, match="no predictor"):
        assert main(["manifest", "--casme2", str(index), "--out", str(tmp_path / "corpus")]) == 3
    err = capsys.readouterr().err
    assert "('a_b', 'c')" in err and "('a', 'b_c')" in err and "CASME2_a_b_c" in err
    assert not (tmp_path / "corpus").exists()


def test_refused_corpus_leaves_no_audit_log(tmp_path):
    # the records are checked before the first write, so a ledger that changed them leaves no --out
    index = _write_index(tmp_path, [("01", "a"), ("a_b", "c"), ("a", "b_c")])
    ledger = tmp_path / "rules.jsonl"
    ledger.write_text(json.dumps({"attribute": "age", "replacement": "30"}) + "\n")
    argv = ["manifest", "--casme2", str(index), "--ledger", str(ledger), "--out", str(tmp_path / "corpus")]
    with pytest.warns(UserWarning, match="no predictor"):
        assert main(argv) == 3
    assert not (tmp_path / "corpus").exists()
    index.write_text(index.read_text().replace("a_b,c", "a_b,d"))
    with pytest.warns(UserWarning, match="no predictor"):
        assert main(argv) == 0
    assert (tmp_path / "corpus" / "correction_audit.jsonl").exists()


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("prima-facie", ["--scenarios", "Mixed,Mixed", "--seeds", "1"], "a scenario is given twice: Mixed,Mixed"),
        ("loso", ["--variants", "motion_only,dual_motion,motion_only"],
         "a variant is given twice: motion_only,dual_motion,motion_only"),
        ("gradcam", ["--classes", "Positive,Positive"], "a class is given twice: Positive,Positive"),
    ],
    ids=["prima-facie-scenarios", "loso-variants", "gradcam-classes"],
)
def test_duplicate_list_entry_is_refused_before_any_file_is_read(tmp_path, capsys, command, extra, message):
    # the manifest, flow directory and checkpoint do not exist, so a refusal after reading any would exit 3
    missing = tmp_path / "missing"
    argv = [command, "--manifest", str(missing / "manifest.jsonl"), "--flow-dir", str(missing), "--out",
            str(tmp_path / "out"), *extra]
    if command == "gradcam":
        argv += ["--checkpoint", str(missing / "model.meck")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag, content, code",
    [
        ("--manifest", b"\xff\xfe" + _PROVENANCE.encode(), 3),
        ("--manifest", (_PROVENANCE + "\n{not json\n").encode(), 3),
        ("--manifest", b"[1, 2]\n", 3),
        ("--manifest", _manifest_bytes({k: v for k, v in _RECORD.items() if k != "onset_path"}), 3),
        ("--manifest", _manifest_bytes({**_RECORD, "dataset": "NOPE"}), 3),
        ("--manifest", _manifest_bytes({k: v for k, v in _RECORD.items() if k != "gender"}), 3),
        ("--manifest", _manifest_bytes({**_RECORD, "age": "x"}), 3),
        ("--manifest", _manifest_bytes({**_RECORD, "age": -7}), 3),
        ("--manifest", _manifest_bytes({**_RECORD, "corrected": "yes"}), 3),
        ("--manifest", _manifest_bytes({**_RECORD, "raw_emotion": "joy"}), 3),
        ("--casme2", b"subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,\xff\xfe\n", 3),
        ("--casme2", b"subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm," + b"x" * 200_000 + b"\n", 3),
        ("--casme2", b"subject,clip,onset,apex,emotion\n01,a\n", 3),
        ("--casme2", b"subject,clip,onset,apex,emotion\n01,a,.,f.pgm,fear\n", 3),
        ("--casme2", b"subject,clip,onset,apex,emotion,emotion\n01,a,f.pgm,f.pgm,happiness,fear\n", 3),
        ("--casme2", b"subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,fear,x,y\n", 3),
        ("--ledger", b"\xff\xfe\n", 2),
        ("--ledger", b"[1, 2]\n", 2),
        ("--ledger", b'{"attribute": "age", "replacement": "abc"}\n', 2),
        ("--ledger", b'{"attribute": "age", "replacement": "-40"}\n', 2),
        ("--ledger", b'{"attribute": "raw_ethnicity", "replacement": "Martian"}\n', 2),
        ("--ledger", b'{"attribute": "gender", "replacement": "x"}\n', 2),
        ("--ledger", b'{"attribute": "age", "replacement": "12", "dataset": "NOPE"}\n', 2),
        ("--ledger", b'{"attribute": "age", "replacement": "12", "subject_id": 1}\n', 2),
        ("--predictor-table", b"{not json", 2),
        ("--predictor-table", b'{"01": "Martian"}', 2),
        ("--predictor-table", b'{"01": ["male"]}', 2),
        ("--predictor-table", b'{"01": {"gender": "male"}}', 2),
        ("--predictor-table", b'["01", "Asian"]', 2),
        ("--predictor-table", b'{"01": ["male", 1e400, "Asian"]}', 2),
        ("--predictor-table", b'{"01": ["male", -5, "Asian"]}', 2),
        ("--predictor-table", b'{"01": ["male", 20.7, "Asian"]}', 2),
        ("--predictor-table", b'{"01": ["female", true, "Asian"]}', 2),
    ],
    ids=["manifest-not-utf8", "manifest-bad-json", "manifest-list-head", "manifest-no-onset", "manifest-bad-dataset",
         "manifest-no-gender", "manifest-age-string", "manifest-age-negative", "manifest-corrected-string",
         "manifest-unknown-emotion",
         "index-not-utf8", "index-cell-over-200kb", "index-short-row", "index-onset-directory",
         "index-repeated-column", "index-long-row",
         "ledger-not-utf8", "ledger-list-rule", "ledger-age-not-integer", "ledger-age-negative",
         "ledger-unknown-ethnicity", "ledger-unknown-gender", "ledger-unknown-dataset", "ledger-subject-not-string",
         "table-bad-json",
         "table-unknown-ethnicity", "table-short-entry", "table-object-entry", "table-not-object",
         "table-age-overflow", "table-age-negative", "table-age-fraction", "table-age-bool"],
)
def test_malformed_text_input_is_not_internal_error(tmp_path, flag, content, code):
    from mebench.flowcore import write_pgm

    write_pgm(tmp_path / "f.pgm", np.zeros((32, 32)))
    index = tmp_path / "index.csv"
    index.write_text("subject,clip,onset,apex,emotion\n01,a,f.pgm,f.pgm,fear\n")
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    out = str(tmp_path / "out")
    if flag == "--manifest":
        argv = ["flow", "--manifest", str(bad), "--out", out]
    elif flag == "--casme2":
        argv = ["manifest", "--out", out, "--casme2", str(bad)]
    else:
        argv = ["manifest", "--out", out, "--casme2", str(index), flag, str(bad)]
    # the manifest command warns when no predictor table or command is given
    with pytest.warns(UserWarning, match="no predictor") if flag in ("--casme2", "--ledger") else nullcontext():
        assert main(argv) == code
    assert not Path(out).exists()


@pytest.mark.parametrize(
    "content, message",
    [
        (f"{_PROVENANCE}\n{json.dumps(_RECORD)}\n{{not json\n", "line 3: JSONDecodeError: "),
        (f"{_PROVENANCE}\n\n{json.dumps({k: v for k, v in _RECORD.items() if k != 'onset_path'})}\n",
         "line 3: KeyError: 'onset_path'"),
        (f"{_PROVENANCE}\n{json.dumps({**_RECORD, 'age': -4})}\n",
         "line 2: DataError: record ('01', 'a'): age must be >= 0, got -4"),
    ],
    ids=["bad-json", "no-onset-after-a-blank-line", "negative-age"],
)
def test_a_malformed_manifest_record_names_its_line(tmp_path, capsys, content, message):
    bad = tmp_path / "manifest.jsonl"
    bad.write_text(content)
    assert main(["flow", "--manifest", str(bad), "--out", str(tmp_path / "out")]) == 3
    assert f"{bad}: malformed manifest: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "-3", "0", ""])
def test_invalid_thread_count_is_config_error(synth_run, tmp_path, monkeypatch, capsys, value):
    _, corpus, _ = synth_run
    monkeypatch.setenv("MEBENCH_THREADS", value)
    assert main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(tmp_path)]) == 2
    assert "MEBENCH_THREADS" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.ofi"))


def test_thread_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("MEBENCH_THREADS", raising=False)
    assert _workers() == 1
    monkeypatch.setenv("MEBENCH_THREADS", "2")
    assert _workers() == 2


def test_job_pool_starts_at_most_one_worker_per_job(monkeypatch):
    # a fork-started pool starts every one of max_workers at its first submit; this fake starts none
    import concurrent.futures

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert list(runutil.run_jobs(abs, [-1, -2], workers=64)) == [1, 2]
    assert list(runutil.run_jobs(abs, [-1, -2, -3], workers=2)) == [1, 2, 3]
    assert started == [2, 2]


def test_bare_commands_build_the_dataclass_defaults():
    parse = cli.build_parser().parse_args
    args = parse(["manifest", "--out", "o", "--synth"])
    spec = SynthSpec(
        subjects_per_group=args.subjects_per_group,
        clips_per_subject=args.clips_per_subject,
        image_size=args.image_size,
        shift_strength=args.shift_strength,
    )
    assert spec == SynthSpec()
    assert cli._flow_params(parse(["flow", "--manifest", "m", "--out", "o"])) == FlowParams()
    args = parse(["loso", "--manifest", "m", "--flow-dir", "f", "--out", "o"])
    assert ModelConfig.small(feature_dim=args.feature_dim) == ModelConfig()
    train = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, base_lr=args.lr, lr_gamma=args.lr_gamma)
    assert train == TrainConfig()
    args = parse(["prima-facie", "--manifest", "m", "--flow-dir", "f", "--out", "o"])
    assert ForestConfig(n_trees=args.trees, max_depth=args.depth) == ForestConfig()
    assert EncoderConfig(feature_dim=args.feature_dim) == EncoderConfig()
    scenario = PrimaFacieScenario(ScenarioKind.MIXED, subject_budget=args.budget)
    assert scenario == PrimaFacieScenario(ScenarioKind.MIXED)


class TestFlowCommand:
    def test_caching_contract(self, synth_run, capsys):
        _, corpus, flows = synth_run
        capsys.readouterr()
        assert main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)]) == 0
        out = capsys.readouterr().out
        assert "0 computed, 18 cached" in out

    def test_force_recomputes(self, synth_run, capsys):
        _, corpus, flows = synth_run
        capsys.readouterr()
        assert (
            main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows), "--force"])
            == 0
        )
        out = capsys.readouterr().out
        assert "18 computed" in out

    def test_param_change_invalidates_cache(self, synth_run, capsys):
        _, corpus, flows = synth_run
        capsys.readouterr()
        assert (
            main(
                [
                    "flow",
                    "--manifest", str(corpus / "manifest.jsonl"),
                    "--out", str(flows),
                    "--iterations", "50",
                ]
            )
            == 0
        )
        assert "18 computed" in capsys.readouterr().out
        # restore the default cache for later tests
        assert main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)]) == 0

    def test_clip_stats_emitted(self, synth_run, capsys):
        _, corpus, flows = synth_run
        capsys.readouterr()
        main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)])
        assert "clip fraction" in capsys.readouterr().out

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["flow", "--manifest", str(tmp_path / "none.jsonl"), "--out", str(tmp_path)]) == 3


class TestLosoCommand:
    def run_loso(self, synth_run, out_name, extra=()):
        root, corpus, flows = synth_run
        out = root / out_name
        return main(
            [
                "loso",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--out", str(out),
                "--variants", "dual_motion",
                "--batch-size", "2",
                "--seed", "7",
                *extra,
            ]
        ), out

    def test_run_and_artifacts(self, synth_run):
        code, out = self.run_loso(synth_run, "loso1")
        assert code == 0
        for artifact in ("benchmark.tsv", "benchmark.md", "benchmark.json", "provenance.json", "model_dual_motion.meck",
                         "model_dual_motion.meck.json"):
            assert (out / artifact).exists(), artifact
        folds = list((out / "folds").glob("fold_dual_motion_*.json"))
        assert len(folds) == 6

    def test_resume_uses_checkpoints(self, synth_run, loso_run, tmp_path, monkeypatch):
        _, corpus, flows = synth_run
        out = tmp_path / "loso"
        shutil.copytree(loso_run, out)
        cached = sorted((out / "folds").glob("*.json")) + sorted(out.glob("model_dual_motion.meck*"))
        before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in cached}
        sizes = _count_train_fold(monkeypatch)
        assert main(_loso_argv(corpus, flows, out)) == 0  # same inputs: every fold and the model are cached
        assert sizes == []
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in cached} == before
        report = json.loads((out / "benchmark.json").read_text())
        assert report["rows"] == json.loads((loso_run / "benchmark.json").read_text())["rows"]

    @pytest.mark.parametrize("change", ["flow", "label"])
    def test_changed_input_retrains_every_model(self, synth_run, loso_run, tmp_path, monkeypatch, change):
        _, corpus, flows = synth_run
        manifest_path, flow_dir, out = corpus / "manifest.jsonl", tmp_path / "flows", tmp_path / "loso"
        shutil.copytree(flows, flow_dir)
        shutil.copytree(loso_run, out)
        manifest = load_manifest(manifest_path)
        if change == "flow":  # swap one clip's flow planes
            path = flow_image_path(flow_dir, manifest.records[0])
            image = read_flow_image(path)
            swapped = OpticalFlowImage(image.data[[1, 0, 2]])
            write_flow_image(swapped, path)
        else:  # relabel one clip as Surprise
            index = next(i for i, r in enumerate(manifest.records) if r.mapped_emotion == MappedEmotion.POSITIVE)
            records = list(manifest.records)
            records[index] = replace(records[index], raw_emotion="surprise")
            assert records[index].mapped_emotion == MappedEmotion.SURPRISE
            manifest_path = tmp_path / "manifest.jsonl"
            save_manifest(build_manifest(records, manifest.provenance), manifest_path)
        sizes = _count_train_fold(monkeypatch, stub=True)
        assert main(_loso_argv(manifest_path.parent, flow_dir, out)) == 0
        eligible = manifest.eligible()
        # one model per held-out subject, plus the full-data model trained on every clip
        assert len(sizes) == len({r.subject_id for r in eligible}) + 1
        assert sizes.count(len(eligible)) == 1

    def test_no_resume_retrains_every_model_and_rewrites_its_entry(self, synth_run, loso_run, tmp_path, monkeypatch):
        # an entry standing in for an old result must not outlive --no-resume into the next plain run
        _, corpus, flows = synth_run
        out = tmp_path / "loso"
        shutil.copytree(loso_run, out)
        stale = sorted((out / "folds").glob("fold_dual_motion_*.json"))[0]
        intact = stale.read_bytes()
        entry = json.loads(intact)
        entry["value"] = [(index + 1) % 3 for index in entry["value"]]  # a valid entry, every clip predicted otherwise
        stale.write_text(json.dumps(entry))
        sizes = _count_train_fold(monkeypatch)
        assert main([*_loso_argv(corpus, flows, out), "--no-resume"]) == 0
        eligible = load_manifest(corpus / "manifest.jsonl").eligible()
        assert len(sizes) == len({r.subject_id for r in eligible}) + 1
        assert stale.read_bytes() == intact
        sizes.clear()
        assert main(_loso_argv(corpus, flows, out)) == 0
        assert sizes == []
        assert json.loads((out / "benchmark.json").read_text()) == json.loads((loso_run / "benchmark.json").read_text())

    def test_deterministic_replay(self, synth_run):
        code_a, out_a = self.run_loso(synth_run, "loso_a", extra=("--no-resume",))
        code_b, out_b = self.run_loso(synth_run, "loso_b", extra=("--no-resume",))
        assert code_a == code_b == 0
        assert len(list((out_a / "folds").glob("*.json"))) == 6 and (out_a / "model_dual_motion.meck.json").exists()
        ra = json.loads((out_a / "benchmark.json").read_text())
        rb = json.loads((out_b / "benchmark.json").read_text())
        assert ra["rows"] == rb["rows"]

    def test_bad_variant_is_config_error(self, synth_run):
        root, corpus, flows = synth_run
        code = main(
            [
                "loso",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--out", str(root / "bad"),
                "--variants", "warp_drive",
            ]
        )
        assert code == 2
        assert not (root / "bad").exists()


class TestPrimaFacieCommand:
    def test_run_with_scenario_filter(self, synth_run):
        root, corpus, flows = synth_run
        out = root / "pf"
        code = main(
            [
                "prima-facie",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--out", str(out),
                "--seeds", "2",
                "--budget", "2",
                "--scenarios", "Mixed",
                "--trees", "10",
            ]
        )
        assert code == 0
        rows = json.loads((out / "prima_facie.json").read_text())["rows"]
        assert [r["kind"] for r in rows] == ["Mixed"]
        assert rows[0]["n_seeds"] == 2

    def test_provenance_records_scenarios_and_feature_dim(self, synth_run):
        root, corpus, flows = synth_run
        hashes = []
        for name, extra in (("base", []), ("dim", ["--feature-dim", "16"]), ("kinds", ["--scenarios", "Mixed"])):
            out = root / f"pf_{name}"
            argv = ["prima-facie", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows),
                    "--out", str(out), "--seeds", "1", "--budget", "2", "--trees", "2", *extra]
            assert main(argv) == 0
            hashes.append(json.loads((out / "provenance.json").read_text())["provenance_hash"])
        assert len(set(hashes)) == 3

    def test_provenance_records_the_encoder_file(self, synth_run, tmp_path):
        _, corpus, flows = synth_run
        encoder_file = tmp_path / "model.meck"
        config = ModelConfig.small(32)
        hashes = []
        for seed in (1, 2):  # two model checkpoints saved in turn to the same path
            save_checkpoint(encoder_file, init_params(config, Variant.MOTION_ONLY, seed), config, Variant.MOTION_ONLY)
            out = tmp_path / f"pf{seed}"
            argv = [*_flow_reader_argv("prima-facie", corpus, flows, out), "--encoder-file", str(encoder_file)]
            assert main(argv) == 0
            payload = json.loads((out / "provenance.json").read_text())
            assert payload["encoder_hash"] == hash_file(encoder_file)
            hashes.append(payload["provenance_hash"])
        assert hashes[0] != hashes[1]

    def test_frozen_encoder_file_is_config_error(self, synth_run, tmp_path, capsys):
        _, corpus, flows = synth_run
        encoder_file = tmp_path / "enc.meck"
        write_frozen_encoder_file(encoder_file)
        out = tmp_path / "pf"
        capsys.readouterr()
        assert main([*_flow_reader_argv("prima-facie", corpus, flows, out), "--encoder-file", str(encoder_file)]) == 2
        assert "'frozen_encoder' file, not a model checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_quota_refusal(self, synth_run):
        root, corpus, flows = synth_run
        code = main(
            [
                "prima-facie",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--out", str(root / "pf_bad"),
                "--seeds", "1",
                "--budget", "16",
            ]
        )
        assert code == 3


class TestGradcamCommand:
    def test_maps_grouped_and_deterministic(self, synth_run, loso_run):
        root, corpus, flows = synth_run
        ckpt = loso_run / "model_dual_motion.meck"
        out = root / "cams"
        code = main(
            [
                "gradcam",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--checkpoint", str(ckpt),
                "--out", str(out),
            ]
        )
        assert code == 0
        # default class filter: Positive and Surprise only, grouped by ethnicity
        pgms = sorted(p.relative_to(out) for p in out.rglob("*.pgm"))
        assert pgms, "no maps written"
        groups = {p.parts[0] for p in pgms}
        classes = {p.parts[1] for p in pgms}
        assert groups == {"Asian", "NonAsian"}
        assert classes == {"Positive", "Surprise"}
        # 3+3 subjects x 1 positive + 1 surprise clip each
        assert len(pgms) == 12
        # one maps.jsonl line per map, naming its file, and no other JSON record
        lines = [json.loads(line) for line in (out / "maps.jsonl").read_text().splitlines()]
        assert sorted(Path(line["ethnicity"], line["class"], f"{line['sample']}.pgm") for line in lines) == pgms
        assert [p.relative_to(out) for p in out.rglob("*.json")] == [Path("provenance.json")]

    def test_unknown_class_is_config_error(self, synth_run, loso_run):
        root, corpus, flows = synth_run
        ckpt = loso_run / "model_dual_motion.meck"
        code = main(
            [
                "gradcam",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--checkpoint", str(ckpt),
                "--out", str(root / "cams_bad"),
                "--classes", "Bliss",
            ]
        )
        assert code == 2
        assert not (root / "cams_bad").exists()

    @pytest.mark.parametrize(
        "damage",
        [lambda t: t.pop("head.fusion.b"), lambda t: t.update({"head.fusion.w": np.zeros((3, 5))})],
        ids=["missing-tensor", "wrong-shape"],
    )
    def test_checkpoint_off_its_variant_layout_is_data_error(self, synth_run, tmp_path, damage):
        _, corpus, flows = synth_run
        config = ModelConfig.toy(32)
        tensors = dict(init_params(config, Variant.DUAL_MOTION, seed=0).tensors)
        damage(tensors)
        ckpt = tmp_path / "model.meck"
        save_checkpoint(ckpt, ParamSet(tensors), config, Variant.DUAL_MOTION)
        code = main(
            [
                "gradcam",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "cams"),
            ]
        )
        assert code == 3

    def test_a_diverged_model_is_data_error(self, synth_run, tmp_path, capsys):
        # finite weights of magnitude 1e308 overflow the forward pass into NaN logits
        _, corpus, flows = synth_run
        config = ModelConfig.toy(32)
        params = init_params(config, Variant.DUAL_MOTION, seed=0)
        ckpt = tmp_path / "model.meck"
        save_checkpoint(ckpt, params.like(np.copysign(1e308, params.flat)), config, Variant.DUAL_MOTION)
        argv = ["gradcam", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows),
                "--checkpoint", str(ckpt), "--out", str(tmp_path / "cams")]
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 3
        assert "logits are not finite" in capsys.readouterr().err
        assert not (tmp_path / "cams").exists()

    @pytest.mark.parametrize("branch", ["emotion", "fusion", "ethnicity"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_every_variant_and_branch(self, synth_run, tmp_path, monkeypatch, variant, branch):
        _, corpus, flows = synth_run
        config = ModelConfig.small(32)
        ckpt = tmp_path / "model.meck"
        save_checkpoint(ckpt, init_params(config, variant, 0), config, variant)
        real_gradcam, amaps = cli.gradcam, []

        def spy(*args, **kwargs):
            amaps.append(real_gradcam(*args, **kwargs))
            return amaps[-1]

        monkeypatch.setattr(cli, "gradcam", spy)
        out = tmp_path / "cams"
        code = main(
            [
                "gradcam",
                "--manifest", str(corpus / "manifest.jsonl"),
                "--flow-dir", str(flows),
                "--checkpoint", str(ckpt),
                "--out", str(out),
                "--branch", branch,
            ]
        )
        if not variant.has_ethnic_branch and branch != "emotion":
            assert code == 2
            return
        assert code == 0
        manifest = load_manifest(corpus / "manifest.jsonl")
        selected = [r for r in manifest.eligible() if r.mapped_emotion.value in ("Positive", "Surprise")]
        assert len((out / "maps.jsonl").read_text().splitlines()) == len(selected) == len(amaps) == 12
        assert all(0.0 <= a.overlay.min() and a.overlay.max() <= 1.0 for a in amaps)
        if branch == "ethnicity":
            lines = {line["sample"]: line for line in map(json.loads, (out / "maps.jsonl").read_text().splitlines())}
            for record in selected:
                target = lines[flow_image_path(flows, record).stem]["target_class"]
                assert target == ETHNICITY_CLASSES.index(record.mapped_ethnicity.value)
                assert target == {"sa": 0, "sn": 1}[record.subject_id[:2]]


class TestReportCommand:
    def test_consolidated_report(self, synth_run, loso_run, capsys):
        root, corpus, flows = synth_run
        out = root / "report.md"
        code = main(["report", "--run-dir", str(root), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "provenance hash" in text
        assert "configured deviations" in text
        flow_hash = json.loads((flows / "provenance.json").read_text())["provenance_hash"]
        assert f"- flow_provenance_hash: `{flow_hash}`" in text

    def test_missing_sidecars_fail(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["report", "--run-dir", str(tmp_path / "empty")]) == 3

    @pytest.mark.parametrize(
        "content", [b'{"command": ', b"[1, 2]\n", b'{"deviations": [1, 2]}'], ids=["bad-json", "list", "deviations-list"]
    )
    def test_damaged_provenance_is_data_error(self, tmp_path, capsys, content):
        sidecar = tmp_path / "run" / "provenance.json"
        sidecar.parent.mkdir()
        sidecar.write_bytes(content)
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 3
        assert str(sidecar) in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["benchmark.md", "prima_facie.md"])
    def test_table_that_is_not_utf8_is_data_error(self, tmp_path, capsys, table):
        run = tmp_path / "run"
        run.mkdir()
        (run / "provenance.json").write_text(json.dumps({"command": "loso"}))
        (run / table).write_bytes(b"\xff\xfe| class | F1 |\n")
        assert main(["report", "--run-dir", str(run)]) == 3
        assert f"{run / table}: table is not UTF-8 text" in capsys.readouterr().err


def _flow_reader_argv(command, corpus, flows, out, loso_run=None) -> list:
    """A cheap run of a command that reads --flow-dir; gradcam maps loso_run's model."""
    if command == "loso":
        return _loso_argv(corpus, flows, out)
    common = ["--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows), "--out", str(out)]
    if command == "prima-facie":
        return ["prima-facie", *common, "--seeds", "1", "--budget", "2", "--trees", "2"]
    return ["gradcam", *common, "--checkpoint", str(loso_run / "model_dual_motion.meck"), "--classes", "Positive"]


@pytest.mark.parametrize("command", ["loso", "prima-facie", "gradcam"])
def test_flow_provenance_is_recorded(synth_run, loso_run, tmp_path, command):
    _, corpus, flows = synth_run
    out = loso_run
    if command != "loso":
        out = tmp_path / "out"
        assert main(_flow_reader_argv(command, corpus, flows, out, loso_run)) == 0
    flow_hash = json.loads((flows / "provenance.json").read_text())["provenance_hash"]
    assert json.loads((out / "provenance.json").read_text())["flow_provenance_hash"] == flow_hash


@pytest.mark.parametrize("content", [None, b"[1, 2]\n", b'{"provenance_hash": '], ids=["missing", "list", "bad-json"])
@pytest.mark.parametrize("command", ["loso", "prima-facie", "gradcam"])
def test_bad_flow_provenance_is_data_error(synth_run, loso_run, tmp_path, capsys, command, content):
    _, corpus, flows = synth_run
    flow_dir, out = tmp_path / "flows", tmp_path / "out"
    shutil.copytree(flows, flow_dir)
    sidecar = flow_dir / "provenance.json"
    if content is None:
        sidecar.unlink()
    else:
        sidecar.write_bytes(content)
    capsys.readouterr()
    assert main(_flow_reader_argv(command, corpus, flow_dir, out, loso_run)) == 3
    assert str(sidecar) in capsys.readouterr().err
    assert not (out / "provenance.json").exists()


@pytest.mark.parametrize("command", ["loso", "loso-no-resume", "prima-facie", "gradcam"])
def test_missing_flow_image_is_data_error(synth_run, loso_run, tmp_path, capsys, command):
    _, corpus, flows = synth_run
    flow_dir, out = tmp_path / "flows", tmp_path / "out"
    shutil.copytree(flows, flow_dir)
    missing = flow_image_path(flow_dir, load_manifest(corpus / "manifest.jsonl").eligible()[0])
    missing.unlink()
    argv = _flow_reader_argv(command.removesuffix("-no-resume"), corpus, flow_dir, out, loso_run)
    capsys.readouterr()
    assert main(argv + (["--no-resume"] if command == "loso-no-resume" else [])) == 3
    err = capsys.readouterr().err
    assert "flow image missing for" in err and str(missing) in err


@pytest.mark.parametrize("command", ["loso", "prima-facie", "gradcam"])
def test_a_flow_image_with_foreign_clip_ranges_is_data_error(synth_run, loso_run, tmp_path, capsys, command):
    # the clip ranges are a format constant: a file that declares others would otherwise be read as if it did not
    _, corpus, flows = synth_run
    flow_dir, out = tmp_path / "flows", tmp_path / "out"
    shutil.copytree(flows, flow_dir)
    eligible = load_manifest(corpus / "manifest.jsonl").eligible()
    foreign = flow_image_path(flow_dir, next(r for r in eligible if r.mapped_emotion == MappedEmotion.POSITIVE))
    data = foreign.read_bytes()
    foreign.write_bytes(data[:-24] + np.array([-6, 6, -6, 6, 0, 1], dtype="<f4").tobytes())
    capsys.readouterr()
    assert main(_flow_reader_argv(command, corpus, flow_dir, out, loso_run)) == 3
    assert f"{foreign}: clip ranges (-6.0, 6.0, -6.0, 6.0, 0.0, 1.0) in the trailer" in capsys.readouterr().err
    assert not (out / "provenance.json").exists()


def test_a_non_square_flow_image_is_refused_before_any_fold_runs(synth_run, tmp_path, monkeypatch, capsys):
    _, corpus, flows = synth_run
    flow_dir, out = tmp_path / "flows", tmp_path / "out"
    shutil.copytree(flows, flow_dir)
    eligible = load_manifest(corpus / "manifest.jsonl").eligible()
    wide = OpticalFlowImage(np.full((3, 32, 40), 0.5, dtype=np.float32))
    for record in eligible:
        write_flow_image(wide, flow_image_path(flow_dir, record))
    sizes = _count_train_fold(monkeypatch, stub=True)
    capsys.readouterr()
    assert main(_loso_argv(corpus, flow_dir, out)) == 3
    assert f"{flow_image_path(flow_dir, eligible[0])}: the model takes square flow images, got 32x40" in (
        capsys.readouterr().err)
    assert sizes == [] and not out.exists()


_DROP = object()  # deletes a field in a damage spec


def _damaged(intact: bytes, damage) -> bytes:
    """damage is the replacement bytes, a function of the intact bytes, or {field: new value} applied
    to the entry's JSON object."""
    if isinstance(damage, bytes):
        return damage
    if callable(damage):
        return damage(intact)
    obj = json.loads(intact)
    for key, value in damage.items():
        if value is _DROP:
            del obj[key]
        else:
            obj[key] = value
    return json.dumps(obj).encode()


def _in_value(change):
    """damage that replaces an entry's value v with change(v)."""

    def damage(intact: bytes) -> bytes:
        obj = json.loads(intact)
        obj["value"] = change(obj["value"])
        return json.dumps(obj).encode()

    return damage


def _flip_last_bit(intact: bytes) -> bytes:
    return intact[:-1] + bytes([intact[-1] ^ 1])


@pytest.mark.parametrize(
    "entry, damage",
    [
        ("sidecar", b"[1, 2]\n"),
        ("sidecar", b"\xff\xfe{}\n"),
        ("sidecar", {"value": [0.25, 0.5, 0.0]}),
        ("sidecar", {"value": _DROP}),
        ("sidecar", _in_value(lambda value: {k: v for k, v in value.items() if k != "sha256"})),
        ("sidecar", _in_value(lambda value: {**value, "sha256": "0" * 64})),
        ("ofi", "replaced"),
        ("ofi", _flip_last_bit),
        ("fold", b'{"key": '),
        ("fold", b"[]\n"),
        ("fold", {"value": _DROP}),
        ("fold", {"value": "x"}),
        ("fold", _in_value(lambda value: value + [0])),
        ("fold", _in_value(lambda value: value[:-1])),
        ("fold", _in_value(lambda value: [True] + value[1:])),
        ("fold", _in_value(lambda value: [1.0] + value[1:])),
        ("fold", _in_value(lambda value: [-1] + value[1:])),
        ("fold", _in_value(lambda value: [3] + value[1:])),
        ("fold", _in_value(lambda value: ["1"] + value[1:])),
        ("model-entry", b"garbage"),
        ("model-entry", {"value": "0" * 64}),
        ("model", _flip_last_bit),
        ("model", None),
    ],
    ids=["sidecar-list", "sidecar-not-utf8", "sidecar-fraction-only", "sidecar-no-value", "sidecar-no-hash",
         "sidecar-other-hash",
         "ofi-replaced", "ofi-bit-flipped", "fold-truncated", "fold-list", "fold-no-value", "fold-string",
         "fold-predictions-long", "fold-predictions-short", "fold-prediction-bool", "fold-prediction-float",
         "fold-prediction-negative", "fold-prediction-past-last-class", "fold-prediction-string",
         "model-entry-garbage", "model-entry-other-hash", "model-bytes-altered", "model-deleted"],
)
def test_damaged_cache_entry_is_recomputed(synth_run, loso_run, tmp_path, monkeypatch, capsys, entry, damage):
    """A damaged entry, or a file that no longer matches its entry, is recomputed, and nothing else is:
    a flow only its own clip, a fold only its own model, a full-data model only itself; damage None
    deletes, and "replaced" copies another clip's OFI file over the target."""
    _, corpus, flows = synth_run
    flow_dir = tmp_path / "flows"
    shutil.copytree(flows, flow_dir)
    if entry in ("sidecar", "ofi"):
        argv = ["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flow_dir)]
        target = sorted(flow_dir.glob({"sidecar": "*.ofi.json", "ofi": "*.ofi"}[entry]))[0]
    else:
        out = tmp_path / "loso"
        argv = _loso_argv(corpus, flow_dir, out)
        shutil.copytree(loso_run, out)
        target = {
            "fold": sorted((out / "folds").glob("fold_dual_motion_*.json"))[0],
            "model-entry": out / "model_dual_motion.meck.json",
            "model": out / "model_dual_motion.meck",
        }[entry]
    intact = target.read_bytes()
    if damage is None:
        target.unlink()
    elif damage == "replaced":
        shutil.copyfile(sorted(flow_dir.glob("*.ofi"))[1], target)
    else:
        target.write_bytes(_damaged(intact, damage))
    sizes = _count_train_fold(monkeypatch)
    capsys.readouterr()
    assert main(argv) == 0
    assert target.read_bytes() == intact
    manifest = load_manifest(corpus / "manifest.jsonl")
    eligible = manifest.eligible()
    if entry in ("sidecar", "ofi"):
        assert sizes == []
        assert f"flow images: 1 computed, {len(manifest.records) - 1} cached" in capsys.readouterr().out
    elif entry == "fold":
        subject = target.stem.removeprefix("fold_dual_motion_")
        assert sizes == [sum(r.subject_id != subject for r in eligible)]
    else:
        assert sizes == [len(eligible)]


def test_a_stored_clip_fraction_is_not_reported(synth_run, tmp_path, capsys):
    # an entry written before the fractions were derived from the OFI files also holds them: a hit that
    # keeps its stored value, while the summary reads every clip's fractions from its OFI file
    _, corpus, flows = synth_run
    flow_dir = tmp_path / "flows"
    shutil.copytree(flows, flow_dir)
    argv = ["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flow_dir)]
    capsys.readouterr()
    assert main(argv + ["--force"]) == 0
    cold = capsys.readouterr().out
    n = len(load_manifest(corpus / "manifest.jsonl").records)
    assert cold.startswith(f"flow images: {n} computed, 0 cached (clip fraction mean")
    assert not cold.endswith("max=0.0000)\n")  # some clip has a value at a clip bound
    sidecar = sorted(flow_dir.glob("*.ofi.json"))[0]
    entry = json.loads(sidecar.read_text())
    entry["value"]["clip_fraction"] = [0.9, 0.9, 0.9]
    sidecar.write_text(json.dumps(entry))
    stale = sidecar.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == cold.replace(f"{n} computed, 0 cached", f"0 computed, {n} cached")
    assert sidecar.read_bytes() == stale


def test_a_fold_entry_in_the_old_record_form_is_retrained(synth_run, loso_run, tmp_path, monkeypatch):
    # an entry that stored the fold's confusion counts, here inflated to a perfect score, is a miss
    _, corpus, flows = synth_run
    out = tmp_path / "loso"
    shutil.copytree(loso_run, out)
    stale = sorted((out / "folds").glob("fold_dual_motion_*.json"))[0]
    intact = stale.read_bytes()
    entry = json.loads(intact)
    subject = stale.stem.removeprefix("fold_dual_motion_")
    confusion = {"classes": ["Negative", "Positive", "Surprise"], "counts": [[9, 0, 0], [0, 9, 0], [0, 0, 9]]}
    entry["value"] = {"held_out_subject": subject, "confusion": confusion}
    stale.write_text(json.dumps(entry))
    sizes = _count_train_fold(monkeypatch)
    assert main(_loso_argv(corpus, flows, out)) == 0
    eligible = load_manifest(corpus / "manifest.jsonl").eligible()
    assert sizes == [sum(r.subject_id != subject for r in eligible)]
    assert stale.read_bytes() == intact
    assert json.loads((out / "benchmark.json").read_text()) == json.loads((loso_run / "benchmark.json").read_text())


def test_cold_loso_reads_and_hashes_each_flow_image_once(synth_run, tmp_path, monkeypatch):
    # the folds and the full-data model share one key base and one sample load
    _, corpus, flows = synth_run
    reads, hashes = Counter(), Counter()
    read, hash_ = pipeline.read_flow_image, runutil.hash_file

    def counting_read(path):
        reads[Path(path).name] += 1
        return read(path)

    def counting_hash(path):
        if Path(path).suffix == ".ofi":
            hashes[Path(path).name] += 1
        return hash_(path)

    monkeypatch.setattr(pipeline, "read_flow_image", counting_read)
    monkeypatch.setattr(runutil, "hash_file", counting_hash)
    assert main(_loso_argv(corpus, flows, tmp_path / "loso")) == 0
    once = {flow_image_path(flows, r).name: 1 for r in load_manifest(corpus / "manifest.jsonl").eligible()}
    assert reads == hashes == once


@pytest.mark.parametrize(
    "command, extra, code, message",
    [
        ("loso", ["--batch-size", "0"], 2, "batch_size must be >= 1"),
        ("loso", ["--epochs", "0"], 2, "epochs and batch_size must be >= 1"),
        ("loso", ["--lr", "-1"], 2, "base_lr must be finite and > 0"),
        ("loso", ["--lr", "0"], 2, "base_lr must be finite and > 0"),
        ("loso", ["--lr-gamma", "0"], 2, "lr_gamma must be finite and > 0"),
        ("loso", ["--lr-gamma", "1.5"], 2, "lr_gamma is a per-epoch decay and must be <= 1, got 1.5"),
        ("prima-facie", ["--budget", "0"], 2, "subject budget must be >= 2"),
        ("prima-facie", ["--budget", "-2"], 2, "subject budget must be >= 2"),
        ("prima-facie", ["--seeds", "0"], 2, "needs at least one seed"),
        ("prima-facie", ["--budget", "3"], 2, "Mixed needs an even subject budget, got 3"),
        ("prima-facie", ["--scenarios", "NoSuch"], 2, "unknown scenario"),
        ("loso-36px", ["--variants", "motion_plus_rgb_patch"], 2, "image side 36 not divisible by patch size 8"),
        ("flow", ["--alpha", "inf"], 2, "smoothness_alpha must be finite and > 0"),
        ("flow", ["--alpha", "nan"], 2, "smoothness_alpha must be finite and > 0"),
        ("flow", ["--alpha", "1e-200"], 2, "smoothness_alpha squared must be a normal float"),
        ("flow", ["--alpha", "1e-170", "--iterations", "3"], 2, "smoothness_alpha squared must be a normal float"),
    ],
    ids=["batch-size-0", "epochs-0", "lr-negative", "lr-0", "lr-gamma-0", "lr-gamma-grows", "budget-0", "budget-negative",
         "seeds-0", "budget-odd", "scenarios-unknown", "image-size-patch-indivisible", "alpha-inf", "alpha-nan",
         "alpha-square-underflows", "alpha-square-underflows-few-iterations"],
)
def test_out_of_range_argument_is_not_internal_error(
    synth_run, request, tmp_path, capsys, monkeypatch, command, extra, code, message
):
    _, corpus, flows = request.getfixturevalue("synth_run_36px") if command == "loso-36px" else synth_run
    command = command.removesuffix("-36px")
    out = tmp_path / "out"

    def no_extraction(flow_image, encoder):
        raise AssertionError("features extracted before the arguments were checked")

    monkeypatch.setattr(cli, "extract_frozen_features", no_extraction)
    if command == "loso":
        argv = _loso_argv(corpus, flows, out)
    elif command == "flow":
        argv = ["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(out)]
    else:
        argv = ["prima-facie", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows),
                "--out", str(out), "--seeds", "1", "--trees", "2"]
    capsys.readouterr()
    assert main(argv + extra) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_diverged_loso_run_is_data_error(synth_run_36px, tmp_path, capsys):
    # a learning rate of 1e308 leaves finite weights whose logits are NaN: no fold may be scored from them
    _, corpus, flows = synth_run_36px
    out = tmp_path / "loso"
    argv = ["loso", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows), "--out", str(out),
            "--lr", "1e308", "--epochs", "1", "--variants", "motion_only"]
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 3
    assert "logits are not finite" in capsys.readouterr().err
    assert not list(tmp_path.rglob("benchmark.*"))


@pytest.fixture(scope="module")
def mixed_size_run(tmp_path_factory):
    """An indexed corpus whose subject 01 has 32 px frames and subject 02 64 px frames, and its flows."""
    from mebench.flowcore import write_pgm

    root = tmp_path_factory.mktemp("mixed_size")
    rng = np.random.default_rng(0)
    lines = ["subject,clip,onset,apex,emotion"]
    for subject, side in (("01", 32), ("02", 64)):
        for clip, emotion in (("a", "happiness"), ("b", "fear")):
            for tag in ("on", "ap"):
                write_pgm(root / f"{subject}_{clip}_{tag}.pgm", rng.uniform(0, 1, (side, side)))
            lines.append(f"{subject},{clip},{subject}_{clip}_on.pgm,{subject}_{clip}_ap.pgm,{emotion}")
    (root / "index.csv").write_text("\n".join(lines) + "\n")
    (root / "attrs.json").write_text(json.dumps({"01": "Asian", "02": "Caucasian"}))
    corpus, flows = root / "corpus", root / "flows"
    argv = ["manifest", "--casme2", str(root / "index.csv"), "--predictor-table", str(root / "attrs.json")]
    assert main([*argv, "--out", str(corpus)]) == 0
    assert main(["flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows)]) == 0
    return root, corpus, flows


@pytest.mark.parametrize("variants", [None, "motion_plus_rgb_patch"], ids=["default-variants", "patch"])
def test_loso_on_clips_of_two_sizes_is_data_error(mixed_size_run, tmp_path, capsys, variants):
    _, corpus, flows = mixed_size_run
    out = tmp_path / "out"
    argv = ["loso", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows), "--out", str(out),
            "--epochs", "1"]
    capsys.readouterr()
    assert main(argv + (["--variants", variants] if variants else [])) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: clip CASME2:02:a has flow shape (3, 64, 64), but clip CASME2:01:a has (3, 32, 32)")
    assert not out.exists()


def test_prima_facie_on_clips_of_two_sizes_runs(mixed_size_run, tmp_path):
    # its features are pooled, so clips of two sizes give vectors of one length
    _, corpus, flows = mixed_size_run
    argv = ["prima-facie", "--manifest", str(corpus / "manifest.jsonl"), "--flow-dir", str(flows),
            "--out", str(tmp_path / "pf"), "--scenarios", "Mixed", "--budget", "2", "--seeds", "1", "--trees", "5"]
    assert main(argv) == 0
    assert (tmp_path / "pf" / "prima_facie.json").exists()


@pytest.mark.parametrize("command", ["manifest", "loso"])
def test_memory_error_is_data_error(synth_run, tmp_path, capsys, monkeypatch, command):
    # the MemoryError an oversized size argument raises, stubbed where the allocation would happen: a real
    # request of that size can succeed under overcommit and be killed later
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    _, corpus, flows = synth_run
    out = tmp_path / "out"
    if command == "manifest":
        monkeypatch.setattr(cli, "synthesize_desk_corpus", out_of_memory)
        argv = ["manifest", "--synth", "--image-size", "100000", "--out", str(out)]
    else:
        monkeypatch.setattr(benchmark, "train_fold", out_of_memory)
        argv = [*_loso_argv(corpus, flows, out), "--feature-dim", "100000000"]
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err == "data error: not enough memory: Unable to allocate 74.5 GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["flow", "gradcam", "prima-facie"])
def test_path_naming_a_directory_is_data_error(synth_run, loso_run, tmp_path, capsys, command):
    _, corpus, flows = synth_run
    directory = tmp_path / "a_directory"
    directory.mkdir()
    out = tmp_path / "out"
    if command == "flow":
        manifest = load_manifest(corpus / "manifest.jsonl")
        first, *rest = manifest.records
        manifest_path = tmp_path / "manifest.jsonl"
        save_manifest(build_manifest([replace(first, apex_path=str(directory)), *rest], manifest.provenance),
                      manifest_path)
        argv = ["flow", "--manifest", str(manifest_path), "--out", str(out)]
    elif command == "gradcam":
        argv = _flow_reader_argv("gradcam", corpus, flows, out, loso_run)
        argv[argv.index("--checkpoint") + 1] = str(directory)
    else:
        argv = [*_flow_reader_argv("prima-facie", corpus, flows, out), "--encoder-file", str(directory)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(directory) in err
    assert not out.exists()


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """`python -c code args` in a fresh interpreter that imports this checkout's mebench."""
    src = str(Path(mebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=False)


def test_cli_import_loads_no_process_pool():
    # the pool is imported only when a command fans out to workers, so a serial run never pays for it
    pool_modules = ("concurrent.futures.process", "multiprocessing")
    result = _run_python(f"import sys, mebench.cli; print([m for m in {pool_modules!r} if m in sys.modules])")
    assert (result.returncode, result.stdout.strip()) == (0, "[]")


def test_cli_import_loads_no_scipy():
    code = "import sys, mebench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = _run_python(code)
    assert (result.returncode, result.stdout.strip()) == (0, "[]")


def test_cli_import_loads_no_numpy_ma():
    code = "import sys, mebench.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    result = _run_python(code)
    assert (result.returncode, result.stdout.strip()) == (0, "[]")


# the program's own entry point, in an interpreter where any import of scipy fails
_MAIN_WITHOUT_SCIPY = (
    "import sys; sys.modules['scipy'] = None; from mebench.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_commands_run_without_scipy(tmp_path):
    version = _run_python(_MAIN_WITHOUT_SCIPY, "--version")
    assert (version.returncode, version.stdout.strip()) == (0, f"mebench {mebench.__version__}")
    corpus, flows = tmp_path / "synth", tmp_path / "flows"
    manifest = _run_python(_MAIN_WITHOUT_SCIPY, "manifest", "--synth", "--out", str(corpus),
                           "--subjects-per-group", "1", "--clips-per-subject", "1", "--image-size", "32")
    assert manifest.returncode == 0, manifest.stderr
    flow = _run_python(_MAIN_WITHOUT_SCIPY, "flow", "--manifest", str(corpus / "manifest.jsonl"), "--out", str(flows))
    assert flow.returncode == 0, flow.stderr
    assert len(list(flows.glob("*.ofi"))) == 2
