"""Hostile-input fuzzing of the file readers: damaged OFI1 flow images,
MECK1 model checkpoints (read as models and as frozen encoders), PNM
frames, manifests, correction ledgers and dataset index tables (beside
real frame files).

Each valid file is truncated, has bytes changed, or is spliced with
another valid file. Whatever comes back, the reader either returns or
raises a MebenchError: a DataError for the flow-image and checkpoint
readers, whose every refusal is a malformed file, and a ConfigError or
DataError for the others. Any other exception would reach the CLI as an
internal error (exit 4) instead of a configuration or data error (exit 2
or 3).

Changes come in two kinds: an XOR of any byte, and an edit of the bytes
around a number in a MECK1 header's config (a digit, or the space
before it, replaced by a digit or a minus sign). Random XORs almost
never hit the few bytes that hold a config value, so the second kind
aims there.

A MECK1 header that names a huge config is refused before any tensor of
that size is allocated, and so are index rows that are over-long, short,
or that name a directory as a frame. A manifest clip whose frames the
flow solver cannot take (sizes that differ, a side below 8 px) is refused
from the frame headers, naming the clip, before any flow is solved.
"""

import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mebench.corpus import (
    CorrectionRule,
    Dataset,
    RawEthnicity,
    SampleRecord,
    build_manifest,
    ingest_dataset_index,
    load_ledger,
    load_manifest,
    save_manifest,
)
from mebench.cli import main
from mebench.corpus.manifest import DanglingPathError
from mebench.errors import DataError, MebenchError
from mebench.flowcore import (
    FlowField,
    assemble_flow_image,
    compute_strain,
    load_frame,
    load_rgb_frame,
    read_flow_image,
    write_flow_image,
    write_pgm,
)
from mebench.model import (
    FrozenEncoder,
    ModelConfig,
    Variant,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from mebench.model.params import model_tensors
from mebench.pipeline import sample_key
from mebench.runutil import to_json_dict

FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _xor(data: bytes):
    return st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)).map(lambda p: (p[0], data[p[0]] ^ p[1]))


def _number_edit(data: bytes):
    """(position, byte) that rewrites a digit of a MECK1 header's config, or the space before one."""
    (header_len,) = struct.unpack_from("<I", data, 6)
    header = data[10 : 10 + header_len]
    config = header[: header.index(b'"tensors"')]  # keys are sorted: "config" comes first
    spots = [10 + i for i in range(len(config)) if config[i : i + 1].isdigit() or config[i + 1 : i + 2].isdigit()]
    return st.tuples(st.sampled_from(spots), st.sampled_from(b"0123456789-"))


def _damaged(data: bytes, sources: list, *edits) -> st.SearchStrategy:
    """data truncated, changed by 1-3 draws of one of the edits strategies, or spliced with one of sources."""
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])

    def apply(changes):
        out = bytearray(data)
        for position, byte in changes:
            out[position] = byte
        return bytes(out)

    changed = [st.lists(edit, min_size=1, max_size=3).map(apply) for edit in edits]
    spliced = st.tuples(st.integers(0, len(data)), st.sampled_from(sources)).flatmap(
        lambda p: st.integers(0, len(p[1])).map(lambda j: data[: p[0]] + p[1][j:])
    )
    return st.one_of(truncated, *changed, spliced)


def _only_errors(error, read, path, payload: bytes) -> None:
    path.write_bytes(payload)
    try:
        read(path)
    except error:
        pass


@pytest.fixture(scope="module")
def flow_images(tmp_path_factory) -> list:
    out = []
    for i, (h, w) in enumerate([(4, 5), (6, 3)]):
        rng = np.random.default_rng(i)
        flow = FlowField(rng.normal(0, 2, (h, w)), rng.normal(0, 2, (h, w)))
        path = tmp_path_factory.mktemp("ofi") / "valid.ofi"
        write_flow_image(assemble_flow_image(flow, compute_strain(flow)), path)
        out.append(path.read_bytes())
    return out


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory) -> list:
    out = []
    config = ModelConfig.toy(16)
    for variant in (Variant.DUAL_MOTION, Variant.MOTION_RGB_PATCH):
        path = tmp_path_factory.mktemp("meck") / "valid.meck"
        save_checkpoint(path, init_params(config, variant, seed=0), config, variant)
        out.append(path.read_bytes())
    return out


@FUZZ
@given(data=st.data())
def test_damaged_flow_image_raises_only_data_error(flow_images, tmp_path, data):
    base = data.draw(st.sampled_from(flow_images))
    payload = data.draw(_damaged(base, flow_images, _xor(base)))
    _only_errors(DataError, read_flow_image, tmp_path / "damaged.ofi", payload)


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_raises_only_data_error(checkpoints, tmp_path, data):
    base = data.draw(st.sampled_from(checkpoints))
    payload = data.draw(_damaged(base, checkpoints, _xor(base), _number_edit(base)))
    _only_errors(DataError, load_checkpoint, tmp_path / "damaged.meck", payload)


@pytest.fixture(scope="module")
def frames() -> list:
    rng = np.random.default_rng(0)
    gray = rng.integers(0, 256, (3, 4), dtype=np.uint8)
    rgb = rng.integers(0, 65536, (2, 3, 3)).astype(">u2")
    return [
        b"P5\n4 3\n255\n" + gray.tobytes(),
        b"P6 3 2 65535\n" + rgb.tobytes(),
        b"P2\n# a comment\n3 2\n15\n0 7 15\n1 2 3\n",
        b"P3\n2 1\n255\n255 0 0 0 128 255\n",
    ]


@pytest.fixture(scope="module")
def encoder_files(tmp_path_factory) -> list:
    """Checkpoints of the two variants that the checkpoints fixture leaves out, to be read as frozen encoders."""
    out = []
    config = ModelConfig.toy(16)
    for variant in (Variant.MOTION_ONLY, Variant.MOTION_RGB_CONV):
        path = tmp_path_factory.mktemp("encoder") / "valid.meck"
        save_checkpoint(path, init_params(config, variant, seed=1), config, variant)
        out.append(path.read_bytes())
    return out


@pytest.fixture(scope="module")
def manifests(tmp_path_factory) -> list:
    out = []
    for i, ethnicity in enumerate((RawEthnicity.ASIAN, RawEthnicity.CAUCASIAN)):
        records = [
            SampleRecord(
                dataset=Dataset.SYNTH, subject_id=f"s{i}{j}", clip_id="c1", onset_path=f"f/on{j}.pgm",
                apex_path=f"f/ap{j}.pgm", raw_emotion=emotion, raw_ethnicity=ethnicity, age=20 + j,
            )
            for j, emotion in enumerate(("happiness", "fear", "others"))
        ]
        path = tmp_path_factory.mktemp("manifest") / "manifest.jsonl"
        save_manifest(build_manifest(records, {"seed": i}), path)
        out.append(path.read_bytes())
    return out


@pytest.fixture(scope="module")
def ledgers() -> list:
    rules = [
        [CorrectionRule("raw_ethnicity", "Asian", note="screened", subject_id="s01", expect="Others")],
        [CorrectionRule("age", "30", dataset="SAMM"), CorrectionRule("gender", "female")],
    ]
    return [b"# screened rules\n" + b"".join(json.dumps(to_json_dict(r)).encode() + b"\n" for r in ls) for ls in rules]


def _read_both_frame_forms(path):
    load_frame(path)
    load_rgb_frame(path)


@FUZZ
@given(data=st.data())
def test_damaged_frame_raises_only_mebench_error(frames, tmp_path, data):
    base = data.draw(st.sampled_from(frames))
    payload = data.draw(_damaged(base, frames, _xor(base)))
    _only_errors(MebenchError, _read_both_frame_forms, tmp_path / "damaged.pgm", payload)


@FUZZ
@given(data=st.data())
def test_damaged_encoder_checkpoint_raises_only_data_error(encoder_files, tmp_path, data):
    base = data.draw(st.sampled_from(encoder_files))
    payload = data.draw(_damaged(base, encoder_files, _xor(base), _number_edit(base)))
    _only_errors(DataError, FrozenEncoder.from_file, tmp_path / "damaged.meck", payload)


@FUZZ
@given(data=st.data())
def test_damaged_manifest_raises_only_mebench_error(manifests, tmp_path, data):
    base = data.draw(st.sampled_from(manifests))
    payload = data.draw(_damaged(base, manifests, _xor(base)))
    _only_errors(MebenchError, load_manifest, tmp_path / "manifest.jsonl", payload)


@FUZZ
@given(data=st.data())
def test_damaged_ledger_raises_only_mebench_error(ledgers, tmp_path, data):
    base = data.draw(st.sampled_from(ledgers))
    payload = data.draw(_damaged(base, ledgers, _xor(base)))
    _only_errors(MebenchError, load_ledger, tmp_path / "rules.jsonl", payload)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    """A directory holding the frame files that the valid index tables name."""
    root = tmp_path_factory.mktemp("index")
    for name in ("on1", "ap1", "on2", "ap2"):
        write_pgm(root / "fr" / f"{name}.pgm", np.zeros((4, 4)))
    return root


@pytest.fixture(scope="module")
def indexes() -> list:
    return [
        b"subject,clip,onset,apex,emotion\n01,a,fr/on1.pgm,fr/ap1.pgm,fear\n02,b,fr/on2.pgm,fr/ap2.pgm,happiness\n",
        b"Subject\tClip\tOnset\tApex\tEmotion\n01\ta\tfr/on1.pgm\tfr/ap2.pgm\tSurprise\n",
    ]


def _read_index(path):
    ingest_dataset_index(path, Dataset.CASME2)


def test_valid_indexes_are_read(index_dir, indexes):
    for payload in indexes:
        (index_dir / "index.csv").write_bytes(payload)
        assert ingest_dataset_index(index_dir / "index.csv", Dataset.CASME2)


@FUZZ
@given(data=st.data())
def test_damaged_dataset_index_raises_only_mebench_error(index_dir, indexes, data):
    base = data.draw(st.sampled_from(indexes))
    payload = data.draw(_damaged(base, indexes, _xor(base)))
    _only_errors(MebenchError, _read_index, index_dir / "index.csv", payload)


@pytest.mark.parametrize(
    "row, error, message",
    [
        (b"01,a,fr/on1.pgm,fr/ap1.pgm," + b"x" * 200_000, DataError, "hostile.csv: malformed index: field larger"),
        (b"01,a", DataError, "line 2: empty onset, apex, emotion"),
        (b"01,a,.,fr/ap1.pgm,fear", DanglingPathError, "line 2: frame path is not a file"),
        (b"01,a,fr/on1.pgm,fr,fear", DanglingPathError, "line 2: frame path is not a file"),
        (b"01,a," + b"a" * 300 + b",fr/ap1.pgm,fear", DanglingPathError, "line 2: frame path is not a file"),
    ],
    ids=["cell-over-200kb", "short-row", "onset-dot", "apex-directory", "name-too-long"],
)
def test_hostile_index_row_is_refused(index_dir, row, error, message):
    path = index_dir / "hostile.csv"
    path.write_bytes(b"subject,clip,onset,apex,emotion\n" + row + b"\n")
    with pytest.raises(error, match=message):
        ingest_dataset_index(path, Dataset.CASME2)


def _header_only(path, header: dict) -> None:
    """A MECK1 file holding header and no tensor data."""
    payload = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"MECK1\n" + struct.pack("<I", len(payload)) + payload)


_HUGE_PATCH = ModelConfig.small(4096)  # 262,144 patches: a 64 MB position table
_HUGE_FEATURES = ModelConfig.small(feature_dim=10**6)  # a 256 MB motion projection


@pytest.mark.parametrize(
    "read, header, message",
    [
        (
            FrozenEncoder.from_file,
            {"config": to_json_dict(_HUGE_FEATURES), "variant": "motion_only", "tensors": []},
            "layout mismatch",
        ),
        (
            load_checkpoint,
            {"config": to_json_dict(_HUGE_PATCH), "variant": "motion_plus_rgb_patch", "tensors": []},
            "layout mismatch",
        ),
        (
            load_checkpoint,
            {
                "config": to_json_dict(_HUGE_PATCH),
                "variant": "motion_plus_rgb_patch",
                "tensors": [
                    {"name": name, "shape": list(shape)}
                    for name, shape, _ in model_tensors(_HUGE_PATCH, Variant.MOTION_RGB_PATCH)
                ],
            },
            "bytes of tensor data",
        ),
    ],
    ids=["model-feature-dim-1e6", "patch-image-size-4096", "patch-image-size-4096-declared"],
)
def test_huge_config_header_is_refused_before_allocating(tmp_path, read, header, message):
    path = tmp_path / "huge.meck"
    _header_only(path, header)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=message):
            read(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize(
    "onset_shape, apex_shape, message",
    [
        ((32, 32), (16, 16), r"frame dims differ: onset \(32, 32\) vs apex \(16, 16\)"),
        ((32, 32), (32, 31), r"frame dims differ: onset \(32, 32\) vs apex \(32, 31\)"),
        ((6, 6), (6, 6), "frames must be at least 8px per side"),
        ((32, 7), (32, 7), "frames must be at least 8px per side"),
    ],
    ids=["apex-16px-onset-32px", "apex-one-column-short", "both-6px", "both-7px-wide"],
)
def test_flow_refuses_a_pair_the_solver_cannot_take(tmp_path, capsys, onset_shape, apex_shape, message):
    """The clip that the solver would refuse comes after a good one: nothing is solved or written."""
    rng = np.random.default_rng(0)
    shapes = {"good": ((32, 32), (32, 32)), "bad": (onset_shape, apex_shape)}
    records = []
    for clip, (onset, apex) in shapes.items():
        write_pgm(tmp_path / "fr" / f"{clip}_on.pgm", rng.random(onset))
        write_pgm(tmp_path / "fr" / f"{clip}_ap.pgm", rng.random(apex))
        records.append(
            SampleRecord(
                dataset=Dataset.SYNTH, subject_id="s1", clip_id=clip, onset_path=str(tmp_path / "fr" / f"{clip}_on.pgm"),
                apex_path=str(tmp_path / "fr" / f"{clip}_ap.pgm"), raw_emotion="happiness",
                raw_ethnicity=RawEthnicity.ASIAN, age=20,
            )
        )
    save_manifest(build_manifest(records, {"seed": 0}), tmp_path / "manifest.jsonl")
    bad = load_manifest(tmp_path / "manifest.jsonl").records[1]
    capsys.readouterr()
    assert main(["flow", "--manifest", str(tmp_path / "manifest.jsonl"), "--out", str(tmp_path / "flows")]) == 3
    err = capsys.readouterr().err
    assert f"record {sample_key(bad)} ({bad.onset_path}, {bad.apex_path})" in err
    assert re.search(message, err)
    assert not list(tmp_path.rglob("*.ofi"))
