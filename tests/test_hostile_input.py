"""Hostile-input fuzzing of the binary readers: damaged OFI1 and MECK1 files.

Each valid file is truncated, has bytes changed, or is spliced with
another valid file. Whatever comes back, the reader either returns or
raises a DataError; any other exception would reach the CLI as an
internal error (exit 4) instead of a data error (exit 3).

Changes come in two kinds: an XOR of any byte, and an edit of the bytes
around a number in a MECK1 header's config (a digit, or the space
before it, replaced by a digit or a minus sign). Random XORs almost
never hit the few bytes that hold a config value, so the second kind
aims there.
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mebench.errors import DataError
from mebench.flowcore import FlowField, assemble_flow_image, compute_strain, read_flow_image, write_flow_image
from mebench.model import ModelConfig, Variant, init_params, load_checkpoint, save_checkpoint

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


def _only_data_errors(read, path, payload: bytes) -> None:
    path.write_bytes(payload)
    try:
        read(path)
    except DataError:
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
    _only_data_errors(read_flow_image, tmp_path / "damaged.ofi", payload)


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_raises_only_data_error(checkpoints, tmp_path, data):
    base = data.draw(st.sampled_from(checkpoints))
    payload = data.draw(_damaged(base, checkpoints, _xor(base), _number_edit(base)))
    _only_data_errors(load_checkpoint, tmp_path / "damaged.meck", payload)
