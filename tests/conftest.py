"""Shared test helpers: the finite-difference gradient oracle, toy batches,
a file of the retired frozen-encoder header kind, and a terminal summary
that prints one PASS/FAIL line per acceptance criterion."""

import json
import struct

import numpy as np
import pytest

from mebench.model import EncoderConfig, FrozenEncoder, ModelConfig, TrainSample, Variant, init_params
from mebench.model import autodiff as ad
from mebench.model.training import backward, batch_loss_graph
from mebench.runutil import to_json_dict

# Seeds chosen so every ReLU pre-activation stays > 1e-3 from the kink for the
# 16x16 toy config; the central-difference oracle (step 1e-5) is only valid
# away from the nondifferentiable point, and the margin is asserted below.
FD_SEEDS = {
    Variant.MOTION_ONLY: 2,
    Variant.DUAL_MOTION: 37,
    Variant.MOTION_RGB_CONV: 2,
    Variant.MOTION_RGB_PATCH: 17,
}
FD_STEP = 1e-5
FD_REL_TOL = 1e-4
# gradients below this are numerically zero at 64-bit FD resolution
FD_DENOM_FLOOR = 1e-6


def make_toy_batch(seed, size=16, n=2):
    rng = np.random.Generator(np.random.PCG64(seed + 100))
    return [
        TrainSample(
            flow=rng.uniform(0.05, 0.95, size=(3, size, size)),
            rgb=rng.uniform(0.05, 0.95, size=(3, size, size)),
            emotion=int(rng.integers(0, 3)),
            ethnicity=int(rng.integers(0, 2)),
        )
        for _ in range(n)
    ]


def write_frozen_encoder_file(path):
    """A file of the frozen-encoder header kind that earlier versions wrote beside model checkpoints:
    {"kind": "frozen_encoder", "config": <EncoderConfig>, "tensors": [...]} over a conv stack."""
    encoder = FrozenEncoder.random_fallback(EncoderConfig(stage_widths=(2, 3), feature_dim=4), seed=0)
    tensors = [{"name": name, "shape": list(shape)} for name, shape in encoder.params.layout]
    header = {"kind": "frozen_encoder", "config": to_json_dict(encoder.config), "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"MECK1\n" + struct.pack("<I", len(header_bytes)) + header_bytes + encoder.params.flat.tobytes())


def relu_kink_margin(variant, seed, size=16):
    """Smallest |pre-activation| hitting any ReLU in the toy forward pass."""
    margins = []
    orig_relu = ad.relu

    def spy(a):
        margins.append(np.abs(ad.as_tensor(a).data).min())
        return orig_relu(a)

    ad.relu = spy
    try:
        config = ModelConfig.toy(size)
        params = init_params(config, variant, seed=seed)
        batch_loss_graph(params, make_toy_batch(seed, size), config, variant)
    finally:
        ad.relu = orig_relu
    return min(margins)


def fd_check_variant(variant, seed, step=FD_STEP, floor=FD_DENOM_FLOOR, size=16):
    """Worst relative error between analytic and central-difference gradients,
    over every scalar parameter of the variant."""
    config = ModelConfig.toy(size)
    params = init_params(config, variant, seed=seed)
    batch = make_toy_batch(seed, size)
    grads, _ = backward(params, batch, config, variant)

    def loss_at(p):
        total, _, _ = batch_loss_graph(p, batch, config, variant)
        return float(total.data)

    worst = 0.0
    n_scalars = 0
    for name in params:
        analytic = grads[name].ravel()
        for i in range(params[name].size):
            probe = params.like(params.flat.copy())
            flat = probe.tensors[name].ravel()
            orig = flat[i]
            flat[i] = orig + step
            loss_plus = loss_at(probe)
            flat[i] = orig - step
            loss_minus = loss_at(probe)
            fd = (loss_plus - loss_minus) / (2 * step)
            rel = abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), floor)
            worst = max(worst, rel)
            n_scalars += 1
    return worst, n_scalars


# ------------------------------------------------------------ acceptance summary

_acceptance_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" in report.nodeid and report.when == "call":
        _acceptance_results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        outcome = _acceptance_results[nodeid]
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{'PASS' if outcome == 'passed' else 'FAIL'}  {name}")
