"""Self-tests of the benchmark harness, on a tiny model so they run in seconds."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import workloads
from perfbench.tracer import Tracer, conv_counts
from spectralca import nn
from spectralca.block import SpectralCAConfig
from spectralca.classifier import ModelConfig, PatchClassifier
from spectralca.nn import Conv2D, Conv3D, cross_entropy
from spectralca.tensor import Tape, Tensor

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY_MODEL = ModelConfig(num_classes=3, patch_size=3, bands=4, stem_channels=4,
                         block1=SpectralCAConfig(channels=4, dim=8, heads=2))
TINY = workloads.Spec(height=8, width=8, batch=8, model=TINY_MODEL)


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(workloads.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_schema(name, trace, tmp_path):
    result, units = workloads.run(name, seed=3, seconds=0.05, trace=bool(trace),
                                  workdir=tmp_path, spec=TINY)
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and units >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result)


def test_same_seed_same_inputs():
    a, b, c = (workloads.build(TINY, seed) for seed in (5, 5, 6))
    every = np.arange(len(a.scene))
    assert np.array_equal(a.scene.batch(every), b.scene.batch(every))
    assert np.array_equal(a.scene.labels, b.scene.labels)
    assert np.array_equal(a.train.coords, b.train.coords)
    for (_, pa), (_, pb) in zip(a.model.named_parameters(), b.model.named_parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert not np.array_equal(a.scene.batch(every), c.scene.batch(every))


def test_tracer_charges_backward_and_self_time_to_module_path(monkeypatch):
    delay = 0.03
    forward, backward = nn._conv_forward, nn._conv_backward

    def slow_forward(xd, *args, **kwargs):
        if xd.ndim == 4:  # only the block's Conv2D
            time.sleep(delay)
        return forward(xd, *args, **kwargs)

    def slow_backward(g, xd, *args):
        if xd.ndim == 4:
            time.sleep(delay)
        return backward(g, xd, *args)

    monkeypatch.setattr(nn, "_conv_forward", slow_forward)
    monkeypatch.setattr(nn, "_conv_backward", slow_backward)
    model = PatchClassifier(TINY_MODEL, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 1, 3, 3, 4)).astype(np.float32))
    tracer = Tracer()
    tracer.new_unit()
    with tracer.attach(model):
        with Tape() as tape:
            loss = cross_entropy(model(x, training=True, rng=np.random.default_rng(2)),
                                 np.array([0, 2]))
        tape.backward(loss)
    summary = tracer.summary()

    ms = delay * 1e3
    bwd = {k: v for k, v in summary.items() if k.startswith("bwd_ms.")}
    assert bwd["bwd_ms.block1.spatial_conv"] >= ms
    assert all(v < ms for k, v in bwd.items() if k != "bwd_ms.block1.spatial_conv")
    assert bwd["bwd_ms.loss"] > 0 and bwd["bwd_ms.block1.spectral_conv"] > 0
    fwd = {k: v for k, v in summary.items() if k.startswith("fwd_ms.")}
    assert fwd["fwd_ms.block1.spatial_conv"] >= ms
    assert all(v < ms for k, v in fwd.items() if k != "fwd_ms.block1.spatial_conv")
    assert summary["tape_nodes"] > 0
    # detaching restores the classes and the tape
    assert type(model.block1.spatial_conv) is Conv2D and type(model) is PatchClassifier
    assert Tape.record.__qualname__ == "Tape.record"


def test_conv_counts_match_closed_form():
    # block1.spectral_conv of CFG32 at batch 64: 64 -> 96 channels, 3x3x3
    # kernel, 9x9x32 positions; its float32 columns are the 1.15 GB that
    # predict_set's batch of 64 splits into chunks
    flops, cols = conv_counts((64, 64, 9, 9, 32), (96, 64, 3, 3, 3), 4)
    assert flops == 2 * 96 * (64 * 27) * (64 * 9 * 9 * 32) == 55_037_657_088
    assert cols == (64 * 27) * (64 * 9 * 9 * 32) * 4 == 1_146_617_856

    conv = Conv3D(2, 3, 3, np.random.default_rng(0))
    tracer = Tracer()
    tracer.new_unit()
    model = PatchClassifier(TINY_MODEL, np.random.default_rng(0))
    model.stem = conv  # stands in for the stem: 2 -> 3 channels
    with tracer.attach(model):
        model.stem(Tensor(np.zeros((2, 2, 5, 5, 4), dtype=np.float32)))
    summary = tracer.summary()
    assert summary["flops.stem"] == 2 * 3 * (2 * 27) * (2 * 100) == 64_800
    assert summary["cols_mb.stem"] == (2 * 27) * (2 * 100) * 4 / 1e6
