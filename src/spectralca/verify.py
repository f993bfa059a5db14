"""Module-by-module gradient verification: tape gradients vs central
finite differences, in 64-bit, over representative builds of every
computational layer up to the full published-size block."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import CrossAttention
from .block import CFG32, SpectralCABlock, SpectralCAConfig
from .classifier import ModelConfig, PatchClassifier
from .nn import (
    BatchNorm,
    Conv2D,
    Conv3D,
    LayerNorm,
    Linear,
    Module,
    cross_entropy,
    dropout,
    silu,
)
from .tensor import GradCheckReport, Parameter, Tensor, grad_check

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_STEP = 1e-4

# The probe loss is sum(out * w) with w fixed by out's shape and scaled by
# 0.01 / out.size. The scale keeps the finite-difference rounding noise on
# structurally dead directions (key-projection biases behind softmax, conv
# biases behind training-mode batch norm) under the relative-error floor:
# block_full_size_spot read 8.5e-2 with w unscaled and 8.9e-4 with 0.01 alone.
_PROBE_SCALE = 0.01


def probe_loss(out: Tensor) -> Tensor:
    """A gradient check's scalar loss on `out`. w depends only on out's
    shape, so every evaluation of f in one check sees the same w."""
    w = np.random.default_rng(out.size).standard_normal(out.shape)
    return T.probe(out, w * (_PROBE_SCALE / out.size))


def _check(f, params, rng, samples) -> GradCheckReport:
    return grad_check(f, params, h=GRADCHECK_STEP, tol=GRADCHECK_TOLERANCE,
                      rng=rng, samples_per_parameter=samples)


def _tensor_ops_report(seed: int, samples: int) -> GradCheckReport:
    """Every op tensor.py defines, mean_axis over one axis and over two."""
    rng = np.random.default_rng(seed)
    a = Parameter(rng.standard_normal((2, 3, 4)), name="a")
    b = Parameter(rng.standard_normal((2, 3, 4)), name="b")
    c = Parameter(rng.standard_normal((2, 4, 5, 3)), name="c")

    def f():
        pooled = T.reshape(T.mean_axis(c, (2, 3)), (2, 1, 4))
        cat = T.concat_channels(T.add(a, b), pooled)
        return T.add(probe_loss(T.transpose(cat, (0, 2, 1))),
                     probe_loss(T.mean_axis(cat, 1)))

    return _check(f, [a, b, c], rng, samples)


def _nn_ops_report(seed: int, samples: int) -> GradCheckReport:
    """Every nn op, with a conv->BatchNorm pair on a constant input (the
    stem's case, whose BatchNorm regenerates the conv's output in backward)
    in training, relu and silu, with and without pool, and a conv wide
    enough for the F(4, 3) lowering over 5 bands, which fill its second
    window of 4 outputs in part. The layers are children of one Module, so
    each parameter has its own dotted name."""
    rng = np.random.default_rng(seed)
    m = Module()
    m.conv2 = Conv2D(2, 3, rng)
    m.bn2 = BatchNorm(3, "silu")
    m.conv3 = Conv3D(2, 2, 3, rng)
    m.wide = Conv3D(64, 64, 3, rng)
    m.ln = LayerNorm(3)
    m.lin = Linear(3, 4, rng)
    m.head = Linear(2, 3, rng)
    x2 = Parameter(rng.standard_normal((2, 2, 4, 5)), name="x2")
    x3 = Parameter(rng.standard_normal((2, 2, 3, 3, 3)), name="x3")
    xw = Parameter(rng.standard_normal((1, 64, 1, 2, 5)), name="xw")
    m.stem = Conv3D(1, 2, 3, rng)
    m.stem_relu = BatchNorm(2, "relu")
    m.stem_silu = BatchNorm(2, "silu")
    m.astype(np.float64)
    patches = Tensor(rng.standard_normal((2, 1, 3, 3, 3)))
    labels = np.array([0, 2])

    def f():
        a = m.bn2(m.conv2(x2), training=True)
        tokens = m.ln(T.transpose(T.reshape(a, (2, 3, 20)), (0, 2, 1)))
        tokens = dropout(m.lin(tokens), 0.2, training=True, rng=np.random.default_rng(5))
        b = silu(m.conv3(x3))
        pooled = T.mean_axis(b, (2, 3, 4))
        ce = cross_entropy(m.head(pooled), labels)
        loss = T.add(probe_loss(tokens), probe_loss(ce))
        loss = T.add(loss, probe_loss(m.wide(xw)))
        for bn in (m.stem_relu, m.stem_silu):
            for pool in (None, (2, 3)):
                loss = T.add(loss, probe_loss(m.stem(patches, bn, True, pool)))
        return loss

    return _check(f, [x2, x3, xw] + m.parameters(), rng, samples)


def _attention_report(seed: int, samples: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    ca = CrossAttention(8, 2, rng).astype(np.float64)
    s = Parameter(rng.standard_normal((1, 4, 8)), name="spatial")
    p = Parameter(rng.standard_normal((1, 3, 8)), name="spectral")

    def f():
        a1, a2 = ca(s, p)
        return T.add(probe_loss(a1), probe_loss(a2))

    return _check(f, [s, p] + ca.parameters(), rng, samples)


def _block_report(config: SpectralCAConfig, input_shape, seed: int,
                  samples: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    block = SpectralCABlock(config, rng).astype(np.float64)
    x = Parameter(rng.standard_normal(input_shape), name="x")

    def f():
        return probe_loss(block(x, training=True))

    return _check(f, [x] + block.parameters(), rng, samples)


def _classifier_report(depth: int, seed: int, samples: int) -> GradCheckReport:
    """A tiny classifier in training mode. At depth 2 block1's full
    projector feeds `mid` and block2's pooled projector feeds the head; at
    depth 1 block1's is pooled."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        num_classes=3, patch_size=5, bands=8, depth=depth, stem_channels=2,
        block1=SpectralCAConfig(channels=2, dim=4, heads=2, dropout_rate=0.0),
        mid_channels=3,
        block2=SpectralCAConfig(channels=3, dim=4, heads=2, dropout_rate=0.0),
    )
    model = PatchClassifier(config, rng).astype(np.float64)
    x = Parameter(rng.standard_normal((2, 1, 5, 5, 8)), name="x")
    labels = np.array([0, 2])

    def f():
        return probe_loss(cross_entropy(model(x, training=True), labels))

    return _check(f, [x] + model.parameters(), rng, samples)


TINY_BLOCK_CONFIG = SpectralCAConfig(channels=2, dim=4, heads=2, dropout_rate=0.0)
SPOT_CONFIG = SpectralCAConfig(channels=CFG32.channels, dim=CFG32.dim,
                               heads=CFG32.heads, dropout_rate=0.0)


def gradcheck_suite(seed: int = 0, samples_per_parameter: int = 200,
                    include_full_size_spot: bool = True) -> dict[str, GradCheckReport]:
    """Run every module's gradient check; keys are module names, values
    carry per-parameter worst relative errors."""
    suite = {
        "tensor_ops": _tensor_ops_report(seed, samples_per_parameter),
        "nn_ops": _nn_ops_report(seed + 1, samples_per_parameter),
        "attention": _attention_report(seed + 2, samples_per_parameter),
        "block_tiny": _block_report(TINY_BLOCK_CONFIG, (1, 2, 3, 3, 3), seed + 3,
                                    samples_per_parameter),
        "classifier_tiny": _classifier_report(1, seed + 4, samples_per_parameter),
        "classifier_tiny_d2": _classifier_report(2, seed + 6, samples_per_parameter),
    }
    if include_full_size_spot:
        suite["block_full_size_spot"] = _block_report(
            SPOT_CONFIG, (1, CFG32.channels, 3, 3, 4), seed + 5, samples_per_parameter
        )
    return suite
