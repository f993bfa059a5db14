import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca import nn, tensor as T
from spectralca.nn import (
    BatchNorm,
    Conv2D,
    Conv3D,
    LayerNorm,
    Linear,
    cross_entropy,
    dropout,
    relu,
    silu,
    softmax,
)
from spectralca.tensor import Parameter, ShapeError, Tape, Tensor, grad_check

RNG = np.random.default_rng(1234)


def conv_reference(x, w, b):
    """Brute-force same-padded cross-correlation for any spatial rank."""
    spatial = x.shape[2:]
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, [(0, 0), (0, 0)] + [(pad, pad)] * len(spatial))
    out = np.zeros((x.shape[0], w.shape[0]) + spatial)
    for idx in np.ndindex(*out.shape):
        bi, oi = idx[0], idx[1]
        pos = idx[2:]
        acc = 0.0
        for ci in range(x.shape[1]):
            for koff in np.ndindex(*w.shape[2:]):
                src = tuple(p + ko for p, ko in zip(pos, koff))
                acc += w[(oi, ci) + koff] * xp[(bi, ci) + src]
        out[idx] = acc + b[oi]
    return out


class TestConv2D:
    def test_identity_kernel(self):
        layer = Conv2D(1, 1, RNG, dtype=np.float64)
        layer.weight.data[:] = 0.0
        layer.weight.data[0, 0, 1, 1] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 5, 4)))
        out = layer(x)
        np.testing.assert_allclose(out.data, x.data)

    def test_ones_kernel_border_counts(self):
        layer = Conv2D(1, 1, RNG, dtype=np.float64)
        layer.weight.data[:] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = layer(x).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0

    def test_shape_contract(self):
        layer = Conv2D(64, 96, RNG)
        x = Tensor(np.zeros((2, 64, 9, 9), dtype=np.float32))
        assert layer(x).shape == (2, 96, 9, 9)

    def test_channel_mismatch(self):
        layer = Conv2D(3, 4, RNG)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        layer = Conv2D(3, 2, rng, dtype=np.float64)
        layer.bias.data[:] = rng.standard_normal(2)
        x = rng.standard_normal((2, 3, 4, 5))
        expected = conv_reference(x, layer.weight.data, layer.bias.data)
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


class TestConv3D:
    def test_pointwise_identity(self):
        layer = Conv3D(1, 1, 1, RNG, dtype=np.float64)
        layer.weight.data[:] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 3, 3, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_ones_kernel_center(self):
        layer = Conv3D(1, 1, 3, RNG, dtype=np.float64)
        layer.weight.data[:] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.ones((1, 1, 3, 3, 3)))
        out = layer(x).data[0, 0]
        assert out[1, 1, 1] == 27.0
        assert out[0, 0, 0] == 8.0

    def test_shape_contract(self):
        layer = Conv3D(64, 96, 3, RNG)
        x = Tensor(np.zeros((2, 64, 9, 9, 32), dtype=np.float32))
        assert layer(x).shape == (2, 96, 9, 9, 32)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        layer = Conv3D(2, 3, 3, rng, dtype=np.float64)
        layer.bias.data[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 3, 4, 3))
        expected = conv_reference(x, layer.weight.data, layer.bias.data)
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            Conv3D(1, 1, 2, RNG)


def test_conv_numpy_fallback_matches_bruteforce():
    rng = np.random.default_rng(77)
    layer = Conv3D(2, 3, 3, rng, dtype=np.float64)
    layer.bias.data[:] = rng.standard_normal(3)
    x = rng.standard_normal((2, 2, 3, 4, 3))
    expected = conv_reference(x, layer.weight.data, layer.bias.data)
    np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)
    x2 = Parameter(rng.standard_normal((1, 2, 3, 3, 3)), name="x")

    def f():
        out = layer(x2)
        return T.scale(T.mean_all(T.mul(out, out)), 0.01)

    report = grad_check(f, [x2] + layer.parameters(), rng=rng, samples_per_parameter=30)
    assert report.ok, str(report)


# --- convolutions split into several batch chunks -------------------------

MULTI_CHUNK_LAYERS = {
    "conv2d": (lambda r: Conv2D(2, 3, r, dtype=np.float64), (4, 2, 4, 3)),
    "conv3d": (lambda r: Conv3D(2, 2, 3, r, dtype=np.float64), (3, 2, 3, 3, 4)),
    "conv3d_pointwise": (lambda r: Conv3D(3, 2, 1, r, dtype=np.float64), (3, 3, 2, 2, 3)),
}


@pytest.fixture
def one_sample_chunks(monkeypatch):
    # a budget below one sample's columns gives one chunk per sample
    monkeypatch.setattr(nn, "_COLS_BUDGET_BYTES", 1)


@pytest.mark.parametrize("name", list(MULTI_CHUNK_LAYERS))
def test_multi_chunk_conv_matches_bruteforce(name, one_sample_chunks):
    build, shape = MULTI_CHUNK_LAYERS[name]
    rng = np.random.default_rng(79)
    layer = build(rng)
    layer.bias.data[:] = rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal(shape)
    w, b = layer.weight.data, layer.bias.data
    out, cache = nn._conv_forward(x, w, b, keep_cols=True)
    assert len(cache) == shape[0] >= 3
    np.testing.assert_allclose(out, conv_reference(x, w, b), atol=1e-12)
    # backward from kept columns and from re-gathered columns agree exactly
    g = rng.standard_normal(out.shape)
    for kept, regathered in zip(nn._conv_backward(g, x, w, cache),
                                nn._conv_backward(g, x, w, None)):
        np.testing.assert_array_equal(kept, regathered)


@pytest.mark.parametrize("name", list(MULTI_CHUNK_LAYERS))
def test_gradcheck_multi_chunk_conv(name, one_sample_chunks):
    _gradcheck_layer(*MULTI_CHUNK_LAYERS[name])


def test_conv_backward_skips_unneeded_input_gradient():
    rng = np.random.default_rng(81)
    for build, shape in MULTI_CHUNK_LAYERS.values():
        w = build(rng).weight.data
        x = rng.standard_normal(shape)
        g = rng.standard_normal((shape[0], w.shape[0]) + shape[2:])
        gx, gw, gb = nn._conv_backward(g, x, w, None, False)
        assert gx is None
        full = nn._conv_backward(g, x, w, None, True)
        assert full[0].shape == x.shape
        np.testing.assert_array_equal(gw, full[1])
        np.testing.assert_array_equal(gb, full[2])


# --- edge shapes: short last axis, unequal and unit leading extents --------

EDGE_LAYERS = {
    "conv3d_last_1": (lambda r: Conv3D(2, 2, 3, r, dtype=np.float64), (2, 2, 2, 3, 1)),
    "conv3d_last_2": (lambda r: Conv3D(2, 2, 3, r, dtype=np.float64), (2, 2, 3, 1, 2)),
    "conv3d_lead_1": (lambda r: Conv3D(2, 2, 3, r, dtype=np.float64), (2, 2, 1, 4, 2)),
    "conv3d_last_3": (lambda r: Conv3D(2, 3, 3, r, dtype=np.float64), (2, 2, 2, 1, 3)),
    "conv2d_last_1": (lambda r: Conv2D(2, 3, r, dtype=np.float64), (2, 2, 5, 1)),
    "conv2d_lead_1": (lambda r: Conv2D(2, 3, r, dtype=np.float64), (2, 2, 1, 3)),
    "conv3d_pointwise": (lambda r: Conv3D(3, 2, 1, r, dtype=np.float64), (2, 3, 2, 1, 3)),
}


@pytest.fixture(params=["whole_batch", "one_sample_per_chunk"])
def chunking(request, monkeypatch):
    if request.param == "one_sample_per_chunk":
        monkeypatch.setattr(nn, "_COLS_BUDGET_BYTES", 1)


@pytest.mark.parametrize("name", list(EDGE_LAYERS))
def test_edge_shape_conv_matches_bruteforce(name, chunking):
    build, shape = EDGE_LAYERS[name]
    rng = np.random.default_rng(82)
    w = build(rng).weight.data
    # strictly increasing along every axis: no spatial symmetry, so an
    # input gradient with a wrong kernel flip cannot pass
    w[...] = np.arange(w.size).reshape(w.shape) / w.size - 0.5
    b = rng.standard_normal(w.shape[0])
    x = rng.standard_normal(shape)
    out, cache = nn._conv_forward(x, w, b, keep_cols=True)
    np.testing.assert_allclose(out, conv_reference(x, w, b), atol=1e-12)
    # the conv is bilinear in (x, w), so its gradients are its adjoints:
    # <conv(x, w), g> = <x, gx> = <w, gw>
    g = rng.standard_normal(out.shape)
    gx, gw, gb = nn._conv_backward(g, x, w, cache)
    linear = np.vdot(out - b.reshape((1, -1) + (1,) * (x.ndim - 2)), g)
    np.testing.assert_allclose(np.vdot(x, gx), linear, rtol=1e-12)
    np.testing.assert_allclose(np.vdot(w, gw), linear, rtol=1e-12)
    np.testing.assert_allclose(gb, g.sum(axis=(0,) + tuple(range(2, g.ndim))), rtol=1e-12)


@pytest.mark.parametrize("name", list(EDGE_LAYERS))
def test_gradcheck_edge_shape_conv(name, chunking):
    _gradcheck_layer(*EDGE_LAYERS[name])


def _transient_bytes(fn):
    """tracemalloc peak of fn() above what was allocated before the call,
    less the bytes of the arrays it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in result if isinstance(a, np.ndarray))
    return peak - base - returned


def test_conv_transient_memory_does_not_grow_with_batch():
    # the block's spectral conv (64 -> 96 channels, 3x3x3) on 9x9x32
    # patches: one sample's float32 columns are 17.9 MB
    rng = np.random.default_rng(80)
    w = (0.01 * rng.standard_normal((96, 64, 3, 3, 3))).astype(np.float32)
    b = np.zeros(96, dtype=np.float32)
    sample_cols = 64 * 27 * 9 * 9 * 32 * 4
    forward, backward = {}, {}
    for batch in (2, 4):
        x = rng.standard_normal((batch, 64, 9, 9, 32)).astype(np.float32)
        forward[batch] = _transient_bytes(lambda: nn._conv_forward(x, w, b))
        g = rng.standard_normal((batch, 96, 9, 9, 32)).astype(np.float32)
        backward[batch] = _transient_bytes(lambda: nn._conv_backward(g, x, w, None))
    # two more samples may not add their columns to the transient peak
    assert forward[4] - forward[2] < sample_cols, forward
    assert backward[4] - backward[2] < sample_cols, backward


class TestBatchNorm:
    def test_hand_normalization(self):
        bn = BatchNorm(1, eps=1e-12, dtype=np.float64)
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data.ravel(), [-1.0, 1.0], atol=1e-5)

    def test_fixed_point_on_standardized_input(self):
        bn = BatchNorm(2, dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 2, 7))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = bn(Tensor(x), training=True)
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_constant_channel_gives_beta(self):
        bn = BatchNorm(1, dtype=np.float64)
        bn.beta.data[:] = 0.7
        x = Tensor(np.full((4, 1, 3), 2.5))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_eval_before_training_uses_initial_stats(self):
        bn = BatchNorm(2, dtype=np.float64)
        x = np.random.default_rng(0).standard_normal((3, 2, 4))
        out = bn(Tensor(x), training=False)
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + bn.eps), atol=1e-12)

    def test_running_stats_update_rule(self):
        bn = BatchNorm(1, momentum=0.1, dtype=np.float64)
        x = np.array([1.0, 3.0]).reshape(2, 1)
        bn(Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 2.0])
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_single_element_batch_rejected(self):
        bn = BatchNorm(3)
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((1, 3), dtype=np.float32)), training=True)


class TestLayerNorm:
    def test_hand_computation(self):
        ln = LayerNorm(3, dtype=np.float64)
        out = ln(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_token_gives_beta(self):
        ln = LayerNorm(4, dtype=np.float64)
        ln.beta.data[:] = -0.3
        out = ln(Tensor(np.full((2, 4), 9.0)))
        np.testing.assert_allclose(out.data, -0.3, atol=1e-2)

    def test_shift_invariance(self):
        ln = LayerNorm(5, dtype=np.float64)
        x = np.random.default_rng(3).standard_normal((4, 5))
        a = ln(Tensor(x)).data
        b = ln(Tensor(x + 13.5)).data
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestSilu:
    def test_zero_fixed_point(self):
        assert silu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_unit_value(self):
        out = silu(Tensor(np.array([1.0])))
        np.testing.assert_allclose(out.data, [0.731059], atol=1e-6)

    def test_negative_asymptote(self):
        out = silu(Tensor(np.array([-20.0])))
        np.testing.assert_allclose(out.data, [-4.1223e-8], rtol=1e-3)

    def test_large_negative_stable(self):
        out = silu(Tensor(np.array([-1000.0])))
        assert out.data[0] == 0.0


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor(np.array([0.0, 0.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_hand_computation(self):
        out = softmax(Tensor(np.array([0.0, np.log(2.0)])))
        np.testing.assert_allclose(out.data, [1.0 / 3.0, 2.0 / 3.0], atol=1e-7)

    def test_shift_invariance(self):
        x = np.random.default_rng(5).standard_normal((3, 7))
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + 42.0), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-6)


class TestLinear:
    def test_identity(self):
        layer = Linear(3, 3, RNG, dtype=np.float64)
        layer.weight.data[:] = np.eye(3)
        layer.bias.data[:] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_hand_arithmetic(self):
        layer = Linear(2, 1, RNG, dtype=np.float64)
        layer.weight.data[:] = [[1.0, 1.0]]
        layer.bias.data[:] = [1.0]
        out = layer(Tensor(np.array([2.0, 3.0])))
        np.testing.assert_allclose(out.data, [6.0])

    def test_shape_contract(self):
        layer = Linear(96, 96, RNG)
        x = Tensor(np.zeros((32, 81, 96), dtype=np.float32))
        assert layer(x).shape == (32, 81, 96)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones(10, dtype=np.float32))
        assert dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_eval_identity(self):
        x = Tensor(np.ones(10, dtype=np.float32))
        assert dropout(x, 0.9, training=False) is x

    def test_statistics_at_half_rate(self):
        rng = np.random.default_rng(99)
        x = Tensor(np.ones(100_000, dtype=np.float64))
        out = dropout(x, 0.5, training=True, rng=rng).data
        zero_fraction = (out == 0.0).mean()
        assert abs(out.mean() - 1.0) < 0.01
        assert abs(zero_fraction - 0.5) < 0.01

    def test_expectation_preserved(self):
        rng = np.random.default_rng(7)
        x = np.random.default_rng(1).uniform(0.5, 2.0, size=100_000)
        out = dropout(Tensor(x), 0.3, training=True, rng=rng).data
        assert abs(out.mean() - x.mean()) < 0.01 * x.mean()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)))
        out = cross_entropy(logits, np.array([0, 1, 2]))
        np.testing.assert_allclose(out.data, np.log(4.0), atol=1e-7)

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((2, 4))
        logits[0, 1] = 30.0
        logits[1, 3] = 30.0
        out = cross_entropy(Tensor(logits), np.array([1, 3]))
        assert out.data < 1e-8

    def test_gradient_closed_form(self):
        b, k = 4, 3
        logits = Tensor(np.zeros((b, k)), requires_grad=True)
        labels = np.array([0, 1, 2, 0])
        with Tape() as tape:
            loss = cross_entropy(logits, labels)
        tape.backward(loss)
        onehot = np.eye(k)[labels]
        expected = (np.full((b, k), 1.0 / k) - onehot) / b
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# --- gradient checks for every op (64-bit) --------------------------------


def _gradcheck_layer(build, make_input, n_extra=0):
    # check at a generic point (zero-initialized biases sit at structural
    # stationary points of the quadratic probe); the 0.01 scale keeps
    # finite-difference rounding noise below the relative-error floor
    rng = np.random.default_rng(42)
    layer = build(rng)
    x = Parameter(rng.standard_normal(make_input), name="x")
    params = [x] + layer.parameters()
    for p in layer.parameters():
        p.data += 0.05 * rng.standard_normal(p.shape)

    def f():
        out = layer(x) if n_extra == 0 else layer(x, True)
        return T.scale(T.mean_all(T.mul(out, out)), 0.01)

    report = grad_check(f, params, h=1e-4, tol=1e-4, rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


def test_gradcheck_conv2d():
    _gradcheck_layer(lambda r: Conv2D(2, 3, r, dtype=np.float64), (2, 2, 4, 3))


def test_gradcheck_conv3d():
    _gradcheck_layer(lambda r: Conv3D(2, 2, 3, r, dtype=np.float64), (2, 2, 3, 3, 4))


def test_gradcheck_conv3d_pointwise():
    _gradcheck_layer(lambda r: Conv3D(3, 2, 1, r, dtype=np.float64), (2, 3, 2, 2, 3))


def test_gradcheck_linear():
    _gradcheck_layer(lambda r: Linear(4, 3, r, dtype=np.float64), (2, 5, 4))


def test_gradcheck_layernorm():
    _gradcheck_layer(lambda r: LayerNorm(5, dtype=np.float64), (3, 4, 5))


def test_gradcheck_batchnorm_training():
    _gradcheck_layer(lambda r: BatchNorm(3, dtype=np.float64), (4, 3, 5), n_extra=1)


def test_gradcheck_batchnorm_eval():
    rng = np.random.default_rng(43)
    bn = BatchNorm(3, dtype=np.float64)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = 0.5 + rng.random(3)
    x = Parameter(rng.standard_normal((4, 3, 5)), name="x")

    def f():
        out = bn(x, training=False)
        return T.mean_all(T.mul(out, out))

    report = grad_check(f, [x] + bn.parameters(), rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


@pytest.mark.parametrize(
    "fn",
    [silu, relu, lambda x: softmax(x, axis=-1)],
    ids=["silu", "relu", "softmax"],
)
def test_gradcheck_activations(fn):
    rng = np.random.default_rng(44)
    x = Parameter(rng.standard_normal((3, 6)) + 0.1, name="x")

    def f():
        out = fn(x)
        return T.mean_all(T.mul(out, out))

    report = grad_check(f, [x], rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


def test_gradcheck_cross_entropy():
    rng = np.random.default_rng(45)
    logits = Parameter(rng.standard_normal((5, 4)), name="logits")
    labels = np.array([0, 1, 2, 3, 1])

    def f():
        return cross_entropy(logits, labels)

    report = grad_check(f, [logits], rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


def test_gradcheck_dropout_fixed_mask():
    # identical seed per evaluation keeps the mask constant, so the
    # finite-difference comparison is valid through the mask
    x = Parameter(np.random.default_rng(46).standard_normal(40), name="x")

    def f():
        out = dropout(x, 0.25, training=True, rng=np.random.default_rng(123))
        return T.mean_all(T.mul(out, out))

    report = grad_check(f, [x], rng=np.random.default_rng(0), samples_per_parameter=40)
    assert report.ok, str(report)


# --- property tests -------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
    st.integers(1, 6), st.integers(1, 6),
)
def test_conv2d_same_padding_property(b, cin, cout, h, w):
    layer = Conv2D(cin, cout, np.random.default_rng(0))
    x = Tensor(np.zeros((b, cin, h, w), dtype=np.float32))
    assert layer(x).shape == (b, cout, h, w)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.sampled_from([1, 3]),
)
def test_conv3d_same_padding_property(b, cin, cout, h, w, d, k):
    layer = Conv3D(cin, cout, k, np.random.default_rng(0))
    x = Tensor(np.zeros((b, cin, h, w, d), dtype=np.float32))
    assert layer(x).shape == (b, cout, h, w, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(2, 8))
def test_softmax_rows_sum_to_one(rows, cols):
    x = np.random.default_rng(rows * 10 + cols).standard_normal((rows, cols)) * 3
    out = softmax(Tensor(x), axis=1).data
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert ((out >= 0) & (out <= 1)).all()


def test_layernorm_output_statistics():
    ln = LayerNorm(32, dtype=np.float64)
    x = np.random.default_rng(9).standard_normal((50, 32)) * 2 + 1
    out = ln(Tensor(x)).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_batchnorm_output_statistics():
    bn = BatchNorm(4, dtype=np.float64)
    x = np.random.default_rng(10).standard_normal((100, 4, 6)) * 1.7 - 0.4
    out = bn(Tensor(x), training=True).data
    assert np.abs(out.mean(axis=(0, 2))).max() < 1e-5
    assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-3


def test_module_named_parameters_unique_paths():
    class TwoLayers(nn.Module):
        def __init__(self):
            super().__init__()
            self.first = Linear(2, 3, np.random.default_rng(0))
            self.second = Linear(3, 2, np.random.default_rng(0))

    m = TwoLayers()
    names = [n for n, _ in m.named_parameters()]
    assert names == ["first.weight", "first.bias", "second.weight", "second.bias"]
    assert len(set(names)) == len(names)
    assert m.param_count() == (2 * 3 + 3) + (3 * 2 + 2)
