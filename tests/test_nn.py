import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHUNKINGS
from spectralca import nn, tensor as T
from spectralca.nn import (
    BatchNorm,
    Conv2D,
    Conv3D,
    LayerNorm,
    Linear,
    cross_entropy,
    dropout,
    silu,
    softmax_inplace,
)
from spectralca.tensor import NonFiniteError, Parameter, ShapeError, Tape, Tensor, grad_check

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
        layer = Conv2D(1, 1, RNG).astype(np.float64)
        layer.weight.data[:] = 0.0
        layer.weight.data[0, 0, 1, 1] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 5, 4)))
        out = layer(x)
        np.testing.assert_allclose(out.data, x.data)

    def test_ones_kernel_border_counts(self):
        layer = Conv2D(1, 1, RNG).astype(np.float64)
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
        layer = Conv2D(3, 2, rng).astype(np.float64)
        layer.bias.data[:] = rng.standard_normal(2)
        x = rng.standard_normal((2, 3, 4, 5))
        expected = conv_reference(x, layer.weight.data, layer.bias.data)
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


class TestConv3D:
    def test_pointwise_identity(self):
        layer = Conv3D(1, 1, 1, RNG).astype(np.float64)
        layer.weight.data[:] = 1.0
        layer.bias.data[:] = 0.0
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 3, 3, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_ones_kernel_center(self):
        layer = Conv3D(1, 1, 3, RNG).astype(np.float64)
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
        layer = Conv3D(2, 3, 3, rng).astype(np.float64)
        layer.bias.data[:] = rng.standard_normal(3)
        x = rng.standard_normal((2, 2, 3, 4, 3))
        expected = conv_reference(x, layer.weight.data, layer.bias.data)
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            Conv3D(1, 1, 2, RNG)

    def test_pool_without_batchnorm_rejected(self):
        # the mean over the pool axes is taken by the BatchNorm op
        layer = Conv3D(1, 1, 3, RNG)
        with pytest.raises(ValueError, match="pool"):
            layer(Tensor(np.zeros((2, 1, 3, 3, 3), dtype=np.float32)), pool=(2, 3))


def test_conv_numpy_fallback_matches_bruteforce():
    rng = np.random.default_rng(77)
    layer = Conv3D(2, 3, 3, rng).astype(np.float64)
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


# --- the one chunking helper ----------------------------------------------


class TestChunks:
    def test_slices_cover_the_items_within_the_budget(self):
        third = int(nn._CHUNK_BYTES) // 3
        assert nn._chunks(10, third) == [slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 10)]

    def test_no_items_give_no_slices(self):
        assert nn._chunks(0, 4) == []

    def test_an_item_bigger_than_the_budget_is_a_slice_of_its_own(self):
        assert nn._chunks(3, 2 * nn._CHUNK_BYTES) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_items_of_no_bytes_are_one_slice(self):
        assert nn._chunks(5, 0) == [slice(0, 5)]


# --- convolutions split into several batch chunks -------------------------

MULTI_CHUNK_LAYERS = {
    "conv2d": (lambda r: Conv2D(2, 3, r).astype(np.float64), (4, 2, 4, 3)),
    "conv3d": (lambda r: Conv3D(2, 2, 3, r).astype(np.float64), (3, 2, 3, 3, 4)),
    "conv3d_pointwise": (lambda r: Conv3D(3, 2, 1, r).astype(np.float64), (3, 3, 2, 2, 3)),
}


@pytest.mark.parametrize("name", list(MULTI_CHUNK_LAYERS))
def test_multi_chunk_conv_matches_bruteforce(name, chunking):
    build, shape = MULTI_CHUNK_LAYERS[name]
    rng = np.random.default_rng(79)
    layer = build(rng)
    layer.bias.data[:] = rng.standard_normal(layer.bias.shape)
    x = rng.standard_normal(shape)
    w, b = layer.weight.data, layer.bias.data
    assert len(nn._conv_geometry(x, w)[3]) == shape[0] >= 3
    np.testing.assert_allclose(nn._conv_forward(x, w, b), conv_reference(x, w, b),
                               atol=1e-12)


@pytest.mark.parametrize("name", list(MULTI_CHUNK_LAYERS))
def test_gradcheck_multi_chunk_conv(name, chunking):
    _gradcheck_layer(*MULTI_CHUNK_LAYERS[name])


def test_conv_backward_skips_unneeded_input_gradient():
    rng = np.random.default_rng(81)
    for build, shape in MULTI_CHUNK_LAYERS.values():
        w = build(rng).weight.data
        x = rng.standard_normal(shape)
        g = rng.standard_normal((shape[0], w.shape[0]) + shape[2:])
        gx, gw, gb = nn._conv_backward(g, x, w, False)
        assert gx is None
        full = nn._conv_backward(g, x, w, True)
        assert full[0].shape == x.shape
        np.testing.assert_array_equal(gw, full[1])
        np.testing.assert_array_equal(gb, full[2])


# --- edge shapes: short last axis, unequal and unit leading extents --------

EDGE_LAYERS = {
    "conv3d_last_1": (lambda r: Conv3D(2, 2, 3, r).astype(np.float64), (2, 2, 2, 3, 1)),
    "conv3d_last_2": (lambda r: Conv3D(2, 2, 3, r).astype(np.float64), (2, 2, 3, 1, 2)),
    "conv3d_lead_1": (lambda r: Conv3D(2, 2, 3, r).astype(np.float64), (2, 2, 1, 4, 2)),
    "conv3d_last_3": (lambda r: Conv3D(2, 3, 3, r).astype(np.float64), (2, 2, 2, 1, 3)),
    "conv2d_last_1": (lambda r: Conv2D(2, 3, r).astype(np.float64), (2, 2, 5, 1)),
    "conv2d_lead_1": (lambda r: Conv2D(2, 3, r).astype(np.float64), (2, 2, 1, 3)),
    "conv3d_pointwise": (lambda r: Conv3D(3, 2, 1, r).astype(np.float64), (2, 3, 2, 1, 3)),
}


BOTH_CHUNKINGS = pytest.mark.parametrize("chunking", CHUNKINGS, indirect=True)


@pytest.mark.parametrize("name", list(EDGE_LAYERS))
@BOTH_CHUNKINGS
def test_edge_shape_conv_matches_bruteforce(name, chunking):
    build, shape = EDGE_LAYERS[name]
    rng = np.random.default_rng(82)
    w = build(rng).weight.data
    # strictly increasing along every axis: no spatial symmetry, so an
    # input gradient with a wrong kernel flip cannot pass
    w[...] = np.arange(w.size).reshape(w.shape) / w.size - 0.5
    b = rng.standard_normal(w.shape[0])
    x = rng.standard_normal(shape)
    out = nn._conv_forward(x, w, b)
    np.testing.assert_allclose(out, conv_reference(x, w, b), atol=1e-12)
    # the conv is bilinear in (x, w), so its gradients are its adjoints:
    # <conv(x, w), g> = <x, gx> = <w, gw>
    g = rng.standard_normal(out.shape)
    # the rule may write the input gradient over its g: into the front of
    # g's buffer exactly when the input has no more channels than the output
    handed = g.copy()
    gx, gw, gb = nn._conv_backward(handed, x, w)
    assert np.shares_memory(gx, handed) == (x.shape[1] <= w.shape[0])
    linear = np.vdot(out - b.reshape((1, -1) + (1,) * (x.ndim - 2)), g)
    np.testing.assert_allclose(np.vdot(x, gx), linear, rtol=1e-12)
    np.testing.assert_allclose(np.vdot(w, gw), linear, rtol=1e-12)
    np.testing.assert_allclose(gb, g.sum(axis=(0,) + tuple(range(2, g.ndim))), rtol=1e-12)


@pytest.mark.parametrize("name", list(EDGE_LAYERS))
@BOTH_CHUNKINGS
def test_gradcheck_edge_shape_conv(name, chunking):
    _gradcheck_layer(*EDGE_LAYERS[name])


def _traced_bytes(fn):
    """(result, peak, retained): fn()'s result, and the tracemalloc peak
    during the call and the bytes still allocated after it, each above what
    was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


def _transient_bytes(fn, *args):
    """tracemalloc peak of fn(*args) above what was allocated before the
    call, less the bytes of the arrays it returns that are new: a returned
    view of an argument was never allocated by the call."""
    result, peak, _ = _traced_bytes(lambda: fn(*args))
    arrays = result if isinstance(result, tuple) else (result,)
    return peak - sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)
                      and not any(np.shares_memory(a, arg) for arg in args))


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
        forward[batch] = _transient_bytes(nn._conv_forward, x, w, b)
        g = rng.standard_normal((batch, 96, 9, 9, 32)).astype(np.float32)
        backward[batch] = _transient_bytes(nn._conv_backward, g, x, w)
    # two more samples may not add their columns to the transient peak
    assert forward[4] - forward[2] < sample_cols, forward
    assert backward[4] - backward[2] < sample_cols, backward


def test_recorded_conv_retains_only_its_output():
    # the block's spectral conv under a tape: backward re-gathers its
    # columns, so after the forward only the output stays allocated (kept
    # columns would add 6.3 MB of partial columns per sample)
    rng = np.random.default_rng(83)
    conv = Conv3D(64, 96, 3, rng)
    x = Tensor(rng.standard_normal((2, 64, 9, 9, 32)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        out, _, retained = _traced_bytes(lambda: conv(x))
    assert len(tape.nodes) == 1
    assert out.data.nbytes <= retained < out.data.nbytes + 100_000, retained


def silu_reference(x):
    return x / (1.0 + np.exp(-x))


def test_recorded_batchnorm_retains_only_its_output():
    # the block's spectral BN->SiLU under a tape: backward recomputes the
    # normalization and the sigmoid from the input, so after the forward
    # only the output stays allocated (each kept intermediate, such as the
    # normalized values or the sigmoid, would add 1 MB per sample)
    rng = np.random.default_rng(84)
    bn = BatchNorm(96, "silu")
    x = Tensor(rng.standard_normal((2, 96, 9, 9, 32)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        out, _, retained = _traced_bytes(lambda: bn(x, training=True))
    assert len(tape.nodes) == 1
    assert out.data.nbytes <= retained < out.data.nbytes + 100_000, retained


def test_recorded_silu_retains_only_its_input():
    # the FFN's SiLU under a tape: backward recomputes the sigmoid from the
    # input, so after the forward only the output stays allocated (a kept
    # sigmoid would add an output-sized buffer)
    rng = np.random.default_rng(86)
    x = Tensor(rng.standard_normal((32, 81, 192)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out, _, retained = _traced_bytes(lambda: silu(x))
    assert len(tape.nodes) == 1
    assert out.data.nbytes <= retained < out.data.nbytes + 100_000, retained


def test_recorded_dropout_retains_a_bool_mask():
    # the FFN's dropout under a tape: backward rebuilds the scaled mask from
    # the boolean keep-mask, so after the forward only the output and one
    # byte per element stay allocated (a float32 mask would add four), and
    # its products are the float32 mask's bit for bit
    rng = np.random.default_rng(87)
    x = Tensor(rng.standard_normal((32, 81, 192)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out, _, retained = _traced_bytes(
            lambda: dropout(x, 0.1, training=True, rng=np.random.default_rng(3)))
    assert len(tape.nodes) == 1
    assert out.data.nbytes + x.size <= retained < out.data.nbytes + x.size + 100_000, retained
    mask = (np.random.default_rng(3).random(x.shape) >= 0.1).astype(np.float32) / 0.9
    g = rng.standard_normal(x.shape).astype(np.float32)
    assert np.array_equal(out.data, x.data * mask)
    assert np.array_equal(tape.nodes[0].backward(g.copy())[0], g * mask)


def test_batchnorm_backward_transient_memory_does_not_grow_with_batch():
    # the spectral BN's backward overwrites its upstream gradient, a batch
    # chunk at a time: two more samples may not add input-sized temporaries
    rng = np.random.default_rng(85)
    bn = BatchNorm(96, "silu")
    sample_bytes = 96 * 9 * 9 * 32 * 4
    peak = {}
    for batch in (2, 4):
        x = Tensor(rng.standard_normal((batch, 96, 9, 9, 32)).astype(np.float32),
                   requires_grad=True)
        with Tape() as tape:
            bn(x, training=True)
        g = rng.standard_normal(x.shape).astype(np.float32)
        _, peak[batch], _ = _traced_bytes(lambda: tape.nodes[0].backward(g))
    assert peak[4] - peak[2] < sample_bytes, peak


def test_batchnorm_forward_transient_is_below_one_input():
    # the spectral BN->SiLU at batch 4: the training variance and the
    # sigmoid are taken a batch chunk (one 1 MB sample) at a time, so
    # beside its output the forward allocates less than one input's bytes
    rng = np.random.default_rng(87)
    xd = (3.0 * rng.standard_normal((4, 96, 9, 9, 32)) + 1.0).astype(np.float32)
    bn = BatchNorm(96, "silu")
    for training in (True, False):
        transient = _transient_bytes(lambda: bn(Tensor(xd), training=training).data)
        assert transient < xd.nbytes, (training, transient)
    # the training pass above set the running variance from the batch's
    x64 = xd.astype(np.float64)
    var = x64.var(axis=(0, 2, 3, 4))
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var, rtol=1e-6)
    bn = BatchNorm(96, "silu")
    out = bn(Tensor(xd), training=True).data
    mu = x64.mean(axis=(0, 2, 3, 4)).reshape(1, -1, 1, 1, 1)
    xhat = (x64 - mu) / np.sqrt(var.reshape(mu.shape) + nn.NORM_EPS)
    np.testing.assert_allclose(out, silu_reference(xhat), rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_conv_frees_each_chunk_before_gathering_the_next(direction, chunking):
    # a 3x3x3 conv at batch 2, one sample per chunk: the first chunk's
    # columns (3.2 MB, as are the input gradient pass's) are freed before
    # the second is gathered, so the transient stays under two chunks'
    rng = np.random.default_rng(88)
    x = rng.standard_normal((2, 32, 9, 9, 32)).astype(np.float32)
    w = (0.01 * rng.standard_normal((32, 32, 3, 3, 3))).astype(np.float32)
    b = np.zeros(32, dtype=np.float32)
    chunk_cols = 32 * 9 * 9 * 9 * 34 * 4
    if direction == "forward":
        transient = _transient_bytes(nn._conv_forward, x, w, b)
    else:
        g = rng.standard_normal(x.shape).astype(np.float32)
        transient = _transient_bytes(nn._conv_backward, g, x, w)
    assert transient < 2 * chunk_cols, transient


class TestBatchNorm:
    def test_hand_normalization(self):
        bn = BatchNorm(1, "relu").astype(np.float64)
        x = Tensor(np.array([1.0, 3.0]).reshape(2, 1))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data.ravel(), [0.0, 1.0], atol=1e-5)

    def test_fixed_point_on_standardized_input(self):
        bn = BatchNorm(2, "silu").astype(np.float64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((64, 2, 7))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = bn(Tensor(x), training=True)
        np.testing.assert_allclose(out.data, silu_reference(x), atol=1e-4)

    def test_constant_channel_gives_beta(self):
        bn = BatchNorm(1, "silu").astype(np.float64)
        bn.beta.data[:] = 0.7
        x = Tensor(np.full((4, 1, 3), 2.5))
        out = bn(x, training=True)
        np.testing.assert_allclose(out.data, silu_reference(0.7), atol=1e-6)

    def test_eval_before_training_uses_initial_stats(self):
        bn = BatchNorm(2, "silu").astype(np.float64)
        x = np.random.default_rng(0).standard_normal((3, 2, 4))
        out = bn(Tensor(x), training=False)
        np.testing.assert_allclose(out.data, silu_reference(x / np.sqrt(1.0 + nn.NORM_EPS)),
                                   atol=1e-12)

    def test_running_stats_update_rule(self):
        bn = BatchNorm(1, "relu").astype(np.float64)
        x = np.array([1.0, 3.0]).reshape(2, 1)
        bn(Tensor(x), training=True)
        np.testing.assert_allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 2.0])
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])

    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    def test_pooled_backward_leaves_a_leaf_input_intact(self, training):
        # the pooled backward writes its input gradient over its input only
        # when that input is a recorded op's output; a leaf's data is kept
        x0 = RNG.standard_normal((2, 3, 4, 5)).astype(np.float32)
        x = Parameter(x0.copy())
        with Tape() as tape:
            out = BatchNorm(3, "silu")(x, training, pool=(2, 3))
            loss = T.mean_all(T.mul(out, out))
        tape.backward(loss)
        assert np.array_equal(x.data, x0)
        assert x.grad.shape == x0.shape and np.any(x.grad != 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("through_conv", [False, True], ids=["standalone", "conv"])
    @pytest.mark.parametrize("case", ["input-3e38", "gamma-3e38", "input-pm1e30"])
    def test_rejected_batch_leaves_running_statistics(self, case, through_conv):
        # 3e38 input: its statistics overflow; 3e38 gamma: finite statistics,
        # non-finite output; +-1e30 input: a finite mean and output (the
        # scale is gamma/inf = 0) but a variance that overflows float32
        bn = BatchNorm(2, "relu")
        bn.running_mean[:] = [0.25, -0.5]
        bn.running_var[:] = [1.5, 0.75]
        if case == "input-3e38":
            x = np.full((2, 2, 3, 3, 3), 3e38, np.float32)
        elif case == "input-pm1e30":
            x = (1e30 * (-1.0) ** np.arange(108)).astype(np.float32).reshape(2, 2, 3, 3, 3)
        else:
            x = np.linspace(-4.0, 4.0, 108, dtype=np.float32).reshape(2, 2, 3, 3, 3)
            bn.gamma.data[:] = 3e38
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        with pytest.raises(NonFiniteError, match="by batchnorm"):
            if through_conv:
                conv = Conv3D(2, 2, 1, RNG)
                conv.weight.data[:] = np.eye(2).reshape(2, 2, 1, 1, 1)  # passes x through
                conv(Tensor(x), bn, training=True)
            else:
                bn(Tensor(x), training=True)
        assert np.array_equal(bn.running_mean, mean) and np.array_equal(bn.running_var, var)

    def test_single_element_batch_rejected(self):
        bn = BatchNorm(3, "relu")
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((1, 3), dtype=np.float32)), training=True)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            BatchNorm(3, "tanh")


class TestLayerNorm:
    def test_hand_computation(self):
        ln = LayerNorm(3).astype(np.float64)
        out = ln(Tensor(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_token_gives_beta(self):
        ln = LayerNorm(4).astype(np.float64)
        ln.beta.data[:] = -0.3
        out = ln(Tensor(np.full((2, 4), 9.0)))
        np.testing.assert_allclose(out.data, -0.3, atol=1e-2)

    def test_shift_invariance(self):
        ln = LayerNorm(5).astype(np.float64)
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
        out = softmax_inplace(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_hand_computation(self):
        out = softmax_inplace(np.array([0.0, np.log(2.0)]))
        np.testing.assert_allclose(out, [1.0 / 3.0, 2.0 / 3.0], atol=1e-7)

    def test_shift_invariance(self):
        x = np.random.default_rng(5).standard_normal((3, 7))
        a = softmax_inplace(x.copy())
        b = softmax_inplace(x + 42.0)
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_works_in_place_over_the_last_axis(self):
        z = np.random.default_rng(6).standard_normal((2, 3, 5)).astype(np.float32)
        expected = np.exp(z - z.max(axis=-1, keepdims=True))
        expected /= expected.sum(axis=-1, keepdims=True)
        out = softmax_inplace(z)
        assert out is z and out.dtype == np.float32
        np.testing.assert_allclose(out, expected, rtol=1e-6)


class TestLinear:
    def test_identity(self):
        layer = Linear(3, 3, RNG).astype(np.float64)
        layer.weight.data[:] = np.eye(3)
        layer.bias.data[:] = 0.0
        x = np.random.default_rng(0).standard_normal((2, 3))
        np.testing.assert_allclose(layer(Tensor(x)).data, x)

    def test_hand_arithmetic(self):
        layer = Linear(2, 1, RNG).astype(np.float64)
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
    _gradcheck_layer(lambda r: Conv2D(2, 3, r).astype(np.float64), (2, 2, 4, 3))


def test_gradcheck_conv3d():
    _gradcheck_layer(lambda r: Conv3D(2, 2, 3, r).astype(np.float64), (2, 2, 3, 3, 4))


def test_gradcheck_conv3d_pointwise():
    _gradcheck_layer(lambda r: Conv3D(3, 2, 1, r).astype(np.float64), (2, 3, 2, 2, 3))


def test_gradcheck_linear():
    _gradcheck_layer(lambda r: Linear(4, 3, r).astype(np.float64), (2, 5, 4))


def test_gradcheck_layernorm():
    _gradcheck_layer(lambda r: LayerNorm(5).astype(np.float64), (3, 4, 5))


@pytest.mark.parametrize("activation", ["relu", "silu"])
@BOTH_CHUNKINGS
def test_gradcheck_batchnorm_training(activation, chunking):
    _gradcheck_layer(lambda r: BatchNorm(3, activation).astype(np.float64), (4, 3, 5),
                     n_extra=1)


@pytest.mark.parametrize("activation", ["relu", "silu"])
@BOTH_CHUNKINGS
def test_gradcheck_batchnorm_eval(activation, chunking):
    rng = np.random.default_rng(43)
    bn = BatchNorm(3, activation).astype(np.float64)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = 0.5 + rng.random(3)
    x = Parameter(rng.standard_normal((4, 3, 5)), name="x")

    def f():
        out = bn(x, training=False)
        return T.mean_all(T.mul(out, out))

    report = grad_check(f, [x] + bn.parameters(), rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


@pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
@BOTH_CHUNKINGS
def test_gradcheck_conv_batchnorm_pool(activation, training, chunking):
    # BatchNorm's pool form through the conv: its backward recomputes each
    # chunk's slope and writes the conv's output gradient over the conv's
    # output, and the conv (2 -> 3 channels) writes its input gradient into
    # that buffer; eval mode is recorded under the tape and streamed for the
    # finite differences
    rng = np.random.default_rng(47)
    conv = Conv3D(2, 3, 3, rng).astype(np.float64)
    bn = BatchNorm(3, activation).astype(np.float64)
    bn.running_mean[:] = rng.standard_normal(3)
    bn.running_var[:] = 0.5 + rng.random(3)
    x = Parameter(rng.standard_normal((3, 2, 3, 2, 4)), name="x")
    params = [x] + conv.parameters() + bn.parameters()
    for p in params[1:]:
        p.data += 0.05 * rng.standard_normal(p.shape)

    def f():
        out = conv(x, bn, training, pool=(2, 3))
        assert out.shape == (3, 3, 4)
        return T.mean_all(T.mul(out, out))

    report = grad_check(f, params, rng=rng, samples_per_parameter=50)
    assert report.ok, str(report)


@pytest.mark.parametrize("pool", [None, (2, 3)], ids=["full", "pool"])
@pytest.mark.parametrize("activation", ["relu", "silu"])
@BOTH_CHUNKINGS
def test_gradcheck_conv_batchnorm_on_a_constant_input(activation, pool, chunking):
    # the stem's case: the conv's input takes no gradient, so BatchNorm's
    # backward regenerates the conv's output chunk by chunk instead of
    # keeping it, and with pool writes its input gradient into a new array;
    # in eval mode, under the tape and without it, its forward reads the
    # regenerated chunks too
    rng = np.random.default_rng(48)
    conv = Conv3D(1, 3, 3, rng).astype(np.float64)
    bn = BatchNorm(3, activation).astype(np.float64)
    x = Tensor(rng.standard_normal((3, 1, 3, 2, 4)))
    params = conv.parameters() + bn.parameters()
    for p in params:
        p.data += 0.05 * rng.standard_normal(p.shape)

    for training in (True, False):
        if not training:
            bn.running_mean[:] = rng.standard_normal(3)
            bn.running_var[:] = 0.5 + rng.random(3)

        def f():
            out = conv(x, bn, training, pool)
            return T.mean_all(T.mul(out, out))

        report = grad_check(f, params, rng=rng, samples_per_parameter=50)
        assert report.ok, (training, str(report))


@pytest.mark.parametrize("fn", [silu], ids=["silu"])
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
    out = softmax_inplace(x)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert ((out >= 0) & (out <= 1)).all()


def test_layernorm_output_statistics():
    ln = LayerNorm(32).astype(np.float64)
    x = np.random.default_rng(9).standard_normal((50, 32)) * 2 + 1
    out = ln(Tensor(x)).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-5
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_batchnorm_output_statistics():
    # relu(z) - relu(-z) = silu(z) - silu(-z) = z: gamma = -1 gives act(-z)
    x = np.random.default_rng(10).standard_normal((100, 4, 6)) * 1.7 - 0.4
    for activation in ("relu", "silu"):
        bn = BatchNorm(4, activation).astype(np.float64)
        flipped = BatchNorm(4, activation).astype(np.float64)
        flipped.gamma.data[:] = -1.0
        out = bn(Tensor(x), training=True).data - flipped(Tensor(x), training=True).data
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
