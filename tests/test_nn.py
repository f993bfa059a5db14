import platform
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHUNKINGS
from spectralca import nn
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
from spectralca.verify import probe_loss

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
        return probe_loss(out)

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
    _check_conv_against_bruteforce(*EDGE_LAYERS[name])


TILED_LAYERS = {**EDGE_LAYERS, **{f"multi_chunk_{name}": layer
                                  for name, layer in MULTI_CHUNK_LAYERS.items()}}


@pytest.mark.parametrize("name", list(TILED_LAYERS))
@BOTH_CHUNKINGS
def test_conv_cut_into_tiles_matches_bruteforce(name, chunking, workers):
    # two workers: a call over several chunks runs them on the workers, and
    # one sample per chunk gathers its columns one output row at a time, in
    # the forward and the weight gradient alike
    workers(2)
    _check_conv_against_bruteforce(*TILED_LAYERS[name])


# --- the Winograd last axis: F(4, 3), and F(1, 1), the direct correlation -


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("extent", [1, 2, 3, 5, 7, 33])
@BOTH_CHUNKINGS
def test_winograd_last_axis_matches_bruteforce(m, extent, chunking, workers, monkeypatch):
    # F(4, 3), and the direct correlation as F(1, 1) over a trailing unit
    # axis, chosen through the row count of the columns from which F(4, 3)
    # runs: F(4, 3) on last axes whose last window of 4 outputs is partly
    # padding unless the extent is a multiple of 4, the direct correlation
    # on the same extents, its columns holding every tap; on the workers.
    # Conv3D has C <= O, so its input gradient goes over g; Conv2D has C > O
    monkeypatch.setattr(nn, "_WINOGRAD_K", 0 if m == 4 else 10 ** 9)
    workers(2)
    for build, shape in ((lambda r: Conv3D(2, 3, 3, r).astype(np.float64), (3, 2, 2, 2, extent)),
                         (lambda r: Conv2D(3, 2, r).astype(np.float64), (3, 3, 3, extent))):
        w = build(np.random.default_rng(0)).weight.data
        assert nn._conv_geometry(np.empty(shape), w)[-1] == m
        _check_conv_against_bruteforce(build, shape)


def test_input_gradient_is_the_flipped_correlation_with_no_bias():
    # the input gradient adds no bias, not even a zero one: equal to the
    # flipped kernel's correlation plus a zero bias, as x + 0.0 is to x
    rng = np.random.default_rng(96)
    x = rng.standard_normal((2, 4, 5, 5, 6)).astype(np.float32)
    w = rng.standard_normal((3, 4, 3, 3, 3)).astype(np.float32)
    g = rng.standard_normal((2, 3, 5, 5, 6)).astype(np.float32)
    flipped = np.flip(w, axis=(2, 3, 4)).swapaxes(0, 1)
    gx = nn._conv_backward(g.copy(), x, w)[0]
    assert np.array_equal(gx, nn._conv_forward(g, flipped, np.zeros(4, np.float32)))
    assert np.array_equal(gx, nn._conv_forward(g, flipped, None))


@pytest.mark.parametrize("m", [1, 4])
def test_transforms_give_the_correlation_and_its_weight_gradient(m):
    # the lowering's matrices are BLAS operands, applied by matmul: in
    # float64, Aᵀ[(G w) ⊙ (Bᵀ d)] is the k-tap correlation of each window d
    # of m + k - 1 inputs with w, and its weight gradient for an output
    # gradient y is Gᵀ[(Bᵀ d) ⊙ (A y)], the rule _conv_backward applies (A y
    # from the phases, Gᵀ to the sum over the chunks)
    bt, g, at = nn._TRANSFORMS[m]
    alpha, k = g.shape
    assert bt.shape == (alpha, alpha) and at.shape == (m, alpha) and alpha == m + k - 1
    rng = np.random.default_rng(97)
    d, w, y = (rng.standard_normal((50, e)) for e in (alpha, k, m))
    direct = np.stack([(d[:, i:i + k] * w).sum(axis=1) for i in range(m)], axis=1)
    np.testing.assert_allclose(((w @ g.T) * (d @ bt.T)) @ at.T, direct, rtol=0, atol=1e-12)
    gw = np.stack([(y * d[:, j:j + m]).sum(axis=1) for j in range(k)], axis=1)
    np.testing.assert_allclose(((d @ bt.T) * (y @ at)) @ g, gw, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [1, 4])
def test_conv_jobs_on_many_workers_with_fast_switches_match_one_worker(m, workers,
                                                                       monkeypatch):
    # more workers than cores, switching every microsecond, one sample per
    # chunk: a chunk's input gradient written over g before an earlier
    # chunk has read its g, or a chunk's part of the weight gradient added
    # out of chunk order, would show as a difference from one worker
    monkeypatch.setattr(nn, "_WINOGRAD_K", 0 if m == 4 else 10 ** 9)
    monkeypatch.setattr(nn, "_CHUNK_BYTES", 1)
    rng = np.random.default_rng(94)
    x = rng.standard_normal((6, 3, 3, 2, 9)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    g = rng.standard_normal((6, 5, 3, 2, 9)).astype(np.float32)

    def run():
        gx, gw, gb = nn._conv_backward(g.copy(), x, w)
        return nn._conv_forward(x, w, b), gx.copy(), gw, gb

    workers(1)
    expected = run()
    workers(4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for _ in range(5):
            runner = threading.Thread(target=lambda: results.append(run()))
            runner.start()
            runner.join(timeout=60)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 5
    for result in results:
        for one, many in zip(expected, result):
            np.testing.assert_array_equal(one, many)


def test_float32_spectral_conv_is_within_64_eps_of_float64():
    # the block's spectral conv in float32 against the same lowering in
    # float64 on the same float32 inputs (float64 matches conv_reference
    # to 1e-12), each error against the largest magnitude of its output:
    # F(4, 3)'s transforms multiply by up to 8 and divide by up to 24, and
    # over three seeds the error read 18-28 eps of that scale against 3-5
    # for the direct correlation
    rng = np.random.default_rng(95)
    x = rng.standard_normal((1, 64, 9, 9, 32)).astype(np.float32)
    w = Conv3D(64, 96, 3, rng).weight.data
    g = rng.standard_normal((1, 96, 9, 9, 32)).astype(np.float32)
    b = np.zeros(96, dtype=np.float32)
    assert nn._conv_geometry(x, w)[-1] == 4
    as64 = [a.astype(np.float64) for a in (x, w, b, g)]
    pairs = [(nn._conv_forward(x, w, b), nn._conv_forward(*as64[:3]))]
    pairs += list(zip(nn._conv_backward(g.copy(), x, w)[:2],
                      nn._conv_backward(as64[3], *as64[:2])[:2]))
    eps = np.finfo(np.float32).eps
    for single, double in pairs:
        scale = np.abs(double).max()
        assert np.abs(single - double).max() < 64 * eps * scale


def _shifted_reference(x, w, b, g):
    """(out, gx, gw) of the same-padded cross-correlation of x with w plus
    b, and its gradients for the output gradient g: one einsum per kernel
    tap over the input shifted by it, a window of a sliding_window_view of
    the padded input. conv_reference's loops are too slow at model shapes."""
    spatial = x.shape[2:]
    pad = (w.shape[2] - 1) // 2
    axes = tuple(range(2, x.ndim))
    xp = np.pad(x, [(0, 0), (0, 0)] + [(pad, pad)] * len(spatial))
    shifted = np.lib.stride_tricks.sliding_window_view(xp, spatial, axis=axes)
    out = np.broadcast_to(b.reshape((1, -1) + (1,) * len(spatial)), g.shape).copy()
    gxp = np.zeros_like(xp)
    gw = np.empty_like(w)
    for tap in np.ndindex(*w.shape[2:]):
        xs, wt = shifted[(slice(None),) * 2 + tap], w[(slice(None),) * 2 + tap]
        out += np.einsum("oc,bc...->bo...", wt, xs, optimize=True)
        gw[(slice(None),) * 2 + tap] = np.einsum("bo...,bc...->oc", g, xs, optimize=True)
        window = tuple(slice(i, i + e) for i, e in zip(tap, spatial))
        gxp[(slice(None),) * 2 + window] += np.einsum("oc,bo...->bc...", wt, g, optimize=True)
    return out, gxp[(slice(None),) * 2 + tuple(slice(pad, pad + e) for e in spatial)], gw


@pytest.mark.parametrize("build, shape", [
    (lambda r: Conv3D(1, 64, 3, r), (32, 1, 9, 9, 32)),  # the stem
    (lambda r: Conv2D(64, 96, r), (32, 64, 9, 9)),  # CFG32's spatial conv
    (lambda r: Conv3D(32, 32, 3, r), (32, 32, 9, 9, 32)),
], ids=["stem", "spatial_conv", "conv3d_c32"])
def test_model_direct_convs_match_shifted_reference_at_batch_32(build, shape):
    # the direct correlation at the model's batch under the module's own
    # _CHUNK_BYTES, in float64, where the spatial conv's chunks hold
    # several samples: a multi-sample chunk gathered in more than one block
    # of rows would write its outputs out of place
    rng = np.random.default_rng(96)
    w = build(rng).astype(np.float64).weight.data
    x = rng.standard_normal(shape)
    b = rng.standard_normal(w.shape[0])
    g = rng.standard_normal((shape[0], w.shape[0]) + shape[2:])
    assert nn._conv_geometry(x, w)[-1] == 1
    parts = nn._conv_geometry(x, w)[3]
    assert (len(parts) < shape[0]) == (len(shape) == 4)  # several samples per chunk
    got = (nn._conv_forward(x, w, b),) + nn._conv_backward(g.copy(), x, w)[:2]
    for name, one, want in zip(("forward", "input gradient", "weight gradient"), got,
                               _shifted_reference(x, w, b, g)):
        np.testing.assert_allclose(one, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                   err_msg=name)


def _check_conv_against_bruteforce(build, shape):
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


def test_conv_transient_memory_does_not_grow_with_batch(workers):
    # the block's spectral conv (64 -> 96 channels, 3x3x3) on 9x9x32
    # patches: one sample's float32 columns are 17.9 MB; two workers keep
    # about one sample's columns in flight
    workers(2)
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


def test_spectral_conv_gathers_one_transform_of_columns_at_a_time():
    # one sample of the block's spectral conv, on the caller: its F(4, 3)
    # columns are 1.49 MB per transform, gathered one transform and one of
    # three blocks of output rows at a time. Beside its output the forward
    # holds the transformed weights (1.33 MB), the chunk's padded
    # transforms (1.49 MB), a block's columns (0.50 MB, where its windows,
    # 0.41 MB, are made first), stacked products (0.50 MB) and outputs
    # (0.33 MB): 4.2 MB in all; the direct correlation's columns took
    # 6.3 MB (9.13 MB at batch 2, 8.13 MB at batch 1), and a second
    # transform's columns in flight would add 1.49 MB
    rng = np.random.default_rng(89)
    x = rng.standard_normal((1, 64, 9, 9, 32)).astype(np.float32)
    w = (0.01 * rng.standard_normal((96, 64, 3, 3, 3))).astype(np.float32)
    transform_cols = 64 * 27 * 9 * 9 * 8 * 4
    transient = _transient_bytes(nn._conv_forward, x, w, np.zeros(96, dtype=np.float32))
    assert nn._conv_geometry(x, w)[-1] == 4
    assert transient < min(9.13e6, 4 * transform_cols), transient


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
def test_conv_frees_each_chunk_before_gathering_the_next(direction, chunking, workers):
    # a 3x3x3 conv at batch 2, one sample per chunk: a chunk's columns over
    # all 27 taps are 9.0 MB, as are the input gradient pass's; each chunk
    # gathers them a block of output rows (1.0 MB) at a time, and two
    # workers hold one chunk's scratch each (3.5 MB in all forward, 4.2 MB
    # backward)
    workers(2)
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_conv_scratch_is_not_faulted_in_afresh_on_each_call():
    # glibc hands a freed block of 128 KB or more back to the OS unless told
    # to keep it (trainer.keep_freed_memory, applied by the first conv module
    # call); the stem's batch-1 scratch was then faulted in page by page on
    # every call, some 480 faults
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((1, 1, 9, 9, 32)).astype(np.float32))
    conv = Conv3D(1, 64, 3, rng)
    conv(x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        conv(x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 30


# --- one worker or two: the same bits --------------------------------------


class TestMap:
    def test_results_come_in_job_order_with_two_running_and_one_queued(self, workers):
        workers(2)
        lock = threading.Lock()
        running, started, most = [0], [0], [0, 0]

        def job(i):
            with lock:
                running[0] += 1
                started[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.01 * (i % 3))
            with lock:
                running[0] -= 1
            return i

        done = []
        for i in nn._map(job, range(8)):
            done.append(i)
            with lock:  # jobs started but not yet handed to the caller
                most[1] = max(most[1], started[0] - len(done))
            time.sleep(0.005)
        assert done == list(range(8))
        assert most[0] <= 2 and most[1] <= 3, most

    def test_a_failed_job_raises_in_the_caller_after_the_others_stop(self, workers):
        workers(2)
        finished = []

        def job(i):
            if i == 1:
                raise NonFiniteError("job 1")
            time.sleep(0.02)
            finished.append(i)
            return i

        with pytest.raises(NonFiniteError, match="job 1"):
            list(nn._map(job, range(6)))
        count = len(finished)
        time.sleep(0.05)
        assert len(finished) == count and count < 6

    def test_many_workers_and_fast_thread_switches_run_each_job_once(self, workers):
        # more threads than cores, switching every microsecond: a job run
        # twice or skipped, or two running jobs handed one scratch set, would
        # show in what the jobs record and return
        workers(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ran, results = [], []

            def job(i, buffers):
                ran.append(i)
                buffers[0][:] = i
                time.sleep(0)
                return int(buffers[0].min()), int(buffers[0].max())

            def consume():
                results.extend(nn._map(job, range(400), lambda: [np.empty(64)]))

            consumer = threading.Thread(target=consume)
            consumer.start()
            consumer.join(timeout=60)
            assert not consumer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(400))
        assert results == [(i, i) for i in range(400)]

    def test_one_worker_runs_inline(self, workers):
        workers(1)
        assert list(nn._map(lambda _: threading.current_thread().name, [0, 1])) == \
            [threading.current_thread().name] * 2
        assert nn._pool is None


@BOTH_CHUNKINGS
def test_conv_is_bitwise_equal_at_one_and_two_workers(chunking, workers):
    # the block's spectral conv (64 -> 96, 3x3x3) on 9x9x32 at batch 2:
    # two workers run one sample each, forward and weight gradient, the
    # weight gradient's parts added in sample order
    rng = np.random.default_rng(90)
    x = rng.standard_normal((2, 64, 9, 9, 32)).astype(np.float32)
    w = (0.05 * rng.standard_normal((96, 64, 3, 3, 3))).astype(np.float32)
    b = rng.standard_normal(96).astype(np.float32)
    g = rng.standard_normal((2, 96, 9, 9, 32)).astype(np.float32)
    results = []
    for count in (1, 2):
        workers(count)
        assert len(nn._conv_geometry(x, w)[3]) == 2  # on the workers at two
        _, gw, gb = nn._conv_backward(g.copy(), x, w, need_gx=False)
        results.append((nn._conv_forward(x, w, b), gw, gb))
    for one, two in zip(*results):
        np.testing.assert_array_equal(one, two)


@BOTH_CHUNKINGS
def test_in_place_input_gradient_is_bitwise_equal_at_one_and_two_workers(chunking, workers):
    # C = 32 < O = 64 over three samples: each chunk's input gradient goes
    # over the front of g, where its own rows of g lie and the start of the
    # next chunk's; a chunk is written only once every earlier chunk's g has
    # been read
    rng = np.random.default_rng(91)
    x = rng.standard_normal((3, 32, 9, 9, 32)).astype(np.float32)
    w = (0.05 * rng.standard_normal((64, 32, 3, 3, 3))).astype(np.float32)
    g = rng.standard_normal((3, 64, 9, 9, 32)).astype(np.float32)
    flipped = np.flip(w, axis=(2, 3, 4)).swapaxes(0, 1)
    grads = []
    for count in (1, 2):
        workers(count)
        assert len(nn._conv_geometry(g, flipped)[3]) == 3  # on the workers at two
        handed = g.copy()
        gx = nn._conv_backward(handed, x, w)[0]
        assert np.shares_memory(gx, handed)
        grads.append(gx)
    np.testing.assert_array_equal(*grads)


@pytest.mark.parametrize("pool", [None, (2, 3, 4)], ids=["unpooled", "pooled"])
@BOTH_CHUNKINGS
def test_batchnorm_training_is_bitwise_equal_at_one_and_two_workers(pool, chunking, workers):
    # one sample per chunk: two workers take the chunks of every pass, and
    # the float64 channel sums are added in chunk order either way
    rng = np.random.default_rng(92)
    x0 = (3.0 * rng.standard_normal((5, 16, 4, 4, 6)) + 1.0).astype(np.float32)
    results = []
    for count in (1, 2):
        workers(count)
        bn = BatchNorm(16, "silu")
        x = Parameter(x0.copy())
        with Tape() as tape:
            out = bn(x, True, pool)
            loss = probe_loss(out)
        tape.backward(loss)
        results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                        bn.running_mean, bn.running_var))
    for one, two in zip(*results):
        np.testing.assert_array_equal(one, two)


@BOTH_CHUNKINGS
def test_stem_batchnorm_backward_on_a_worker_regenerates_its_conv_inline(chunking, workers):
    # the stem's BatchNorm regenerates its conv's output in backward; two
    # backwards replayed at once on the two workers map that conv's jobs
    # inline, where a nested map would wait on the workers it occupies
    def stem_step():
        rng = np.random.default_rng(93)
        conv, bn = Conv3D(1, 8, 3, rng), BatchNorm(8, "relu")
        x = Tensor(rng.standard_normal((4, 1, 5, 5, 6)).astype(np.float32))
        with Tape() as tape:
            loss = probe_loss(conv(x, bn, training=True))
        params = (conv.weight, conv.bias, bn.gamma, bn.beta)

        def replay():
            on_worker.append(getattr(nn._in_worker, "active", False))
            tape.backward(loss)
            return [p.grad for p in params]

        return replay

    on_worker = []
    workers(1)
    expected = stem_step()()
    workers(2)
    replayed = list(nn._map(lambda replay: replay(), [stem_step(), stem_step()]))
    assert on_worker == [False, True, True]
    for grads in replayed:
        for one, two in zip(expected, grads):
            np.testing.assert_array_equal(one, two)


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
            loss = probe_loss(out)
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

    def test_overflowing_variance_is_an_error_not_beta(self):
        # finite float32 tokens whose squares overflow: an infinite variance
        # would scale every token to 0 and return beta with no error
        ln = LayerNorm(2)
        with pytest.raises(NonFiniteError, match="by layernorm"):
            ln(Tensor(np.array([[-3e19, 3e19]], dtype=np.float32)))


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

    def test_each_row_of_a_batch_is_its_own_product(self):
        # a [B, k] input (the head's) is multiplied a row at a time, so a
        # row's output is the same in any batch; BLAS rounds one [B, k] @
        # [k, out] product differently as B changes
        rng = np.random.default_rng(0)
        layer = Linear(96, 64, rng)
        layer.bias.data[:] = rng.standard_normal(64)
        x = rng.standard_normal((33, 96)).astype(np.float32)
        whole = layer(Tensor(x)).data
        for i in range(33):
            assert np.array_equal(whole[i], layer(Tensor(x[i:i + 1])).data[0]), i


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
    # check at a generic point, off the zero-initialized biases; the probe
    # loss's 0.01 / size scale keeps finite-difference rounding noise below
    # the relative-error floor
    rng = np.random.default_rng(42)
    layer = build(rng)
    x = Parameter(rng.standard_normal(make_input), name="x")
    params = [x] + layer.parameters()
    for p in layer.parameters():
        p.data += 0.05 * rng.standard_normal(p.shape)

    def f():
        out = layer(x) if n_extra == 0 else layer(x, True)
        return probe_loss(out)

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
        return probe_loss(out)

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
        return probe_loss(out)

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
            return probe_loss(out)

        report = grad_check(f, params, rng=rng, samples_per_parameter=50)
        assert report.ok, (training, str(report))


@pytest.mark.parametrize("fn", [silu], ids=["silu"])
def test_gradcheck_activations(fn):
    rng = np.random.default_rng(44)
    x = Parameter(rng.standard_normal((3, 6)) + 0.1, name="x")

    def f():
        out = fn(x)
        return probe_loss(out)

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
        return probe_loss(out)

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
