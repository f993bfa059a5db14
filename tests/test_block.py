import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralca import attention as A
from spectralca import nn
from spectralca import tensor as T
from spectralca.attention import CrossAttention
from spectralca.block import (
    CFG32,
    CFG64,
    AuditMismatchError,
    BaselineViTBlock,
    SpectralCABlock,
    SpectralCAConfig,
    StreamProjector,
    closed_form_counts,
    param_audit,
)
from spectralca.nn import BatchNorm
from spectralca.tensor import Parameter, Tape, Tensor, grad_check
from spectralca.verify import TINY_BLOCK_CONFIG
from test_nn import conv_reference

TINY = SpectralCAConfig(channels=2, dim=4, heads=2, dropout_rate=0.0)


def tiny_block(dtype=np.float32, seed=0):
    return SpectralCABlock(TINY, np.random.default_rng(seed)).astype(dtype)


class TestSpatialPath:
    def test_shape_contract(self):
        block = SpectralCABlock(CFG32, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 64, 9, 9, 32)).astype(np.float32))
        assert block.spatial_path(x, training=False).shape == (2, 81, 96)

    def test_band_constant_input_equals_single_band(self):
        block = tiny_block(dtype=np.float64)
        base = np.random.default_rng(2).standard_normal((1, 2, 3, 3))
        wide = Tensor(np.repeat(base[..., None], 5, axis=4))
        thin = Tensor(base[..., None])
        out_wide = block.spatial_path(wide, training=False)
        out_thin = block.spatial_path(thin, training=False)
        np.testing.assert_allclose(out_wide.data, out_thin.data, atol=1e-12)

    def test_token_statistics_follow_layernorm(self):
        block = tiny_block(dtype=np.float64)
        x = Tensor(np.random.default_rng(3).standard_normal((2, 2, 4, 4, 6)))
        tokens = block.spatial_path(x, training=False).data
        assert np.abs(tokens.mean(axis=-1)).max() < 1e-5


class TestSpectralPath:
    def test_shape_contract(self):
        block = SpectralCABlock(CFG32, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 64, 9, 9, 32)).astype(np.float32))
        assert block.spectral_path(x, training=False).shape == (2, 32, 96)

    def test_transpose_symmetric_instance(self):
        block = tiny_block(dtype=np.float64)
        w = block.spectral_conv.weight.data
        block.spectral_conv.weight.data = 0.5 * (w + w.swapaxes(2, 3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 2, 4, 4, 3))
        x = 0.5 * (x + x.swapaxes(2, 3))
        out_a = block.spectral_path(Tensor(x), training=False)
        out_b = block.spectral_path(Tensor(x.swapaxes(2, 3).copy()), training=False)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_every_input_element_reaches_output(self):
        # tokens are layer-normalized, so their plain sum is constant by
        # construction; probe a fixed random functional of the tokens instead
        block = tiny_block(dtype=np.float64)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 3, 3, 4))
        probe = rng.standard_normal((1, 4, 4))  # [B, D, dim]

        def total(arr):
            out = block.spectral_path(Tensor(arr), training=False).data
            return float((out * probe).sum())

        h = 1e-5
        for _ in range(5):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            bumped = x.copy()
            bumped[idx] += h
            assert abs(total(bumped) - total(x)) / h > 1e-8


class TestBlockForward:
    def test_zero_projector_is_identity(self):
        block = tiny_block()
        block.projector.weight.data[:] = 0.0
        block.projector.bias.data[:] = 0.0
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((2, 2, 3, 4, 5)).astype(np.float32)
            out = block(Tensor(x), training=False)
            assert np.array_equal(out.data, x)

    def test_shape_contract_published_config(self):
        block = SpectralCABlock(CFG32, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 64, 9, 9, 32)).astype(np.float32))
        assert block(x, training=False).shape == (2, 64, 9, 9, 32)

    def test_eval_forward_deterministic(self):
        block = tiny_block()
        x = Tensor(np.random.default_rng(6).standard_normal((2, 2, 3, 3, 4)).astype(np.float32))
        a = block(x, training=False).data
        b = block(x, training=False).data
        assert np.array_equal(a, b)

    def test_training_forward_with_dropout_runs(self):
        cfg = SpectralCAConfig(channels=2, dim=4, heads=2, dropout_rate=0.5)
        block = SpectralCABlock(cfg, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(7).standard_normal((2, 2, 3, 3, 4)).astype(np.float32))
        out = block(x, training=True, rng=np.random.default_rng(1))
        assert out.shape == x.shape

    def test_gradcheck_tiny(self):
        block = tiny_block(dtype=np.float64)
        rng = np.random.default_rng(8)
        x = Parameter(rng.standard_normal((1, 2, 3, 3, 3)), name="x")

        def f():
            out = block(x, training=True)
            return T.scale(T.mean_all(T.mul(out, out)), 0.01)

        report = grad_check(f, [x] + block.parameters(), rng=rng, samples_per_parameter=25)
        assert report.ok, str(report)

    def test_gradient_completeness(self):
        block = tiny_block(dtype=np.float64)
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 2, 3, 3, 4)))
        block.zero_grad()
        with Tape() as tape:
            out = block(x, training=True)
            loss = T.mean_all(T.mul(out, out))
        tape.backward(loss)
        for name, p in block.named_parameters():
            assert np.abs(p.grad).max() > 0.0, f"no gradient reached {name}"

    def test_channel_mismatch_rejected(self):
        block = tiny_block()
        with pytest.raises(T.ShapeError):
            block(Tensor(np.zeros((1, 3, 3, 3, 3), dtype=np.float32)))


def concat_projection_reference(x, spatial, spectral, weight, bias):
    """The paper's output stage in float64: spatial tokens replicated over
    bands, spectral tokens over positions, concatenated on channels, then a
    1x1x1 convolution and the global residual."""
    b, _, hh, ww, dd = x.shape
    d = spatial.shape[2]
    smap = spatial.transpose(0, 2, 1).reshape(b, d, hh, ww, 1)
    pmap = spectral.transpose(0, 2, 1).reshape(b, d, 1, 1, dd)
    merged = np.concatenate((np.broadcast_to(smap, (b, d, hh, ww, dd)),
                             np.broadcast_to(pmap, (b, d, hh, ww, dd))), axis=1)
    return x + conv_reference(merged, weight, bias)


class TestOutputStage:
    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("config,shape", [
        (TINY_BLOCK_CONFIG, (2, 2, 3, 4, 5)),
        (CFG32, (1, CFG32.channels, 3, 3, 4)),
    ])
    def test_matches_concat_projection(self, config, shape, training, monkeypatch):
        rng = np.random.default_rng(10)
        block = SpectralCABlock(config, rng).astype(np.float64)
        block.projector.bias.data[:] = rng.standard_normal(config.channels)
        seen = []

        def spy(projector, *args):
            seen.append([t.data for t in args])
            return project(projector, *args)

        project = StreamProjector.__call__
        monkeypatch.setattr(StreamProjector, "__call__", spy)
        x = Tensor(rng.standard_normal(shape))
        out = block(x, training=training, rng=np.random.default_rng(11))
        xd, spatial, spectral = seen[0]
        assert xd is x.data and spatial.shape[1:] == (shape[2] * shape[3], config.dim)
        expected = concat_projection_reference(xd, spatial, spectral,
                                               block.projector.weight.data,
                                               block.projector.bias.data)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_gradients_are_adjoints(self):
        # linear in the tokens for a fixed weight and bilinear in (tokens,
        # weight), so <out - x - b, g> = <s, gs> + <p, gp> = <W, gW>
        rng = np.random.default_rng(12)
        block = tiny_block(dtype=np.float64)
        weight, bias = block.projector.weight, block.projector.bias
        bias.data[:] = rng.standard_normal(bias.shape)
        x = Tensor(rng.standard_normal((2, 2, 3, 4, 5)), requires_grad=True)
        s = Tensor(rng.standard_normal((2, 12, 4)), requires_grad=True)
        p = Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        g = rng.standard_normal(x.shape)
        block.zero_grad()
        with Tape() as tape:
            out = block.projector(x, s, p)
            assert [node.op for node in tape.nodes] == ["project_streams"]
            loss = T.sum_all(T.mul(out, Tensor(g)))
        tape.backward(loss)
        linear = np.vdot(out.data - x.data - bias.data.reshape(1, -1, 1, 1, 1), g)
        np.testing.assert_allclose(np.vdot(s.data, s.grad) + np.vdot(p.data, p.grad),
                                   linear, rtol=1e-12)
        np.testing.assert_allclose(np.vdot(weight.data, weight.grad), linear, rtol=1e-12)
        np.testing.assert_array_equal(x.grad, g)
        np.testing.assert_allclose(bias.grad, g.sum(axis=(0, 2, 3, 4)), rtol=1e-12)


class TestPooledProjector:
    @pytest.mark.parametrize("shape", [(2, 2, 3, 4, 5), (1, 2, 1, 1, 3)])
    def test_matches_the_mean_of_the_full_projection(self, shape):
        # float64: value and the gradients of x, the tokens and the weights
        # against mean_axis of the full projector's output, for the same
        # upstream gradient; the pooled form takes x's mean, [B,c]
        rng = np.random.default_rng(13)
        block = tiny_block(dtype=np.float64)
        projector = block.projector
        projector.bias.data[:] = rng.standard_normal(projector.bias.shape)
        b, c, hh, ww, dd = shape
        arrays = (rng.standard_normal(shape), rng.standard_normal((b, hh * ww, TINY.dim)),
                  rng.standard_normal((b, dd, TINY.dim)))
        g = Tensor(rng.standard_normal((b, c)))
        results = []
        for pooled in (True, False):
            inputs = [Tensor(a, requires_grad=True) for a in arrays]
            block.zero_grad()
            with Tape() as tape:
                if pooled:
                    x, spatial, spectral = inputs
                    out = projector.pooled(T.mean_axis(x, (2, 3, 4)), spatial, spectral)
                    assert [node.op for node in tape.nodes] == ["mean_axis", "project_pooled"]
                else:
                    out = T.mean_axis(projector(*inputs), (2, 3, 4))
                loss = T.sum_all(T.mul(out, g))
            tape.backward(loss)
            results.append([out.data] + [t.grad for t in inputs]
                           + [projector.weight.grad.copy(), projector.bias.grad.copy()])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("training", [False, True])
    def test_block_pool_is_the_mean_of_the_block_output(self, training):
        rng = np.random.default_rng(14)
        block = tiny_block(dtype=np.float64)
        x = Tensor(rng.standard_normal((2, 2, 3, 4, 5)))
        pooled = block(x, training, pool=True)
        full = block(x, training)
        assert pooled.shape == (2, 2)
        np.testing.assert_allclose(pooled.data, full.data.mean(axis=(2, 3, 4)),
                                   rtol=1e-12, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 2), st.integers(1, 5), st.integers(1, 5), st.integers(1, 6),
)
def test_shape_preservation_property(b, h, w, d):
    block = tiny_block()
    x = Tensor(np.random.default_rng(0).standard_normal((b, 2, h, w, d)).astype(np.float32))
    assert block(x, training=False).shape == (b, 2, h, w, d)


def test_extreme_extents_preserved():
    block = tiny_block()
    for shape in [(1, 2, 1, 1, 1), (1, 2, 1, 1, 7), (1, 2, 5, 5, 1), (2, 2, 1, 3, 2)]:
        x = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
        assert block(x, training=False).shape == shape


class TestParamAudit:
    def test_small_published_config(self):
        table = param_audit(CFG32)
        assert dict(table.rows) == {
            "spatial_conv_block": 55_584,
            "spectral_conv_block": 166_176,
            "cross_attention": 74_496,
            "layernorms": 768,
            "ffn_spatial": 37_152,
            "ffn_spectral": 37_152,
            "projector": 12_352,
        }
        assert table.total == 383_680

    def test_large_published_config(self):
        table = param_audit(CFG64)
        assert dict(table.rows) == {
            "spatial_conv_block": 138_600,
            "spectral_conv_block": 415_080,
            "cross_attention": 116_160,
            "layernorms": 960,
            "ffn_spatial": 57_960,
            "ffn_spectral": 57_960,
            "projector": 30_848,
        }
        assert table.total == sum(dict(table.rows).values()) == 817_568

    def test_degenerate_config(self):
        cfg = SpectralCAConfig(channels=1, dim=1, heads=1)
        table = param_audit(cfg)
        rows = dict(table.rows)
        assert rows["spatial_conv_block"] == 9 * 1 * 1 + 3 == 12
        assert rows["cross_attention"] == 8 * (1 + 1) == 16

    def test_closed_form_matches_direct_formulas(self):
        cfg = SpectralCAConfig(channels=5, dim=8, heads=2)
        counts = closed_form_counts(cfg)
        c, d = 5, 8
        assert counts["spatial_conv_block"] == 9 * c * d + 3 * d
        assert counts["spectral_conv_block"] == 27 * c * d + 3 * d
        assert counts["cross_attention"] == 8 * (d * d + d)
        assert counts["layernorms"] == 8 * d
        assert counts["ffn_spatial"] == 4 * d * d + 3 * d
        assert counts["projector"] == 2 * d * c + c

    def test_table_formatting_and_dict(self):
        table = param_audit(TINY)
        assert "total" in str(table)
        payload = table.as_dict()
        assert payload["total"] == table.total
        assert payload["channels"] == TINY.channels

    def test_enumeration_disagreement_detected(self, monkeypatch):
        from spectralca import block as block_mod

        bad = dict(closed_form_counts(TINY))
        bad["projector"] += 1
        monkeypatch.setattr(block_mod, "closed_form_counts", lambda cfg: bad)
        with pytest.raises(AuditMismatchError):
            param_audit(TINY)


class TestBaseline:
    def test_shape_contract(self):
        block = BaselineViTBlock(TINY, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 3, 3, 4)).astype(np.float32))
        assert block(x, training=False).shape == (2, 2, 3, 3, 4)

    def test_zero_final_projection_is_identity(self):
        block = BaselineViTBlock(TINY, np.random.default_rng(0))
        block.fusion.weight.data[:] = 0.0
        block.fusion.bias.data[:] = 0.0
        x = np.random.default_rng(2).standard_normal((1, 2, 3, 3, 3)).astype(np.float32)
        out = block(Tensor(x), training=False)
        assert np.array_equal(out.data, x)

    def test_strictly_more_parameters_than_cross_attention_block(self):
        # holds at the published configurations (the degenerate tiny config
        # reverses it: local/fusion conv cost scales with C^2, attention with d^2)
        for cfg in (CFG32, CFG64):
            baseline = BaselineViTBlock(cfg, np.random.default_rng(0))
            assert baseline.param_count() > param_audit(cfg).total

    def test_eval_forward_peak_memory(self):
        # CFG32 at batch 2: the attention over all 2592 positions never
        # holds the whole [2,4,2592,2592] scores (107 MB each for the scores
        # and their softmax, 873 MB peak when they were built)
        block = BaselineViTBlock(CFG32, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 64, 9, 9, 32))
                   .astype(np.float32))
        tracemalloc.start()
        try:
            block(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6, peak / 1e6

    def test_gradcheck_tiny(self):
        # h=1e-5 here: the embed bias feeds LayerNorm directly (no BatchNorm
        # in between as in the main block), and its curvature makes the
        # h=1e-4 truncation error marginal at these tiny dims
        block = BaselineViTBlock(TINY, np.random.default_rng(3)).astype(np.float64)
        rng = np.random.default_rng(10)
        x = Parameter(rng.standard_normal((1, 2, 2, 3, 2)), name="x")

        def f():
            out = block(x, training=True)
            return T.scale(T.mean_all(T.mul(out, out)), 0.01)

        report = grad_check(f, [x] + block.parameters(), h=1e-5, rng=rng,
                            samples_per_parameter=20)
        assert report.ok, str(report)


class TestConfig:
    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            SpectralCAConfig(channels=4, dim=10, heads=3)
        for heads in (0, -2):  # -2 divides 8, and 0 would divide by zero
            with pytest.raises(ValueError):
                SpectralCAConfig(channels=4, dim=8, heads=heads)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            SpectralCAConfig(channels=0, dim=8, heads=2)
        with pytest.raises(ValueError):
            SpectralCAConfig(channels=4, dim=0, heads=2)

    def test_presets_pinned(self):
        assert (CFG32.channels, CFG32.dim) == (64, 96)
        assert (CFG64.channels, CFG64.dim) == (128, 120)


def _recorded_chunks(monkeypatch, module):
    """The slices of every _chunks call made through `module` (nn or
    attention), recorded in order."""
    real, calls = nn._chunks, []

    def spy(n, item_bytes):
        calls.append(real(n, item_bytes))
        return calls[-1]

    monkeypatch.setattr(module, "_chunks", spy)
    return calls


def _zeros(*shape):
    """A float32 array of the shape that allocates nothing."""
    return np.broadcast_to(np.float32(0), shape)


class TestChunkOperatingPoint:
    """The chunking of CFG32 on 9x9x32 patches under nn._CHUNK_BYTES, so a
    change of the budget shows here."""

    @pytest.mark.parametrize("batch", [32, 64])
    def test_convs(self, batch):
        block = SpectralCABlock(CFG32, np.random.default_rng(0))
        spectral = nn._conv_geometry(_zeros(batch, 64, 9, 9, 32), block.spectral_conv.weight.data)
        assert spectral[3] == [slice(i, i + 1) for i in range(batch)]
        spatial = nn._conv_geometry(_zeros(batch, 64, 9, 9), block.spatial_conv.weight.data)
        assert spatial[3] == [slice(i, i + 8) for i in range(0, batch, 8)]

    def test_spectral_batchnorm_one_sample_per_chunk(self, monkeypatch):
        calls = _recorded_chunks(monkeypatch, nn)
        x = np.random.default_rng(1).standard_normal((2, 96, 9, 9, 32)).astype(np.float32)
        BatchNorm(96, "silu")(Tensor(x), training=True)
        assert calls == [[slice(0, 1), slice(1, 2)]]  # statistics, SiLU and backward

    @pytest.mark.parametrize("batch", [32, 64])
    def test_cross_attention_one_block_per_direction(self, batch, monkeypatch):
        calls = _recorded_chunks(monkeypatch, A)
        rng = np.random.default_rng(2)
        spatial, spectral = (Tensor(rng.standard_normal((batch, n, 96)).astype(np.float32))
                             for n in (81, 32))
        CrossAttention(96, 4, rng)(spatial, spectral)
        assert calls == [[slice(0, 81)], [slice(0, 32)]]

    def test_baseline_self_attention_48_rows_per_block(self, monkeypatch):
        # batch 2 over all 9*9*32 positions; the block count depends only
        # on the batch and the query and key counts, so one head of width 4
        # stands in for CFG32's four of 24
        calls = _recorded_chunks(monkeypatch, A)
        tokens = Tensor(np.random.default_rng(3).standard_normal((2, 2592, 4)).astype(np.float32))
        A.attention(tokens, tokens, tokens, 1)
        assert calls == [[slice(i, i + 48) for i in range(0, 2592, 48)]]
