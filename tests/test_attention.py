import numpy as np
import pytest

from spectralca import nn
from spectralca import tensor as T
from spectralca.attention import CrossAttention, SelfAttention, attention
from spectralca.tensor import Parameter, Tape, Tensor, grad_check
from spectralca.verify import probe_loss


def apply_linear(layer, x):
    return x @ layer.weight.data.T + layer.bias.data


def brute_force_cross_attention(ca, spatial, spectral):
    """Independent per-head, per-pair implementation with explicit loops."""
    heads, d = ca.heads, ca.dim
    dh = d // heads
    b, ns, _ = spatial.shape
    npp = spectral.shape[1]

    def one_direction(q_layer, k_layer, v_layer, out_layer, q_tokens, kv_tokens):
        q = apply_linear(q_layer, q_tokens)
        k = apply_linear(k_layer, kv_tokens)
        v = apply_linear(v_layer, kv_tokens)
        nq, nk = q_tokens.shape[1], kv_tokens.shape[1]
        ctx = np.zeros((b, nq, d))
        for bi in range(b):
            for h in range(heads):
                sl = slice(h * dh, (h + 1) * dh)
                for i in range(nq):
                    scores = np.array([
                        q[bi, i, sl] @ k[bi, j, sl] / np.sqrt(dh) for j in range(nk)
                    ])
                    w = np.exp(scores - scores.max())
                    w /= w.sum()
                    for j in range(nk):
                        ctx[bi, i, sl] += w[j] * v[bi, j, sl]
        return apply_linear(out_layer, ctx)

    att1 = one_direction(ca.q_spatial, ca.k_spectral, ca.v_spectral, ca.out_spatial,
                         spatial, spectral)
    att2 = one_direction(ca.q_spectral, ca.k_spatial, ca.v_spatial, ca.out_spectral,
                         spectral, spatial)
    return att1, att2


def identity_initialized(dim, heads):
    ca = CrossAttention(dim, heads, np.random.default_rng(0)).astype(np.float64)
    for layer in (ca.q_spatial, ca.k_spatial, ca.v_spatial, ca.q_spectral,
                  ca.k_spectral, ca.v_spectral, ca.out_spatial, ca.out_spectral):
        layer.weight.data[:] = np.eye(dim)
        layer.bias.data[:] = 0.0
    return ca


class TestCrossAttention:
    def test_single_key_broadcasts_value(self):
        rng = np.random.default_rng(11)
        ca = CrossAttention(8, 2, rng).astype(np.float64)
        spatial = Tensor(rng.standard_normal((2, 5, 8)))
        spectral = Tensor(rng.standard_normal((2, 1, 8)))
        att1, _ = ca(spatial, spectral)
        expected_row = apply_linear(
            ca.out_spatial, apply_linear(ca.v_spectral, spectral.data)
        )
        for i in range(5):
            np.testing.assert_allclose(att1.data[:, i, :], expected_row[:, 0, :], atol=1e-10)

    def test_identity_projections_pass_token_through(self):
        ca = identity_initialized(4, 2)
        token = np.random.default_rng(1).standard_normal((1, 1, 4))
        att1, att2 = ca(Tensor(token), Tensor(token))
        np.testing.assert_allclose(att1.data, token, atol=1e-12)
        np.testing.assert_allclose(att2.data, token, atol=1e-12)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        ca = CrossAttention(96, 4, rng).astype(np.float64)
        spatial = rng.standard_normal((2, 7, 96))
        spectral = rng.standard_normal((2, 5, 96))
        att1, att2 = ca(Tensor(spatial), Tensor(spectral))
        ref1, ref2 = brute_force_cross_attention(ca, spatial, spectral)
        np.testing.assert_allclose(att1.data, ref1, atol=1e-5)
        np.testing.assert_allclose(att2.data, ref2, atol=1e-5)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        ca = CrossAttention(8, 2, rng).astype(np.float64)
        s = rng.standard_normal((1, 5, 8))
        p = rng.standard_normal((1, 6, 8))
        att1, att2 = ca(Tensor(s), Tensor(p))
        perm = rng.permutation(6)
        att1p, att2p = ca(Tensor(s), Tensor(p[:, perm]))
        np.testing.assert_allclose(att1p.data, att1.data, atol=1e-10)
        np.testing.assert_allclose(att2p.data, att2.data[:, perm], atol=1e-10)

    def test_dim_mismatch_rejected(self):
        ca = CrossAttention(8, 2, np.random.default_rng(0))
        with pytest.raises(T.ShapeError):
            ca(Tensor(np.zeros((1, 2, 8), dtype=np.float32)),
               Tensor(np.zeros((1, 2, 6), dtype=np.float32)))

    def test_heads_must_divide_dim(self):
        for dim, heads in [(10, 3), (8, 0), (8, -2)]:  # -2 divides 8, 0 divides by zero
            for layer in (CrossAttention, SelfAttention):
                with pytest.raises(ValueError):
                    layer(dim, heads, np.random.default_rng(0))

    def test_parameter_count_exact(self):
        for d, expected in [(96, 74_496), (120, 116_160)]:
            ca = CrossAttention(d, 4, np.random.default_rng(0))
            assert ca.param_count() == expected
            assert ca.param_count() == 8 * (d * d + d)

    def test_gradcheck(self):
        # the key-projection biases have an identically zero gradient
        # (softmax is shift-invariant per query row); the probe loss's scale
        # keeps the finite-difference noise on those dead directions well
        # below the relative-error floor
        rng = np.random.default_rng(5)
        ca = CrossAttention(6, 2, rng).astype(np.float64)
        s = Parameter(rng.standard_normal((1, 3, 6)), name="s")
        p = Parameter(rng.standard_normal((1, 2, 6)), name="p")

        def f():
            a1, a2 = ca(s, p)
            return T.add(probe_loss(a1), probe_loss(a2))

        report = grad_check(f, [s, p] + ca.parameters(), rng=rng, samples_per_parameter=30)
        assert report.ok, str(report)


def _rows_budget(monkeypatch, rows, batch, keys, itemsize=4):
    """Sets the chunk budget to give query blocks of `rows` rows."""
    monkeypatch.setattr(nn, "_CHUNK_BYTES", rows * batch * keys * itemsize)


class TestAttentionOp:
    # CFG32's two directions: 81 spatial queries over 32 spectral keys and
    # the converse, at width 96 with 4 heads
    @pytest.mark.parametrize("nq,nk,rows", [
        (81, 32, 27), (81, 32, 24), (81, 32, 6), (32, 81, 8), (32, 81, 12),
    ])
    def test_query_blocks_are_bit_identical_to_one_block(self, nq, nk, rows, monkeypatch):
        # 27 and 8 divide Nq, 24, 6 and 12 do not. Every block has at least
        # two rows: numpy hands a one-row product to gemv, whose sums may
        # round differently from gemm's (see the next test)
        rng = np.random.default_rng(20)
        q, k, v = (Tensor(rng.standard_normal((3, n, 96)).astype(np.float32))
                   for n in (nq, nk, nk))
        whole = attention(q, k, v, 4).data
        _rows_budget(monkeypatch, rows, 3, nk)
        assert np.array_equal(attention(q, k, v, 4).data, whole)

    def test_one_row_blocks_agree_to_rounding(self, monkeypatch):
        rng = np.random.default_rng(21)
        q, k, v = (Tensor(rng.standard_normal((2, n, 96)).astype(np.float32))
                   for n in (7, 9, 9))
        whole = attention(q, k, v, 4).data
        _rows_budget(monkeypatch, 1, 2, 9)
        np.testing.assert_allclose(attention(q, k, v, 4).data, whole, rtol=0, atol=1e-5)

    def test_records_one_node_per_direction(self):
        rng = np.random.default_rng(22)
        ca = CrossAttention(8, 2, rng)
        s = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32), requires_grad=True)
        p = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            ca(s, p)
        ops = [node.op for node in tape.nodes]
        assert ops.count("attention") == 2 and len(ops) == 2 + 8  # and eight linear maps

    def test_shape_mismatch_rejected(self):
        q = Tensor(np.zeros((2, 5, 8), dtype=np.float32))
        k = Tensor(np.zeros((2, 3, 8), dtype=np.float32))
        for kk, vv in [(k, Tensor(np.zeros((2, 4, 8)))), (Tensor(np.zeros((1, 3, 8))),) * 2,
                       (Tensor(np.zeros((2, 3, 6))),) * 2]:
            with pytest.raises(T.ShapeError):
                attention(q, kk, vv, 2)
        # the heads must divide d = 8: with 3, features 6-7 would be in no head
        for heads in (3, 0, -2):
            with pytest.raises(T.ShapeError):
                attention(q, k, k, heads)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_gradcheck_in_query_blocks(self, rows, monkeypatch):
        # 5 queries in blocks of 1 or 2 (the last one short): backward
        # recomputes each block's softmax and sums the key and value
        # gradients over the blocks
        rng = np.random.default_rng(23)
        q, k, v = (Parameter(rng.standard_normal((2, n, 6)), name=name)
                   for n, name in ((5, "q"), (3, "k"), (3, "v")))
        _rows_budget(monkeypatch, rows, 2, 3, itemsize=8)

        def f():
            out = attention(q, k, v, 2)
            return probe_loss(out)

        report = grad_check(f, [q, k, v], rng=rng, samples_per_parameter=30)
        assert report.ok, str(report)


class TestSelfAttention:
    def test_shape_and_param_count(self):
        sa = SelfAttention(12, 4, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).standard_normal((2, 5, 12)).astype(np.float32))
        assert sa(x).shape == (2, 5, 12)
        assert sa.param_count() == 4 * (12 * 12 + 12)

    def test_gradcheck(self):
        rng = np.random.default_rng(6)
        sa = SelfAttention(4, 2, rng).astype(np.float64)
        x = Parameter(rng.standard_normal((1, 3, 4)), name="x")

        def f():
            out = sa(x)
            return probe_loss(out)

        report = grad_check(f, [x] + sa.parameters(), rng=rng, samples_per_parameter=30)
        assert report.ok, str(report)
