"""Multi-head attention: the bi-directional cross variant and a standard
single-stream variant used by the comparison baseline.

Token tensors are [batch, tokens, dim]. The embedding dim d is split into
h contiguous head slices of d/h features; scaled dot-product attention
runs per head and the concatenated heads pass through a per-direction
output projection.

`attention` is one tape op. It computes softmax(q k^T / sqrt(d/h)) v one
head and one block of queries at a time, so only one block's [B, rows, Nk]
scores exist at once; the blocks are nn._chunks of the queries, so a
block's scores take about nn._CHUNK_BYTES (at least one row). Backward
holds two such buffers, the probabilities and their gradient. A softmax
row depends only on its own query, so the blocks are exact (Rabe &
Staats, "Self-attention Does Not Need O(n^2) Memory", arXiv:2112.05682).
The op retains only q, k and v; backward recomputes each block's softmax,
as FlashAttention does (Dao et al., arXiv:2205.14135).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .nn import Linear, Module, _chunks, softmax_inplace
from .tensor import Tensor


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention of q [B,Nq,d] over k, v [B,Nk,d] with
    `heads` heads of d/heads features each; returns the merged context
    [B,Nq,d]."""
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2])):
        raise T.ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} incompatible")
    if heads < 1 or q.shape[2] % heads:
        raise T.ShapeError(f"attention: {heads} heads do not divide dim {q.shape[2]}")
    b, nq, d = q.shape
    nk = k.shape[1]
    dh = d // heads
    c = 1.0 / math.sqrt(dh)  # a Python float keeps float32 data float32
    qd, kd, vd = q.data, k.data, v.data
    blocks = _chunks(nq, b * nk * qd.itemsize)
    hs = [slice(h * dh, (h + 1) * dh) for h in range(heads)]
    out = np.empty(q.shape, dtype=qd.dtype)
    for sl in hs:
        for blk in blocks:
            p = softmax_inplace((qd[:, blk, sl] * c) @ kd[:, :, sl].transpose(0, 2, 1))
            out[:, blk, sl] = p @ vd[:, :, sl]

    def backward(g):
        gq = np.empty(qd.shape, qd.dtype)
        gk = np.zeros(kd.shape, kd.dtype)
        gv = np.zeros(vd.shape, vd.dtype)
        for sl in hs:
            kh, vh = kd[:, :, sl], vd[:, :, sl]
            for blk in blocks:
                qs = qd[:, blk, sl] * c
                p = softmax_inplace(qs @ kh.transpose(0, 2, 1))
                gb = g[:, blk, sl]
                gv[:, :, sl] += p.transpose(0, 2, 1) @ gb
                gs = gb @ vh.transpose(0, 2, 1)  # gradient of p
                gs -= np.einsum("bqk,bqk->bq", gs, p)[..., None]
                gs *= p  # now the gradient of the scaled scores
                np.multiply(gs @ kh, c, out=gq[:, blk, sl])
                gk[:, :, sl] += gs.transpose(0, 2, 1) @ qs
        return gq, gk, gv

    return T.record_op("attention", (q, k, v), out, backward)


class CrossAttention(Module):
    """Bi-directional cross-attention between two token streams.

    One direction queries the spatial stream against spectral keys/values,
    the other queries the spectral stream against spatial keys/values.
    Exactly eight affine maps: six d->d projections plus two d->d output
    maps, so the parameter count is 8(d^2 + d).
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if heads < 1 or dim % heads:
            raise ValueError(f"heads {heads} must be positive and divide dim {dim}")
        self.dim = dim
        self.heads = heads
        self.q_spatial = Linear(dim, dim, rng)
        self.k_spatial = Linear(dim, dim, rng)
        self.v_spatial = Linear(dim, dim, rng)
        self.q_spectral = Linear(dim, dim, rng)
        self.k_spectral = Linear(dim, dim, rng)
        self.v_spectral = Linear(dim, dim, rng)
        self.out_spatial = Linear(dim, dim, rng)
        self.out_spectral = Linear(dim, dim, rng)

    def __call__(self, spatial_tokens: Tensor, spectral_tokens: Tensor):
        """Returns (spatial-side attended, spectral-side attended) tokens.

        The spatial side keeps the spatial token count and aggregates
        spectral values; the spectral side does the converse.
        """
        if spatial_tokens.shape[-1] != self.dim or spectral_tokens.shape[-1] != self.dim:
            raise T.ShapeError(
                f"token dim mismatch: expected {self.dim}, got "
                f"{spatial_tokens.shape[-1]} and {spectral_tokens.shape[-1]}"
            )
        to_spatial = attention(
            self.q_spatial(spatial_tokens),
            self.k_spectral(spectral_tokens),
            self.v_spectral(spectral_tokens),
            self.heads,
        )
        to_spectral = attention(
            self.q_spectral(spectral_tokens),
            self.k_spatial(spatial_tokens),
            self.v_spatial(spatial_tokens),
            self.heads,
        )
        return self.out_spatial(to_spatial), self.out_spectral(to_spectral)


class SelfAttention(Module):
    """Standard multi-head self-attention: three projections plus one output map."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if heads < 1 or dim % heads:
            raise ValueError(f"heads {heads} must be positive and divide dim {dim}")
        self.dim = dim
        self.heads = heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)

    def __call__(self, tokens: Tensor) -> Tensor:
        ctx = attention(self.q(tokens), self.k(tokens), self.v(tokens), self.heads)
        return self.out(ctx)
