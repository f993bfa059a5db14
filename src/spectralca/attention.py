"""Multi-head attention: the bi-directional cross variant and a standard
single-stream variant used by the comparison baseline.

Token tensors are [batch, tokens, dim]. The embedding dim d is split into
h contiguous head slices of d/h features; scaled dot-product attention
runs per head and the concatenated heads pass through a per-direction
output projection.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import Linear, Module, softmax
from .tensor import Tensor


def _split_heads(t: Tensor, heads: int) -> Tensor:
    b, n, d = t.shape
    t = T.reshape(t, (b, n, heads, d // heads))
    return T.transpose(t, (0, 2, 1, 3))  # [B,h,N,dh]


def _merge_heads(t: Tensor) -> Tensor:
    b, h, n, dh = t.shape
    return T.reshape(T.transpose(t, (0, 2, 1, 3)), (b, n, h * dh))


def _attend(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention per head; returns the merged context."""
    dh = q.shape[-1] // heads
    qh = T.scale(_split_heads(q, heads), 1.0 / np.sqrt(dh))
    kh = _split_heads(k, heads)
    vh = _split_heads(v, heads)
    scores = T.matmul(qh, T.transpose(kh, (0, 1, 3, 2)))  # [B,h,Nq,Nk]
    weights = softmax(scores, axis=-1)
    return _merge_heads(T.matmul(weights, vh))


class CrossAttention(Module):
    """Bi-directional cross-attention between two token streams.

    One direction queries the spatial stream against spectral keys/values,
    the other queries the spectral stream against spatial keys/values.
    Exactly eight affine maps: six d->d projections plus two d->d output
    maps, so the parameter count is 8(d^2 + d).
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"heads {heads} must divide dim {dim}")
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
        to_spatial = _attend(
            self.q_spatial(spatial_tokens),
            self.k_spectral(spectral_tokens),
            self.v_spectral(spectral_tokens),
            self.heads,
        )
        to_spectral = _attend(
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
        if dim % heads != 0:
            raise ValueError(f"heads {heads} must divide dim {dim}")
        self.dim = dim
        self.heads = heads
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)

    def __call__(self, tokens: Tensor) -> Tensor:
        ctx = _attend(self.q(tokens), self.k(tokens), self.v(tokens), self.heads)
        return self.out(ctx)
