"""The spectral/spatial cross-attention block, its exact parameter audit,
and a heavier single-stream transformer baseline used for speed/size
comparisons.

Input and output are [B, C, H, W, D] hypercube features (channel axis 1,
band axis last). The block runs two extraction paths (2D over the
band-mean, 3D over the full cube), tokenizes them (H*W spatial tokens, D
spectral tokens), exchanges information through bi-directional
cross-attention with residual/FFN branches, then projects both streams
back to C channels under a global residual. The paper's projection is a
1x1x1 convolution over both streams replicated to cube size and
concatenated; each half is constant along its replicated axes, so
StreamProjector computes it exactly as two token matmuls and a broadcast
add, one tape op that also adds the residual. A classifier only averages
the last block's output over H, W and D, and that mean is linear in every
input, so the block's `pool=True` form returns the [B,C] mean directly from
the input's mean and the pooled tokens, without building the cube.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .attention import CrossAttention, SelfAttention
from .nn import BatchNorm, Conv2D, Conv3D, LayerNorm, Linear, Module, _kaiming_uniform, dropout, silu
from .tensor import Parameter, Tensor


@dataclass(frozen=True)
class SpectralCAConfig:
    """Block hyperparameters. `channels` is the effective input channel
    count and `dim` the effective embedding width; every parameter count
    follows from these two."""

    channels: int
    dim: int
    heads: int = 4
    dropout_rate: float = 0.1

    def __post_init__(self):
        if min(self.channels, self.dim) < 1:
            raise ValueError(f"channels {self.channels} and dim {self.dim} must be >= 1")
        if self.heads < 1 or self.dim % self.heads != 0:
            raise ValueError(f"heads {self.heads} must be positive and divide dim {self.dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate {self.dropout_rate} outside [0, 1)")


# The two published configurations. Their labels elsewhere use half the
# effective channel count; the (channels, dim) values here are the ones
# the published per-component counts are consistent with.
CFG32 = SpectralCAConfig(channels=64, dim=96, heads=4)
CFG64 = SpectralCAConfig(channels=128, dim=120, heads=4)
PRESETS = {"cfg32": CFG32, "cfg64": CFG64}


class FeedForward(Module):
    """Linear(d -> 2d), SiLU, Dropout, Linear(2d -> d)."""

    def __init__(self, dim: int, dropout_rate: float, rng: np.random.Generator):
        super().__init__()
        self.dropout_rate = dropout_rate
        self.widen = Linear(dim, 2 * dim, rng)
        self.narrow = Linear(2 * dim, dim, rng)

    def __call__(self, x: Tensor, training: bool, rng=None) -> Tensor:
        h = dropout(silu(self.widen(x)), self.dropout_rate, training, rng)
        return self.narrow(h)


def _check_input(x: Tensor, channels: int) -> None:
    if x.ndim != 5 or x.shape[1] != channels:
        raise T.ShapeError(f"expected [B,{channels},H,W,D], got {x.shape}")


class StreamProjector(Module):
    """x + projector(concat(spatial over D, spectral over H,W)), the paper's
    1x1x1 projection of both streams under the block's global residual.
    With the weight [c,2d,1,1,1] split into W_s and W_p [c,d], it is
    x + W_s s broadcast over D + (W_p p + b) broadcast over H,W, for x
    [B,c,H,W,D], spatial tokens s [B,H*W,d] and spectral tokens p [B,D,d].

    Calling it records this as one `project_streams` op. `pooled` records
    its mean over H, W and D as one `project_pooled` op, computed from the
    caller's mean of x and the means of s and p, so the [B,c,H,W,D] output
    is never built."""

    def __init__(self, dim: int, channels: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(_kaiming_uniform(rng, (channels, 2 * dim, 1, 1, 1), 2 * dim))
        self.bias = Parameter(np.zeros(channels, dtype=np.float32))

    def _split(self) -> tuple[np.ndarray, np.ndarray]:
        """(W_s, W_p): the weight's halves for the spatial and the spectral
        tokens, [c,d] each."""
        c, two_d = self.weight.shape[:2]
        wmat = self.weight.data.reshape(c, two_d)
        return wmat[:, :two_d // 2], wmat[:, two_d // 2:]

    def __call__(self, x: Tensor, spatial: Tensor, spectral: Tensor) -> Tensor:
        b, c, hh, ww, dd = x.shape
        weight, bias = self.weight, self.bias
        w_s, w_p = self._split()
        sd, pd = spatial.data, spectral.data
        ys = (sd @ w_s.T).transpose(0, 2, 1).reshape(b, c, hh, ww, 1)
        yp = (pd @ w_p.T + bias.data).transpose(0, 2, 1).reshape(b, c, 1, 1, dd)
        out = x.data + ys
        out += yp

        def backward(g):
            g_s = g.sum(axis=4).reshape(b, c, hh * ww)  # [B,c,H*W]
            g_p = g.sum(axis=(2, 3))  # [B,c,D]
            gw = np.concatenate((np.tensordot(g_s, sd, axes=([0, 2], [0, 1])),
                                 np.tensordot(g_p, pd, axes=([0, 2], [0, 1]))), axis=1)
            return (g, g_s.transpose(0, 2, 1) @ w_s, g_p.transpose(0, 2, 1) @ w_p,
                    gw.reshape(weight.shape), g_p.sum(axis=(0, 2)))

        return T.record_op("project_streams", (x, spatial, spectral, weight, bias),
                           out, backward)

    def pooled(self, x_mean: Tensor, spatial: Tensor, spectral: Tensor) -> Tensor:
        """The mean of self(x, spatial, spectral) over H, W and D, [B,c],
        from x_mean = mean_HWD(x), [B,c]: x_mean + mean_HW(s) W_s^T +
        mean_D(p) W_p^T + b. Backward hands g itself to x_mean and spreads
        g/(H*W) W_s over the spatial tokens and g/D W_p over the spectral
        tokens, each into a new C-contiguous array that the tape adopts
        rather than copies."""
        s_shape, p_shape = spatial.shape, spectral.shape
        weight, bias = self.weight, self.bias
        w_s, w_p = self._split()
        s_mean, p_mean = spatial.data.mean(axis=1), spectral.data.mean(axis=1)  # [B,d]
        # a matrix-vector product per sample, as in Linear: no row depends
        # on the batch around it
        out = (x_mean.data + (s_mean[:, None] @ w_s.T)[:, 0]
               + (p_mean[:, None] @ w_p.T)[:, 0] + bias.data)

        def backward(g):
            gs = np.empty(s_shape, g.dtype)
            gs[...] = ((g / s_shape[1]) @ w_s)[:, None, :]
            gp = np.empty(p_shape, g.dtype)
            gp[...] = ((g / p_shape[1]) @ w_p)[:, None, :]
            gw = np.concatenate((g.T @ s_mean, g.T @ p_mean), axis=1)
            return g, gs, gp, gw.reshape(weight.shape), g.sum(axis=0)

        return T.record_op("project_pooled", (x_mean, spatial, spectral, weight, bias),
                           out, backward)


class SpectralCABlock(Module):
    def __init__(self, config: SpectralCAConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        c, d = config.channels, config.dim
        self.spatial_conv = Conv2D(c, d, rng)
        self.spatial_bn = BatchNorm(d, "silu")
        self.spectral_conv = Conv3D(c, d, 3, rng)
        self.spectral_bn = BatchNorm(d, "silu")
        self.cross = CrossAttention(d, config.heads, rng)
        self.spatial_token_norm = LayerNorm(d)
        self.spectral_token_norm = LayerNorm(d)
        self.spatial_ffn_norm = LayerNorm(d)
        self.spectral_ffn_norm = LayerNorm(d)
        self.spatial_ffn = FeedForward(d, config.dropout_rate, rng)
        self.spectral_ffn = FeedForward(d, config.dropout_rate, rng)
        self.projector = StreamProjector(d, c, rng)  # drawn last: fixes fresh SCK1 bytes

    def spatial_path(self, x: Tensor, training: bool) -> Tensor:
        """Band-mean -> Conv2D -> BN -> SiLU -> H*W tokens -> LayerNorm."""
        _check_input(x, self.config.channels)
        return self._spatial_tokens(T.mean_axis(x, 4), training)

    def _spatial_tokens(self, flat: Tensor, training: bool) -> Tensor:
        """The spatial path after its band-mean flat [B,C,H,W]."""
        b, _, hh, ww = flat.shape
        feat = self.spatial_conv(flat, self.spatial_bn, training)
        tokens = T.transpose(T.reshape(feat, (b, self.config.dim, hh * ww)), (0, 2, 1))
        return self.spatial_token_norm(tokens)  # [B, H*W, d]

    def spectral_path(self, x: Tensor, training: bool) -> Tensor:
        """Conv3D -> BN -> SiLU -> average over H,W -> D tokens -> LayerNorm.

        The conv module runs the first four steps, and the BN op averages
        its output a batch chunk at a time, so the [B,d,H,W,D] BN output is
        never built. An eval forward with no active tape records nothing,
        and each of the BN op's jobs reads one chunk of the conv, so the
        conv output is not built either; training, and eval under a tape,
        record the conv on the whole batch."""
        _check_input(x, self.config.channels)
        pooled = self.spectral_conv(x, self.spectral_bn, training, pool=(2, 3))  # [B,d,D]
        return self.spectral_token_norm(T.transpose(pooled, (0, 2, 1)))  # [B,D,d]

    def __call__(self, x: Tensor, training: bool = False, rng=None,
                 pool: bool = False) -> Tensor:
        """The block's [B,C,H,W,D] output for x [B,C,H,W,D]; with `pool`,
        its mean over H, W and D, [B,C], from StreamProjector.pooled, which
        never builds the cube. The pool form also records the mean of x."""
        rate = self.config.dropout_rate
        _check_input(x, self.config.channels)  # before any work is done
        flat = T.mean_axis(x, 4)  # the spatial path's band-mean, [B,C,H,W]
        spatial = self._spatial_tokens(flat, training)
        # x's mean over H, W and D is flat's over H and W, which reads and
        # backpropagates 1/D of x's bytes. Backward replays newest first, so
        # the spectral conv's gradient is the first to reach x and is
        # adopted; the band-mean's broadcast gradient, which carries this
        # mean's, then adds into it in place
        x_mean = T.mean_axis(flat, (2, 3)) if pool else None
        del flat  # an eval forward holds it nowhere else
        spectral = self.spectral_path(x, training)
        att1, att2 = self.cross(spatial, spectral)

        spatial = T.add(spatial, dropout(att1, rate, training, rng))
        spatial = T.add(spatial, self.spatial_ffn(self.spatial_ffn_norm(spatial), training, rng))
        spectral = T.add(spectral, dropout(att2, rate, training, rng))
        spectral = T.add(spectral, self.spectral_ffn(self.spectral_ffn_norm(spectral), training, rng))

        if pool:
            return self.projector.pooled(x_mean, spatial, spectral)
        return self.projector(x, spatial, spectral)


class BaselineViTBlock(Module):
    """Single-stream comparison block: local 3x3x3 conv, pointwise embed,
    one pre-norm self-attention transformer layer over all H*W*D
    positions, pointwise restore, and a 3x3x3 fusion convolution over the
    concatenated local/transformed features as the final projection,
    under a global residual. Shape-preserving, and heavier than the
    cross-attention block at matched (channels, dim)."""

    def __init__(self, config: SpectralCAConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        c, d = config.channels, config.dim
        self.local_conv = Conv3D(c, c, 3, rng)
        self.embed = Conv3D(c, d, 1, rng)
        self.attn_norm = LayerNorm(d)
        self.attn = SelfAttention(d, config.heads, rng)
        self.ffn_norm = LayerNorm(d)
        self.ffn = FeedForward(d, config.dropout_rate, rng)
        self.unembed = Conv3D(d, c, 1, rng)
        self.fusion = Conv3D(2 * c, c, 3, rng)

    def __call__(self, x: Tensor, training: bool = False, rng=None) -> Tensor:
        _check_input(x, self.config.channels)
        b, c, hh, ww, dd = x.shape
        d = self.config.dim
        local = silu(self.local_conv(x))
        emb = self.embed(local)  # [B,d,H,W,D]
        tokens = T.transpose(T.reshape(emb, (b, d, hh * ww * dd)), (0, 2, 1))
        tokens = T.add(tokens, self.attn(self.attn_norm(tokens)))
        tokens = T.add(tokens, self.ffn(self.ffn_norm(tokens), training, rng))
        folded = T.reshape(T.transpose(tokens, (0, 2, 1)), (b, d, hh, ww, dd))
        restored = self.unembed(folded)
        fused = self.fusion(T.concat_channels(local, restored))
        return T.add(fused, x)


# ---------------------------------------------------------------------------
# parameter audit


class AuditMismatchError(RuntimeError):
    """Closed-form and enumerated parameter counts disagree."""


@dataclass
class AuditTable:
    """Component -> trainable parameter count, in published row order."""

    config: SpectralCAConfig
    rows: list[tuple[str, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(count for _, count in self.rows)

    def as_dict(self) -> dict:
        return {
            "channels": self.config.channels,
            "dim": self.config.dim,
            "rows": {name: count for name, count in self.rows},
            "total": self.total,
        }

    def __str__(self) -> str:
        width = max(len(name) for name, _ in self.rows)
        lines = [f"{name:<{width}}  {count:>9,}" for name, count in self.rows]
        lines.append(f"{'total':<{width}}  {self.total:>9,}")
        return "\n".join(lines)


def closed_form_counts(config: SpectralCAConfig) -> dict[str, int]:
    c, d = config.channels, config.dim
    return {
        "spatial_conv_block": 9 * c * d + 3 * d,
        "spectral_conv_block": 27 * c * d + 3 * d,
        "cross_attention": 8 * (d * d + d),
        "layernorms": 8 * d,
        "ffn_spatial": 4 * d * d + 3 * d,
        "ffn_spectral": 4 * d * d + 3 * d,
        "projector": 2 * d * c + c,
    }


def _enumerated_counts(block: SpectralCABlock) -> dict[str, int]:
    return {
        "spatial_conv_block": block.spatial_conv.param_count() + block.spatial_bn.param_count(),
        "spectral_conv_block": block.spectral_conv.param_count() + block.spectral_bn.param_count(),
        "cross_attention": block.cross.param_count(),
        "layernorms": (
            block.spatial_token_norm.param_count()
            + block.spectral_token_norm.param_count()
            + block.spatial_ffn_norm.param_count()
            + block.spectral_ffn_norm.param_count()
        ),
        "ffn_spatial": block.spatial_ffn.param_count(),
        "ffn_spectral": block.spectral_ffn.param_count(),
        "projector": block.projector.param_count(),
    }


def param_audit(config: SpectralCAConfig) -> AuditTable:
    """Per-component trainable parameter counts for a block built from
    `config`, cross-checked: the closed-form expressions and an element
    enumeration over every allocated Parameter must agree exactly."""
    closed = closed_form_counts(config)
    block = SpectralCABlock(config, rng=np.random.default_rng(0))
    enumerated = _enumerated_counts(block)
    for name, expected in closed.items():
        if enumerated[name] != expected:
            raise AuditMismatchError(
                f"{name}: closed form {expected} != enumerated {enumerated[name]}"
            )
    registry_total = block.param_count()
    if registry_total != sum(closed.values()):
        raise AuditMismatchError(
            f"registry total {registry_total} != component sum {sum(closed.values())}"
        )
    return AuditTable(config=config, rows=list(closed.items()))
