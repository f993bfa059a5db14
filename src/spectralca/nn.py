"""Neural primitives with forward and backward rules.

Layers are Modules owning Parameters; functional ops (silu, relu, softmax,
dropout, cross_entropy) live alongside. Convolutions are same-padded
cross-correlations (no kernel flip), stride 1, lowered by partial im2col:
the batch is split into chunks whose buffers fit in cache; each chunk
gathers the kernel taps over all spatial axes but the last, and the k taps
along the last axis are k BLAS matmuls on shifted views of those columns.
The input gradient is the same lowering applied with the flipped kernel.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    record_op,
)


class Module:
    """Base class with an ordered registry of parameters, buffers, children."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        """Yield (dotted path, Parameter); stamps each parameter's name."""
        for name, p in self._params.items():
            path = f"{prefix}{name}"
            p.name = path
            yield path, p
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield f"{prefix}{name}", b
        for name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def param_count(self) -> int:
        """Number of trainable scalar entries."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype) -> "Module":
        """Convert parameters and buffers in place (64-bit mode is for grad checks)."""
        for _, p in self.named_parameters():
            p.data = p.data.astype(dtype)
            p.grad = np.zeros_like(p.data)
        for m in self._iter_modules():
            for name, b in m._buffers.items():
                m.register_buffer(name, b.astype(dtype))
        return self

    def _iter_modules(self):
        yield self
        for child in self._modules.values():
            yield from child._iter_modules()


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# convolution kernels (shared by the 2D and 3D layers)
#
# Partial im2col (MEC, Cho & Brand 2017): the columns gather every tap over
# the leading spatial axes and keep the last axis whole and zero-padded, so
# the last-axis taps are k GEMMs on column-shifted views of one buffer.
# Column rows are ordered tap-major (row = leading_tap * C + c) and each
# last-axis tap's weight matrix is permuted to match. Forward can retain the
# column buffers so the backward weight gradient skips the re-gather.

# Bytes of columns plus GEMM accumulator per batch chunk, sized to cache
# rather than to a memory ceiling: a chunk's columns are still cached when
# the shifted GEMMs read them, the accumulator when the taps add into it,
# and the transient buffers stop growing with the batch. Swept from 5e5 to
# 8e7 (2-core Xeon, 2 MB L2 per core, one BLAS thread, CFG32 on 9x9x32
# patches, 8 interleaved reps): 1e6, 2.5e6 and 5e6 were within noise of
# each other and ran eval forward at batch 64 17% and a batch-32 training
# step 8% faster than 2e7. At 2.5e6 the block's spectral conv (6.3 MB of
# float32 columns and 1.1 MB of accumulator per sample) and the projector
# run one sample per chunk, the stem three and the 2D conv 24.
_COLS_BUDGET_BYTES = 2.5e6


def _conv_geometry(xd: np.ndarray, wd: np.ndarray):
    spatial = xd.shape[2:]
    o, c, k = wd.shape[:3]
    pad = (k - 1) // 2
    ncols = int(np.prod(spatial[:-1])) * (spatial[-1] + 2 * pad)
    per_sample = (c * k ** (len(spatial) - 1) + o) * ncols * xd.itemsize
    chunk = max(1, int(_COLS_BUDGET_BYTES // per_sample))
    return spatial, k, pad, chunk


def _tap_weights(wd: np.ndarray) -> np.ndarray:
    """[O,C,*K] -> contiguous [k, O, k^(d-1) * C]: one weight matrix per
    last-axis tap, its columns in the row order of the columns."""
    o, c, k = wd.shape[:3]
    return np.ascontiguousarray(
        wd.reshape(o, c, -1, k).transpose(3, 0, 2, 1).reshape(k, o, -1)
    )


def _gather_columns(x_chunk: np.ndarray, k: int, pad: int, spatial) -> np.ndarray:
    """[n,C,*S] -> [k^(d-1) * C, n * prod(S[:-1]) * (S[-1]+2p)] columns:
    every tap over the leading axes, the last axis whole and padded."""
    n, c = x_chunk.shape[:2]
    if k == 1:
        return np.ascontiguousarray(np.swapaxes(x_chunk, 0, 1)).reshape(c, -1)
    xpt = np.zeros((c, n) + tuple(e + 2 * pad for e in spatial), dtype=x_chunk.dtype)
    xpt[(slice(None), slice(None)) + tuple(slice(pad, pad + e) for e in spatial)] = \
        np.swapaxes(x_chunk, 0, 1)
    lead = spatial[:-1]
    view = (c, n) + lead + xpt.shape[-1:]
    cols = np.empty((k ** len(lead) * c, int(np.prod(view[1:]))), dtype=x_chunk.dtype)
    for t, offs in enumerate(product(range(k), repeat=len(lead))):
        window = (slice(None), slice(None)) + tuple(
            slice(off, off + ext) for off, ext in zip(offs, lead)
        )
        # each tap's rows are contiguous, so the reshape is a view and the
        # strided window is copied once, straight into place
        cols[t * c:(t + 1) * c].reshape(view)[...] = xpt[window]
    return cols


def _conv_forward(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray,
                  keep_cols: bool = False):
    """Same-padded cross-correlation. xd [B,C,*S], wd [O,C,*K], bd [O].

    Returns (out, cols_cache); cols_cache is a per-chunk list when
    keep_cols is set, else None.
    """
    spatial, k, pad, chunk = _conv_geometry(xd, wd)
    b = xd.shape[0]
    o = wd.shape[0]
    wstack = _tap_weights(wd)
    out = np.empty((b, o) + spatial, dtype=xd.dtype)
    cache = [] if keep_cols else None
    for start in range(0, b, chunk):
        piece = xd[start:start + chunk]
        n = piece.shape[0]
        cols = _gather_columns(piece, k, pad, spatial)
        # column j + e holds last-axis tap e of output column j; the last
        # k-1 columns fall in the padding and are never computed
        m = cols.shape[1] - (k - 1)
        acc = np.empty((o, cols.shape[1]), dtype=out.dtype)
        np.matmul(wstack[0], cols[:, :m], out=acc[:, :m])
        tap = np.empty((o, m), dtype=out.dtype)
        for e in range(1, k):
            acc[:, :m] += np.matmul(wstack[e], cols[:, e:e + m], out=tap)
        acc = acc.reshape((o, n) + spatial[:-1] + (-1,))[..., :spatial[-1]]
        out[start:start + n] = np.swapaxes(acc, 0, 1)
        if keep_cols:
            cache.append(cols)
    out += bd.reshape((1, o) + (1,) * len(spatial))
    return out, cache


def _conv_backward(g: np.ndarray, xd: np.ndarray, wd: np.ndarray,
                   cols_cache=None, need_gx: bool = True):
    """Gradients of _conv_forward wrt input (None unless need_gx), weight
    and bias. The weight gradient works chunk by chunk like the forward; the
    input gradient is the forward with the flipped, channel-swapped kernel.
    """
    spatial, k, pad, chunk = _conv_geometry(xd, wd)
    b, c = xd.shape[:2]
    o = wd.shape[0]
    gw_t = np.zeros((k, c * k ** (len(spatial) - 1), o), dtype=wd.dtype)
    padded = spatial[:-1] + (spatial[-1] + 2 * pad,)
    for ci, start in enumerate(range(0, b, chunk)):
        n = min(chunk, b - start)
        if cols_cache is not None:
            cols = cols_cache[ci]
        else:
            cols = _gather_columns(xd[start:start + n], k, pad, spatial)
        m = cols.shape[1] - (k - 1)
        # g in the padded column order, zero where no output was computed
        gp = np.zeros((o, n) + padded, dtype=g.dtype)
        gp[..., :spatial[-1]] = np.swapaxes(g[start:start + n], 0, 1)
        gp = gp.reshape(o, -1)[:, :m]
        # transposed per-tap gradients: [rows, O] outputs ran faster than
        # [O, rows] ones for the spectral conv's weight gradient
        for e in range(k):
            gw_t[e] += cols[:, e:e + m] @ gp.T
    gw = gw_t.reshape(k, -1, c, o).transpose(3, 2, 1, 0).reshape(wd.shape)
    gb = g.sum(axis=(0,) + tuple(range(2, g.ndim)))
    gx = None
    if need_gx:
        flipped = np.flip(wd, axis=tuple(range(2, wd.ndim))).swapaxes(0, 1)
        gx = _conv_forward(g, flipped, np.zeros(c, dtype=g.dtype))[0]
    return gx, gw, gb


def _conv_op(opname: str, x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    from .tensor import active_tape

    keep = active_tape() is not None
    out, cache = _conv_forward(x.data, weight.data, bias.data, keep_cols=keep)
    xd, wd, need_gx = x.data, weight.data, x.requires_grad

    def backward(g):
        return _conv_backward(g, xd, wd, cache, need_gx)

    return record_op(opname, (x, weight, bias), out, backward)


class Conv2D(Module):
    """3x3 convolution, stride 1, zero padding 1: spatial extents are preserved."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        fan_in = in_channels * 9
        self.weight = Parameter(_kaiming_uniform(rng, (out_channels, in_channels, 3, 3), fan_in, dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv2d expects [B,{self.in_channels},H,W], got {x.shape}"
            )
        return _conv_op("conv2d", x, self.weight, self.bias)


class Conv3D(Module):
    """kxkxk convolution (k in {1,3}), stride 1, same padding on H, W and the band axis."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, dtype=np.float32):
        super().__init__()
        if kernel not in (1, 3):
            raise ValueError(f"kernel {kernel} unsupported (use 1 or 3)")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        fan_in = in_channels * kernel ** 3
        shape = (out_channels, in_channels, kernel, kernel, kernel)
        self.weight = Parameter(_kaiming_uniform(rng, shape, fan_in, dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv3d expects [B,{self.in_channels},H,W,D], got {x.shape}"
            )
        return _conv_op("conv3d", x, self.weight, self.bias)


class BatchNorm(Module):
    """Per-channel normalization over all non-channel axes (channel axis 1).

    Training mode normalizes with the batch's population statistics and
    updates the running estimates; eval mode uses the running estimates.
    gamma/beta are the only trainable entries.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float32):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels, dtype=dtype))
        self.beta = Parameter(np.zeros(channels, dtype=dtype))
        self.register_buffer("running_mean", np.zeros(channels, dtype=dtype))
        self.register_buffer("running_var", np.ones(channels, dtype=dtype))

    def __call__(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects channel extent {self.channels}, got {x.shape}")
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, self.channels) + (1,) * (x.ndim - 2)
        if training:
            count = x.size // self.channels
            if count <= 1:
                raise ShapeError("batchnorm training needs > 1 statistic element per channel")
            mu = x.data.mean(axis=axes)
            var = x.data.var(axis=axes)
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mu.astype(self.running_mean.dtype)
            self.running_var *= 1.0 - m
            self.running_var += m * var.astype(self.running_var.dtype)
        else:
            mu = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        # fused per-channel affine: out = x*scale + shift
        scale = (self.gamma.data * inv).astype(x.dtype)
        shift = (self.beta.data - mu * scale).astype(x.dtype)
        out = x.data * scale.reshape(bshape)
        out += shift.reshape(bshape)
        gamma, beta = self.gamma, self.beta
        xd = x.data
        n = x.size // self.channels

        if training:

            def backward(g):
                xhat = (xd - mu.reshape(bshape)) * inv.reshape(bshape)
                gg = (g * xhat).sum(axis=axes)
                gb = g.sum(axis=axes)
                gxh = g * gamma.data.reshape(bshape)
                term = (
                    gxh
                    - gxh.mean(axis=axes, keepdims=True)
                    - xhat * (gxh * xhat).sum(axis=axes, keepdims=True) / n
                )
                gx = term * inv.reshape(bshape)
                return gx, gg, gb

        else:

            def backward(g):
                xhat = (xd - mu.reshape(bshape)) * inv.reshape(bshape)
                gg = (g * xhat).sum(axis=axes)
                gb = g.sum(axis=axes)
                gx = g * (gamma.data * inv).reshape(bshape)
                return gx, gg, gb

        return record_op("batchnorm", (x, gamma, beta), out, backward)


class LayerNorm(Module):
    """Normalization over the last (embedding) axis with population variance."""

    def __init__(self, dim: int, eps: float = 1e-5, dtype=np.float32):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=dtype))
        self.beta = Parameter(np.zeros(dim, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"layernorm expects last extent {self.dim}, got {x.shape}")
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x.data - mu) * inv
        out = self.gamma.data * xhat + self.beta.data
        gamma, beta = self.gamma, self.beta
        d = self.dim

        def backward(g):
            gg = (g * xhat).reshape(-1, d).sum(axis=0)
            gb = g.reshape(-1, d).sum(axis=0)
            gxh = g * gamma.data
            gx = inv * (
                gxh
                - gxh.mean(axis=-1, keepdims=True)
                - xhat * (gxh * xhat).mean(axis=-1, keepdims=True)
            )
            return gx, gg, gb

        return record_op("layernorm", (x, gamma, beta), out, backward)


class Linear(Module):
    """Affine map over the last axis: y = x W^T + b."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(rng, (out_features, in_features), in_features, dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ShapeError(f"linear expects last extent {self.in_features}, got {x.shape}")
        out = x.data @ self.weight.data.T + self.bias.data
        xd, w, b = x.data, self.weight, self.bias
        k = self.in_features

        def backward(g):
            gx = g @ w.data
            g2 = g.reshape(-1, g.shape[-1])
            gw = g2.T @ xd.reshape(-1, k)
            gb = g2.sum(axis=0)
            return gx, gw, gb

        return record_op("linear", (x, w, b), out, backward)


# ---------------------------------------------------------------------------
# functional ops


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise."""
    # sigmoid via tanh: stable for any magnitude, single vectorized pass
    sig = np.tanh(x.data * 0.5)
    sig += 1.0
    sig *= 0.5
    out = x.data * sig

    def backward(g):
        return (g * sig * (1.0 + x.data * (1.0 - sig)),)

    return record_op("silu", (x,), out, backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)
    mask = x.data > 0.0

    def backward(g):
        return (g * mask,)

    return record_op("relu", (x,), out, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted exponentials normalized along `axis`."""
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return record_op("softmax", (x,), out, backward)


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Zero each element with probability `rate`, scaling survivors by 1/(1-rate).

    Identity when not training or rate == 0 (the input tensor is returned
    unchanged, so the tape stays connected at no cost).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs a seeded rng")
    keep = 1.0 - rate
    mask = (rng.random(x.shape) >= rate).astype(x.dtype) / keep
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return record_op("dropout", (x,), out, backward)


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [B, num_classes], got {logits.shape}")
    labels = np.asarray(labels)
    b, k = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label index outside [0, num_classes)")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(b), labels]
    out = np.asarray((lse - picked).mean(), dtype=logits.dtype)
    probs = np.exp(z - lse[:, None])

    def backward(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        gl *= g / b
        return (gl.astype(logits.dtype),)

    return record_op("cross_entropy", (logits,), out, backward)
