"""Neural primitives with forward and backward rules.

Layers are Modules owning Parameters; functional ops (silu, dropout,
cross_entropy) live alongside, and softmax_inplace is a numpy helper that
records nothing. Every layer is built in float32; ``Module.astype(np.float64)``
converts a built model for gradient checks.
BatchNorm and the activation after it (ReLU or SiLU) are one op, the only
place ReLU exists. That op and silu retain only their input; backward
recomputes the rest, SiLU's derivative always by _silu_slope. When the
BatchNorm's input is a conv over an input that takes no gradient (the
stem's, over the patches), it retains not even that: its backward
regenerates each batch chunk of the conv's output from the conv's input
(In-Place ABN's trade of recompute for memory, arXiv:1712.02616). Dropout
retains a boolean keep-mask.

Every chunked loop, here and in attention, slices its items with _chunks
under the one byte budget _CHUNK_BYTES, sized to cache. BatchNorm's
statistics and sigmoid, forward and backward, are taken a batch chunk at a
time, so its temporaries are chunk-sized. Convolutions are same-padded
cross-correlations (no kernel flip), stride 1, lowered by partial im2col:
the batch is split into chunks whose buffers fit the budget, and each
chunk's buffers are freed before the next chunk is gathered; each chunk
gathers the kernel taps over all spatial axes but the last, and the k taps
along the last axis are k BLAS matmuls on shifted views of those columns.
Backward keeps nothing of the forward but its input: the weight gradient
gathers the columns again, chunk by chunk, and the input gradient is the
same lowering applied with the flipped kernel.

A conv module called with the BatchNorm that follows it (and, for the
spectral path, the axes to average over) hands the BatchNorm op a source
that computes the conv over a batch slice. In an eval forward with no
active tape the conv records nothing and builds no output: the op reads
each conv chunk from the source while it is in cache, so neither full
output is built. Training, and eval under a tape, record the conv once over
the whole batch. Either way BatchNorm, the activation and the mean have one
implementation each: the BatchNorm op pools its activation a chunk at a
time when given the axes.

Training holds one full-size gradient per activation where it can: the
BatchNorm op's backward writes over its upstream gradient, or with pool
over its input, the conv's output (into a new array when that output is
regenerated rather than kept); a conv's input gradient overwrites the
front of its output gradient when the conv has no more input channels.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    _ensure_finite,
    active_tape,
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

    def named_modules(self, prefix: str = ""):
        """Pre-order walk of the module tree: (dotted path prefix, module),
        the prefix "" for this module and "<path>." for each descendant."""
        yield prefix, self
        for name, child in self._modules.items():
            yield from child.named_modules(f"{prefix}{name}.")

    def named_parameters(self):
        """Yield (dotted path, Parameter); stamps each parameter's name."""
        for prefix, m in self.named_modules():
            for name, p in m._params.items():
                p.name = f"{prefix}{name}"
                yield p.name, p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self):
        for prefix, m in self.named_modules():
            for name, b in m._buffers.items():
                yield f"{prefix}{name}", b

    def param_count(self) -> int:
        """Number of trainable scalar entries."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def astype(self, dtype) -> "Module":
        """Convert parameters and buffers in place. Layers are built in
        float32; this is the one way to a float64 model (for grad checks)."""
        for _, m in self.named_modules():
            for p in m._params.values():
                p.data = p.data.astype(dtype)
                p.grad = np.zeros_like(p.data)
            for name, b in m._buffers.items():
                m.register_buffer(name, b.astype(dtype))
        return self


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


# ---------------------------------------------------------------------------
# chunking
#
# Every chunked loop cuts its items into slices of about _CHUNK_BYTES: a
# conv's batch by the bytes of one sample's columns plus GEMM accumulator,
# BatchNorm's batch (training variance, SiLU, backward) by one sample's
# input, attention's queries by one query row's [B, 1, Nk] scores. The
# budget is sized to cache rather than to a memory ceiling: a chunk is
# still cached when the next pass over it reads it, and the temporaries
# stop growing with the batch. Each loop was swept on its own (2-core Xeon,
# 2 MB L2 per core, one BLAS thread, CFG32 on 9x9x32 patches) and 1e6 is
# at, or within noise of, the best value for each: conv, 1e6 to 5e6 within
# noise of each other, eval forward at batch 64 17% and a batch-32 training
# step 8% faster than 2e7; BatchNorm, one sample per chunk ran the spectral
# backward in 81-114 ms of a training step, two samples in 108-118 ms and
# the whole batch in 139-198 ms; attention, the baseline's batch-2 eval
# forward within noise from 1e6 to 1e7 and slower at 5e5 and 4e7. At 1e6
# the stem, the spectral conv and the spectral BN run one sample per chunk,
# the 2D conv 8 samples, and each CFG32 cross-attention one query block.
_CHUNK_BYTES = 1e6


def _chunks(n: int, item_bytes: float) -> list[slice]:
    """Slices covering range(n), each of at least one item and otherwise of
    at most _CHUNK_BYTES of items of item_bytes each."""
    step = max(1, int(_CHUNK_BYTES // max(item_bytes, 1)))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


# ---------------------------------------------------------------------------
# convolution kernels (shared by the 2D and 3D layers)
#
# Partial im2col (MEC, Cho & Brand 2017): the columns gather every tap over
# the leading spatial axes and keep the last axis whole and zero-padded, so
# the last-axis taps are k GEMMs on column-shifted views of one buffer.
# Column rows are ordered tap-major (row = leading_tap * C + c) and each
# last-axis tap's weight matrix is permuted to match. The weight gradient
# gathers each chunk's columns again rather than keep them from forward
# (202 MB for the spectral conv at batch 32; forward plus backward took
# 1.31-1.40 s kept and 1.24-1.45 s re-gathered, 2-core Xeon, one thread).

def _conv_geometry(xd: np.ndarray, wd: np.ndarray):
    """(spatial, k, pad, parts): the batch slices are sized by the bytes of
    one sample's columns plus its GEMM accumulator."""
    spatial = xd.shape[2:]
    o, c, k = wd.shape[:3]
    pad = (k - 1) // 2
    ncols = int(np.prod(spatial[:-1])) * (spatial[-1] + 2 * pad)
    per_sample = (c * k ** (len(spatial) - 1) + o) * ncols * xd.itemsize
    return spatial, k, pad, _chunks(xd.shape[0], per_sample)


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
                  out: np.ndarray | None = None) -> np.ndarray:
    """Same-padded cross-correlation of xd [B,C,*S] with wd [O,C,*K] plus
    bd [O], one batch chunk at a time, written into `out` when given. A new
    [B,O,*S] output is allocated once the first chunk's columns are freed,
    so a call over one chunk never holds its columns and its output at once."""
    spatial, k, pad, parts = _conv_geometry(xd, wd)
    o = wd.shape[0]
    shape = (xd.shape[0], o) + spatial
    wstack = _tap_weights(wd)
    bias = bd.reshape((1, o) + (1,) * len(spatial))
    for part in parts:
        n = part.stop - part.start
        cols = _gather_columns(xd[part], k, pad, spatial)
        # column j + e holds last-axis tap e of output column j; the last
        # k-1 columns fall in the padding and are never computed
        m = cols.shape[1] - (k - 1)
        acc = np.empty((o, cols.shape[1]), dtype=xd.dtype)
        np.matmul(wstack[0], cols[:, :m], out=acc[:, :m])
        tap = np.empty((o, m), dtype=xd.dtype)
        for e in range(1, k):
            acc[:, :m] += np.matmul(wstack[e], cols[:, e:e + m], out=tap)
        del cols, tap
        if out is None:
            out = np.empty(shape, dtype=xd.dtype)
        acc = acc.reshape((o, n) + spatial[:-1] + (-1,))[..., :spatial[-1]]
        y = out[part]
        y[...] = np.swapaxes(acc, 0, 1)
        del acc
        y += bias
    return np.empty(shape, dtype=xd.dtype) if out is None else out  # None: no samples


def _conv_backward(g: np.ndarray, xd: np.ndarray, wd: np.ndarray,
                   need_gx: bool = True):
    """Gradients of _conv_forward wrt input (None unless need_gx), weight
    and bias. The weight gradient re-gathers the columns chunk by chunk like
    the forward; the input gradient is the forward with the flipped,
    channel-swapped kernel. With C <= O and a C-contiguous, writeable g, it
    is written over the front of g's buffer once the others are taken: each
    chunk's rows end before the next chunk's g starts.
    """
    spatial, k, pad, parts = _conv_geometry(xd, wd)
    c = xd.shape[1]
    o = wd.shape[0]
    rows = c * k ** (len(spatial) - 1)
    gw_t = np.zeros((k, rows, o), dtype=wd.dtype)
    padded = spatial[:-1] + (spatial[-1] + 2 * pad,)
    for part in parts:
        cols = _gather_columns(xd[part], k, pad, spatial)
        m = cols.shape[1] - (k - 1)
        # g in the padded column order, zero where no output was computed
        gp = np.zeros((o, part.stop - part.start) + padded, dtype=g.dtype)
        gp[..., :spatial[-1]] = np.swapaxes(g[part], 0, 1)
        gp = gp.reshape(o, -1)[:, :m]
        # per-tap gradients, the GEMM's output [rows, O] or [O, rows],
        # whichever has more rows: [rows, O] ran faster for the spectral
        # conv (576 rows, O = 96), [O, rows] for the stem (9 rows, O = 64)
        for e in range(k):
            if rows >= o:
                gw_t[e] += cols[:, e:e + m] @ gp.T
            else:
                gw_t[e] += (gp @ cols[:, e:e + m].T).T
        del cols, gp  # freed before the next chunk is gathered
    gw = gw_t.reshape(k, -1, c, o).transpose(3, 2, 1, 0).reshape(wd.shape)
    gb = g.sum(axis=(0,) + tuple(range(2, g.ndim)))
    gx = None
    if need_gx:
        flipped = np.flip(wd, axis=tuple(range(2, wd.ndim))).swapaxes(0, 1)
        in_place = c <= o and g.flags.c_contiguous and g.flags.writeable
        out = g.reshape(-1)[:xd.size].reshape(xd.shape) if in_place else None
        gx = _conv_forward(g, flipped, np.zeros(c, dtype=g.dtype), out)
    return gx, gw, gb


def _conv_op(opname: str, x: Tensor, weight: Parameter, bias: Parameter) -> Tensor:
    out = _conv_forward(x.data, weight.data, bias.data)
    xd, wd, need_gx = x.data, weight.data, x.requires_grad

    def backward(g):
        return _conv_backward(g, xd, wd, need_gx)

    return record_op(opname, (x, weight, bias), out, backward)


class _Conv(Module):
    """Convolution with a k^d kernel (k in {1,3}) over the d = spatial_dims
    trailing axes, stride 1, zero padding (k-1)/2: spatial extents are
    preserved. Conv2D and Conv3D fix d."""

    spatial_dims: int
    op: str  # the tape op's name
    axes: str  # the input's spatial axes, for shape errors

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator):
        super().__init__()
        if kernel not in (1, 3):
            raise ValueError(f"kernel {kernel} unsupported (use 1 or 3)")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        fan_in = in_channels * kernel ** self.spatial_dims
        shape = (out_channels, in_channels) + (kernel,) * self.spatial_dims
        self.weight = Parameter(_kaiming_uniform(rng, shape, fan_in))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32))

    def __call__(self, x: Tensor, bn: BatchNorm | None = None, training: bool = False,
                 pool: tuple[int, ...] | None = None) -> Tensor:
        """The convolution of x, then bn(., training, pool) when bn is
        given: its output, or with `pool` that output's mean over the pool
        axes. In an eval forward with no active tape nothing is recorded:
        bn reads each chunk of the conv from `regenerate`, the checked conv
        over a batch slice, and gets a zero-stride stand-in for the whole
        output. Otherwise the conv is recorded over the whole batch, and
        when x takes no gradient (the stem's patches) bn's backward
        regenerates the output, which is freed once bn's forward returns."""
        if x.ndim != 2 + self.spatial_dims or x.shape[1] != self.in_channels:
            raise ShapeError(f"{self.op} expects [B,{self.in_channels},{self.axes}], "
                             f"got {x.shape}")
        if pool is not None and bn is None:
            raise ValueError("pool needs the BatchNorm that computes the mean")
        if bn is None:
            return _conv_op(self.op, x, self.weight, self.bias)
        xd, wd, bd = x.data, self.weight.data, self.bias.data

        def regenerate(part):
            y = _conv_forward(xd[part], wd, bd)
            _ensure_finite(y, self.op, (x, self.weight, self.bias))
            return y

        if not training and active_tape() is None:
            shape = (len(xd), self.out_channels) + xd.shape[2:]
            return bn(Tensor(np.broadcast_to(xd.dtype.type(0), shape)), False, pool, regenerate)
        y = _conv_op(self.op, x, self.weight, self.bias)
        return bn(y, training, pool, None if x.requires_grad else regenerate)


class Conv2D(_Conv):
    """3x3 convolution over H and W of [B,C,H,W]."""

    spatial_dims = 2
    op = "conv2d"
    axes = "H,W"

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        super().__init__(in_channels, out_channels, 3, rng)


class Conv3D(_Conv):
    """kxkxk convolution over H, W and the band axis of [B,C,H,W,D]."""

    spatial_dims = 3
    op = "conv3d"
    axes = "H,W,D"


# every BatchNorm and LayerNorm adds NORM_EPS to the variance; BatchNorm's
# running estimates take BN_MOMENTUM of each training batch's statistics
NORM_EPS = 1e-5
BN_MOMENTUM = 0.1


class BatchNorm(Module):
    """Per-channel normalization over all non-channel axes (channel axis 1)
    and the activation after it, ReLU or SiLU, as one tape op; with `pool`
    axes it returns the activation's mean over them instead.

    Training mode normalizes with the batch's population statistics and
    updates the running estimates, once the output and the updated
    estimates are both checked finite; eval mode uses the running
    estimates, so it is the per-channel map act(x*scale + shift).
    gamma/beta are the only trainable entries.

    Besides its output, the forward allocates only batch-chunk
    temporaries, each chunk about _CHUNK_BYTES of input (at least one
    sample): the training variance sums squares of the centred input in
    float64, and the map, activation and pool run a chunk at a time. The op
    retains its pre-normalization input x and per-channel vectors. Given a
    `source`, a function of a batch slice that returns x.data[slice] anew
    (in _Conv, the conv itself), it retains the source instead of x, and
    eval mode reads every chunk of x from it, so x serves only for its
    shape and dtype and may be a zero-stride view.
    Backward recomputes z = x*scale + shift and the activation's
    derivative gz = g * act'(z), then applies the normalization's gradient
    in per-channel coefficient form, gx = scale*gz + b*(x - mu) + c, in two
    passes over the batch chunks, so its temporaries are chunk-sized; with
    a source, each pass regenerates each chunk of x. It overwrites g with
    gz and then gx; with `pool`, g is the pooled gradient, the second pass
    recomputes gz, and gx overwrites x when x is a recorded op's output
    that the caller holds nowhere else (the conv's output, in _Conv), and
    otherwise, a leaf or with a source, goes into a new array. The sum of
    gz*(x - mu) is taken over centred x, so a large channel mean does not
    cancel.
    """

    def __init__(self, channels: int, activation: str):
        super().__init__()
        if activation not in ("relu", "silu"):
            raise ValueError(f"activation {activation!r} unsupported (use relu or silu)")
        self.channels = channels
        self.activation = activation
        self.gamma = Parameter(np.ones(channels, dtype=np.float32))
        self.beta = Parameter(np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def __call__(self, x: Tensor, training: bool, pool: tuple[int, ...] | None = None,
                 source: Callable[[slice], np.ndarray] | None = None) -> Tensor:
        if x.ndim < 2 or x.shape[1] != self.channels:
            raise ShapeError(f"batchnorm expects channel extent {self.channels}, got {x.shape}")
        axes = (0,) + tuple(range(2, x.ndim))
        bshape = (1, self.channels) + (1,) * (x.ndim - 2)
        n = x.size // self.channels
        xd, activation = x.data, self.activation
        shape, dtype = xd.shape, xd.dtype
        chunks = _chunks(len(xd), xd[:1].nbytes)
        # eval and backward read x from x itself or from source; with pool,
        # backward writes gx over x only when x is a recorded op's output
        # that it reads (the conv's, in _Conv), never over a leaf's data
        rows = source or xd.__getitem__
        spare = xd if source is None and x.cell is not None else None
        if training:
            if n <= 1:
                raise ShapeError("batchnorm training needs > 1 statistic element per channel")
            mu = xd.mean(axis=axes)
            var = np.zeros(self.channels)
            for part in chunks:
                z = xd[part] - mu.reshape(bshape)
                var += _channel_sums(z, z)
            var /= n
        else:
            mu = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        scale = (self.gamma.data * inv).astype(dtype)
        shift = (self.beta.data - mu * scale).astype(dtype)
        scale.shape = shift.shape = bshape
        pooled = pool is not None
        out = np.empty(tuple(e for i, e in enumerate(shape) if not pooled or i not in pool),
                       dtype)
        for part in chunks:
            xp = xd[part] if training else rows(part)
            z = np.multiply(xp, scale, out=None if pooled else out[part])
            del xp  # a regenerated chunk is freed before the next is built
            z += shift
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                z *= _sigmoid(z)
            if pooled:
                out[part] = z.mean(axis=pool)
        # both checked before the running estimates move: a rejected batch
        # leaves them as they were
        _ensure_finite(out, "batchnorm", (x, self.gamma, self.beta))
        if training:
            m = BN_MOMENTUM
            stats = np.stack([self.running_mean, self.running_var]) * (1.0 - m)
            stats += m * np.stack([mu, var]).astype(stats.dtype)
            _ensure_finite(stats, "batchnorm running statistics", (x, self.gamma, self.beta))
            self.running_mean[...], self.running_var[...] = stats

        def backward(g):
            mu_x = mu.astype(dtype).reshape(bshape)
            if pooled:  # the mean's gradient, broadcast over the pool axes
                g = np.expand_dims(g / prod(shape[a] for a in pool), pool)

            def grad_z(part, xp):
                # the chunk's gz: in g itself, or with pool in a new array
                z = xp * scale
                z += shift
                slope = z > 0.0 if activation == "relu" else _silu_slope(z)
                return slope * g[part] if pooled else np.multiply(g[part], slope, out=g[part])

            g_beta = np.zeros(len(inv))
            g_dot = np.zeros(len(inv))  # sum of gz * (x - mu)
            for part in chunks:
                xp = rows(part)
                gz = grad_z(part, xp)
                g_beta += _channel_sums(gz)
                g_dot += _channel_sums(gz, xp - mu_x)
            g_gamma = g_dot * inv  # sum of gz * xhat
            if training:  # the batch statistics depend on x too
                b = (-scale.ravel() * inv * g_gamma / n).astype(dtype).reshape(bshape)
                c = (-scale.ravel() * g_beta / n).astype(dtype).reshape(bshape)
            gx = g if not pooled else np.empty(shape, dtype) if spare is None else spare
            for part in chunks:
                xp = rows(part)
                gz = grad_z(part, xp) if pooled else g[part]
                gz *= scale
                if training:
                    term = xp - mu_x
                    term *= b
                    gz += term
                    gz += c
                if pooled:
                    gx[part] = gz
            return gx, g_gamma.astype(dtype), g_beta.astype(dtype)

        return record_op("batchnorm", (x, self.gamma, self.beta), out, backward,
                         check_finite=False)


class LayerNorm(Module):
    """Normalization over the last (embedding) axis with population variance."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim
        self.gamma = Parameter(np.ones(dim, dtype=np.float32))
        self.beta = Parameter(np.zeros(dim, dtype=np.float32))

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.dim:
            raise ShapeError(f"layernorm expects last extent {self.dim}, got {x.shape}")
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
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

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming_uniform(rng, (out_features, in_features), in_features))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32))

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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as (1 + tanh(x/2)) / 2: stable for any magnitude,
    in one new buffer."""
    sig = x * 0.5
    np.tanh(sig, out=sig)
    sig += 1.0
    sig *= 0.5
    return sig


def _silu_slope(z: np.ndarray) -> np.ndarray:
    """Overwrite z with silu'(z) = sig * (1 + z*(1 - sig)), computed as
    1 + (z*sig - 1) * (1 - sig), and return it."""
    sig = _sigmoid(z)
    z *= sig
    z -= 1.0
    np.subtract(1.0, sig, out=sig)
    z *= sig
    z += 1.0
    return z


def _channel_sums(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Per-channel float64 sums of a, or of a*b, over every axis but axis 1:
    one BLAS dot per sample and channel, the samples added in float64."""
    n, c = a.shape[:2]
    rows = a.reshape(n, c, 1, -1)
    cols = np.ones((rows.shape[-1], 1), a.dtype) if b is None else b.reshape(n, c, -1, 1)
    return np.matmul(rows, cols).reshape(n, c).sum(axis=0, dtype=np.float64)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise; retains only x and overwrites g in backward."""
    xd = x.data
    out = _sigmoid(xd)
    out *= xd

    def backward(g):
        g *= _silu_slope(xd.copy())
        return (g,)

    return record_op("silu", (x,), out, backward)


def softmax_inplace(z: np.ndarray) -> np.ndarray:
    """Max-subtracted exponentials of z normalized over its last axis,
    computed in z itself, which is returned."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Zero each element with probability `rate`, scaling survivors by 1/(1-rate).

    Identity when not training or rate == 0 (the input tensor is returned
    unchanged, so the tape stays connected at no cost). Retains only the
    boolean keep-mask, a quarter of a float32 mask's bytes; the forward and
    backward each rebuild the scaled mask from it and backward overwrites g.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs a seeded rng")
    keep = 1.0 - rate
    kept = rng.random(x.shape) >= rate
    dtype = x.dtype

    def mask():
        return kept.astype(dtype) / keep

    out = x.data * mask()

    def backward(g):
        g *= mask()
        return (g,)

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
    dtype = logits.dtype
    out = np.asarray((lse - picked).mean(), dtype=dtype)
    probs = np.exp(z - lse[:, None])

    def backward(g):
        gl = probs.copy()
        gl[np.arange(b), labels] -= 1.0
        gl *= g / b
        return (gl.astype(dtype),)

    return record_op("cross_entropy", (logits,), out, backward)
