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
cross-correlations (no kernel flip), stride 1, lowered by im2col with a
Winograd last axis: per batch chunk, F(m, k) (Lavin & Gray,
arXiv:1509.09308) turns windows of m + k - 1 inputs of the last axis into
as many transforms, Bᵀ applied as one matmul per row of the first spatial
axis. Then, one block of output rows at a time, each transform's columns
over the taps of the other axes are gathered and multiplied into stacked
products, and Aᵀ, one more matmul, turns those into the block's outputs.
F(4, 3) runs where those columns have _WINOGRAD_K rows (the spectral and
mid convs), halving the GEMMs' work on 32 bands, and elsewhere F(1, 1) over
a trailing unit axis, the direct correlation as one transform whose
columns hold every tap. Backward keeps nothing of the forward but its
input: the weight gradient makes the transforms and gathers the columns
again, chunk by chunk, and the input gradient is the same lowering applied
with the flipped kernel.

The conv loops and every BatchNorm pass run their jobs on a pool of one
thread per usable core (_map; Smith et al., IPDPS 2014): a conv call over
several batch chunks and every BatchNorm pass run one job per batch chunk.
A map called from a worker runs its jobs in turn on that worker, so the
outermost loop with enough work takes the pool: a BatchNorm job over a
conv source runs its chunk's conv inline, and an eval forward of the
classifier over several batch chunks runs each chunk through the whole
model as one job (classifier.PatchClassifier), its convs, BatchNorms,
attention, LayerNorms and head alike. No GEMM is split between jobs, so
each output element is the same dot product summed in the same order at
any worker count; a conv's per-chunk weight and bias gradients and
BatchNorm's float64 channel sums are added in chunk order. Outputs are
bit-identical at any worker count. Each running job works in scratch made
before the loop's first job, its outputs included (a BatchNorm job over a
source makes its own once its chunk is regenerated), so a loop's memory
depends neither on how its jobs interleave nor on the batch. A conv job
writes its chunk's output only once every earlier chunk's input has been
read: the input gradient may be written over the front of its own g.

A conv module called with the BatchNorm that follows it (and, for the
spectral path, the axes to average over) hands the BatchNorm op a source
that computes the conv over a batch slice, its weights lowered once. In
an eval forward with no active tape the conv records nothing and builds no
output: each of the op's jobs reads its chunk from the source and
normalizes it while it is in cache. Training, and eval under a tape,
record the conv once over the whole batch. Either way BatchNorm, the
activation and the mean have one implementation each: the BatchNorm op
pools its activation a chunk at a time when given the axes.

Training holds one full-size gradient per activation where it can: the
BatchNorm op's backward writes over its upstream gradient, or with pool
over its input, the conv's output (into a new array when that output is
regenerated rather than kept); a conv's input gradient overwrites the
front of its output gradient when the conv has no more input channels.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from itertools import islice
from math import prod
from queue import SimpleQueue
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
# conv's batch by the bytes of one sample's columns plus GEMM accumulator
# (every tap over the leading axes, per input of the last axis padded: for
# the direct correlation, its whole columns), BatchNorm's batch (training
# variance, SiLU, backward) by one sample's input, attention's queries by
# one query row's [B, 1, Nk] scores, and the classifier's eval batch by one
# sample's widest token activation, the last block's FFN hidden. The budget
# is sized to cache rather than to a memory ceiling: a chunk is still cached
# when the next pass over it reads it, and the temporaries stop growing with
# the batch. Each loop was swept on its own (2-core Xeon, 2 MB L2 per core,
# one BLAS thread, CFG32 on 9x9x32 patches) and 1e6 is at, or within noise
# of, the best value for each: conv, 1e6 to 5e6 within noise of each other,
# eval forward at batch 64 17% and a batch-32 training step 8% faster than
# 2e7; BatchNorm, one sample per chunk ran the spectral backward in 81-114
# ms of a training step, two samples in 108-118 ms and the whole batch in
# 139-198 ms; attention, the baseline's batch-2 eval forward within noise
# from 1e6 to 1e7 and slower at 5e5 and 4e7; the classifier's eval chunk, a
# CFG32 batch-64 forward on two workers in 8, 16 (the budget's) and 32
# samples per job, 348, 327 and 325 ms (medians of 6 processes of 15
# forwards). At 1e6 the stem, the spectral conv and the spectral BN run one
# sample per chunk, the 2D conv 4 samples, and each CFG32 cross-attention
# one query block. A conv gathers a chunk's columns of one transform a block
# of output rows at a time within the budget too (_blocks): the spectral
# conv's 2.99 MB of columns and stacked products per sample in three blocks.
# Every BatchNorm pass runs one job per chunk, so its temporaries and its
# conv source's output are one chunk per worker.
_CHUNK_BYTES = 1e6


def _chunks(n: int, item_bytes: float) -> list[slice]:
    """Slices covering range(n), each of at least one item and otherwise of
    at most _CHUNK_BYTES of items of item_bytes each."""
    step = max(1, int(_CHUNK_BYTES // max(item_bytes, 1)))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


# ---------------------------------------------------------------------------
# worker pool
#
# numpy releases the GIL inside BLAS and its copy loops, so the jobs of a
# chunked loop (a conv's batch chunks, BatchNorm's batch chunks) run on every
# core the process may use. The pool is built by the first map that needs
# it. Before the first conv module runs or the pool is built, the process is
# tuned once: freed memory stays in the heap (trainer.keep_freed_memory), and
# with more than one worker OpenBLAS is pinned to one thread, so each
# worker's GEMM runs on one core rather than on all, and a conv run on the
# caller runs its GEMMs on one thread too. _WORKERS counts the
# cores this process may run on (all of them where the platform cannot say).
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool: ThreadPoolExecutor | None = None
_in_worker = threading.local()
_tuned = False


def _tune_process() -> None:
    """Once: keep freed memory in the heap; with several workers, one BLAS thread."""
    global _tuned
    if not _tuned:
        from .trainer import keep_freed_memory, set_blas_threads  # trainer imports this module

        keep_freed_memory()
        if _WORKERS > 1:
            set_blas_threads(1)
        _tuned = True


def _executor() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _tune_process()
        _pool = ThreadPoolExecutor(_WORKERS, "spectralca", _in_worker.__setattr__,
                                   ("active", True))
    return _pool


def _map(fn: Callable, jobs, scratch: Callable | None = None):
    """fn(job), or with `scratch` fn(job, buffers), for each job, yielded in
    job order. At most _WORKERS jobs run at once and one more waits queued,
    so no worker idles while the caller handles a result. With one worker
    or one job, or when called from a worker (a nested map would wait on
    the workers it occupies), the jobs run in turn on the caller.

    `scratch` makes one job's working buffers, or returns None for jobs
    that make their own as they go. On the pool, a set is made for each
    worker before any job runs, and each job borrows a set that no running
    job holds: the map's memory is then the same however its jobs
    interleave. The sets are freed when the map ends. Inline, fn gets None
    and makes its own temporaries as it goes, as the jobs run in turn."""
    jobs = list(jobs)
    if _WORKERS == 1 or len(jobs) < 2 or getattr(_in_worker, "active", False):
        yield from (fn(job) if scratch is None else fn(job, None) for job in jobs)
        return
    run = fn
    free = SimpleQueue()
    if scratch is not None:
        for _ in range(min(len(jobs), _WORKERS)):
            free.put(scratch())

        def run(job):
            buffers = free.get()
            try:
                return fn(job, buffers)
            finally:
                free.put(buffers)

    pool = _executor()
    todo = iter(jobs)
    pending = deque(pool.submit(run, job) for job in islice(todo, _WORKERS + 1))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(run, job) for job in islice(todo, 1))
            yield result
            del result  # not held while the next job is awaited
    finally:  # after a failed job or an abandoned map, no job outlives the call
        for future in pending:
            future.cancel()
        wait(pending)
        while not free.empty():  # the scratch, though a worker may still
            free.get()  # be leaving `run`


# ---------------------------------------------------------------------------
# convolution kernels (shared by the 2D and 3D layers)
#
# Im2col (Chellapilla et al. 2006) with a Winograd last axis (Lavin & Gray,
# arXiv:1509.09308). The columns gather every tap over the leading spatial
# axes. Along the last axis the k taps are the minimal filtering algorithm
# F(m, k), which gives m outputs of a k-tap correlation from a window d of
# alpha = m + k - 1 inputs as Aᵀ[(G w) ⊙ (Bᵀ d)]. The GEMMs' N is alpha *
# ceil(D/m) per row of the last axis. The direct correlation is F(1, 1)
# over a trailing unit axis of the input and the kernel: Bᵀ = G = Aᵀ =
# [[1]], every spatial axis is a leading one, and the one transform's
# columns hold all k^d taps. Column rows are ordered tap-major (row =
# leading_tap * C + c) and the weights are permuted to match.
#
# Each transform is a small matrix product (Jia et al., PPoPP 2018). A job
# first makes its chunk's transforms (_transforms), laid out with the first
# spatial axis outermost and zero-padded, [S0 + 2 pad, alpha, C, n, ...]:
# the windows of a block of rows at a time, m apart along the last axis, and
# then Bᵀ as one matmul per row, all alpha transforms at once. It then runs
# one pipeline per block of output rows (_blocks): each transform's columns
# over the block's rows and halo are gathered (_gather, one strided copy)
# and its GEMM writes into the block's stacked [alpha, O, block] products;
# Aᵀ is one matmul over those, and the block's [m, O, block] outputs go
# straight into its rows of the output. F(1, 1) runs the same loop, its Bᵀ
# and Aᵀ, [[1]], skipped: its windows are its transforms, its products its
# outputs (_apply). In a one-sample spectral forward, one thread, the
# windows and transforms took 0.57 ms in place; one matmul per transform
# and block, which reads every window alpha times and makes the halo rows
# again, 1.18 ms; elementwise sums over the rows of Bᵀ, 1.39 ms.
#
# The weight gradient runs transform by transform over the same transforms
# of a chunk: the product gradient is one matmul by a column of Aᵀ over the
# output gradient's m phases, and it multiplies each block's columns,
# gathered again rather than kept from forward (202 MB for the spectral
# conv at batch 32 before F(4, 3); forward plus backward took 1.31-1.40 s
# kept and 1.24-1.45 s re-gathered, 2-core Xeon, one thread). The blocks'
# parts are added in block order, and Gᵀ is applied once, to the sum over
# the chunks. No element depends on how the batch is cut.
#
# F(4, 3) runs where the columns over the leading taps have at least
# _WINOGRAD_K rows (the GEMMs' K). Over fewer rows the GEMMs are cheap and
# the transforms cost more than they save. Forwards at batch 32 on 9x9x32
# patches, one thread, over six processes, direct and under F(4, 3): the
# stem (C = 1) 10-17 and 27-30 ms; the 2D conv (C = 64, over a 9-wide last
# axis whose last window of 4 outputs is 3 of padding) 5.7-7.2 and
# 5.2-8.8 ms, the direct faster in 5 of 6; the spectral conv (C = 64)
# 371-469 and 211-313 ms. F(4, 3)'s float32 error against float64 is about
# five times the direct correlation's: 18-28 eps of the output's scale
# against 3-5.
_WINOGRAD_K = 512
# Bᵀ, G and Aᵀ by m: of F(1, 1), and of F(4, 3) at the points 0, 1, -1, 2,
# -2 and infinity
_TRANSFORMS = {1: (np.ones((1, 1)),) * 3, 4: (
    np.array([[4, 0, -5, 0, 1, 0], [0, -4, -4, 1, 1, 0], [0, 4, -4, -1, 1, 0],
              [0, -2, -1, 2, 1, 0], [0, 2, -1, -2, 1, 0], [0, 4, 0, -5, 0, 1]], float),
    np.array([[1 / 4, 0, 0], [-1 / 6, -1 / 6, -1 / 6], [-1 / 6, 1 / 6, -1 / 6],
              [1 / 24, 1 / 12, 1 / 6], [1 / 24, -1 / 12, 1 / 6], [0, 0, 1]]),
    np.array([[1, 1, 1, 1, 1, 0], [0, 1, -1, 2, -2, 0], [0, 1, 1, 4, 4, 0],
              [0, 1, -1, 8, -8, 1]], float))}

# A call over several batch chunks runs them on the workers, one job per
# chunk. No GEMM is split between jobs, so each output element is the same
# dot product summed in the same order at any worker count. Calls whose
# chunks hold few multiply-adds gain too, batch 32 on 9x9x32 patches, in
# turn against two workers (2-core Xeon, one BLAS thread, medians over 7
# alternating processes of 15 calls each): the stem's forward (5e6 a
# chunk) 10.9 -> 8.9 ms (faster in 5 of 7), its weight gradient 13.6 ->
# 11.0 ms, the 2D conv's forward (2e7 a chunk) 4.9 -> 3.4 ms and its
# backward 11.4 -> 8.6 ms (each faster in 7 of 7).


def _conv_geometry(xd: np.ndarray, wd: np.ndarray):
    """(xd, wd, k, parts, m): m = 4, F(4, 3) along the last axis, when k
    is 3 and the columns over the leading taps have _WINOGRAD_K rows or
    more, else m = 1, F(1, 1) over a trailing unit axis added to the
    returned xd and wd, so that every tap is a leading one; k, the kernel
    over the leading axes; and the batch slices, sized by one sample's
    columns and accumulator per input of the last axis padded."""
    o, c, k = wd.shape[:3]
    m = 4 if k == 3 and c * k ** (wd.ndim - 3) >= _WINOGRAD_K else 1
    if m == 1:
        xd, wd = xd[..., None], wd[..., None]
    spatial, kl = xd.shape[2:], wd.shape[-1]
    rows = c * k ** (len(spatial) - 1)
    lead = prod(spatial[:-1])
    parts = _chunks(xd.shape[0], (rows + o) * lead * (spatial[-1] + kl - 1) * xd.itemsize)
    return xd, wd, k, parts, m


def _blocks(n: int, item_bytes: float) -> list[slice]:
    """range(n) in the fewest near-equal slices whose items, of item_bytes
    each, fit _CHUNK_BYTES, down to one item each. A conv runs its pipeline
    a block of output rows of the first axis at a time, an item being a
    row's columns and stacked products, in the forward and the weight
    gradient alike."""
    q = min(n, max(1, -(-int(n * item_bytes) // int(_CHUNK_BYTES))))
    return [slice(n * i // q, n * (i + 1) // q) for i in range(q)]


def _tap_weights(wd: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[O,C,*K] -> contiguous [alpha, O, prod(K[:-1]) * C]: each transform's
    weights, G applied along the last axis, their columns in the row order
    of the columns."""
    o, c, k = wd.shape[0], wd.shape[1], wd.shape[-1]
    taps = np.ascontiguousarray(wd.reshape(o, c, -1, k).transpose(3, 0, 2, 1))
    return np.matmul(g.astype(wd.dtype), taps.reshape(k, -1)).reshape(len(g), o, -1)


def _front(buffer: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous array of `shape` over the front of a flat buffer."""
    return buffer[:prod(shape)].reshape(shape)


def _transforms(x_chunk: np.ndarray, m: int, bt: np.ndarray, pad: int, groups,
                buffer: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Bᵀ of every window of x_chunk [n,C,*S]: [S[0] + 2 pad, alpha, C, n,
    *(S[1:-1] + 2 pad), ceil(S[-1]/m)] in the front of `buffer`, zero in the
    `pad` entries at each end of the spatial axes but the last. Input nu of
    window t is the input at m*t + nu - (alpha-m)/2 along the last axis,
    zero outside it. The windows of each group of rows of the first axis
    are made in the front of `spare`, then transformed by one matmul per
    row; F(1, 1)'s, whose Bᵀ is [[1]], are made in place."""
    n, c, *spatial = x_chunk.shape
    alpha = len(bt)
    d, t, shift = spatial[-1], -(-spatial[-1] // m), (alpha - m) // 2
    shape = (alpha, c, n, *(e + 2 * pad for e in spatial[1:-1]), t)
    xt = _front(buffer, (spatial[0] + 2 * pad,) + shape)
    xt[:pad] = xt[pad + spatial[0]:] = 0
    source = np.swapaxes(x_chunk, 0, 2)  # [S0, C, n, *S[1:]]
    for r in groups:
        rows = xt[r.start + pad:r.stop + pad]
        windows = rows if alpha == 1 else _front(spare, rows.shape)
        for axis in range(4, windows.ndim - 1):
            windows[(slice(None),) * axis + (slice(0, pad),)] = 0
            windows[(slice(None),) * axis + (slice(windows.shape[axis] - pad, None),)] = 0
        inside = windows[(slice(None),) * 4 + tuple(slice(pad, pad + e) for e in spatial[1:-1])]
        for nu in range(alpha):
            t0, t1 = max(0, -(-(shift - nu) // m)), min(t, -(-(d + shift - nu) // m))
            out = inside[:, nu]
            out[..., :t0] = out[..., t1:] = 0
            out[..., t0:t1] = source[r, ..., m * t0 + nu - shift::m][..., :t1 - t0]
        if alpha > 1:
            np.matmul(bt, windows.reshape(len(rows), alpha, -1),
                      out=rows.reshape(len(rows), alpha, -1))
    return xt


def _gather(v: np.ndarray, k: int, buffer: np.ndarray):
    """(cols, copy) for transforms v [lead[0] + k-1, alpha, C, n, *(lead[1:]
    + k-1), L]: cols [k^len(lead) * C, lead[0] * n * prod(lead[1:]) * L] in
    the front of `buffer`, and a function that copies into it, in one call,
    every tap of transform xi over the leading axes, each with the last
    axis whole, from a strided view of v that holds each tap's window."""
    first, alpha, c, n, *extents, last = v.shape
    lead = tuple(e - (k - 1) for e in (first, *extents))
    steps = v.strides[:1] + v.strides[4:-1]
    taps = np.lib.stride_tricks.as_strided(
        v, (alpha,) + (k,) * len(lead) + (c, n) + lead + (last,),
        v.strides[1:2] + steps + v.strides[2:4] + steps + v.strides[-1:], writeable=False)
    cols = _front(buffer, (k ** len(lead) * c, n * prod(lead) * last))
    dest = cols.reshape(taps.shape[1:])
    return cols, lambda xi: np.copyto(dest, taps[xi])


def _apply(matrix: np.ndarray, stacked: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """matrix [r, a] @ stacked [a, N], [r, N] in the front of `buffer`; or
    stacked itself when matrix is 1x1: F(1, 1)'s Aᵀ is [[1]], and its
    product would only copy the products, one more pass over the output
    (0.66 MB a sample of the stem)."""
    if matrix.size == 1:
        return stacked
    return np.matmul(matrix, stacked, out=_front(buffer, (len(matrix), stacked.shape[1])))


def _conv_forward(xd: np.ndarray, wd: np.ndarray, bd: np.ndarray | None,
                  out: np.ndarray | None = None, u: np.ndarray | None = None) -> np.ndarray:
    """Same-padded cross-correlation of xd [B,C,*S] with wd [O,C,*K] plus bd
    [O], or no bias when bd is None, one job per batch chunk, written into
    `out` when given, else into a new [B,O,*S] array. A job makes its
    chunk's transforms, then runs the lowering one block of output rows at a
    time, writing each block's outputs into `out` as soon as they are made.
    `out` may lie over xd (the input gradient's, over g) as long as each
    chunk's output ends before the next chunk's input starts: a job writes
    its first block once every earlier chunk's transforms are made. `u`,
    when given, is _tap_weights of the geometry's wd and G, lowered once by
    a caller that runs the conv over many batch slices."""
    o = wd.shape[0]
    out = np.empty((xd.shape[0], o) + xd.shape[2:], dtype=xd.dtype) if out is None else out
    xd, wd, k, parts, m = _conv_geometry(xd, wd)
    spatial, c, pad = xd.shape[2:], xd.shape[1], (k - 1) // 2
    bt, g, at = (a.astype(xd.dtype) for a in _TRANSFORMS[m])
    alpha = len(bt)
    u = _tap_weights(wd, g) if u is None else u
    outs = out.reshape(out.shape[:2] + spatial)
    bias = None if bd is None else bd.reshape((1, o) + (1,) * len(spatial))
    t = -(-spatial[-1] // m)
    n = max((p.stop - p.start for p in parts), default=0)
    row = prod(spatial[1:-1]) * t  # columns per sample and row of the first axis
    padded = c * n * prod(e + 2 * pad for e in spatial[1:-1]) * t  # a transform's row
    blocks = _blocks(spatial[0], (u.shape[2] + alpha * o) * n * row * xd.itemsize)
    most = max(r.stop - r.start for r in blocks)
    block = n * most * row
    read = [threading.Event() for _ in parts]  # set once a chunk's input is read

    def scratch():  # a chunk's transforms; a block's columns (or, while
        # the transforms are made, its windows), stacked products and outputs
        return [np.empty(size, dtype=xd.dtype) for size in (
            (spatial[0] + 2 * pad) * alpha * padded,
            max(u.shape[2] * block, (alpha > 1) * most * alpha * padded),
            alpha * o * block, (alpha > 1) * m * o * block)]

    def chunk(p, buffers):
        part = parts[p]
        size = part.stop - part.start
        try:
            buffers = buffers or scratch()  # run on the caller: its own scratch
            xt = _transforms(xd[part], m, bt, pad, blocks, buffers[0], buffers[1])
        finally:
            read[p].set()
        for earlier in read[:p]:
            earlier.wait()
        for r in blocks:
            cols, copy = _gather(xt[r.start:r.stop + 2 * pad], k, buffers[1])
            products = _front(buffers[2], (alpha, o, cols.shape[1]))
            for xi in range(alpha):
                copy(xi)
                np.matmul(u[xi], cols, out=products[xi])
            y = _apply(at, products.reshape(alpha, -1), buffers[3])
            y = y.reshape((m, o, size, r.stop - r.start) + spatial[1:-1] + (t,))
            dest = outs[part][:, :, r]
            for i in range(m):  # output i of window t lies at m*t + i
                dest[..., i::m] = np.swapaxes(y[i], 0, 1)[..., :len(range(i, spatial[-1], m))]
            if bias is not None:
                dest += bias

    deque(_map(chunk, range(len(parts)), scratch), maxlen=0)
    return out


def _conv_backward(g: np.ndarray, xd: np.ndarray, wd: np.ndarray,
                   need_gx: bool = True):
    """Gradients of _conv_forward wrt input (None unless need_gx), weight
    and bias, one job per batch chunk. A job runs the weight gradient's
    transforms in turn over its chunk, gathering the columns again a block
    of rows at a time, and sums its chunk's bias gradient; it adds both
    once the previous chunk's are added. The input gradient is the forward
    with the flipped, channel-swapped kernel. With C <= O and a
    C-contiguous, writeable g, it is written over the front of g's buffer
    once the others are taken: each chunk's rows end before the next
    chunk's g starts.
    """
    xv, wv, k, parts, m = _conv_geometry(xd, wd)
    spatial, pad = xv.shape[2:], (k - 1) // 2
    gv = g.reshape(g.shape[:2] + spatial)
    bt, gt, at = (a.astype(xd.dtype) for a in _TRANSFORMS[m])
    alpha = len(bt)
    c, o, kl = xd.shape[1], wd.shape[0], wv.shape[-1]
    rows = c * k ** (len(spatial) - 1)
    t = -(-spatial[-1] // m)
    n = max((p.stop - p.start for p in parts), default=0)
    row = prod(spatial[1:-1]) * t
    padded = c * n * prod(e + 2 * pad for e in spatial[1:-1]) * t
    ncols = n * spatial[0] * row
    blocks = _blocks(spatial[0], (rows + alpha * o) * n * row * xd.itemsize)  # the forward's
    most = max(r.stop - r.start for r in blocks)
    gu_t = np.zeros((alpha, rows, o), dtype=wd.dtype)
    gb = np.zeros(o)
    added = [threading.Event() for _ in parts]  # set once a chunk's part is added

    def scratch():  # as the forward's, a chunk's transforms and a block's
        # columns or windows; g's phases and a product gradient; the chunk's
        # part and a block's
        return [np.empty(size, dtype=xd.dtype) for size in (
            (spatial[0] + 2 * pad) * alpha * padded,
            max(rows * n * most * row, (alpha > 1) * most * alpha * padded),
            m * o * ncols, (alpha > 1) * o * ncols, alpha * rows * o,
            (len(blocks) > 1) * rows * o)]

    def chunk(p, buffers):
        part = parts[p]
        size = part.stop - part.start
        try:
            buffers = buffers or scratch()  # run on the caller: its own scratch
            xt = _transforms(xv[part], m, bt, pad, blocks, buffers[0], buffers[1])
            gathers = [(r, *_gather(xt[r.start:r.stop + 2 * pad], k, buffers[1]))
                       for r in blocks]
            phases = _front(buffers[2], (m, o, size) + spatial[:-1] + (t,))
            for i, phase in enumerate(phases):  # phase i of window t is g at m*t + i
                count = len(range(i, spatial[-1], m))
                phase[..., :count] = np.swapaxes(gv[part][..., i::m], 0, 1)
                phase[..., count:] = 0
            # per-transform gradients, the GEMM's output [rows, O] or [O, rows],
            # whichever has more rows: [rows, O] ran faster for the spectral
            # conv (576 rows, O = 96), [O, rows] for the stem (27 rows, O = 64)
            gu = _front(buffers[4], (alpha, rows, o))
            for xi in range(alpha):
                gm = _apply(at[:, xi:xi + 1].T, phases.reshape(m, -1), buffers[3])
                gm = gm.reshape(o, size, spatial[0], -1)
                for b, (r, cols, copy) in enumerate(gathers):
                    copy(xi)  # the blocks' parts are added in block order
                    gm_r = gm[:, :, r].reshape(o, -1)
                    part_gu = _front(buffers[5], (rows, o)) if b else gu[xi]
                    if rows >= o:
                        np.matmul(cols, gm_r.T, out=part_gu)
                    else:
                        part_gu[...] = (gm_r @ cols.T).T
                    if b:
                        gu[xi] += part_gu
            sums = _channel_sums(g[part])
            if p:
                added[p - 1].wait()
            gu_t[...] += gu
            gb[...] += sums
        finally:
            added[p].set()

    deque(_map(chunk, range(len(parts)), scratch), maxlen=0)
    gw_t = np.matmul(gt.T, gu_t.reshape(alpha, -1)).reshape(kl, -1, c, o)
    gw = gw_t.transpose(3, 2, 1, 0).reshape(wd.shape)
    gx = None
    if need_gx:
        flipped = np.flip(wd, axis=tuple(range(2, wd.ndim))).swapaxes(0, 1)
        in_place = c <= o and g.flags.c_contiguous and g.flags.writeable
        out = g.reshape(-1)[:xd.size].reshape(xd.shape) if in_place else None
        gx = _conv_forward(g, flipped, None, out)
    return gx, gw, gb.astype(g.dtype)


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
        bn reads the conv from `regenerate`, the checked conv over a batch
        slice, one chunk per bn job, and gets a zero-stride stand-in for the
        whole output. Otherwise the conv is recorded over the whole batch,
        and when x takes no gradient (the stem's patches) bn's backward
        regenerates the output, which is freed once bn's forward returns."""
        if x.ndim != 2 + self.spatial_dims or x.shape[1] != self.in_channels:
            raise ShapeError(f"{self.op} expects [B,{self.in_channels},{self.axes}], "
                             f"got {x.shape}")
        if pool is not None and bn is None:
            raise ValueError("pool needs the BatchNorm that computes the mean")
        _tune_process()
        if bn is None:
            return _conv_op(self.op, x, self.weight, self.bias)
        xd, wd, bd = x.data, self.weight.data, self.bias.data
        if training or active_tape() is not None:
            y = _conv_op(self.op, x, self.weight, self.bias)
            if x.requires_grad:
                return bn(y, training, pool)
        else:
            y = Tensor(np.broadcast_to(xd.dtype.type(0),
                                       (len(xd), self.out_channels) + xd.shape[2:]))
        _, wv, *_, m = _conv_geometry(xd, wd)
        u = _tap_weights(wv, _TRANSFORMS[m][1])  # lowered once for all of bn's jobs

        def regenerate(part):
            y = _conv_forward(xd[part], wd, bd, u=u)
            _ensure_finite(y, self.op, (x, self.weight, self.bias))
            return y

        return bn(y, training, pool, regenerate)


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
    float64, and the map, activation and pool run a chunk at a time. Every
    pass runs one job per chunk on the workers (_map), adds its sums in
    chunk order, and works in scratch of one or two chunks per worker, made
    before a pass over x and by each job of a pass over the source. The op
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
        chunk_size = xd[:1].size * max((p.stop - p.start for p in chunks), default=0)

        def each(fn, buffers: int, from_source: bool = source is not None):
            # fn over the chunks, one job each, with `buffers` chunk-sized
            # arrays made before a pass over x; over the source, a job makes
            # its own (None)
            return _map(fn, chunks, lambda: None if from_source else
                        [np.empty(chunk_size, dtype) for _ in range(buffers)])

        def tmp(buffers, i, shape):  # scratch i in `shape`, or None: a new array
            return None if buffers is None else _front(buffers[i], shape)

        if training:
            if n <= 1:
                raise ShapeError("batchnorm training needs > 1 statistic element per channel")
            mu = xd.mean(axis=axes)

            def centred_squares(part, buffers):
                z = np.subtract(xd[part], mu.reshape(bshape), out=tmp(buffers, 0, xd[part].shape))
                return _channel_sums(z, z)

            var = np.zeros(self.channels)
            for sums in each(centred_squares, 1, from_source=False):
                var += sums
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

        def normalize(part, buffers):
            xp = xd[part] if training else rows(part)
            z = np.multiply(xp, scale, out=tmp(buffers, 0, xp.shape) if pooled else out[part])
            del xp  # a regenerated chunk is freed before the sigmoid is made
            z += shift
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                z *= _sigmoid(z, tmp(buffers, -1, z.shape))
            if pooled:
                out[part] = z.mean(axis=pool)

        regenerated = source is not None and not training
        deque(each(normalize, pooled + (activation == "silu"), regenerated), maxlen=0)
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

            def grad_z(part, xp, buffers):
                # the chunk's gz: in g itself, or with pool in buffers[0]
                z = np.multiply(xp, scale, out=tmp(buffers, 0, xp.shape))
                z += shift
                if activation == "relu":
                    slope = np.greater(z, 0.0, out=z)
                else:
                    slope = _silu_slope(z, tmp(buffers, 1, z.shape))
                if pooled:
                    return np.multiply(slope, g[part], out=slope)
                return np.multiply(g[part], slope, out=g[part])

            def sums(part, buffers):
                xp = rows(part)
                gz = grad_z(part, xp, buffers)
                centred = np.subtract(xp, mu_x, out=tmp(buffers, 1, xp.shape))
                return _channel_sums(gz), _channel_sums(gz, centred)

            g_beta = np.zeros(len(inv))
            g_dot = np.zeros(len(inv))  # sum of gz * (x - mu)
            for s_beta, s_dot in each(sums, 2):
                g_beta += s_beta
                g_dot += s_dot
            g_gamma = g_dot * inv  # sum of gz * xhat
            if training:  # the batch statistics depend on x too
                b = (-scale.ravel() * inv * g_gamma / n).astype(dtype).reshape(bshape)
                c = (-scale.ravel() * g_beta / n).astype(dtype).reshape(bshape)
            gx = g if not pooled else np.empty(shape, dtype) if spare is None else spare

            def input_grad(part, buffers):
                xp = rows(part)
                gz = grad_z(part, xp, buffers) if pooled else g[part]
                gz *= scale
                if training:
                    term = np.subtract(xp, mu_x, out=tmp(buffers, -1, xp.shape))
                    term *= b
                    gz += term
                    gz += c
                if pooled:
                    gx[part] = gz

            deque(each(input_grad, 1 + pooled), maxlen=0)
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
        # finite x can overflow var, which would give an output of beta alone
        with np.errstate(over="ignore", invalid="ignore"):
            mu = x.data.mean(axis=-1, keepdims=True)
            var = x.data.var(axis=-1, keepdims=True)
        _ensure_finite(var, "layernorm", (x, self.gamma, self.beta))
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
        xd, w, b = x.data, self.weight, self.bias
        k = self.in_features
        # one product per sample, over a [B, N, k] input's [N, k] rows or a
        # [B, k] input's one row (a matrix-vector product), so that a
        # sample's output does not depend on the batch around it, as it
        # would under BLAS's blocking of one [B, k] @ [k, out] product
        if xd.ndim > 2:
            out = xd @ w.data.T + b.data
        else:
            out = (xd[..., None, :] @ w.data.T)[..., 0, :] + b.data

        def backward(g):
            gx = g @ w.data
            g2 = g.reshape(-1, g.shape[-1])
            gw = g2.T @ xd.reshape(-1, k)
            gb = g2.sum(axis=0)
            return gx, gw, gb

        return record_op("linear", (x, w, b), out, backward)


# ---------------------------------------------------------------------------
# functional ops


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) as (1 + tanh(x/2)) / 2: stable for any magnitude,
    in one new buffer or `out`."""
    sig = np.multiply(x, 0.5, out=out)
    np.tanh(sig, out=sig)
    sig += 1.0
    sig *= 0.5
    return sig


def _silu_slope(z: np.ndarray, sig: np.ndarray | None = None) -> np.ndarray:
    """Overwrite z with silu'(z) = sig * (1 + z*(1 - sig)), computed as
    1 + (z*sig - 1) * (1 - sig), and return it; the sigmoid goes in a new
    buffer or `sig`."""
    sig = _sigmoid(z, sig)
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
