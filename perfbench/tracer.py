"""Per-layer tracer that times calls into spectralca's public objects from
outside the package.

While attached to a model it

- swaps the class of the model, of each of its child modules and of each
  child of a block for a subclass whose ``__call__`` records a span, so a
  module's forward self time is its span minus the spans of its traced
  children (a block's and the model's own self time are keyed
  ``<path>.self``, ``model.self`` for the model);
- wraps ``Tape.record`` so every recorded node's backward rule is timed and
  charged to the module whose forward recorded it (``loss`` for nodes
  recorded outside the model, i.e. the cross-entropy);
- times ``Tape.backward``, ``Adam.step`` and the model's ``zero_grad``.

Numbers accumulate into the current unit of work (one training step,
predict batch or request); ``summary`` reports the median over units.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

from spectralca import trainer
from spectralca.nn import Conv2D, Conv3D, Module
from spectralca.tensor import Tape

# Module paths of a depth-1 PatchClassifier, in forward order.
MODULE_PATHS = (
    "stem", "stem_bn",
    "block1.spatial_conv", "block1.spatial_bn",
    "block1.spectral_conv", "block1.spectral_bn",
    "block1.cross",
    "block1.spatial_token_norm", "block1.spectral_token_norm",
    "block1.spatial_ffn_norm", "block1.spectral_ffn_norm",
    "block1.spatial_ffn", "block1.spectral_ffn",
    "block1.projector",
    "head",
)
SELF_PATHS = ("block1.self", "model.self")
FORWARD_PATHS = MODULE_PATHS + SELF_PATHS
BACKWARD_PATHS = FORWARD_PATHS + ("loss",)
CONV_PATHS = ("stem", "block1.spatial_conv", "block1.spectral_conv", "block1.projector")

# Per-unit sums that are whole numbers; reported as exact integers.
INTEGER_KEYS = ("tape_nodes",) + tuple(f"flops.{p}" for p in CONV_PATHS)


def conv_counts(x_shape, w_shape, itemsize: int) -> tuple[int, int]:
    """(GEMM FLOPs, full im2col bytes) of one same-padded conv call.

    x is [B, C, *S] and the weight [O, C, *K]; the column matrix has
    C*prod(K) rows and B*prod(S) columns, and each output element is a dot
    product of one column, i.e. prod(K)*C multiply-adds.
    """
    batch, channels = x_shape[:2]
    positions = int(np.prod(x_shape[2:]))
    taps = int(np.prod(w_shape[2:]))
    rows = channels * taps
    return 2 * w_shape[0] * rows * batch * positions, rows * batch * positions * itemsize


def _output_bytes(out) -> int:
    return sum(t.data.nbytes for t in (out if isinstance(out, tuple) else (out,)))


def _traced_modules(model: Module):
    """(module, key) for the model, its children and each child's children."""
    yield model, "model.self"
    for name, child in vars(model).items():
        if not isinstance(child, Module):
            continue
        grandchildren = [(f"{name}.{n}", m) for n, m in vars(child).items()
                         if isinstance(m, Module)]
        yield child, f"{name}.self" if grandchildren else name
        for path, m in grandchildren:
            yield m, path


class Tracer:
    def __init__(self):
        self.units: list[dict[str, float]] = []
        self._stack: list[list] = []  # [key, seconds spent in traced children]

    def new_unit(self) -> None:
        self.units.append(defaultdict(float))

    def add(self, key: str, value: float) -> None:
        self.units[-1][key] += value

    @contextmanager
    def timed(self, key: str):
        """Add the block's wall time, in ms, to `key`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, (time.perf_counter() - t0) * 1e3)

    def summary(self) -> dict[str, float]:
        """Median over units of each key (0 where a unit lacks the key)."""
        keys = sorted({k for unit in self.units for k in unit})
        out = {}
        for key in keys:
            value = median(unit.get(key, 0.0) for unit in self.units)
            out[key] = int(value) if key in INTEGER_KEYS else value
        return out

    def _call(self, key, fn, module, args, kwargs):
        frame = [key, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(module, *args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
        self.add(f"fwd_ms.{key}", (dt - frame[1]) * 1e3)
        if not key.endswith(".self"):
            self.add(f"out_mb.{key}", _output_bytes(out) / 1e6)
        if isinstance(module, (Conv2D, Conv3D)):
            x = args[0]
            flops, cols = conv_counts(x.shape, module.weight.shape, x.data.itemsize)
            self.add(f"flops.{key}", flops)
            self.add(f"cols_mb.{key}", cols / 1e6)
        return out

    def _record(self, record, tape, node):
        key = self._stack[-1][0] if self._stack else "loss"
        self.add("tape_nodes", 1)
        inner = node.backward

        def backward(g):
            t0 = time.perf_counter()
            try:
                return inner(g)
            finally:
                self.add(f"bwd_ms.{key}", (time.perf_counter() - t0) * 1e3)

        node.backward = backward
        record(tape, node)

    @contextmanager
    def attach(self, model: Module):
        """Trace `model` and the tape/optimizer until the `with` statement ends."""
        originals = []
        for module, key in _traced_modules(model):
            cls = type(module)

            def call(inner_self, *args, _key=key, _fn=cls.__call__, **kwargs):
                return self._call(_key, _fn, inner_self, args, kwargs)

            originals.append((module, cls))
            module.__class__ = type(f"Traced{cls.__name__}", (cls,), {"__call__": call})
        record, backward, step = Tape.record, Tape.backward, trainer.Adam.step
        zero_grad = model.zero_grad

        def traced_backward(tape, loss):
            with self.timed("backward_ms"):
                backward(tape, loss)

        def traced_step(opt):
            with self.timed("adam_ms"):
                step(opt)

        def traced_zero_grad():
            with self.timed("zero_grad_ms"):
                zero_grad()

        Tape.record = lambda tape, node: self._record(record, tape, node)
        Tape.backward = traced_backward
        trainer.Adam.step = traced_step
        model.zero_grad = traced_zero_grad
        try:
            yield self
        finally:
            del model.zero_grad
            Tape.record, Tape.backward, trainer.Adam.step = record, backward, step
            for module, cls in originals:
                module.__class__ = cls
